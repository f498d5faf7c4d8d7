"""CoalescingSender: batching semantics, flush, error latching, and the
inline path for solo messages."""

from __future__ import annotations

import sys
import threading
import time
from typing import Optional

import pytest

from repro.errors import ChannelClosedError
from repro.transport.channel import Channel
from repro.transport.coalesce import CoalescingSender
from repro.transport.message import Response


class RecordingChannel(Channel):
    """Records every send/send_batch; optionally blocks or fails.

    With *gate* set, each write signals ``entered`` and then waits for
    the gate to open — a test can hold a flush or an inline write in
    progress for as long as it likes.
    """

    def __init__(self, block_s: float = 0.0,
                 fail_after: Optional[int] = None,
                 gate: Optional[threading.Event] = None) -> None:
        self.calls: list[list[Response]] = []
        #: the thread that made each call in ``calls``.
        self.threads: list[threading.Thread] = []
        self.block_s = block_s
        self.fail_after = fail_after
        self.gate = gate
        self.entered = threading.Event()
        #: most writes ever in progress at once (one writer per socket).
        self.max_active = 0
        self._active = 0
        self._lock = threading.Lock()

    def _record(self, msgs: list) -> None:
        with self._lock:
            self._active += 1
            self.max_active = max(self.max_active, self._active)
        try:
            with self._lock:
                if (self.fail_after is not None
                        and len(self.calls) >= self.fail_after):
                    raise ChannelClosedError("injected send failure")
                self.calls.append(list(msgs))
                self.threads.append(threading.current_thread())
            self.entered.set()
            if self.gate is not None:
                assert self.gate.wait(10), "test never opened the gate"
            if self.block_s:
                time.sleep(self.block_s)
        finally:
            with self._lock:
                self._active -= 1

    def send(self, msg) -> None:
        self._record([msg])

    def send_batch(self, msgs, max_bytes=None) -> None:
        self._record(msgs)

    def recv(self, timeout=None):  # pragma: no cover - not used
        raise NotImplementedError

    def close(self) -> None:
        pass


def msgs_of(channel: RecordingChannel) -> list[int]:
    return [m.request_id for call in channel.calls for m in call]


class TestCoalescing:
    def test_single_send_goes_through(self):
        ch = RecordingChannel()
        sender = CoalescingSender(ch)
        sender.send(Response(request_id=1))
        assert sender.flush(timeout=5)
        sender.close()
        assert msgs_of(ch) == [1]

    def test_burst_batches_while_writer_is_busy(self):
        # A slow channel keeps the writer inside one flush while the
        # producer floods the queue: the next flush must pick the whole
        # backlog up as one send_batch call.
        ch = RecordingChannel(block_s=0.05)
        sender = CoalescingSender(ch, max_msgs=100)
        for i in range(40):
            sender.send(Response(request_id=i))
        assert sender.flush(timeout=10)
        sender.close()
        assert msgs_of(ch) == list(range(40)), "order preserved"
        assert len(ch.calls) < 40, "backlog coalesced into fewer flushes"
        assert any(len(c) > 1 for c in ch.calls)
        assert sender.batched_flushes >= 1

    def test_max_msgs_bounds_one_flush(self):
        ch = RecordingChannel(block_s=0.05)
        sender = CoalescingSender(ch, max_msgs=8)
        for i in range(30):
            sender.send(Response(request_id=i))
        assert sender.flush(timeout=10)
        sender.close()
        assert msgs_of(ch) == list(range(30))
        assert all(len(c) <= 8 for c in ch.calls)

    def test_many_producer_threads_no_loss_no_dupes(self):
        ch = RecordingChannel(block_s=0.002)
        sender = CoalescingSender(ch, max_msgs=64)
        n_threads, per_thread = 8, 50

        def produce(tid):
            for i in range(per_thread):
                sender.send(Response(request_id=tid * 1000 + i))

        threads = [threading.Thread(target=produce, args=(t,))
                   for t in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10)
        assert sender.flush(timeout=10)
        sender.close()
        got = msgs_of(ch)
        assert len(got) == len(set(got)) == n_threads * per_thread
        # Per-producer order is preserved even across batches.
        for tid in range(n_threads):
            mine = [r - tid * 1000 for r in got if r // 1000 == tid]
            assert mine == sorted(mine)

    def test_error_latches_and_invokes_callback(self):
        errors = []
        ch = RecordingChannel(fail_after=0)
        sender = CoalescingSender(ch, on_error=errors.append)
        sender.send(Response(request_id=1))
        deadline = time.monotonic() + 5
        while not sender.failed and time.monotonic() < deadline:
            time.sleep(0.01)
        assert sender.failed
        assert len(errors) == 1 and isinstance(errors[0], ChannelClosedError)
        with pytest.raises(ChannelClosedError):
            sender.send(Response(request_id=2))

    def test_close_drains_pending(self):
        ch = RecordingChannel(block_s=0.01)
        sender = CoalescingSender(ch)
        for i in range(10):
            sender.send(Response(request_id=i))
        sender.close()
        assert msgs_of(ch) == list(range(10))
        with pytest.raises(ChannelClosedError):
            sender.send(Response(request_id=99))


class TestInlineSolo:
    def test_idle_sender_writes_solo_on_the_callers_thread(self):
        ch = RecordingChannel()
        sender = CoalescingSender(ch)
        sender.send(Response(request_id=1), solo=True)
        # written before send() returned, by this thread
        assert msgs_of(ch) == [1]
        assert ch.threads == [threading.current_thread()]
        assert sender.inline_sends == 1 and sender.flushes == 1
        sender.send(Response(request_id=2))  # not solo: the writer's job
        assert sender.flush(timeout=5)
        sender.close()
        assert msgs_of(ch) == [1, 2]
        assert ch.threads[1] is not threading.current_thread()
        assert sender.inline_sends == 1 and sender.flushes == 2

    def test_solo_send_during_a_flush_queues(self):
        gate = threading.Event()
        ch = RecordingChannel(gate=gate)
        sender = CoalescingSender(ch)
        try:
            sender.send(Response(request_id=1))
            assert ch.entered.wait(5), "writer never started the flush"
            # the writer is inside a flush: this must not write inline
            # (and so must not block behind the closed gate)
            sender.send(Response(request_id=2), solo=True)
            assert msgs_of(ch) == [1]
        finally:
            gate.set()
        assert sender.flush(timeout=5)
        sender.close()
        assert msgs_of(ch) == [1, 2]
        assert all(t is not threading.current_thread() for t in ch.threads)
        assert sender.inline_sends == 0

    def test_mixed_solo_and_queued_producers_keep_order(self):
        ch = RecordingChannel(block_s=0.0005)
        sender = CoalescingSender(ch, max_msgs=16)
        n_threads, per_thread = 8, 60
        errors: list[BaseException] = []

        def produce(tid):
            try:
                for i in range(per_thread):
                    sender.send(Response(request_id=tid * 1000 + i),
                                solo=(i + tid) % 3 != 0)
            except BaseException as exc:  # noqa: BLE001 - asserted below
                errors.append(exc)

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=produce, args=(t,))
                       for t in range(n_threads)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
            assert not any(t.is_alive() for t in threads)
        finally:
            sys.setswitchinterval(old)
        assert not errors, errors
        assert sender.flush(timeout=10)
        sender.close()
        got = msgs_of(ch)
        assert len(got) == len(set(got)) == n_threads * per_thread
        for tid in range(n_threads):
            mine = [r - tid * 1000 for r in got if r // 1000 == tid]
            assert mine == list(range(per_thread))
        assert ch.max_active == 1, "two threads wrote the channel at once"
        assert sender.messages_out == n_threads * per_thread

    def test_writer_waits_for_an_inline_write(self):
        gate = threading.Event()
        ch = RecordingChannel(gate=gate)
        sender = CoalescingSender(ch)
        inline = threading.Thread(
            target=sender.send, args=(Response(request_id=1),),
            kwargs={"solo": True})
        inline.start()
        try:
            assert ch.entered.wait(5), "inline write never started"
            sender.send(Response(request_id=2))
            time.sleep(0.1)  # give a wrongly eager writer time to start
            assert msgs_of(ch) == [1]
        finally:
            gate.set()
        inline.join(timeout=5)
        assert not inline.is_alive()
        assert sender.flush(timeout=5)
        sender.close()
        assert msgs_of(ch) == [1, 2]
        assert ch.max_active == 1

    def test_inline_failure_latches_and_reports_once(self):
        errors = []
        ch = RecordingChannel(fail_after=0)
        sender = CoalescingSender(ch, on_error=errors.append)
        with pytest.raises(ChannelClosedError):
            sender.send(Response(request_id=1), solo=True)
        assert sender.failed
        assert len(errors) == 1 and isinstance(errors[0], ChannelClosedError)
        for solo in (True, False):
            with pytest.raises(ChannelClosedError):
                sender.send(Response(request_id=2), solo=solo)
        assert len(errors) == 1
        sender.close(timeout=5)
        assert not sender._writer.is_alive()
        assert sender.inline_sends == 0 and sender.flushes == 0

    def test_flush_and_close_wait_for_an_inline_write(self):
        gate = threading.Event()
        ch = RecordingChannel(gate=gate)
        sender = CoalescingSender(ch)
        inline = threading.Thread(
            target=sender.send, args=(Response(request_id=1),),
            kwargs={"solo": True})
        inline.start()
        try:
            assert ch.entered.wait(5), "inline write never started"
            assert not sender.flush(timeout=0.1)
            closer = threading.Thread(target=sender.close)
            closer.start()
            closer.join(timeout=0.2)
            assert closer.is_alive(), "close() returned mid-write"
        finally:
            gate.set()
        inline.join(timeout=5)
        closer.join(timeout=5)
        assert not inline.is_alive() and not closer.is_alive()
        assert msgs_of(ch) == [1]
        assert ch.threads == [inline]
        assert not sender._writer.is_alive()
