"""Write coalescing: pack bursts of small sends into one syscall.

The runtime issues pipelined requests from many threads at once (the
paper's loops of ``device.write(page).future()``), and each
``channel.send`` costs a full syscall.  :class:`CoalescingSender` puts a
queue and a writer thread in front of the channel: while the writer is
inside ``sendall`` for one flush, further sends pile up in the queue —
the GIL is released during the syscall — and the next drain ships them
all as a single ``KIND_BATCH`` frame.  Batching therefore *emerges from
backpressure*: a busy connection amortizes the syscall across the whole
burst.

The writer thread is not free on an idle connection: handing one
message to it and waiting for it to wake costs about 100 µs per call
on a loaded 2-core host, roughly a third of an unpipelined mp call.  So
a sender may write a message *inline*, on the calling thread, when the
caller marks it ``solo`` — nothing else is expected that could batch
with it — and the sender is idle: the queue is empty and neither a
flush nor another inline write is in progress.  Everything else queues
for the writer exactly as before.  The server side marks a reply solo
when it is the last one owed on its connection and no undispatched
rest of a received ``KIND_BATCH`` is waiting, so a synchronous call's
reply skips the hop while a pipelined burst's replies still batch.

Only one thread writes to the channel at a time: the writer thread does
not start a flush while an inline write is in progress, and a solo
send that finds a flush in progress queues behind it.  A producer's
messages therefore leave in the order it sent them.

Error contract: a failed flush or inline write latches the sender
closed, invokes ``on_error`` once (the mp backend uses it to fail all
pending futures on the connection), and every queued-but-unsent message
is lost — exactly the semantics of a dropped socket, which the retry
layer already handles per idempotent call.  The failed inline write
also re-raises in its caller, and later sends raise
:class:`~repro.errors.ChannelClosedError`.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Callable, Optional

from ..errors import ChannelClosedError
from ..obs.metrics import counters
from .channel import Channel
from .message import Message


class CoalescingSender:
    """A send-side front for a :class:`~repro.transport.channel.Channel`."""

    def __init__(self, channel: Channel, *, max_msgs: int = 128,
                 max_bytes: int = 1 << 18,
                 on_error: Optional[Callable[[BaseException], None]] = None,
                 name: str = "coalesce") -> None:
        self._channel = channel
        self._max_msgs = max(1, max_msgs)
        self._max_bytes = max_bytes
        self._on_error = on_error
        self._queue: deque[Message] = deque()
        self._cond = threading.Condition()
        self._closed = False
        self._error: Optional[BaseException] = None
        self._draining = False
        #: a producer thread is writing a solo message to the channel.
        self._inline = False
        #: diagnostics: how many flushes shipped more than one message,
        #: and how many were solo messages written by their producer.
        self.flushes = 0
        self.batched_flushes = 0
        self.inline_sends = 0
        self.messages_out = 0
        self._writer = threading.Thread(target=self._drain_loop,
                                        name=f"{name}-writer", daemon=True)
        self._writer.start()

    # -- producer side -----------------------------------------------------

    def send(self, msg: Message, *, solo: bool = False) -> None:
        """Enqueue *msg* for the writer (returns before it hits the wire).

        With *solo* set and the sender idle, the calling thread writes
        *msg* itself instead and returns once it is on the channel.
        """
        with self._cond:
            if self._error is not None:
                raise ChannelClosedError(
                    f"send failed earlier: {self._error}") from self._error
            if self._closed:
                raise ChannelClosedError("sender closed")
            if not solo or self._queue or self._draining or self._inline:
                self._queue.append(msg)
                self._cond.notify()
                return
            self._inline = True
        try:
            self._channel.send(msg)
        except BaseException as exc:
            self._fail(exc)
            raise
        else:
            self._count([msg], inline=True)
        finally:
            with self._cond:
                self._inline = False
                self._cond.notify_all()

    def flush(self, timeout: Optional[float] = None) -> bool:
        """Block until everything sent so far has been handed to the
        channel (or *timeout* elapses); True on success."""
        with self._cond:
            return self._cond.wait_for(
                lambda: (not self._queue and not self._draining
                         and not self._inline)
                or self._error is not None or self._closed,
                timeout=timeout)

    def close(self, timeout: Optional[float] = 5.0) -> None:
        """Drain outstanding messages, then stop the writer."""
        self.flush(timeout)
        with self._cond:
            self._closed = True
            self._cond.notify_all()
        self._writer.join(timeout)

    @property
    def failed(self) -> bool:
        with self._cond:
            return self._error is not None

    # -- bookkeeping -------------------------------------------------------

    def _count(self, batch: list, *, inline: bool = False) -> None:
        self.flushes += 1
        self.messages_out += len(batch)
        # Mirror into the process-wide registry so cluster.metrics()
        # sees batch occupancy across every sender (per-instance
        # counters die with the connection).
        c = counters()
        c.inc("coalesce.flushes")
        c.inc("coalesce.messages_out", len(batch))
        if inline:
            self.inline_sends += 1
            c.inc("coalesce.inline_sends")
        if len(batch) > 1:
            self.batched_flushes += 1
            c.inc("coalesce.batched_flushes")
            c.inc("coalesce.batched_messages", len(batch))

    def _fail(self, exc: BaseException) -> None:
        """Latch the sender closed and hand *exc* to ``on_error``."""
        with self._cond:
            self._error = exc
            self._queue.clear()
            self._cond.notify_all()
        if self._on_error is not None:
            try:
                self._on_error(exc)
            except Exception:  # noqa: BLE001 - callback best effort
                pass

    # -- writer thread -----------------------------------------------------

    def _drain_loop(self) -> None:
        while True:
            with self._cond:
                self._cond.wait_for(
                    lambda: not self._inline and (self._queue or self._closed
                                                  or self._error is not None))
                if not self._queue:
                    return  # closed and drained, or latched by an inline write
                batch = []
                while self._queue and len(batch) < self._max_msgs:
                    batch.append(self._queue.popleft())
                self._draining = True
            try:
                if len(batch) == 1:
                    self._channel.send(batch[0])
                else:
                    self._channel.send_batch(batch, self._max_bytes)
                self._count(batch)
            except BaseException as exc:  # noqa: BLE001 - latch any failure
                self._fail(exc)
                return
            finally:
                with self._cond:
                    self._draining = False
                    if not self._queue:
                        self._cond.notify_all()
