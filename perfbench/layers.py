"""Per-layer metrics, measured from outside the program.

Three sources, none of which needs a change to ``src/``:

* spans the program records under ``Config(trace=TraceConfig(...))``,
  read back through ``cluster.trace_spans()`` (:func:`join_spans`,
  :func:`anatomy`);
* always-on counters from ``cluster.metrics()``, taken as after minus
  before over the measured window, per process (:func:`counter_delta`);
* benchmark-timed calls to each layer's public functions (the
  ``probe_*`` functions), on inputs the workload generates.
"""

from __future__ import annotations

import os
import queue
import statistics
import threading
import time

import numpy as np

from repro.errors import TransportError
from repro.fft.kernels import fft_kernel
from repro.runtime.futures import RemoteFuture
from repro.storage.device import PageDevice
from repro.storage.page import Page
from repro.transport import serde, shm
from repro.transport.message import Response, message_to_payload
from repro.transport.socket_channel import SocketChannel, listen_socket

#: the blocking path of one op, in causal order: the driver outside its
#: client span, then the client and server span stamps in turn.
SEGMENTS = ("proxy.outside_span_us", "coalesce.queued_to_sent_us",
            "wire.sent_to_received_us", "server.received_to_executed_us",
            "server.executed_to_replied_us", "reply.replied_to_done_us")

#: reported FFT phase of each method a forward transform's driver issues
#: (``load`` is a plan method, the rest go through ``plan.group.invoke``).
FFT_PHASES = {"load": "load", "fft_axes12": "axes12", "scatter": "scatter",
              "assemble": "assemble", "fft_axis0": "axis0",
              "scatter_back": "back", "assemble_back": "back",
              "slab": "gather"}

#: how far the segment medians of a traced call may sum from its median.
SEGMENT_SUM_TOLERANCE = 0.05


class TraceRejected(Exception):
    """The traced run is incomplete or does not add up."""


def median(values) -> float:
    return statistics.median(values)


# -- counters --------------------------------------------------------------


def _flatten(tree: dict, prefix: str = "") -> dict:
    out: dict = {}
    for key, value in tree.items():
        name = f"{prefix}{key}"
        if isinstance(value, dict):
            out.update(_flatten(value, name + "."))
        elif isinstance(value, (int, float)) and not isinstance(value, bool):
            out[name] = value
    return out


def counter_snapshot(cluster) -> dict:
    """``{process: {dotted.name: value}}`` from ``cluster.metrics()``."""
    return {proc: _flatten(tree) for proc, tree in cluster.metrics().items()}


def counter_delta(before: dict, after: dict) -> dict:
    """After minus before, per process and counter.

    The registries are process-global and keep growing across clusters
    in one driver, so only a delta describes one window.
    """
    return {proc: {name: value - before.get(proc, {}).get(name, 0)
                   for name, value in values.items()}
            for proc, values in after.items()}


def add_delta(total: dict, delta: dict) -> dict:
    """Per-process sum of two counter deltas."""
    out = {proc: dict(values) for proc, values in total.items()}
    for proc, values in delta.items():
        acc = out.setdefault(proc, {})
        for name, value in values.items():
            acc[name] = acc.get(name, 0) + value
    return out


def _machines(tree: dict) -> list:
    return [values for proc, values in sorted(tree.items())
            if proc.startswith("machine")]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def counter_metrics(delta: dict, afters: list, *, driver_calls: int,
                    nested_calls: int, payload_bytes: int) -> dict:
    """Counter-derived metrics of a window: *delta* sums its rounds'
    deltas, *afters* holds each round's closing snapshot."""
    driver, machines = delta["driver"], _machines(delta)
    every = [driver, *machines]

    def total(name, procs=every):
        return sum(p.get(name, 0) for p in procs)

    calls = driver_calls + nested_calls
    out = {
        "protocol.header_cache_hit_ratio": _ratio(
            total("header_cache.hits"),
            total("header_cache.hits") + total("header_cache.misses")),
        "coalesce.msgs_per_flush.driver": _ratio(
            driver.get("coalesce.messages_out", 0),
            driver.get("coalesce.flushes", 0)),
        "coalesce.msgs_per_flush.machines": _ratio(
            total("coalesce.messages_out", machines),
            total("coalesce.flushes", machines)),
        "wire.frames_per_call": _ratio(
            driver["traffic.frames_in"] + driver["traffic.frames_out"],
            driver_calls),
        "wire.bytes_per_call": _ratio(
            driver["traffic.bytes_in"] + driver["traffic.bytes_out"],
            driver_calls),
        "shm.segments_per_call": _ratio(
            total("shm.segments_attached_total"), calls),
        "shm.copied_bytes_per_payload_byte": _ratio(
            total("shm.bytes_copied"), payload_bytes),
        "shm.segments_live_end": sum(
            p.get("shm.segments_live", 0) for p in afters[-1].values()),
    }
    for i, procs in enumerate(zip(*(_machines(a) for a in afters))):
        out[f"serve.depth_peak.m{i}"] = max(
            p.get("serve.depth_peak", 0) for p in procs)
        out[f"serve.shed.m{i}"] = machines[i].get("serve.shed", 0)
    return out


# -- spans -----------------------------------------------------------------


def _segments(op_s: float, client, server) -> list:
    """The :data:`SEGMENTS` of one op; they sum to *op_s* exactly."""
    return [op_s - (client.t_replied - client.t_queued),
            client.t_sent - client.t_queued,
            server.t_received - client.t_sent,
            server.t_executed - server.t_received,
            server.t_replied - server.t_executed,
            client.t_replied - server.t_replied]


def join_spans(spans: list, timed: list, expected_spans: int,
               groups: dict) -> None:
    """Join client to server spans and split each timed op by layer.

    *spans* are one cluster's, *timed* the ``(group, t0, t1)`` of each
    call or fan-out of calls its driver issued with nothing else in
    flight: the driver client spans queued inside an interval belong to
    it, and the one that replied last is its blocking path.  Appends
    ``(op_s, segments)`` to ``groups[(group, machine)]``, keyed by the
    machine the blocking call went to: which one answers last in a
    fan-out varies, and each has its own anatomy.  Raises
    :class:`TraceRejected` if any span was dropped or left unmatched.
    """
    clients = {s.span_id: s for s in spans if s.kind == "client"}
    servers = {s.parent_id: s for s in spans if s.kind == "server"}
    dropped = expected_spans - len(spans)
    if dropped:
        raise TraceRejected(f"expected {expected_spans} spans, drained "
                            f"{len(spans)}: {dropped} dropped")
    unmatched = (len(set(clients) ^ set(servers))
                 + sum(s.error is not None or s.t_replied is None
                       for s in spans))
    if unmatched:
        raise TraceRejected(f"{unmatched} spans unmatched or unfinished")

    roots = sorted((s for s in clients.values() if s.parent_id is None),
                   key=lambda s: s.t_queued)
    starts = [s.t_queued for s in roots]
    pos = 0
    for group, t0, t1 in timed:
        while pos < len(starts) and starts[pos] < t0:
            pos += 1
        end = pos
        while end < len(starts) and starts[end] <= t1:
            end += 1
        if end == pos:
            raise TraceRejected(f"no client span inside a timed {group} op")
        client = max(roots[pos:end], key=lambda s: s.t_replied)
        groups.setdefault((group, client.peer), []).append(
            (t1 - t0, _segments(t1 - t0, client, servers[client.span_id])))
        pos = end


def anatomy(groups: dict, n_ops: int) -> dict:
    """The :data:`SEGMENTS` of one workload op, in microseconds.

    A group's anatomy is the mean of each segment over the ops in the
    middle fifth of its op times (plain medians of right-skewed segments
    do not add up to the median op).  Summed over the groups one
    workload op issues (*n_ops* ops in all), the segments add up to the
    op.  Raises :class:`TraceRejected` if a group's anatomy sums to more
    than 5% away from its median op.
    """
    per_op = [0.0] * len(SEGMENTS)
    for group, ops in groups.items():
        ops = sorted(ops, key=lambda op: op[0])
        skip = 2 * len(ops) // 5  # as many from each end
        middle = ops[skip:len(ops) - skip]
        means = [statistics.fmean(col)
                 for col in zip(*(segs for _, segs in middle))]
        op_median = median(op for op, _ in ops)
        if abs(sum(means) - op_median) > SEGMENT_SUM_TOLERANCE * op_median:
            raise TraceRejected(
                f"{group}: segments sum to {sum(means) * 1e6:.1f} us, "
                f"median traced op is {op_median * 1e6:.1f} us")
        for i, value in enumerate(means):
            per_op[i] += value * len(ops) / n_ops
    return {name: value * 1e6 for name, value in zip(SEGMENTS, per_op)}


# -- probes of single layers -------------------------------------------------


def _timed_median(fn, reps: int) -> float:
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return median(times)


def probe_serde(messages: list, reps: int = 20) -> dict:
    """Encode and decode the workload's own request arguments and
    replies as the wire does (call tail / ``Response`` payload)."""
    dumps, loads = [], []
    for i, msg in enumerate(messages):
        obj = ((i, None, None, msg, {}) if isinstance(msg, tuple)
               else message_to_payload(Response(i, msg)))
        encoded = serde.dumps(obj)
        dumps.append(_timed_median(lambda: serde.dumps(obj), reps))
        loads.append(_timed_median(lambda: serde.loads(*encoded), reps))
    return {"serde.dumps_us": median(dumps) * 1e6,
            "serde.loads_us": median(loads) * 1e6}


def probe_page_serde(page: Page, reps: int = 20) -> dict:
    header, buffers = serde.dumps(page)
    return {
        "serde.page_dumps_us": _timed_median(lambda: serde.dumps(page),
                                             reps) * 1e6,
        "serde.page_loads_us": _timed_median(
            lambda: serde.loads(header, buffers), reps) * 1e6,
    }


def probe_shm(page: Page, reps: int = 20) -> dict:
    """Export a page buffer to a segment and attach it, as a send and a
    receive do; the segment is unlinked at its last release."""
    view = memoryview(page.raw)
    mgr = shm.manager()

    def once():
        seg = shm.export_buffer(view)
        mgr.attach(seg.name, view.nbytes)
        seg.commit()
        mgr.release(seg.name)

    return {"shm.export_attach_us": _timed_median(once, reps) * 1e6}


def probe_echo(reps: int = 2000) -> dict:
    """Round trip of a tiny message over a loopback SocketChannel pair:
    the floor under any remote call."""
    listener = listen_socket()
    host, port = listener.getsockname()[:2]
    accepted: queue.Queue = queue.Queue()

    def echo():
        sock, _ = listener.accept()
        chan = SocketChannel(sock)
        accepted.put(chan)
        try:
            while True:
                chan.send(chan.recv())
        except TransportError:
            pass  # the client closed the channel

    thread = threading.Thread(target=echo, name="perfbench-echo")
    thread.start()
    client = SocketChannel.connect(host, port)
    server = accepted.get(timeout=10)
    times = []
    try:
        for i in range(reps):
            t0 = time.perf_counter()
            client.send(Response(i, i))
            client.recv()
            times.append(time.perf_counter() - t0)
    finally:
        client.close()
        thread.join(timeout=10)
        server.close()
        listener.close()
    return {"wire.echo_roundtrip_us": median(times) * 1e6}


def probe_future_handoff(reps: int = 300) -> dict:
    """``RemoteFuture.set_result`` on this thread until ``result()``
    returns on a thread already waiting in it."""
    handoff: queue.Queue = queue.Queue()
    times: list = []

    def waiter():
        for _ in range(reps):
            fut = handoff.get()
            t_set = fut.result()
            times.append(time.perf_counter() - t_set)

    thread = threading.Thread(target=waiter, name="perfbench-waiter")
    thread.start()
    for _ in range(reps):
        fut = RemoteFuture(label="handoff")
        handoff.put(fut)
        time.sleep(0.0005)  # let the waiter block in result()
        fut.set_result(time.perf_counter())
    thread.join(timeout=30)
    return {"futures.handoff_us": median(times) * 1e6}


def probe_storage(pages: list, slots: int, reps: int = 16) -> dict:
    """``PageDevice`` write and read in this process, same page size."""
    device = PageDevice(f"probe-{os.getpid()}", slots, pages[0].nbytes)
    write_s, read_s = [], []
    try:
        for i in range(reps):
            t0 = time.perf_counter()
            device.write(pages[i % len(pages)], i % slots)
            t1 = time.perf_counter()
            device.read(i % slots)
            write_s.append(t1 - t0)
            read_s.append(time.perf_counter() - t1)
    finally:
        device.delete_backing_file()
    return {"storage.page_write_ms": median(write_s) * 1e3,
            "storage.page_read_ms": median(read_s) * 1e3}


def probe_fft_kernel(slab: np.ndarray, reps: int = 10) -> dict:
    """``fft_kernel`` over one slab's axis-2 then axis-1 lines."""
    def once():
        out = fft_kernel(slab, -1)
        fft_kernel(np.moveaxis(out, 1, -1), -1)

    return {"fft.kernel_ms": _timed_median(once, reps) * 1e3}


def fft_phase_metrics(timed: list) -> dict:
    """Per-transform median of each driver-timed FFT phase, and the
    transposes' (scatter, assemble, back) share of the transform time.

    *timed* holds ``(method, t0, t1)`` in issue order; each transform
    starts with its ``load``.
    """
    transforms: list = []
    for method, t0, t1 in timed:
        if method == "load":
            transforms.append({})
        phase = FFT_PHASES[method]
        transforms[-1][phase] = transforms[-1].get(phase, 0.0) + (t1 - t0)
    out = {f"fft.{phase}_ms": median(t[phase] for t in transforms) * 1e3
           for phase in transforms[0]}
    total = sum(sum(t.values()) for t in transforms)
    transpose = sum(t[p] for t in transforms
                    for p in ("scatter", "assemble", "back"))
    out["fft.transpose_share"] = transpose / total
    return out
