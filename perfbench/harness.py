"""One benchmark run: set up, measure, check, and name every metric.

``--trace 0`` runs the workload untraced and reports the end-to-end
metrics.  ``--trace 1`` runs it untraced for half the time and traced
for the other half, and reports the per-layer metrics (see
:mod:`layers`).  Either window runs in rounds, each on a cluster of its
own (see :mod:`workloads`); ``setup_s`` is the median of the rounds'
set-ups.  The metric names and units here are the ones
``BENCHMARK.json`` lists.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import platform
import statistics
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import layers
from repro.config import Config, TraceConfig
from repro.runtime.cluster import Cluster
from repro.storage.page import Page
from repro.util.hostid import host_fingerprint
from workloads import (FFT3D, ROUNDS, WORKLOADS, BulkPages, Measurement,
                       clock)

ROOT = Path(__file__).resolve().parent.parent

#: seconds of the FFT run that times the fft phases on the workloads
#: that do not transform.
FFT_PROBE_S = 0.5

END_TO_END = {
    "setup_s": "s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "ops_per_s": "1/s",
    "peak_rss_mb": "MiB",
}

PER_LAYER = {
    "proxy.outside_span_us": "us",
    "protocol.header_cache_hit_ratio": "ratio",
    "serde.dumps_us": "us",
    "serde.loads_us": "us",
    "serde.page_dumps_us": "us",
    "serde.page_loads_us": "us",
    "coalesce.queued_to_sent_us": "us",
    "coalesce.msgs_per_flush.driver": "msgs/flush",
    "coalesce.msgs_per_flush.machines": "msgs/flush",
    "wire.sent_to_received_us": "us",
    "wire.frames_per_call": "frames/call",
    "wire.bytes_per_call": "B/call",
    "wire.echo_roundtrip_us": "us",
    "shm.segments_per_call": "segments/call",
    "shm.copied_bytes_per_payload_byte": "ratio",
    "shm.segments_live_end": "count",
    "shm.export_attach_us": "us",
    "server.received_to_executed_us": "us",
    "server.executed_to_replied_us": "us",
    "serve.depth_peak.m0": "count",
    "serve.depth_peak.m1": "count",
    "serve.shed.m0": "count",
    "serve.shed.m1": "count",
    "reply.replied_to_done_us": "us",
    "futures.handoff_us": "us",
    "mp.spawn_s": "s",
    "mp.objects_ready_s": "s",
    "storage.page_read_ms": "ms",
    "storage.page_write_ms": "ms",
    "fft.kernel_ms": "ms",
    "fft.load_ms": "ms",
    "fft.axes12_ms": "ms",
    "fft.scatter_ms": "ms",
    "fft.assemble_ms": "ms",
    "fft.axis0_ms": "ms",
    "fft.back_ms": "ms",
    "fft.gather_ms": "ms",
    "fft.transpose_share": "ratio",
    "obs.trace_overhead_ratio": "ratio",
    "obs.trace_rate_overhead_ratio": "ratio",
    "obs.spans_dropped": "count",
    "client.op_p99_ms": "ms",
    "host.cpu_steal_share": "ratio",
}

#: each workload's op and rate under the names a user of it would give
#: them, as (name, unit, metric, scale); printed before the result line.
NAMED_VIEW = {
    "small_calls": [("sync_call_p50_us", "us", "op_p50_ms", 1e3),
                    ("sync_call_p90_us", "us", "op_p90_ms", 1e3),
                    ("pipelined_calls_per_s", "calls/s", "ops_per_s", 1)],
    "bulk_pages": [("page_p50_ms", "ms", "op_p50_ms", 1),
                   ("page_p90_ms", "ms", "op_p90_ms", 1),
                   ("page_mb_per_s", "MB/s", "ops_per_s",
                    BulkPages.PAGE_BYTES / 1e6)],
    "fft3d": [("transform_p50_ms", "ms", "op_p50_ms", 1),
              ("transform_p90_ms", "ms", "op_p90_ms", 1),
              ("transforms_per_s", "1/s", "ops_per_s", 1)],
}


def make_config(max_spans: int | None = None) -> Config:
    return Config(backend="mp", n_machines=2, call_timeout_s=60.0,
                  trace=None if max_spans is None
                  else TraceConfig(max_spans=max_spans))


def config_digest(config: Config) -> str:
    fields = json.dumps(dataclasses.asdict(config), sort_keys=True,
                        default=repr)
    return hashlib.sha256(fields.encode()).hexdigest()[:16]


def _git_commit() -> str | None:
    """HEAD's commit, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _src_digest() -> str:
    """Digest of every source file, so a checkout without git history
    is still identified."""
    digest = hashlib.sha256()
    src = ROOT / "src"
    for path in sorted(src.rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def provenance(workload: str, seed: int, seconds: float, trace: int,
               configs: dict) -> dict:
    return {
        "workload": workload, "seed": seed, "seconds": seconds,
        "trace": trace,
        "commit": _git_commit(),
        "src_digest": _src_digest(),
        "host_fingerprint": host_fingerprint(),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "mp_start_method": make_config().mp_start_method,
        "config_digests": {name: config_digest(c)
                           for name, c in configs.items()},
    }


def cpu_steal() -> tuple:
    """``(steal, total)`` CPU time so far, from ``/proc/stat``; steal is
    time a virtual machine was runnable but the hypervisor ran others."""
    try:
        with open("/proc/stat") as stat:
            fields = [int(x) for x in stat.readline().split()[1:9]]
    except (OSError, ValueError):
        return 0, 0
    return fields[7], sum(fields)


def summarize(m) -> dict:
    """Op latency and rate of a window: medians over the rounds that lost
    no more CPU to steal than its median round did.  Steal comes from
    other tenants of the host, never from the program."""
    median = statistics.median
    bar = median(m.steal)
    kept = [i for i, steal in enumerate(m.steal) if steal <= bar]
    return {
        "op_p50_ms": median(median(m.rounds[i]) for i in kept) * 1e3,
        "op_p90_ms": median(statistics.quantiles(m.rounds[i], n=10)[-1]
                            for i in kept) * 1e3,
        "ops_per_s": median(m.rates[i] for i in kept),
    }


def peak_rss_mb(cluster) -> float:
    """Highest VmHWM among the driver and the machine processes."""
    peak_kb = 0
    for pid in [os.getpid(), *cluster.fabric.machine_pids()]:
        with open(f"/proc/{pid}/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    peak_kb = max(peak_kb, int(line.split()[1]))
    return peak_kb / 1024


@dataclass
class Window:
    """One timed window: its rounds' measurement and set-ups, and, when
    traced, the joined spans and counter deltas."""

    m: Measurement = field(default_factory=Measurement)
    setup_s: list = field(default_factory=list)
    spawn_s: list = field(default_factory=list)
    peak_rss_mb: float = 0.0
    groups: dict = field(default_factory=dict)
    delta: dict = field(default_factory=dict)
    afters: list = field(default_factory=list)
    #: a short FFT run timing the phases, on workloads that do not
    #: transform themselves.
    fft: Measurement | None = None


def run_window(workload, config: Config) -> Window:
    """:data:`ROUNDS` rounds, each: set a cluster and the workload's
    objects up (timed from ``Cluster()`` entry until the objects exist
    and their first call has answered), generate the round's inputs,
    warm up, measure, check, tear down."""
    traced = config.trace is not None
    w = Window()
    m = w.m
    for round_no in range(ROUNDS):
        t0 = clock()
        cluster = Cluster(config=config)
        t1 = clock()
        try:
            state = workload.create(cluster)
            workload.first_call(state)
            w.setup_s.append(clock() - t0)
            w.spawn_s.append(t1 - t0)
            workload.generate(round_no)
            workload.warm_up(state)
            if traced:
                cluster.trace_spans()  # drain the warm-up calls
                before = layers.counter_snapshot(cluster)
                calls = m.driver_calls + m.nested_calls
                timed = len(m.timed)
            rounds, steal0 = len(m.rounds), cpu_steal()
            workload.measure(state, m)
            if len(m.rounds) > rounds:
                steal1 = cpu_steal()
                m.steal.append((steal1[0] - steal0[0])
                               / max(steal1[1] - steal0[1], 1))
            w.peak_rss_mb = max(w.peak_rss_mb, peak_rss_mb(cluster))
            if traced:
                after = layers.counter_snapshot(cluster)
                layers.join_spans(
                    cluster.trace_spans(), m.timed[timed:],
                    2 * (m.driver_calls + m.nested_calls - calls), w.groups)
                w.delta = layers.add_delta(
                    w.delta, layers.counter_delta(before, after))
                w.afters.append(after)
                if round_no == ROUNDS - 1 and not isinstance(workload, FFT3D):
                    w.fft = fft_probe(cluster, workload.seed)
            workload.close(state)
        finally:
            cluster.shutdown()
    return w


def fft_probe(cluster, seed: int) -> Measurement:
    probe = FFT3D(seed, FFT_PROBE_S * ROUNDS)
    probe.generate(0)
    plan = probe.create(cluster)
    probe.warm_up(plan)
    m = Measurement()
    probe.measure(plan, m)
    return m


def traced_config(workload) -> Config:
    """Tracing with room for every span a round can record."""
    return make_config(max_spans=2 * workload.max_calls() + 1000)


def layer_metrics(workload, seed: int, untraced: Window,
                  traced: Window) -> dict:
    m, m_u = traced.m, untraced.m
    out = layers.anatomy(traced.groups, len(m.latencies_s))
    out["obs.spans_dropped"] = 0  # join_spans rejects any drop
    out.update(layers.counter_metrics(
        traced.delta, traced.afters, driver_calls=m.driver_calls,
        nested_calls=m.nested_calls, payload_bytes=m.payload_bytes))
    out.update(layers.fft_phase_metrics((traced.fft or m).timed))
    t, u = summarize(m), summarize(m_u)
    out["obs.trace_overhead_ratio"] = t["op_p50_ms"] / u["op_p50_ms"]
    out["obs.trace_rate_overhead_ratio"] = u["ops_per_s"] / t["ops_per_s"]
    out["client.op_p99_ms"] = statistics.quantiles(
        m_u.latencies_s, n=100)[-1] * 1e3
    out["host.cpu_steal_share"] = statistics.fmean(m_u.steal + m.steal)
    out["mp.spawn_s"] = statistics.median(untraced.spawn_s)
    out["mp.objects_ready_s"] = statistics.median(
        s - p for s, p in zip(untraced.setup_s, untraced.spawn_s))

    rng = np.random.default_rng([seed, 4])
    pages = [Page(BulkPages.PAGE_BYTES, rng.bytes(BulkPages.PAGE_BYTES))
             for _ in range(2)]
    slab = (rng.standard_normal((32, 64, 32))
            + 1j * rng.standard_normal((32, 64, 32)))
    out.update(layers.probe_serde(workload.messages()))
    out.update(layers.probe_page_serde(pages[0]))
    out.update(layers.probe_shm(pages[0]))
    out.update(layers.probe_echo())
    out.update(layers.probe_future_handoff())
    out.update(layers.probe_storage(pages, BulkPages.SLOTS))
    out.update(layers.probe_fft_kernel(slab))
    return out


def run(name: str, seed: int, seconds: float, trace: bool) -> tuple:
    """One run; returns ``(report, result)`` where *result* is the
    benchmark's result object and *report* adds provenance and each
    workload's op under its own name."""
    cls = WORKLOADS[name]
    configs = {"untraced": make_config()}
    if trace:
        workload = cls(seed, seconds / 2)
        configs["traced"] = traced_config(workload)
        untraced = run_window(workload, configs["untraced"])
        traced = run_window(workload, configs["traced"])
        values = layer_metrics(workload, seed, untraced, traced)
        units = PER_LAYER
        runs = [untraced.m, traced.m] + ([traced.fft] if traced.fft else [])
    else:
        untraced = run_window(cls(seed, seconds), configs["untraced"])
        values = {"setup_s": statistics.median(untraced.setup_s),
                  **summarize(untraced.m),
                  "peak_rss_mb": untraced.peak_rss_mb}
        units = END_TO_END
        runs = [untraced.m]
    attempted = sum(m.attempted for m in runs)
    failed = sum(m.failed for m in runs)
    missing = set(units) - set(values)
    if missing:
        raise RuntimeError(f"metrics not measured: {sorted(missing)}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": float(values[k]), "unit": u}
                    for k, u in units.items()},
    }
    report = {"provenance": provenance(name, seed, seconds, int(trace),
                                       configs),
              "failed_fraction": failed / attempted}
    if not trace:
        report["named"] = {
            label: {"value": values[metric] * scale, "unit": unit}
            for label, unit, metric, scale in NAMED_VIEW[name]}
    return report, result
