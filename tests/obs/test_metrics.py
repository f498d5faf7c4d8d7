"""Transport counters and ``cluster.metrics()``.

Counters are always on (no ``trace=`` needed): the coalescer, the
header cache, the shm exporter and the retry loop each bump a few
integers as they work, and :meth:`Cluster.metrics` gathers the
per-process snapshots — over the wire for mp machine processes.
"""

from __future__ import annotations

import pytest

import repro as oopp
from repro.obs.metrics import Counters, counters, snapshot_process

#: every snapshot must carry these groups, populated or not.
GROUPS = ("coalesce", "retry", "faults", "serve", "header_cache", "shm")


class Echo:
    def echo(self, x):
        return x


class TestCounters:
    def test_inc_get_and_default(self):
        c = Counters()
        assert c.get("x") == 0
        c.inc("x")
        c.inc("x", 4)
        assert c.get("x") == 5

    def test_record_max_keeps_running_peak(self):
        c = Counters()
        c.record_max("serve.depth_peak", 3)
        c.record_max("serve.depth_peak", 1)   # lower: ignored
        assert c.get("serve.depth_peak") == 3
        c.record_max("serve.depth_peak", 9)
        assert c.get("serve.depth_peak") == 9

    def test_grouped_splits_on_first_dot(self):
        c = Counters()
        c.inc("coalesce.flushes", 3)
        c.inc("coalesce.messages_out", 7)
        c.inc("retry.attempts")
        assert c.grouped() == {
            "coalesce": {"flushes": 3, "messages_out": 7},
            "retry": {"attempts": 1},
        }

    def test_clear(self):
        c = Counters()
        c.inc("a.b")
        c.clear()
        assert c.snapshot() == {}

    def test_registry_is_a_process_singleton(self):
        assert counters() is counters()

    def test_snapshot_process_always_has_all_groups(self):
        snap = snapshot_process()
        for group in GROUPS:
            assert group in snap, group
        assert {"hits", "misses", "size"} <= set(snap["header_cache"])


class TestClusterMetrics:
    def test_single_process_backends_report_the_driver(self, tmp_path):
        for backend in ("inline", "sim"):
            with oopp.Cluster(n_machines=2, backend=backend,
                              storage_root=str(tmp_path / backend)) as cl:
                obj = cl.on(1).new(Echo)
                obj.echo(1)
                snap = cl.metrics()
            assert set(snap) == {"driver"}
            for group in GROUPS:
                assert group in snap["driver"]

    def test_mp_reports_driver_and_every_machine(self, mp_cluster):
        obj = mp_cluster.on(1).new(Echo)
        # a pipelined burst so the writer actually coalesces
        futures = [obj.echo.future(i) for i in range(50)]
        for f in futures:
            f.result(60)
        snap = mp_cluster.metrics()
        assert set(snap) == {"driver", "machine 0", "machine 1", "machine 2"}
        driver = snap["driver"]
        for group in GROUPS:
            assert group in driver
        # the burst flushed through the coalescer at least once
        assert driver["coalesce"].get("flushes", 0) > 0
        # 50 calls to one (object, method) site: the header cache hit
        assert driver["header_cache"]["hits"] > 0
        # the driver entry also carries the socket byte counters
        assert driver["traffic"]["bytes_out"] > 0
        # machine entries are kernel stats + the machine's own snapshot
        m1 = snap["machine 1"]
        assert m1["machine"] == 1
        assert m1["calls_served"] > 0
        for group in GROUPS:
            assert group in m1

    def test_mp_sync_replies_go_inline_and_bursts_still_batch(
            self, mp_cluster):
        obj = mp_cluster.on(1).new(Echo)
        for i in range(200):
            assert obj.echo(i) == i
        m1 = mp_cluster.metrics()["machine 1"]["coalesce"]
        # each sync call's reply was the only one owed on its
        # connection, so the worker wrote it without the writer hop
        assert m1.get("inline_sends", 0) >= 180
        futures = [obj.echo.future(i) for i in range(200)]
        assert [f.result(60) for f in futures] == list(range(200))
        m1 = mp_cluster.metrics()["machine 1"]["coalesce"]
        # a pipelined burst's replies still batch behind the writer
        assert m1.get("batched_flushes", 0) >= 1

    def test_metrics_counts_retries(self, tmp_path):
        from repro.transport.faults import FaultPlan, FaultRule

        plan = FaultPlan(seed=5, rules=[
            FaultRule(action="drop", direction="send", kinds=("req",),
                      methods=("echo",), nth=1)])
        with oopp.Cluster(n_machines=2, backend="mp", call_timeout_s=1.0,
                          retry=oopp.RetryConfig(retries=3, backoff_s=0.05),
                          fault_plan=plan,
                          storage_root=str(tmp_path / "r")) as cl:
            obj = cl.on(1).new(Idem)
            assert obj.echo(7) == 7  # first send dropped, retry lands
            snap = cl.metrics()
        assert snap["driver"]["retry"].get("attempts", 0) >= 1
        assert snap["driver"]["retry"].get("backoff_s", 0) > 0
        assert snap["driver"]["faults"].get("drop", 0) >= 1

    def test_metrics_after_shutdown_raises(self, tmp_path):
        cl = oopp.Cluster(n_machines=1, backend="inline",
                          storage_root=str(tmp_path / "r"))
        cl.shutdown()
        with pytest.raises(oopp.errors.ConfigError):
            cl.metrics()


class Idem:
    __oopp_idempotent__ = frozenset({"echo"})

    def echo(self, x):
        return x
