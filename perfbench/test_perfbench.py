"""Tests of the benchmark itself.

Run from the root of a checkout::

    PYTHONPATH=src python -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import harness
import layers
from repro.obs.span import Span
from repro.runtime.cluster import Cluster
from workloads import ROUNDS, WORKLOADS, BulkPages, Measurement, SmallCalls

ROOT = Path(__file__).resolve().parent.parent

#: counters whose per-window delta depends only on the calls made.  Not
#: byte counts: request ids grow across clusters and pickle longer.  Not
#: header-cache hits alone: the cache is per process, so the second
#: cluster hits where the first missed; its lookups are counted here.
COUNTED = ("shm.segments_attached_total", "shm.bytes_copied",
           "coalesce.messages_out", "header_cache.lookups",
           "traffic.frames_in", "traffic.frames_out")


def test_benchmark_json_lists_what_the_harness_prints():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} \
        == harness.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} \
        == harness.PER_LAYER


def test_counter_deltas_repeat_across_clusters_in_one_process(tmp_path,
                                                             monkeypatch):
    monkeypatch.setenv("OOPP_STORAGE_DIR", str(tmp_path))
    workload = BulkPages(seed=7, seconds=60 * ROUNDS)
    deltas, totals = [], []
    for _ in range(2):
        with Cluster(config=harness.make_config()) as cluster:
            device = workload.create(cluster)
            workload.first_call(device)
            workload.generate(0)
            workload.ops = workload.ops[:12]
            workload.warm_up(device)
            before = layers.counter_snapshot(cluster)
            m = Measurement()
            workload.measure(device, m)
            after = layers.counter_snapshot(cluster)
            workload.close(device)
        assert (m.attempted, m.failed) == (12, 0)
        delta = layers.counter_delta(before, after)
        for counts in delta.values():
            counts["header_cache.lookups"] = (counts["header_cache.hits"]
                                              + counts["header_cache.misses"])
        deltas.append({proc: {k: v[k] for k in COUNTED if k in v}
                       for proc, v in delta.items()})
        totals.append(after["driver"]["shm.segments_attached_total"])
    # The driver's totals keep growing across clusters; the deltas do not.
    assert totals[1] > totals[0]
    assert deltas[0] == deltas[1]
    assert deltas[0]["driver"]["shm.segments_attached_total"] > 0


def _op_spans(i: int, t0: float) -> list:
    """A client span and its server span for one call starting at *t0*."""
    client = Span(span_id=100 + i, parent_id=None, kind="client",
                  backend="mp", machine=-1, peer=1, oid=1, method="get",
                  t_queued=t0 + 1, t_sent=t0 + 2, t_replied=t0 + 9)
    server = Span(span_id=200 + i, parent_id=100 + i, kind="server",
                  backend="mp", machine=1, peer=-1, oid=1, method="get",
                  t_received=t0 + 4, t_executed=t0 + 6, t_replied=t0 + 7)
    return [client, server]


def test_segments_add_up_to_each_op():
    spans, timed = [], []
    for i in range(10):
        spans += _op_spans(i, 100.0 * i)
        timed.append(("sync", 100.0 * i, 100.0 * i + 10))
    groups: dict = {}
    layers.join_spans(spans, timed, expected_spans=20, groups=groups)
    out = layers.anatomy(groups, n_ops=10)
    segments = [out[name] for name in layers.SEGMENTS]
    assert segments == [2e6, 1e6, 2e6, 2e6, 1e6, 2e6]
    assert sum(segments) == pytest.approx(10e6)


def test_anatomy_of_a_small_group_sums_to_its_median():
    # two ops, 10 and 14 long: the middle of the group is both of them
    spans = _op_spans(0, 0.0) + _op_spans(1, 100.0)
    timed = [("scatter", 0.0, 10.0), ("scatter", 100.0, 114.0)]
    groups: dict = {}
    layers.join_spans(spans, timed, 4, groups)
    out = layers.anatomy(groups, n_ops=2)
    assert sum(out[name] for name in layers.SEGMENTS) == pytest.approx(12e6)


def test_join_rejects_dropped_and_unmatched_spans():
    spans = _op_spans(0, 0.0) + _op_spans(1, 100.0)
    timed = [("sync", 0.0, 10.0), ("sync", 100.0, 110.0)]
    with pytest.raises(layers.TraceRejected, match="dropped"):
        layers.join_spans(spans[1:], timed, 4, {})
    orphan = spans[:3] + [Span(span_id=999, parent_id=42, kind="server",
                               backend="mp", machine=1, peer=-1, oid=1,
                               method="get", t_received=1, t_executed=2,
                               t_replied=3)]
    with pytest.raises(layers.TraceRejected, match="unmatched"):
        layers.join_spans(orphan, timed, 4, {})


class _WrongStore:
    """Answers every add one too high."""

    def __init__(self):
        self.data = {}

    def get(self, key):
        return self.data.get(key)

    def add(self, key, delta):
        self.data[key] = self.data.get(key, 0) + delta
        return self.data[key] + 1


def test_a_wrong_result_counts_as_a_failed_op():
    workload = SmallCalls(seed=3, seconds=0.2 * ROUNDS)
    workload.generate(0)
    m = Measurement()
    workload._sync_phase(_WrongStore(), {}, m)
    adds = sum(add for add, _, _ in workload.sync_ops[:m.attempted])
    assert m.attempted > 0 and adds > 0
    assert m.failed == adds


def test_without_the_program_it_fails_and_prints_no_result(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "small_calls",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
