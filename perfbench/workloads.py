"""The benchmark's three workloads on a 2-machine mp cluster.

A timed window runs in :data:`ROUNDS` rounds, each on a freshly set-up
cluster: set up, ``generate`` the round's inputs from the seed, warm
up, ``measure`` for ``seconds / ROUNDS``, check, tear down.  The
end-to-end metrics are medians over rounds, so neither a burst of load
from elsewhere on the host nor the placement one cluster's processes
happen to get decides a run.  Load comes from one driver thread, and
every result is checked: a call that raised or returned a wrong value
counts as a failed op.

* ``small_calls`` -- two ``KVService`` objects, one per machine.  A sync
  phase with one call in flight to machine 1 (90% get / 10% add), then a
  pipelined phase keeping 32 calls in flight across both machines
  (70% get / 30% add).
* ``bulk_pages`` -- one ``PageDevice`` on machine 1 with 16 slots of
  4 MiB; one call in flight, 50% write / 50% read of seeded pages.
* ``fft3d`` -- ``DistributedFFT3D`` with 2 workers over seeded
  64x64x32 complex128 volumes, each transform checked against
  ``numpy.fft.fftn``.

An *op* is a workload's unit of work: a sync call, a page call or a
transform.
"""

from __future__ import annotations

import itertools
import os
import time
from collections import Counter, deque
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from repro.errors import OoppError
from repro.fft.distributed import DistributedFFT3D
from repro.loadgen.workload import KVService
from repro.storage.device import PageDevice
from repro.storage.page import Page

#: machines in every workload's cluster.
N_MACHINES = 2

#: rounds per timed window, each on its own cluster.
ROUNDS = 20

clock = time.monotonic  # the clock the tracer stamps spans with


@dataclass
class Measurement:
    """What the rounds of one timed window produced."""

    #: per round, the latency of each op timed with one op in flight.
    rounds: list = field(default_factory=list)
    #: per round, ops completed per second of the rate-bearing phase.
    rates: list = field(default_factory=list)
    #: per round, the share of CPU time the hypervisor took (steal).
    steal: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    #: remote calls the driver issued, and calls machines issued to
    #: each other (the traced run expects two spans each).
    driver_calls: int = 0
    nested_calls: int = 0
    #: bytes of out-of-band payload (pages, arrays) the calls carried.
    payload_bytes: int = 0
    #: ``(group, t0, t1)`` per call or fan-out of calls the driver timed
    #: with nothing else in flight.
    timed: list = field(default_factory=list)

    def add_round(self, latencies: list, rate: float | None = None) -> None:
        """Keep a round that timed any op; *rate* defaults to the
        sequential rate of its ops."""
        if not latencies:
            return
        self.rounds.append(latencies)
        self.rates.append(rate if rate is not None
                          else len(latencies) / sum(latencies))

    @property
    def latencies_s(self) -> list:
        return [t for r in self.rounds for t in r]


def _seeded(seed: int, stream: int, round_no: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream, round_no])


class SmallCalls:
    """Tiny calls: the stub, header cache, serde, coalescer, socket,
    dispatch and future wake-up do all the work."""

    name = "small_calls"
    N_KEYS = 64
    WINDOW = 32
    #: ops generated per second of phase; the loops stop at the deadline
    #: long before these run out.
    SYNC_OPS_PER_S = 10_000
    PIPE_OPS_PER_S = 40_000

    def __init__(self, seed: int, seconds: float) -> None:
        self.seed = seed
        self.phase_s = seconds / ROUNDS / 2
        self.keys = [f"k{i}" for i in range(self.N_KEYS)]
        self.n_sync = int(self.phase_s * self.SYNC_OPS_PER_S) + 100
        self.n_pipe = int(self.phase_s * self.PIPE_OPS_PER_S) + 100

    def generate(self, round_no: int) -> None:
        rng = _seeded(self.seed, 1, round_no)
        n_sync, n_pipe = self.n_sync, self.n_pipe
        self.sync_ops = list(zip(
            (rng.random(n_sync) < 0.10).tolist(),
            rng.integers(0, self.N_KEYS, n_sync).tolist(),
            rng.integers(1, 10, n_sync).tolist()))
        self.pipe_ops = list(zip(
            (rng.random(n_pipe) < 0.30).tolist(),
            rng.integers(0, self.N_KEYS, n_pipe).tolist(),
            rng.integers(0, N_MACHINES, n_pipe).tolist()))

    def create(self, cluster) -> list:
        return [cluster.on(m).new(KVService) for m in range(N_MACHINES)]

    def first_call(self, stores: list) -> None:
        for store in stores:
            store.get(self.keys[0])

    def warm_up(self, stores: list) -> None:
        for store in stores:
            for _ in range(50):
                store.get(self.keys[0])

    def close(self, stores: list) -> None:
        pass

    def max_calls(self) -> int:
        """Most calls one round can issue."""
        return self.n_sync + self.n_pipe + 2 * self.N_KEYS

    def messages(self) -> list:
        """Request argument tuples and reply values of the workload."""
        out: list = []
        for add, k, delta in self.sync_ops[:200]:
            key = self.keys[k]
            out.append((key, delta) if add else (key,))
            out.append(delta if add else None)
        return out

    def measure(self, stores: list, m: Measurement) -> None:
        """The sync phase, then the pipelined phase (a pipelined burst
        leaves later sync calls slower, so sync goes first)."""
        model: list[dict] = [{} for _ in stores]
        latencies = self._sync_phase(stores[1], model[1], m)
        m.add_round(latencies, self._pipelined_phase(stores, model, m))
        # Each object's final counters equal the adds issued to it.
        for store, values in zip(stores, model):
            for key, value in values.items():
                m.driver_calls += 1
                if store.get(key) != value:
                    m.failed += 1

    def _sync_phase(self, store, model: dict, m: Measurement) -> list:
        """One call in flight; returns the latencies."""
        keys = self.keys
        latencies = []
        deadline = clock() + self.phase_s
        for add, k, delta in self.sync_ops:
            key = keys[k]
            m.attempted += 1
            m.driver_calls += 1
            t0 = clock()
            try:
                got = store.add(key, delta) if add else store.get(key)
            except OoppError:
                m.failed += 1
                continue
            t1 = clock()
            latencies.append(t1 - t0)
            m.timed.append(("sync", t0, t1))
            if add:
                want = model[key] = model.get(key, 0) + delta
            else:
                want = model.get(key)
            if got != want:
                m.failed += 1
            if t1 >= deadline:
                break
        return latencies

    def _pipelined_phase(self, stores: list, model: list[dict],
                         m: Measurement) -> float:
        """:data:`WINDOW` calls in flight; returns calls/s."""
        keys, window = self.keys, self.WINDOW
        adds: dict = {}
        gets: list = []
        inflight: deque = deque()
        ops = iter(self.pipe_ops)
        done = 0
        t_start = clock()
        deadline = t_start + self.phase_s
        while True:
            while len(inflight) < window and clock() < deadline:
                op = next(ops, None)
                if op is None:
                    break
                add, k, mach = op
                store = stores[mach]
                call = store.add if add else store.get
                args = (keys[k], 1) if add else (keys[k],)
                inflight.append((add, mach, keys[k], call.future(*args)))
            if not inflight:
                break
            add, mach, key, fut = inflight.popleft()
            m.attempted += 1
            m.driver_calls += 1
            try:
                got = fut.result()
            except OoppError:
                m.failed += 1
                continue
            done += 1
            if add:
                adds.setdefault((mach, key), []).append(got)
            else:
                gets.append((mach, key, got))
        rate = done / (clock() - t_start)
        # Writers on one object exclude each other, so the adds of +1 to
        # a key returned exactly base+1 .. base+n in some order, and a
        # get saw a value between base and base+n.
        for (mach, key), got in adds.items():
            base = model[mach].get(key, 0)
            want = Counter(range(base + 1, base + len(got) + 1))
            m.failed += sum((Counter(got) - want).values())
            model[mach][key] = base + len(got)
        for mach, key, got in gets:
            hi = model[mach].get(key)
            n_adds = len(adds.get((mach, key), ()))
            if got is None:
                ok = hi is None or hi == n_adds
            else:
                ok = hi is not None and hi - n_adds <= got <= hi
            if not ok:
                m.failed += 1
        return rate


_device_names = itertools.count()


class BulkPages:
    """4 MiB pages through a remote PageDevice: serde's out-of-band
    buffers, shm export/attach and file I/O do the work."""

    name = "bulk_pages"
    PAGE_BYTES = 4 << 20
    SLOTS = 16
    POOL = 8
    OPS_PER_S = 500

    def __init__(self, seed: int, seconds: float) -> None:
        self.seed = seed
        self.round_s = seconds / ROUNDS
        self.n_ops = int(self.round_s * self.OPS_PER_S) + 20

    def generate(self, round_no: int) -> None:
        rng = _seeded(self.seed, 2, round_no)
        self.pool = [Page(self.PAGE_BYTES, rng.bytes(self.PAGE_BYTES))
                     for _ in range(self.POOL)]
        n = self.n_ops
        self.ops = list(zip((rng.random(n) < 0.5).tolist(),
                            rng.integers(0, self.SLOTS, n).tolist(),
                            rng.integers(0, self.POOL, n).tolist()))

    def create(self, cluster):
        name = f"bench-pages-{os.getpid()}-{next(_device_names)}"
        return cluster.on(1).new(PageDevice, name, self.SLOTS,
                                 self.PAGE_BYTES)

    def first_call(self, device) -> None:
        device.describe()

    def warm_up(self, device) -> None:
        """Write every slot once, so the file and page cache are warm."""
        self.slots = [slot % self.POOL for slot in range(self.SLOTS)]
        for slot, src in enumerate(self.slots):
            device.write(self.pool[src], slot)

    def close(self, device) -> None:
        device.delete_backing_file()

    def max_calls(self) -> int:
        return self.n_ops

    def messages(self) -> list:
        return [(self.pool[0], 0), None, (0,), self.pool[1]]

    def measure(self, device, m: Measurement) -> None:
        latencies = []
        deadline = clock() + self.round_s
        for write, slot, src in self.ops:
            m.attempted += 1
            m.driver_calls += 1
            t0 = clock()
            try:
                if write:
                    device.write(self.pool[src], slot)
                else:
                    page = device.read(slot)
            except OoppError:
                m.failed += 1
                continue
            t1 = clock()
            latencies.append(t1 - t0)
            m.timed.append(("write" if write else "read", t0, t1))
            m.payload_bytes += self.PAGE_BYTES
            if write:
                self.slots[slot] = src
            elif page.raw != self.pool[self.slots[slot]].raw:
                m.failed += 1
            if t1 >= deadline:
                break
        m.add_round(latencies)


def time_phases(plan: DistributedFFT3D, record: Callable) -> None:
    """Wrap *plan*'s load and group.invoke so each step of a forward
    transform reports ``record(method, t0, t1)`` (driver-side spans)."""
    load, invoke = plan.load, plan.group.invoke

    def timed_load(a):
        t0 = clock()
        load(a)
        record("load", t0, clock())

    def timed_invoke(method, *args, **kwargs):
        t0 = clock()
        out = invoke(method, *args, **kwargs)
        record(method, t0, clock())
        return out

    plan.load = timed_load
    plan.group.invoke = timed_invoke


class FFT3D:
    """The paper's cooperating objects: slab loads over shm, transpose
    deposits machine to machine, real compute in the fft kernels."""

    name = "fft3d"
    SHAPE = (64, 64, 32)
    VOLUMES = 3
    OPS_PER_S = 100
    #: a forward transform's remote calls with 2 workers: load, six
    #: transform_loaded phases and gather issue one call per worker from
    #: the driver; each of the two transposes has every worker deposit
    #: into its one peer.
    DRIVER_CALLS = N_MACHINES * 8
    NESTED_CALLS = 2 * N_MACHINES * (N_MACHINES - 1)
    #: slabs in and out, plus the two transposes' cross-machine blocks.
    PAYLOAD_BYTES = 16 * SHAPE[0] * SHAPE[1] * SHAPE[2] * 3

    def __init__(self, seed: int, seconds: float) -> None:
        self.seed = seed
        self.round_s = seconds / ROUNDS
        self.n_ops = int(self.round_s * self.OPS_PER_S) + 5

    def generate(self, round_no: int) -> None:
        rng = _seeded(self.seed, 3, round_no)
        self.volumes = [rng.standard_normal(self.SHAPE)
                        + 1j * rng.standard_normal(self.SHAPE)
                        for _ in range(self.VOLUMES)]
        self.references = [np.fft.fftn(v) for v in self.volumes]
        self.order = rng.integers(0, self.VOLUMES, self.n_ops).tolist()

    def create(self, cluster) -> DistributedFFT3D:
        plan = DistributedFFT3D(cluster, self.SHAPE, n_workers=N_MACHINES)
        self._timed: list = []
        time_phases(plan, lambda *rec: self._timed.append(rec))
        return plan

    def first_call(self, plan: DistributedFFT3D) -> None:
        plan.group.invoke("inbox_size")

    def warm_up(self, plan: DistributedFFT3D) -> None:
        """Two transforms: the kernels' plan caches fill on first use."""
        for volume in self.volumes[:2]:
            plan.forward(volume)

    def close(self, plan: DistributedFFT3D) -> None:
        pass

    def max_calls(self) -> int:
        return self.n_ops * (self.DRIVER_CALLS + self.NESTED_CALLS)

    def messages(self) -> list:
        """A slab load, a transpose deposit and their replies."""
        half = self.SHAPE[0] // 2
        slab = np.ascontiguousarray(self.volumes[0][:half])
        block = np.ascontiguousarray(slab[:, :self.SHAPE[1] // 2, :])
        return [(slab,), None, ("p0s-1-fwd", 0, block), None, (-1,), slab]

    def measure(self, plan: DistributedFFT3D, m: Measurement) -> None:
        self._timed = m.timed  # the phases of every transform
        latencies = []
        deadline = clock() + self.round_s
        for idx in self.order:
            m.attempted += 1
            m.driver_calls += self.DRIVER_CALLS
            m.nested_calls += self.NESTED_CALLS
            t0 = clock()
            try:
                out = plan.forward(self.volumes[idx])
            except OoppError:
                m.failed += 1
                continue
            t1 = clock()
            latencies.append(t1 - t0)
            m.payload_bytes += self.PAYLOAD_BYTES
            if not np.allclose(out, self.references[idx]):
                m.failed += 1
            if t1 >= deadline:
                break
        m.add_round(latencies)


WORKLOADS: dict[str, Any] = {w.name: w for w in (SmallCalls, BulkPages, FFT3D)}
