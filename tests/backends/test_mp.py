"""Multiprocessing backend: real processes, peers, failure injection."""

from __future__ import annotations

import gc
import os
import time

import numpy as np
import pytest

import repro as oopp
from repro.errors import MachineDownError
from repro.storage.device import PageDevice
from repro.storage.page import Page
from repro.transport import shm


class Stateful:
    def __init__(self, tag="t"):
        self.tag = tag
        self.pid = os.getpid()

    def where(self):
        return os.getpid()

    def get_tag(self):
        return self.tag

    @oopp.readonly
    def slow(self, seconds):
        # readonly: concurrent calls share the object's read lock, so
        # the pool (not the per-object writer lock) sets the makespan.
        time.sleep(seconds)
        return seconds


class Relay:
    """Calls a peer object on another machine (peer-to-peer path)."""

    def fetch(self, other):
        return other.get_tag()

    def chain(self, others):
        return [o.get_tag() for o in others]


class TestProcessModel:
    def test_objects_live_in_separate_processes(self, mp_cluster):
        objs = [mp_cluster.new(Stateful, machine=m) for m in range(3)]
        pids = {o.where() for o in objs}
        assert len(pids) == 3
        assert os.getpid() not in pids

    def test_machine_pids_reported(self, mp_cluster):
        pids = mp_cluster.fabric.machine_pids()
        assert len(pids) == 3 and all(p for p in pids)
        obj = mp_cluster.new(Stateful, machine=1)
        assert obj.where() == pids[1]

    def test_state_lives_on_machine(self, mp_cluster):
        s = mp_cluster.new(Stateful, "hello", machine=2)
        oopp.remote_setattr(s, "tag", "updated")
        assert s.get_tag() == "updated"

    def test_concurrent_calls_one_machine(self, mp_cluster):
        s = mp_cluster.new(Stateful, machine=1)
        t0 = time.perf_counter()
        futures = [s.slow.future(0.2) for _ in range(4)]
        oopp.wait_all(futures)
        elapsed = time.perf_counter() - t0
        # four 0.2s sleeps run on the machine's thread pool concurrently
        assert elapsed < 0.7, elapsed


class TestPeerToPeer:
    def test_machine_calls_machine(self, mp_cluster):
        target = mp_cluster.new(Stateful, "payload", machine=2)
        relay = mp_cluster.new(Relay, machine=1)
        assert relay.fetch(target) == "payload"

    def test_relay_fans_out_to_all_machines(self, mp_cluster):
        targets = [mp_cluster.new(Stateful, f"m{m}", machine=m)
                   for m in range(3)]
        relay = mp_cluster.new(Relay, machine=0)
        assert relay.chain(targets) == ["m0", "m1", "m2"]

    def test_bulk_numpy_between_machines(self, mp_cluster):
        blk = mp_cluster.new_block(1 << 14, machine=2)
        data = np.random.default_rng(0).random(1 << 14)
        blk.write(0, data)
        assert np.allclose(blk.read(), data)


class TestBulkPages:
    def test_4mib_page_round_trips_through_shm(self, tmp_path):
        before = set(shm.host_shm_names())
        size = 4 << 20
        payload = os.urandom(size)
        with oopp.Cluster(n_machines=2, backend="mp", call_timeout_s=60.0,
                          storage_root=str(tmp_path / "root")) as cluster:
            exported = shm.manager().stats()["segments_exported"]
            device = cluster.on(1).new(PageDevice,
                                       str(tmp_path / "bulk.dat"), 2, size)
            device.write(Page(size, payload), 1)
            assert shm.manager().stats()["segments_exported"] > exported
            page = device.read(1)
            assert page.to_bytes() == payload
            del page
        gc.collect()
        assert set(shm.host_shm_names()) == before


class TestFailureInjection:
    def test_killed_machine_fails_pending_calls(self, tmp_path):
        with oopp.Cluster(n_machines=2, backend="mp",
                          call_timeout_s=30.0) as cluster:
            victim = cluster.new(Stateful, machine=1)
            survivor = cluster.new(Stateful, "ok", machine=0)
            future = victim.slow.future(5.0)
            time.sleep(0.2)  # let the call reach the machine
            cluster.fabric.kill_machine(1)
            with pytest.raises(MachineDownError):
                future.result(10.0)
            # other machines keep working
            assert survivor.get_tag() == "ok"

    def test_calls_to_dead_machine_raise(self, tmp_path):
        with oopp.Cluster(n_machines=2, backend="mp",
                          call_timeout_s=30.0) as cluster:
            victim = cluster.new(Stateful, machine=1)
            cluster.fabric.kill_machine(1)
            time.sleep(0.1)
            with pytest.raises(MachineDownError):
                victim.get_tag()

    def test_shutdown_reaps_all_processes(self, tmp_path):
        cluster = oopp.Cluster(n_machines=2, backend="mp",
                               call_timeout_s=30.0)
        pids = cluster.fabric.machine_pids()
        cluster.shutdown()
        deadline = time.time() + 10
        while time.time() < deadline:
            if not any(_alive(p) for p in pids):
                break
            time.sleep(0.05)
        assert not any(_alive(p) for p in pids)


def _alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True
    return True


class TestRemoteErrors:
    def test_original_exception_type_crosses_process_boundary(self, mp_cluster):
        blk = mp_cluster.new_block(4, machine=1)
        with pytest.raises(IndexError):
            _ = blk[100]

    def test_remote_traceback_attached(self, mp_cluster):
        blk = mp_cluster.new_block(4, machine=1)
        try:
            _ = blk[100]
        except IndexError as exc:
            tb = getattr(exc, "__oopp_remote_traceback__", "")
            assert "__getitem__" in tb or "index" in tb.lower()
