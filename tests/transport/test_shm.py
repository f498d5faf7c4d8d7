"""Shared-memory segments: export/attach, refcounts, no /dev/shm leaks."""

from __future__ import annotations

import errno
import gc
import os

import pytest

from repro.errors import TransportError
from repro.transport import shm


@pytest.fixture(autouse=True)
def no_leaked_segments():
    """Every test must leave /dev/shm exactly as it found it."""
    before = set(shm.host_shm_names())
    yield
    gc.collect()
    shm.manager().shutdown()
    after = set(shm.host_shm_names())
    assert after - before == set(), "test leaked shm segments"


class TestDescriptor:
    def test_round_trip(self):
        desc = shm.pack_descriptor("oopp-abc", 12345)
        assert shm.unpack_descriptor(desc) == ("oopp-abc", 12345)

    def test_truncated_rejected(self):
        with pytest.raises(TransportError):
            shm.unpack_descriptor(b"\x01\x02")

    def test_foreign_name_rejected(self):
        desc = shm.pack_descriptor("oopp-x", 1).replace(b"oopp-", b"evil-")
        with pytest.raises(TransportError, match="foreign"):
            shm.unpack_descriptor(desc)

    def test_non_ascii_rejected(self):
        with pytest.raises(TransportError):
            shm.unpack_descriptor(shm.pack_descriptor("oopp-x", 1)[:-1]
                                  + b"\xff")


class TestExportAttach:
    def test_payload_round_trips(self):
        payload = os.urandom(4096)
        out = shm.export_buffer(memoryview(payload))
        try:
            name, size = shm.unpack_descriptor(out.descriptor)
            assert size == 4096
            view = shm.manager().attach(name, size)
            assert bytes(view) == payload
        finally:
            out.commit()
            shm.manager().release(name)

    def test_attached_view_is_writable(self):
        out = shm.export_buffer(memoryview(bytes(64)))
        name, size = shm.unpack_descriptor(out.descriptor)
        view = shm.manager().attach(name, size)
        try:
            view[:4] = b"abcd"
            assert bytes(view[:4]) == b"abcd"
        finally:
            out.commit()
            shm.manager().release(name)

    def test_abort_removes_segment(self):
        out = shm.export_buffer(memoryview(bytes(128)))
        name, _ = shm.unpack_descriptor(out.descriptor)
        assert name in shm.host_shm_names()
        out.abort()
        assert name not in shm.host_shm_names()
        out.abort()   # settled segments ignore a second abort...
        out.commit()  # ...and a late commit

    def test_zero_byte_buffer_round_trips(self):
        out = shm.export_buffer(memoryview(b""))
        name, size = shm.unpack_descriptor(out.descriptor)
        assert size == 0
        view = shm.manager().attach(name, size)
        out.commit()
        assert bytes(view) == b""
        shm.manager().release(name)
        assert name not in shm.host_shm_names()

    def test_attach_unknown_name_raises(self):
        with pytest.raises(TransportError, match="attach"):
            shm.manager().attach("oopp-no-such-segment", 16)

    def test_attach_rejects_undersized_segment(self):
        out = shm.export_buffer(memoryview(bytes(16)))
        name, _ = shm.unpack_descriptor(out.descriptor)
        try:
            with pytest.raises(TransportError, match="claims"):
                shm.manager().attach(name, 1 << 20)
        finally:
            out.abort()


def _segment_name(fd: int) -> str:
    return os.path.basename(os.readlink(f"/proc/self/fd/{fd}"))


class TestPwriteFill:
    """The sender fills segments through their descriptor, never a
    mapping: failures surface as typed errors at send time."""

    def test_full_dev_shm_is_transport_error_and_unlinks(self, monkeypatch):
        seen = []

        def full(fd, data, offset):
            seen.append(_segment_name(fd))
            assert seen[0] in shm.host_shm_names()
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        monkeypatch.setattr(os, "pwrite", full)
        with pytest.raises(TransportError, match="No space left"):
            shm.export_buffer(memoryview(bytes(4096)))
        assert seen and seen[0] not in shm.host_shm_names()

    def test_short_writes_still_deliver_every_byte(self, monkeypatch):
        real_pwrite = os.pwrite
        calls = []

        def short(fd, data, offset):
            calls.append(offset)
            return real_pwrite(fd, data[:64 << 10], offset)

        monkeypatch.setattr(os, "pwrite", short)
        payload = os.urandom((1 << 20) + 123)
        out = shm.export_buffer(memoryview(payload))
        monkeypatch.undo()
        assert len(calls) == 17
        name, size = shm.unpack_descriptor(out.descriptor)
        view = shm.manager().attach(name, size)
        out.commit()
        try:
            assert size == len(payload) and bytes(view) == payload
        finally:
            shm.manager().release(name)


class TestRefcounting:
    def make_segment(self, n=256):
        out = shm.export_buffer(memoryview(bytes(n)))
        out.commit()
        return shm.unpack_descriptor(out.descriptor)

    def test_release_at_zero_unlinks(self):
        name, size = self.make_segment()
        shm.manager().attach(name, size)
        assert name in shm.host_shm_names()
        shm.manager().release(name)
        assert name not in shm.host_shm_names()

    def test_addref_keeps_segment_alive(self):
        mgr = shm.manager()
        name, size = self.make_segment()
        mgr.attach(name, size)
        assert mgr.addref(name)
        mgr.release(name)
        assert name in shm.host_shm_names(), "one ref still held"
        mgr.release(name)
        assert name not in shm.host_shm_names()

    def test_double_attach_is_one_mapping_two_refs(self):
        mgr = shm.manager()
        name, size = self.make_segment()
        v1 = mgr.attach(name, size)
        v2 = mgr.attach(name, size)
        assert v1 is v2
        mgr.release(name)
        assert name in shm.host_shm_names()
        mgr.release(name)
        assert name not in shm.host_shm_names()

    def test_addref_after_release_fails(self):
        mgr = shm.manager()
        name, size = self.make_segment()
        mgr.attach(name, size)
        mgr.release(name)
        assert not mgr.addref(name)

    def test_adopt_ties_lifetime_to_owner(self):
        mgr = shm.manager()
        name, size = self.make_segment()
        view = mgr.attach(name, size)

        class Owner:
            pass

        owner = Owner()
        assert mgr.adopt(owner, view)
        mgr.release(name)  # the message's reference goes away...
        assert name in shm.host_shm_names()
        del owner          # ...and the adopter's with its GC
        gc.collect()
        assert name not in shm.host_shm_names()

    def test_adopt_foreign_view_is_noop(self):
        mgr = shm.manager()
        assert not mgr.adopt(object(), memoryview(b"plain bytes"))

    def test_consumer_view_survives_unlink(self):
        # POSIX semantics: memory stays valid after unlink while mapped.
        mgr = shm.manager()
        name, size = self.make_segment()
        view = mgr.attach(name, size)
        alias = memoryview(view)  # a numpy-style alias pinning the mapping
        mgr.release(name)
        assert name not in shm.host_shm_names()
        assert bytes(alias[:8]) == bytes(8)  # still readable
        del alias
        gc.collect()
        mgr._sweep_zombies()
        assert mgr.stats()["zombie_mappings"] == 0

    def test_stats_track_copies(self):
        mgr = shm.manager()
        before = mgr.stats()
        out = shm.export_buffer(memoryview(bytes(1000)))
        out.abort()
        after = mgr.stats()
        assert after["bytes_copied"] == before["bytes_copied"] + 1000
        assert after["segments_exported"] == before["segments_exported"] + 1
