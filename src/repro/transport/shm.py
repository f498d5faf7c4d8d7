"""Same-host zero-copy transport through named shared-memory segments.

The mp backend always runs caller and callee on one host, so a bulk
buffer never needs to traverse the socket at all: the sender writes it
once into a fresh POSIX shared-memory segment and ships only a small
*descriptor* (name + size) in the frame; the receiver maps the segment
and hands the runtime a writable view of the same physical pages.  One
copy total (the sender's ``pwrite``), zero copies on the receive side —
versus ~3 for the socket path (kernel buffer, reassembly, and the
consumer's own copy).

The sender never maps the segment.  It fills the segment's descriptor
with ``os.pwrite``, which costs one kernel copy; storing through a
fresh mapping would first take a user page fault on every 4 KiB page,
and for a 4 MiB buffer those faults cost several times the copy.  It also turns a full
``/dev/shm`` into ``ENOSPC`` at send time — a :class:`TransportError`
— where a store into a tmpfs mapping that cannot get a page raises
``SIGBUS``.

Ownership protocol
------------------
* The **sender** creates the segment, fills it, closes its descriptor
  and forgets it.  If the send fails before the frame leaves, the sender
  unlinks (the receiver can never have seen the name).
* The **receiver** owns cleanup (the paper's kernel object is the
  natural owner, hence "refcounted cleanup on the receiving kernel"):
  every decoded message holds one reference per segment, released via a
  GC finalizer when the message dies; consumers that *adopt* the view as
  long-lived backing storage (:class:`repro.storage.page.Page`) take a
  reference of their own.  At refcount zero the segment is **unlinked**
  immediately — the ``/dev/shm`` name disappears and can never leak —
  and the mapping is closed as soon as no live view pins it (POSIX keeps
  the memory valid for exactly as long as something still maps it, so a
  straggling numpy view stays safe after the unlink).

Faults compose: a message dropped or corrupted in flight dies
unreferenced, its finalizer runs, and the segment is unlinked — the
chaos suite checks ``/dev/shm`` before and after.

Python's ``resource_tracker`` would double-manage (and noisily
"clean up") segments whose lifecycle we own, so segments are
never registered with it in the first place; an ``atexit`` sweep
unlinks whatever a process still holds when it dies politely.
"""

from __future__ import annotations

import _posixshmem
import atexit
import os
import secrets
import struct
import threading
import weakref
from multiprocessing import shared_memory
from typing import Optional

from ..errors import TransportError
from ..util.hostid import fingerprint_bytes, host_fingerprint
from ..util.log import get_logger

log = get_logger("shm")

#: all segment names carry this prefix — /dev/shm stays auditable.
SHM_NAME_PREFIX = "oopp-"

#: wire descriptor: segment payload size + exporter host fingerprint,
#: then the ascii name.  The fingerprint makes locality explicit: a
#: descriptor names pages in the *exporting host's* /dev/shm, so a
#: receiver on any other box must refuse it rather than attach a
#: nonexistent (or unrelated same-named) segment.
_DESC = struct.Struct("<Q16s")


_tracker_lock = threading.Lock()


def _open_untracked(**kwargs) -> shared_memory.SharedMemory:
    """Create/attach a segment without registering it with Python's
    resource tracker.

    This process owns the lifecycle (refcounted unlink + exit sweeps);
    double-management by the tracker would both warn spuriously and race
    the receiver's registration of the same name (their register calls
    coalesce in the shared tracker's set, so balanced unregisters from
    two processes still underflow).  Python 3.13 grew ``track=False``
    for exactly this; on 3.11 the only hook is the register call itself.
    """
    from multiprocessing import resource_tracker

    with _tracker_lock:
        orig = resource_tracker.register
        resource_tracker.register = lambda *a, **k: None
        try:
            return shared_memory.SharedMemory(**kwargs)
        finally:
            resource_tracker.register = orig


def _unlink(name: str) -> None:
    """Remove *name* from ``/dev/shm`` without telling the resource
    tracker, which never heard of it (see :func:`_open_untracked`; an
    unregister for an unknown name makes the tracker log a KeyError)."""
    _posixshmem.shm_unlink("/" + name)


def pack_descriptor(name: str, size: int) -> bytes:
    return _DESC.pack(size, fingerprint_bytes()) + name.encode("ascii")


def unpack_descriptor(data: bytes) -> tuple[str, int]:
    try:
        size, fp = _DESC.unpack_from(bytes(data), 0)
        name = bytes(data[_DESC.size:]).decode("ascii")
        fp_str = fp.decode("ascii")
    except (struct.error, UnicodeDecodeError) as exc:
        raise TransportError(f"malformed shm descriptor: {exc}") from exc
    if not name.startswith(SHM_NAME_PREFIX):
        raise TransportError(f"shm descriptor names foreign segment {name!r}")
    local = host_fingerprint()
    if fp_str != local:
        raise TransportError(
            f"shm descriptor {name!r} was exported on host {fp_str} but "
            f"this process runs on host {local}; shared memory does not "
            f"cross hosts (the sender should downgrade to inline payloads "
            f"— see docs/BACKENDS.md)")
    return name, size


# ---------------------------------------------------------------------------
# Send side
# ---------------------------------------------------------------------------


#: names this process exported whose receiver may never have attached
#: (peer crashed mid-conversation).  Normally the receiver unlinks long
#: before we look again; the exit sweep reclaims whatever it left behind.
_exported: set[str] = set()
_exported_pid = os.getpid()
_exported_lock = threading.Lock()
_EXPORTED_PRUNE_AT = 512


def _note_exported(name: str) -> None:
    global _exported, _exported_pid
    with _exported_lock:
        if _exported_pid != os.getpid():  # forked child: not our segments
            _exported = set()
            _exported_pid = os.getpid()
        _exported.add(name)
        if len(_exported) >= _EXPORTED_PRUNE_AT:
            # Receivers unlink promptly; drop names already gone so the
            # set stays bounded on long-running senders.
            _exported = {n for n in _exported
                         if os.path.exists("/dev/shm/" + n)}


def _reclaim_exported() -> None:
    """Unlink exported segments that still exist (exit path)."""
    with _exported_lock:
        if _exported_pid != os.getpid():
            return
        names = list(_exported)
        _exported.clear()
    for name in names:
        try:
            _unlink(name)
        except OSError:
            pass  # receiver cleaned it up, the common case


class OutboundSegment:
    """A filled segment waiting for its frame to hit the wire."""

    def __init__(self, name: str, size: int) -> None:
        self.name = name
        self.descriptor = pack_descriptor(name, size)
        self._pending = True

    def commit(self) -> None:
        """The frame was sent: the receiver owns the segment now (with
        the sender's exit sweep as the crash net)."""
        if self._pending:
            self._pending = False
            _note_exported(self.name)

    def abort(self) -> None:
        """The frame never left: reclaim the segment."""
        if self._pending:
            self._pending = False
            try:
                _unlink(self.name)
            except OSError:  # pragma: no cover - already gone
                pass


def export_buffer(view: memoryview) -> OutboundSegment:
    """Stage *view* (flat u8, from :func:`repro.transport.serde.dumps`)
    in a fresh segment with ``pwrite`` on its descriptor; one kernel
    copy, and the segment is never mapped here.

    Raises :class:`TransportError` — with the name already unlinked —
    when the segment cannot be created, sized or filled (``ENOSPC``
    for a full ``/dev/shm``).
    """
    size = view.nbytes
    name = f"{SHM_NAME_PREFIX}{os.getpid():x}-{secrets.token_hex(6)}"
    try:
        fd = _posixshmem.shm_open("/" + name,
                                  os.O_CREAT | os.O_EXCL | os.O_RDWR, 0o600)
    except OSError as exc:
        raise TransportError(f"cannot create shm segment of {size} B: "
                             f"{exc}") from exc
    try:
        os.ftruncate(fd, max(size, 1))  # an empty file cannot be mapped
        pos = 0
        while pos < size:
            pos += os.pwrite(fd, view[pos:], pos)
    except OSError as exc:
        _unlink(name)
        raise TransportError(f"cannot fill shm segment of {size} B: "
                             f"{exc}") from exc
    except BaseException:
        _unlink(name)
        raise
    finally:
        os.close(fd)
    manager().count_export(size)
    return OutboundSegment(name, size)


# ---------------------------------------------------------------------------
# Receive side
# ---------------------------------------------------------------------------


class _Entry:
    __slots__ = ("seg", "view", "refs", "unlink")

    def __init__(self, seg: shared_memory.SharedMemory,
                 view: memoryview, unlink: bool = True) -> None:
        self.seg = seg
        self.view = view
        self.refs = 0
        #: whether this process unlinks the segment at refcount zero.
        #: Per-call transfers are receiver-owned (True); *publication*
        #: segments (:mod:`repro.transport.pub`) are publisher-owned —
        #: an attaching process only ever closes its mapping.
        self.unlink = unlink


class ShmManager:
    """Per-process registry of attached segments with refcounted unlink.

    Fork-aware: a child process inherits the parent's module state but
    must not unlink segments the parent still uses, so the singleton
    resets itself when the pid changes.
    """

    def __init__(self) -> None:
        self._pid = os.getpid()
        self._lock = threading.Lock()
        self._entries: dict[str, _Entry] = {}
        #: id(view) -> name, for consumers adopting a received view.
        self._by_view: dict[int, str] = {}
        #: unlinked segments whose mapping is still pinned by live views.
        self._zombies: list[shared_memory.SharedMemory] = []
        self._bytes_copied = 0
        self._exported_total = 0
        self._attached_total = 0

    # -- attach / release --------------------------------------------------

    def attach(self, name: str, size: int, *,
               unlink_on_release: bool = True) -> memoryview:
        """Map *name* (or find it already mapped) and take one reference.

        ``unlink_on_release=False`` marks the segment publisher-owned:
        at refcount zero (and at shutdown) this process only closes its
        mapping — the ``/dev/shm`` name is the publisher's to unlink
        (the publication layer's lifecycle, see :mod:`..pub`).
        """
        with self._lock:
            entry = self._entries.get(name)
            if entry is None:
                try:
                    seg = _open_untracked(name=name)
                except OSError as exc:
                    raise TransportError(
                        f"cannot attach shm segment {name!r}: {exc}") from exc
                if seg.size < size:
                    seg.close()
                    raise TransportError(
                        f"shm segment {name!r} is {seg.size} B, descriptor "
                        f"claims {size} B")
                view = seg.buf[:size]
                entry = self._entries[name] = _Entry(
                    seg, view, unlink=unlink_on_release)
                self._by_view[id(view)] = name
                self._attached_total += 1
            entry.refs += 1
            return entry.view

    def addref(self, name: str) -> bool:
        with self._lock:
            entry = self._entries.get(name)
            if entry is None:
                return False
            entry.refs += 1
            return True

    def release(self, name: str) -> None:
        """Drop one reference; at zero, unlink and (if possible) unmap."""
        with self._lock:
            entry = self._entries.get(name)
            if entry is None:
                return
            entry.refs -= 1
            if entry.refs > 0:
                return
            del self._entries[name]
            self._by_view.pop(id(entry.view), None)
            self._reap(entry)
            self._sweep_zombies()

    def _reap(self, entry: _Entry) -> None:
        # Unlink first: the /dev/shm name must go even if views pin the
        # mapping (POSIX keeps the memory alive until the last unmap).
        # Publisher-owned segments (entry.unlink False) are never ours
        # to unlink — just drop the mapping.
        if entry.unlink:
            try:
                _unlink(entry.seg.name)
            except OSError:  # pragma: no cover - concurrent unlink
                pass
        try:
            entry.view.release()
            entry.seg.close()
        except BufferError:
            # A consumer still aliases the memory; keep the mapping open
            # (the memory stays valid) and retry on later sweeps.
            self._zombies.append(entry.seg)

    def _sweep_zombies(self) -> None:
        survivors = []
        for seg in self._zombies:
            try:
                seg.close()
            except BufferError:
                survivors.append(seg)
        self._zombies = survivors

    # -- adoption (long-lived consumers) ----------------------------------

    def name_of(self, buf) -> Optional[str]:
        """The segment name behind a received view, or None."""
        if not isinstance(buf, memoryview):
            return None
        with self._lock:
            return self._by_view.get(id(buf))

    def adopt(self, owner, buf: memoryview) -> bool:
        """Let *owner* keep *buf* as backing storage: take a reference
        released when *owner* is garbage-collected.  Returns False when
        *buf* is not a live shm view (nothing to do)."""
        name = self.name_of(buf)
        if name is None or not self.addref(name):
            return False
        weakref.finalize(owner, self.release, name)
        return True

    def bind_message(self, msg, names: list[str]) -> None:
        """Tie one already-taken reference per segment to *msg*'s lifetime."""
        for name in names:
            weakref.finalize(msg, self.release, name)

    # -- diagnostics / lifecycle -------------------------------------------

    def count_export(self, nbytes: int) -> None:
        """One segment of *nbytes* staged by this process."""
        with self._lock:
            self._exported_total += 1
            self._bytes_copied += nbytes

    def stats(self) -> dict:
        with self._lock:
            return {
                "segments_live": len(self._entries),
                "segments_attached_total": self._attached_total,
                "segments_exported": self._exported_total,
                "bytes_copied": self._bytes_copied,
                "zombie_mappings": len(self._zombies),
            }

    def active_names(self) -> list[str]:
        with self._lock:
            return sorted(self._entries)

    def shutdown(self) -> None:
        """Unlink everything still registered (process exit path)."""
        with self._lock:
            entries = list(self._entries.values())
            self._entries.clear()
            self._by_view.clear()
        for entry in entries:
            self._reap(entry)
        self._sweep_zombies()


_manager: Optional[ShmManager] = None
_manager_lock = threading.Lock()


def manager() -> ShmManager:
    """The process-wide manager (recreated after fork)."""
    global _manager
    with _manager_lock:
        if _manager is None or _manager._pid != os.getpid():
            _manager = ShmManager()
        return _manager


@atexit.register
def _shutdown_at_exit() -> None:  # pragma: no cover - exit path
    with _manager_lock:
        mgr = _manager
    if mgr is not None and mgr._pid == os.getpid():
        mgr.shutdown()
    _reclaim_exported()


def host_shm_names() -> list[str]:
    """Framework-created segment names currently visible in /dev/shm
    (diagnostics; used by the chaos suite's leak checks)."""
    try:
        return sorted(n for n in os.listdir("/dev/shm")
                      if n.startswith(SHM_NAME_PREFIX))
    except OSError:  # pragma: no cover - non-Linux
        return []
