"""Zero-copy shared-memory pack store for parallel grids.

A grid over W workloads × P policies used to materialise each workload's
:class:`~repro.workloads.packed.PackedTrace` once *per worker process* (the
``get_packed`` cache is process-local).  :class:`SharedPackStore` moves the
materialisation to the parent: each workload of the grid is packed exactly
once, its four flat columns (``pcs``/``vaddrs``/``gaps``/``flags``) are
published into one :class:`multiprocessing.shared_memory.SharedMemory`
segment, and workers attach zero-copy ``memoryview``-backed
:class:`PackedTrace` instances over the parent's pages — no pickling, no
per-worker repack, no duplicate RSS.

Layout of a segment (offsets derived from the record count ``n``)::

    [ pcs: n × u64 | vaddrs: n × u64 | gaps: n × u32 | flags: n × u16 ]

Columns are ordered by element width so every column starts at a naturally
aligned offset without padding.

Large packs (ChampSim imports) spill to a plain file instead, which workers
``mmap`` — same zero-copy attachment through the page cache, without
pressuring ``/dev/shm``'s tmpfs budget.  A :class:`PackHandle` is the
picklable descriptor of either flavour.

Lifecycle rules:

* the parent's store owns every segment/spill file; ``close()`` (also run
  from ``atexit`` and the context manager's ``finally``) unlinks them all,
  so neither a crash nor Ctrl-C leaks ``/dev/shm`` entries;
* workers attach via :func:`install_attachments`, which registers handles
  and installs the shared provider consulted by ``get_packed`` — attached
  packs bypass the worker's local pack cache entirely;
* workers attach without registering with the interpreter's
  ``resource_tracker`` (the parent is the sole owner; attach-side
  registration on 3.8–3.12 double-unlinks at shutdown and races the shared
  tracker when several workers attach the same segment);
* worker-side mappings are released by the OS when the process exits —
  workers never unlink.
"""

from __future__ import annotations

import atexit
import mmap
import os
import tempfile
from dataclasses import dataclass
from multiprocessing import shared_memory
from pathlib import Path
from typing import Any, Optional

from repro.obs.metrics import get_metrics
from repro.obs.tracing import trace_span
from repro.workloads.packed import PackedTrace, _pack_key, get_packed
from repro.workloads.trace import Workload

#: shm lifecycle instruments (event granularity: publish/attach/close only)
_SEGMENTS_GAUGE = get_metrics().gauge(
    "shm.live_segments", "shm segments + spill files currently owned")
_BYTES_GAUGE = get_metrics().gauge(
    "shm.live_bytes", "payload bytes published through the pack store")
_PUBLISHED = get_metrics().counter(
    "shm.published", "packs published (segments + spill files)")
_SPILLED = get_metrics().counter(
    "shm.spilled", "packs that spilled to an mmap file instead of /dev/shm")
_ATTACH_COUNTER = get_metrics().counter(
    "shm.attached", "zero-copy pack attachments made by this process")
_REAPED = get_metrics().counter(
    "shm.reaped", "stale segments of dead owners unlinked at store creation")

__all__ = [
    "PackHandle",
    "SharedPackStore",
    "attach_pack",
    "detach_all",
    "install_attachments",
    "live_segments",
    "reap_stale_segments",
]

#: packs larger than this spill to an mmap-able file instead of /dev/shm
DEFAULT_SPILL_BYTES = 64 * 1024 * 1024


@dataclass(frozen=True)
class PackHandle:
    """Picklable descriptor of one published pack (shm segment or file)."""

    kind: str  #: "shm" (segment name in ``ref``) or "file" (path in ``ref``)
    ref: str
    #: the ``get_packed`` identity key this pack answers for
    key: tuple
    name: str
    suite: str
    warmup: int
    sim: int
    instructions: int
    complete: bool
    n_records: int

    def nbytes(self) -> int:
        """Total payload bytes of the published columns."""
        return self.n_records * (8 + 8 + 4 + 2)


def _column_offsets(n: int) -> tuple[int, int, int, int, int]:
    """(pcs, vaddrs, gaps, flags, total) byte offsets for ``n`` records."""
    o_pcs = 0
    o_vaddrs = o_pcs + 8 * n
    o_gaps = o_vaddrs + 8 * n
    o_flags = o_gaps + 4 * n
    total = o_flags + 2 * n
    return o_pcs, o_vaddrs, o_gaps, o_flags, total


def _publishable(key: tuple) -> bool:
    """Only identity-keyed packs can be served across processes.

    ``_pack_key`` falls back to ``id(workload)`` for objects that are neither
    registry workloads nor file-backed; that key never matches the one a
    worker computes for its own copy of the workload, so publishing it
    would be dead weight.
    """
    return key[0] != "id"


def _attach_segment(name: str) -> shared_memory.SharedMemory:
    """Attach to a segment without registering it with the resource tracker.

    3.8–3.12 register attachments with the (shared, fork-inherited) resource
    tracker; register-then-unregister from several workers races on the
    tracker's per-name set, so the registration is suppressed outright (the
    parent owns the segment and its tracker entry).
    """
    try:
        return shared_memory.SharedMemory(name=name, track=False)  # 3.13+
    except TypeError:
        pass
    from multiprocessing import resource_tracker

    original = resource_tracker.register
    resource_tracker.register = lambda *args, **kwargs: None  # type: ignore[assignment]
    try:
        return shared_memory.SharedMemory(name=name)
    finally:
        resource_tracker.register = original


def _views_over(buf: Any, n: int) -> tuple:
    """The four typed column views over a segment/mmap buffer."""
    o_pcs, o_vaddrs, o_gaps, o_flags, total = _column_offsets(n)
    base = memoryview(buf)
    pcs = base[o_pcs:o_vaddrs].cast("Q")
    vaddrs = base[o_vaddrs:o_gaps].cast("Q")
    gaps = base[o_gaps:o_flags].cast("I")
    flags = base[o_flags:total].cast("H")
    return base, pcs, vaddrs, flags, gaps


# ---------------------------------------------------------------------------
# parent side: publish


class SharedPackStore:
    """Publishes each grid workload's pack once; owns the shared segments.

    Context-manager friendly; ``close()`` is idempotent and also registered
    with ``atexit``, so segments are unlinked even when the owning process
    dies mid-grid.
    """

    def __init__(self, *, spill_bytes: int = DEFAULT_SPILL_BYTES,
                 spill_dir: Optional[str] = None):
        self.spill_bytes = spill_bytes
        self.spill_dir = spill_dir
        self._handles: dict[tuple, PackHandle] = {}
        self._segments: list[shared_memory.SharedMemory] = []
        self._spill_paths: list[Path] = []
        self._seq = 0
        self._closed = False
        reap_stale_segments()
        atexit.register(self.close)

    # -- publishing -------------------------------------------------------

    def publish(self, workload: Workload, warmup: int, sim: int) -> Optional[PackHandle]:
        """Pack ``workload`` (once) and publish its columns; returns a handle.

        Returns ``None`` for workloads without a cross-process identity
        (neither registry nor file-backed — see ``_pack_key``) and for
        empty packs; callers fall
        back to worker-local packing, which stays bit-identical.
        """
        if self._closed:
            raise RuntimeError("SharedPackStore is closed")
        key = _pack_key(workload, warmup, sim)
        handle = self._handles.get(key)
        if handle is not None:
            return handle
        if not _publishable(key):
            return None
        packed = get_packed(workload, warmup, sim)
        n = len(packed)
        if n == 0:
            return None
        handle = self._export(key, packed)
        self._handles[key] = handle
        _PUBLISHED.inc()
        _SEGMENTS_GAUGE.set(len(self._segments) + len(self._spill_paths))
        _BYTES_GAUGE.set(self.nbytes())
        from repro.obs import log_event

        log_event("shm-publish", workload=handle.name, kind=handle.kind,
                  bytes=handle.nbytes(), records=handle.n_records)
        return handle

    def _export(self, key: tuple, packed: PackedTrace) -> PackHandle:
        n = len(packed)
        o_pcs, o_vaddrs, o_gaps, o_flags, total = _column_offsets(n)
        kind, ref, buf = self._allocate(total)
        buf[o_pcs:o_vaddrs] = packed.pcs.tobytes()
        buf[o_vaddrs:o_gaps] = packed.vaddrs.tobytes()
        buf[o_gaps:o_flags] = packed.gaps.tobytes()
        buf[o_flags:total] = packed.flags.tobytes()
        if kind == "file":
            buf.flush()
            buf.close()
        return PackHandle(
            kind=kind, ref=ref, key=key,
            name=packed.name, suite=packed.suite,
            warmup=packed.warmup, sim=packed.sim,
            instructions=packed.instructions, complete=packed.complete,
            n_records=n,
        )

    def _allocate(self, total: int):
        """A writable buffer of ``total`` bytes: shm segment or spill file."""
        if total <= self.spill_bytes:
            while True:
                name = f"repro-pack-{os.getpid()}-{self._seq}"
                self._seq += 1
                try:
                    seg = shared_memory.SharedMemory(create=True, size=total, name=name)
                except FileExistsError:
                    continue  # stale name from an unrelated process: next seq
                except OSError:
                    break  # /dev/shm unavailable or full: spill instead
                self._segments.append(seg)
                return "shm", seg.name, seg.buf
        fd, path = tempfile.mkstemp(prefix="repro-pack-", suffix=".spill",
                                    dir=self.spill_dir)
        os.ftruncate(fd, total)
        mm = mmap.mmap(fd, total)
        os.close(fd)
        self._spill_paths.append(Path(path))
        _SPILLED.inc()
        return "file", path, mm

    # -- introspection ----------------------------------------------------

    def handles(self) -> list[PackHandle]:
        """Every published handle (publication order)."""
        return list(self._handles.values())

    def handle_for(self, workload: Workload, warmup: int, sim: int) -> Optional[PackHandle]:
        """The already-published handle for a (workload, window), if any."""
        return self._handles.get(_pack_key(workload, warmup, sim))

    def nbytes(self) -> int:
        """Total published payload bytes."""
        return sum(h.nbytes() for h in self._handles.values())

    # -- lifecycle --------------------------------------------------------

    def close(self) -> None:
        """Unlink every segment and spill file (idempotent, crash-safe)."""
        if self._closed:
            return
        self._closed = True
        for seg in self._segments:
            try:
                seg.close()
            except BufferError:  # a local attachment still exports views
                pass
            try:
                seg.unlink()
            except FileNotFoundError:  # pragma: no cover - already gone
                pass
        self._segments.clear()
        for path in self._spill_paths:
            try:
                path.unlink()
            except FileNotFoundError:  # pragma: no cover - already gone
                pass
        self._spill_paths.clear()
        self._handles.clear()
        _SEGMENTS_GAUGE.set(0)
        _BYTES_GAUGE.set(0)
        from repro.obs import log_event

        log_event("shm-close", pid=os.getpid())
        atexit.unregister(self.close)

    def __enter__(self) -> "SharedPackStore":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()


# ---------------------------------------------------------------------------
# worker side: attach

#: handles this process can answer get_packed() for, keyed by pack key
_KNOWN_HANDLES: dict[tuple, PackHandle] = {}
#: live attachments keyed by handle.ref: (segment/mmap, views..., PackedTrace)
_ATTACHED: dict[str, tuple] = {}


def attach_pack(handle: PackHandle) -> PackedTrace:
    """Zero-copy :class:`PackedTrace` over a published pack (cached)."""
    entry = _ATTACHED.get(handle.ref)
    if entry is not None:
        return entry[-1]
    with trace_span("shm-attach", category="shm", workload=handle.name,
                    kind=handle.kind, bytes=handle.nbytes()):
        if handle.kind == "shm":
            seg = _attach_segment(handle.ref)
            views = _views_over(seg.buf, handle.n_records)
        else:
            with open(handle.ref, "rb") as fh:
                seg = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ)
            views = _views_over(seg, handle.n_records)
    _ATTACH_COUNTER.inc()
    base, pcs, vaddrs, flags, gaps = views
    packed = PackedTrace(
        handle.name, handle.suite, pcs, vaddrs, flags, gaps,
        warmup=handle.warmup, sim=handle.sim,
        instructions=handle.instructions, complete=handle.complete,
    )
    _ATTACHED[handle.ref] = (seg, base, pcs, vaddrs, flags, gaps, packed)
    return packed


def _shared_provider(key: tuple) -> Optional[PackedTrace]:
    handle = _KNOWN_HANDLES.get(key)
    if handle is None:
        return None
    return attach_pack(handle)


def install_attachments(handles) -> None:
    """Register handles and serve them through ``get_packed`` (idempotent).

    Called from the pool initializer with the handles known at pool start,
    and again per work chunk with any pack published later — the provider
    stays installed; only the handle registry grows.
    """
    from repro.workloads.packed import install_shared_provider

    for handle in handles:
        _KNOWN_HANDLES[handle.key] = handle
    install_shared_provider(_shared_provider)


def detach_all() -> None:
    """Release every attachment (tests / same-process attach-then-close).

    Any still-referenced :class:`PackedTrace` becomes unusable afterwards;
    release failures (exported views held elsewhere) are left for the GC.
    """
    from repro.workloads.packed import install_shared_provider

    for seg, base, pcs, vaddrs, flags, gaps, packed in _ATTACHED.values():
        # the pack's cached numpy column views (PackedTrace.columns()) export
        # the buffer; drop them first or every release below fails
        packed._views = None
        for view in (pcs, vaddrs, flags, gaps, base):
            try:
                view.release()
            except BufferError:  # pragma: no cover - caller still holds a sub-view
                pass
        try:
            seg.close()
        except BufferError:  # pragma: no cover - view still exported
            pass
    _ATTACHED.clear()
    _KNOWN_HANDLES.clear()
    install_shared_provider(None)


def live_segments() -> list[str]:
    """Names of ``/dev/shm`` entries created by this module (leak checks)."""
    shm_dir = Path("/dev/shm")
    if not shm_dir.is_dir():  # pragma: no cover - non-Linux
        return []
    return sorted(p.name for p in shm_dir.glob("repro-pack-*"))


def reap_stale_segments() -> int:
    """Unlink ``repro-pack-*`` segments whose owning process is dead.

    ``close()`` rides ``atexit``, but SIGKILL (OOM killer, a cancelled CI
    job, ``timeout -s KILL``) never runs it, and an orphaned segment then
    pins /dev/shm memory forever — a long-lived sweep service would leak
    its way out of shared memory across crashes.  Segment names embed the
    owner pid, so any segment whose pid no longer exists can never be
    closed by its store again and is safe to reclaim; live owners (this
    process, concurrent sweeps) are never touched.  Runs at every store
    creation; returns the number of segments reclaimed.
    """
    shm_dir = Path("/dev/shm")
    if not shm_dir.is_dir():  # pragma: no cover - non-Linux
        return 0
    reaped = 0
    for path in shm_dir.glob("repro-pack-*"):
        parts = path.name.split("-")
        try:
            pid = int(parts[2])
        except (IndexError, ValueError):  # spill files etc.: not pid-named
            continue
        try:
            os.kill(pid, 0)
            continue  # owner is alive (or pid recycled): leave it alone
        except ProcessLookupError:
            pass
        except PermissionError:  # pragma: no cover - alive, other user
            continue
        try:
            path.unlink()
        except FileNotFoundError:  # pragma: no cover - raced another reaper
            continue
        reaped += 1
    if reaped:
        _REAPED.inc(reaped)
        from repro.obs import log_event

        log_event("shm-reap", segments=reaped)
    return reaped
