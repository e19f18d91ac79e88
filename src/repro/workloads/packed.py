"""Packed trace buffers: materialise a workload once, replay it many times.

A :class:`PackedTrace` holds a finite prefix of a workload's record stream as
four flat ``array`` columns (pc ``u64``, vaddr ``u64``, flags ``u16``, gap
``u32`` — the same widths the native on-disk format uses).  Packing runs the
generator exactly once; every subsequent replay iterates plain C arrays, so
the per-record cost of pattern state machines and seeded RNG draws is paid a
single time per (workload, window) instead of once per simulation.

The packed window mirrors the drive loop's measurement semantics precisely:
records are buffered until the measured region — which starts at the first
record boundary *at or after* ``warmup`` instructions — spans ``sim``
instructions.  A packed trace is therefore always long enough for
:func:`repro.cpu.fastpath.drive_packed` (and for :func:`repro.cpu.simulator.drive`
over its replay), including the warm-up-overshoot case, without guessing a
slack margin.

:func:`get_packed` adds a small process-wide cache keyed by workload identity
and window, which is what lets the grid cells of
:mod:`repro.experiments.parallel` share one materialisation across every
(prefetcher × policy) cell of the same workload.  A *shared provider*
(:func:`install_shared_provider`) is consulted before the cache: worker
processes of an shm-backed grid install one that attaches zero-copy
:class:`PackedTrace` views over the parent's published segments
(:mod:`repro.workloads.shm`), bypassing the local cache — and its memory —
entirely.
"""

from __future__ import annotations

import os
import weakref
from array import array
from collections import OrderedDict
from typing import Callable, Iterator, Optional

from repro.workloads.registry import by_name
from repro.workloads.trace import (
    BRANCH,
    DEPENDS,
    LOAD,
    MISPREDICT,
    Record,
    STORE,
    Workload,
)


def _capacity_from_env() -> int:
    """Pack-cache capacity, overridable via ``REPRO_PACK_CACHE_CAPACITY``."""
    raw = os.environ.get("REPRO_PACK_CACHE_CAPACITY")
    if raw is None:
        return 32
    try:
        value = int(raw)
    except ValueError:
        raise ValueError(
            f"REPRO_PACK_CACHE_CAPACITY must be a positive integer, got {raw!r}"
        ) from None
    if value < 1:
        raise ValueError(
            f"REPRO_PACK_CACHE_CAPACITY must be a positive integer, got {raw!r}"
        )
    return value


#: process-wide pack cache capacity (packs are ~22 bytes/record; the default
#: 80k-instruction window is ~0.5 MB, so 32 entries stay well under 32 MB);
#: a grid over more workloads than this silently thrashes, so it is
#: configurable via the env var or :func:`set_pack_cache_capacity`
_CACHE_CAPACITY = _capacity_from_env()


class PackIndex:
    """Derived per-record arrays the vectorized drive kernel scans.

    Built once per pack (lazily, on the first vectorized drive) from the
    numpy column views — epoch/boundary positions come from the cumulative
    instruction counts, I-line runs from the pc column, and the event mask
    flags every record the span predicate can never clear by inspection
    alone (branches, forced mispredicts, dependent loads, non-memory
    records, and gaps large enough to trigger straight-line I-fetch).  All
    integer arrays are ``int64`` so downstream arithmetic never hits
    numpy's uint64/int64 promotion rules.
    """

    __slots__ = ("cum", "iline", "change", "vpage", "vline", "event",
                 "isload", "isstore", "weight")

    def __init__(self, packed: "PackedTrace"):
        import numpy as np

        pcs, vaddrs, flags, gaps = packed.columns()
        g = gaps.astype(np.int64)
        fl = flags.astype(np.int64)
        #: absolute instruction count after record i (engines start at 0)
        self.cum = np.cumsum(1 + g)
        self.iline = (pcs >> np.uint64(6)).astype(np.int64)
        self.vpage = (vaddrs >> np.uint64(12)).astype(np.int64)
        self.vline = (vaddrs >> np.uint64(6)).astype(np.int64)
        #: record i starts a new I-line run (first record always does:
        #: engines start with ``_last_iline = -1``)
        change = np.empty(len(g), dtype=bool)
        if len(change):
            change[0] = True
            change[1:] = self.iline[1:] != self.iline[:-1]
        self.change = change
        #: records the span predicate must hand to the slow path regardless
        #: of cache/TLB state: branch/mispredict/dependent flags, non-memory
        #: records, and gaps >= 16 (``(gap*4)>>6`` straight-line I-fetch)
        self.event = (
            ((fl & (BRANCH | MISPREDICT | DEPENDS)) != 0)
            | ((fl & (LOAD | STORE)) == 0)
            | (g > 15)
        )
        self.isload = (fl & LOAD) != 0
        self.isstore = (fl & STORE) != 0
        #: per-record instruction weight (1 + gap) as float64; the drive
        #: kernel multiplies by the engine's fetch/retire CPI per window
        self.weight = (1 + g).astype(np.float64)


class PackedTrace:
    """A finite, column-packed prefix of one workload's trace."""

    __slots__ = ("name", "suite", "pcs", "vaddrs", "flags", "gaps",
                 "instructions", "warmup", "sim", "complete",
                 "_views", "_index")

    def __init__(self, name: str, suite: str, pcs: array, vaddrs: array,
                 flags: array, gaps: array, *, warmup: int, sim: int,
                 instructions: int, complete: bool):
        self.name = name
        self.suite = suite
        self.pcs = pcs
        self.vaddrs = vaddrs
        self.flags = flags
        self.gaps = gaps
        #: total instructions the packed records account for (incl. gaps)
        self.instructions = instructions
        #: the (warmup, sim) window this pack was sized for
        self.warmup = warmup
        self.sim = sim
        #: False when the source trace ended before the window was covered
        #: (finite trace shorter than warm-up + measured region)
        self.complete = complete
        #: lazily built numpy column views / vectorization index
        self._views = None
        self._index = None

    @classmethod
    def from_workload(cls, workload: Workload, warmup: int, sim: int) -> "PackedTrace":
        """Materialise enough of ``workload`` to cover warm-up + measurement.

        Replicates the drive loop's boundary logic: measurement begins at the
        first record boundary at or after ``warmup`` instructions, and the
        pack ends at the first record boundary at or after ``sim`` measured
        instructions — so a replay can never run dry mid-window even when a
        record's gap overshoots the warm-up boundary.
        """
        pcs = array("Q")
        vaddrs = array("Q")
        flags = array("H")
        gaps = array("I")
        append_pc = pcs.append
        append_va = vaddrs.append
        append_fl = flags.append
        append_gap = gaps.append
        total = 0
        measure_start: Optional[int] = None
        complete = False
        for pc, vaddr, flag, gap in workload.generate():
            append_pc(pc)
            append_va(vaddr)
            append_fl(flag)
            append_gap(gap)
            total += 1 + gap
            if measure_start is None and total >= warmup:
                measure_start = total
            if measure_start is not None and total - measure_start >= sim:
                complete = True
                break
        return cls(
            workload.name, getattr(workload, "suite", "PACKED"),
            pcs, vaddrs, flags, gaps,
            warmup=warmup, sim=sim, instructions=total, complete=complete,
        )

    def __len__(self) -> int:
        """Number of packed records."""
        return len(self.pcs)

    def records(self) -> Iterator[Record]:
        """Iterate the packed records as plain ``(pc, vaddr, flags, gap)``."""
        return zip(self.pcs, self.vaddrs, self.flags, self.gaps)

    def replay(self) -> "PackedWorkload":
        """Wrap this pack as a restartable :class:`Workload`."""
        return PackedWorkload(self)

    def nbytes(self) -> int:
        """Approximate buffer size in bytes (the four columns)."""
        return sum(col.itemsize * len(col)
                   for col in (self.pcs, self.vaddrs, self.flags, self.gaps))

    def columns(self):
        """Zero-copy numpy views over the four columns.

        Works over both locally packed ``array`` columns and the
        ``memoryview`` columns of an shm/file-attached pack — anything
        exposing the buffer protocol.  Returned as
        ``(pcs u64, vaddrs u64, flags u16, gaps u32)``, cached per pack.
        """
        if self._views is None:
            import numpy as np

            self._views = (
                np.frombuffer(self.pcs, dtype=np.uint64),
                np.frombuffer(self.vaddrs, dtype=np.uint64),
                np.frombuffer(self.flags, dtype=np.uint16),
                np.frombuffer(self.gaps, dtype=np.uint32),
            )
        return self._views

    def index(self) -> PackIndex:
        """The pack's :class:`PackIndex` (built once, cached).

        shm-attached packs build their own index per process — the derived
        arrays are private to the attaching worker, only the four raw
        columns are shared.
        """
        if self._index is None:
            self._index = PackIndex(self)
        return self._index


class PackedWorkload:
    """A :class:`Workload` replaying a :class:`PackedTrace`.

    Unlike the infinite synthetic generators, the replay is finite: it ends
    with the pack, which covers exactly the (warmup, sim) window the pack was
    built for.  Driving it with a larger window raises the drive loop's
    normal truncation error.
    """

    def __init__(self, packed: PackedTrace):
        self.packed = packed
        self.name = packed.name
        self.suite = packed.suite

    def generate(self) -> Iterator[Record]:
        """Fresh iterator over the packed records (restartable)."""
        return self.packed.records()


def stable_identity(workload: Workload) -> Optional[tuple]:
    """A name for ``workload`` that every process agrees on, or None.

    File workloads are named by path, and only the registry's own objects
    (``by_name(name) is workload``) by registry name: an ad-hoc workload
    sharing a registry workload's name, suite and seed may have other
    phases.  Anything else is only itself (key it by ``id()``, or not at all).
    """
    path = getattr(workload, "path", None)
    if path is not None:
        return ("file", str(path))
    name = getattr(workload, "name", None)
    try:
        if isinstance(name, str) and by_name(name) is workload:
            return ("registry", name)
    except KeyError:
        pass
    return None


def _pack_key(workload: Workload, warmup: int, sim: int) -> tuple:
    """Identity key for the pack cache: :func:`stable_identity` + window.

    Workloads without a stable identity fall back to the object id.  An
    id-keyed entry only hits while the caller holds the same object, and —
    because CPython recycles ``id()`` as soon as the object is collected —
    it is only *valid* that long too: :func:`get_packed` pins a weak
    reference whose death callback drops the entry, so a recycled id can
    never serve a stale pack (and unreferenceable objects are simply not
    cached).
    """
    identity = stable_identity(workload)
    if identity is None:
        return ("id", id(workload), warmup, sim)
    return (*identity, warmup, sim)


_PACK_CACHE: OrderedDict[tuple, PackedTrace] = OrderedDict()

#: weak references pinning the anonymous (id-keyed) cache entries to their
#: living workload objects; the death callback invalidates the entry before
#: CPython can hand the id to a new allocation
_ANON_REFS: dict[tuple, "weakref.ref[Workload]"] = {}

#: running byte total of the locally cached packs, maintained incrementally
#: on insert/evict/clear so the gauge update is O(1) on the pack hot path
_CACHE_BYTES = 0

#: lazily bound (hits, misses, evictions, shared_hits, bytes-gauge) registry
#: instruments — bound on first use because `repro.workloads` and `repro.obs`
#: import each other's packages (same cycle `log_event` dodges below)
_PACK_METRICS = None


def _pack_metrics():
    global _PACK_METRICS
    if _PACK_METRICS is None:
        from repro.obs.metrics import get_metrics

        reg = get_metrics()
        _PACK_METRICS = (
            reg.counter("pack_cache.hits", "pack-cache lookups served locally"),
            reg.counter("pack_cache.misses", "pack-cache lookups that packed"),
            reg.counter("pack_cache.evictions", "packs evicted by the LRU bound"),
            reg.counter("pack_cache.shared_hits",
                        "lookups served by the shared (shm) provider"),
            reg.gauge("pack_cache.bytes", "resident bytes of locally cached packs"),
        )
    return _PACK_METRICS


def _update_bytes_gauge() -> None:
    """Publish the running byte total (O(1); the total is maintained
    incrementally on insert/evict/clear, never re-summed on the hot path)."""
    _pack_metrics()[4].set(_CACHE_BYTES)

#: consulted by :func:`get_packed` before the local cache; returns a shared
#: (e.g. shm-attached) pack for a key, or None to fall through.  Installed by
#: :mod:`repro.workloads.shm` in grid worker processes.
_SHARED_PROVIDER: Optional[Callable[[tuple], Optional[PackedTrace]]] = None


def install_shared_provider(provider: Optional[Callable[[tuple], Optional[PackedTrace]]]) -> None:
    """Install (or with ``None`` remove) the shared pack provider.

    Provider hits bypass the local LRU entirely: shared packs are owned by
    their publishing process and must not pin duplicate buffers here.
    """
    global _SHARED_PROVIDER
    _SHARED_PROVIDER = provider


def set_pack_cache_capacity(capacity: int) -> int:
    """Resize the process-wide pack cache; returns the previous capacity.

    Shrinking evicts immediately (oldest first, counted as evictions).
    """
    global _CACHE_CAPACITY
    if capacity < 1:
        raise ValueError(f"pack cache capacity must be >= 1, got {capacity}")
    previous = _CACHE_CAPACITY
    _CACHE_CAPACITY = capacity
    if len(_PACK_CACHE) > _CACHE_CAPACITY:
        while len(_PACK_CACHE) > _CACHE_CAPACITY:
            _evict_oldest()
        _update_bytes_gauge()
    return previous


def pack_cache_stats() -> dict[str, int]:
    """Hit/miss/eviction counters plus current size/capacity (a copy).

    The counters live in the process-wide
    :class:`~repro.obs.metrics.MetricsRegistry` (so grid workers ship them
    back with their chunks); this accessor keeps the historical dict shape.
    """
    hits, misses, evictions, shared, _bytes = _pack_metrics()
    return {
        "hits": int(hits.total()),
        "misses": int(misses.total()),
        "evictions": int(evictions.total()),
        "shared_hits": int(shared.total()),
        "size": len(_PACK_CACHE),
        "capacity": _CACHE_CAPACITY,
    }


def _evict_oldest() -> None:
    global _CACHE_BYTES
    key, packed = _PACK_CACHE.popitem(last=False)
    _CACHE_BYTES -= packed.nbytes()
    # the death callback (if any) checks _ANON_REFS before touching the
    # cache, so popping here fully retires an anonymous entry
    _ANON_REFS.pop(key, None)
    evictions = _pack_metrics()[2]
    evictions.inc()
    # observability: a thrashing cache (grid wider than the capacity) shows
    # up as a steady eviction stream on the repro.obs logger
    from repro.obs import log_event

    log_event(
        "pack-cache-eviction",
        workload=packed.name,
        bytes=packed.nbytes(),
        evictions=int(evictions.total()),
        capacity=_CACHE_CAPACITY,
    )


def _make_anon_reaper(key: tuple) -> Callable[[object], None]:
    """Death callback dropping an id-keyed cache entry with its workload.

    Fires at referent finalisation — before CPython can hand the id to a
    new allocation — so a recycled id can never hit a stale pack.  Guarded
    on ``_ANON_REFS`` because eviction/clear may have retired the entry
    (and possibly re-inserted a new one under the same recycled key) first.
    """
    def _reap(ref: object, key: tuple = key) -> None:
        global _CACHE_BYTES
        if _ANON_REFS.get(key) is not ref:
            return
        del _ANON_REFS[key]
        packed = _PACK_CACHE.pop(key, None)
        if packed is not None:
            _CACHE_BYTES -= packed.nbytes()
            _update_bytes_gauge()
    return _reap


def get_packed(workload: Workload, warmup: int, sim: int, *,
               capacity: Optional[int] = None) -> PackedTrace:
    """Return a (cached) :class:`PackedTrace` covering the given window.

    The cache is process-wide and LRU-bounded (``capacity`` overrides the
    bound for this call and onwards).  In shm-backed grid workers a shared
    provider serves zero-copy attachments first — those never enter the
    local cache.  Without one, each worker process builds its own packs
    (the arrays are picklable, but shipping them per cell would cost more
    than re-packing once per worker).
    """
    if capacity is not None:
        set_pack_cache_capacity(capacity)
    metrics = _pack_metrics()
    key = _pack_key(workload, warmup, sim)
    if _SHARED_PROVIDER is not None:
        packed = _SHARED_PROVIDER(key)
        if packed is not None:
            metrics[3].inc()
            return packed
    packed = _PACK_CACHE.get(key)
    if packed is not None:
        metrics[0].inc()
        _PACK_CACHE.move_to_end(key)
        return packed
    metrics[1].inc()
    from repro.obs.tracing import trace_span

    with trace_span("pack", workload=workload.name, warmup=warmup, sim=sim):
        packed = PackedTrace.from_workload(workload, warmup, sim)
    if key[0] == "id":
        # id-keyed entries are only valid while the workload object lives:
        # CPython recycles id() after collection, so pin a weak reference
        # whose death callback drops the entry first.  Objects that cannot
        # be weakly referenced are served uncached.
        try:
            _ANON_REFS[key] = weakref.ref(workload, _make_anon_reaper(key))
        except TypeError:
            return packed
    global _CACHE_BYTES
    _PACK_CACHE[key] = packed
    _CACHE_BYTES += packed.nbytes()
    while len(_PACK_CACHE) > _CACHE_CAPACITY:
        _evict_oldest()
    _update_bytes_gauge()
    return packed


def clear_pack_cache() -> None:
    """Drop every cached pack (tests, forked workers, memory pressure).

    Counters survive a clear (they audit process lifetime, not cache
    contents); drops are not counted as evictions.  Forked grid workers
    additionally reset the whole metrics registry
    (:func:`repro.obs.metrics.reset_metrics`) so the parent's warm-up packs
    are not double-counted in merged grid metrics.
    """
    global _CACHE_BYTES
    _PACK_CACHE.clear()
    _ANON_REFS.clear()
    _CACHE_BYTES = 0
    _update_bytes_gauge()
