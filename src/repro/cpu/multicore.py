"""Multi-core (8-core) mix simulation (Section IV-A2).

Each core runs its own workload on private L1I/L1D/L2C/TLBs while sharing
the LLC and DRAM, so useless page-cross traffic from one core steals shared
bandwidth and LLC capacity from the others.  Cores are stepped in timestamp
order (a min-heap on each core's retire clock) so shared-resource contention
is time-coherent.

Methodology follows the paper: when a core finishes its instruction budget
its IPC is recorded and the core *replays its trace* until every core has
finished, keeping pressure on the shared resources.  Reported metric is the
weighted speedup: sum over cores of IPC_multicore / IPC_isolation, normalised
against the baseline configuration's weighted IPC.

Two drive loops produce bit-identical results:

* the **generator loop** (:func:`_drive_mix_generator`, the reference
  oracle that :mod:`repro.validate` calls by name) pulls one record at a
  time from each core's live workload generator;
* the **packed loop** (the production path of :func:`simulate_mix`) steps
  each core over the flat columns of its cached
  :class:`~repro.workloads.packed.PackedTrace` through the one record
  kernel, :func:`repro.cpu.fastpath.core_stepper` — the same body every
  single-core run drives — and *batches* heap traffic: while the running
  core's ``(retire_t, index)`` stays strictly below the heap's next entry,
  popping the heap would return the same core again, so it keeps stepping
  without touching the heap.  Each core's kernel lives in a generator
  coroutine, so its hoisted locals survive the switch and a scheduling
  round-trip costs one ``send``.  Replay restart maps onto the columns as a
  fresh pass; a replay that outruns the pack (IPC imbalance, e.g. a
  halved-budget QMM core replaying while full-budget cores catch up)
  continues on a memoised stream advanced past the packed prefix, because
  that is precisely the stream the generator loop would be consuming.
"""

from __future__ import annotations

import heapq
from collections import OrderedDict, deque
from dataclasses import dataclass, replace
from functools import partial
from itertools import islice
from time import perf_counter
from typing import TYPE_CHECKING, Iterator, Optional, Sequence

from repro.cpu.simulator import (
    DRIVES as _DRIVES,
    SimConfig,
    SimResult,
    build_engine,
    collect_result,
    simulate,
)
from repro.mem.cache import Cache
from repro.mem.dram import Dram
from repro.obs.tracing import trace_span
from repro.workloads.packed import stable_identity
from repro.workloads.suites import run_window
from repro.workloads.synthetic import SyntheticWorkload

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cpu.core import CoreEngine
    from repro.obs import Observability
    from repro.validate.invariants import InvariantChecker
    from repro.workloads.trace import Record

_INF = float("inf")


def weighted_speedup(
    multicore_ipcs: Sequence[float],
    isolation_ipcs: Sequence[float],
    *,
    labels: Optional[Sequence[str]] = None,
) -> float:
    """Multi-core weighted speedup (Section IV-A2): sum of IPC_mc / IPC_iso.

    The single implementation behind both :meth:`MixResult.weighted_ipc`
    and :func:`repro.experiments.metrics.weighted_speedup` (which used to
    disagree on negative isolation IPCs).  Any non-positive isolation IPC is
    rejected — a ratio against zero is undefined, and a negative one would
    silently flip the metric's sign.  ``labels`` (e.g. workload names)
    enriches the error with the offending core's identity.
    """
    if len(isolation_ipcs) != len(multicore_ipcs):
        raise ValueError("isolation IPC count does not match core count")
    total = 0.0
    for i, (ipc, iso) in enumerate(zip(multicore_ipcs, isolation_ipcs)):
        if iso <= 0:
            label = f" ({labels[i]!r})" if labels is not None else ""
            raise ValueError(
                f"isolation IPC for core {i}{label} is not positive ({iso!r}); "
                "weighted speedup is undefined (did the isolation run "
                "retire anything?)"
            )
        total += ipc / iso
    return total


@dataclass
class MixResult:
    """Per-core results of one multi-core mix run."""

    results: list[SimResult]
    #: caller-assigned mix identity (rides into journal/metrics context)
    mix_id: Optional[int] = None

    @property
    def ipcs(self) -> list[float]:
        """Per-core measured IPCs, in workload order."""
        return [r.ipc for r in self.results]

    @property
    def instructions(self) -> int:
        """Measured-region instructions summed over the cores."""
        return sum(r.instructions for r in self.results)

    def weighted_ipc(self, isolation_ipcs: Sequence[float]) -> float:
        """Sum over cores of IPC_multicore / IPC_isolation."""
        return weighted_speedup(
            self.ipcs, isolation_ipcs,
            labels=[r.workload for r in self.results],
        )


def _overflow_iterator(workload: "SyntheticWorkload", skip: int) -> Iterator["Record"]:
    """A fresh record stream advanced past the first ``skip`` records.

    A replaying core that exhausts its (complete) pack is, in generator-loop
    terms, consuming records ``skip, skip+1, ...`` of a fresh
    ``workload.generate()`` stream — records the pack never materialised.
    """
    it = iter(workload.generate())
    deque(islice(it, skip), maxlen=0)
    return it


class _OverflowTail:
    """Memoised overflow stream shared by every stepper of one workload.

    Regenerating the overflow tail is the dominant non-simulation cost of a
    packed mix cell: the source generator must replay the whole packed
    prefix (to advance its pattern/RNG state) and then re-produce every
    tail record, once per cell — and a mix study runs the same mix under
    several policies.  Records are deterministic per workload identity, so
    the tail is generated once per process and appended here; later cells
    (and same-workload cores within a cell) replay the cached tuples.

    Consumers hold their own cursor into ``records``; whoever runs off the
    cached end pulls the shared ``source`` forward and appends.  Steppers
    are coroutines on one thread, so there is no append race — a consumer
    only yields control *between* records.
    """

    __slots__ = ("workload", "skip", "records", "source", "exhausted")

    def __init__(self, workload: "SyntheticWorkload", skip: int) -> None:
        self.workload = workload
        self.skip = skip
        self.records: list["Record"] = []
        #: created on first use so the prefix replay is deferred (and paid
        #: exactly once), like the stepper's lazy overflow stream
        self.source: Iterator["Record"] | None = None
        self.exhausted = False


#: per-entry cap on memoised tail records (32 B-per-field tuples; ~0.5 M
#: records keeps the worst entry around tens of MB) — a replay running past
#: the cap falls back to a private regenerated stream
_TAIL_RECORD_CAP = 1 << 19

#: FIFO-bounded cache: identity key -> _OverflowTail
_TAIL_CACHE: OrderedDict[tuple, _OverflowTail] = OrderedDict()
_TAIL_CACHE_CAPACITY = 8


def clear_overflow_tails() -> None:
    """Drop every memoised overflow tail (test isolation hook)."""
    _TAIL_CACHE.clear()


def _tail_key(workload: "SyntheticWorkload", skip: int) -> tuple | None:
    """Identity key for the tail cache, or None when caching is unsafe.

    Uses the pack cache's rule (:func:`repro.workloads.packed.stable_identity`):
    registry and file-backed workloads regenerate deterministically, so
    their tails can be shared; anything else would need id-keyed weakref
    pinning — not worth it for a pure performance cache, so those streams
    just stay uncached.
    """
    identity = stable_identity(workload)
    return None if identity is None else (*identity, skip)


def _tail_records(workload: "SyntheticWorkload", skip: int) -> Iterator["Record"]:
    """The overflow stream, served from (and growing) the shared tail cache.

    Yields exactly the records ``_overflow_iterator(workload, skip)`` would:
    the cached span first, then freshly generated records which are appended
    as they are produced.  Past ``_TAIL_RECORD_CAP`` the consumer continues
    on a private stream advanced beyond everything already served.
    """
    key = _tail_key(workload, skip)
    if key is None:
        yield from _overflow_iterator(workload, skip)
        return
    tail = _TAIL_CACHE.get(key)
    if tail is None:
        tail = _OverflowTail(workload, skip)
        _TAIL_CACHE[key] = tail
        while len(_TAIL_CACHE) > _TAIL_CACHE_CAPACITY:
            _TAIL_CACHE.popitem(last=False)
    records = tail.records
    i = 0
    while True:
        n = len(records)
        while i < n:
            yield records[i]
            i += 1
        if tail.exhausted:
            return
        if i >= _TAIL_RECORD_CAP:
            yield from _overflow_iterator(workload, skip + i)
            return
        if tail.source is None:
            tail.source = _overflow_iterator(workload, skip)
        try:
            rec = next(tail.source)
        except StopIteration:
            tail.exhausted = True
            return
        records.append(rec)
        yield rec
        i += 1


def _drive_mix_generator(
    engines: list["CoreEngine"],
    workloads: Sequence[SyntheticWorkload],
    budgets: list[tuple[int, int]],
    core_configs: list[SimConfig],
    checkers: Optional[list["InvariantChecker"]] = None,
) -> list[Optional[SimResult]]:
    """Reference oracle: one record at a time from live generators."""
    _DRIVES.inc(mode="mix-generator")
    cores = len(engines)
    iterators = [iter(w.generate()) for w in workloads]
    measuring = [False] * cores
    finished: list[Optional[SimResult]] = [None] * cores
    remaining = cores
    # Min-heap on each core's retire clock: the core furthest behind in time
    # steps next, so shared-resource contention is time-coherent and finished
    # (replaying) cores are automatically paced — they only step when the
    # unfinished cores have caught up to them.
    heap = [(0.0, i) for i in range(cores)]
    heapq.heapify(heap)
    while remaining:
        _, i = heapq.heappop(heap)
        engine = engines[i]
        try:
            record = next(iterators[i])
        except StopIteration:  # finite trace shorter than its window
            iterators[i] = iter(workloads[i].generate())
            record = next(iterators[i])
        engine.step(*record)
        warm_limit, sim_limit = budgets[i]
        if not measuring[i] and engine.instructions >= warm_limit:
            engine.begin_measurement()
            measuring[i] = True
        # measured-region completion, not a raw warm+sim total: a gap that
        # overshoots the warm-up boundary must not shorten the measured region
        if finished[i] is None and measuring[i] and engine.measured_instructions >= sim_limit:
            finished[i] = collect_result(engine, workloads[i].name, core_configs[i])
            if checkers is not None:
                checkers[i].check_final(engine, finished[i])
            remaining -= 1
            # replay: the core keeps running to stress shared resources
            iterators[i] = iter(workloads[i].generate())
        if remaining:
            heapq.heappush(heap, (engine.retire_t, i))
    return finished


def _drive_mix_packed(
    engines: list["CoreEngine"],
    workloads: Sequence[SyntheticWorkload],
    budgets: list[tuple[int, int]],
    core_configs: list[SimConfig],
    checkers: Optional[list["InvariantChecker"]] = None,
) -> list[Optional[SimResult]]:
    """Packed drive loop: one record-kernel stepper per core, batched heap stepping.

    Each core is a resumable :func:`repro.cpu.fastpath.core_stepper` — the
    record kernel every single-core run also drives — so each burst between
    heap switches runs at kernel speed and switching cores costs one
    ``send``.  Bit-identical to :func:`_drive_mix_generator` by
    construction:

    * the record body is the one that single-core runs prove equal to
      ``engine.step`` record-for-record, and the stepper's event placement
      mirrors the generator loop's per-record warm-up/finish checks (a
      complete pack's last record is the record on which the core finishes,
      so its replay restart is a plain pass back over the columns);
    * batching is order-preserving: while ``(engine.retire_t, i)`` compares
      strictly below the heap's smallest entry, re-pushing and popping would
      return core ``i`` again, so stepping it without the round-trip replays
      the identical schedule (the retire clock never decreases, and the
      bound cannot move while no other core steps);
    * replay past a complete pack's end continues on the memoised overflow
      stream (:func:`_tail_records`) advanced past the packed prefix, and a
      pass that runs out of records resumes at the pack's first record —
      mirroring the generator loop's ``StopIteration`` restart.  Incomplete
      packs (finite traces shorter than their window) hold the *entire*
      source stream, so for them that wrap is the restart, pre- and
      post-finish alike.
    """
    from repro.cpu.fastpath import core_stepper
    from repro.workloads.packed import get_packed

    _DRIVES.inc(mode="mix-packed")
    cores = len(engines)
    steppers = []
    for i, (engine, workload, (warmup, sim)) in enumerate(
            zip(engines, workloads, budgets)):
        pack = get_packed(workload, warmup, sim)
        overflow = partial(_tail_records, workload, len(pack)) if pack.complete else None
        stepper = core_stepper(engine, pack, warmup, sim, i, overflow)
        next(stepper)  # run the hoists, park before the first record
        steppers.append(stepper)
    finished: list[Optional[SimResult]] = [None] * cores
    remaining = cores
    heap = [(0.0, i) for i in range(cores)]
    heapq.heapify(heap)
    try:
        while True:
            _, i = heapq.heappop(heap)
            # every other core sits in the heap, so its smallest entry bounds
            # how far core i may run before the schedule would switch cores
            bound = heap[0] if heap else (_INF, cores)
            event, t = steppers[i].send(bound)
            while event != "bound":
                if event == "finish":
                    finished[i] = collect_result(engines[i], workloads[i].name,
                                                 core_configs[i])
                    if checkers is not None:
                        checkers[i].check_final(engines[i], finished[i])
                    remaining -= 1
                    if not remaining:
                        return finished
                # "finish": the core replays; "exhausted": it wraps to its
                # first record.  The same bound still applies, and the core
                # reports "bound" itself once it crosses it
                event, t = steppers[i].send(bound)
            heapq.heappush(heap, (t, i))
    finally:
        # leave every engine's timeline scalars flushed, exactly as a
        # generator-loop run leaves them
        for stepper in steppers:
            stepper.close()


def build_mix(
    workloads: Sequence[SyntheticWorkload], config: SimConfig,
) -> tuple[list["CoreEngine"], list[tuple[int, int]], list[SimConfig]]:
    """Wire one engine per core around a shared LLC + DRAM.

    Returns ``(engines, budgets, core_configs)``: each core's per-core
    config carries its (QMM-halved where applicable) ``(warmup, sim)``
    budget, so the journaled ``requested_instructions`` matches what the
    core measures.
    """
    params = config.params.scaled_llc(len(workloads))
    dram = Dram(params.dram)
    llc = Cache(params.llc, writeback=dram.write)
    engines = []
    budgets = []
    core_configs = []
    for i, workload in enumerate(workloads):
        warmup, sim = run_window(workload, config.warmup_instructions,
                                 config.sim_instructions)
        core_config = replace(config, params=params, asid=i,
                              warmup_instructions=warmup, sim_instructions=sim)
        engines.append(build_engine(core_config, shared_llc=llc, shared_dram=dram))
        budgets.append((warmup, sim))
        core_configs.append(core_config)
    return engines, budgets, core_configs


def simulate_mix(
    workloads: Sequence[SyntheticWorkload],
    config: SimConfig,
    *,
    obs: Optional["Observability"] = None,
    mix_id: Optional[int] = None,
) -> MixResult:
    """Run one mix: len(workloads) cores sharing LLC + DRAM.

    Cores step through the packed mix loop, bit-identical to the
    :func:`_drive_mix_generator` oracle (asserted by
    :func:`repro.validate.check_mix_packed_matches_generator`), and
    ``config.validate`` attaches one :class:`~repro.validate.InvariantChecker`
    per core (each core's result is checked at its own collect point, while
    the core goes on replaying).

    With an ``obs`` bundle, one journal record is written per core, tagged
    with the mix id and core index (``mix``/``core`` context keys; the
    per-core config also carries the core index as its ``asid``), and the
    mix's wall time is split evenly across the records so journal-derived
    throughput stays honest.  Timelines and probes are single-core
    instruments and are rejected.
    """
    cores = len(workloads)
    if obs is not None and (obs.timeline is not None or obs.probe is not None):
        raise ValueError(
            "timeline/probe instruments are single-core only; pass an "
            "Observability bundle with just a journal to simulate_mix"
        )
    engines, budgets, core_configs = build_mix(workloads, config)
    checkers = None
    if config.validate:
        from repro.validate import InvariantChecker

        checkers = [InvariantChecker(obs=obs, workload=w.name) for w in workloads]
        for checker, engine in zip(checkers, engines):
            checker.attach(engine)
    wall_start = perf_counter()
    with trace_span("mix-drive", mix=mix_id, cores=cores, mode="mix-packed"):
        finished = _drive_mix_packed(engines, workloads, budgets, core_configs, checkers)
    wall_seconds = perf_counter() - wall_start
    results = [r for r in finished if r is not None]
    if obs is not None:
        share = wall_seconds / cores if cores else 0.0
        for i, (workload, result) in enumerate(zip(workloads, results)):
            with obs.scoped(mix=mix_id, core=i):
                obs.finish(engines[i], workload, core_configs[i], result, share)
    return MixResult(results, mix_id=mix_id)


def isolation_ipc(
    workload: SyntheticWorkload,
    config: SimConfig,
    cores: int,
    *,
    obs: Optional["Observability"] = None,
) -> float:
    """IPC of `workload` alone on the multi-core configuration.

    Delegates to :func:`~repro.cpu.simulator.simulate`, so the config's
    ``validate`` knob is honoured the same way a single-core run honours it.
    """
    warmup, sim = run_window(workload, config.warmup_instructions,
                             config.sim_instructions)
    iso_config = replace(config, params=config.params.scaled_llc(cores),
                         warmup_instructions=warmup, sim_instructions=sim)
    return simulate(workload, iso_config, obs=obs).ipc
