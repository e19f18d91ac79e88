"""Phase-sampled simulation: simulate 1/Nth of the trace, reconstruct the rest.

The paper evaluates every workload over 250M warm-up + 250M measured
instructions; scaling those counts down uniformly (what the figure suite
does) changes the phase mix.  This module does it properly instead, in the
SMARTS/SimPoint tradition adapted to the packed-column store:

1. **Profile** — the measured region of a :class:`~repro.workloads.packed.
   PackedTrace` is split into ``intervals`` equal-instruction intervals and
   each gets a cheap *memory-access signature* computed straight off the
   pack's derived columns (:class:`~repro.workloads.packed.PackIndex`):
   event-flag density, I-line-change rate, page/line-change rates (the
   page-cross-candidate proxy), load/store mix, branch/mispredict density,
   and mean gap.  Pure numpy prefix-sum reductions — no simulation.
2. **Cluster** — the signature vectors are z-score normalised and clustered
   into at most ``phases`` phases by a deterministic seeded k-means (greedy
   farthest-point init, fixed iteration cap).  One *representative* interval
   is chosen per phase (closest to the centroid); the phase's weight is the
   instruction mass of its members.
3. **Simulate** — only the representative intervals run, *stitched in
   trace order through one engine*: each sub-trace enters the stock packed
   drive loop (:func:`~repro.cpu.fastpath.drive_packed`, or the
   vectorized/auto tier per ``config.kernel``) with a short *functional
   warm-up prefix* as its warm-up region, so measurement starts exactly at
   the interval boundary.  Because the drive kernels take absolute warm-up
   limits and ``begin_measurement()`` re-baselines every statistic, the
   engine is resumable: caches, TLBs, predictors and the page-cross policy's
   filter state carry across the skipped spans instead of restarting cold
   (or, worse, artificially small) at every representative.
4. **Reconstruct** — every interval inherits its phase representative's
   per-instruction rates; instruction-weighted recombination yields a
   whole-trace :class:`~repro.cpu.simulator.SimResult` (ratio-of-sums IPC,
   scaled counters), and a percentile bootstrap over the interval population
   (:func:`~repro.experiments.stats_ci.bootstrap_statistic`) puts a
   confidence interval on the reconstructed IPC
   (``SimResult.ipc_ci_lo/ipc_ci_hi``).

The functional warm-up is an approximation — state built before the prefix
is invisible to the representative — which is why
:func:`repro.validate.check_sampled_matches_full` bounds the relative IPC
error against an occasional full run (CI runs it every cycle), and why the
reconstruction carries its own error bars.  Everything is seeded: a fixed
``SamplingConfig.seed`` makes the whole sampled run bit-exactly
reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from time import perf_counter
from typing import TYPE_CHECKING, Optional

# one ``sampled`` increment per sampled run (the per-representative drives
# additionally count under their kernel's mode)
from repro.cpu.simulator import DRIVES as _DRIVES
from repro.cpu.simulator import packed_driver
from repro.experiments.stats_ci import BootstrapInterval, bootstrap_statistic
from repro.obs.tracing import trace_span
from repro.workloads.packed import PackedTrace, get_packed
from repro.workloads.trace import BRANCH, MISPREDICT

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cpu.simulator import SimConfig, SimResult
    from repro.obs import Observability
    from repro.workloads.trace import Workload

#: signature feature names, in matrix-column order (docs + introspection)
SIGNATURE_FEATURES = (
    "event_density",
    "iline_change_rate",
    "page_change_rate",
    "line_change_rate",
    "load_density",
    "store_density",
    "branch_density",
    "mispredict_density",
    "mean_gap",
)


@dataclass(frozen=True)
class SamplingConfig:
    """Knobs of one phase-sampled run (hashable; rides inside RunSpec).

    ``intervals`` is the profiling resolution — the measured region is cut
    into this many equal-instruction intervals; ``phases`` caps how many of
    them actually simulate.  ``warmup_fraction`` sizes each representative's
    functional warm-up prefix relative to its interval length (at least one
    record of warm-up always runs).  ``max_rel_error`` is the relative-IPC
    bound the validation layer asserts against full runs — carried here so
    a spec is self-describing about the fidelity it claims.
    """

    intervals: int = 64
    phases: int = 8
    warmup_fraction: float = 0.25
    seed: int = 0
    confidence: float = 0.95
    resamples: int = 2000
    max_rel_error: float = 0.02

    def __post_init__(self) -> None:
        if self.intervals < 2:
            raise ValueError(f"sampling needs >= 2 intervals, got {self.intervals}")
        if self.phases < 1:
            raise ValueError(f"sampling needs >= 1 phase, got {self.phases}")
        if not 0.0 <= self.warmup_fraction <= 4.0:
            raise ValueError(
                f"warmup_fraction must be in [0, 4], got {self.warmup_fraction}")
        if not 0.5 <= self.confidence < 1.0:
            raise ValueError(f"confidence must be in [0.5, 1), got {self.confidence}")
        if self.resamples < 1:
            raise ValueError(f"resamples must be >= 1, got {self.resamples}")
        if self.max_rel_error <= 0.0:
            raise ValueError(
                f"max_rel_error must be positive, got {self.max_rel_error}")


@dataclass(frozen=True)
class Phase:
    """One detected phase: its representative interval and member weight."""

    #: index (into the kept-interval list) of the simulated representative
    representative: int
    #: member interval indices, ascending
    members: tuple[int, ...]
    #: total instructions across the member intervals
    instructions: int

    @property
    def weight(self) -> int:
        return self.instructions


@dataclass(frozen=True)
class PhasePlan:
    """Everything the runner/reconstruction need about one profiled pack.

    Intervals are stored in *record space*: interval ``i`` covers packed
    records ``[starts[i], ends[i])`` and spans ``instructions[i]``
    instructions; ``assignment[i]`` is its phase index.  All positions are
    plain ints so the plan is picklable and JSON-friendly.
    """

    starts: tuple[int, ...]
    ends: tuple[int, ...]
    instructions: tuple[int, ...]
    assignment: tuple[int, ...]
    phases: tuple[Phase, ...]
    #: instruction count of the profiled measured region (sum of intervals)
    total_instructions: int

    @property
    def n_intervals(self) -> int:
        return len(self.starts)

    def simulated_instructions(self) -> int:
        """Instructions actually simulated (measured regions only)."""
        return sum(self.instructions[p.representative] for p in self.phases)


def _measured_bounds(packed: PackedTrace, warmup: int, sim: int) -> tuple[int, int]:
    """Record-index bounds (first measured, one-past-last) of the window.

    Mirrors the drive loops exactly: measurement begins after the record
    whose boundary first reaches ``warmup`` instructions and ends after the
    record whose boundary first spans ``sim`` measured instructions.
    """
    import numpy as np

    cum = packed.index().cum
    if not len(cum) or int(cum[-1]) < warmup + sim:
        raise ValueError(
            f"packed trace {packed.name!r} covers {int(cum[-1]) if len(cum) else 0} "
            f"instructions, fewer than the {warmup}+{sim} sampling window")
    m = int(np.searchsorted(cum, warmup, side="left"))
    base = int(cum[m])
    e = m + 1 + int(np.searchsorted(cum[m + 1:], base + sim, side="left"))
    return m + 1, e + 1


def signatures(packed: PackedTrace, warmup: int, sim: int, intervals: int):
    """Per-interval signature matrix plus interval bounds.

    Returns ``(features, starts, ends, inst)`` where ``features`` is an
    ``(n, len(SIGNATURE_FEATURES))`` float64 matrix and the other three are
    int64 arrays (record-space bounds and instruction spans).  Intervals
    that end up empty in record space (possible only when an interval is
    shorter than one record's gap) are dropped.  Pure numpy reductions over
    the pack's derived columns — no simulation.
    """
    import numpy as np

    idx = packed.index()
    cum = idx.cum
    first, last = _measured_bounds(packed, warmup, sim)
    base = int(cum[first - 1])
    span = int(cum[last - 1]) - base

    # interval edges in instruction space -> record space; each interval ends
    # after the record that crosses its instruction edge (same rule the drive
    # loop uses for the measurement stop), so interval k simulated alone
    # measures exactly the records profiled here
    targets = base + (np.arange(1, intervals, dtype=np.int64) * span) // intervals
    inner = np.searchsorted(cum, targets, side="left") + 1
    bounds = np.concatenate(([first], inner, [last])).astype(np.int64)
    bounds = np.maximum.accumulate(np.clip(bounds, first, last))
    starts, ends = bounds[:-1], bounds[1:]
    keep = ends > starts
    starts, ends = starts[keep], ends[keep]

    pre = np.concatenate(([0], cum))  # instructions strictly before record i
    inst = pre[ends] - pre[starts]

    fl = np.asarray(packed.columns()[2], dtype=np.int64)
    vpage, vline = idx.vpage, idx.vline
    pchange = np.empty(len(vpage), dtype=np.float64)
    lchange = np.empty(len(vline), dtype=np.float64)
    if len(vpage):
        pchange[0] = 1.0
        pchange[1:] = vpage[1:] != vpage[:-1]
        lchange[0] = 1.0
        lchange[1:] = vline[1:] != vline[:-1]

    def _rate(col) -> "np.ndarray":
        sums = np.concatenate(([0.0], np.cumsum(col, dtype=np.float64)))
        return sums[ends] - sums[starts]

    records = (ends - starts).astype(np.float64)
    features = np.stack([
        _rate(idx.event),
        _rate(idx.change),
        _rate(pchange),
        _rate(lchange),
        _rate(idx.isload),
        _rate(idx.isstore),
        _rate((fl & BRANCH) != 0),
        _rate((fl & MISPREDICT) != 0),
        inst.astype(np.float64),  # mean gap+1 after the per-record divide
    ], axis=1) / records[:, None]
    return features, starts, ends, inst


def _kmeans(features, k: int, seed: int):
    """Deterministic seeded k-means; returns (assignment, representatives).

    Init is greedy farthest-point (k-means++ without the randomised
    D²-weighting — fully deterministic given the seeded first pick), then
    plain Lloyd iterations with a fixed cap.  The representative of each
    cluster is the member closest to its centroid (lowest index on ties).
    """
    import numpy as np
    import random

    n = len(features)
    k = min(k, n)
    # z-score normalise so no single feature dominates the distance metric
    mean = features.mean(axis=0)
    std = features.std(axis=0)
    std[std == 0.0] = 1.0
    z = (features - mean) / std

    rng = random.Random(seed)
    centers = [rng.randrange(n)]
    d2 = ((z - z[centers[0]]) ** 2).sum(axis=1)
    while len(centers) < k:
        far = int(np.argmax(d2))
        if d2[far] == 0.0:
            break  # fewer distinct signatures than phases
        centers.append(far)
        d2 = np.minimum(d2, ((z - z[far]) ** 2).sum(axis=1))
    centroids = z[centers].copy()

    assignment = np.zeros(n, dtype=np.int64)
    for _ in range(32):
        dist = ((z[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
        new_assignment = np.argmin(dist, axis=1)
        if np.array_equal(new_assignment, assignment) and _ > 0:
            break
        assignment = new_assignment
        for c in range(len(centroids)):
            members = z[assignment == c]
            if len(members):
                centroids[c] = members.mean(axis=0)

    # re-densify cluster ids in first-seen order (empty clusters vanish) so
    # phase numbering is stable and every phase has members
    dist = ((z - centroids[assignment]) ** 2).sum(axis=1)
    remap: dict[int, int] = {}
    dense = np.empty(n, dtype=np.int64)
    for i in range(n):
        c = int(assignment[i])
        if c not in remap:
            remap[c] = len(remap)
        dense[i] = remap[c]
    reps = [0] * len(remap)
    for c, new_c in remap.items():
        member_idx = np.flatnonzero(assignment == c)
        reps[new_c] = int(member_idx[np.argmin(dist[member_idx])])
    return dense, reps


def plan_phases(packed: PackedTrace, warmup: int, sim: int,
                sampling: SamplingConfig) -> PhasePlan:
    """Profile + cluster one pack's measured region into a :class:`PhasePlan`."""
    import numpy as np

    with trace_span("sample-profile", workload=packed.name,
                    intervals=sampling.intervals):
        features, starts, ends, inst = signatures(
            packed, warmup, sim, sampling.intervals)
        assignment, reps = _kmeans(features, sampling.phases, sampling.seed)

    phases = []
    for c, rep in enumerate(reps):
        members = tuple(int(i) for i in np.flatnonzero(assignment == c))
        phases.append(Phase(
            representative=rep,
            members=members,
            instructions=int(inst[list(members)].sum()),
        ))
    return PhasePlan(
        starts=tuple(int(s) for s in starts),
        ends=tuple(int(e) for e in ends),
        instructions=tuple(int(i) for i in inst),
        assignment=tuple(int(a) for a in assignment),
        phases=tuple(phases),
        total_instructions=int(inst.sum()),
    )


def _sub_pack(packed: PackedTrace, first: int, last: int, *,
              warmup: int, sim: int) -> PackedTrace:
    """A :class:`PackedTrace` over records ``[first, last)`` of ``packed``.

    Column slices are cheap (``array`` slices copy a few hundred KB at most;
    shm ``memoryview`` slices are zero-copy) and feed the stock drive
    kernels unchanged.
    """
    return PackedTrace(
        packed.name, packed.suite,
        packed.pcs[first:last], packed.vaddrs[first:last],
        packed.flags[first:last], packed.gaps[first:last],
        warmup=warmup, sim=sim,
        instructions=warmup + sim, complete=True,
    )


def _run_stitched(workload_name: str, packed: PackedTrace, plan: PhasePlan,
                  config: "SimConfig",
                  obs: Optional["Observability"] = None):
    """Simulate every representative on ONE engine, stitched in trace order.

    Returns ``(rep_results, engine, wall)`` with ``rep_results`` indexed by
    phase.  Representatives run through the same engine in ascending trace
    position, each preceded by a functional warm-up prefix of
    ``warmup_fraction`` times its interval length (never fewer than one
    record, never re-reading records an earlier segment already played).
    The drive kernels take *absolute* warm-up limits against the engine's
    cumulative instruction counter and ``begin_measurement()`` re-baselines
    every statistic, so each segment measures exactly its interval while
    long-range microarchitectural state — cache/TLB footprint, branch
    history, DRIPPER filter training — carries across the skips.  A fresh
    engine per representative would systematically *under*-count capacity
    misses (its footprint never saturates the hierarchy the way the full
    run's does); stitching is what keeps the reconstructed IPC honest.
    """
    import numpy as np

    from repro.cpu.simulator import build_engine, collect_result

    sampling = config.sampling
    cum = packed.index().cum
    pre = np.concatenate(([0], cum))  # instructions strictly before record i

    base_config = replace(config, sampling=None)
    engine = build_engine(base_config)
    if obs is not None:
        obs.attach(engine, packed)
    checker = None
    if base_config.validate:
        from repro.validate import InvariantChecker

        checker = InvariantChecker(obs=obs, workload=workload_name)
        checker.attach(engine)

    order = sorted(range(len(plan.phases)),
                   key=lambda j: plan.starts[plan.phases[j].representative])
    rep_results: list = [None] * len(plan.phases)
    prev_end = 0  # one past the last record an earlier segment played
    wall = 0.0
    for j in order:
        phase = plan.phases[j]
        rep = phase.representative
        start, end = plan.starts[rep], plan.ends[rep]
        inst = plan.instructions[rep]

        prefix_target = int(round(inst * sampling.warmup_fraction))
        p = int(np.searchsorted(pre, pre[start] - prefix_target,
                                side="right")) - 1
        p = max(min(prev_end, start - 1), min(p, start - 1), 0)
        sub_warm = int(pre[start] - pre[p])

        sub = _sub_pack(packed, p, end, warmup=sub_warm, sim=inst)
        # warm-up limits are absolute against the carried instruction counter
        sub_config = replace(base_config,
                             warmup_instructions=engine.instructions + sub_warm,
                             sim_instructions=inst)
        with trace_span("phase", workload=workload_name, phase=j,
                        representative=rep, weight=phase.instructions,
                        warmup=sub_warm, sim=inst):
            wall += packed_driver(sub_config.kernel)(engine, sub, sub_config)
        result = collect_result(engine, workload_name, sub_config)
        if checker is not None:
            checker.check_final(engine, result)
        rep_results[j] = result
        prev_end = end
    return rep_results, engine, wall


#: SimResult count fields scaled by instruction mass during reconstruction
_COUNT_FIELDS = (
    "prefetch_fills", "prefetch_useful", "prefetch_useless", "prefetch_late",
    "pgc_candidates", "pgc_issued", "pgc_discarded", "pgc_useful",
    "pgc_useless", "demand_walks", "speculative_walks", "tlb_prefetch_hits",
    "dram_reads", "dram_writes", "branches", "branch_mispredicts",
    "l1d_demand_misses", "tlb_prefetch_evicted_unused",
)

#: SimResult per-kilo-instruction / ratio fields recombined by instruction-
#: weighted mean (exact for the MPKIs, documented approximation for the
#: access-denominated miss rates)
_RATE_FIELDS = (
    "dtlb_mpki", "itlb_mpki", "stlb_mpki", "l1i_mpki", "l1d_mpki",
    "l2c_mpki", "llc_mpki", "l1d_miss_rate", "llc_miss_rate",
    "stlb_miss_rate",
)


def reconstruct(plan: PhasePlan, rep_results: "list[SimResult]",
                config: "SimConfig") -> "tuple[SimResult, BootstrapInterval]":
    """Recombine per-phase results into a whole-trace result + IPC interval.

    Every interval inherits its phase representative's per-instruction
    rates; cycles and counters are scaled by instruction mass and summed,
    so the reconstructed IPC is the instruction-weighted harmonic mean of
    the phase IPCs.  The bootstrap resamples the *interval* population
    (seeded), capturing how much the reconstruction could move had the
    phase mix been drawn differently.
    """
    from repro.cpu.simulator import SimResult

    sampling = config.sampling
    per_interval = []  # (instructions, cycles) per kept interval
    for i in range(plan.n_intervals):
        rep = rep_results[plan.assignment[i]]
        inst = plan.instructions[i]
        per_interval.append((inst, inst * rep.cycles / rep.instructions))

    total_inst = sum(inst for inst, _ in per_interval)
    total_cycles = sum(cycles for _, cycles in per_interval)

    def _ratio(pairs) -> float:
        cycles = sum(c for _, c in pairs)
        return sum(i for i, _ in pairs) / cycles if cycles else 0.0

    ipc_ci = bootstrap_statistic(
        per_interval, _ratio, confidence=sampling.confidence,
        resamples=sampling.resamples, seed=sampling.seed)

    counts = {f: 0.0 for f in _COUNT_FIELDS}
    rates = {f: 0.0 for f in _RATE_FIELDS}
    for phase, rep in zip(plan.phases, rep_results):
        scale = phase.instructions / rep.instructions
        for f in _COUNT_FIELDS:
            counts[f] += getattr(rep, f) * scale
        for f in _RATE_FIELDS:
            rates[f] += getattr(rep, f) * phase.instructions
    for f in _RATE_FIELDS:
        rates[f] /= total_inst if total_inst else 1

    anchor = rep_results[0]
    result = SimResult(
        workload=anchor.workload,
        prefetcher=anchor.prefetcher,
        policy=anchor.policy,
        instructions=total_inst,
        cycles=total_cycles,
        ipc=total_inst / total_cycles if total_cycles else 0.0,
        requested_instructions=config.sim_instructions,
        sampled_intervals=plan.n_intervals,
        sampled_phases=len(plan.phases),
        ipc_ci_lo=ipc_ci.lo,
        ipc_ci_hi=ipc_ci.hi,
        **{f: int(round(v)) for f, v in counts.items()},
        **rates,
    )
    return result, ipc_ci


def simulate_sampled(
    workload: "Workload", config: "SimConfig", *,
    obs: Optional["Observability"] = None,
) -> "SimResult":
    """Run one workload phase-sampled under ``config`` (``config.sampling`` set).

    Profiles + clusters the packed trace, simulates one representative
    interval per phase (stitched in trace order through a single resumable
    engine, each behind a functional warm-up prefix), and returns the
    reconstructed whole-trace :class:`SimResult` with bootstrap IPC bounds
    in ``ipc_ci_lo``/``ipc_ci_hi``.  Bit-exactly deterministic for a fixed
    ``SamplingConfig.seed``.
    """
    sampling = config.sampling
    if sampling is None:
        raise ValueError("simulate_sampled needs config.sampling set")
    _DRIVES.inc(mode="sampled")
    wall_start = perf_counter()
    packed = get_packed(workload, config.warmup_instructions,
                        config.sim_instructions)
    if not packed.complete:
        raise ValueError(
            f"workload {workload.name!r} ended after {packed.instructions} "
            f"instructions, before the sampling window "
            f"({config.warmup_instructions}+{config.sim_instructions}) completed")
    plan = plan_phases(packed, config.warmup_instructions,
                       config.sim_instructions, sampling)
    rep_results, engine, _ = _run_stitched(
        workload.name, packed, plan, config, obs=obs)
    with trace_span("sample-reconstruct", workload=workload.name,
                    phases=len(plan.phases), intervals=plan.n_intervals):
        result, _ipc_ci = reconstruct(plan, rep_results, config)
    wall_seconds = perf_counter() - wall_start
    if obs is not None and engine is not None:
        obs.finish(engine, workload, config, result, wall_seconds)
    return result
