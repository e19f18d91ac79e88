"""Differential and metamorphic validation of the simulator.

Each check runs the *production* code paths twice under a transformation
that must not change the answer, then diffs the :class:`SimResult`\\ s
field by field:

* **determinism** — the same (workload, config) simulated twice is
  bit-identical (trace generation, large-page allocation and replacement
  are all seeded);
* **parallel-vs-serial** — a randomized batch of grid cells executed with
  ``jobs=N`` equals the same batch executed serially (``jobs=1``);
* **shm-grid-vs-serial** — the same grid run through the zero-copy
  shared-memory pack store (workers attach the parent's published packs)
  equals serial execution, and no ``/dev/shm`` segment survives the run;
* **discard-source equivalence** — running ``DiscardPgc`` equals running a
  prefetcher wrapper that suppresses page-cross candidates at the source
  (the policy layer must be side-effect-free when it discards); only the
  candidate bookkeeping (``pgc_candidates``/``pgc_discarded``) may differ;
* **epoch invariance** — for epoch-independent policies (discard, permit),
  changing ``epoch_instructions`` must not change any counter: epoch ends
  are bookkeeping, not events;
* **packed-vs-generator** — the production packed kernel
  (:func:`~repro.cpu.simulator.simulate`) is bit-identical to the
  generator oracle (:func:`~repro.cpu.simulator.drive`, one
  ``engine.step`` per record) for every fuzz prefetcher under discard and
  DRIPPER;
* **mix-packed-vs-generator** — the production packed mix loop
  (:func:`repro.cpu.multicore.simulate_mix`) equals the generator mix
  oracle (``_drive_mix_generator``) per core, on a mix whose QMM core
  (halved budgets) finishes early and replays through the overflow seam;
* **vectorized-vs-fused** — the span-skipping vectorized kernel tier
  (``SimConfig(kernel="vectorized")``) equals the fused tier across its
  fallback seams: epoch rollovers mid-span, event-dense windows, runs with
  an ``epoch_listener`` attached, and non-LRU delegation;
* **invariants-clean** — every (workload × policy) run passes a full
  :class:`~repro.validate.InvariantChecker` pass with zero violations;
* **mutation detection** — re-introducing the fixed stale-MSHR bug via
  :func:`~repro.validate.reintroduce_stale_mshr_bug` makes a validated run
  raise, proving the checker actually has teeth.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, fields, replace
from typing import Any, Callable, Optional, Sequence

from repro.core.policies import PermitPgc
from repro.cpu.simulator import SimConfig, SimResult, build_engine, collect_result, drive, simulate
from repro.experiments.parallel import cell_for, clear_result_memo, run_cells
from repro.experiments.runner import RunSpec
from repro.params import DEFAULT_PARAMS
from repro.prefetch import make_l1d_prefetcher
from repro.prefetch.base import L1dPrefetcher
from repro.validate.invariants import InvariantChecker, InvariantViolation
from repro.validate.mutation import reintroduce_stale_mshr_bug
from repro.vm.address import PAGE_4K_SHIFT, canonical
from repro.workloads.registry import by_name

#: prefetchers the parallel fuzz draws from (cheap, deterministic trainers)
_FUZZ_PREFETCHERS = ("berti", "ipcp", "bop")
#: epoch lengths the fuzz and the invariance check draw from
_FUZZ_EPOCHS = (1024, 2048, 4096)


@dataclass
class CheckOutcome:
    """One differential check's verdict."""

    name: str
    passed: bool
    detail: str = ""


def result_diff(a: SimResult, b: SimResult, *, ignore: Sequence[str] = ()) -> dict[str, tuple[Any, Any]]:
    """Field-by-field differences between two results (empty == identical)."""
    diffs: dict[str, tuple[Any, Any]] = {}
    for f in fields(SimResult):
        if f.name in ignore:
            continue
        va, vb = getattr(a, f.name), getattr(b, f.name)
        if va != vb:
            diffs[f.name] = (va, vb)
    return diffs


def _summarise(diffs: dict[str, tuple[Any, Any]], limit: int = 4) -> str:
    parts = [f"{k}: {va!r} != {vb!r}" for k, (va, vb) in list(diffs.items())[:limit]]
    if len(diffs) > limit:
        parts.append(f"... {len(diffs) - limit} more")
    return "; ".join(parts)


class _SuppressCrossPage(L1dPrefetcher):
    """Wrap a prefetcher, dropping page-cross candidates at the source.

    Mirrors the engine's candidate test in ``_handle_prefetches`` exactly:
    a request is page-cross iff its canonicalised target lands outside the
    trigger's 4KB frame.  Running this under any policy must equal running
    the bare prefetcher under ``DiscardPgc`` — modulo the candidate
    bookkeeping that only the policy path performs.
    """

    def __init__(self, inner: L1dPrefetcher):
        self.inner = inner
        self.name = inner.name

    @property
    def extra_storage_bytes(self) -> int:
        return self.inner.extra_storage_bytes

    def on_access(self, pc: int, vaddr: int, hit: bool, t: float) -> list:
        trigger_page = vaddr >> PAGE_4K_SHIFT
        return [
            req for req in self.inner.on_access(pc, vaddr, hit, t)
            if (canonical(req.vaddr) >> PAGE_4K_SHIFT) == trigger_page
        ]

    def on_fill(self, vaddr: int, latency: float) -> None:
        self.inner.on_fill(vaddr, latency)


def simulate_generator(workload: Any, config: SimConfig) -> SimResult:
    """The generator oracle: ``simulate`` driven by :func:`drive` instead of
    the packed kernel (no sampling, observability or validation)."""
    engine = build_engine(config)
    drive(engine, workload, config)
    return collect_result(engine, workload.name, config)


def simulate_mix_generator(workloads: Sequence[Any], config: SimConfig) -> list[SimResult]:
    """The mix oracle: ``simulate_mix`` driven by ``_drive_mix_generator``."""
    from repro.cpu.multicore import _drive_mix_generator, build_mix

    engines, budgets, core_configs = build_mix(workloads, config)
    finished = _drive_mix_generator(engines, workloads, budgets, core_configs)
    return [r for r in finished if r is not None]


def _spec(prefetcher: str, policy: str, warmup: int, sim: int, **overrides: Any) -> RunSpec:
    return RunSpec(
        prefetcher=prefetcher,
        policy=policy,
        warmup_instructions=warmup,
        sim_instructions=sim,
        **overrides,
    )


# ---------------------------------------------------------------------------
# individual checks


def check_determinism(workload_name: str, *, prefetcher: str, policy: str,
                      warmup: int, sim: int) -> CheckOutcome:
    """Same seed, same config => bit-identical result."""
    workload = by_name(workload_name)
    spec = _spec(prefetcher, policy, warmup, sim)
    first = simulate(workload, spec.config_for(workload))
    second = simulate(workload, spec.config_for(workload))
    diffs = result_diff(first, second)
    name = f"determinism[{workload_name}/{policy}]"
    if diffs:
        return CheckOutcome(name, False, _summarise(diffs))
    return CheckOutcome(name, True, f"{first.instructions} instructions, ipc {first.ipc:.3f}")


def check_parallel_matches_serial(workload_names: Sequence[str], *,
                                  policies: Sequence[str], warmup: int, sim: int,
                                  seed: int, fuzz_cells: int, jobs: int) -> CheckOutcome:
    """A randomized cell batch run with jobs=N equals the serial run."""
    rng = random.Random(seed)
    cells = []
    for _ in range(fuzz_cells):
        workload = by_name(rng.choice(list(workload_names)))
        spec = _spec(
            rng.choice(_FUZZ_PREFETCHERS),
            rng.choice(list(policies)),
            warmup,
            sim,
            large_page_fraction=rng.choice((0.0, 0.25)),
        )
        cells.append(cell_for(workload, spec,
                              epoch_instructions=rng.choice(_FUZZ_EPOCHS)))
    # both legs must simulate: drop memoised results before each
    clear_result_memo()
    serial = run_cells(cells, jobs=1)
    clear_result_memo()
    parallel = run_cells(cells, jobs=max(2, jobs))
    name = f"parallel-vs-serial[{fuzz_cells} cells]"
    for i, (a, b) in enumerate(zip(serial, parallel)):
        diffs = result_diff(a, b)
        if diffs:
            cell = cells[i]
            return CheckOutcome(
                name, False,
                f"cell {i} ({cell.workload}/{cell.spec.policy}/{cell.spec.prefetcher}): "
                + _summarise(diffs),
            )
    return CheckOutcome(name, True, f"{len(cells)} randomized cells identical")


def check_discard_source_equivalence(workload_name: str, *, prefetcher: str,
                                     warmup: int, sim: int) -> CheckOutcome:
    """DiscardPgc == suppressing page-cross candidates inside the prefetcher."""
    workload = by_name(workload_name)
    spec = _spec(prefetcher, "discard", warmup, sim)
    config = spec.config_for(workload)
    baseline = simulate(workload, config)

    suppressed = _SuppressCrossPage(make_l1d_prefetcher(prefetcher))
    engine = build_engine(config, prefetcher=suppressed)
    drive(engine, workload, config)
    source = collect_result(engine, workload.name, config)

    # only the policy path sees candidates; suppressing at the source zeroes
    # the candidate/discard bookkeeping but must change nothing else
    diffs = result_diff(baseline, source, ignore=("pgc_candidates", "pgc_discarded"))
    name = f"discard-source-equivalence[{workload_name}/{prefetcher}]"
    if diffs:
        return CheckOutcome(name, False, _summarise(diffs))
    if source.pgc_candidates != 0 or source.pgc_issued != 0:
        return CheckOutcome(
            name, False,
            f"suppressed run still saw candidates "
            f"(candidates={source.pgc_candidates}, issued={source.pgc_issued})",
        )
    return CheckOutcome(
        name, True,
        f"{baseline.pgc_candidates} candidates suppressed without side effects",
    )


def check_epoch_invariance(workload_name: str, *, prefetcher: str,
                           warmup: int, sim: int) -> CheckOutcome:
    """Epoch length must not alter counters for epoch-independent policies."""
    workload = by_name(workload_name)
    for policy in ("discard", "permit"):
        spec = _spec(prefetcher, policy, warmup, sim)
        results = []
        for epoch in _FUZZ_EPOCHS:
            config = replace(spec.config_for(workload), epoch_instructions=epoch)
            results.append(simulate(workload, config))
        for other, epoch in zip(results[1:], _FUZZ_EPOCHS[1:]):
            diffs = result_diff(results[0], other)
            if diffs:
                return CheckOutcome(
                    f"epoch-invariance[{workload_name}/{policy}]", False,
                    f"epoch {_FUZZ_EPOCHS[0]} vs {epoch}: " + _summarise(diffs),
                )
    return CheckOutcome(
        f"epoch-invariance[{workload_name}]", True,
        f"epochs {_FUZZ_EPOCHS} identical for discard and permit",
    )


def check_packed_matches_generator(workload_name: str, *, warmup: int,
                                   sim: int) -> list[CheckOutcome]:
    """The packed kernel equals the generator oracle bit-for-bit.

    Covers every fuzz prefetcher under both a static policy (discard) and
    the epoch-adaptive one (dripper) — the two exercise disjoint sets of
    fused branches.  DRIPPER additionally runs with a deliberately short
    epoch so the packed loop's *inline* epoch rollover (it no longer bails
    to ``step()`` at epoch boundaries) fires many times per measurement
    window.
    """
    workload = by_name(workload_name)
    outcomes = []
    for prefetcher in _FUZZ_PREFETCHERS:
        for policy, epoch in (("discard", None), ("dripper", None), ("dripper", 512)):
            spec = _spec(prefetcher, policy, warmup, sim)
            config = spec.config_for(workload)
            if epoch is not None:
                config = replace(config, epoch_instructions=epoch)
            generator = simulate_generator(workload, config)
            packed = simulate(workload, config)
            diffs = result_diff(generator, packed)
            tag = f"{policy}@{epoch}" if epoch is not None else policy
            name = f"packed-vs-generator[{workload_name}/{prefetcher}/{tag}]"
            if diffs:
                outcomes.append(CheckOutcome(name, False, _summarise(diffs)))
            else:
                outcomes.append(CheckOutcome(
                    name, True, f"identical at ipc {generator.ipc:.3f}"
                ))
    # vectorized tier against the generator: engaged (span-skipping) for the
    # no-prefetcher cells, delegating to the fused kernel for real
    # prefetchers — bit-identical either way
    for prefetcher, policy, epoch in (
        ("none", "discard", None),
        ("none", "discard", 512),
        (_FUZZ_PREFETCHERS[0], "discard", None),
    ):
        spec = _spec(prefetcher, policy, warmup, sim)
        config = spec.config_for(workload)
        if epoch is not None:
            config = replace(config, epoch_instructions=epoch)
        generator = simulate_generator(workload, config)
        vectorized = simulate(workload, replace(config, kernel="vectorized"))
        diffs = result_diff(generator, vectorized)
        tag = f"{policy}@{epoch}" if epoch is not None else policy
        name = f"vectorized-vs-generator[{workload_name}/{prefetcher}/{tag}]"
        if diffs:
            outcomes.append(CheckOutcome(name, False, _summarise(diffs)))
        else:
            outcomes.append(CheckOutcome(
                name, True, f"identical at ipc {generator.ipc:.3f}"
            ))
    return outcomes


def check_vectorized_matches_fused(workload_name: str, *, warmup: int,
                                   sim: int) -> list[CheckOutcome]:
    """The vectorized tier equals the fused tier across its fallback seams.

    Each cell targets one seam of :mod:`repro.cpu.fastpath_vec`:

    * hit-dominated kernels where nearly every window is one long span
      (``hot_0``), including a deliberately short epoch so spans run
      *across* many rollovers (the deferred-epoch segment commit);
    * a branchy kernel (``hot_3``) whose taken branches pepper the windows
      with events, exercising the event-run stepping between spans;
    * the caller's workload — miss-heavy, so spans are short and the
      residency proofs keep failing over to stepping;
    * ``validate=True``, which chains an ``epoch_listener`` onto the engine
      — spans must clip at epoch boundaries and the residency-proof caches
      must drop after every rollover (and the invariant checker audits the
      run for free);
    * a non-LRU replacement policy, which fails the capability probe and
      must delegate to the fused tier untouched.
    """
    outcomes = []
    cells: list[tuple[str, str, str, dict[str, Any]]] = [
        ("hot_0", "none", "discard", {}),
        ("hot_0", "none", "discard", {"epoch_instructions": 512}),
        ("hot_3", "none", "permit", {}),
        (workload_name, "none", "discard", {}),
        ("hot_0", "none", "discard", {"validate": True}),
    ]
    for wname, prefetcher, policy, overrides in cells:
        workload = by_name(wname)
        config = _spec(prefetcher, policy, warmup, sim).config_for(workload)
        config = replace(config, **overrides)
        fused = simulate(workload, config)
        vectorized = simulate(workload, replace(config, kernel="vectorized"))
        diffs = result_diff(fused, vectorized)
        tag = "/".join(f"{k}={v}" for k, v in overrides.items()) or "default"
        name = f"vectorized-vs-fused[{wname}/{policy}/{tag}]"
        if diffs:
            outcomes.append(CheckOutcome(name, False, _summarise(diffs)))
        else:
            outcomes.append(CheckOutcome(
                name, True, f"identical at ipc {fused.ipc:.3f}"
            ))
    # non-LRU replacement: the capability probe must reject and delegate
    workload = by_name("hot_0")
    srrip = replace(DEFAULT_PARAMS, l1d=replace(DEFAULT_PARAMS.l1d, replacement="srrip"))
    config = replace(_spec("none", "discard", warmup, sim).config_for(workload),
                     params=srrip)
    fused = simulate(workload, config)
    vectorized = simulate(workload, replace(config, kernel="vectorized"))
    diffs = result_diff(fused, vectorized)
    name = "vectorized-vs-fused[hot_0/discard/srrip-delegates]"
    if diffs:
        outcomes.append(CheckOutcome(name, False, _summarise(diffs)))
    else:
        outcomes.append(CheckOutcome(
            name, True, f"identical at ipc {fused.ipc:.3f}"
        ))
    return outcomes


def check_sampled_matches_full(
    workload_name: str, *, prefetcher: str = "berti", policy: str = "dripper",
    warmup: int, sim: int, sampling: Optional[Any] = None,
) -> list[CheckOutcome]:
    """Phase-sampled reconstruction stays within its claimed error bound.

    Sampling is an *approximation* (functional warm-up cannot rebuild state
    older than its prefix), so unlike every bit-identity check above this
    one asserts a bound: the reconstructed IPC must sit within
    ``sampling.max_rel_error`` of a full run of the same window.  It also
    asserts the approximation is *reproducible* — two sampled runs with the
    same seed must be bit-identical (clustering init and the bootstrap are
    both seeded).
    """
    from repro.experiments.sampling import SamplingConfig

    if sampling is None:
        # Sampling is undefined at the suite's micro windows (a 1.5k-instr
        # window split 16 ways leaves ~100 instructions per interval, all
        # boundary noise), so the default check floors the window to the
        # smallest scale where phases are real and keeps half the intervals
        # as phases — enough for the seeded clustering to isolate outlier
        # intervals (astar has two ~30x-slower ones in this window).
        # Explicit ``sampling=`` keeps the caller's window untouched.
        warmup = max(warmup, 4_000)
        sim = max(sim, 48_000)
        sampling = SamplingConfig(intervals=16, phases=8, warmup_fraction=1.0,
                                  max_rel_error=0.05)
    workload = by_name(workload_name)
    spec = _spec(prefetcher, policy, warmup, sim)
    config = spec.config_for(workload)
    full = simulate(workload, config)
    sampled = simulate(workload, replace(config, sampling=sampling))
    again = simulate(workload, replace(config, sampling=sampling))
    outcomes = []
    diffs = result_diff(sampled, again)
    det_name = f"sampled-deterministic[{workload_name}/{prefetcher}/{policy}]"
    if diffs:
        outcomes.append(CheckOutcome(det_name, False, _summarise(diffs)))
    else:
        outcomes.append(CheckOutcome(
            det_name, True,
            f"bit-identical across reruns at seed {sampling.seed}"))
    rel_error = abs(sampled.ipc - full.ipc) / full.ipc if full.ipc else 0.0
    err_name = f"sampled-error-bound[{workload_name}/{prefetcher}/{policy}]"
    detail = (
        f"full ipc {full.ipc:.4f}, sampled {sampled.ipc:.4f} "
        f"[{sampled.ipc_ci_lo:.4f}, {sampled.ipc_ci_hi:.4f}] "
        f"({sampled.sampled_phases} phases/{sampled.sampled_intervals} "
        f"intervals), rel error {100 * rel_error:.2f}% "
        f"(bound {100 * sampling.max_rel_error:.1f}%)")
    outcomes.append(CheckOutcome(err_name, rel_error <= sampling.max_rel_error,
                                 detail))
    return outcomes


def check_mix_packed_matches_generator(*, warmup: int, sim: int,
                                       cores: int = 4) -> list[CheckOutcome]:
    """The packed mix drive loop equals the generator mix oracle per core.

    The mix deliberately includes a QMM workload: its per-core budgets are
    halved by ``simulate_mix``, so that core finishes early and *replays*
    while the full-budget cores catch up — driving the packed loop past its
    packed prefix and into the overflow-continuation path (a fresh
    generator advanced past the pack).  Checked under a static policy
    (discard) and the epoch-adaptive DRIPPER, which exercise disjoint sets
    of per-core state.
    """
    from repro.cpu.multicore import simulate_mix
    from repro.workloads.registry import seen_workloads

    qmm = next(w for w in seen_workloads() if w.suite.startswith("QMM"))
    names = ["astar", "hmmer", "mcf", "lbm"]
    mix = [by_name(name) for name in names[:cores - 1]] + [qmm]
    tag = "+".join(w.name for w in mix)
    outcomes = []
    for policy in ("discard", "dripper"):
        config = _spec("berti", policy, warmup, sim).base_config()
        generator = simulate_mix_generator(mix, config)
        packed = simulate_mix(mix, config)
        name = f"mix-packed-vs-generator[{tag}/{policy}]"
        failed = False
        for core, (a, b) in enumerate(zip(generator, packed.results)):
            diffs = result_diff(a, b)
            if diffs:
                outcomes.append(CheckOutcome(
                    name, False,
                    f"core {core} ({a.workload}): " + _summarise(diffs)))
                failed = True
                break
        if not failed:
            outcomes.append(CheckOutcome(
                name, True,
                f"{len(mix)} cores identical, weighted "
                f"ipcs {[round(r.ipc, 3) for r in generator]}"))
    return outcomes


def check_shm_grid_matches_serial(workload_names: Sequence[str], *,
                                  policies: Sequence[str], prefetcher: str,
                                  warmup: int, sim: int, jobs: int) -> CheckOutcome:
    """The shared-memory grid path equals serial execution, and cleans up.

    Runs the (workload × policy) grid once serially and once on a worker
    pool with the zero-copy pack store (``shm=True``): workers attach the
    parent's published segments instead of re-packing, and must produce
    field-identical results.  Afterwards no ``repro-pack-*`` segment may
    remain in ``/dev/shm`` — a leak means a store outlived its session.
    """
    from repro.experiments.parallel import grid_session
    from repro.workloads.shm import live_segments

    cells = [
        cell_for(by_name(name), _spec(prefetcher, policy, warmup, sim))
        for name in workload_names
        for policy in policies
    ]
    clear_result_memo()
    serial = run_cells(cells, jobs=1)
    clear_result_memo()
    with grid_session(max(2, jobs), True):
        shared = run_cells(cells, jobs=max(2, jobs), shm=True)
    name = f"shm-grid-vs-serial[{len(cells)} cells]"
    for i, (a, b) in enumerate(zip(serial, shared)):
        diffs = result_diff(a, b)
        if diffs:
            cell = cells[i]
            return CheckOutcome(
                name, False,
                f"cell {i} ({cell.workload}/{cell.spec.policy}): " + _summarise(diffs),
            )
    leaked = live_segments()
    if leaked:
        return CheckOutcome(name, False, f"leaked shm segments: {', '.join(leaked)}")
    return CheckOutcome(name, True, f"{len(cells)} cells identical, no segments leaked")


def check_invariants_clean(workload_names: Sequence[str], *, policies: Sequence[str],
                           prefetcher: str, warmup: int, sim: int) -> list[CheckOutcome]:
    """Every (workload x policy) run passes a full invariant pass."""
    outcomes = []
    for workload_name in workload_names:
        workload = by_name(workload_name)
        for policy in policies:
            spec = _spec(prefetcher, policy, warmup, sim)
            config = replace(spec.config_for(workload), validate=True)
            name = f"invariants[{workload_name}/{policy}]"
            try:
                result = simulate(workload, config)
            except InvariantViolation as violation:
                outcomes.append(CheckOutcome(name, False, str(violation)))
            else:
                outcomes.append(CheckOutcome(
                    name, True, f"clean at ipc {result.ipc:.3f}"
                ))
    return outcomes


def check_mutation_detected(workload_name: str, *, prefetcher: str,
                            warmup: int, sim: int) -> CheckOutcome:
    """The checker must catch the re-introduced stale-MSHR bug."""
    workload = by_name(workload_name)
    params = replace(DEFAULT_PARAMS, l1d=replace(DEFAULT_PARAMS.l1d, mshr_entries=2))
    config = SimConfig(
        prefetcher=prefetcher,
        policy_factory=PermitPgc,
        warmup_instructions=warmup,
        sim_instructions=sim,
        params=params,
        validate=True,
    )
    name = f"mutation-detected[{workload_name}]"
    try:
        simulate(workload, config)
    except InvariantViolation as violation:
        return CheckOutcome(
            name, False,
            f"clean simulator tripped the checker before mutation: {violation}",
        )
    with reintroduce_stale_mshr_bug():
        try:
            simulate(workload, config)
        except InvariantViolation as violation:
            if violation.invariant != "mshr-accounting":
                return CheckOutcome(
                    name, False,
                    f"mutation tripped the wrong invariant: {violation.invariant}",
                )
            return CheckOutcome(name, True, "stale-MSHR mutation caught: " + violation.message)
    return CheckOutcome(name, False, "stale-MSHR mutation went undetected")


# ---------------------------------------------------------------------------
# suite driver


def run_validation_suite(
    workload_names: Sequence[str],
    *,
    policies: Sequence[str] = ("discard", "permit", "dripper"),
    prefetcher: str = "berti",
    warmup: int = 2_000,
    sim: int = 6_000,
    seed: int = 0,
    fuzz_cells: int = 4,
    jobs: int = 2,
    progress: Optional[Callable[[CheckOutcome], None]] = None,
) -> list[CheckOutcome]:
    """Run the full differential suite; returns one outcome per check."""
    if not workload_names:
        raise ValueError("run_validation_suite needs at least one workload")
    anchor = workload_names[0]
    outcomes: list[CheckOutcome] = []

    def record(outcome: CheckOutcome) -> None:
        outcomes.append(outcome)
        if progress is not None:
            progress(outcome)

    record(check_determinism(anchor, prefetcher=prefetcher, policy=policies[0],
                             warmup=warmup, sim=sim))
    record(check_parallel_matches_serial(
        workload_names, policies=policies, warmup=warmup, sim=sim,
        seed=seed, fuzz_cells=fuzz_cells, jobs=jobs))
    record(check_shm_grid_matches_serial(
        workload_names, policies=policies, prefetcher=prefetcher,
        warmup=warmup, sim=sim, jobs=jobs))
    record(check_discard_source_equivalence(anchor, prefetcher=prefetcher,
                                            warmup=warmup, sim=sim))
    record(check_epoch_invariance(anchor, prefetcher=prefetcher,
                                  warmup=warmup, sim=sim))
    for outcome in check_packed_matches_generator(anchor, warmup=warmup, sim=sim):
        record(outcome)
    for outcome in check_vectorized_matches_fused(anchor, warmup=warmup, sim=sim):
        record(outcome)
    for outcome in check_sampled_matches_full(anchor, prefetcher=prefetcher,
                                              policy=policies[-1],
                                              warmup=warmup, sim=sim):
        record(outcome)
    for outcome in check_mix_packed_matches_generator(warmup=warmup, sim=sim):
        record(outcome)
    for outcome in check_invariants_clean(workload_names, policies=policies,
                                          prefetcher=prefetcher, warmup=warmup, sim=sim):
        record(outcome)
    record(check_mutation_detected(anchor, prefetcher=prefetcher,
                                   warmup=warmup, sim=sim))
    return outcomes
