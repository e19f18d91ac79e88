"""Single-core simulation driver.

Assembles a full system (core engine + hierarchy + virtual memory + chosen
prefetcher and page-cross policy), runs a workload for warm-up + measured
instructions, and returns a :class:`SimResult` with everything the paper's
figures report: IPC, MPKIs, prefetch coverage/accuracy, and page-cross
usefulness counters.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter
from typing import TYPE_CHECKING, Callable, Optional

from repro.core.policies import DiscardPgc, PageCrossPolicy
from repro.cpu.core import CoreEngine
from repro.mem.hierarchy import MemoryHierarchy
from repro.obs.metrics import get_metrics
from repro.obs.tracing import trace_span
from repro.params import DEFAULT_PARAMS, SystemParams
from repro.prefetch import make_l1d_prefetcher, make_l2_prefetcher
from repro.prefetch.base import L1dPrefetcher
from repro.prefetch.l2_adapters import L2Prefetcher
from repro.vm.page_table import LargePagePolicy, PageTable
from repro.vm.psc import SplitPsc
from repro.vm.tlb import Tlb
from repro.vm.walker import PageWalker
from repro.workloads.packed import get_packed
from repro.workloads.trace import Workload

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.experiments.sampling import SamplingConfig
    from repro.obs import Observability

#: builds a fresh policy per run (policies are stateful and must not be shared)
PolicyFactory = Callable[[], PageCrossPolicy]

#: one increment per drive-loop entry, labelled by mode — the single-core
#: kernels (``fused`` | ``stepwise`` | ``vectorized``), ``sampled`` runs,
#: and the mix loop (``mix-packed``); ``generator`` and ``mix-generator``
#: only come from the reference oracles that :mod:`repro.validate` calls.
#: Every drive loop imports this one instrument.
DRIVES = get_metrics().counter(
    "sim.drives",
    "drive-loop entries by mode (fused/stepwise/vectorized/sampled/"
    "mix-packed in production; generator/mix-generator from the oracles)")


@dataclass
class SimConfig:
    """One simulation's knobs."""

    prefetcher: str = "berti"
    policy_factory: PolicyFactory = DiscardPgc
    l2_prefetcher: str = "none"
    warmup_instructions: int = 20_000
    sim_instructions: int = 60_000
    params: SystemParams = field(default_factory=lambda: DEFAULT_PARAMS)
    large_page_fraction: float = 0.0
    epoch_instructions: int = 2048
    prefetcher_extra_storage: int = 0
    asid: int = 0
    #: attach a runtime :class:`~repro.validate.InvariantChecker` to the run
    #: (conservation laws checked per epoch and at collect time); purely
    #: observational — a validated run produces the same SimResult
    validate: bool = False
    #: packed kernel tier: ``"fused"`` (record-at-a-time),
    #: ``"vectorized"`` (span-skipping numpy scans,
    #: :mod:`repro.cpu.fastpath_vec`), or ``"auto"`` (an event-density probe
    #: over the pack picks the tier expected to win); results are
    #: bit-identical across tiers
    kernel: str = "fused"
    #: phase-sampled simulation (:mod:`repro.experiments.sampling`): profile
    #: the packed trace into phases, simulate one representative interval
    #: per phase, and reconstruct the whole-trace result with bootstrap
    #: confidence bounds.  ``None`` (the default) simulates the full window;
    #: a sampled result is an *approximation* and therefore DOES enter the
    #: result-cache fingerprint, unlike ``kernel``
    sampling: Optional["SamplingConfig"] = None


@dataclass
class SimResult:
    """Measured-region statistics of one run."""

    workload: str
    prefetcher: str
    policy: str
    instructions: int
    cycles: float
    ipc: float
    # MPKIs (demand)
    dtlb_mpki: float
    itlb_mpki: float
    stlb_mpki: float
    l1i_mpki: float
    l1d_mpki: float
    l2c_mpki: float
    llc_mpki: float
    # miss rates (demand)
    l1d_miss_rate: float
    llc_miss_rate: float
    stlb_miss_rate: float
    # prefetching (all L1D prefetches)
    prefetch_fills: int
    prefetch_useful: int
    prefetch_useless: int
    prefetch_late: int
    # page-cross prefetching
    pgc_candidates: int
    pgc_issued: int
    pgc_discarded: int
    pgc_useful: int
    pgc_useless: int
    # virtual memory activity
    demand_walks: int
    speculative_walks: int
    tlb_prefetch_hits: int
    # DRAM traffic
    dram_reads: int
    dram_writes: int
    # branch prediction (hashed perceptron predictor of Table IV)
    branches: int = 0
    branch_mispredicts: int = 0
    #: raw demand L1D misses over the measured region (the MPKI above is a
    #: derived rate; coverage needs the exact count)
    l1d_demand_misses: int = 0
    #: measured-region length the config asked for; `instructions` is what
    #: actually retired (finite traces can end early — `simulate` raises on
    #: truncation, but journaled/cached records keep both for auditing)
    requested_instructions: int = 0
    #: prefetch-installed TLB entries evicted without serving a demand access
    #: (measured region, dTLB + sTLB)
    tlb_prefetch_evicted_unused: int = 0
    #: phase-sampled reconstruction provenance (0/0.0 on full runs): how many
    #: profiled intervals and detected phases produced this result, and the
    #: bootstrap confidence bounds on the reconstructed IPC
    #: (:mod:`repro.experiments.sampling`)
    sampled_intervals: int = 0
    sampled_phases: int = 0
    ipc_ci_lo: float = 0.0
    ipc_ci_hi: float = 0.0

    @property
    def branch_mpki(self) -> float:
        """Branch mispredictions per kilo-instruction (measured region)."""
        return 1000.0 * self.branch_mispredicts / self.instructions if self.instructions else 0.0

    @property
    def branch_mispredict_rate(self) -> float:
        """Fraction of predicted branches that mispredicted."""
        return self.branch_mispredicts / self.branches if self.branches else 0.0

    @property
    def prefetch_accuracy(self) -> float:
        """Fraction of issued prefetches that served at least one demand hit."""
        done = self.prefetch_useful + self.prefetch_useless
        return self.prefetch_useful / done if done else 0.0

    @property
    def prefetch_coverage(self) -> float:
        """Fraction of would-be demand misses covered by prefetching."""
        would_be = self.prefetch_useful + self.l1d_demand_misses
        return self.prefetch_useful / would_be if would_be else 0.0

    @property
    def pgc_accuracy(self) -> float:
        """Useful fraction of resolved page-cross prefetches."""
        done = self.pgc_useful + self.pgc_useless
        return self.pgc_useful / done if done else 0.0

    @property
    def pgc_useful_pki(self) -> float:
        """Useful page-cross prefetches per kilo-instruction (Figure 13)."""
        return 1000.0 * self.pgc_useful / self.instructions if self.instructions else 0.0

    @property
    def pgc_useless_pki(self) -> float:
        """Useless page-cross prefetches per kilo-instruction (Figure 13)."""
        return 1000.0 * self.pgc_useless / self.instructions if self.instructions else 0.0

    def speedup_over(self, baseline: "SimResult") -> float:
        """IPC speedup of this run over a baseline run of the same workload."""
        if baseline.workload != self.workload:
            raise ValueError(
                f"speedup_over compares runs of the same workload; got {self.workload!r} vs {baseline.workload!r}"
            )
        if baseline.ipc == 0:
            raise ValueError(
                f"cannot compute speedup over baseline {baseline.policy!r} on "
                f"{baseline.workload!r}: its IPC is zero (did the baseline run retire anything?)"
            )
        return self.ipc / baseline.ipc


def build_engine(config: SimConfig, *, shared_llc=None, shared_dram=None,
                 prefetcher: Optional[L1dPrefetcher] = None,
                 l2_prefetcher: Optional[L2Prefetcher] = None) -> CoreEngine:
    """Construct a fully wired core engine from a :class:`SimConfig`."""
    params = config.params
    hierarchy = MemoryHierarchy(params, shared_llc=shared_llc, shared_dram=shared_dram)
    large = LargePagePolicy(config.large_page_fraction, seed=7)
    page_table = PageTable(asid=config.asid, large_pages=large)
    psc = SplitPsc(params.psc)
    walker = PageWalker(page_table, psc, hierarchy.ptw_read)
    dtlb = Tlb(params.dtlb)
    itlb = Tlb(params.itlb)
    stlb = Tlb(params.stlb)
    if prefetcher is None:
        prefetcher = make_l1d_prefetcher(
            config.prefetcher, extra_storage_bytes=config.prefetcher_extra_storage
        )
    if l2_prefetcher is None and config.l2_prefetcher not in ("none", "no-l2"):
        l2_prefetcher = make_l2_prefetcher(config.l2_prefetcher)
    policy = config.policy_factory()
    return CoreEngine(
        params,
        hierarchy,
        page_table,
        walker,
        dtlb,
        itlb,
        stlb,
        prefetcher,
        policy,
        l2_prefetcher=l2_prefetcher,
        epoch_instructions=config.epoch_instructions,
    )


def collect_result(engine: CoreEngine, workload_name: str, config: SimConfig) -> SimResult:
    """Assemble a :class:`SimResult` from a finished engine."""
    engine.hierarchy.finalize()
    instructions = engine.measured_instructions
    cycles = engine.measured_cycles
    h = engine.hierarchy
    pf = h.l1d.measured_prefetch
    pgc = engine.pgc.measured()
    return SimResult(
        workload=workload_name,
        prefetcher=engine.prefetcher.name,
        policy=engine.policy.name,
        instructions=instructions,
        cycles=cycles,
        ipc=instructions / cycles if cycles > 0 else 0.0,
        dtlb_mpki=engine.dtlb.stats.mpki(instructions),
        itlb_mpki=engine.itlb.stats.mpki(instructions),
        stlb_mpki=engine.stlb.stats.mpki(instructions),
        l1i_mpki=h.l1i.demand_stats.mpki(instructions),
        l1d_mpki=h.l1d.demand_stats.mpki(instructions),
        l2c_mpki=h.l2c.demand_stats.mpki(instructions),
        llc_mpki=h.llc_core_stats.mpki(instructions),
        l1d_miss_rate=h.l1d.demand_stats.miss_rate,
        llc_miss_rate=h.llc_core_stats.miss_rate,
        stlb_miss_rate=engine.stlb.stats.miss_rate,
        prefetch_fills=pf["fills"],
        prefetch_useful=pf["useful"],
        prefetch_useless=pf["useless"],
        prefetch_late=pf["late"],
        pgc_candidates=pgc["candidates"],
        pgc_issued=pgc["issued"],
        pgc_discarded=pgc["discarded"],
        pgc_useful=pf["pgc_useful"],
        pgc_useless=pf["pgc_useless"],
        demand_walks=engine.walker.measured_demand_walks,
        speculative_walks=engine.walker.measured_speculative_walks,
        tlb_prefetch_hits=(
            engine.stlb.measured_prefetch_hits + engine.dtlb.measured_prefetch_hits
        ),
        tlb_prefetch_evicted_unused=(
            engine.stlb.measured_prefetch_evicted_unused
            + engine.dtlb.measured_prefetch_evicted_unused
        ),
        dram_reads=h.dram.measured_reads,
        dram_writes=h.dram.measured_writes,
        branches=engine.branch_predictor.measured_predictions,
        branch_mispredicts=engine.branch_predictor.measured_mispredictions,
        l1d_demand_misses=h.l1d.demand_stats.measured_misses,
        requested_instructions=config.sim_instructions,
    )


def drive(engine: CoreEngine, workload: Workload, config: SimConfig) -> float:
    """Reference oracle: feed the workload's generator through ``engine.step``.

    Runs warm-up + measured region one record at a time.  Returns the
    wall-clock seconds spent; raises :class:`ValueError` when the trace ends
    before warm-up completes or truncates the measured region.  Production
    runs drive the packed kernel instead (:func:`simulate`); this loop stays
    as the oracle that :mod:`repro.validate`'s differential checks compare
    the kernel against, and for custom-wired engines.
    """
    warm_limit = config.warmup_instructions
    sim_limit = config.sim_instructions
    DRIVES.inc(mode="generator")
    step = engine.step
    measuring = False
    wall_start = perf_counter()
    # The loop runs until the *measured* region is complete, not until a raw
    # warm+sim instruction total: a record whose gap overshoots the warm-up
    # boundary starts measurement late, and breaking at the raw total used to
    # silently under-measure by the overshoot without ever tripping the
    # truncation error below.
    for pc, vaddr, flags, gap in workload.generate():
        step(pc, vaddr, flags, gap)
        if not measuring and engine.instructions >= warm_limit:
            engine.begin_measurement()
            measuring = True
        if measuring and engine.measured_instructions >= sim_limit:
            break
    wall_seconds = perf_counter() - wall_start
    if not measuring:
        raise ValueError(
            f"workload {workload.name!r} ended after {engine.instructions} instructions, "
            f"before the {warm_limit}-instruction warm-up completed"
        )
    if engine.measured_instructions < sim_limit:
        raise ValueError(
            f"workload {workload.name!r} ended after {engine.instructions} instructions, "
            f"truncating the measured region to "
            f"{engine.measured_instructions} of the requested "
            f"{config.sim_instructions} instructions"
        )
    return wall_seconds


def packed_driver(kernel: str) -> Callable[..., float]:
    """The packed drive loop of a kernel tier (``fused``/``vectorized``/``auto``)."""
    if kernel == "vectorized":
        from repro.cpu.fastpath_vec import drive_packed_vec as drive_loop
    elif kernel == "auto":
        from repro.cpu.fastpath_vec import drive_packed_auto as drive_loop
    else:
        from repro.cpu.fastpath import drive_packed as drive_loop
    return drive_loop


def simulate(
    workload: Workload, config: SimConfig, *, obs: Optional["Observability"] = None
) -> SimResult:
    """Run one workload under one configuration (warm-up + measured region).

    The workload is packed once per (workload, window) and driven through
    the packed kernel (:mod:`repro.cpu.fastpath`), which is bit-identical
    to the :func:`drive` oracle.  Pass an
    :class:`~repro.obs.Observability` bundle to record an epoch
    timeline, journal the run, and/or profile the hot paths; with ``obs``
    omitted the run executes the exact unobserved fast path.  With
    ``config.validate`` set, a :class:`~repro.validate.InvariantChecker` is
    attached: conservation laws are asserted per epoch and at collect time,
    and a violation raises :class:`~repro.validate.InvariantViolation`
    (journaled first when the bundle carries a journal).
    """
    if config.kernel not in ("fused", "vectorized", "auto"):
        raise ValueError(
            f"unknown packed kernel tier {config.kernel!r}; "
            "expected 'fused', 'vectorized', or 'auto'"
        )
    if config.sampling is not None:
        # phase-sampled run: profile, cluster, simulate representatives,
        # reconstruct — the sampling module owns spans/metrics/obs for it
        from repro.experiments.sampling import simulate_sampled

        return simulate_sampled(workload, config, obs=obs)
    engine = build_engine(config)
    if obs is not None:
        obs.attach(engine, workload)
    checker = None
    if config.validate:
        from repro.validate import InvariantChecker

        checker = InvariantChecker(obs=obs, workload=workload.name)
        checker.attach(engine)
    packed = get_packed(workload, config.warmup_instructions, config.sim_instructions)
    with trace_span("drive", workload=workload.name, mode="packed"):
        wall_seconds = packed_driver(config.kernel)(engine, packed, config)
    with trace_span("collect", workload=workload.name):
        result = collect_result(engine, workload.name, config)
    if checker is not None:
        checker.check_final(engine, result)
    if obs is not None:
        obs.finish(engine, workload, config, result, wall_seconds)
    return result
