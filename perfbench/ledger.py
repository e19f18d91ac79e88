"""Traced runs: time calls into each layer's public functions from outside.

:func:`install` wraps, in the running process only, the public entry points
of every layer the workloads reach:

* ``repro.experiments`` -- ``simulate`` (cell identity, for duplicate
  counting), ``run_cells``, ``run_mix_cells``, ``ResultCache.get/put``,
  ``sampling.plan_phases`` and ``sampling.reconstruct``;
* ``repro.workloads`` -- ``SyntheticWorkload.generate`` (each ``next`` is
  timed) and ``PackedTrace.from_workload``;
* ``repro.cpu`` -- ``build_engine``, the drive loops (``drive``,
  ``drive_packed`` and the vectorized tiers), ``simulate_mix`` and
  ``collect_result``;
* and, per engine, the components ``build_engine`` wires: the hierarchy's
  ``load``/``store``/``ifetch``/``prefetch_l1d``/``prefetch_l2``
  (``repro.mem``), the walker's ``walk`` and each TLB's ``lookup``
  (``repro.vm``), the L1D prefetcher's ``on_access`` (``repro.prefetch``)
  and the page-cross policy's training callbacks (``repro.core``).  These
  are wrapped on the instances, in a hook that runs *before*
  ``CoreEngine.__init__`` caches its seams, so the fused kernel calls the
  wrappers exactly where it would call the originals.

Deliberately left alone: ``enable_profiling``/``engine.probe`` (a probed
engine drives through ``_drive_stepwise``), ``decide`` (wrapping it turns
off fused dispatch) and ``LruPolicy.on_hit`` (it turns off fused hits).
Hit paths that the kernel inlines therefore land in the drive loop's own
self time, by construction.

Every wrapper keeps inclusive time, self time (inclusive minus wrapped
callees and minus the ledger's own bookkeeping) and a call count per
category; the bookkeeping itself is totalled in ``Ledger.overhead``.
"""

from __future__ import annotations

import importlib
import inspect
import statistics
import sys
from collections import defaultdict
from time import perf_counter
from typing import Any, Callable

#: policy callbacks that train the page-cross filter
POLICY_CALLBACKS = ("on_discarded", "on_issued", "on_demand_miss",
                    "on_pcb_hit", "on_pcb_evict_unused", "on_epoch")
HIERARCHY_METHODS = ("load", "store", "ifetch", "prefetch_l1d", "prefetch_l2")
#: wrapped no-op calls per calibration trial, and trials (under a second in all)
CALIBRATION_CALLS = 20_000
CALIBRATION_TRIALS = 7


class Ledger:
    """Per-category inclusive/self time and call counts for one process.

    The ledger's own work is kept out of every category.  Each wrapped call
    reads the clock once more before its bookkeeping starts and once more
    after it ends; the difference, less the callee's own time, plus a
    per-call residual measured by :meth:`calibrate` (the wrapper's call
    frame and argument passing, which no clock read inside it can see), is
    charged to ``overhead`` and subtracted from the enclosing call's self
    time together with the callee's inclusive time.
    """

    def __init__(self) -> None:
        self.incl: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, float] = defaultdict(float)
        #: seconds of ledger bookkeeping over all wrapped calls
        self.overhead = 0.0
        #: per-call cost no clock read inside a wrapper sees (wrapped call,
        #: one ``next`` through :meth:`timed_iter`); set by :meth:`calibrate`
        self.call_residual = 0.0
        self.iter_residual = 0.0
        #: categories of the wrapped calls in progress, innermost last
        self.open: list[str] = []
        #: wrapped-callee time accumulated by each open call
        self._child: list[float] = []
        #: (workload name, config key) of every simulate call
        self.cells: list[tuple] = []
        self.results: list[Any] = []
        self.plans: list[Any] = []
        #: engines built by the simulate_mix call in progress
        self.mix_engines: list[Any] = []

    def enter(self, category: str) -> None:
        self.open.append(category)
        self._child.append(0.0)

    def leave(self, category: str, elapsed: float, outer_start: float,
              residual: float) -> None:
        """Close the innermost call: ``elapsed`` is the callee's own time,
        ``outer_start`` the clock read before the wrapper's bookkeeping."""
        self.open.pop()
        child = self._child.pop()
        self.incl[category] += elapsed
        self.self_time[category] += elapsed - child
        self.calls[category] += 1
        outer = perf_counter() - outer_start + residual
        self.overhead += outer - elapsed
        if self._child:
            self._child[-1] += outer

    def timed(self, category: str, fn: Callable,
              after: Callable[[tuple, dict, Any], None] | None = None) -> Callable:
        """``fn`` wrapped to charge its time to ``category``.

        ``after(args, kwargs, result)`` runs inside the bookkeeping window,
        so its cost counts as ledger overhead.
        """
        enter, leave = self.enter, self.leave

        def wrapper(*args, **kwargs):
            outer_start = perf_counter()
            enter(category)
            start = perf_counter()
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                leave(category, perf_counter() - start, outer_start, self.call_residual)
                raise
            elapsed = perf_counter() - start
            if after is not None:
                after(args, kwargs, out)
            leave(category, elapsed, outer_start, self.call_residual)
            return out

        return wrapper

    def timed_iter(self, category: str, iterator) -> Any:
        """Yield from ``iterator``, charging each ``next`` to ``category``.

        Records pulled while a per-core drive loop is the innermost open
        call are also counted as records the simulator stepped.
        """
        enter, leave, open_calls, counts = self.enter, self.leave, self.open, self.counts
        pull = iterator.__next__
        while True:
            outer_start = perf_counter()
            caller = open_calls[-1] if open_calls else ""
            enter(category)
            start = perf_counter()
            try:
                record = pull()
            except StopIteration:
                leave(category, perf_counter() - start, outer_start, self.iter_residual)
                return
            elapsed = perf_counter() - start
            counts["workloads.gen_records"] += 1
            if caller == "cpu.drive":
                counts["cpu.records"] += 1
            leave(category, elapsed, outer_start, self.iter_residual)
            yield record

    def calibrate(self) -> None:
        """Measure the per-call cost of the wrappers that no clock inside them sees.

        Times ``CALIBRATION_CALLS`` calls of a no-op directly and through
        :meth:`timed` (and as many records pulled directly and through
        :meth:`timed_iter`) on a scratch ledger; whatever the wrapped loop
        costs beyond the direct one and beyond the bookkeeping the scratch
        ledger measured itself is the residual.  Medians over
        ``CALIBRATION_TRIALS`` trials.
        """
        n = CALIBRATION_CALLS

        def null():
            return None

        call_residuals, iter_residuals = [], []
        for _ in range(CALIBRATION_TRIALS):
            scratch = Ledger()
            wrapped = scratch.timed("calibrate", null)
            start = perf_counter()
            for _ in range(n):
                null()
            direct = perf_counter() - start
            start = perf_counter()
            for _ in range(n):
                wrapped()
            through = perf_counter() - start
            call_residuals.append((through - direct - scratch.overhead) / n)

            scratch = Ledger()
            records = [None] * n
            start = perf_counter()
            for _ in iter(records):
                pass
            direct = perf_counter() - start
            start = perf_counter()
            for _ in scratch.timed_iter("calibrate", iter(records)):
                pass
            through = perf_counter() - start
            iter_residuals.append((through - direct - scratch.overhead) / n)
        self.call_residual = max(0.0, statistics.median(call_residuals))
        self.iter_residual = max(0.0, statistics.median(iter_residuals))


def _replace_everywhere(original: Any, replacement: Any) -> None:
    """Point every ``repro`` module attribute bound to ``original`` at ``replacement``."""
    for name, module in list(sys.modules.items()):
        if not (name == "repro" or name.startswith("repro.")) or module is None:
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def _config_key(workload, config) -> tuple:
    """Identity of one simulate call: everything but the policy factory's object."""
    from dataclasses import fields

    policy = config.policy_factory()
    values = tuple(
        repr(getattr(config, f.name)) for f in fields(config)
        if f.name not in ("policy_factory", "packed", "kernel", "validate"))
    return (workload.name, type(policy).__qualname__, policy.name,
            getattr(policy, "filter_at_native_boundary", False), values)


def _wrap_function(ledger: Ledger, path: str, category: str,
                   after: Callable[[tuple, dict, Any], None] | None = None) -> None:
    """Wrap the function at ``"module:name"`` wherever ``repro`` binds it.

    An entry point that no longer exists is skipped, so the traced run keeps
    working when a later change deletes a drive loop or merges two grid
    pipelines; its metrics then read zero.
    """
    module_name, name = path.split(":")
    try:
        original = getattr(importlib.import_module(module_name), name)
    except (ImportError, AttributeError):
        return
    _replace_everywhere(original, ledger.timed(category, original, after))


def install(ledger: Ledger) -> None:
    """Wrap every layer entry point the workloads reach (this process only)."""
    from repro.cpu.core import CoreEngine
    from repro.experiments.cache import ResultCache
    from repro.workloads.packed import PackedTrace
    from repro.workloads.synthetic import SyntheticWorkload

    ledger.calibrate()
    counts = ledger.counts

    # -- repro.experiments ---------------------------------------------------
    def on_simulate(args, kwargs, result):
        ledger.cells.append(_config_key(args[0], args[1]))
        ledger.results.append(result)

    def on_cache_get(args, kwargs, result):
        counts["experiments.cache_hits" if result is not None
               else "experiments.cache_misses"] += 1

    def on_plan(args, kwargs, plan):
        ledger.plans.append(plan)

    _wrap_function(ledger, "repro.cpu.simulator:simulate", "experiments.simulate", on_simulate)
    _wrap_function(ledger, "repro.experiments.parallel:run_cells", "experiments.run_cells")
    _wrap_function(ledger, "repro.experiments.parallel:run_mix_cells",
                   "experiments.run_mix_cells")
    _wrap_function(ledger, "repro.experiments.sampling:plan_phases",
                   "experiments.sample_plan", on_plan)
    _wrap_function(ledger, "repro.experiments.sampling:reconstruct",
                   "experiments.sample_reconstruct")
    ResultCache.get = ledger.timed("experiments.cache_io", ResultCache.get, on_cache_get)
    ResultCache.put = ledger.timed("experiments.cache_io", ResultCache.put)

    # -- repro.workloads -----------------------------------------------------
    generate = SyntheticWorkload.generate

    def traced_generate(self):
        return ledger.timed_iter("workloads.gen", generate(self))

    def on_pack(args, kwargs, packed):
        counts["workloads.pack_bytes"] += packed.nbytes()

    SyntheticWorkload.generate = traced_generate
    PackedTrace.from_workload = classmethod(ledger.timed(
        "workloads.pack", PackedTrace.from_workload.__func__, on_pack))

    # -- repro.cpu -------------------------------------------------------------
    def on_packed_drive(args, kwargs, wall):
        counts["cpu.records"] += len(args[1])

    def on_mix(args, kwargs, mix_result):
        # instructions the mix cores stepped (warm-up, measured region and
        # replay) against the instructions they measured
        counts["cpu.mix_stepped"] += sum(e.instructions for e in ledger.mix_engines)
        counts["cpu.mix_measured"] += sum(r.instructions for r in mix_result.results)
        ledger.mix_engines.clear()

    _wrap_function(ledger, "repro.cpu.simulator:build_engine", "cpu.build")
    _wrap_function(ledger, "repro.cpu.simulator:drive", "cpu.drive")
    for path in ("repro.cpu.fastpath:drive_packed", "repro.cpu.fastpath_vec:drive_packed_vec",
                 "repro.cpu.fastpath_vec:drive_packed_auto"):
        _wrap_function(ledger, path, "cpu.drive", on_packed_drive)
    _wrap_function(ledger, "repro.cpu.simulator:collect_result", "cpu.collect")
    _wrap_function(ledger, "repro.cpu.multicore:simulate_mix", "cpu.mix", on_mix)

    # -- per-engine components, wrapped before the engine caches its seams ---
    engine_init = CoreEngine.__init__
    signature = inspect.signature(engine_init)

    def on_access(args, kwargs, requests):
        if requests:
            counts["prefetch.requests"] += len(requests)

    def traced_init(self, *args, **kwargs):
        parts = signature.bind(self, *args, **kwargs).arguments
        hierarchy = parts["hierarchy"]
        for name in HIERARCHY_METHODS:
            setattr(hierarchy, name,
                    ledger.timed(f"mem.{name}", getattr(hierarchy, name)))
        walker = parts["walker"]
        walker.walk = ledger.timed("vm.walk", walker.walk)
        for tlb in (parts["dtlb"], parts["itlb"], parts["stlb"]):
            tlb.lookup = ledger.timed("vm.tlb_lookup", tlb.lookup)
        prefetcher = parts["l1d_prefetcher"]
        prefetcher.on_access = ledger.timed(
            "prefetch.on_access", prefetcher.on_access, on_access)
        policy = parts["policy"]
        for name in POLICY_CALLBACKS:
            setattr(policy, name, ledger.timed("core.train", getattr(policy, name)))
        engine_init(self, *args, **kwargs)
        if "cpu.mix" in ledger.open:
            ledger.mix_engines.append(self)

    CoreEngine.__init__ = traced_init
