"""One measured repetition of one workload, in a fresh process.

Started by ``run.py`` as ``python3 perfbench/worker.py SPEC_JSON``; prints
one JSON object as its last line of standard output.  ``SPEC_JSON`` holds
``workload``, ``seed``, ``size``, ``traced``, ``setup_only`` and
``spawned_at`` (the parent's ``time.time()`` just before it started this
process, so set-up time includes interpreter start).

Set-up is everything a user pays before the first exhibit call: starting
the interpreter, ``import repro``, building the workload registry and
loading the benchmark's stored references.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

#: sim.drives modes reported per run (deltas of the library's own counter)
DRIVE_MODES = ("generator", "fused", "stepwise", "vectorized", "sampled",
               "mix-generator", "mix-packed")


def _counter_values(name: str) -> dict[str, float]:
    """Label -> value of one counter of the process-wide metrics registry."""
    from repro.obs.metrics import get_metrics

    series = get_metrics().snapshot().counters.get(name, {}).get("series", {})
    return {dict(key).get("mode", ""): value for key, value in series.items()}


def _layer_metrics(ledger, wall_s: float, op_s: dict[str, float],
                   pack_calls: float, pack_hits: float, accuracy: dict) -> dict:
    """The per-layer table of a traced repetition."""
    from suite import PAPER_EXHIBITS

    incl, self_time, calls, counts = ledger.incl, ledger.self_time, ledger.calls, ledger.counts

    def share(category: str) -> float:
        return incl[category] / wall_s

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    results = ledger.results
    n = len(results)

    def total(field: str) -> float:
        return sum(getattr(r, field) for r in results)

    def mean(field: str) -> float:
        return ratio(total(field), n)

    simulate_calls = len(ledger.cells)
    distinct = len(set(ledger.cells))
    drive_self = self_time["cpu.drive"]
    plans = ledger.plans
    m = {
        "experiments.simulate_calls": simulate_calls,
        "experiments.distinct_cells": distinct,
        "experiments.dup_frac": ratio(simulate_calls - distinct, simulate_calls),
    }
    for exhibit in PAPER_EXHIBITS:
        m[f"experiments.{exhibit}_share"] = op_s.get(exhibit, 0.0) / wall_s
    m.update({
        "experiments.run_cells_share": share("experiments.run_cells"),
        "experiments.run_mix_cells_share": share("experiments.run_mix_cells"),
        "experiments.cache_hits": counts["experiments.cache_hits"],
        "experiments.cache_misses": counts["experiments.cache_misses"],
        "experiments.cache_io_share": share("experiments.cache_io"),
        "experiments.sample_plan_share": share("experiments.sample_plan"),
        "experiments.sample_reconstruct_share": share("experiments.sample_reconstruct"),
        "experiments.sample_simulated_frac": ratio(
            sum(p.simulated_instructions() for p in plans),
            sum(p.total_instructions for p in plans)),
        "experiments.sample_ipc_err_max": accuracy.get("ipc_err_max", 0.0),
        "experiments.sample_ci_coverage": accuracy.get("ci_coverage", 0.0),
        "experiments.sample_speedup_err_max": accuracy.get("speedup_err_max", 0.0),
        "workloads.gen_s": incl["workloads.gen"],
        "workloads.gen_records": counts["workloads.gen_records"],
        "workloads.pack_share": share("workloads.pack"),
        "workloads.pack_calls": pack_calls,
        "workloads.pack_hits": pack_hits,
        "workloads.pack_mb": counts["workloads.pack_bytes"] / 1e6,
        "cpu.build_s": incl["cpu.build"],
        "cpu.drive_s": incl["cpu.drive"],
        "cpu.drive_self_s": drive_self,
        "cpu.records": counts["cpu.records"],
        "cpu.ns_per_record": ratio(drive_self * 1e9, counts["cpu.records"]),
        "cpu.collect_s": incl["cpu.collect"],
        "cpu.mix_share": share("cpu.mix"),
        "cpu.mix_self_share": self_time["cpu.mix"] / wall_s,
        "cpu.mix_ns_per_instruction": ratio(self_time["cpu.mix"] * 1e9,
                                            counts["cpu.mix_stepped"]),
        "cpu.mix_overrun": ratio(counts["cpu.mix_stepped"], counts["cpu.mix_measured"]),
    })
    for name in ("load", "store", "ifetch", "prefetch_l1d"):
        m[f"mem.{name}_s"] = incl[f"mem.{name}"]
        m[f"mem.{name}_calls"] = calls[f"mem.{name}"]
    m.update({
        "mem.prefetch_l2_share": share("mem.prefetch_l2"),
        "mem.prefetch_l2_calls": calls["mem.prefetch_l2"],
        "mem.l1d_mpki": mean("l1d_mpki"),
        "mem.llc_mpki": mean("llc_mpki"),
        "mem.dram_reads": total("dram_reads"),
        "vm.walk_s": incl["vm.walk"],
        "vm.walk_calls": calls["vm.walk"],
        "vm.tlb_lookup_s": incl["vm.tlb_lookup"],
        "vm.tlb_slow_lookups": calls["vm.tlb_lookup"],
        "vm.stlb_mpki": mean("stlb_mpki"),
        "prefetch.on_access_s": incl["prefetch.on_access"],
        "prefetch.on_access_calls": calls["prefetch.on_access"],
        "prefetch.requests": counts["prefetch.requests"],
        "prefetch.accuracy": ratio(total("prefetch_useful"),
                                   total("prefetch_useful") + total("prefetch_useless")),
        "core.train_s": incl["core.train"],
        "core.train_calls": calls["core.train"],
        "core.pgc_candidates": total("pgc_candidates"),
        "core.pgc_permit_ratio": ratio(total("pgc_issued"), total("pgc_candidates")),
        "core.pgc_useful_ratio": ratio(total("pgc_useful"),
                                       total("pgc_useful") + total("pgc_useless")),
        "obs.ledger_s": ledger.overhead,
    })
    categories = sorted(set(incl) | set(calls))
    table = {c: {"incl_s": incl[c], "self_s": self_time[c], "calls": calls[c]}
             for c in categories}
    table["obs.ledger"] = {"incl_s": ledger.overhead, "self_s": ledger.overhead,
                           "calls": sum(calls.values()),
                           "call_residual_s": ledger.call_residual,
                           "iter_residual_s": ledger.iter_residual}
    return {"metrics": m, "table": table}


def main(spec: dict) -> dict:
    import suite

    ledger = None
    if spec["traced"]:
        import ledger as ledger_mod

        ledger = ledger_mod.Ledger()
        ledger_mod.install(ledger)
    import repro  # noqa: F401  (set-up cost: the package import)
    from repro.workloads import (
        motivation_workloads,
        non_intensive_workloads,
        seen_workloads,
        unseen_workloads,
    )

    for group in (seen_workloads, unseen_workloads, non_intensive_workloads,
                  motivation_workloads):
        group()
    references = suite.load_references()
    setup_s = time.time() - spec["spawned_at"]
    if spec["setup_only"]:
        return {"setup_s": setup_s}

    workload, size = spec["workload"], spec["size"]
    ops = suite.operations(workload, spec["seed"], size)
    drives_before = _counter_values("sim.drives")
    packs_before = (_counter_values("pack_cache.hits").get("", 0),
                    _counter_values("pack_cache.misses").get("", 0))
    outputs, errors, op_s = {}, {}, {}
    start = time.perf_counter()
    for op in ops:
        op_start = time.perf_counter()
        try:
            outputs.update(op.run())
        except Exception as exc:  # a failed operation is counted, not fatal
            errors[op.name] = f"{type(exc).__name__}: {exc}"
        op_s[op.name] = time.perf_counter() - op_start
    wall_s = time.perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    drives_after = _counter_values("sim.drives")
    drives = {mode: drives_after.get(mode, 0) - drives_before.get(mode, 0)
              for mode in DRIVE_MODES}
    cells = {}
    for cell in suite.cells(workload):
        if cell in outputs:
            problem = suite.check_output(workload, outputs[cell], size)
            cells[cell] = {"digest": suite.digest(outputs[cell]), "error": problem}
        else:
            owner = cell if workload != "sampled-paper-scale" else "run_policies"
            cells[cell] = {"digest": "", "error": errors.get(owner, "no output")}
    accuracy = {}
    truths = references.get(workload, {}).get("truth", {})
    if workload == "sampled-paper-scale" and size == "bench" and truths and outputs:
        accuracy = suite.sampled_accuracy(outputs, truths)
    out = {"setup_s": setup_s, "wall_s": wall_s, "peak_rss_mb": peak_rss_mb,
           "op_s": op_s, "cells": cells, "drives": drives, "accuracy": accuracy}
    if ledger is not None:
        packs_after = (_counter_values("pack_cache.hits").get("", 0),
                       _counter_values("pack_cache.misses").get("", 0))
        hits = packs_after[0] - packs_before[0]
        calls = hits + packs_after[1] - packs_before[1]
        out["layers"] = _layer_metrics(ledger, wall_s, op_s, calls, hits, accuracy)
    return out


if __name__ == "__main__":
    print(json.dumps(main(json.loads(sys.argv[1]))))
