"""Record the benchmark's baseline into ``perfbench/BASELINE.json``.

Usage (from the repository root)::

    python3 perfbench/baseline.py --label "commit abc1234"

For every workload in ``BENCHMARK.json`` it runs ``run.py --trace 0`` on
two sets of ten seeds (``SEEDS`` and ``REPEAT_SEEDS``) and one
``--trace 1`` run at the reference seed, all at the contract's
``run_seconds``.  For each end-to-end metric and seed set it records the
ten values, their median and quartile spread (``(q3 - q1) / median``,
quartiles as ``statistics.quantiles(values, n=4)`` gives them), and how
far the second set's median moved from the first's: the two checks a
regression bound has to survive.  It also records the traced run's
per-layer metrics, the host's CPU count and Python version, and the
predictions below of which end-to-end metric each layer metric should move.
Takes about forty minutes at the contract's settings.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: the seeds whose spread a metric's bound must hold
SEEDS = tuple(range(1, 11))
#: a second, disjoint set: its median must not move from SEEDS' by more
#: than the bound
REPEAT_SEEDS = tuple(range(11, 21))

#: (layer metrics, the end-to-end metric and workloads they should move)
PREDICTIONS = [
    ("experiments.dup_frac",
     "Deduplicating repeated cells cuts wall_s on paper-suite by about dup_frac; "
     "no change on sampled-paper-scale, which repeats no cell."),
    ("experiments.sample_simulated_frac",
     "Trades wall_s against sample_ci_coverage and sample_ipc_err_max on "
     "sampled-paper-scale."),
    ("workloads.gen_s, workloads.gen_records, workloads.pack_share, "
     "workloads.pack_calls, workloads.pack_hits, workloads.pack_mb",
     "Move wall_s on sampled-paper-scale, or setup_s if the work moves to import; "
     "move peak_rss_mb on every workload."),
    ("cpu.ns_per_record, cpu.mix_ns_per_instruction",
     "ns_per_record is the single-core drive loops' own time per record (every "
     "cell but fig19's mixes), mix_ns_per_instruction the mix loop's own time "
     "per stepped instruction; "
     "they move wall_s on both workloads, and a single-kernel change must "
     "hold both."),
    ("cpu.drives.generator, cpu.drives.fused, cpu.drives.mix-generator, "
     "cpu.drives.mix-packed",
     "Generator drives turn into fused drives when the packed path is the default; "
     "generator drives cost about 1.6x packed on astar/mcf/hmmer, so that switch "
     "should cut wall_s on paper-suite and may raise peak_rss_mb."),
    ("cpu.mix_overrun, cpu.mix_share, cpu.mix_self_share, "
     "experiments.run_mix_cells_share, experiments.fig19_multicore_share",
     "Move wall_s on paper-suite only, through its fig19_multicore exhibit."),
    ("mem.*", "The miss and fill path; moves wall_s on paper-suite and "
     "sampled-paper-scale."),
    ("vm.*", "Moves wall_s on paper-suite and sampled-paper-scale."),
    ("prefetch.*", "Moves wall_s on paper-suite and sampled-paper-scale."),
    ("core.*", "Moves wall_s on paper-suite (dripper and ppf policies)."),
    ("obs.trace_overhead_frac, obs.ledger_s, obs.uncorrected_overhead_frac",
     "Traced wall_s over untraced wall_s, minus 1; the ledger's own bookkeeping, "
     "kept out of every layer's self time; and the tracing cost that correction "
     "leaves over.  They move no end-to-end metric."),
]

NOTES = [
    "The simulator is unvalidated against hardware.  The sampled accuracy "
    "figures compare sampled runs with the model's own full-window runs; "
    "no hardware error figure is given.",
    "BENCH_0004.json to BENCH_0008.json and scripts/bench_hotloop.py are "
    "superseded by this benchmark.  They are left untouched; retiring them "
    "is a later simplification.",
]


def run_once(workload: str, seed: int, trace: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed",
         str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"values": values, "median": median, "q1": q1, "q3": q3,
            "iqr_share": (q3 - q1) / median}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--label", default="")
    args = parser.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    workloads = {}
    for entry in bench["workloads"]:
        name = entry["name"]
        runs = [run_once(name, seed, 0, seconds) for seed in SEEDS]
        repeat = [run_once(name, seed, 0, seconds) for seed in REPEAT_SEEDS]
        traced = run_once(name, SEEDS[0], 1, seconds)
        e2e = {}
        for metric in bench["end_to_end"]:
            metric_name = metric["name"]
            first = spread([r["metrics"][metric_name]["value"] for r in runs])
            second = spread([r["metrics"][metric_name]["value"] for r in repeat])
            e2e[metric_name] = {
                "unit": metric["unit"], "bound": metric["bound"],
                "seeds": first, "repeat_seeds": second,
                "median_shift": second["median"] / first["median"] - 1.0,
            }
            print(f"{name} {metric_name}: median {first['median']:.4g} / "
                  f"{second['median']:.4g} {metric['unit']}, spread "
                  f"{first['iqr_share']:.3f} / {second['iqr_share']:.3f} "
                  f"(bound {metric['bound']})", flush=True)
        runs += repeat
        workloads[name] = {
            "why": entry["why"],
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "correct": all(r["correct"] for r in runs) and traced["correct"],
            "end_to_end": e2e,
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
        }
    baseline = {
        "label": args.label,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "run_seconds": seconds,
        "seeds": list(SEEDS),
        "repeat_seeds": list(REPEAT_SEEDS),
        "workloads": workloads,
        "predictions": [{"layer_metrics": m, "moves": why} for m, why in PREDICTIONS],
        "notes": NOTES,
    }
    (HERE / "BASELINE.json").write_text(json.dumps(baseline, indent=1) + "\n")
    print(f"wrote {HERE / 'BASELINE.json'}")


if __name__ == "__main__":
    main()
