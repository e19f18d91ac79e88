"""Benchmark the parallel + cached grid-execution layer.

Runs the same (policy x workload) grid three ways and reports wall time:

1. serial (`jobs=1`, no cache) — the historical execution path;
2. parallel (`jobs=N` worker processes);
3. cached re-run (`jobs=N` against a warm cache) — every cell is a hit.

Usage::

    PYTHONPATH=src python scripts/bench_parallel.py --jobs 4 \
        --workloads astar hmmer mcf lbm --policies discard permit dripper

Results are asserted identical across all three paths before timing is
reported, so the speedup never comes at the cost of determinism.
"""

from __future__ import annotations

import argparse
import tempfile
from time import perf_counter

from repro.experiments import (
    ResultCache,
    RunSpec,
    clear_result_memo,
    format_table,
    run_policies,
)
from repro.workloads import by_name


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--jobs", type=int, default=4)
    parser.add_argument("--workloads", nargs="+",
                        default=["astar", "hmmer", "mcf", "lbm"])
    parser.add_argument("--policies", nargs="+",
                        default=["discard", "permit", "dripper"])
    parser.add_argument("--warmup", type=int, default=20_000)
    parser.add_argument("--sim", type=int, default=60_000)
    args = parser.parse_args()

    workloads = [by_name(name) for name in args.workloads]
    spec = RunSpec(warmup_instructions=args.warmup, sim_instructions=args.sim)
    cells = len(workloads) * len(args.policies)
    print(f"grid: {len(args.policies)} policies x {len(workloads)} workloads "
          f"= {cells} cells, {args.warmup}+{args.sim} instructions each\n")

    start = perf_counter()
    serial = run_policies(workloads, args.policies, base_spec=spec)
    t_serial = perf_counter() - start

    # every leg must simulate: drop the in-process result memo between them
    clear_result_memo()
    start = perf_counter()
    parallel = run_policies(workloads, args.policies, base_spec=spec, jobs=args.jobs)
    t_parallel = perf_counter() - start
    assert parallel == serial, "parallel results diverged from serial"

    with tempfile.TemporaryDirectory(prefix="repro-bench-cache-") as cache_dir:
        clear_result_memo()
        warm = ResultCache(cache_dir)
        run_policies(workloads, args.policies, base_spec=spec, jobs=args.jobs, cache=warm)
        cached_cache = ResultCache(cache_dir)
        start = perf_counter()
        cached = run_policies(workloads, args.policies, base_spec=spec,
                              jobs=args.jobs, cache=cached_cache)
        t_cached = perf_counter() - start
        assert cached == serial, "cached results diverged from serial"
        assert cached_cache.stats["hits"] == cells

    rows = [
        ("serial (jobs=1)", f"{t_serial:.2f}s", "1.00x"),
        (f"parallel (jobs={args.jobs})", f"{t_parallel:.2f}s",
         f"{t_serial / t_parallel:.2f}x"),
        (f"cached re-run (jobs={args.jobs})", f"{t_cached:.2f}s",
         f"{t_serial / t_cached:.2f}x"),
    ]
    print(format_table(["execution", "wall time", "speedup"], rows,
                       "parallel + cached grid execution"))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
