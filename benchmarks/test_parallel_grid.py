"""Infrastructure bench: parallel grid execution vs the serial path.

Not a paper figure — this bench guards the execution layer every other
bench rides on: a (policy x workload) grid run on a process pool must
return bit-identical results to the serial path, and a warm result cache
must serve the whole grid without simulating anything.
"""

from conftest import bench_scale

from repro.experiments import ResultCache, clear_result_memo, format_table, run_policies
from repro.workloads import seen_workloads, stratified_sample

POLICIES = ["discard", "permit", "dripper"]
JOBS = 2


def test_parallel_grid_matches_serial(benchmark, tmp_path):
    scale = bench_scale(n_workloads=6)
    workloads = stratified_sample(seen_workloads(), scale.n_workloads, scale.seed)
    spec = scale.spec()

    serial = run_policies(workloads, POLICIES, base_spec=spec, jobs=1)
    clear_result_memo()  # the parallel grid must simulate, not hit the memo
    parallel = benchmark.pedantic(
        lambda: run_policies(workloads, POLICIES, base_spec=spec, jobs=JOBS),
        rounds=1, iterations=1,
    )
    assert parallel == serial

    cache = ResultCache(tmp_path)
    run_policies(workloads, POLICIES, base_spec=spec, jobs=JOBS, cache=cache)
    rerun_cache = ResultCache(tmp_path)
    cached = run_policies(workloads, POLICIES, base_spec=spec, cache=rerun_cache)
    assert cached == serial
    assert rerun_cache.stats["misses"] == 0  # warm cache: nothing re-simulated

    rows = [(p, f"{serial[p][0].ipc:.4f}") for p in POLICIES]
    print()
    print(format_table(["policy", f"{workloads[0].name} IPC"], rows,
                       f"parallel grid (jobs={JOBS}) == serial, cache fully warm"))
    benchmark.extra_info["cells"] = len(POLICIES) * len(workloads)
