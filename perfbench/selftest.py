"""Self-test of the benchmark itself (about two minutes).

Usage (from the repository root)::

    python3 perfbench/selftest.py

1. Runs every workload at the "tiny" size with ``--trace 0`` and
   ``--trace 1`` and checks the result line: exactly the contract's keys,
   a correct run with no failed cells, and exactly the metric names and
   units ``BENCHMARK.json`` lists for that mode, each a finite number.
2. Re-derives one stored exhibit digest (``fig15_dripper_sf``) and one
   stored full-window truth (``hmmer/discard``) at the current commit.
3. Checks that the benchmark refuses to run, printing no result, in a
   directory holding only ``BENCHMARK.json`` and the benchmark's files.

Exits 1 if any check fails.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import suite  # noqa: E402

FAILURES: list[str] = []


def check(ok: bool, what: str) -> None:
    print(("PASS " if ok else "FAIL ") + what)
    if not ok:
        FAILURES.append(what)


def run_tiny(workload: str, trace: int, bench: dict) -> None:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed",
         str(suite.REFERENCE_SEED), "--seconds", "0", "--trace", str(trace),
         "--size", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=180)
    label = f"{workload} --trace {trace}"
    if proc.returncode != 0:
        check(False, f"{label}: exit {proc.returncode}: {proc.stderr[-500:]}")
        return
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    check(set(result) == {"correct", "attempted", "failed", "metrics"},
          f"{label}: result keys {sorted(result)}")
    check(result["correct"] is True and result["failed"] == 0
          and result["attempted"] >= 1,
          f"{label}: correct={result['correct']} failed={result['failed']} "
          f"attempted={result['attempted']}")
    expected = {m["name"]: m["unit"]
                for m in bench["per_layer" if trace else "end_to_end"]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    check(got == expected, f"{label}: metric names and units match BENCHMARK.json")
    values = [m["value"] for m in result["metrics"].values()]
    check(all(isinstance(v, (int, float)) and math.isfinite(v) for v in values),
          f"{label}: every metric value is a finite number")


def rederive_references() -> None:
    from repro.experiments import figures, run_policies
    from repro.workloads import by_name

    refs = suite.load_references()
    size = suite.SIZES["bench"]["paper-suite"]
    scale = figures.Scale(n_workloads=size["n_workloads"],
                          warmup_instructions=size["warmup"],
                          sim_instructions=size["sim"])
    got = suite.digest(figures.fig15_dripper_sf(scale))
    want = refs["paper-suite"]["digests"]["fig15_dripper_sf"]
    check(got == want, f"re-derived fig15_dripper_sf digest {got} == stored {want}")

    size = suite.SIZES["bench"]["sampled-paper-scale"]
    spec = suite.sampled_spec(size, suite.REFERENCE_SEED, sampled=False)
    result = run_policies([by_name("hmmer")], ["discard"], base_spec=spec)["discard"][0]
    want = refs["sampled-paper-scale"]["truth"]["hmmer/discard"]
    check(result.ipc == want["ipc"] and suite.digest(result) == want["digest"],
          f"re-derived hmmer/discard truth IPC {result.ipc!r} == stored {want['ipc']!r}")


def refuses_without_sources() -> None:
    bare = HERE / "out" / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / HERE.name,
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        proc = subprocess.run(
            [sys.executable, str(bare / HERE.name / "run.py"), "--workload",
             suite.WORKLOADS[0], "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180)
        check(proc.returncode != 0 and not proc.stdout.strip(),
              f"bare checkout: exit {proc.returncode}, no result printed")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in suite.WORKLOADS:
        for trace in (0, 1):
            run_tiny(workload, trace, bench)
    rederive_references()
    refuses_without_sources()
    print(f"{len(FAILURES)} failure(s)")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
