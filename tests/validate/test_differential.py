"""Differential suite: result diffing and the metamorphic checks themselves."""

from collections import Counter
from dataclasses import replace

from repro.cpu.simulator import simulate
from repro.experiments.parallel import _plan_chunks, cell_fingerprint
from repro.params import DEFAULT_PARAMS
from repro.validate.differential import (
    CheckOutcome,
    _fuzz_cells,
    check_determinism,
    check_discard_source_equivalence,
    check_epoch_invariance,
    check_invariants_clean,
    check_packed_matches_generator,
    result_diff,
    run_validation_suite,
)
from repro.experiments.runner import RunSpec
from repro.workloads.registry import by_name

WARMUP, SIM = 500, 1500


def sample_result(**overrides):
    workload = by_name("hmmer")
    spec = RunSpec(prefetcher="berti", policy="permit",
                   warmup_instructions=WARMUP, sim_instructions=SIM)
    result = simulate(workload, spec.config_for(workload))
    return replace(result, **overrides) if overrides else result


class TestResultDiff:
    def test_identical_results_empty_diff(self):
        result = sample_result()
        assert result_diff(result, result) == {}

    def test_differing_field_reported_with_both_values(self):
        a = sample_result()
        b = replace(a, prefetch_fills=a.prefetch_fills + 5)
        diffs = result_diff(a, b)
        assert diffs == {"prefetch_fills": (a.prefetch_fills, a.prefetch_fills + 5)}

    def test_ignore_suppresses_named_fields(self):
        a = sample_result()
        b = replace(a, pgc_candidates=a.pgc_candidates + 1)
        assert result_diff(a, b, ignore=("pgc_candidates",)) == {}


class TestMetamorphicChecks:
    def test_determinism(self):
        outcome = check_determinism("hmmer", prefetcher="berti", policy="permit",
                                    warmup=WARMUP, sim=SIM)
        assert outcome.passed, outcome.detail

    def test_discard_source_equivalence(self):
        outcome = check_discard_source_equivalence("astar", prefetcher="berti",
                                                   warmup=WARMUP, sim=SIM)
        assert outcome.passed, outcome.detail

    def test_epoch_invariance(self):
        outcome = check_epoch_invariance("hmmer", prefetcher="berti",
                                         warmup=WARMUP, sim=SIM)
        assert outcome.passed, outcome.detail

    def test_invariants_clean_per_policy(self):
        outcomes = check_invariants_clean(
            ["hmmer"], policies=("discard", "permit", "dripper"),
            prefetcher="berti", warmup=WARMUP, sim=SIM,
        )
        assert len(outcomes) == 3
        for outcome in outcomes:
            assert outcome.passed, f"{outcome.name}: {outcome.detail}"


class TestParallelFuzz:
    def test_batch_replays_one_workload_from_two_chunks(self):
        # at the suite's defaults (4 cells on 2 workers) some workload's
        # cells land in two chunks, so two workers pack the same window
        drawn = set()
        for seed in range(10):
            cells = _fuzz_cells(("astar", "hmmer", "mcf"),
                                policies=("discard", "permit", "dripper"),
                                warmup=WARMUP, sim=SIM, seed=seed, fuzz_cells=4)
            # distinct cells: run_cells coalesces none, so all 4 are planned
            assert len({cell_fingerprint(c) for c in cells}) == len(cells)
            chunks = _plan_chunks(cells, range(len(cells)), 2)
            per_workload = Counter(items[0][1].workload for items, _cost in chunks)
            assert max(per_workload.values()) >= 2, seed
            drawn.update(c.params for c in cells)
        assert drawn == {None, DEFAULT_PARAMS.scaled_llc(8)}


class TestSuiteDriver:
    def test_full_suite_passes_and_reports_progress(self):
        seen: list[CheckOutcome] = []
        outcomes = run_validation_suite(
            ["hmmer"], policies=("discard", "permit"), prefetcher="berti",
            warmup=WARMUP, sim=SIM, fuzz_cells=2, jobs=2,
            progress=seen.append,
        )
        assert seen == outcomes
        failed = [o for o in outcomes if not o.passed]
        assert not failed, "; ".join(f"{o.name}: {o.detail}" for o in failed)


class TestPackedOracle:
    def test_every_kernel_arm_matches_the_generator(self):
        outcomes = check_packed_matches_generator("hmmer", warmup=WARMUP, sim=SIM)
        names = {o.name for o in outcomes}
        for cell in ("none/discard", "none/discard@512", "berti/discard@srrip",
                     "berti/dripper@validate"):
            assert f"packed-vs-generator[hmmer/{cell}]" in names
        failed = [o for o in outcomes if not o.passed]
        assert not failed, "; ".join(f"{o.name}: {o.detail}" for o in failed)
