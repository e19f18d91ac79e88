"""Mixes as grid cells: serial equivalence, pack sharing, fig19 at scale."""

import pytest

from repro.experiments.parallel import (
    cell_for,
    clear_result_memo,
    grid_session,
    mix_cell_for,
    run_cells,
)
from repro.experiments.runner import RunSpec
from repro.obs import Observability, RunJournal, read_journal
from repro.workloads import by_name, make_mixes, run_window, seen_workloads

FAST = RunSpec(warmup_instructions=1_000, sim_instructions=3_000)


def _mix(names=("astar", "hmmer", "mcf", "lbm")):
    return [by_name(name) for name in names]


class TestMixCellBasics:
    def test_mix_cell_carries_registry_names(self):
        cell = mix_cell_for(_mix(), FAST, policy="permit", mix_id=3)
        assert cell.workloads == ("astar", "hmmer", "mcf", "lbm")
        assert [w.name for w in cell.resolve_workloads()] == list(cell.workloads)
        assert cell.label() == "mix-3"

    def test_mix_cells_are_picklable(self):
        import pickle

        cell = mix_cell_for(_mix(), FAST, policy="dripper", mix_id=0)
        assert pickle.loads(pickle.dumps(cell)) == cell

    def test_mix_config_applies_policy_override(self):
        plain = mix_cell_for(_mix(), FAST).config()
        overridden = mix_cell_for(_mix(), FAST, policy="permit").config()
        assert plain.policy_factory is not overridden.policy_factory
        # nominal windows: per-core QMM halving is simulate_mix's job
        assert overridden.warmup_instructions == FAST.warmup_instructions

    def test_run_cells_rejects_bad_jobs_for_mixes(self):
        with pytest.raises(ValueError, match="jobs"):
            run_cells([mix_cell_for(_mix(), FAST)], jobs=0)

    def test_mix_cells_are_never_cached_or_memoised(self):
        cell = mix_cell_for(_mix(), FAST)
        assert not cell.cacheable and not cell.memoisable
        assert cell.policy_name == FAST.policy


class TestRunWindow:
    def test_qmm_window_matches_mix_budgets_and_pack(self):
        from repro.cpu.multicore import build_mix
        from repro.obs.metrics import get_metrics
        from repro.workloads import clear_pack_cache

        qmm = next(w for w in seen_workloads() if w.suite.startswith("QMM"))
        mix = [qmm, by_name("astar")]
        window = run_window(qmm, FAST.warmup_instructions, FAST.sim_instructions)
        assert window == (FAST.warmup_instructions // 2, FAST.sim_instructions // 2)
        assert run_window(by_name("astar"), 10, 20) == (10, 20)
        cell = mix_cell_for(mix, FAST, mix_id=0)
        _engines, budgets, core_configs = build_mix(mix, cell.config())
        assert budgets[0] == window
        assert (core_configs[0].warmup_instructions,
                core_configs[0].sim_instructions) == window
        # an isolation cell and the mix share the QMM pack at exactly this
        # window, so a process that runs both packs it once
        iso = cell_for(qmm, FAST)
        assert iso.packs() == ((qmm, *window),)
        assert cell.packs()[0] == (qmm, *window)
        misses = get_metrics().counter("pack_cache.misses")
        clear_pack_cache()
        before = misses.total()
        iso.execute()
        cell.execute()
        assert misses.total() - before == 2  # the QMM window, then astar's


class TestMixSerialParallelEquivalence:
    def test_mix_grid_identical_under_jobs2(self):
        # mixes drawn from the real registry (includes QMM halved-budget
        # cores); every policy of every mix must match the serial run
        mixes = make_mixes(2, 4, seed=11)
        cells = [
            mix_cell_for(mix, FAST, policy=policy, mix_id=i)
            for i, mix in enumerate(mixes)
            for policy in ("discard", "dripper")
        ]
        serial = run_cells(cells, jobs=1)
        with grid_session(2):
            parallel = run_cells(cells, jobs=2)
        for a, b in zip(serial, parallel):
            assert a.results == b.results

    def test_mixed_batch_identical_under_jobs2(self):
        # single-core cells and mixes share one batch (and its pack plan);
        # every element must equal the in-process run, in input order
        from repro.cpu.multicore import MixResult

        cells = [cell_for(w, FAST, policy=p) for w in _mix()[:2]
                 for p in ("discard", "dripper")]
        cells += [mix_cell_for(_mix(), FAST, policy=p, mix_id=0)
                  for p in ("discard", "dripper")]
        cells.insert(2, mix_cell_for(_mix()[:2], FAST, mix_id=1))
        serial = run_cells(cells, jobs=1)
        clear_result_memo()
        parallel = run_cells(cells, jobs=2)
        assert len(parallel) == len(cells)
        for cell, a, b in zip(cells, serial, parallel):
            assert type(a) is type(b)
            assert isinstance(a, MixResult) == hasattr(cell, "workloads")
            assert a == b

    def test_cache_stores_and_serves_only_single_core_cells(self, tmp_path):
        from repro.experiments.cache import ResultCache

        cells = [cell_for(w, FAST) for w in _mix()[:2]]
        cells += [mix_cell_for(_mix()[:2], FAST, mix_id=0)]
        cache = ResultCache(tmp_path / "cache")
        first = run_cells(cells, jobs=1, cache=cache)
        assert cache.stats["stores"] == 2
        assert cache.stats["misses"] == 2
        clear_result_memo()
        hits = []
        second = run_cells(cells, jobs=1, cache=cache,
                           on_result=lambda i, r, cached: hits.append((i, cached)))
        assert second == first
        assert cache.stats["stores"] == 2
        assert cache.stats["hits"] == 2
        assert sorted(hits) == [(0, True), (1, True), (2, False)]

    def test_on_result_fires_in_input_positions(self):
        seen = {}
        cells = [mix_cell_for(_mix(), FAST, mix_id=i) for i in range(2)]
        run_cells(cells, jobs=1,
                  on_result=lambda i, r, cached: seen.setdefault(i, r))
        assert sorted(seen) == [0, 1]

    def test_jobs2_journal_tags_every_core(self, tmp_path):
        journal = tmp_path / "mixes.jsonl"
        obs = Observability(journal=RunJournal(journal))
        cells = [mix_cell_for(_mix(), FAST, mix_id=i) for i in range(2)]
        run_cells(cells, jobs=2, obs=obs)
        obs.close()
        records = read_journal(journal)
        assert len(records) == 2 * 4
        by_mix = {}
        for record in records:
            by_mix.setdefault(record["context"]["mix"], []).append(
                record["context"]["core"])
        assert {mix: sorted(cores) for mix, cores in by_mix.items()} == {
            0: [0, 1, 2, 3], 1: [0, 1, 2, 3]}


class TestFig19:
    def test_fig19_parallel_equals_serial(self):
        from repro.experiments.figures import fig19_multicore

        kwargs = dict(n_mixes=2, cores=2, warmup_instructions=1_000,
                      sim_instructions=3_000, seed=3)
        serial = fig19_multicore(**kwargs, jobs=1)
        clear_result_memo()  # the parallel isolation cells must simulate too
        parallel = fig19_multicore(**kwargs, jobs=2)
        assert serial == parallel
        assert set(serial) == {"permit", "dripper"}
        assert len(serial["dripper"]["per_mix_pct"]) == 2

    def test_fig19_cache_dedupes_isolation_runs(self, tmp_path):
        from repro.experiments.cache import ResultCache
        from repro.experiments.figures import fig19_multicore

        kwargs = dict(n_mixes=2, cores=2, warmup_instructions=1_000,
                      sim_instructions=3_000, seed=3)
        cache = ResultCache(tmp_path / "cache")
        first = fig19_multicore(**kwargs, cache=cache)
        stored = cache.stats["stores"]
        assert stored > 0
        second = fig19_multicore(**kwargs, cache=cache)
        assert second == first
        # the second invocation re-simulates no isolation cell
        assert cache.stats["stores"] == stored
        assert cache.stats["hits"] >= stored

    def test_fig19_is_one_batch(self):
        from repro.experiments.figures import fig19_multicore

        events = []
        fig19_multicore(n_mixes=2, cores=2, warmup_instructions=1_000,
                        sim_instructions=3_000, seed=3, jobs=1,
                        progress=events.append)
        starts = [e for e in events if e["event"] == "grid-start"]
        assert len(starts) == 1
        # 3 policies x (isolation runs of every distinct workload + 2 mixes)
        unique = {w.name for mix in make_mixes(2, 2, 3) for w in mix}
        assert starts[0]["cells"] == 3 * (len(unique) + 2)

    def test_fig19_rejects_degenerate_policy_list(self):
        from repro.experiments.figures import fig19_multicore

        with pytest.raises(ValueError, match="baseline"):
            fig19_multicore(n_mixes=1, cores=2, policies=("discard",))
