"""Parallel/cached grid execution: serial equivalence, caching, journaling."""

import pytest

from repro.experiments.cache import ResultCache
from repro.experiments.parallel import (
    Cell,
    _affine_groups,
    _plan_chunks,
    cell_for,
    chunk_cost,
    clear_result_memo,
    grid_session,
    policy_cost_weight,
    run_cells,
)
from repro.experiments.runner import RunSpec, run_many, run_policies
from repro.experiments.sweep import sweep_epoch_length, sweep_parameter
from repro.obs import Observability, RunJournal, read_journal
from repro.workloads import by_name

FAST = RunSpec(warmup_instructions=1_000, sim_instructions=3_000)
GRID_WORKLOADS = ("astar", "hmmer", "mcf", "lbm")


def _workloads(names=GRID_WORKLOADS):
    return [by_name(name) for name in names]


class TestCellBasics:
    def test_cell_for_registry_workload_carries_name_only(self):
        cell = cell_for(by_name("astar"), FAST)
        assert cell.workload == "astar"
        assert cell.workload_obj is None
        assert cell.resolve_workload() is by_name("astar")

    def test_cell_for_foreign_workload_carries_object(self):
        class Custom:
            name = "astar"  # shadows a registry name but is a different object

            def generate(self):  # pragma: no cover - never run
                return iter(())

        custom = Custom()
        cell = cell_for(custom, FAST)
        assert cell.workload_obj is custom
        assert cell.resolve_workload() is custom

    def test_cells_are_picklable(self):
        import pickle

        cell = cell_for(by_name("astar"), FAST, policy="permit",
                        context={"sweep": {"value": 1}})
        clone = pickle.loads(pickle.dumps(cell))
        assert clone == cell

    def test_run_cells_rejects_bad_jobs(self):
        with pytest.raises(ValueError, match="jobs"):
            run_cells([cell_for(by_name("astar"), FAST)], jobs=0)


class TestSerialParallelEquivalence:
    def test_policy_grid_identical_under_jobs4(self):
        # the acceptance grid: 2 policies x 4 workloads
        workloads = _workloads()
        serial = run_policies(workloads, ["discard", "permit"], base_spec=FAST, jobs=1)
        clear_result_memo()  # the parallel leg must simulate too
        parallel = run_policies(workloads, ["discard", "permit"], base_spec=FAST, jobs=4)
        assert parallel == serial  # SimResult dataclass equality, field-exact

    def test_run_many_order_preserved(self):
        workloads = _workloads()
        serial = run_many(workloads, FAST, jobs=1)
        clear_result_memo()
        parallel = run_many(workloads, FAST, jobs=3)
        assert parallel == serial
        assert [r.workload for r in parallel] == list(GRID_WORKLOADS)

    def test_progress_fires_per_cell(self):
        seen = []
        run_many(_workloads(("astar", "hmmer")), FAST, jobs=2,
                 progress=lambda name, result: seen.append(name))
        assert sorted(seen) == ["astar", "hmmer"]

    def test_sweep_parameter_identical_under_jobs(self):
        from repro.experiments.sweep import dram_latency_transform

        workloads = _workloads(("astar", "hmmer"))
        serial = sweep_parameter(workloads, dram_latency_transform, (100, 300),
                                 policies=("permit",), base_spec=FAST, jobs=1)
        clear_result_memo()
        parallel = sweep_parameter(workloads, dram_latency_transform, (100, 300),
                                   policies=("permit",), base_spec=FAST, jobs=2)
        assert parallel == serial

    def test_parallel_rejects_in_process_instruments(self):
        from repro.obs import Probe

        obs = Observability(probe=Probe())
        with pytest.raises(ValueError, match="in-process"):
            run_cells([cell_for(w, FAST) for w in _workloads()], jobs=2, obs=obs)


class TestCacheBehaviour:
    def test_second_run_is_all_hits_and_identical(self, tmp_path):
        workloads = _workloads(("astar", "hmmer"))
        cache = ResultCache(tmp_path)
        first = run_policies(workloads, ["discard", "permit"], base_spec=FAST, cache=cache)
        assert cache.stats == {"hits": 0, "misses": 4, "stores": 4}
        second = run_policies(workloads, ["discard", "permit"], base_spec=FAST, cache=cache)
        assert second == first
        assert cache.stats == {"hits": 4, "misses": 4, "stores": 4}

    def test_config_change_invalidates(self, tmp_path):
        cache = ResultCache(tmp_path)
        run_many(_workloads(("astar",)), FAST, cache=cache)
        assert cache.stats["stores"] == 1
        from dataclasses import replace

        run_many(_workloads(("astar",)), replace(FAST, sim_instructions=4_000), cache=cache)
        assert cache.stats["stores"] == 2  # different fingerprint -> re-simulated

    def test_cache_shared_across_parallel_and_serial(self, tmp_path):
        workloads = _workloads(("astar", "hmmer"))
        cache = ResultCache(tmp_path)
        parallel = run_many(workloads, FAST, jobs=2, cache=cache)
        serial = run_many(workloads, FAST, jobs=1, cache=ResultCache(tmp_path))
        assert serial == parallel


class TestSharedBaseline:
    def test_epoch_sweep_simulates_discard_once(self, tmp_path):
        # the discard baseline is epoch-independent: one cell in the batch
        journal = tmp_path / "runs.jsonl"
        obs = Observability(journal=RunJournal(journal))
        cache = ResultCache(tmp_path / "cache")
        sweep_epoch_length(_workloads(("hmmer",)), (512, 1024, 4096),
                           base_spec=FAST, obs=obs, cache=cache)
        obs.close()
        records = read_journal(journal)
        discard = [r for r in records if r["context"]["sweep"]["policy"] == "discard"]
        assert len(discard) == 1
        assert len(records) == 4  # 1 baseline + 3 epoch points
        assert cache.stats["stores"] == 4

    def test_value_invariant_sweep_simulates_discard_once(self, tmp_path):
        # a transform that leaves the baseline's config unchanged across >= 3
        # values collapses every policy to one simulation per workload
        journal = tmp_path / "runs.jsonl"
        obs = Observability(journal=RunJournal(journal))
        cache = ResultCache(tmp_path / "cache")
        data = sweep_parameter(
            _workloads(("hmmer",)), lambda params, value: params, (1, 2, 3),
            policies=("permit",), base_spec=FAST, obs=obs, cache=cache,
        )
        obs.close()
        records = read_journal(journal)
        discard = [r for r in records if r["context"]["sweep"]["policy"] == "discard"]
        assert len(discard) == 1
        assert cache.stats["stores"] == 2  # discard once + permit once
        assert set(data) == {1, 2, 3}

    def test_repeated_sweep_is_free(self, tmp_path):
        from repro.experiments.sweep import dram_latency_transform

        cache = ResultCache(tmp_path)
        first = sweep_parameter(_workloads(("hmmer",)), dram_latency_transform,
                                (120, 240, 360), policies=("permit",),
                                base_spec=FAST, cache=cache)
        stores_after_first = cache.stats["stores"]
        again = sweep_parameter(_workloads(("hmmer",)), dram_latency_transform,
                                (120, 240, 360), policies=("permit",),
                                base_spec=FAST, cache=cache)
        assert again == first
        assert cache.stats["stores"] == stores_after_first  # nothing re-simulated


class TestMergedJournal:
    def test_jobs2_journal_is_complete(self, tmp_path):
        journal = tmp_path / "runs.jsonl"
        obs = Observability(journal=RunJournal(journal))
        workloads = _workloads(("astar", "hmmer"))
        run_policies(workloads, ["discard", "permit"], base_spec=FAST, jobs=2, obs=obs)
        obs.close()
        records = read_journal(journal)
        assert len(records) == 4
        assert obs.runs == 4
        coords = {(r["workload"]["name"], r["context"]["spec"]["policy"]) for r in records}
        assert coords == {(w, p) for w in ("astar", "hmmer") for p in ("discard", "permit")}
        # full config + params survived the shard round-trip
        assert all("stlb" in r["config"]["params"] for r in records)

    def test_scoped_context_does_not_leak(self, tmp_path):
        # regression: a sweep used to leave context['sweep'] on the bundle,
        # mislabelling every later run's journal record
        journal = tmp_path / "runs.jsonl"
        obs = Observability(journal=RunJournal(journal))
        sweep_epoch_length(_workloads(("hmmer",)), (512,), base_spec=FAST, obs=obs)
        assert obs.context == {}
        from repro.experiments.runner import run_one

        run_one(by_name("astar"), FAST, obs=obs)
        assert obs.context == {}
        obs.close()
        last = read_journal(journal)[-1]
        assert last["workload"]["name"] == "astar"
        assert "sweep" not in last["context"]


class TestAffineScheduling:
    def test_groups_by_workload_and_window(self):
        cells = [
            cell_for(by_name(w), FAST, policy=p)
            for p in ("discard", "permit")
            for w in ("astar", "hmmer")
        ]
        groups = _affine_groups(cells, range(len(cells)))
        assert [(idx, w.name) for idx, w, _, _ in groups] == [
            ([0, 2], "astar"), ([1, 3], "hmmer"),
        ]
        assert all((warm, sim) == (1_000, 3_000) for _, _, warm, sim in groups)

    def test_window_splits_groups(self):
        from dataclasses import replace

        longer = replace(FAST, sim_instructions=4_000)
        cells = [cell_for(by_name("astar"), spec) for spec in (FAST, longer, FAST)]
        groups = _affine_groups(cells, range(len(cells)))
        assert [idx for idx, _, _, _ in groups] == [[0, 2], [1]]


class TestCostAwareScheduling:
    def test_policy_weights_ordered_by_heaviness(self):
        assert policy_cost_weight("discard") == 1.0
        assert policy_cost_weight("DRIPPER") > policy_cost_weight("permit") > \
            policy_cost_weight("discard")
        assert policy_cost_weight("ppf") > policy_cost_weight("dripper")
        assert policy_cost_weight("never-heard-of-it") == 1.0

    def test_chunk_cost_scales_with_records_and_policy(self):
        cells = [cell_for(by_name("astar"), FAST, policy=p)
                 for p in ("discard", "dripper")]
        cheap = chunk_cost(cells, [0], records=1_000)
        heavy_policy = chunk_cost(cells, [1], records=1_000)
        long_pack = chunk_cost(cells, [0], records=10_000)
        both_cells = chunk_cost(cells, [0, 1], records=1_000)
        assert cheap == 1_000.0
        assert heavy_policy > cheap
        assert long_pack == 10 * cheap
        assert both_cells == pytest.approx(cheap + heavy_policy)

    def test_skewed_grid_parallel_matches_serial(self):
        # one workload has a 5x window and the heavyweight policy — the
        # costliest-first dispatch must not perturb results or their order
        from dataclasses import replace

        long_spec = replace(FAST, sim_instructions=15_000)
        cells = [cell_for(by_name("hmmer"), FAST, policy=p)
                 for p in ("discard", "permit")]
        cells += [cell_for(by_name("astar"), long_spec, policy="dripper")]
        cells += [cell_for(by_name("mcf"), FAST, policy="discard")]
        serial = run_cells(cells, jobs=1)
        clear_result_memo()
        parallel = run_cells(cells, jobs=2)
        assert [r.__dict__ for r in parallel] == [r.__dict__ for r in serial]


def _pack_misses() -> float:
    """Packs built so far: this process's, plus every merged worker delta."""
    from repro.obs.metrics import get_metrics

    return get_metrics().counter("pack_cache.misses").total()


class TestGridSession:
    def test_session_batches_match_serial(self):
        cells = [cell_for(by_name("astar"), FAST, policy=p)
                 for p in ("discard", "permit")]
        serial = run_cells(cells, jobs=1)
        with grid_session(2):
            # both batches must reach the workers, not the result memo
            clear_result_memo()
            before = _pack_misses()
            first = run_cells(cells, jobs=2)
            clear_result_memo()
            second = run_cells(cells, jobs=2)
            # each of the two workers packs astar at most once per session
            assert 1 <= _pack_misses() - before <= 2
        assert first == serial and second == serial

    def test_persistent_session_journal_not_double_counted(self, tmp_path):
        journal = tmp_path / "runs.jsonl"
        obs = Observability(journal=RunJournal(journal))
        cells = [cell_for(by_name("astar"), FAST, policy=p)
                 for p in ("discard", "permit")]
        with grid_session(2):
            run_cells(cells, jobs=2, obs=obs)
            run_cells(cells, jobs=2, obs=obs)
        obs.close()
        assert len(read_journal(journal)) == 4  # 2 batches x 2 cells, once each
        assert obs.runs == 4


class TestRunPoliciesPrefetcherFix:
    def test_base_spec_prefetcher_preserved(self):
        # regression: the default prefetcher kwarg used to clobber base_spec
        spec = RunSpec(prefetcher="bop", warmup_instructions=1_000, sim_instructions=2_000)
        out = run_policies(_workloads(("astar",)), ["discard"], base_spec=spec)
        assert out["discard"][0].prefetcher == "bop"

    def test_explicit_prefetcher_still_overrides(self):
        spec = RunSpec(prefetcher="bop", warmup_instructions=1_000, sim_instructions=2_000)
        out = run_policies(_workloads(("astar",)), ["discard"], prefetcher="berti",
                           base_spec=spec)
        assert out["discard"][0].prefetcher == "berti"


class TestGridTelemetry:
    def test_worker_metric_deltas_merge_into_parent(self):
        from repro.obs.metrics import get_metrics

        cells = [cell_for(w, FAST) for w in _workloads(("astar", "hmmer"))] * 2
        grid_cells = get_metrics().counter("grid.cells")
        before = {key: v for key, v in grid_cells._values.items()}
        run_cells(cells, jobs=2)
        landed = {
            key: v - before.get(key, 0)
            for key, v in grid_cells._values.items()
            if v != before.get(key, 0)
        }
        assert sum(landed.values()) == len(cells)
        # the cells ran in worker processes: their pids, not the parent's
        import os

        parent = (("pid", str(os.getpid())),)
        assert parent not in landed
        assert len(landed) >= 1  # at least one worker pid lane

    def test_worker_spans_absorbed_with_worker_pids(self, tmp_path):
        import json
        import os

        from repro.obs.tracing import Tracer, install_tracer

        tracer = Tracer(role="parent")
        previous = install_tracer(tracer)
        try:
            cells = [cell_for(w, FAST) for w in _workloads(("astar", "hmmer"))]
            run_cells(cells, jobs=2)
        finally:
            install_tracer(previous)
        out = tmp_path / "trace.json"
        count = tracer.write_chrome_trace(out)
        assert count >= len(cells)  # at least one span per cell
        doc = json.loads(out.read_text())
        span_pids = {e["pid"] for e in doc["traceEvents"] if e.get("ph") == "X"}
        assert os.getpid() not in span_pids or len(span_pids) > 1
        assert any(pid != os.getpid() for pid in span_pids)
        names = {e["name"] for e in doc["traceEvents"] if e.get("ph") == "X"}
        assert "cell" in names and "drive" in names

    def test_telemetry_off_results_bit_identical(self):
        from repro.obs.tracing import Tracer, install_tracer

        cells = [cell_for(w, FAST) for w in _workloads(("astar",))]
        plain = run_cells(cells, jobs=1)
        clear_result_memo()  # the traced leg must simulate too
        tracer = Tracer(role="parent")
        previous = install_tracer(tracer)
        try:
            traced = run_cells(cells, jobs=1)
        finally:
            install_tracer(previous)
        assert plain == traced  # dataclass equality, field-exact

    def test_parallel_identical_with_and_without_tracer(self, tmp_path):
        from repro.obs.tracing import Tracer, install_tracer

        cells = [cell_for(w, FAST) for w in _workloads(("astar", "hmmer"))]
        plain = run_cells(cells, jobs=2)
        clear_result_memo()
        previous = install_tracer(Tracer(role="parent"))
        try:
            traced = run_cells(cells, jobs=2)
        finally:
            install_tracer(previous)
        assert plain == traced


@pytest.fixture
def simulations(monkeypatch):
    """Count the cells that really simulate (not served by memo or cache)."""
    from repro.experiments import parallel

    calls = []
    real = parallel.simulate

    def counting(workload, config, **kwargs):
        calls.append(workload.name)
        return real(workload, config, **kwargs)

    monkeypatch.setattr(parallel, "simulate", counting)
    return calls


class TestResultMemo:
    def test_repeated_cell_simulates_once_per_process(self, simulations):
        cells = [cell_for(by_name("astar"), FAST)]
        first = run_cells(cells)
        second = run_many(_workloads(("astar",)), FAST)
        assert simulations == ["astar"]
        assert second == first

    def test_hit_is_equal_but_independent(self, simulations):
        cells = [cell_for(by_name("astar"), FAST)]
        (original,) = run_cells(cells)
        want = original.ipc
        original.ipc = -1.0  # caller mutates the result it was handed
        (hit,) = run_cells(cells)
        assert hit.ipc == want and hit is not original
        hit.ipc = -2.0  # ...and the one served from the memo
        (again,) = run_cells(cells)
        assert again.ipc == want and again is not hit
        assert simulations == ["astar"]

    def test_in_batch_duplicate_served_serially(self, simulations):
        cells = [cell_for(by_name("astar"), FAST)] * 2
        a, b = run_cells(cells)
        assert simulations == ["astar"]
        assert a == b and a is not b

    def test_in_batch_duplicates_coalesced_on_a_pool(self):
        from repro.obs.metrics import get_metrics

        drives = get_metrics().counter("sim.drives")
        before = drives.total()
        cells = [cell_for(by_name(w), FAST) for w in ("astar", "hmmer")] * 2
        results = run_cells(cells, jobs=2)
        assert get_metrics().gauge("grid.workers").value() == 2  # a real pool
        assert drives.total() - before == 2  # one merged drive per distinct cell
        for a, b in ((results[0], results[2]), (results[1], results[3])):
            assert a == b and a is not b

    def test_observed_validated_and_adhoc_cells_always_simulate(self, simulations, tmp_path):
        from dataclasses import replace

        from repro.workloads.synthetic import SyntheticWorkload

        registry = [cell_for(by_name("astar"), FAST)]
        run_cells(registry)
        obs = Observability(journal=RunJournal(tmp_path / "runs.jsonl"))
        run_cells(registry, obs=obs)
        obs.close()
        run_cells([cell_for(by_name("astar"), replace(FAST, validate=True))])
        astar = by_name("astar")
        adhoc = SyntheticWorkload(astar.name, astar.suite, astar.seed, astar.phases)
        run_cells([cell_for(adhoc, FAST)])
        run_cells([cell_for(adhoc, FAST)])
        assert simulations == ["astar"] * 5
        assert len(read_journal(tmp_path / "runs.jsonl")) == 1

    def test_capacity_bound_evicts_least_recent(self, simulations, monkeypatch):
        from repro.experiments import parallel

        monkeypatch.setattr(parallel, "_MEMO_CAPACITY", 2)
        cells = [cell_for(by_name(w), FAST) for w in ("astar", "hmmer", "mcf")]
        for cell in cells:
            run_cells([cell])
        assert len(parallel._RESULT_MEMO) == 2
        run_cells([cells[2]])  # still memoised
        run_cells([cells[0]])  # evicted: simulates again
        assert simulations == ["astar", "hmmer", "mcf", "astar"]

    def test_memo_hit_still_fills_a_missing_cache(self, simulations, tmp_path):
        cells = [cell_for(by_name("astar"), FAST)]
        run_cells(cells)
        cache = ResultCache(tmp_path)
        run_cells(cells, cache=cache)
        assert simulations == ["astar"]
        assert cache.stats == {"hits": 0, "misses": 1, "stores": 1}

    def test_clear_result_memo_forces_resimulation(self, simulations):
        cells = [cell_for(by_name("astar"), FAST)]
        run_cells(cells)
        clear_result_memo()
        run_cells(cells)
        assert simulations == ["astar", "astar"]


def _serial_batches(reason):
    from repro.obs.metrics import get_metrics

    return get_metrics().counter("grid.serial_batches").value(reason=reason)


@pytest.fixture
def no_pool(monkeypatch):
    """Fail the test if anything forks a grid worker pool."""
    from repro.experiments import parallel

    def refuse(*args, **kwargs):
        raise AssertionError("a worker pool was forked")

    monkeypatch.setattr(parallel, "ProcessPoolExecutor", refuse)


class TestWorkerResolution:
    def test_explicit_jobs_honoured_and_capped_by_pending(self):
        from repro.experiments.parallel import resolve_workers

        assert resolve_workers(3, 8) == (3, None)
        assert resolve_workers(8, 3) == (3, None)
        assert resolve_workers(1, 8) == (1, "requested")
        assert resolve_workers(4, 1) == (1, "one-chunk")
        with pytest.raises(ValueError, match="jobs"):
            resolve_workers(0, 8)

    def test_default_takes_every_usable_cpu(self, monkeypatch):
        import os

        from repro.experiments.parallel import resolve_workers

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
        assert resolve_workers(None, 8) == (3, None)
        assert resolve_workers(None, 2) == (2, None)
        assert resolve_workers(None, 1) == (1, "one-chunk")

    def test_one_usable_cpu_runs_serially_without_a_pool(self, monkeypatch, no_pool,
                                                         simulations):
        import os

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        before = _serial_batches("one-cpu")
        events = []
        out = run_policies(_workloads(("astar", "hmmer")), ["discard", "permit"],
                           base_spec=FAST, progress=events.append)
        assert len(simulations) == 4  # every cell ran in this process
        assert [r.workload for r in out["permit"]] == ["astar", "hmmer"]
        assert events[0]["workers"] == 1 and events[0]["serial_reason"] == "one-cpu"
        assert _serial_batches("one-cpu") == before + 1

    def test_in_process_instruments_run_serially_by_default(self, no_pool, simulations):
        from repro.obs import Probe, TimelineRecorder

        cells = [cell_for(w, FAST) for w in _workloads(("astar", "hmmer"))]
        for obs in (Observability(timeline=TimelineRecorder()),
                    Observability(probe=Probe())):
            before = _serial_batches("instruments")
            assert len(run_cells(cells, obs=obs)) == 2
            assert _serial_batches("instruments") == before + 1
            with pytest.raises(ValueError, match="in-process"):
                run_cells(cells, jobs=2, obs=obs)
        assert simulations == ["astar", "hmmer"] * 2

    def test_grid_worker_resolves_default_jobs_to_one(self):
        from repro.experiments.parallel import resolve_workers

        with grid_session() as session:
            nested = session.pool(1).submit(resolve_workers, None, 8).result()
        assert nested == (1, "nested")


class TestPackPlacement:
    """Every worker packs each window it replays, at most once per process."""

    def test_single_chunk_workload_is_packed_by_its_worker(self):
        cells = [cell_for(w, FAST) for w in _workloads(("astar", "hmmer"))]
        serial = run_cells(cells, jobs=1)
        clear_result_memo()
        before = _pack_misses()
        assert run_cells(cells, jobs=2) == serial
        assert _pack_misses() == before + 2  # one pack per workload's chunk

    def test_workload_split_over_chunks_matches_serial(self):
        cells = [cell_for(by_name("astar"), FAST, policy=p)
                 for p in ("discard", "permit", "dripper", "iso")]
        assert len(_plan_chunks(cells, range(len(cells)), 2)) == 4
        serial = run_cells(cells, jobs=1)
        clear_result_memo()
        before = _pack_misses()
        assert run_cells(cells, jobs=2) == serial
        assert 1 <= _pack_misses() - before <= 2  # at most once per worker

    def test_run_policies_matches_serial(self):
        workloads = _workloads(("astar", "hmmer"))
        serial = run_policies(workloads, ["discard", "permit"], base_spec=FAST, jobs=1)
        clear_result_memo()
        assert run_policies(workloads, ["discard", "permit"], base_spec=FAST,
                            jobs=2) == serial

    def test_fig19_isolation_cells_and_mixes_share_packs(self):
        from repro.experiments.figures import fig19_multicore
        from repro.workloads import make_mixes

        kwargs = dict(n_mixes=1, cores=2, warmup_instructions=1_000,
                      sim_instructions=3_000, seed=3)
        serial = fig19_multicore(**kwargs, jobs=1)
        clear_result_memo()
        before = _pack_misses()
        assert fig19_multicore(**kwargs, jobs=2) == serial
        # one batch: isolation cells and mixes replay the same windows, so
        # each of the two workers packs each mix workload at most once
        (mix,) = make_mixes(1, 2, 3)
        assert _pack_misses() - before <= 2 * len({w.name for w in mix})


class TestWorkerDeath:
    def test_killed_worker_names_lost_cells_and_caches_nothing(self, monkeypatch,
                                                                tmp_path):
        import os
        import signal

        from repro.experiments import parallel
        from repro.experiments.parallel import GridWorkerLost, cell_fingerprint

        real = parallel.simulate
        mcf_runs = []

        def dies_mid_chunk(workload, config, **kwargs):
            # only ever called in a forked worker: the batch runs on a pool
            if workload.name == "mcf":
                mcf_runs.append(1)
                if len(mcf_runs) == 2:  # the chunk's second mcf cell
                    os.kill(os.getpid(), signal.SIGKILL)
            return real(workload, config, **kwargs)

        cells = [cell_for(w, FAST, policy=p)
                 for w in _workloads() for p in ("discard", "permit")]
        monkeypatch.setattr(parallel, "simulate", dies_mid_chunk)
        cache = ResultCache(tmp_path)
        with pytest.raises(GridWorkerLost) as err:
            run_cells(cells, jobs=2, cache=cache)
        assert "mcf/discard" in str(err.value) and "mcf/permit" in str(err.value)
        for cell in cells:
            if cell.workload == "mcf":
                key = cell_fingerprint(cell)
                assert key not in parallel._RESULT_MEMO
                assert not cache._path(key).exists()

        monkeypatch.setattr(parallel, "simulate", real)
        rerun = run_cells(cells, jobs=2, cache=ResultCache(tmp_path))
        clear_result_memo()
        assert rerun == run_cells(cells, jobs=1)
