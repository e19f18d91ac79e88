"""Multi-core mix simulation."""

from dataclasses import replace

import pytest

from repro.core.policies import DiscardPgc
from repro.cpu.multicore import (
    MixResult,
    _drive_mix_generator,
    build_mix,
    isolation_ipc,
    simulate_mix,
    weighted_speedup,
)
from repro.cpu.simulator import SimConfig, simulate
from repro.validate import simulate_mix_generator
from repro.workloads import by_name
from repro.workloads.patterns import Gather, Stream
from repro.workloads.synthetic import SyntheticWorkload


def workload(name, seed, pattern=Stream, **kwargs):
    return SyntheticWorkload(
        name, "TEST", seed,
        [(lambda: pattern(0, **kwargs), 1 << 30)],
        mean_gap=2.0,
    )


def quick_config():
    return SimConfig(
        prefetcher="berti", policy_factory=DiscardPgc,
        warmup_instructions=1_000, sim_instructions=4_000,
    )


class TestSimulateMix:
    def test_all_cores_finish(self):
        mix = [workload(f"w{i}", i + 1, footprint_pages=256) for i in range(4)]
        result = simulate_mix(mix, quick_config())
        assert len(result.results) == 4
        for r in result.results:
            # warm-up may overshoot by one record's gap
            assert r.instructions >= 4_000 - 50
            assert r.ipc > 0

    def test_results_match_workload_order(self):
        mix = [workload(f"w{i}", i + 1, footprint_pages=128) for i in range(2)]
        result = simulate_mix(mix, quick_config())
        assert [r.workload for r in result.results] == ["w0", "w1"]

    def test_contention_slows_cores_down(self):
        """Memory-hog co-runners must reduce a core's IPC vs isolation."""
        victim = workload("victim", 1, footprint_pages=2048)
        hogs = [workload(f"hog{i}", i + 2, Gather, footprint_pages=8192) for i in range(3)]
        iso = isolation_ipc(victim, quick_config(), cores=4)
        mixed = simulate_mix([victim, *hogs], quick_config())
        assert mixed.results[0].ipc < iso

    def test_deterministic(self):
        mix = [workload(f"w{i}", i + 1, footprint_pages=128) for i in range(2)]
        a = simulate_mix(mix, quick_config())
        b = simulate_mix(mix, quick_config())
        assert [r.ipc for r in a.results] == [r.ipc for r in b.results]


class TestWeightedIpc:
    def test_weighted_ipc_formula(self):
        results = simulate_mix(
            [workload("a", 1, footprint_pages=128), workload("b", 2, footprint_pages=128)],
            quick_config(),
        )
        isolation = [1.0, 2.0]
        expected = results.results[0].ipc / 1.0 + results.results[1].ipc / 2.0
        assert results.weighted_ipc(isolation) == pytest.approx(expected)

    def test_weighted_ipc_rejects_mismatch(self):
        result = MixResult([])
        with pytest.raises(ValueError):
            result.weighted_ipc([1.0])

    def test_weighted_ipc_rejects_zero_isolation(self):
        results = simulate_mix(
            [workload("a", 1, footprint_pages=128), workload("b", 2, footprint_pages=128)],
            quick_config(),
        )
        with pytest.raises(ValueError, match="isolation IPC for core 1"):
            results.weighted_ipc([1.0, 0.0])


def qmm_workload(name="qmmish", seed=5):
    """A QMM-suite workload: simulate_mix halves its per-core budgets."""
    return SyntheticWorkload(
        name, "QMM_INT", seed,
        [(lambda: Stream(0, footprint_pages=128), 1 << 30)],
        mean_gap=2.0,
    )


class TestConfigKnobs:
    """simulate_mix used to silently ignore its config knobs."""

    def test_unknown_kernel_rejected(self):
        # there is one record kernel, so there is no knob to pick a tier
        with pytest.raises(TypeError, match="kernel"):
            replace(quick_config(), kernel="fused")

    def test_packed_matches_generator(self):
        # include a QMM core: its halved budget makes it finish early and
        # replay, pushing the packed loop through the overflow seam
        mix = [qmm_workload(), *(workload(f"w{i}", i + 1, footprint_pages=128)
                                 for i in range(3))]
        generator = simulate_mix_generator(mix, quick_config())
        packed = simulate_mix(mix, quick_config())
        for a, b in zip(generator, packed.results):
            assert a == b

    def test_validate_attaches_checker_per_core(self, monkeypatch):
        from repro.validate import InvariantChecker

        attached = []
        real_attach = InvariantChecker.attach

        def spy(self, engine):
            attached.append(engine)
            return real_attach(self, engine)

        monkeypatch.setattr(InvariantChecker, "attach", spy)
        mix = [workload(f"w{i}", i + 1, footprint_pages=128) for i in range(2)]
        simulate_mix(mix, replace(quick_config(), validate=True))
        assert len(attached) == 2

    def test_validate_passes_on_clean_mix(self):
        mix = [qmm_workload(), workload("plain", 6, footprint_pages=128)]
        clean = simulate_mix(mix, replace(quick_config(), validate=True))
        plain = simulate_mix(mix, quick_config())
        # validation is observational: identical results either way
        assert [r.ipc for r in clean.results] == [r.ipc for r in plain.results]


class FiniteWorkload:
    """A trace that ends long before its window does."""

    name = "finite"
    suite = "TEST"

    def __init__(self, records: int):
        self.records = records

    def generate(self):
        for i in range(self.records):
            yield 0x400 + (i % 24) * 4, 0x1000 + i * 64, 1 if i % 3 else 2, i % 5


class TestIncompletePack:
    def test_short_trace_wraps_like_the_generator_loop(self):
        # the finite core's pack holds its whole trace; it runs out of
        # records during warm-up and again while measuring, and must wrap to
        # record 0 each time exactly as the oracle restarts its generator
        mix = [FiniteWorkload(300), workload("plain", 6, footprint_pages=128)]
        oracle = simulate_mix_generator(mix, quick_config())
        packed = simulate_mix(mix, quick_config())
        assert packed.results == oracle
        assert packed.results[0].instructions >= quick_config().sim_instructions


class TestHeapOrder:
    def test_identical_cores_tie_break_deterministically(self):
        # all cores share one retire clock, so every heap pop is decided by
        # the core-index tie-break; any instability would desynchronise the
        # shared LLC and show up as cross-run IPC jitter
        mix = [workload("same", 7, footprint_pages=256) for _ in range(4)]
        a = simulate_mix(mix, quick_config())
        b = simulate_mix(mix, quick_config())
        assert [r.ipc for r in a.results] == [r.ipc for r in b.results]
        oracle = simulate_mix_generator(mix, quick_config())
        assert [r.ipc for r in oracle] == [r.ipc for r in a.results]


class TestWeightedSpeedupCanonical:
    def test_metrics_delegates_to_multicore(self):
        from repro.experiments.metrics import weighted_speedup as via_metrics

        assert via_metrics([1.0, 2.0], [0.5, 1.0]) == weighted_speedup(
            [1.0, 2.0], [0.5, 1.0]) == 4.0

    def test_negative_isolation_rejected_everywhere(self):
        # the two copies used to disagree: MixResult raised only on iso == 0
        from repro.experiments.metrics import weighted_speedup as via_metrics

        with pytest.raises(ValueError, match="core 1"):
            weighted_speedup([1.0, 1.0], [1.0, -0.5])
        with pytest.raises(ValueError, match="core 1"):
            via_metrics([1.0, 1.0], [1.0, -0.5])

    def test_labels_name_the_offending_core(self):
        with pytest.raises(ValueError, match="'b'"):
            weighted_speedup([1.0, 1.0], [1.0, 0.0], labels=["a", "b"])


class TestMixTelemetry:
    def test_drives_counter_labels_mix_modes(self):
        from repro.obs.metrics import get_metrics

        def mode_count(snap, mode):
            metric = snap.counters.get("sim.drives", {"series": {}})
            return sum(value for labels, value in metric["series"].items()
                       if dict(labels).get("mode") == mode)

        mix = [workload(f"w{i}", i + 1, footprint_pages=128) for i in range(2)]
        before = get_metrics().snapshot()
        # the generator loop only runs as the oracle, called by name
        engines, budgets, core_configs = build_mix(mix, quick_config())
        _drive_mix_generator(engines, mix, budgets, core_configs)
        simulate_mix(mix, quick_config())
        after = get_metrics().snapshot()
        assert mode_count(after, "mix-generator") == mode_count(before, "mix-generator") + 1
        assert mode_count(after, "mix-packed") == mode_count(before, "mix-packed") + 1

    def test_journal_tags_mix_and_core(self, tmp_path):
        from repro.obs import Observability, RunJournal
        from repro.obs.journal import read_journal

        path = tmp_path / "mix.jsonl"
        obs = Observability(journal=RunJournal(path))
        mix = [workload(f"w{i}", i + 1, footprint_pages=128) for i in range(2)]
        simulate_mix(mix, quick_config(), obs=obs, mix_id=17)
        obs.close()
        records = read_journal(path)
        assert len(records) == 2
        assert [r["context"]["mix"] for r in records] == [17, 17]
        assert sorted(r["context"]["core"] for r in records) == [0, 1]

    def test_timeline_rejected(self):
        from repro.obs import Observability, TimelineRecorder

        mix = [workload(f"w{i}", i + 1, footprint_pages=128) for i in range(2)]
        with pytest.raises(ValueError, match="single-core"):
            simulate_mix(mix, quick_config(),
                         obs=Observability(timeline=TimelineRecorder()))


class TestPerCoreBudgets:
    def test_qmm_core_journals_halved_budget(self):
        # QMM workloads run half-length traces; the per-core config handed
        # to collect_result must carry the halved budget so the journaled
        # requested_instructions matches what the core measured
        qmm = SyntheticWorkload(
            "qmmish", "QMM_INT", 5,
            [(lambda: Stream(0, footprint_pages=128), 1 << 30)],
            mean_gap=2.0,
        )
        plain = workload("plain", 6, footprint_pages=128)
        result = simulate_mix([qmm, plain], quick_config())
        per_core = {r.workload: r for r in result.results}
        assert per_core["qmmish"].requested_instructions == 2_000
        assert per_core["plain"].requested_instructions == 4_000
        assert per_core["qmmish"].instructions >= 2_000


class TestIsolation:
    def test_isolation_uses_scaled_llc(self):
        w = workload("solo", 3, footprint_pages=700)
        single = simulate(w, quick_config()).ipc
        scaled = isolation_ipc(w, quick_config(), cores=8)
        # 8x LLC capacity on a 700-page footprint: misses drop, IPC rises
        assert scaled >= single


class TestPerCoreLlcStats:
    def test_shared_llc_stats_do_not_leak_into_core_results(self):
        """Each core's LLC MPKI must reflect only its own demand traffic."""
        mix = [workload(f"w{i}", i + 1, Gather, footprint_pages=4096) for i in range(4)]
        result = simulate_mix(mix, quick_config())
        total_shared = sum(r.llc_mpki * r.instructions / 1000 for r in result.results)
        for r in result.results:
            own = r.llc_mpki * r.instructions / 1000
            assert own < 0.5 * total_shared + 1, (
                "a single core reported most of the shared LLC's misses"
            )

    def test_single_core_unchanged_by_accounting(self):
        w = workload("solo", 9, footprint_pages=1024)
        r = simulate(w, quick_config())
        # in single-core runs the per-core view covers all demand traffic
        assert r.llc_mpki > 0


class TestOverflowTailCache:
    """The memoised overflow stream serves the exact uncached records."""

    def setup_method(self):
        from repro.cpu import multicore
        multicore.clear_overflow_tails()

    def test_cached_stream_matches_fresh_iterator(self):
        from itertools import islice
        from repro.cpu.multicore import (
            _TAIL_CACHE, _overflow_iterator, _tail_records,
        )
        # only registry (and file) workloads have an identity to cache under
        w = by_name("astar")
        want = list(islice(_overflow_iterator(w, 100), 500))
        # cold pass populates the cache, warm pass replays it
        assert list(islice(_tail_records(w, 100), 500)) == want
        assert len(_TAIL_CACHE) == 1
        (tail,) = _TAIL_CACHE.values()
        assert len(tail.records) >= 500
        assert list(islice(_tail_records(w, 100), 500)) == want
        # a second consumer interleaved mid-stream stays consistent too
        a, b = _tail_records(w, 100), _tail_records(w, 100)
        got = [next(a), next(b), next(a), next(b)]
        assert got == [want[0], want[0], want[1], want[1]]

    def test_seedless_workloads_are_not_cached(self):
        from itertools import islice
        from repro.cpu.multicore import _TAIL_CACHE, _tail_records

        class Anon:
            name = "anon"
            def generate(self):
                return iter([(i, i, 0, 0) for i in range(10)])

        assert list(islice(_tail_records(Anon(), 4), 3)) == [
            (4, 4, 0, 0), (5, 5, 0, 0), (6, 6, 0, 0)]
        assert not _TAIL_CACHE

    def test_cap_falls_back_to_private_stream(self, monkeypatch):
        from itertools import islice
        from repro.cpu import multicore
        monkeypatch.setattr(multicore, "_TAIL_RECORD_CAP", 8)
        w = by_name("mcf")
        want = list(islice(multicore._overflow_iterator(w, 10), 40))
        assert list(islice(multicore._tail_records(w, 10), 40)) == want
        (tail,) = multicore._TAIL_CACHE.values()
        assert len(tail.records) == 8

    def test_mix_results_identical_with_warm_tails(self):
        from repro.cpu import multicore

        mix = [by_name(n) for n in ("astar", "hmmer", "mcf", "qmm_int_13")]
        cold = simulate_mix(mix, quick_config())
        assert multicore._TAIL_CACHE  # the QMM core replayed past its pack
        warm = simulate_mix(mix, quick_config())
        assert [r.ipc for r in cold.results] == [r.ipc for r in warm.results]

    def test_adhoc_workloads_sharing_a_name_get_their_own_tails(self):
        from itertools import islice
        from repro.cpu.multicore import _overflow_iterator, _tail_records

        a = workload("twin", 5)
        b = workload("twin", 5, pattern=Gather, footprint_pages=64)
        assert list(islice(_tail_records(a, 10), 50)) == list(
            islice(_overflow_iterator(a, 10), 50))
        assert list(islice(_tail_records(b, 10), 50)) == list(
            islice(_overflow_iterator(b, 10), 50))
