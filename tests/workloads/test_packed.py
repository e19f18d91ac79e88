"""Packed trace buffers: generator equality, window sizing, caching, replay."""

import gc

import pytest

from repro.core.policies import DiscardPgc
from repro.cpu.simulator import SimConfig, simulate
from repro.validate import result_diff, simulate_generator
from repro.workloads import by_name
from repro.workloads.packed import (
    PackedTrace,
    PackedWorkload,
    _capacity_from_env,
    clear_pack_cache,
    get_packed,
    pack_cache_stats,
    set_pack_cache_capacity,
)
from repro.workloads import packed as packed_module
from repro.workloads.trace_io import FileWorkload, snapshot_workload


class HighGapWorkload:
    """Records whose gaps overshoot the warm-up boundary (window edge case)."""

    name = "highgap"
    suite = "TEST"

    def __init__(self, records=60, gap=999):
        self.records = records
        self.gap = gap

    def generate(self):
        for i in range(self.records):
            yield 0x400, 0x1000 + (i % 8) * 64, 1, self.gap


class TestPackedTrace:
    def test_records_match_generator_prefix(self):
        w = by_name("astar")
        packed = PackedTrace.from_workload(w, 2_000, 6_000)
        gen = w.generate()
        assert len(packed) > 0
        for record in packed.records():
            assert record == tuple(next(gen))

    def test_packing_is_deterministic(self):
        w = by_name("astar")
        a = PackedTrace.from_workload(w, 2_000, 6_000)
        b = PackedTrace.from_workload(w, 2_000, 6_000)
        assert a.pcs == b.pcs
        assert a.vaddrs == b.vaddrs
        assert a.flags == b.flags
        assert a.gaps == b.gaps

    def test_window_covers_warmup_overshoot(self):
        # each record spans 1000 instructions, so the warm-up boundary is
        # overshot by 500: measurement starts at 2000, not 1500, and the
        # pack must reach 2000 + sim, not warmup + sim
        w = HighGapWorkload()
        packed = PackedTrace.from_workload(w, 1_500, 3_000)
        assert packed.complete
        assert packed.instructions >= 2_000 + 3_000

    def test_incomplete_pack_flagged(self):
        packed = PackedTrace.from_workload(HighGapWorkload(records=3), 1_500, 9_000)
        assert not packed.complete

    def test_replay_is_restartable(self):
        packed = PackedTrace.from_workload(by_name("astar"), 1_000, 2_000)
        replay = packed.replay()
        assert isinstance(replay, PackedWorkload)
        assert list(replay.generate()) == list(replay.generate())

    def test_snapshot_pack_roundtrip(self, tmp_path):
        # snapshot to the native on-disk format, reload, pack: the packed
        # columns must reproduce the file's records exactly
        path = tmp_path / "snap.rptr"
        snapshot_workload(by_name("hmmer"), path, instructions=4_000)
        w = FileWorkload(path)
        packed = PackedTrace.from_workload(w, 500, 2_000)
        assert list(packed.records()) == list(w.generate())[: len(packed)]


class SlottedWorkload:
    """No seed/path and no ``__weakref__`` slot: cannot be pinned to the
    cache, so :func:`get_packed` must serve it uncached."""

    __slots__ = ("records", "gap")
    name = "slotted"
    suite = "TEST"

    def __init__(self, records=60, gap=999):
        self.records = records
        self.gap = gap

    def generate(self):
        for i in range(self.records):
            yield 0x400, 0x1000 + (i % 8) * 64, 1, self.gap


class TestAnonymousPackIdentity:
    def test_entry_dies_with_workload(self):
        clear_pack_cache()
        w = HighGapWorkload()
        get_packed(w, 1_500, 3_000)
        assert pack_cache_stats()["size"] == 1
        del w
        gc.collect()
        assert pack_cache_stats()["size"] == 0
        assert packed_module._ANON_REFS == {}
        clear_pack_cache()

    def test_recycled_id_cannot_serve_stale_pack(self):
        # id-keyed entries must die with their workload: when CPython hands
        # the freed id to a *different* workload, get_packed must re-pack
        # instead of serving the dead object's (larger) pack
        clear_pack_cache()
        w = HighGapWorkload(records=60)
        stale = get_packed(w, 1_500, 3_000)
        addr = id(w)
        del w
        gc.collect()
        for _ in range(256):
            candidate = HighGapWorkload(records=3)
            if id(candidate) == addr:
                break
            candidate = None
        else:
            pytest.skip("allocator did not recycle the object id")
        repacked = get_packed(candidate, 1_500, 3_000)
        assert repacked is not stale
        assert len(repacked) == 3
        clear_pack_cache()

    def test_adhoc_workloads_sharing_name_suite_seed_do_not_collide(self):
        # two ad-hoc workloads agree on (type, name, suite, seed) but not on
        # their phases; the cache used to key both the same and served the
        # first one's pack for the second
        from repro.workloads.patterns import PointerChase, Stream
        from repro.workloads.synthetic import SyntheticWorkload

        clear_pack_cache()
        stream = SyntheticWorkload(
            "adhoc", "TEST", 5, [(lambda: Stream(0, footprint_pages=512), 1 << 30)])
        chase = SyntheticWorkload(
            "adhoc", "TEST", 5, [(lambda: PointerChase(0), 1 << 30)])
        config = SimConfig(policy_factory=DiscardPgc,
                           warmup_instructions=1_000, sim_instructions=3_000)
        results = [simulate(w, config) for w in (stream, chase)]
        oracles = [simulate_generator(w, config) for w in (stream, chase)]
        assert [result_diff(r, o) for r, o in zip(results, oracles)] == [{}, {}]
        assert results[0].ipc != results[1].ipc
        assert get_packed(stream, 1_000, 3_000) is not get_packed(chase, 1_000, 3_000)
        clear_pack_cache()

    def test_registry_and_file_workloads_keyed_by_identity(self, tmp_path):
        from repro.workloads.packed import _pack_key, stable_identity

        astar = by_name("astar")
        assert stable_identity(astar) == ("registry", "astar")
        assert _pack_key(astar, 1, 2) == ("registry", "astar", 1, 2)
        path = tmp_path / "t.rptr"
        snapshot_workload(astar, path, instructions=2_000)
        assert stable_identity(FileWorkload(path)) == ("file", str(path))
        assert stable_identity(HighGapWorkload()) is None

    def test_unweakrefable_workload_served_uncached(self):
        clear_pack_cache()
        w = SlottedWorkload()
        first = get_packed(w, 1_500, 3_000)
        assert pack_cache_stats()["size"] == 0
        assert get_packed(w, 1_500, 3_000) is not first
        assert len(first) > 0
        clear_pack_cache()


class TestBytesGauge:
    def _gauge_value(self):
        from repro.obs.metrics import get_metrics

        return get_metrics().gauge("pack_cache.bytes").value()

    def _resident_bytes(self):
        return sum(p.nbytes() for p in packed_module._PACK_CACHE.values())

    def test_gauge_tracks_insert_evict_resize_clear(self, bounded_cache):
        w = by_name("astar")
        get_packed(w, 1_000, 2_000)
        assert self._gauge_value() == self._resident_bytes() > 0
        get_packed(w, 1_000, 3_000)
        assert self._gauge_value() == self._resident_bytes()
        get_packed(w, 1_000, 4_000)  # capacity 2: evicts the oldest
        assert self._gauge_value() == self._resident_bytes()
        set_pack_cache_capacity(1)  # shrink evicts immediately
        assert self._gauge_value() == self._resident_bytes()
        clear_pack_cache()
        assert self._gauge_value() == 0
        assert packed_module._CACHE_BYTES == 0

    def test_anonymous_death_updates_gauge(self):
        clear_pack_cache()
        w = HighGapWorkload()
        get_packed(w, 1_500, 3_000)
        assert self._gauge_value() == self._resident_bytes() > 0
        del w
        gc.collect()
        assert self._gauge_value() == 0
        clear_pack_cache()


class TestPackCache:
    def test_get_packed_caches_by_window(self):
        clear_pack_cache()
        w = by_name("astar")
        first = get_packed(w, 1_000, 2_000)
        assert get_packed(w, 1_000, 2_000) is first
        assert get_packed(w, 1_000, 3_000) is not first
        clear_pack_cache()
        assert get_packed(w, 1_000, 2_000) is not first


@pytest.fixture
def bounded_cache():
    """Shrinkable cache capacity, restored (with a clean cache) afterwards."""
    previous = set_pack_cache_capacity(2)
    clear_pack_cache()
    yield
    set_pack_cache_capacity(previous)
    clear_pack_cache()


class TestPackCacheCapacity:
    def test_lru_eviction_at_capacity(self, bounded_cache):
        w = by_name("astar")
        before = pack_cache_stats()["evictions"]
        oldest = get_packed(w, 1_000, 2_000)
        get_packed(w, 1_000, 3_000)
        get_packed(w, 1_000, 4_000)  # capacity 2: evicts the oldest window
        stats = pack_cache_stats()
        assert stats["size"] == 2
        assert stats["capacity"] == 2
        assert stats["evictions"] == before + 1
        assert get_packed(w, 1_000, 2_000) is not oldest  # was evicted

    def test_recent_use_protects_from_eviction(self, bounded_cache):
        w = by_name("astar")
        first = get_packed(w, 1_000, 2_000)
        get_packed(w, 1_000, 3_000)
        assert get_packed(w, 1_000, 2_000) is first  # moves to MRU
        get_packed(w, 1_000, 4_000)  # evicts the 3_000 window instead
        assert get_packed(w, 1_000, 2_000) is first

    def test_capacity_keyword_resizes(self, bounded_cache):
        w = by_name("astar")
        get_packed(w, 1_000, 2_000)
        get_packed(w, 1_000, 3_000)
        get_packed(w, 1_000, 4_000, capacity=1)
        assert pack_cache_stats()["size"] == 1
        assert pack_cache_stats()["capacity"] == 1

    def test_shrinking_evicts_immediately(self, bounded_cache):
        w = by_name("astar")
        get_packed(w, 1_000, 2_000)
        get_packed(w, 1_000, 3_000)
        before = pack_cache_stats()["evictions"]
        set_pack_cache_capacity(1)
        stats = pack_cache_stats()
        assert stats["size"] == 1
        assert stats["evictions"] == before + 1

    def test_invalid_capacity_rejected(self):
        with pytest.raises(ValueError, match="capacity"):
            set_pack_cache_capacity(0)

    def test_env_var_parsing(self, monkeypatch):
        monkeypatch.delenv("REPRO_PACK_CACHE_CAPACITY", raising=False)
        assert _capacity_from_env() == 32
        monkeypatch.setenv("REPRO_PACK_CACHE_CAPACITY", "5")
        assert _capacity_from_env() == 5
        for bad in ("zero", "0", "-3"):
            monkeypatch.setenv("REPRO_PACK_CACHE_CAPACITY", bad)
            with pytest.raises(ValueError, match="REPRO_PACK_CACHE_CAPACITY"):
                _capacity_from_env()

    def test_eviction_emits_obs_event(self, bounded_cache, caplog):
        import logging

        w = by_name("astar")
        with caplog.at_level(logging.DEBUG, logger="repro.obs"):
            get_packed(w, 1_000, 2_000)
            get_packed(w, 1_000, 3_000)
            get_packed(w, 1_000, 4_000)
        events = [r for r in caplog.records if "pack-cache-eviction" in r.message]
        assert len(events) == 1
        assert "'workload': 'astar'" in events[0].message


class TestPackedSimulation:
    def test_packed_drive_matches_generator(self):
        w = by_name("astar")
        config = SimConfig(
            policy_factory=DiscardPgc, warmup_instructions=4_000, sim_instructions=10_000
        )
        assert result_diff(simulate_generator(w, config), simulate(w, config)) == {}

    def test_packed_drive_matches_generator_high_gap(self):
        # gap overshoot exercises the fast path's epoch/measurement seams
        config = SimConfig(
            policy_factory=DiscardPgc, warmup_instructions=1_500, sim_instructions=3_000
        )
        gen_result = simulate_generator(HighGapWorkload(), config)
        packed_result = simulate(HighGapWorkload(), config)
        assert result_diff(gen_result, packed_result) == {}

    def test_packed_replay_through_generator_drive_matches(self):
        # a PackedWorkload pushed through the *generator* drive loop must
        # also reproduce the original run (the pack is a faithful prefix)
        w = by_name("astar")
        config = SimConfig(
            policy_factory=DiscardPgc, warmup_instructions=2_000, sim_instructions=6_000
        )
        packed = get_packed(w, 2_000, 6_000)
        assert result_diff(simulate(w, config),
                           simulate_generator(packed.replay(), config)) == {}
