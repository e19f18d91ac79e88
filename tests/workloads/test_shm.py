"""Shared-memory pack store: publish/attach equality, spill, lifecycle."""

import pytest

from repro.core.policies import DiscardPgc
from repro.cpu.simulator import SimConfig, simulate
from repro.validate import result_diff, simulate_generator
from repro.workloads import by_name
from repro.workloads.packed import clear_pack_cache, get_packed, pack_cache_stats
from repro.workloads.shm import (
    SharedPackStore,
    attach_pack,
    detach_all,
    install_attachments,
    live_segments,
)
from repro.workloads.trace_io import FileWorkload, snapshot_workload


@pytest.fixture(autouse=True)
def _clean_state():
    yield
    detach_all()
    clear_pack_cache()


class _AnonymousWorkload:
    """No seed, no path: keyed by object id, never publishable."""

    name = "anon"
    suite = "TEST"

    def generate(self):  # pragma: no cover - never run
        return iter(())


class _EmptyWorkload:
    """Seeded (publishable key) but yields nothing: an empty pack."""

    name = "empty"
    suite = "TEST"
    seed = 7

    def generate(self):
        return iter(())


class TestPublish:
    def test_attached_pack_matches_local_pack(self):
        with SharedPackStore() as store:
            w = by_name("astar")
            handle = store.publish(w, 1_000, 2_000)
            assert handle is not None and handle.kind == "shm"
            local = get_packed(w, 1_000, 2_000)
            attached = attach_pack(handle)
            assert list(attached.pcs) == list(local.pcs)
            assert list(attached.vaddrs) == list(local.vaddrs)
            assert list(attached.flags) == list(local.flags)
            assert list(attached.gaps) == list(local.gaps)
            assert (attached.instructions, attached.complete) == (
                local.instructions, local.complete)
            detach_all()

    def test_publish_dedupes_by_identity(self):
        with SharedPackStore() as store:
            w = by_name("astar")
            first = store.publish(w, 1_000, 2_000)
            assert store.publish(w, 1_000, 2_000) is first
            assert store.publish(w, 1_000, 3_000) is not first
            assert len(store.handles()) == 2

    def test_anonymous_workload_not_published(self):
        with SharedPackStore() as store:
            assert store.publish(_AnonymousWorkload(), 100, 200) is None
            assert store.handles() == []

    def test_empty_pack_not_published(self):
        with SharedPackStore() as store:
            assert store.publish(_EmptyWorkload(), 100, 200) is None

    def test_spill_file_roundtrip(self, tmp_path):
        # spill_bytes=0 forces every pack onto the mmap-file path
        with SharedPackStore(spill_bytes=0, spill_dir=str(tmp_path)) as store:
            w = by_name("astar")
            handle = store.publish(w, 1_000, 2_000)
            assert handle.kind == "file"
            local = get_packed(w, 1_000, 2_000)
            attached = attach_pack(handle)
            assert list(attached.records()) == list(local.records())
            detach_all()
        assert list(tmp_path.glob("repro-pack-*")) == []  # close() unlinked

    def test_close_unlinks_segments_and_rejects_publish(self):
        store = SharedPackStore()
        handle = store.publish(by_name("astar"), 1_000, 2_000)
        assert handle.ref in live_segments()
        store.close()
        store.close()  # idempotent
        assert live_segments() == []
        with pytest.raises(RuntimeError, match="closed"):
            store.publish(by_name("astar"), 1_000, 2_000)


class TestSharedProvider:
    def test_attachments_bypass_local_cache(self):
        with SharedPackStore() as store:
            w = by_name("astar")
            handle = store.publish(w, 1_000, 2_000)
            clear_pack_cache()  # publish() itself warmed the local cache
            install_attachments([handle])
            before = pack_cache_stats()
            packed = get_packed(w, 1_000, 2_000)
            after = pack_cache_stats()
            assert packed is attach_pack(handle)
            assert after["size"] == 0  # never entered the local LRU
            assert (after["hits"], after["misses"]) == (before["hits"], before["misses"])
            detach_all()

    def test_detach_uninstalls_provider(self):
        with SharedPackStore() as store:
            w = by_name("astar")
            handle = store.publish(w, 1_000, 2_000)
            clear_pack_cache()
            install_attachments([handle])
            shared = get_packed(w, 1_000, 2_000)
            detach_all()
            local = get_packed(w, 1_000, 2_000)
            assert local is not shared  # packed locally again
            assert pack_cache_stats()["size"] == 1


class TestShmSimulation:
    """Satellite: finite traces behave identically on all three replay paths."""

    def _file_workload(self, tmp_path, instructions):
        path = tmp_path / "trace.rptr"
        snapshot_workload(by_name("astar"), path, instructions=instructions)
        return FileWorkload(path)

    def _config(self, warmup, sim):
        return SimConfig(policy_factory=DiscardPgc, warmup_instructions=warmup,
                         sim_instructions=sim)

    def test_complete_window_identical_on_all_paths(self, tmp_path):
        w = self._file_workload(tmp_path, instructions=12_000)
        generator = simulate_generator(w, self._config(1_000, 3_000))
        packed = simulate(w, self._config(1_000, 3_000))
        assert result_diff(generator, packed) == {}
        with SharedPackStore() as store:
            handle = store.publish(w, 1_000, 3_000)
            assert handle is not None  # path-keyed, hence publishable
            clear_pack_cache()
            install_attachments([handle])
            shared = simulate(w, self._config(1_000, 3_000))
            assert result_diff(generator, shared) == {}
            detach_all()

    def test_truncated_window_same_error_on_all_paths(self, tmp_path):
        # the snapshot ends mid-measurement: every path must raise the same
        # truncation error, not silently under-measure
        w = self._file_workload(tmp_path, instructions=4_000)
        with pytest.raises(ValueError, match="truncating") as generator:
            simulate_generator(w, self._config(2_000, 6_000))
        with pytest.raises(ValueError, match="truncating") as packed:
            simulate(w, self._config(2_000, 6_000))
        assert str(packed.value) == str(generator.value)
        with SharedPackStore() as store:
            handle = store.publish(w, 2_000, 6_000)
            assert handle is not None and not handle.complete
            clear_pack_cache()
            install_attachments([handle])
            with pytest.raises(ValueError, match="truncating") as shared:
                simulate(w, self._config(2_000, 6_000))
            assert str(shared.value) == str(generator.value)
            detach_all()


class TestStaleReaper:
    """Segments orphaned by a SIGKILLed owner are reclaimed, live ones kept."""

    def test_dead_owner_segment_is_reaped(self):
        from multiprocessing import shared_memory

        from repro.workloads.shm import live_segments, reap_stale_segments

        # fabricate an orphan: no process can own pid 2**22+1 on this box
        # (beyond default pid_max ordering is irrelevant — just not alive)
        dead_pid = 2 ** 22 + 1
        name = f"repro-pack-{dead_pid}-0"
        seg = shared_memory.SharedMemory(create=True, size=64, name=name)
        seg.close()
        try:
            assert name in live_segments()
            assert reap_stale_segments() >= 1
            assert name not in live_segments()
        finally:
            try:
                seg.unlink()
            except FileNotFoundError:
                pass

    def test_live_owner_segment_survives(self):
        import os
        from multiprocessing import shared_memory

        from repro.workloads.shm import live_segments, reap_stale_segments

        name = f"repro-pack-{os.getpid()}-999999"
        seg = shared_memory.SharedMemory(create=True, size=64, name=name)
        seg.close()
        try:
            reap_stale_segments()
            assert name in live_segments()
        finally:
            seg.unlink()

    def test_store_creation_sweeps_orphans(self):
        from multiprocessing import shared_memory

        from repro.workloads.shm import SharedPackStore, live_segments

        name = f"repro-pack-{2 ** 22 + 2}-0"
        seg = shared_memory.SharedMemory(create=True, size=64, name=name)
        seg.close()
        try:
            with SharedPackStore():
                assert name not in live_segments()
        finally:
            try:
                seg.unlink()
            except FileNotFoundError:
                pass
