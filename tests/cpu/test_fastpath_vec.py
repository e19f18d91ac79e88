"""Vectorized span-skipping kernel tier: equality, gating, metrics, shm."""

import gc
from dataclasses import replace

import pytest

from repro.core.policies import DiscardPgc, PermitPgc
from repro.cpu.simulator import SimConfig, simulate
from repro.obs.metrics import get_metrics
from repro.params import DEFAULT_PARAMS
from repro.validate import result_diff
from repro.workloads import by_name
from repro.workloads.packed import clear_pack_cache, install_shared_provider
from repro.workloads.shm import SharedPackStore, detach_all, install_attachments


def config(**overrides):
    base = dict(
        prefetcher="none", policy_factory=DiscardPgc,
        warmup_instructions=2_000, sim_instructions=6_000,
    )
    base.update(overrides)
    return SimConfig(**base)


class TestVectorizedEquality:
    @pytest.mark.parametrize("name", ["hot_0", "hot_3", "astar"])
    def test_matches_fused(self, name):
        w = by_name(name)
        fused = simulate(w, config())
        vec = simulate(w, config(kernel="vectorized"))
        assert result_diff(fused, vec) == {}

    def test_matches_fused_across_short_epochs(self):
        # spans run across many rollovers; the deferred per-segment commit
        # must feed each epoch hook boundary-exact counters
        w = by_name("hot_0")
        fused = simulate(w, config(epoch_instructions=512))
        vec = simulate(w, config(epoch_instructions=512, kernel="vectorized"))
        assert result_diff(fused, vec) == {}

    def test_matches_fused_with_epoch_listener(self):
        # validate=True chains an epoch_listener: spans must clip at epoch
        # boundaries and the residency proofs must drop after each rollover
        w = by_name("hot_0")
        fused = simulate(w, config(validate=True))
        vec = simulate(w, config(validate=True, kernel="vectorized"))
        assert result_diff(fused, vec) == {}

    def test_matches_fused_with_permit_policy(self):
        w = by_name("hot_1")
        fused = simulate(w, config(policy_factory=PermitPgc))
        vec = simulate(w, config(policy_factory=PermitPgc, kernel="vectorized"))
        assert result_diff(fused, vec) == {}


class TestDelegation:
    def test_real_prefetcher_delegates_to_fused(self):
        w = by_name("astar")
        fused = simulate(w, config(prefetcher="berti"))
        vec = simulate(w, config(prefetcher="berti", kernel="vectorized"))
        assert result_diff(fused, vec) == {}

    def test_non_lru_replacement_delegates(self):
        params = replace(DEFAULT_PARAMS,
                         l1d=replace(DEFAULT_PARAMS.l1d, replacement="srrip"))
        w = by_name("hot_0")
        fused = simulate(w, config(params=params))
        vec = simulate(w, config(params=params, kernel="vectorized"))
        assert result_diff(fused, vec) == {}

    def test_unknown_kernel_rejected(self):
        with pytest.raises(ValueError, match="kernel tier"):
            simulate(by_name("hot_0"), config(kernel="turbo"))


class TestDriveMetric:
    def test_vectorized_mode_counted(self):
        drives = get_metrics().counter("sim.drives")
        before = drives.value(mode="vectorized")
        simulate(by_name("hot_0"), config(kernel="vectorized"))
        assert drives.value(mode="vectorized") == before + 1

    def test_delegated_run_counts_tier_selection(self):
        # the metric records tier *selection*: a delegating run increments
        # the vectorized series, not the fused one
        drives = get_metrics().counter("sim.drives")
        before_vec = drives.value(mode="vectorized")
        before_fused = drives.value(mode="fused")
        simulate(by_name("hot_0"),
                 config(prefetcher="berti", kernel="vectorized"))
        assert drives.value(mode="vectorized") == before_vec + 1
        assert drives.value(mode="fused") == before_fused


class TestAutoKernel:
    def test_probe_predicts_by_event_density(self):
        from repro.cpu.fastpath_vec import predict_vec_win
        from repro.workloads.packed import get_packed

        # hot_0 is a near-pure hot loop (≈0 event density, 5.75x on the
        # span kernel per BENCH_0006); astar is event-dense (0.61x)
        assert predict_vec_win(get_packed(by_name("hot_0"), 2_000, 6_000))
        assert not predict_vec_win(get_packed(by_name("astar"), 2_000, 6_000))

    def test_empty_pack_reports_false(self):
        from repro.cpu.fastpath_vec import predict_vec_win
        from repro.workloads.packed import PackedTrace, get_packed

        p = get_packed(by_name("hot_0"), 2_000, 6_000)
        empty = PackedTrace(p.name, p.suite, p.pcs[:0], p.vaddrs[:0],
                            p.flags[:0], p.gaps[:0], warmup=0, sim=0,
                            instructions=0, complete=False)
        assert not predict_vec_win(empty)

    @pytest.mark.parametrize("name", ["hot_0", "astar"])
    def test_auto_matches_fused(self, name):
        # both probe outcomes: hot_0 routes vectorized, astar routes fused
        w = by_name(name)
        fused = simulate(w, config())
        auto = simulate(w, config(kernel="auto"))
        assert result_diff(fused, auto) == {}

    def test_auto_counts_tier_actually_chosen(self):
        drives = get_metrics().counter("sim.drives")

        before = drives.value(mode="vectorized")
        simulate(by_name("hot_0"), config(kernel="auto"))
        assert drives.value(mode="vectorized") == before + 1

        before = drives.value(mode="fused")
        simulate(by_name("astar"), config(kernel="auto"))
        assert drives.value(mode="fused") == before + 1

    def test_auto_respects_engine_capability(self):
        # a winning pack still runs fused when the engine disqualifies
        # (berti is a real L1D prefetcher, so the span predicate is unsound)
        drives = get_metrics().counter("sim.drives")
        before_vec = drives.value(mode="vectorized")
        before_fused = drives.value(mode="fused")
        simulate(by_name("hot_0"), config(prefetcher="berti", kernel="auto"))
        assert drives.value(mode="vectorized") == before_vec
        assert drives.value(mode="fused") == before_fused + 1


class TestShmAttachedPacks:
    def test_vectorized_over_attached_pack_matches(self):
        w = by_name("hot_0")
        local = simulate(w, config(kernel="vectorized"))
        try:
            with SharedPackStore() as store:
                handle = store.publish(w, 2_000, 6_000)
                assert handle is not None
                clear_pack_cache()
                install_attachments([handle])
                attached = simulate(w, config(kernel="vectorized"))
        finally:
            install_shared_provider(None)
            clear_pack_cache()
            # the attached PackedTrace can sit in a reference cycle; its
            # column views must be collected before the segment closes
            gc.collect()
            detach_all()
        assert result_diff(local, attached) == {}
