"""Batched drive loop over packed traces (the simulation hot path).

:func:`drive_packed` is a drop-in replacement for
:func:`repro.cpu.simulator.drive` that consumes a
:class:`~repro.workloads.packed.PackedTrace` instead of a generator and
iterates with the engine's timeline scalars hoisted into locals.  The
dominant per-record case — same I-line, dTLB hit, L1 hit under LRU — is
fully fused inline: the exact side effects of :meth:`Tlb.lookup`,
:meth:`Cache.lookup`, and the hierarchy hit timing are replicated
statement-for-statement (same statistics increments, same LRU ticks, same
float operation order), so a fused run is bit-identical to the generator
path.  Anything else falls back to the unmodified slow machinery:

* epoch rollovers stay on the fused loop: the record runs through the fused
  body, then the hoisted scalars are flushed and
  :meth:`CoreEngine._end_epoch` fires inline — exactly the tail of
  :meth:`CoreEngine.step` — so epoch statistics, the policy's ``on_epoch``
  feed, and any ``epoch_listener`` see exactly the state they would in a
  generator-driven run;
* TLB misses call the engine's ``_translate_data`` / ``_translate_instruction``
  (the fused probe is side-effect-free, so the full lookup inside them
  counts the miss exactly once);
* cache misses — and every access when a cache's replacement policy is not
  plain-LRU-on-hit — call the hierarchy's ``load``/``store``/``ifetch``;
* prefetch candidates dispatch through a fused replica of
  ``CoreEngine._dispatch_prefetches`` with the stock
  :class:`~repro.core.filter.PerceptronFilter` decision inlined (weight
  reads, system-feature gating, threshold compare) and the in-flight-miss
  recount made lazy — see :func:`_make_fused_dispatch`; any policy,
  threshold, or seam the replica was not built for falls back to the
  engine's dispatch unchanged;
* a profiled engine (``engine.probe`` set) disables fusion entirely and
  runs a step-per-record loop, so probe timings still cover every seam.

The measurement window follows the fixed drive-loop semantics: warm-up ends
at the first record boundary at or after ``warmup_instructions``, and the
loop runs until ``measured_instructions >= sim_instructions``.
"""

from __future__ import annotations

from time import perf_counter

from repro.core.filter import PerceptronFilter
from repro.core.thresholds import AdaptiveThreshold, StaticThreshold
from repro.core.update_buffers import TrainingRecord
from repro.cpu.branch import DEFAULT_HISTORY_LENGTHS, HashedPerceptronBranchPredictor
from repro.cpu.core import CoreEngine
# one ``fused``/``stepwise`` increment per drive entry; the hot loop itself
# stays untouched
from repro.cpu.simulator import DRIVES as _DRIVES
from repro.mem.replacement import LruPolicy
from repro.prefetch.next_line import NextLinePrefetcher
from repro.vm.address import LINE_SHIFT, PAGE_4K_SHIFT, PAGE_2M_SHIFT, VA_MASK
from repro.vm.page_table import Translation
from repro.workloads.packed import PackedTrace
from repro.workloads.trace import BRANCH, DEPENDS, LOAD, MISPREDICT, STORE, TAKEN

__all__ = ["drive_packed"]


def _lru_fusible(cache) -> bool:
    """True when the cache's hit-promotion is exactly LruPolicy.on_hit.

    Covers ``lru`` and ``pa-lru`` (which overrides only ``on_fill``); any
    policy with its own ``on_hit`` (SRRIP, BRRIP, random, a future custom
    policy) routes every access through the normal lookup path instead.
    """
    policy = cache._policy
    return isinstance(policy, LruPolicy) and type(policy).on_hit is LruPolicy.on_hit


def _make_fused_dispatch(engine: CoreEngine):
    """A fused replica of :meth:`CoreEngine._dispatch_prefetches`, or None.

    Inlines the stock :class:`PerceptronFilter` decision — stage-1 weight
    reads, stage-2 system-feature gating, stage-3/4 threshold compare — and
    makes the in-flight-miss recount *lazy*: ``state.l1d_inflight_misses``
    is consumed solely by :meth:`AdaptiveThreshold.effective`'s ROB-pressure
    override, and only after ``rob_stall_fraction`` clears its gate, so the
    O(outstanding) MSHR scan runs exactly when that first condition holds
    instead of eagerly before every decision.  Every counter, statistic, and
    training event is replicated statement-for-statement, so a fused run is
    bit-identical to the engine's dispatch.

    Returns None — keeping the engine's dispatch — whenever an assumption
    might not hold: a policy that is not a plain ``PerceptronFilter``
    (Permit/Discard/DiscardPtw, subclasses overriding ``decide``), an
    instance-patched ``decide`` or engine seam, or a threshold that is not
    exactly ``StaticThreshold``/``AdaptiveThreshold``.
    """
    policy = engine.policy
    if not isinstance(policy, PerceptronFilter):
        return None
    if type(policy).decide is not PerceptronFilter.decide:
        return None
    seam = engine._policy_decide
    if (getattr(seam, "__func__", None) is not PerceptronFilter.decide
            or getattr(seam, "__self__", None) is not policy):
        return None
    threshold = policy.threshold
    adaptive = type(threshold) is AdaptiveThreshold
    if not adaptive and type(threshold) is not StaticThreshold:
        return None

    h = engine.hierarchy
    l1d = h.l1d
    l1d_sets, l1d_set_mask = l1d._sets, l1d._set_mask
    prefetch_l1d = h.prefetch_l1d
    in_flight = l1d.in_flight_misses
    pgc = engine.pgc
    state = engine.system_state
    fctx = engine.fctx
    dtlb, stlb = engine.dtlb, engine.stlb
    dtlb_lookup, stlb_lookup = dtlb.lookup, stlb.lookup
    dtlb_insert, stlb_insert = dtlb.insert, stlb.insert
    dtlb_lat_f = float(dtlb.latency)
    stlb_lat = stlb.latency
    walk_fn = engine._walk
    on_discarded, on_issued = policy.on_discarded, policy.on_issued
    filter_native = getattr(policy, "filter_at_native_boundary", False)
    requires_hit = policy.requires_translation_hit
    lazy_inflight = adaptive and policy.wants_inflight_feature
    rob_gate = threshold.config.rob_stall_high if adaptive else 0.0
    effective = threshold.effective
    feats = [(feature.index, table.weights, table.index_bits)
             for feature, table in zip(policy.features, policy.tables)]
    single = feats[0] if len(feats) == 1 else None
    overrides = policy.config.system_thresholds
    gates = [
        (spec.name, spec.getter, spec.direction == "<",
         spec.default_threshold if overrides.get(spec.name) is None
         else overrides[spec.name],
         policy.sys_weights[spec.name])
        for spec in policy.sys_specs
    ]
    LS = LINE_SHIFT
    S4 = PAGE_4K_SHIFT

    def dispatch(requests, trigger_vaddr, trigger_tr, t, pc):
        trigger_page = trigger_vaddr >> S4
        native_shift = trigger_tr.page_shift
        tr_base = trigger_tr.pfn << native_shift
        tr_off_mask = trigger_tr.page_bytes - 1
        trigger_native_vpn = trigger_vaddr >> native_shift
        for req in requests:
            target = req.vaddr & VA_MASK
            req.vaddr = target
            if (target >> S4) == trigger_page:
                # in-page prefetch: same frame, no policy involvement
                paddr = tr_base | (target & tr_off_mask)
                pline = paddr >> LS
                if l1d_sets[pline & l1d_set_mask].get(pline) is None:
                    prefetch_l1d(paddr, t)
                continue
            pgc.candidates += 1
            same_translation = (target >> native_shift) == trigger_native_vpn
            if same_translation:
                pgc.same_translation += 1
            if same_translation and filter_native:
                record = None
            else:
                # fused PerceptronFilter.decide (Figure 6, stages 1-4)
                policy.predictions += 1
                if single is not None:
                    idx = single[0](req, fctx, single[2])
                    total = single[1][idx]
                    indexes = (idx,)
                else:
                    ilist = []
                    total = 0
                    for f_index, weights, index_bits in feats:
                        idx = f_index(req, fctx, index_bits)
                        ilist.append(idx)
                        total += weights[idx]
                    indexes = tuple(ilist)
                active: list = []
                for g_name, g_getter, g_lt, g_thr, g_counter in gates:
                    value = g_getter(state)
                    if (value < g_thr) if g_lt else (value > g_thr):
                        total += g_counter.value
                        active.append(g_name)
                if adaptive:
                    # AdaptiveThreshold.effective is *called* (it mutates
                    # disable_events on the LLC-disable path); only the
                    # in-flight recount it may read is refreshed lazily
                    if lazy_inflight and state.rob_stall_fraction > rob_gate:
                        state.l1d_inflight_misses = in_flight(t)
                    eff = effective(state)
                else:
                    eff = threshold.value
                record = TrainingRecord(indexes, tuple(active))
                if total > eff:
                    policy.permits += 1
                else:
                    pgc.discarded += 1
                    on_discarded(target >> LS, record)
                    continue
            if same_translation:
                # 4KB-cross within a 2MB page: translation already in hand
                paddr = tr_base | (target & tr_off_mask)
                trans_lat = 0.0
            else:
                tr = dtlb_lookup(target, speculative=True)
                trans_lat = dtlb_lat_f
                if tr is None:
                    tr = stlb_lookup(target, speculative=True)
                    if tr is not None:
                        trans_lat += stlb_lat
                if tr is None:
                    if requires_hit:
                        pgc.discarded += 1
                        pgc.discarded_no_translation += 1
                        on_discarded(target >> LS, record)
                        continue
                    walk = walk_fn(target, t + trans_lat, speculative=True)
                    trans_lat += walk.latency
                    tr = walk.translation
                    stlb_insert(tr, from_prefetch=True)
                    dtlb_insert(tr, from_prefetch=True)
                paddr = tr.physical(target)
            pgc.issued += 1
            prefetch_l1d(paddr, t + trans_lat, pcb=True)
            on_issued(paddr >> LS, record)

    return dispatch


def _raise_if_truncated(engine: CoreEngine, packed: PackedTrace, measuring: bool,
                        warm_limit: int, sim_limit: int) -> None:
    if not measuring:
        raise ValueError(
            f"workload {packed.name!r} ended after {engine.instructions} instructions, "
            f"before the {warm_limit}-instruction warm-up completed"
        )
    if engine.measured_instructions < sim_limit:
        raise ValueError(
            f"workload {packed.name!r} ended after {engine.instructions} instructions, "
            f"truncating the measured region to "
            f"{engine.measured_instructions} of the requested "
            f"{sim_limit} instructions"
        )


def _drive_stepwise(engine: CoreEngine, packed: PackedTrace, warm_limit: int,
                    sim_limit: int) -> float:
    """Packed records through the full step() — used when a probe is attached."""
    step = engine.step
    measuring = False
    wall_start = perf_counter()
    for pc, vaddr, flags, gap in packed.records():
        step(pc, vaddr, flags, gap)
        if not measuring and engine.instructions >= warm_limit:
            engine.begin_measurement()
            measuring = True
        if measuring and engine.measured_instructions >= sim_limit:
            break
    wall_seconds = perf_counter() - wall_start
    _raise_if_truncated(engine, packed, measuring, warm_limit, sim_limit)
    return wall_seconds


def drive_packed(engine: CoreEngine, packed: PackedTrace, config) -> float:
    """Feed a packed trace through a built engine (warm-up + measured region).

    Returns wall-clock seconds spent, like :func:`repro.cpu.simulator.drive`;
    raises the same :class:`ValueError` on an incomplete warm-up or a
    truncated measured region.  Behaviour (every statistic, every timestamp)
    is identical to driving the same records through ``engine.step``.
    """
    if engine.probe is not None:
        # profiled run: fusion would bypass the probe's timed seams
        _DRIVES.inc(mode="stepwise")
        return _drive_stepwise(engine, packed,
                               config.warmup_instructions,
                               config.sim_instructions)
    _DRIVES.inc(mode="fused")
    return _drive_fused(engine, packed, config)


def _drive_fused(engine: CoreEngine, packed: PackedTrace, config) -> float:
    """The fused record-at-a-time kernel (no mode accounting of its own).

    Shared by :func:`drive_packed` and — for event records and ineligible
    engines — :func:`repro.cpu.fastpath_vec.drive_packed_vec`.
    """
    warm_limit = config.warmup_instructions
    sim_limit = config.sim_instructions

    # ---- loop-invariant hoists ------------------------------------------
    end_epoch = engine._end_epoch
    h = engine.hierarchy
    l1d = h.l1d
    l1i = h.l1i
    l1d_sets, l1d_mask = l1d._sets, l1d._set_mask
    l1i_sets, l1i_mask = l1i._sets, l1i._set_mask
    l1d_stats, l1d_demand = l1d.stats, l1d.demand_stats
    l1i_stats, l1i_demand = l1i.stats, l1i.demand_stats
    l1d_pol, l1i_pol = l1d._policy, l1i._policy
    l1d_fused = _lru_fusible(l1d)
    l1i_fused = _lru_fusible(l1i)
    l1d_listener, l1i_listener = l1d.listener, l1i.listener
    l1d_lat, l1i_lat = l1d.latency, l1i.latency
    l1d_lat_f, l1i_lat_f = float(l1d_lat), float(l1i_lat)
    dtlb, itlb = engine.dtlb, engine.itlb
    dtlb_sets, dtlb_mask, dtlb_stats = dtlb._sets, dtlb._set_mask, dtlb.stats
    itlb_sets, itlb_mask, itlb_stats = itlb._sets, itlb._set_mask, itlb.stats
    dtlb_lat_f = float(dtlb.latency)
    itlb_lat = itlb.latency
    itlb_lat_f = float(itlb_lat)
    translate_data = engine._translate_data
    translate_instr = engine._translate_instruction
    mem_load, mem_store, mem_ifetch = engine._mem_load, engine._mem_store, engine._mem_ifetch
    pf_on_access = engine._pf_on_access
    dispatch_pf = _make_fused_dispatch(engine) or engine._dispatch_prefetches
    fctx = engine.fctx
    fctx_seen = fctx._seen_pages
    fctx_cap = fctx._seen_cap
    fctx_ph = fctx.pc_history
    fctx_vh = fctx.va_history
    bp = engine.branch_predictor
    bp_predict = bp.predict_and_train
    # perceptron fusion needs the default geometric history set (the index
    # hashes below are unrolled for exactly those five slice lengths)
    bp_fused = (type(bp) is HashedPerceptronBranchPredictor
                and bp.history_lengths == DEFAULT_HISTORY_LENGTHS)
    if bp_fused:
        bt0, bt1, bt2, bt3, bt4 = bp.tables
        bp_imask = bp.index_mask
        bp_thr = bp.threshold
        bp_lo, bp_hi = bp.weight_lo, bp.weight_hi
    policy_on_demand_miss = engine.policy.on_demand_miss
    pf_on_fill = engine.prefetcher.on_fill
    l2pf = engine.l2_prefetcher
    prefetch_l2 = h.prefetch_l2
    l1i_pf = engine.l1i_prefetcher
    l1i_pf_on_fetch = l1i_pf.on_fetch
    l1i_nl_fused = type(l1i_pf) is NextLinePrefetcher and l1i_pf.degree == 2
    prefetch_l1i = h.prefetch_l1i
    fetch_cpi = engine._fetch_cpi
    retire_cpi = engine._retire_cpi
    rob_entries = engine._rob
    mispredict_penalty = engine._mispredict_penalty
    rob_q = engine._rob_q
    rob_popleft = rob_q.popleft
    rob_append = rob_q.append
    LS = LINE_SHIFT
    S4, S2 = PAGE_4K_SHIFT, PAGE_2M_SHIFT
    F_MEM = LOAD | STORE

    # ---- hoisted timeline scalars ---------------------------------------
    instructions = engine.instructions
    fetch_t = engine.fetch_t
    retire_t = engine.retire_t
    rob_head_retire = engine._rob_head_retire
    rob_block_end = engine._rob_block_end
    rob_stall = engine.rob_stall_cycles
    last_load_complete = engine._last_load_complete
    last_iline = engine._last_iline
    next_epoch = engine._next_epoch
    measuring = False
    measure_start = 0
    #: single per-record boundary compare: the warm-up limit until measurement
    #: begins, then the absolute stop point (measure_start + sim_limit)
    threshold = warm_limit

    wall_start = perf_counter()
    for pc, vaddr, flag, gap in zip(packed.pcs, packed.vaddrs, packed.flags, packed.gaps):
        instructions = n = instructions + 1 + gap

        # front end
        fetch_t += (1 + gap) * fetch_cpi
        iline = pc >> LS
        if iline != last_iline:
            last_iline = iline
            vpn = pc >> S4
            entry = itlb_sets[vpn & itlb_mask].get((vpn, S4))
            shift = S4
            if entry is None:
                vpn = pc >> S2
                entry = itlb_sets[vpn & itlb_mask].get((vpn, S2))
                shift = S2
            if entry is not None:
                # fused iTLB hit (== Tlb.lookup's hit arm)
                itlb._tick = t_k = itlb._tick + 1
                itlb_stats.accesses += 1
                itlb_stats.hits += 1
                entry[1] = t_k
                if entry[2]:
                    itlb.prefetch_hits += 1
                    entry[2] = False
                ilat = itlb_lat_f
                ibase = (entry[0] << shift) | (pc & ((1 << shift) - 1))
                itr_shift = shift
            else:
                # side-effect-free probe missed: the full path records it
                ilat, itr = translate_instr(pc, fetch_t)
                ibase = itr.physical(pc)
                itr_shift = itr.page_shift
            t_i = fetch_t + ilat
            fline = ibase >> LS
            iset = l1i_sets[fline & l1i_mask]
            blk = iset.get(fline)
            if blk is not None and l1i_fused:
                # fused L1I hit (== Cache.lookup + ifetch's hit arm)
                l1i_stats.accesses += 1
                l1i_stats.hits += 1
                l1i_demand.accesses += 1
                l1i_demand.hits += 1
                l1i_pol._tick = p_k = l1i_pol._tick + 1
                blk.lru = p_k
                del iset[fline]
                iset[fline] = blk
                if blk.prefetched and blk.hits == 0:
                    l1i.prefetch_useful += 1
                    if blk.pcb:
                        l1i.pgc_useful += 1
                        if l1i_listener is not None:
                            l1i_listener.on_pcb_hit(fline)
                blk.hits += 1
                flat = blk.ready - t_i
                if flat < l1i_lat_f:
                    flat = l1i_lat_f
            else:
                flat = mem_ifetch(ibase, t_i)
            penalty = (ilat - itlb_lat) + (flat - l1i_lat)
            if penalty > 0:
                fetch_t += penalty
            if l1i_nl_fused:
                # fused next-line I-prefetcher (== on_fetch, degree 2);
                # prefetch_l1i returns without side effects on a resident
                # line, so probing here skips the call entirely
                if fline != l1i_pf._last_line:
                    l1i_pf._last_line = fline
                    nline = fline + 1
                    if l1i_sets[nline & l1i_mask].get(nline) is None:
                        prefetch_l1i(nline << LS, fetch_t)
                    nline = fline + 2
                    if l1i_sets[nline & l1i_mask].get(nline) is None:
                        prefetch_l1i(nline << LS, fetch_t)
            else:
                for target_line in l1i_pf_on_fetch(fline):
                    prefetch_l1i(target_line << LS, fetch_t)
            extra_lines = (gap * 4) >> LS
            if extra_lines:
                page_mask = (1 << itr_shift) - 1
                frame_left = (page_mask - (ibase & page_mask)) >> LS
                if extra_lines > frame_left:
                    extra_lines = frame_left
                if extra_lines > 8:
                    extra_lines = 8
                for k in range(1, extra_lines + 1):
                    flat = mem_ifetch(ibase + (k << LS), fetch_t)
                    if flat > l1i_lat:
                        fetch_t += flat - l1i_lat

        # dispatch: ROB occupancy constraint
        limit = n - rob_entries
        while rob_q and rob_q[0][0] <= limit:
            rob_head_retire = rob_popleft()[1]
        dispatch = fetch_t
        if rob_head_retire > dispatch:
            blocked_from = dispatch if dispatch > rob_block_end else rob_block_end
            if rob_head_retire > blocked_from:
                rob_stall += rob_head_retire - blocked_from
                rob_block_end = rob_head_retire
            dispatch = rob_head_retire
        if flag & DEPENDS and last_load_complete > dispatch:
            dispatch = last_load_complete

        # memory access
        if flag & F_MEM:
            vpn = vaddr >> S4
            entry = dtlb_sets[vpn & dtlb_mask].get((vpn, S4))
            shift = S4
            if entry is None:
                vpn = vaddr >> S2
                entry = dtlb_sets[vpn & dtlb_mask].get((vpn, S2))
                shift = S2
            if entry is not None:
                # fused dTLB hit; Translation built lazily below
                dtlb._tick = t_k = dtlb._tick + 1
                dtlb_stats.accesses += 1
                dtlb_stats.hits += 1
                entry[1] = t_k
                if entry[2]:
                    dtlb.prefetch_hits += 1
                    entry[2] = False
                tr = None
                tr_vpn, tr_pfn, tr_shift = vpn, entry[0], shift
                paddr = (tr_pfn << shift) | (vaddr & ((1 << shift) - 1))
                t_mem = dispatch + dtlb_lat_f
            else:
                trans_lat, tr = translate_data(vaddr, dispatch)
                paddr = tr.physical(vaddr)
                t_mem = dispatch + trans_lat
            line = paddr >> LS
            dset = l1d_sets[line & l1d_mask]
            blk = dset.get(line)
            if flag & LOAD:
                if blk is not None and l1d_fused:
                    # fused L1D load hit (== Cache.lookup + load's hit arm)
                    l1d_stats.accesses += 1
                    l1d_stats.hits += 1
                    l1d_demand.accesses += 1
                    l1d_demand.hits += 1
                    l1d_pol._tick = p_k = l1d_pol._tick + 1
                    blk.lru = p_k
                    del dset[line]
                    dset[line] = blk
                    if blk.prefetched and blk.hits == 0:
                        l1d.prefetch_useful += 1
                        if blk.pcb:
                            l1d.pgc_useful += 1
                            if l1d_listener is not None:
                                l1d_listener.on_pcb_hit(line)
                    blk.hits += 1
                    if blk.ready > t_mem + l1d_lat:
                        if blk.prefetched and blk.hits == 1:
                            l1d.prefetch_late += 1
                        mlat = blk.ready - t_mem
                    else:
                        mlat = l1d_lat_f
                    complete = t_mem + mlat
                    last_load_complete = complete
                    hit = True
                else:
                    mlat, hit = mem_load(paddr, t_mem)
                    complete = t_mem + mlat
                    last_load_complete = complete
                    if not hit:
                        policy_on_demand_miss(vaddr >> LS)
                        pf_on_fill(vaddr, mlat)
                        if l2pf is not None:
                            for l2line in l2pf.on_access(paddr >> LS, t_mem):
                                prefetch_l2(l2line << LS, t_mem)
            else:
                if blk is not None and l1d_fused:
                    # fused L1D store hit (== Cache.lookup + store's hit arm)
                    l1d_stats.accesses += 1
                    l1d_stats.hits += 1
                    l1d_demand.accesses += 1
                    l1d_demand.hits += 1
                    l1d_pol._tick = p_k = l1d_pol._tick + 1
                    blk.lru = p_k
                    del dset[line]
                    dset[line] = blk
                    if blk.prefetched and blk.hits == 0:
                        l1d.prefetch_useful += 1
                        if blk.pcb:
                            l1d.pgc_useful += 1
                            if l1d_listener is not None:
                                l1d_listener.on_pcb_hit(line)
                    blk.hits += 1
                    blk.dirty = True
                    complete = t_mem + l1d_lat_f
                else:
                    complete = t_mem + mem_store(paddr, t_mem)
                hit = True
            # fused FeatureContext.update (move-to-end seen-page LRU)
            fctx._seen_tick = f_tick = fctx._seen_tick + 1
            page = vaddr >> S4
            if page in fctx_seen:
                fctx.first_page_access = False
                del fctx_seen[page]
            else:
                fctx.first_page_access = True
                if len(fctx_seen) >= fctx_cap:
                    del fctx_seen[next(iter(fctx_seen))]
            fctx_seen[page] = f_tick
            fctx_ph[2] = fctx_ph[1]
            fctx_ph[1] = fctx_ph[0]
            fctx_ph[0] = pc
            fctx_vh[2] = fctx_vh[1]
            fctx_vh[1] = fctx_vh[0]
            fctx_vh[0] = vaddr
            fctx.last_pc = pc
            fctx.last_vaddr = vaddr
            requests = pf_on_access(pc, vaddr, hit, t_mem)
            if requests:
                if tr is None:
                    tr = Translation(tr_vpn, tr_pfn, tr_shift)
                dispatch_pf(requests, vaddr, tr, t_mem, pc)
        else:
            complete = dispatch + 1.0

        # branch resolution
        mispredicted = flag & MISPREDICT
        if flag & BRANCH:
            if bp_fused:
                # fused hashed perceptron (== predict_and_train, unrolled
                # for the default (0, 4, 8, 16, 32) history slices)
                bpc = pc + 0x3C
                taken = (flag & TAKEN) != 0
                ghr = bp.ghr
                i0 = (bpc ^ (bpc >> 13)) & bp_imask
                hx = bpc ^ ((ghr & 0xF) * 0x9E3779B1)
                i1 = (hx ^ (hx >> 13)) & bp_imask
                hx = bpc ^ ((ghr & 0xFF) * 0x9E3779B1)
                i2 = (hx ^ (hx >> 13)) & bp_imask
                hx = bpc ^ ((ghr & 0xFFFF) * 0x9E3779B1)
                i3 = (hx ^ (hx >> 13)) & bp_imask
                hx = bpc ^ ((ghr & 0xFFFFFFFF) * 0x9E3779B1)
                i4 = (hx ^ (hx >> 13)) & bp_imask
                total = bt0[i0] + bt1[i1] + bt2[i2] + bt3[i3] + bt4[i4]
                bp.predictions += 1
                correct = (total >= 0) == taken
                if not correct:
                    bp.mispredictions += 1
                    mispredicted = True
                if not correct or -bp_thr <= total <= bp_thr:
                    if taken:
                        w = bt0[i0]
                        if w < bp_hi:
                            bt0[i0] = w + 1
                        w = bt1[i1]
                        if w < bp_hi:
                            bt1[i1] = w + 1
                        w = bt2[i2]
                        if w < bp_hi:
                            bt2[i2] = w + 1
                        w = bt3[i3]
                        if w < bp_hi:
                            bt3[i3] = w + 1
                        w = bt4[i4]
                        if w < bp_hi:
                            bt4[i4] = w + 1
                    else:
                        w = bt0[i0]
                        if w > bp_lo:
                            bt0[i0] = w - 1
                        w = bt1[i1]
                        if w > bp_lo:
                            bt1[i1] = w - 1
                        w = bt2[i2]
                        if w > bp_lo:
                            bt2[i2] = w - 1
                        w = bt3[i3]
                        if w > bp_lo:
                            bt3[i3] = w - 1
                        w = bt4[i4]
                        if w > bp_lo:
                            bt4[i4] = w - 1
                bp.ghr = ((ghr << 1) | taken) & 0xFFFFFFFFFFFFFFFF
            else:
                correct = bp_predict(pc + 0x3C, bool(flag & TAKEN))
                if not correct:
                    mispredicted = True
        if mispredicted:
            resolve_at = complete if flag & DEPENDS else dispatch + 8.0
            resolve = resolve_at + mispredict_penalty
            if resolve > fetch_t:
                fetch_t = resolve

        # in-order retirement
        retire = retire_t + (1 + gap) * retire_cpi
        if complete > retire:
            retire = complete
        retire_t = retire
        rob_append((n, retire))

        if n >= next_epoch:
            # epoch rollover, inline (== the tail of step()): flush the
            # hoisted scalars the epoch hooks may read, fire _end_epoch
            # (threshold/policy on_epoch feed, epoch_listener tick), then
            # reload in case a listener advanced the engine
            engine.instructions = instructions
            engine.fetch_t = fetch_t
            engine.retire_t = retire_t
            engine._rob_head_retire = rob_head_retire
            engine._rob_block_end = rob_block_end
            engine.rob_stall_cycles = rob_stall
            engine._last_load_complete = last_load_complete
            engine._last_iline = last_iline
            end_epoch()
            instructions = engine.instructions
            fetch_t = engine.fetch_t
            retire_t = engine.retire_t
            rob_head_retire = engine._rob_head_retire
            rob_block_end = engine._rob_block_end
            rob_stall = engine.rob_stall_cycles
            last_load_complete = engine._last_load_complete
            last_iline = engine._last_iline
            next_epoch = engine._next_epoch

        # warm-up / measurement boundary (same ordering as drive())
        if instructions >= threshold:
            if measuring:
                break
            engine.instructions = instructions
            engine.fetch_t = fetch_t
            engine.retire_t = retire_t
            engine._rob_head_retire = rob_head_retire
            engine._rob_block_end = rob_block_end
            engine.rob_stall_cycles = rob_stall
            engine._last_load_complete = last_load_complete
            engine._last_iline = last_iline
            engine.begin_measurement()
            measuring = True
            measure_start = instructions
            threshold = measure_start + sim_limit
            if instructions >= threshold:
                break
    wall_seconds = perf_counter() - wall_start

    engine.instructions = instructions
    engine.fetch_t = fetch_t
    engine.retire_t = retire_t
    engine._rob_head_retire = rob_head_retire
    engine._rob_block_end = rob_block_end
    engine.rob_stall_cycles = rob_stall
    engine._last_load_complete = last_load_complete
    engine._last_iline = last_iline
    _raise_if_truncated(engine, packed, measuring, warm_limit, sim_limit)
    return wall_seconds
