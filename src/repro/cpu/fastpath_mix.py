"""Resumable fused core stepper for the multi-core mix drive loop.

The mix scheduler (:func:`repro.cpu.multicore._drive_mix_packed`) steps
cores in retire-clock order: pop the furthest-behind core from a min-heap,
run it until its ``(retire_t, index)`` reaches the heap's next entry, push
it back.  Driving each of those bursts through ``engine.step`` pays the
full slow-path dispatch per record, so a packed mix ran no faster than the
generator mix — the whole point of attaching packed columns was lost.

:func:`core_stepper` fixes that by running each core through the *fused*
record kernel of :mod:`repro.cpu.fastpath` — the same statement-for-
statement replication of ``engine.step``'s hot path, with the same
slow-path fallbacks — wrapped in a **generator coroutine** so the kernel's
hoisted locals survive across scheduling switches.  A plain function would
have to re-hoist ~50 loop invariants and reload the timeline scalars on
every burst (bursts are short: a few records between heap switches); a
generator parks at a bare ``yield`` instead, keeping every local alive, so
switching cores costs one ``send()``.

Protocol (driven by ``_drive_mix_packed``)::

    gen = core_stepper(engine, pack, workload, warm_limit, sim_limit, i)
    next(gen)                          # run the hoists, park before record 0
    event, t = gen.send((bound_t, bound_i))   # run until an event:
    #   ("bound", retire_t)  — (retire_t, i) reached the bound; the caller
    #                          pushes (retire_t, i) and schedules another
    #                          core; resuming continues from the same spot
    #   ("finish", retire_t) — the measured region just completed; engine
    #                          scalars are flushed so the caller can collect
    #                          the result; resuming starts the replay
    gen.close()                        # flush scalars back to the engine

Every ``send`` carries the current bound ``(bound_t, bound_i)``: the core
may keep stepping while ``(retire_t, i) < (bound_t, bound_i)``, which is
exactly the condition under which re-pushing and popping the heap would
return the same core again.

Bit-identity with the generator mix loop holds by composition:

* the per-record body is the fused kernel, already proven equal to
  ``engine.step`` record-for-record (single-core differential checks);
* event placement matches the reference loop's per-record checks — warm-up
  begins at the first record boundary at or after ``warm_limit``
  (``begin_measurement`` is looked up per call, so an attached
  :class:`~repro.validate.InvariantChecker`'s wrapper still fires), the
  finish event fires when the measured region completes, and the bound
  check runs after each record including the finishing one;
* replay restart is a fresh pass over the columns; a replay that outruns a
  complete pack continues on the overflow stream advanced past the packed
  prefix — precisely the stream the generator loop would be consuming —
  fed through the *same* fused body (the kernel's contract holds for any
  record, packed or live; replaying cores spend most of their time here,
  so leaving this tail on ``engine.step`` would forfeit the speedup),
  wrapping to record 0 when that finite stream ends.  Incomplete packs
  hold the entire source trace and simply wrap.  The overflow stream is
  memoised per workload identity (:class:`_OverflowTail`): regenerating
  prefix + tail is the dominant non-simulation cost of a cell, and the
  records are seed-deterministic, so later cells of the same mix replay
  cached tuples instead of re-running the source generator.

The timeline scalars are flushed to the engine at every point the outside
world may look at it — epoch rollovers, ``begin_measurement``, the finish
event, and generator close — and only then.
"""

from __future__ import annotations

from collections import OrderedDict, deque
from itertools import chain, islice
from typing import TYPE_CHECKING, Iterator

from repro.cpu.branch import DEFAULT_HISTORY_LENGTHS, HashedPerceptronBranchPredictor
from repro.cpu.fastpath import _lru_fusible, _make_fused_dispatch
from repro.prefetch.next_line import NextLinePrefetcher
from repro.vm.address import LINE_SHIFT, PAGE_4K_SHIFT, PAGE_2M_SHIFT
from repro.vm.page_table import Translation
from repro.workloads.packed import PackedTrace, stable_identity
from repro.workloads.trace import BRANCH, DEPENDS, LOAD, MISPREDICT, STORE, TAKEN

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cpu.core import CoreEngine
    from repro.workloads.synthetic import SyntheticWorkload
    from repro.workloads.trace import Record

__all__ = ["core_stepper", "clear_overflow_tails"]

_INF = float("inf")


def _overflow_iterator(workload: "SyntheticWorkload", skip: int) -> Iterator["Record"]:
    """A fresh record stream advanced past the first ``skip`` records.

    A replaying core that exhausts its (complete) pack is, in generator-loop
    terms, consuming records ``skip, skip+1, ...`` of a fresh
    ``workload.generate()`` stream — records the pack never materialised.
    """
    it = iter(workload.generate())
    deque(islice(it, skip), maxlen=0)
    return it


class _OverflowTail:
    """Memoised overflow stream shared by every stepper of one workload.

    Regenerating the overflow tail is the dominant non-simulation cost of a
    packed mix cell: the source generator must replay the whole packed
    prefix (to advance its pattern/RNG state) and then re-produce every
    tail record, once per cell — and a mix study runs the same mix under
    several policies.  Records are deterministic per workload identity, so
    the tail is generated once per process and appended here; later cells
    (and same-workload cores within a cell) replay the cached tuples.

    Consumers hold their own cursor into ``records``; whoever runs off the
    cached end pulls the shared ``source`` forward and appends.  Steppers
    are coroutines on one thread, so there is no append race — a consumer
    only yields control *between* records.
    """

    __slots__ = ("workload", "skip", "records", "source", "exhausted")

    def __init__(self, workload: "SyntheticWorkload", skip: int) -> None:
        self.workload = workload
        self.skip = skip
        self.records: list["Record"] = []
        #: created on first use so the prefix replay is deferred (and paid
        #: exactly once) — mirrors the lazy `_overflow_records` wrapper
        self.source: Iterator["Record"] | None = None
        self.exhausted = False


#: per-entry cap on memoised tail records (32 B-per-field tuples; ~0.5 M
#: records keeps the worst entry around tens of MB) — a replay running past
#: the cap falls back to a private regenerated stream
_TAIL_RECORD_CAP = 1 << 19

#: FIFO-bounded cache: identity key -> _OverflowTail
_TAIL_CACHE: OrderedDict[tuple, _OverflowTail] = OrderedDict()
_TAIL_CACHE_CAPACITY = 8


def clear_overflow_tails() -> None:
    """Drop every memoised overflow tail (test isolation hook)."""
    _TAIL_CACHE.clear()


def _tail_key(workload: "SyntheticWorkload", skip: int) -> tuple | None:
    """Identity key for the tail cache, or None when caching is unsafe.

    Uses the pack cache's rule (:func:`repro.workloads.packed.stable_identity`):
    registry and file-backed workloads regenerate deterministically, so
    their tails can be shared; anything else would need id-keyed weakref
    pinning — not worth it for a pure performance cache, so those streams
    just stay uncached.
    """
    identity = stable_identity(workload)
    return None if identity is None else (*identity, skip)


def _tail_records(workload: "SyntheticWorkload", skip: int) -> Iterator["Record"]:
    """The overflow stream, served from (and growing) the shared tail cache.

    Yields exactly the records ``_overflow_iterator(workload, skip)`` would:
    the cached span first, then freshly generated records which are appended
    as they are produced.  Past ``_TAIL_RECORD_CAP`` the consumer continues
    on a private stream advanced beyond everything already served.
    """
    key = _tail_key(workload, skip)
    if key is None:
        yield from _overflow_iterator(workload, skip)
        return
    tail = _TAIL_CACHE.get(key)
    if tail is None:
        tail = _OverflowTail(workload, skip)
        _TAIL_CACHE[key] = tail
        while len(_TAIL_CACHE) > _TAIL_CACHE_CAPACITY:
            _TAIL_CACHE.popitem(last=False)
    records = tail.records
    i = 0
    while True:
        n = len(records)
        while i < n:
            yield records[i]
            i += 1
        if tail.exhausted:
            return
        if i >= _TAIL_RECORD_CAP:
            yield from _overflow_iterator(workload, skip + i)
            return
        if tail.source is None:
            tail.source = _overflow_iterator(workload, skip)
        try:
            rec = next(tail.source)
        except StopIteration:
            tail.exhausted = True
            return
        records.append(rec)
        yield rec
        i += 1


def core_stepper(engine: "CoreEngine", packed: PackedTrace,
                 workload: "SyntheticWorkload", warm_limit: int,
                 sim_limit: int, core_index: int):
    """Build the resumable fused stepper for one mix core (see module doc).

    The record body below replicates :func:`repro.cpu.fastpath._drive_fused`
    statement-for-statement; only the loop plumbing differs (indexed replay
    over the columns, event yields instead of a single warm-up/stop
    threshold).  Keep the two in sync.
    """
    # ---- loop-invariant hoists (== _drive_fused) -------------------------
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

    pcs_col, vaddrs_col = packed.pcs, packed.vaddrs
    flags_col, gaps_col = packed.flags, packed.gaps
    pack_len = len(packed)
    pack_complete = packed.complete
    core = core_index

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
    #: warm-up limit until measurement begins, then the absolute finish
    #: point, then +inf while the finished core replays
    boundary = warm_limit

    def _overflow_records():
        # the skip inside the overflow stream regenerates the packed prefix
        # (to advance the source's pattern/RNG state), so defer it until a
        # pass actually outruns the pack; complete packs finish on their
        # last record, so this tail is only ever reached while replaying.
        # _tail_records memoises the stream so the regeneration is paid
        # once per workload per process, not once per cell.
        if pack_complete:
            yield from _tail_records(workload, pack_len)

    bound_t, bound_i = yield ("ready", 0.0)
    strict = bound_i < core
    try:
        while True:
            restart = False
            for pc, vaddr, flag, gap in chain(
                    zip(pcs_col, vaddrs_col, flags_col, gaps_col),
                    _overflow_records()):
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

                # warm-up / finish boundary (same per-record checks, in the
                # same order, as the generator mix loop)
                if instructions >= boundary:
                    if not measuring:
                        engine.instructions = instructions
                        engine.fetch_t = fetch_t
                        engine.retire_t = retire_t
                        engine._rob_head_retire = rob_head_retire
                        engine._rob_block_end = rob_block_end
                        engine.rob_stall_cycles = rob_stall
                        engine._last_load_complete = last_load_complete
                        engine._last_iline = last_iline
                        # attribute lookup on purpose: an InvariantChecker
                        # wraps engine.begin_measurement at attach time
                        engine.begin_measurement()
                        measuring = True
                        boundary = instructions + sim_limit
                    if instructions >= boundary:
                        # measured region complete: flush so the caller can
                        # collect the result, then replay from record 0
                        engine.instructions = instructions
                        engine.fetch_t = fetch_t
                        engine.retire_t = retire_t
                        engine._rob_head_retire = rob_head_retire
                        engine._rob_block_end = rob_block_end
                        engine.rob_stall_cycles = rob_stall
                        engine._last_load_complete = last_load_complete
                        engine._last_iline = last_iline
                        bound_t, bound_i = yield ("finish", retire_t)
                        strict = bound_i < core
                        boundary = _INF
                        if retire_t > bound_t or (strict and retire_t == bound_t):
                            bound_t, bound_i = yield ("bound", retire_t)
                            strict = bound_i < core
                        restart = True
                        break

                # scheduling bound: (retire_t, core) vs the heap's next entry
                if retire_t > bound_t or (strict and retire_t == bound_t):
                    bound_t, bound_i = yield ("bound", retire_t)
                    strict = bound_i < core

            if restart:
                continue
            # source exhausted — a finite trace ran out — wrap to record 0
            # (== the generator loop's StopIteration restart)
    finally:
        engine.instructions = instructions
        engine.fetch_t = fetch_t
        engine.retire_t = retire_t
        engine._rob_head_retire = rob_head_retire
        engine._rob_block_end = rob_block_end
        engine.rob_stall_cycles = rob_stall
        engine._last_load_complete = last_load_complete
        engine._last_iline = last_iline
