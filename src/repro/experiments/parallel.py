"""Parallel, cached execution of experiment-grid cells.

Every grid helper (``run_many``/``run_policies``/the sweeps/the paper
exhibits) lowers its loop nest to a flat list of cells and hands them to
:func:`run_cells`, the one grid pipeline.  A cell is a picklable description
of one simulation: a :class:`Cell` is one (workload × spec × overrides)
point, a :class:`MixCell` one multi-core workload mix.  Both say, through
the same few members, how to run themselves (``execute``), which
``(workload, warmup, sim)`` packs they replay (``packs``), their progress
``label`` and ``policy_name``, and whether a result may be cached
(``cacheable``) or memoised (``memoisable``) — a mix never is.

* ``jobs=None`` (the default) runs the batch on every usable CPU — the
  process's affinity mask, capped by the batch's chunk count — and falls
  back to executing in process, in input order, only for reasons it can
  observe: one usable CPU, at most one pending chunk, timeline/probe
  instruments in ``obs``, or a caller that is itself a grid worker (see
  :func:`resolve_workers`);
* ``jobs=1`` executes the cells in input order, in process;
* ``jobs>1`` dispatches the cells to a :class:`ProcessPoolExecutor` and
  reassembles the results **in input order**, so callers cannot observe the
  scheduling;
* ``cache=`` (a :class:`~repro.experiments.cache.ResultCache`) makes cells
  content-addressed: a cell whose full config + workload seed was already
  simulated — earlier in the same batch, in a previous call, or in a
  previous process — is served from disk instead of re-simulated.  Only
  registry and file workloads (those with a
  :func:`~repro.workloads.packed.stable_identity`) are cached: the
  fingerprint cannot tell two ad-hoc workloads apart that differ only in
  their phases;
* with or without a cache, a cell already simulated *in this process* is
  served from the in-process result memo (see below), so figures that
  share baselines simulate each distinct cell once.

The **result memo** maps :func:`cell_fingerprint` to a private copy of the
cell's :class:`SimResult`, hands out copies, and is LRU-bounded at a fixed
``_MEMO_CAPACITY``.  It serves only registry workloads with ``obs is None``
and ``validate`` off; every other cell always simulates.  The disk cache
is consulted first (its accounting is unchanged) and a memo-served miss is
still stored.  :func:`clear_result_memo` empties it.

Scheduling is **workload-affine**: pending single-core cells are grouped by
workload identity and pack window, and each worker receives whole
per-workload chunks — so it materialises a workload's pack once and
replays it across all of that workload's (prefetcher × policy × params)
cells, instead of thrashing the pack cache by round-robining across
workloads.  Packs never cross a process boundary: a worker packs each
window it replays through :func:`~repro.workloads.packed.get_packed`,
memoised per process, so a window that several chunks replay is packed at
most once per worker, in parallel with the other workers.  A mix is always
its own chunk: a worker steps all of its cores against their shared
LLC+DRAM without interleaving other work, and a mix's policies (identical
pack tuples) still spread over the pool.

Chunks dispatch **costliest-first**: each chunk's wall-clock is estimated as
pack record count × the relative drive-loop weight of its cells' page-cross
policies (:func:`chunk_cost`; a mix counts the records of all its cores),
and the pool drains the estimates in descending order.  On skewed grids —
one 10×-longer workload window, or a handful of heavyweight DRIPPER/PPF
cells amid cheap discard ones — this keeps the long poles from landing
last and serialising the batch tail; on uniform grids it degrades to the
old largest-chunk-first order.

:func:`grid_session` keeps one worker pool alive across several
``run_cells`` batches — every multi-batch paper exhibit wraps its batches
in it, so each forks its pool once instead of once per batch.
Pools never outlive their session: a process-lifetime pool would keep
running code forked before a later monkeypatch or cache clear.

Worker death: if a worker process dies mid-batch (a SIGKILL, the OOM
killer), the batch raises :class:`GridWorkerLost` naming every cell whose
result never landed.  Lost cells leave no memo or cache entry, the broken
pool is dropped, and a rerun starts a fresh one.

Determinism: a simulation is a pure function of (workload identity + seed,
config) — trace generation, large-page allocation, and every replacement
decision are seeded — so parallel results are identical to serial ones, and
cache hits are identical to re-runs (floats survive JSON round-trips
exactly).

Journaling on a pool: the parent's :class:`RunJournal` holds a shared
file handle that is not fork-safe, so each worker chunk appends to its own
JSONL shard (``shard-<pid>-<seq>.jsonl``, closed before the chunk returns)
and the parent merges-and-consumes the shards into its journal once the
batch drains — consuming is what keeps a persistent session's shard
directory from double-counting earlier batches.  Per-cell grid coordinates
travel *in the cell* (``Cell.context``), never by mutating a shared
``Observability`` — which is also what keeps the serial path's records free
of stale coordinates.  Timelines and profiling probes are in-process
instruments: with them a default batch runs in process, and an explicit
``jobs>1`` raises.
"""

from __future__ import annotations

import os
import shutil
import tempfile
from collections import OrderedDict
from concurrent.futures import ProcessPoolExecutor, as_completed
from concurrent.futures.process import BrokenProcessPool
from contextlib import contextmanager
from copy import copy
from dataclasses import asdict, dataclass, replace
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Iterator, Optional, Sequence, Union

from time import perf_counter

from repro.cpu.simulator import SimConfig, SimResult, simulate
from repro.experiments.cache import CACHE_SCHEMA, ResultCache, fingerprint
from repro.experiments.runner import RunSpec, policy_factory
from repro.obs.journal import describe_config, describe_workload
from repro.obs.metrics import MetricsSnapshot, get_metrics, reset_metrics
from repro.obs.progress import GridProgress, ProgressSink
from repro.obs.tracing import Tracer, current_tracer, install_tracer, trace_span
from repro.params import SystemParams
from repro.workloads.packed import clear_pack_cache, stable_identity
from repro.workloads.registry import by_name
from repro.workloads.suites import run_window

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cpu.multicore import MixResult
    from repro.obs import Observability

#: callback fired as each cell's result lands: (cell index, result, cached?);
#: the result is a SimResult for a Cell, a MixResult for a MixCell
ResultHook = Callable[[int, Any, bool], None]

#: in-flight duplicate cells served off a primary cell's fresh entry
#: (the third leg of the result-cache story next to hits/misses)
_COALESCED = get_metrics().counter(
    "result_cache.coalesced", "in-flight duplicate cells coalesced onto a primary")

#: worker processes the most recent batch resolved to (1 = ran in process)
_WORKERS = get_metrics().gauge(
    "grid.workers", "worker processes of the most recent grid batch")
#: batches that ran in process, by why (see resolve_workers)
_SERIAL_BATCHES = get_metrics().counter(
    "grid.serial_batches", "grid batches run in process, by reason")

#: set in every grid worker process by the pool initializer
_IN_WORKER = False


def usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the OS has one."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity API on this platform
        return os.cpu_count() or 1


def _has_in_process_instruments(obs: Optional["Observability"]) -> bool:
    return obs is not None and (obs.timeline is not None or obs.probe is not None)


def resolve_workers(jobs: Optional[int], pending: int,
                    obs: Optional["Observability"] = None) -> tuple[int, Optional[str]]:
    """Worker processes for a batch with ``pending`` cells (or mixes) to run.

    Returns ``(workers, reason)``.  ``reason`` is ``None`` when the batch
    goes to a pool, otherwise why it runs in process: ``"requested"``
    (``jobs=1``), ``"nested"`` (this process is itself a grid worker),
    ``"instruments"`` (a timeline or probe in ``obs``), ``"one-cpu"`` or
    ``"one-chunk"``.  ``jobs=None`` takes every usable CPU; an explicit
    ``jobs`` is honoured as given.  Either is capped by ``pending``: the
    batch plan always cuts at least as many chunks as workers, so this is
    the cap by chunk count.
    """
    if jobs is not None:
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        if jobs == 1:
            return 1, "requested"
    elif _IN_WORKER:
        return 1, "nested"
    elif _has_in_process_instruments(obs):
        return 1, "instruments"
    else:
        jobs = usable_cpus()
        if jobs == 1:
            return 1, "one-cpu"
    if pending <= 1:
        return 1, "one-chunk"
    return min(jobs, pending), None


def _record_batch(workers: int, reason: Optional[str],
                  prog: Optional[GridProgress], cells: int, cached: int) -> None:
    """Publish a batch's resolved worker count (gauge, counter, progress)."""
    _WORKERS.set(workers)
    if reason is not None:
        _SERIAL_BATCHES.inc(reason=reason)
    if prog is not None:
        prog.start(cells, cached, workers=workers, serial_reason=reason)


class GridWorkerLost(RuntimeError):
    """A grid worker process died before the named cells' results landed.

    Nothing is memoised or cached for the lost cells, so rerunning the
    batch simulates exactly them again (and serves the rest from wherever
    they landed).
    """

    def __init__(self, lost: Sequence[str]):
        self.lost = list(lost)
        super().__init__(
            f"a grid worker died; {len(self.lost)} cell(s) produced no result "
            f"and were not cached: {', '.join(self.lost)}")


#: fixed bound on the in-process result memo (a SimResult is ~2 KB, so
#: the full memo stays in the low megabytes)
_MEMO_CAPACITY = 1024

#: cell fingerprint -> private SimResult copy, least recently used first
_RESULT_MEMO: "OrderedDict[str, SimResult]" = OrderedDict()


def clear_result_memo() -> None:
    """Drop every memoised result (test isolation, forked workers)."""
    _RESULT_MEMO.clear()


def _memo_get(key: str) -> Optional[SimResult]:
    result = _RESULT_MEMO.get(key)
    if result is None:
        return None
    _RESULT_MEMO.move_to_end(key)
    return copy(result)


def _memo_put(key: str, result: SimResult) -> None:
    _RESULT_MEMO[key] = copy(result)
    _RESULT_MEMO.move_to_end(key)
    while len(_RESULT_MEMO) > _MEMO_CAPACITY:
        _RESULT_MEMO.popitem(last=False)


@dataclass(frozen=True)
class Cell:
    """One picklable grid cell: workload identity + spec + overrides.

    ``workload`` is a registry name resolved via
    :func:`~repro.workloads.registry.by_name` in whichever process runs the
    cell; non-registry workloads (e.g. a :class:`FileWorkload`) ride along
    as ``workload_obj`` and must themselves be picklable to cross a process
    boundary.  ``policy`` overrides only the policy *factory* (mirroring the
    sweeps' ``replace(config, policy_factory=...)``), leaving every other
    spec-derived knob — e.g. ISO's extra prefetcher storage — untouched.
    """

    workload: str
    spec: RunSpec
    policy: Optional[str] = None
    params: Optional[SystemParams] = None
    epoch_instructions: Optional[int] = None
    #: journal-context entries for this cell (sweep coordinates etc.);
    #: the run's `spec` is always recorded alongside
    context: Optional[dict[str, Any]] = None
    workload_obj: Optional[Any] = None

    def resolve_workload(self) -> Any:
        """The workload object this cell runs (registry lookup by default)."""
        if self.workload_obj is not None:
            return self.workload_obj
        return by_name(self.workload)

    @property
    def policy_name(self) -> str:
        """The page-cross policy this cell runs (override, else the spec's)."""
        return self.policy or self.spec.policy

    def label(self) -> str:
        """Display label for progress lines and lost-cell reports."""
        return self.workload

    @property
    def cacheable(self) -> bool:
        """Whether a ResultCache may store this cell: the fingerprint cannot
        see everything an ad-hoc workload is (its phases, say), so only
        workloads with a stable identity touch the disk."""
        return self.workload_obj is None or stable_identity(self.workload_obj) is not None

    @property
    def memoisable(self) -> bool:
        """Whether the in-process result memo may serve this cell (registry
        workloads with validation off; the batch's ``obs`` must be None)."""
        return self.workload_obj is None and not self.spec.validate

    def packs(self) -> tuple[tuple[Any, int, int], ...]:
        """The ``(workload, warmup, sim)`` pack this cell replays — exactly
        the window ``get_packed`` is called with inside the run."""
        workload = self.resolve_workload()
        return ((workload, *run_window(workload, self.spec.warmup_instructions,
                                       self.spec.sim_instructions)),)

    def execute(self, *, obs: Optional["Observability"] = None) -> SimResult:
        """Simulate this cell in the current process."""
        workload = self.resolve_workload()
        config = build_config(self, workload)
        start = perf_counter()
        with trace_span("cell", category="grid",
                        workload=self.workload, policy=self.policy_name):
            if obs is not None:
                with obs.scoped(spec=asdict(self.spec), **(self.context or {})):
                    result = simulate(workload, config, obs=obs)
            else:
                result = simulate(workload, config, obs=obs)
        _record_cell(perf_counter() - start, result.instructions)
        return result


@dataclass(frozen=True)
class MixCell:
    """One picklable multi-core grid cell: a workload mix + spec + policy.

    ``workloads`` are registry names (mixes come from
    :func:`~repro.workloads.make_mixes`, which draws from the registry), so
    a mix cell crosses process boundaries by name alone.  ``policy``
    overrides only the policy *factory*, exactly like :class:`Cell`.  A mix
    is never cached or memoised: the cacheable unit is the *isolation* run,
    which is an ordinary :class:`Cell`.
    """

    workloads: tuple[str, ...]
    spec: RunSpec
    policy: Optional[str] = None
    mix_id: Optional[int] = None

    cacheable = False
    memoisable = False

    def resolve_workloads(self) -> list[Any]:
        """The workload objects this mix runs, in core order."""
        return [by_name(name) for name in self.workloads]

    @property
    def policy_name(self) -> str:
        """The page-cross policy every core runs (override, else the spec's)."""
        return self.policy or self.spec.policy

    def label(self) -> str:
        """Display label for progress lines (``mix-<id>``)."""
        return f"mix-{self.mix_id}" if self.mix_id is not None else "mix"

    def config(self) -> SimConfig:
        """The mix's shared SimConfig, with the nominal windows
        (:func:`~repro.cpu.multicore.build_mix` sizes each core's)."""
        config = self.spec.base_config()
        if self.policy is not None:
            config.policy_factory = policy_factory(self.policy, self.spec.prefetcher)
        return config

    def packs(self) -> tuple[tuple[Any, int, int], ...]:
        """One ``(workload, warmup, sim)`` pack per core, in core order."""
        return tuple((w, *run_window(w, self.spec.warmup_instructions,
                                     self.spec.sim_instructions))
                     for w in self.resolve_workloads())

    def execute(self, *, obs: Optional["Observability"] = None) -> "MixResult":
        """Simulate this mix in the current process."""
        from repro.cpu.multicore import simulate_mix

        workloads = self.resolve_workloads()
        start = perf_counter()
        with trace_span("mix-cell", category="grid", mix=self.mix_id,
                        policy=self.policy_name, cores=len(workloads)):
            if obs is not None:
                with obs.scoped(spec=asdict(self.spec)):
                    result = simulate_mix(workloads, self.config(), obs=obs,
                                          mix_id=self.mix_id)
            else:
                result = simulate_mix(workloads, self.config(), mix_id=self.mix_id)
        _record_cell(perf_counter() - start, result.instructions)
        return result


#: anything :func:`run_cells` runs
GridCell = Union[Cell, MixCell]


def cell_for(workload: Any, spec: RunSpec, **overrides: Any) -> Cell:
    """Build a Cell, carrying the workload by registry name when possible."""
    identity = stable_identity(workload)
    return Cell(
        workload=getattr(workload, "name", str(workload)),
        spec=spec,
        workload_obj=(None if identity is not None and identity[0] == "registry"
                      else workload),
        **overrides,
    )


def mix_cell_for(mix: Sequence[Any], spec: RunSpec, **overrides: Any) -> MixCell:
    """Build a MixCell from workload objects (carried by registry name)."""
    return MixCell(
        workloads=tuple(getattr(w, "name", str(w)) for w in mix),
        spec=spec,
        **overrides,
    )


def build_config(cell: Cell, workload: Any) -> SimConfig:
    """Materialise the cell's SimConfig exactly as the serial helpers do."""
    config = cell.spec.config_for(workload)
    overrides: dict[str, Any] = {}
    if cell.params is not None:
        overrides["params"] = cell.params
    if cell.policy is not None:
        overrides["policy_factory"] = policy_factory(cell.policy, cell.spec.prefetcher)
    if cell.epoch_instructions is not None:
        overrides["epoch_instructions"] = cell.epoch_instructions
    return replace(config, **overrides) if overrides else config


def cell_fingerprint(cell: Cell, workload: Optional[Any] = None) -> str:
    """Content hash of everything the cell's result depends on.

    Covers the workload identity (name, suite, seed, generator knobs), the
    declarative spec, and the fully materialised config dump — every
    hardware parameter included — so *any* config change invalidates the
    entry.
    """
    if workload is None:
        workload = cell.resolve_workload()
    config = build_config(cell, workload)
    spec_dump = asdict(cell.spec)
    # validation is observational — a validated run returns the identical
    # result, so validated and unvalidated cells share cache entries
    spec_dump.pop("validate", None)
    # sampling, by contrast, changes the result (a reconstruction, not a
    # bit-identical rerun) and so must stay in the fingerprint when set;
    # popped when None so pre-sampling cache entries remain addressable
    if spec_dump.get("sampling") is None:
        spec_dump.pop("sampling", None)
    identity = describe_workload(workload)
    for knob in ("store_fraction", "code_lines", "mispredict_rate",
                 "branch_profile", "pcs_per_pattern", "path"):
        value = getattr(workload, knob, None)
        if value is not None:
            identity[knob] = value
    return fingerprint({
        "schema": CACHE_SCHEMA,
        "workload": identity,
        "spec": spec_dump,
        "policy": cell.policy,
        "config": describe_config(config, policy_name=cell.policy or cell.spec.policy),
    })


_GRID_METRICS = None


def _grid_metrics():
    """Cached (cells, instructions, wall-seconds, cell-seconds) instruments.

    Labelled by pid so merged grid snapshots still expose per-worker
    throughput; ``reset_metrics`` keeps instrument objects alive, so caching
    the references here is safe across a worker-side registry reset.
    """
    global _GRID_METRICS
    if _GRID_METRICS is None:
        reg = get_metrics()
        _GRID_METRICS = (
            reg.counter("grid.cells", "grid cells simulated, by executing pid"),
            reg.counter("grid.instructions",
                        "simulated (measured-region) instructions, by pid"),
            reg.counter("grid.wall_seconds", "wall seconds inside cells, by pid"),
            reg.histogram("grid.cell_seconds", "wall-seconds per grid cell"),
        )
    return _GRID_METRICS


def _record_cell(wall: float, instructions: int) -> None:
    """Account one executed grid cell (single-core or mix) to this pid."""
    cells, simulated, wall_seconds, cell_seconds = _grid_metrics()
    pid = str(os.getpid())
    cells.inc(pid=pid)
    simulated.inc(instructions, pid=pid)
    wall_seconds.inc(wall, pid=pid)
    cell_seconds.observe(wall)


def _record_copies(n: int) -> None:
    """Account ``n`` in-batch duplicates served from cells this pid ran, so
    a batch's per-pid ``grid.cells`` sum to the cells it did not serve
    before dispatch."""
    if n:
        _grid_metrics()[0].inc(n, pid=str(os.getpid()))


# ---------------------------------------------------------------------------
# worker side (module-level so both fork and spawn start methods can pickle it)

_WORKER_SHARD_DIR: Optional[str] = None
_WORKER_SEQ = 0


def _init_worker(shard_dir: Optional[str], trace: bool = False) -> None:
    global _WORKER_SHARD_DIR, _WORKER_SEQ, _IN_WORKER, _SESSION
    _WORKER_SHARD_DIR = shard_dir
    _WORKER_SEQ = 0
    # a grid helper called from inside a cell runs in this process, never
    # on the parent's session, whose pool this fork inherited
    _IN_WORKER = True
    _SESSION = None
    # a forked worker inherits the parent's pack-cache buffers but would
    # repack on first miss anyway (nothing keeps the inherited entries warm
    # across COW); drop them so worker RSS doesn't double — workers never
    # consult the result memo, so drop the inherited copy of that too
    clear_pack_cache()
    clear_result_memo()
    # it also inherits the parent's metric *values* (warm-up packs, earlier
    # batches) — reset them so the per-chunk deltas this worker ships back
    # count only its own work, never the parent's
    reset_metrics()
    # ...and the parent's tracer, whose buffered spans and pid are not this
    # process's; install a fresh worker tracer (or none) in its place
    install_tracer(Tracer(role="worker") if trace else None)


def _chunk_obs() -> Optional["Observability"]:
    """A fresh journal shard for one chunk (closed before the chunk returns).

    Per-chunk (not per-process) shards let a persistent session merge *and
    delete* shards after every batch: a long-lived per-process file would
    still be held open by the worker when the parent consumed it.
    """
    global _WORKER_SEQ
    if _WORKER_SHARD_DIR is None:
        return None
    from repro.obs import Observability, RunJournal

    _WORKER_SEQ += 1
    shard = Path(_WORKER_SHARD_DIR) / f"shard-{os.getpid():08d}-{_WORKER_SEQ:06d}.jsonl"
    return Observability(journal=RunJournal(shard))


def _run_chunk_worker(
    items: Sequence[tuple[int, GridCell]],
    use_journal: bool,
    trace_dir: Optional[str] = None,
    copies: int = 0,
) -> tuple[list[tuple[int, Any]], MetricsSnapshot]:
    """Run one chunk — a workload-affine run of cells, or one mix — in this
    worker process.

    Returns the chunk's results plus a metrics *delta* — everything this
    worker's registry accumulated during the chunk, relative to a snapshot
    taken at entry.  Deltas are commutative, so the parent can merge them in
    completion order.  With ``trace_dir`` set, buffered spans are flushed to
    a per-chunk shard there (the parent absorbs them after the batch).
    ``copies`` in-batch duplicates of the chunk's cells are served from
    their results by the parent; they are accounted to this worker.
    """
    if trace_dir is not None and current_tracer() is None:
        # tracing was enabled after this pool forked (persistent session)
        install_tracer(Tracer(role="worker"))
    registry = get_metrics()
    mark = registry.snapshot()
    obs = _chunk_obs() if use_journal else None
    try:
        out = [(i, cell.execute(obs=obs)) for i, cell in items]
        _record_copies(copies)
    finally:
        if obs is not None:
            obs.close()
    delta = registry.snapshot().delta(mark)
    if trace_dir is not None:
        tracer = current_tracer()
        if tracer is not None:
            tracer.flush_shard(trace_dir)
    return out, delta


# ---------------------------------------------------------------------------
# parent side: grid sessions (persistent pool)


class _GridSession:
    """One worker pool + shard dir, reusable across batches.

    Both are made on first use, so a session whose batches all run in
    process forks nothing.
    """

    def __init__(self) -> None:
        self.shard_dir: Optional[str] = None
        self.trace_dir: Optional[str] = None
        self._pool: Optional[ProcessPoolExecutor] = None
        self._workers = 0

    def pool(self, workers: int) -> ProcessPoolExecutor:
        """A worker pool of at least ``workers`` processes (forked lazily)."""
        if self._pool is not None and self._workers < workers:
            self.drop_pool()
        if self._pool is None:
            if self.shard_dir is None:
                self.shard_dir = tempfile.mkdtemp(prefix="repro-shards-")
                # trace shards live in a subdirectory so the journal's shard
                # merge (non-recursive glob over shard_dir) never sees them
                self.trace_dir = os.path.join(self.shard_dir, "trace")
                os.makedirs(self.trace_dir, exist_ok=True)
            self._pool = ProcessPoolExecutor(
                max_workers=workers,
                initializer=_init_worker,
                initargs=(self.shard_dir, current_tracer() is not None),
            )
            self._workers = workers
        return self._pool

    def drop_pool(self) -> None:
        """Shut the pool down (a broken one included); the next batch forks anew."""
        if self._pool is not None:
            self._pool.shutdown(cancel_futures=True)
            self._pool = None

    def close(self) -> None:
        """Shut the pool down and drop the shard dir."""
        self.drop_pool()
        if self.shard_dir is not None:
            shutil.rmtree(self.shard_dir, ignore_errors=True)


_SESSION: Optional[_GridSession] = None


@contextmanager
def grid_session(jobs: Optional[int] = None) -> Iterator[Optional[_GridSession]]:
    """Reuse one worker pool across every ``run_cells`` batch inside.

    The multi-batch paper exhibits wrap their batches in this, so a grid
    spanning several batches forks its workers once.  Nesting is a no-op
    (the outermost session wins), as are ``jobs=1`` and running inside a
    grid worker.
    """
    global _SESSION
    if _SESSION is not None or (jobs is not None and jobs <= 1) or _IN_WORKER:
        yield _SESSION
        return
    session = _GridSession()
    _SESSION = session
    try:
        yield session
    finally:
        _SESSION = None
        session.close()


def _affine_groups(
    cells: Sequence[Cell], pending: Sequence[int]
) -> list[tuple[list[int], Any, int, int]]:
    """Group pending single-core cell indices by the pack they replay.

    Returns ``(indices, workload, warmup, sim)`` per group, in first-seen
    order.  The window is :meth:`Cell.packs`'s, so per-suite adjustments
    like QMM half-length windows are respected.
    """
    groups: dict[tuple, tuple[list[int], Any, int, int]] = {}
    for i in pending:
        ((workload, warmup, sim),) = cells[i].packs()
        key = (id(workload), warmup, sim)
        if key not in groups:
            groups[key] = ([], workload, warmup, sim)
        groups[key][0].append(i)
    return list(groups.values())


#: relative drive-loop cost per page-cross policy, against the discard
#: baseline — adaptive policies run filter lookups and epoch threshold
#: feedback on top of the shared memory-system work, PPF evaluates a
#: perceptron per page-cross candidate.  Coarse by design: scheduling only
#: needs the *ordering* of chunk estimates, not their absolute scale, so
#: unknown names defaulting to 1.0 is safe.
_POLICY_COST = {
    "discard": 1.0, "discard-pgc": 1.0, "discard-ptw": 1.0,
    "permit": 1.1, "permit-pgc": 1.1, "iso": 1.1, "iso-storage": 1.1,
    "dripper": 1.3, "dripper-sf": 1.4,
    "ppf": 1.6, "ppf+dthr": 1.6, "ppf-dthr": 1.6,
}


def policy_cost_weight(name: str) -> float:
    """Relative drive-loop weight of one page-cross policy (1.0 = discard)."""
    return _POLICY_COST.get(name.lower(), 1.0)


def chunk_cost(cells: Sequence[GridCell], indices: Sequence[int],
               records: int) -> float:
    """Estimated wall-clock weight of one chunk.

    ``records`` is the chunk's estimated pack length (every cell replays
    the whole pack, so per-cell work is proportional to it; for a mix, the
    record mass of all its cores); each cell contributes
    ``records × policy_cost_weight(policy)``.  Used to dispatch chunks
    costliest-first — see the module docstring.
    """
    return float(records) * sum(
        policy_cost_weight(cells[i].policy_name) for i in indices)


#: one planned chunk: ([(index, cell)], estimated cost)
_Chunk = tuple[list[tuple[int, GridCell]], float]


def _plan_chunks(cells: Sequence[GridCell], pending: Sequence[int],
                 workers: int) -> list[_Chunk]:
    """Cut a pool batch's pending cells into chunks (see the module docstring).

    Each workload's run of single-core cells is split into chunks small
    enough to load-balance, but a chunk never spans workloads.  A mix is
    always its own chunk, so a batch's mixes spread over the pool even when
    they replay identical packs (one mix, many policies).  A chunk's record
    count is estimated from its pack windows (records ≈ instructions for
    gap-light traces).
    """
    chunk_size = max(1, -(-len(pending) // (workers * 2)))
    singles = [i for i in pending if isinstance(cells[i], Cell)]
    chunks: list[_Chunk] = []
    for indices, _workload, warmup, sim in _affine_groups(cells, singles):
        for at in range(0, len(indices), chunk_size):
            piece = indices[at:at + chunk_size]
            chunks.append(([(i, cells[i]) for i in piece],
                           chunk_cost(cells, piece, warmup + sim)))
    chunks.extend(([(i, cells[i])],
                   chunk_cost(cells, [i], sum(warmup + sim
                                              for _w, warmup, sim in cells[i].packs())))
                  for i in pending if not isinstance(cells[i], Cell))
    return chunks


def _dispatch_chunks(
    workers: int,
    obs: Optional["Observability"],
    prog: Optional[GridProgress],
    finish: Callable[[int, Any], None],
    chunks: Sequence[_Chunk],
    describe: Callable[[int], str],
    copies: Optional[dict[int, list[int]]] = None,
) -> None:
    """The pool half of :func:`run_cells`.

    The chunks are submitted to the session's pool costliest-first; each
    landed result goes through ``finish``.  ``copies`` maps a cell to its
    in-batch duplicates, which ``finish`` serves and its worker accounts.
    Worker metric deltas, journal shards and trace shards are merged back
    into this process.  A dead worker raises :class:`GridWorkerLost` naming
    (via ``describe``) every cell that did not land.
    """
    if _has_in_process_instruments(obs):
        raise ValueError(
            "timeline/probe instruments are in-process only; run with jobs=1 "
            "or pass an Observability bundle with just a journal"
        )
    journal = obs.journal if obs is not None else None
    session = _SESSION
    ephemeral = session is None
    if ephemeral:
        session = _GridSession()
    try:
        pool = session.pool(workers)
        trace_dir = session.trace_dir if current_tracer() is not None else None
        copies = copies or {}
        futures = {
            pool.submit(_run_chunk_worker, items, journal is not None, trace_dir,
                        sum(len(copies.get(i, ())) for i, _ in items)):
                [i for i, _ in items]
            for items, _cost in sorted(chunks, key=lambda chunk: -chunk[1])
        }
        registry = get_metrics()
        landed_futures = set()
        for future in as_completed(futures):
            try:
                landed, delta = future.result()
            except BrokenProcessPool as exc:
                lost = sorted(i for f, indices in futures.items()
                              if f not in landed_futures for i in indices)
                session.drop_pool()
                if prog is not None:
                    prog.cell_failed(lost, exc)
                raise GridWorkerLost([describe(i) for i in lost]) from exc
            except BaseException as exc:
                if prog is not None:
                    prog.cell_failed(futures[future], exc)
                raise
            landed_futures.add(future)
            # deltas are commutative/associative, so completion order —
            # which varies run to run — cannot change the merged totals
            registry.merge(delta)
            for i, result in landed:
                finish(i, result)
        # a worker-side batch may have set the gauge in a merged delta
        _WORKERS.set(workers)
        if journal is not None:
            from repro.obs.journal import merge_shards

            obs.runs += merge_shards(journal, session.shard_dir, consume=True)
    finally:
        tracer = current_tracer()
        if tracer is not None and session.trace_dir is not None:
            tracer.absorb_shards(session.trace_dir)
        if ephemeral:
            session.close()


def run_cells(
    cells: Sequence[GridCell],
    *,
    jobs: Optional[int] = None,
    cache: Optional[ResultCache] = None,
    obs: Optional["Observability"] = None,
    on_result: Optional[ResultHook] = None,
    progress: Optional[ProgressSink] = None,
) -> list[Any]:
    """Execute a batch of cells; results come back in input order.

    A :class:`Cell` yields a :class:`SimResult`, a :class:`MixCell` a
    :class:`~repro.cpu.multicore.MixResult`; one batch may hold both, and
    one plan cuts them into chunks for one pool.
    ``jobs=None`` runs on every usable CPU unless the batch has to run in
    process (:func:`resolve_workers`); ``on_result`` and ``progress`` then
    fire in completion order.  Cacheable cells are looked up by fingerprint
    in the cache (when given), then — if memoisable (see the module
    docstring) — in the in-process result memo.  Identical cells of one
    batch that either can serve are coalesced: the first occurrence
    simulates, the rest are served from its result (they count as cached),
    so a batch simulates each distinct cell once on a pool too.  Only
    simulated cells are journaled — the journal stays a log of actual
    simulations, while cache stats account for the saved ones.

    ``progress`` (see :mod:`repro.obs.progress`) receives one structured
    event per grid milestone: batch start (with the resolved worker count),
    each landed cell (with ETA and aggregate throughput), failed chunks,
    and batch end.
    """
    cells = list(cells)
    if jobs is not None and jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    results: list[Any] = [None] * len(cells)
    keys: list[Optional[str]] = [None] * len(cells)
    memo = [obs is None and cell.memoisable for cell in cells]
    cacheable = [cache is not None and cell.cacheable for cell in cells]
    duplicates: dict[int, list[int]] = {}
    pending: list[int] = []
    primary: dict[str, int] = {}

    for i, cell in enumerate(cells):
        if not cacheable[i] and not memo[i]:
            pending.append(i)
            continue
        key = keys[i] = cell_fingerprint(cell)
        if key in primary:  # identical in-flight cell
            duplicates.setdefault(primary[key], []).append(i)
            continue
        hit = cache.get(key) if cacheable[i] else None
        if hit is None and memo[i]:
            hit = _memo_get(key)
            if hit is not None and cacheable[i]:
                cache.put(key, hit, meta={"workload": cell.workload})
        if hit is not None:
            results[i] = hit
            if on_result is not None:
                on_result(i, hit, True)
            continue
        primary[key] = i
        pending.append(i)

    workers, serial_reason = resolve_workers(jobs, len(pending), obs)
    prog = GridProgress(progress) if progress is not None else None
    _record_batch(workers, serial_reason, prog, len(cells),
                  sum(1 for r in results if r is not None))

    def finish(i: int, result: Any) -> None:
        results[i] = result
        if cacheable[i]:
            cache.put(keys[i], result, meta={"workload": cells[i].workload})
        if memo[i]:
            _memo_put(keys[i], result)
        if on_result is not None:
            on_result(i, result, False)
        if prog is not None:
            prog.cell_finish(i, cells[i].label(), cells[i].policy_name,
                             cached=False, instructions=result.instructions)
        for dup in duplicates.get(i, ()):
            dup_result = cache.get(keys[dup]) if cacheable[dup] else None
            results[dup] = dup_result if dup_result is not None else copy(result)
            _COALESCED.inc()
            if on_result is not None:
                on_result(dup, results[dup], True)
            if prog is not None:
                prog.cell_finish(dup, cells[dup].label(), cells[dup].policy_name,
                                 cached=True,
                                 instructions=results[dup].instructions)

    if workers <= 1:
        for i in pending:
            if prog is not None:
                prog.cell_start(i, cells[i].label(), cells[i].policy_name)
            finish(i, cells[i].execute(obs=obs))
            _record_copies(len(duplicates.get(i, ())))
    else:
        _dispatch_chunks(workers, obs, prog, finish, _plan_chunks(cells, pending, workers),
                         lambda i: f"#{i} {cells[i].label()}/{cells[i].policy_name}",
                         duplicates)

    missing = [i for i, r in enumerate(results) if r is None]
    if missing:  # pragma: no cover - defensive; every path above fills results
        raise RuntimeError(f"cells {missing} produced no result")
    if prog is not None:
        prog.end()
    return results
