"""Live grid progress: structured events from ``run_cells`` + a renderer.

:func:`repro.experiments.parallel.run_cells` accepts a ``progress`` sink — a
callable receiving one plain-dict event per grid milestone — and drives it
through a :class:`GridProgress`, which stamps every event with completion
counts, elapsed wall time, an ETA extrapolated from the observed per-cell
rate, and aggregate throughput (cells/s and simulated instructions/s).

Event names and fields:

* ``grid-start`` — ``cells`` (batch size), ``cached`` (served before any
  simulation), ``pending`` (cells that will actually run), ``workers``
  (worker processes the batch resolved to; 1 = in process) and
  ``serial_reason`` (why it runs in process, ``None`` on a pool — see
  :func:`repro.experiments.parallel.resolve_workers`);
* ``cell-start`` — ``index``, ``workload``, ``policy`` (serial execution
  only: a pool worker's start is not observable from the parent);
* ``cell-finish`` — ``index``, ``workload``, ``policy``, ``cached``,
  ``instructions``, ``done``/``cells``, ``elapsed``, ``eta_seconds``,
  ``cells_per_second``, ``instructions_per_second``;
* ``cell-failed`` — ``indices`` (the failed chunk's cells), ``error``;
* ``grid-end`` — ``cells``, ``cached``, ``elapsed``, final throughput.

Events are plain data so they can drive a terminal renderer
(:func:`progress_printer`), a log forwarder, or a future async job API
without re-deriving anything from simulator state.
"""

from __future__ import annotations

import sys
from time import perf_counter
from typing import Any, Callable, Optional, TextIO

__all__ = ["GridProgress", "ProgressSink", "progress_printer"]

#: a progress sink receives one structured event dict per milestone
ProgressSink = Callable[[dict[str, Any]], None]


class GridProgress:
    """Builds structured progress events for one ``run_cells`` batch."""

    def __init__(self, sink: ProgressSink):
        self.sink = sink
        self.cells = 0
        self.done = 0
        self.cached = 0
        self.failed = 0
        self.instructions = 0
        self._t0 = perf_counter()

    def _emit(self, event: str, **fields: Any) -> None:
        payload = {"event": event, **fields}
        self.sink(payload)

    def start(self, cells: int, cached: int, *, workers: int = 1,
              serial_reason: Optional[str] = None) -> None:
        self.cells = cells
        self.done = self.cached = cached
        self._t0 = perf_counter()
        self._emit("grid-start", cells=cells, cached=cached, pending=cells - cached,
                   workers=workers, serial_reason=serial_reason)

    def cell_start(self, index: int, workload: str, policy: str) -> None:
        self._emit("cell-start", index=index, workload=workload, policy=policy)

    def cell_finish(self, index: int, workload: str, policy: str, *,
                    cached: bool, instructions: int) -> None:
        self.done += 1
        if cached:
            self.cached += 1
        self.instructions += instructions
        elapsed = perf_counter() - self._t0
        simulated = self.done - self.cached
        remaining = self.cells - self.done
        # ETA from the simulated-cell rate: cached cells land ~instantly, so
        # extrapolating from them would wildly undershoot
        eta: Optional[float] = None
        if remaining == 0:
            eta = 0.0
        elif simulated > 0 and elapsed > 0:
            eta = elapsed / simulated * remaining
        self._emit(
            "cell-finish",
            index=index, workload=workload, policy=policy, cached=cached,
            instructions=instructions, done=self.done, cells=self.cells,
            elapsed=elapsed, eta_seconds=eta,
            cells_per_second=self.done / elapsed if elapsed > 0 else None,
            instructions_per_second=self.instructions / elapsed if elapsed > 0 else None,
        )

    def cell_failed(self, indices: list[int], error: BaseException) -> None:
        self.failed += len(indices)
        self._emit("cell-failed", indices=list(indices),
                   error=f"{type(error).__name__}: {error}")

    def end(self) -> None:
        elapsed = perf_counter() - self._t0
        self._emit(
            "grid-end",
            cells=self.cells, cached=self.cached, failed=self.failed,
            elapsed=elapsed,
            cells_per_second=self.done / elapsed if elapsed > 0 else None,
            instructions_per_second=self.instructions / elapsed if elapsed > 0 else None,
        )


def _fmt_eta(eta: Optional[float]) -> str:
    if eta is None:
        return "eta ?"
    if eta >= 90:
        return f"eta {eta / 60:.1f}m"
    return f"eta {eta:.1f}s"


def progress_printer(stream: Optional[TextIO] = None) -> ProgressSink:
    """A sink rendering progress events as single stderr lines.

    One short line per event keeps the output honest on dumb terminals and
    in CI logs (no cursor tricks), while a TTY still reads as a live feed.
    """
    out = stream if stream is not None else sys.stderr

    def sink(event: dict[str, Any]) -> None:
        kind = event["event"]
        if kind == "grid-start":
            where = (f"in process ({event['serial_reason']})"
                     if event["serial_reason"] else f"on {event['workers']} workers")
            out.write(f"grid: {event['cells']} cell(s), "
                      f"{event['cached']} from cache, {event['pending']} to run "
                      f"{where}\n")
        elif kind == "cell-finish":
            tag = "cache" if event["cached"] else "ran"
            rate = event["instructions_per_second"]
            rate_s = f" {rate / 1000:.0f}k instr/s" if rate else ""
            out.write(
                f"[{event['done']}/{event['cells']}] "
                f"{event['workload']}/{event['policy']} ({tag}) "
                f"{_fmt_eta(event['eta_seconds'])}{rate_s}\n"
            )
        elif kind == "cell-failed":
            out.write(f"grid: cell(s) {event['indices']} failed: {event['error']}\n")
        elif kind == "grid-end":
            rate = event["cells_per_second"]
            out.write(
                f"grid: done in {event['elapsed']:.2f}s"
                + (f" ({rate:.2f} cells/s)" if rate else "")
                + (f", {event['failed']} failed" if event["failed"] else "")
                + "\n"
            )
        out.flush()

    return sink
