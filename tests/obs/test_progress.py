"""Grid progress events: GridProgress bookkeeping and run_cells integration."""

import io

from repro.experiments.parallel import cell_for, run_cells
from repro.experiments.runner import RunSpec
from repro.obs.progress import GridProgress, progress_printer
from repro.workloads import by_name

_FAST = dict(warmup_instructions=1_000, sim_instructions=3_000)


class TestGridProgress:
    def test_event_stream_shape(self):
        events = []
        prog = GridProgress(events.append)
        prog.start(3, 1)
        prog.cell_start(1, "astar", "dripper")
        prog.cell_finish(1, "astar", "dripper", cached=False, instructions=3000)
        prog.cell_finish(2, "astar", "discard", cached=True, instructions=3000)
        prog.end()
        assert [e["event"] for e in events] == [
            "grid-start", "cell-start", "cell-finish", "cell-finish", "grid-end"]
        start, _, first, second, end = events
        assert start["pending"] == 2
        assert first["done"] == 2 and first["cells"] == 3
        assert second["done"] == 3 and second["eta_seconds"] == 0.0
        assert end["cached"] == 2
        assert end["instructions_per_second"] is None or end["instructions_per_second"] > 0

    def test_eta_extrapolates_from_simulated_cells_only(self):
        events = []
        prog = GridProgress(events.append)
        prog.start(4, 0)
        prog.cell_finish(0, "w", "p", cached=False, instructions=100)
        eta = events[-1]["eta_seconds"]
        assert eta is not None and eta > 0

    def test_failed_cells_are_reported(self):
        events = []
        prog = GridProgress(events.append)
        prog.start(2, 0)
        prog.cell_failed([0, 1], RuntimeError("boom"))
        prog.end()
        failed = events[1]
        assert failed["event"] == "cell-failed"
        assert failed["indices"] == [0, 1]
        assert "RuntimeError" in failed["error"]
        assert events[-1]["failed"] == 2

    def test_printer_renders_single_lines(self):
        out = io.StringIO()
        sink = progress_printer(out)
        prog = GridProgress(sink)
        prog.start(1, 0)
        prog.cell_finish(0, "astar", "dripper", cached=False, instructions=3000)
        prog.end()
        text = out.getvalue()
        assert "1 cell(s)" in text
        assert "[1/1] astar/dripper (ran)" in text
        assert "done in" in text


class TestRunCellsIntegration:
    def test_serial_batch_emits_full_stream(self):
        spec = RunSpec(prefetcher="berti", policy="discard", **_FAST)
        cells = [cell_for(by_name("astar"), spec)]
        events = []
        results = run_cells(cells, jobs=1, progress=events.append)
        assert len(results) == 1
        kinds = [e["event"] for e in events]
        assert kinds == ["grid-start", "cell-start", "cell-finish", "grid-end"]
        finish = events[2]
        assert finish["workload"] == "astar"
        assert finish["policy"] == "discard"
        assert finish["instructions"] == results[0].instructions

    def test_cache_hits_counted_in_grid_start(self, tmp_path):
        from repro.experiments.cache import ResultCache

        spec = RunSpec(prefetcher="berti", policy="discard", **_FAST)
        cells = [cell_for(by_name("astar"), spec)]
        cache = ResultCache(tmp_path)
        run_cells(cells, cache=cache)
        events = []
        run_cells(cells, cache=cache, progress=events.append)
        start = events[0]
        assert start["cached"] == 1 and start["pending"] == 0
        assert [e["event"] for e in events] == ["grid-start", "grid-end"]

    def test_coalesced_duplicates_emit_cached_finishes(self, tmp_path):
        from repro.experiments.cache import ResultCache

        spec = RunSpec(prefetcher="berti", policy="discard", **_FAST)
        cells = [cell_for(by_name("astar"), spec) for _ in range(2)]
        events = []
        run_cells(cells, cache=ResultCache(tmp_path), progress=events.append)
        finishes = [e for e in events if e["event"] == "cell-finish"]
        assert [f["cached"] for f in finishes] == [False, True]

    def test_grid_start_reports_resolved_workers(self):
        spec = RunSpec(prefetcher="berti", policy="discard", **_FAST)
        cells = [cell_for(by_name(w), spec) for w in ("astar", "hmmer")]
        events = []
        run_cells(cells, jobs=2, progress=events.append)
        assert events[0]["workers"] == 2 and events[0]["serial_reason"] is None
        events.clear()
        run_cells(cells, jobs=1, progress=events.append)
        assert events[0]["workers"] == 1 and events[0]["serial_reason"] == "requested"

    def test_printer_names_where_the_batch_ran(self):
        out = io.StringIO()
        prog = GridProgress(progress_printer(out))
        prog.start(4, 0, workers=2)
        prog.start(4, 0, workers=1, serial_reason="one-cpu")
        lines = out.getvalue().splitlines()
        assert lines[0].endswith("on 2 workers")
        assert lines[1].endswith("in process (one-cpu)")
