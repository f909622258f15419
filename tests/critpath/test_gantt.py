"""ASCII Gantt chart and textual summary rendering."""

from repro.critpath import (
    DependencyRecorder,
    analyze,
    render_gantt,
    render_summary,
)
from repro.critpath.gantt import LEGEND
from repro.critpath.runner import record_system
from repro.sim import StitchSystem
from repro.sweep.runner import ring_programs


def recorded_ring(laps=2):
    telemetry = recorder = DependencyRecorder()
    system = StitchSystem(telemetry=telemetry)
    for tile, program in ring_programs(4, laps=laps).items():
        system.load(tile, program)
    return record_system("ring4", system, recorder)


class TestGantt:
    def test_one_row_per_tile_plus_axis_and_legend(self):
        run = recorded_ring()
        chart = render_gantt(run.graph, run.analysis, width=60)
        lines = chart.splitlines()
        tiles = run.graph.tiles()
        rows = [line for line in lines if line.startswith("tile ")]
        assert len(rows) == len(tiles)
        for tile, row in zip(tiles, rows):
            assert row.startswith(f"tile {tile:>3} |")
            assert row.endswith("|")
        assert lines[-1] == LEGEND
        axis = lines[-2]
        assert "0" in axis and str(run.graph.makespan) in axis

    def test_rows_share_a_width(self):
        run = recorded_ring()
        chart = render_gantt(run.graph, run.analysis, width=48)
        rows = [line for line in chart.splitlines()
                if line.startswith("tile ")]
        widths = {len(row) for row in rows}
        assert len(widths) == 1

    def test_critical_path_is_highlighted_uppercase(self):
        run = recorded_ring()
        chart = render_gantt(run.graph, run.analysis, width=72)
        # The run reconciles, so the path covers real cycles on some
        # tile — at least one emphasized glyph must appear.
        assert any(glyph in chart for glyph in "#SWD")

    def test_width_floor(self):
        run = recorded_ring(laps=1)
        chart = render_gantt(run.graph, run.analysis, width=1)
        rows = [line for line in chart.splitlines()
                if line.startswith("tile ")]
        assert all(len(row) >= 16 for row in rows)


class TestSummary:
    def test_summary_names_makespan_and_shares(self):
        run = recorded_ring()
        text = render_summary(run.graph, run.analysis)
        assert f"makespan: {run.graph.makespan} cycles (complete)" in text
        assert f"critical path: {run.analysis.total} cycles" in text
        assert "DOES NOT RECONCILE" not in text
        shares = run.analysis.attribution()["tile_critical_cycles"]
        busiest = max(shares, key=shares.get)
        assert f"tile {busiest}: {shares[busiest]} critical cycles" in text

    def test_summary_flags_broken_reconciliation(self):
        run = recorded_ring()
        # Corrupt a built edge weight: the tight back-walk breaks and
        # the summary must say so rather than print a wrong share table.
        target = next(e for e in run.graph.edges
                      if e.kind == "compute" and e.weight > 0)
        target.weight -= 1
        broken = analyze(run.graph)
        assert not broken.reconciled()
        text = render_summary(run.graph, broken)
        assert "DOES NOT RECONCILE (V1000)" in text

    def test_summary_reports_blocked_frontier(self):
        from tests.critpath.test_partial import deadlocked_run

        run = deadlocked_run()
        text = render_summary(run.graph, run.analysis)
        assert "blocked frontier (partial run):" in text
        assert "tile 0: waiting on tile 1 for 1 word(s)" in text
