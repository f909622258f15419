"""V1000/V1001: critical-path reconciliation and causality checks.

Well-formed recordings reconcile *by construction* (chain edges are
tight by definition), so these tests corrupt a built graph's edge
weights to exercise each rule: shrinking a weight breaks the tight
back-walk (V1000), growing one makes its slack negative (V1001).
"""

import json

import pytest

from repro.critpath import DependencyRecorder, analyze
from repro.critpath.graph import COMPUTE
from repro.critpath.runner import record_system
from repro.sim import StitchSystem
from repro.sweep.runner import ring_programs
from repro.verify import RULES, check_critpath, check_critpath_capture
from repro.verify.diagnostics import Severity


@pytest.fixture(scope="module")
def ring_run():
    telemetry = recorder = DependencyRecorder()
    system = StitchSystem(telemetry=telemetry)
    for tile, program in ring_programs(4, laps=2).items():
        system.load(tile, program)
    return record_system("ring4", system, recorder)


def rebuilt(ring_run):
    """A private copy of the run's graph (fixtures are module-scoped)."""
    from repro.critpath import DependencyGraph

    return DependencyGraph.from_dict(ring_run.graph.to_dict())


def compute_edge(graph):
    return next(e for e in graph.edges
                if e.kind == COMPUTE and e.weight > 2)


class TestRegistry:
    def test_rules_registered_with_severity(self):
        for code in ("V1000", "V1001"):
            assert code in RULES
            assert RULES[code].severity is Severity.ERROR
            assert RULES[code].pass_name == "critpath-checks"


class TestCleanRuns:
    def test_clean_graph_yields_no_diagnostics(self, ring_run):
        report = check_critpath(ring_run.graph, ring_run.analysis,
                                measured=ring_run.measured)
        assert report.ok(strict=True)

    def test_analysis_is_recomputed_when_omitted(self, ring_run):
        report = check_critpath(ring_run.graph)
        assert report.ok(strict=True)


class TestV1000:
    def test_shrunk_edge_breaks_reconciliation(self, ring_run):
        graph = rebuilt(ring_run)
        compute_edge(graph).weight -= 2
        analysis = analyze(graph)
        assert not analysis.reconciled()
        report = check_critpath(graph, analysis)
        codes = [d.code for d in report.errors()]
        assert "V1000" in codes

    def test_measured_mismatch_fires_even_on_clean_graph(self, ring_run):
        report = check_critpath(ring_run.graph, ring_run.analysis,
                                measured=ring_run.measured + 1)
        diagnostics = report.errors()
        assert [d.code for d in diagnostics] == ["V1000"]
        assert "disagrees with the simulator" in diagnostics[0].message

    def test_message_reports_signed_drift(self, ring_run):
        graph = rebuilt(ring_run)
        compute_edge(graph).weight -= 2
        report = check_critpath(graph)
        message = report.errors()[0].message
        assert "drift" in message and "-" in message


class TestV1001:
    def test_grown_edge_creates_negative_slack(self, ring_run):
        graph = rebuilt(ring_run)
        compute_edge(graph).weight += 5
        analysis = analyze(graph)
        assert analysis.negative_edges
        report = check_critpath(graph, analysis)
        codes = {d.code for d in report.errors()}
        assert "V1001" in codes
        assert any("effect precedes cause" in d.message
                   for d in report.errors())

    def test_violation_flood_is_truncated(self, ring_run):
        graph = rebuilt(ring_run)
        grown = 0
        for edge in graph.edges:
            if edge.kind == COMPUTE:
                edge.weight += 5
                grown += 1
        assert grown > 6
        report = check_critpath(graph)
        listed = [d for d in report.errors()
                  if "effect precedes cause" in d.message]
        assert len(listed) <= 5
        assert any("more causality violation" in d.message
                   for d in report.errors())


class TestCaptureArtifacts:
    def test_saved_capture_round_trips_clean(self, ring_run, tmp_path):
        path = tmp_path / "capture.json"
        path.write_text(json.dumps(ring_run.to_dict()))
        payload = json.loads(path.read_text())
        report = check_critpath_capture(payload)
        assert report.ok(strict=True)

    def test_capture_analysis_block_is_not_trusted(self, ring_run):
        payload = ring_run.to_dict()
        # Lie in the stored analysis; the checker re-derives everything
        # from the record stream, so the lie must not mask a mismatch...
        payload["analysis"]["reconciled"] = False
        assert check_critpath_capture(payload).ok(strict=True)
        # ...and a wrong measured_cycles must be caught.
        payload["measured_cycles"] += 7
        report = check_critpath_capture(payload)
        assert [d.code for d in report.errors()] == ["V1000"]
