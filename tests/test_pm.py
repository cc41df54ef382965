"""The nclc compile (repro.nclc.pm): failure reporting, trace grouping,
fingerprints."""

import pytest

from repro.errors import ReproError
from repro.nclc import Compiler, pm
from repro.nclc.pm import pipeline_fingerprint
from repro.obs import CompileTrace

BROKEN = "_net_ _out_ void k( {"


class TestFailureReporting:
    def test_pass_failure_lands_in_the_sink(self):
        from repro.diag import DiagnosticSink

        sink = DiagnosticSink()
        with pytest.raises(ReproError):
            Compiler().compile(BROKEN, sink=sink)
        assert sink.has_errors
        codes = [d.code for d in sink.diagnostics]
        assert "NCL0990" in codes

    def test_stage_times_accumulate_even_on_failure(self):
        trace = CompileTrace()
        with pytest.raises(ReproError):
            Compiler().compile(BROKEN, trace=trace)
        assert "frontend" in trace.stage_times()


class TestPresetsAndFingerprints:
    def test_unknown_level_rejected(self):
        with pytest.raises(ValueError, match="unknown opt level"):
            pipeline_fingerprint(7)

    def test_fingerprint_varies_by_opt_level(self):
        prints = {pipeline_fingerprint(level) for level in (0, 1, 2)}
        assert len(prints) == 3

    def test_fingerprint_stable_across_calls(self):
        assert pipeline_fingerprint(2) == pipeline_fingerprint(2)

    def test_fingerprint_tracks_compiler_version(self, monkeypatch):
        before = pipeline_fingerprint(2)
        monkeypatch.setattr(pm, "NCLC_VERSION", pm.NCLC_VERSION + "-next")
        assert pipeline_fingerprint(2) != before

    def test_fingerprint_extra_items(self):
        assert pipeline_fingerprint(2, extra=("x",)) != pipeline_fingerprint(2)


class TestTraceGrouping:
    def test_frontend_passes_share_one_trace_stage(self):
        fake = iter(range(10_000))
        trace = CompileTrace(clock=lambda: next(fake) * 1e-3)
        program = Compiler().compile(
            "_net_ _out_ void k(int *d) { d[0] += 1; }", trace=trace
        )
        stages = [r["stage"] for r in trace.stages]
        assert stages[0] == "frontend"
        assert stages.count("frontend") == 1
        # but stage_times itemizes every pass or stage key
        for key in ("frontend", "irgen", "conformance", "versioning"):
            assert key in program.stage_times
