"""The nclc pass manager (repro.nclc.pm): registry integrity, dependency
checking, failure reporting, presets, fingerprints."""

import pytest

from repro.errors import PipelineError, ReproError
from repro.nclc import pm
from repro.nclc.pm import (
    BUILD_PASSES,
    COMPILE_PASSES,
    PassManager,
    PipelineContext,
    build_pipeline,
    pipeline_fingerprint,
)


@pytest.fixture()
def scratch_passes():
    """Register throwaway passes for a test, then restore the registry."""
    added = []

    def register(name, **kw):
        @pm.register_compile_pass(name, **kw)
        def _fn(ctx, _fns=kw.pop("fn", None)):  # pragma: no cover - replaced
            pass

        added.append(name)
        cpass = COMPILE_PASSES[name]
        return cpass

    yield register
    for name in added:
        COMPILE_PASSES.pop(name, None)


class TestRegistry:
    def test_build_pipeline_names_are_all_registered(self):
        for name in BUILD_PASSES:
            assert name in COMPILE_PASSES

    def test_every_pass_documents_itself(self):
        for name in BUILD_PASSES:
            assert COMPILE_PASSES[name].about, f"{name} has no about text"

    def test_dependencies_are_satisfied_in_preset_order(self):
        """Statically check the preset: each pass's requires must be met
        by the initial context keys or an earlier pass's provides."""
        available = {"source", "filename", "defines", "and_text", "windows_in"}
        for name in BUILD_PASSES:
            cpass = COMPILE_PASSES[name]
            for key in cpass.requires:
                assert key in available, f"{name} requires unproduced {key!r}"
            available.update(cpass.provides)

    def test_duplicate_registration_rejected(self, scratch_passes):
        scratch_passes("t-dup")
        with pytest.raises(PipelineError, match="duplicate"):
            pm.register_compile_pass("t-dup")(lambda ctx: None)

    def test_unknown_pipeline_name_rejected(self):
        with pytest.raises(PipelineError, match="unknown compile passes"):
            PassManager(["lex", "no-such-pass"])


class TestDependencyChecking:
    def test_missing_requirement_raises(self):
        ctx = PipelineContext(source="_net_ _out_ void k(int *d) { d[0] = 1; }")
        with pytest.raises(PipelineError, match="requires 'tokens'"):
            PassManager(["parse"]).run(ctx)

    def test_artifact_get_before_put_raises(self):
        ctx = PipelineContext(source="")
        with pytest.raises(PipelineError, match="not produced yet"):
            ctx.get("module")


class TestFailureReporting:
    def test_pass_failure_lands_in_the_sink(self):
        from repro.diag import DiagnosticSink

        sink = DiagnosticSink()
        ctx = PipelineContext(source="_net_ _out_ void k( {", sink=sink)
        with pytest.raises(ReproError):
            PassManager(["lex", "parse"]).run(ctx)
        assert sink.has_errors
        codes = [d.code for d in sink.diagnostics]
        assert "NCL0990" in codes

    def test_stage_times_accumulate_even_on_failure(self):
        ctx = PipelineContext(source="_net_ _out_ void k( {")
        with pytest.raises(ReproError):
            PassManager(["lex", "parse"]).run(ctx)
        assert "frontend" in ctx.stage_times


class TestPresetsAndFingerprints:
    def test_same_pass_names_at_every_level(self):
        assert build_pipeline(0) == build_pipeline(1) == build_pipeline(2)

    def test_unknown_level_rejected(self):
        with pytest.raises(ValueError, match="unknown opt level"):
            build_pipeline(7)

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
        from repro.obs import CompileTrace

        fake = iter(range(10_000))
        trace = CompileTrace(clock=lambda: next(fake) * 1e-3)
        ctx = PipelineContext(
            source="_net_ _out_ void k(int *d) { d[0] += 1; }",
            options={"profile": __import__("repro.pisa.arch", fromlist=["profile_by_name"]).profile_by_name(None)},
            trace=trace,
        )
        PassManager(build_pipeline(2)).run(ctx)
        stages = [r["stage"] for r in trace.stages]
        assert stages[0] == "frontend"
        assert stages.count("frontend") == 1
        # but stage_times itemizes every pass or stage key
        for key in ("frontend", "irgen", "conformance", "versioning"):
            assert key in ctx.stage_times
