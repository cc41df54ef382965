"""End-to-end tests for ``python -m repro.nclc lint`` (CLI + goldens)."""

import json
from pathlib import Path

import pytest

from repro.analysis import lint_source
from repro.diag.export import render_json
from repro.diag.render import render_text
from repro.nclc.__main__ import main as nclc_main
from repro.nclc.lint import main as lint_main

REPO = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"
DEMO = "examples/lint_demo.ncl"
CLEAN = "examples/stats.ncl"


def run_lint(tmp_path, source, *flags):
    path = tmp_path / "prog.ncl"
    path.write_text(source)
    return lint_main([str(path), *flags])


class TestExitCodes:
    def test_clean_file_exits_zero(self, capsys):
        assert lint_main([str(REPO / CLEAN)]) == 0
        assert "no diagnostics" in capsys.readouterr().out

    def test_demo_has_errors_exits_one(self, capsys):
        assert lint_main([str(REPO / DEMO)]) == 1
        out = capsys.readouterr().out
        assert "error[NCL0400]" in out and "warning[NCL0701]" in out

    def test_clean_file_survives_werror(self, capsys):
        assert lint_main([str(REPO / CLEAN), "--werror"]) == 0

    def test_unknown_rule_exits_two(self, capsys):
        assert lint_main([str(REPO / CLEAN), "-W", "bogus"]) == 2
        assert "unknown analysis rule" in capsys.readouterr().err

    def test_unknown_profile_exits_two(self, capsys):
        assert lint_main([str(REPO / CLEAN), "--profile", "asic9000"]) == 2

    def test_no_sources_exits_two(self, capsys):
        assert lint_main([]) == 2

    def test_list_rules(self, capsys):
        assert lint_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        assert "race" in out and "NCL0701" in out

    def test_dispatch_through_nclc_main(self, capsys):
        assert nclc_main(["lint", str(REPO / CLEAN)]) == 0


class TestMultiErrorRecovery:
    THREE_ERRORS = (
        "_net_ ncl::Map<unsigned, unsigned, 64> M;\n"
        "_net_ _out_ void k(int *d) { d[0] = nope; }\n"
        "_net_ _out_ void j(int *d) { d[0] = alsonope; }\n"
    )

    def test_three_sema_errors_in_one_invocation(self, tmp_path, capsys):
        """Acceptance: 3 independent sema errors -> all 3 reported, each
        with a stable code and a caret span, in a single lint run."""
        assert run_lint(tmp_path, self.THREE_ERRORS) == 1
        out = capsys.readouterr().out
        assert out.count("error[NCL") >= 3
        assert "nope" in out and "alsonope" in out and "'M'" in out
        # every error block carries a caret excerpt
        assert out.count("^") >= 3

    def test_three_errors_in_json(self, tmp_path, capsys):
        run_lint(tmp_path, self.THREE_ERRORS, "--json")
        data = json.loads(capsys.readouterr().out)
        assert data["schema"] == "repro.diag/1"
        assert data["summary"]["errors"] >= 3
        for diag in data["diagnostics"]:
            assert diag["primary"] is not None


class TestJsonOutput:
    def test_json_parses_and_is_deterministic(self, capsys):
        assert lint_main([str(REPO / DEMO), "--json"]) == 1
        first = capsys.readouterr().out
        lint_main([str(REPO / DEMO), "--json"])
        second = capsys.readouterr().out
        assert first == second
        data = json.loads(first)
        assert data["summary"] == {"errors": 6, "warnings": 8, "notes": 0}

    def test_status_field_grades_range_findings(self, capsys):
        """Absint-graded findings carry "proved"/"possible"; others none."""
        lint_main([str(REPO / DEMO), "--json"])
        data = json.loads(capsys.readouterr().out)
        by_code = {}
        for diag in data["diagnostics"]:
            by_code.setdefault(diag["code"], []).append(diag.get("status"))
        assert by_code["NCL0706"] == ["proved"]
        assert sorted(by_code["NCL0802"]) == ["possible", "proved"]
        assert sorted(by_code["NCL0805"]) == ["possible", "proved"]
        assert by_code["NCL0801"] == ["possible"]
        assert by_code["NCL0701"] == [None, None]  # no range evidence
        # proved findings are error severity, possible ones warnings
        for diag in data["diagnostics"]:
            if diag.get("status") == "proved":
                assert diag["severity"] == "error"
            elif diag.get("status") == "possible":
                assert diag["severity"] == "warning"


class TestGolden:
    """Byte-identical text and JSON reports for examples/lint_demo.ncl.

    Regenerate (after an intentional output change) with::

        PYTHONPATH=src python -c "
        from pathlib import Path
        from repro.analysis import lint_source
        from repro.diag.export import render_json
        from repro.diag.render import render_text
        name = 'examples/lint_demo.ncl'
        src = Path(name).read_text()
        r = lint_source(src, name)
        Path('tests/golden/lint_demo.txt').write_text(render_text(r.sink, {name: src}))
        Path('tests/golden/lint_demo.json').write_text(render_json(r.sink))
        "
    """

    @pytest.fixture()
    def result(self):
        source = (REPO / DEMO).read_text()
        return source, lint_source(source, DEMO)

    def test_text_golden(self, result):
        source, res = result
        expected = (GOLDEN / "lint_demo.txt").read_text()
        assert render_text(res.sink, {DEMO: source}) == expected

    def test_json_golden(self, result):
        _, res = result
        expected = (GOLDEN / "lint_demo.json").read_text()
        assert render_json(res.sink) == expected

    def test_demo_seeds_every_advertised_code(self, result):
        _, res = result
        seeded = {d.code for d in res.sink.sorted()}
        assert {"NCL0400", "NCL0701", "NCL0702", "NCL0703", "NCL0706",
                "NCL0801", "NCL0802", "NCL0805", "NCL0903"} <= seeded
        races = [d for d in res.sink.sorted() if d.code == "NCL0701"]
        assert len(races) == 2
        assert all(d.secondary for d in races)


class TestExamplesStayClean:
    """Regression: every shipped NCL program lints clean (all rules)."""

    def test_stats_example_file(self):
        assert lint_main([str(REPO / CLEAN), "--werror"]) == 0

    def test_parity_example_file(self):
        # parity.ncl's tag is *provably* constant, but the dead-branch /
        # overflow rules must not flag straight-line provable arithmetic
        assert lint_main([str(REPO / "examples/parity.ncl"), "--werror"]) == 0

    @pytest.mark.parametrize("app,defines", [
        ("allreduce.ALLREDUCE_NCL",
         {"DATA_LEN": 64, "WIN_LEN": 8, "NWORKERS": 2}),
        ("allreduce.ALLREDUCE_MULTIROUND_NCL",
         {"DATA_LEN": 64, "WIN_LEN": 8, "NWORKERS": 2, "CHUNK": 16}),
        ("dedup.DEDUP_NCL", {"FILTER_BITS": 1024}),
        ("kvs_cache.KVS_NCL",
         {"VAL_WORDS": 2, "SERVER": 1, "CACHE_SIZE": 64}),
        ("telemetry.TELEMETRY_NCL", {"SLOTS": 1024}),
    ])
    def test_shipped_apps(self, app, defines):
        import importlib

        mod_name, attr = app.split(".")
        module = importlib.import_module(f"repro.apps.{mod_name}")
        source = getattr(module, attr)
        result = lint_source(source, app, defines=defines or None)
        assert [d.code for d in result.sink.sorted()] == []
