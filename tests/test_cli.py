"""The nclc command-line interface."""

import json

import pytest

from repro.nclc.__main__ import main
from repro.nclc.artifact import SCHEMA

from tests.conftest import ALLREDUCE_SRC, STAR_AND


@pytest.fixture()
def workdir(tmp_path):
    (tmp_path / "prog.ncl").write_text(ALLREDUCE_SRC)
    (tmp_path / "net.and").write_text(STAR_AND)
    return tmp_path


def run_cli(workdir, *extra):
    return main(
        [
            str(workdir / "prog.ncl"),
            "--and",
            str(workdir / "net.and"),
            "-o",
            str(workdir / "build"),
            "--window",
            "allreduce=4",
            "--ext",
            "len=4",
            "-D",
            "DATA_LEN=64",
            "-D",
            "WIN_LEN=4",
            *extra,
        ]
    )


class TestCli:
    def test_successful_compile_writes_artifacts(self, workdir, capsys):
        assert run_cli(workdir) == 0
        out = capsys.readouterr().out
        assert "ACCEPTED" in out
        build = workdir / "build"
        assert (build / "s1.p4").exists()
        report = json.loads((build / "s1.report.json").read_text())
        assert report["profile"] == "bmv2"
        assert report["stages"] >= 1
        layouts = json.loads((build / "ncp_layouts.json").read_text())
        assert layouts["allreduce"]["kernel_id"] == 1
        assert layouts["allreduce"]["chunks"][0]["count"] == 4

    def test_tofino_with_split_accepts_and_records(self, workdir):
        assert run_cli(workdir, "--profile", "tofino-like") == 0
        report = json.loads(
            (workdir / "build" / "s1.report.json").read_text()
        )
        assert report["splits"] and report["splits"][0]["array"] == "accum"

    def test_tofino_without_split_rejects(self, workdir, capsys):
        rc = run_cli(workdir, "--profile", "tofino-like", "--no-split")
        assert rc == 2
        err = capsys.readouterr().err
        assert "REJECTED" in err and "reg_accum" in err

    def test_conformance_error_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.ncl"
        bad.write_text(
            "_net_ _out_ void k(unsigned *d) {"
            " for (unsigned i = 0; i < d[0]; ++i) d[1] += 1; }"
        )
        rc = main([str(bad), "--window", "k=4"])
        assert rc == 1
        assert "not provably constant" in capsys.readouterr().err

    def test_syntax_error_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.ncl"
        bad.write_text("_net_ _out_ void k(int *d) { d[0] = ; }")
        rc = main([str(bad)])
        assert rc == 1

    def test_dump_ir_prints_source(self, workdir, capsys):
        assert run_cli(workdir, "--dump-ir") == 0
        out = capsys.readouterr().out
        assert "control Ingress" in out


class TestBuildSubcommandAndFlags:
    def run_build(self, workdir, *extra):
        from repro.nclc.__main__ import main

        return main(
            [
                "build",
                str(workdir / "prog.ncl"),
                "--and",
                str(workdir / "net.and"),
                "-o",
                str(workdir / "build"),
                "--window",
                "allreduce=4",
                "--ext",
                "len=4",
                "-D",
                "DATA_LEN=64",
                "-D",
                "WIN_LEN=4",
                *extra,
            ]
        )

    def test_build_word_is_optional(self, workdir, capsys):
        assert self.run_build(workdir) == 0
        assert "ACCEPTED" in capsys.readouterr().out
        assert (workdir / "build" / "s1.p4").exists()

    def test_emit_ast_prints_parse_tree(self, workdir, capsys):
        assert self.run_build(workdir, "--emit", "ast") == 0
        out = capsys.readouterr().out
        assert "Program" in out
        assert "FuncDecl" in out and "name='allreduce'" in out

    def test_emit_nir_prints_optimized_modules(self, workdir, capsys):
        assert self.run_build(workdir, "--emit", "nir") == 0
        out = capsys.readouterr().out
        assert "switch s1 (optimized NIR, -O2)" in out
        assert "module ncl@s1" in out
        assert "func allreduce" in out

    def test_emit_artifact_writes_loadable_program(self, workdir, capsys):
        from repro.nclc.driver import CompiledProgram

        assert self.run_build(workdir, "--emit", "artifact") == 0
        assert f"artifact: {SCHEMA} (-O2)" in capsys.readouterr().out
        artifact = workdir / "build" / "prog.nclc.json"
        program = CompiledProgram.load(artifact)
        assert "s1" in program.switch_programs

    def test_opt_level_flag(self, workdir, capsys):
        assert self.run_build(workdir, "-O0", "--emit", "nir") == 0
        o0 = capsys.readouterr().out
        assert self.run_build(workdir, "-O2", "--emit", "nir") == 0
        o2 = capsys.readouterr().out
        assert "-O0" in o0 and "-O2" in o2
        # -O0 leaves the redundant loads the -O2 menu removes
        assert len(o0.splitlines()) > len(o2.splitlines())

    def test_bad_opt_level_rejected(self, workdir, capsys):
        with pytest.raises(SystemExit):
            self.run_build(workdir, "-O7")

    def test_cache_flag_hits_on_rebuild(self, workdir, capsys):
        cache_dir = workdir / "cache"
        assert self.run_build(workdir, "--cache", str(cache_dir)) == 0
        assert list(cache_dir.glob("*/*.nclc.json"))
        assert self.run_build(workdir, "--cache", str(cache_dir), "--timing") == 0
        assert "artifact cache: hit" in capsys.readouterr().out
