"""The whole-fabric deployment checker: fabric spec, manifest parsing,
the four check families, the ``repro.deploy/1`` report, and the
``nclc check-deploy`` CLI (exit codes + goldens)."""

import json
from pathlib import Path

import pytest

from repro.analysis.deploy import (
    all_checks,
    check_deployment,
    parse_deployment,
    render_report_json,
    render_report_text,
)
from repro.andspec import parse_fabric
from repro.diag import Severity
from repro.diag.codes import CodeCollision, all_codes, assert_unique
from repro.errors import AndError, DeployError
from repro.nclc.__main__ import main as nclc_main
from repro.nclc.deploy import main as deploy_main

REPO = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"
DATA = "tests/data/deploy"
EXAMPLE = "examples/deploy/multi_tenant.deploy"


def ctx_for(manifest: str, base: str):
    text = (REPO / manifest).read_text()
    deployment = parse_deployment(text, manifest, base_dir=str(REPO / base))
    return check_deployment(deployment)


def codes_of(ctx):
    return sorted({d.code for d in ctx.sink.sorted()})


# ---------------------------------------------------------------------------
# FabricSpec
# ---------------------------------------------------------------------------


class TestFabricSpec:
    FABRIC = (
        "switch sw0 profile=tofino-like\n"
        "switch sw1\n"
        "host h0\n"
        "link h0 sw0 mtu=9000\n"
        "link sw0 sw1\n"
    )

    def test_parse_and_defaults(self):
        spec = parse_fabric(self.FABRIC)
        assert spec.node("sw1").profile == "bmv2"  # default
        assert spec.link_between("h0", "sw0").mtu == 9000
        assert spec.link_between("sw0", "sw1").mtu == 1500  # default
        assert spec.switch_profile("sw0").name == "tofino-like"
        assert sorted(spec.graph()["sw0"]) == ["h0", "sw1"]

    def test_render_parse_roundtrip(self):
        spec = parse_fabric(self.FABRIC)
        again = parse_fabric(spec.render())
        assert again.to_dict() == spec.to_dict()

    def test_graph_kinds(self):
        graph = parse_fabric(self.FABRIC).graph()
        assert dict(graph.nodes(data=True)) == {
            "sw0": {"kind": "switch", "programmable": True},
            "sw1": {"kind": "switch", "programmable": True},
            "h0": {"kind": "host", "programmable": False},
        }
        assert graph.edges["h0", "sw0"] == {"mtu": 9000}

    @pytest.mark.parametrize(
        "text,fragment",
        [
            ("switch sw0\nswitch sw0\n", "duplicate fabric node"),
            ("host h0\nlink h0 h0\n", "self-link"),
            ("host h0\nlink h0 nope\n", "unknown fabric node"),
            ("switch sw0 profile=asic9000\n", "unknown chip profile"),
            ("host h0 profile=bmv2\n", "unknown option"),
            ("frobnicate x\n", "unknown declaration"),
            ("", "empty fabric"),
            ("host h0\nswitch s0\nlink h0 s0 mtu=0\n", "mtu must be positive"),
        ],
    )
    def test_rejects_malformed(self, text, fragment):
        with pytest.raises(AndError, match=fragment):
            parse_fabric(text)


# ---------------------------------------------------------------------------
# manifest parsing
# ---------------------------------------------------------------------------


class TestManifestParsing:
    def test_example_parses(self):
        text = (REPO / EXAMPLE).read_text()
        deployment = parse_deployment(
            text, EXAMPLE, base_dir=str(REPO / "examples/deploy")
        )
        assert [t.name for t in deployment.tenants] == [
            "training", "kvs", "dedup",
        ]
        training = deployment.tenant("training")
        assert training.idbase == 0
        assert training.placement == {"s1": "sw0"}
        assert training.effective_kernel_ids() == {"allreduce": 1}
        kvs = deployment.tenant("kvs")
        assert kvs.effective_kernel_ids() == {"query": 17}  # 1 + idbase 16

    def test_identical_programs_compile_once(self):
        text = (REPO / DATA / "id_collision.deploy").read_text()
        deployment = parse_deployment(
            text, "x.deploy", base_dir=str(REPO / DATA)
        )
        a, b = deployment.tenants
        assert a.program is b.program  # memoized by (path, config)

    @pytest.mark.parametrize(
        "text,fragment",
        [
            ("host h0\n", "no tenants declared"),
            ("define ghost A=1\n", "unknown tenant"),
            ("host h0\ntenant t missing.ncl\n", "cannot read program"),
            ("frobnicate x\n", "unknown declaration"),
            ("switch sw0\nswitch sw0\n", "duplicate fabric node"),
        ],
    )
    def test_rejects_malformed(self, text, fragment):
        with pytest.raises(DeployError, match=fragment):
            parse_deployment(text, "bad.deploy", base_dir=str(REPO / DATA))

    def test_duplicate_tenant_rejected(self):
        text = (
            "host h0\n"
            "tenant t ../../../examples/deploy/dedup.ncl\n"
            "tenant t ../../../examples/deploy/dedup.ncl\n"
        )
        with pytest.raises(DeployError, match="duplicate tenant"):
            parse_deployment(text, "bad.deploy", base_dir=str(REPO / DATA))


# ---------------------------------------------------------------------------
# the four check families
# ---------------------------------------------------------------------------


class TestChecks:
    def test_admissible_example_is_clean(self):
        ctx = ctx_for(EXAMPLE, "examples/deploy")
        assert codes_of(ctx) == []
        assert not ctx.sink.has_errors

    def test_over_capacity(self):
        ctx = ctx_for(f"{DATA}/over_capacity.deploy", DATA)
        assert codes_of(ctx) == ["NCL0910", "NCL0911"]
        stages = [d for d in ctx.sink.sorted() if d.code == "NCL0910"]
        assert len(stages) == 1
        # per-tenant attribution rides in the notes, largest user first
        assert any("training" in n for n in stages[0].notes)
        assert any("kvs" in n for n in stages[0].notes)
        assert any("dedup" in n for n in stages[0].notes)
        assert stages[0].notes[0].startswith("tenant 'kvs'")  # 8 stages
        assert len(stages[0].secondary) == 3

    def test_isolation(self):
        ctx = ctx_for(f"{DATA}/id_collision.deploy", DATA)
        assert codes_of(ctx) == ["NCL0920", "NCL0921", "NCL0922"]
        conflicts = [d for d in ctx.sink.sorted() if d.code == "NCL0922"]
        # accum, count and the seen dedup marks, each with
        # interprocedural write attribution
        assert sorted(
            d.message.split("'")[3] for d in conflicts
        ) == ["accum", "count", "seen"]
        assert all(d.secondary for d in conflicts)

    def test_unreachable_placement(self):
        ctx = ctx_for(f"{DATA}/unreachable.deploy", DATA)
        assert codes_of(ctx) == ["NCL0930", "NCL0931", "NCL0932"]

    def test_transport(self):
        ctx = ctx_for(f"{DATA}/mtu.deploy", DATA)
        assert codes_of(ctx) == ["NCL0940", "NCL0941"]
        frag = [d for d in ctx.sink.sorted() if d.code == "NCL0940"]
        assert frag[0].severity is Severity.ERROR
        assert frag[0].status == "proved"  # exact layouts: not a guess
        intw = [d for d in ctx.sink.sorted() if d.code == "NCL0941"]
        assert intw[0].severity is Severity.WARNING
        assert intw[0].status == "possible"  # only the 8-hop policy busts

    def test_int_headroom_proved_when_min_hops_bust(self, tmp_path):
        # 84-byte links: dedup's 78-byte frame fits, but even a single
        # hop of INT (5 tail + 20 record = 25 > 6 headroom) cannot.
        manifest = (
            "switch sw0 profile=bmv2\n"
            "host sender\nhost sink\n"
            "link sender sw0 mtu=84\nlink sink sw0 mtu=84\n"
            f"tenant dedup {REPO}/examples/deploy/dedup.ncl "
            f"and={REPO}/examples/deploy/dedup.and\n"
            "define dedup FILTER_BITS=1024\n"
            "window dedup dedup=1,4\n"
            "map dedup s1=sw0\n"
        )
        deployment = parse_deployment(manifest, "t.deploy")
        ctx = check_deployment(deployment)
        intw = [d for d in ctx.sink.sorted() if d.code == "NCL0941"]
        assert intw and intw[0].status == "proved"

    def test_fragment_bit_escape(self, tmp_path):
        manifest = (
            "switch sw0 profile=bmv2\n"
            "host sender\nhost sink\n"
            "link sender sw0\nlink sink sw0\n"
            f"tenant dedup {REPO}/examples/deploy/dedup.ncl "
            f"and={REPO}/examples/deploy/dedup.and idbase=32767\n"
            "define dedup FILTER_BITS=1024\n"
            "window dedup dedup=1,4\n"
            "map dedup s1=sw0\n"
        )
        ctx = check_deployment(parse_deployment(manifest, "t.deploy"))
        escapes = [d for d in ctx.sink.sorted() if d.code == "NCL0920"]
        assert escapes and "fragment id space" in escapes[0].message


# ---------------------------------------------------------------------------
# report + goldens
# ---------------------------------------------------------------------------


CASES = [
    ("deploy_admissible", EXAMPLE, "examples/deploy"),
    ("deploy_over_capacity", f"{DATA}/over_capacity.deploy", DATA),
    ("deploy_id_collision", f"{DATA}/id_collision.deploy", DATA),
    ("deploy_unreachable", f"{DATA}/unreachable.deploy", DATA),
    ("deploy_mtu", f"{DATA}/mtu.deploy", DATA),
]


class TestGolden:
    """Byte-identical ``repro.deploy/1`` JSON and text reports.

    Regenerate (after an intentional output change) with::

        PYTHONPATH=src python -c "
        from pathlib import Path
        from tests.test_deploy import CASES, ctx_for
        from repro.analysis.deploy import render_report_json, render_report_text
        for name, manifest, base in CASES:
            ctx = ctx_for(manifest, base)
            Path(f'tests/golden/{name}.json').write_text(render_report_json(ctx))
            Path(f'tests/golden/{name}.txt').write_text(render_report_text(ctx))
        "
    """

    @pytest.mark.parametrize("name,manifest,base", CASES)
    def test_json_golden(self, name, manifest, base):
        ctx = ctx_for(manifest, base)
        assert render_report_json(ctx) == (GOLDEN / f"{name}.json").read_text()

    @pytest.mark.parametrize("name,manifest,base", CASES)
    def test_text_golden(self, name, manifest, base):
        ctx = ctx_for(manifest, base)
        assert render_report_text(ctx) == (GOLDEN / f"{name}.txt").read_text()

    def test_json_is_byte_deterministic_across_runs(self):
        first = render_report_json(ctx_for(EXAMPLE, "examples/deploy"))
        second = render_report_json(ctx_for(EXAMPLE, "examples/deploy"))
        assert first == second

    def test_report_shape(self):
        data = json.loads(render_report_json(ctx_for(EXAMPLE, "examples/deploy")))
        assert data["schema"] == "repro.deploy/1"
        assert data["admissible"] is True
        assert data["summary"] == {"errors": 0, "warnings": 0, "notes": 0}
        sw0 = data["admission"]["sw0"]
        assert set(sw0["tenants"]) == {"training/s1", "dedup/s1"}
        used = sw0["used"]
        cap = sw0["capacity"]
        for res, total in used.items():
            assert total == sum(
                row[res] for row in sw0["tenants"].values()
            )
            assert total <= cap[res]
        kvs = next(t for t in data["tenants"] if t["name"] == "kvs")
        assert kvs["kernels"] == {"query": 17}
        assert kvs["hosts"] == {"c0": "client0", "server": "kvserver"}


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


class TestCli:
    def test_admissible_exits_zero(self, capsys):
        assert deploy_main([str(REPO / EXAMPLE)]) == 0
        assert "deployment ADMISSIBLE" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "manifest,code",
        [
            ("over_capacity", "NCL0910"),
            ("id_collision", "NCL0920"),
            ("unreachable", "NCL0930"),
            ("mtu", "NCL0940"),
        ],
    )
    def test_bad_deployments_exit_one(self, manifest, code, capsys):
        assert deploy_main([str(REPO / DATA / f"{manifest}.deploy")]) == 1
        out = capsys.readouterr().out
        assert f"error[{code}]" in out
        assert "deployment REJECTED" in out

    def test_json_flag(self, capsys):
        assert deploy_main([str(REPO / EXAMPLE), "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["schema"] == "repro.deploy/1"

    def test_no_manifest_exits_two(self, capsys):
        assert deploy_main([]) == 2

    def test_malformed_manifest_exits_two(self, tmp_path, capsys):
        manifest = tmp_path / "bad.deploy"
        manifest.write_text("host h0\n")
        assert deploy_main([str(manifest)]) == 2
        assert "no tenants" in capsys.readouterr().err

    def test_compile_error_exits_two(self, tmp_path, capsys):
        (tmp_path / "broken.ncl").write_text(
            "_net_ _out_ void k(int *d) { d[0] = nope; }\n"
        )
        manifest = tmp_path / "bad.deploy"
        manifest.write_text(
            "switch sw0 profile=bmv2\nhost h0\nlink h0 sw0\n"
            "tenant t broken.ncl\nmap t s1=sw0\n"
        )
        assert deploy_main([str(manifest)]) == 2
        assert "error" in capsys.readouterr().err

    def test_malformed_artifact_tenant_exits_two_naming_it(self, tmp_path, capsys):
        (tmp_path / "t.nclc.json").write_text("[]")
        manifest = tmp_path / "bad.deploy"
        manifest.write_text(
            "switch sw0 profile=bmv2\nhost h0\nlink h0 sw0\n"
            "tenant t t.nclc.json\nmap t s1=sw0\n"
        )
        assert deploy_main([str(manifest)]) == 2
        assert "tenant 't': artifact is not a JSON object" in capsys.readouterr().err

    def test_dispatch_through_nclc_main(self, capsys):
        assert nclc_main(["check-deploy", str(REPO / EXAMPLE)]) == 0

    def test_list_rules(self, capsys):
        assert deploy_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for check in all_checks():
            assert check.name in out
            for code in check.codes:
                assert code in out

    def test_lint_list_rules_includes_deploy_checks(self, capsys):
        from repro.nclc.lint import main as lint_main

        assert lint_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        assert "deployment checks" in out
        assert "NCL0910" in out and "NCL0941" in out


# ---------------------------------------------------------------------------
# code registry (satellite: uniqueness gate)
# ---------------------------------------------------------------------------


class TestCodeRegistry:
    def test_no_collisions_across_all_sources(self):
        table = all_codes()  # raises CodeCollision on any clash
        assert "NCL0910" in table and "NCL0941" in table
        assert "NCL0701" in table  # lint rules folded in
        assert "NCL0001" in table  # static frontend codes folded in

    def test_every_code_is_well_formed(self):
        import re

        for code in all_codes():
            assert re.fullmatch(r"NCL\d{4}", code), code

    def test_assert_unique_rejects_extra_collision(self):
        with pytest.raises(CodeCollision, match="NCL0910"):
            assert_unique([("NCL0910", "an imposter rule")])

    def test_deploy_checks_documented(self):
        docs = (REPO / "docs" / "DIAGNOSTICS.md").read_text()
        for check in all_checks():
            for code in check.codes:
                assert code in docs, f"{code} missing from docs/DIAGNOSTICS.md"

    def test_all_registered_codes_documented(self):
        docs = (REPO / "docs" / "DIAGNOSTICS.md").read_text()
        missing = [c for c in all_codes() if c not in docs]
        assert missing == []
