"""The nclc compiler driver, conformance stage, and IR versioning."""

import pytest

from repro.errors import BackendRejection, ConformanceError, RuntimeApiError
from repro.nclc import Compiler, WindowConfig
from repro.nclc.conformance import check_module
from repro.nclc.versioning import version_module
from repro.andspec import parse_and
from repro.nir import ir

from tests.conftest import (
    ALLREDUCE_DEFINES,
    ALLREDUCE_SRC,
    STAR_AND,
    lowered_module,
)


class TestDriver:
    def test_compiles_with_default_and(self):
        program = Compiler().compile(
            ALLREDUCE_SRC,
            windows={"allreduce": WindowConfig(mask=(4,), ext={"len": 4})},
            defines=ALLREDUCE_DEFINES,
        )
        # default AND synthesizes h0 -- s1 -- h1
        assert {n.label for n in program.and_spec.hosts} == {"h0", "h1"}
        assert "s1" in program.switch_programs

    def test_stage_times_cover_trajectory(self, allreduce_program):
        stages = set(allreduce_program.stage_times)
        assert {
            "frontend",
            "irgen",
            "conformance",
            "versioning",
            "switch-opt",
            "codegen+backend",
        } <= stages

    def test_kernel_ids_stable(self, allreduce_program):
        assert allreduce_program.kernel_ids == {"allreduce": 1}
        assert allreduce_program.kernel_by_id[1] == "allreduce"

    def test_paired_in_kernel(self, allreduce_program):
        assert allreduce_program.paired_in_kernel("allreduce") == "result"

    def test_window_config_mask_must_match_params(self):
        with pytest.raises(RuntimeApiError, match="mask"):
            Compiler().compile(
                ALLREDUCE_SRC,
                and_text=STAR_AND,
                windows={"allreduce": WindowConfig(mask=(4, 4), ext={"len": 4})},
                defines=ALLREDUCE_DEFINES,
            )

    def test_ext_fields_require_values(self):
        with pytest.raises(RuntimeApiError, match="len"):
            Compiler().compile(
                ALLREDUCE_SRC,
                and_text=STAR_AND,
                windows={"allreduce": WindowConfig(mask=(4,))},
                defines=ALLREDUCE_DEFINES,
            )

    def test_unknown_window_config_rejected(self):
        with pytest.raises(RuntimeApiError, match="unknown kernels"):
            Compiler().compile(
                ALLREDUCE_SRC,
                and_text=STAR_AND,
                windows={
                    "allreduce": WindowConfig(mask=(4,), ext={"len": 4}),
                    "ghost": WindowConfig(),
                },
                defines=ALLREDUCE_DEFINES,
            )

    def test_missing_at_label_in_and(self):
        with pytest.raises(Exception, match="s1"):
            Compiler().compile(
                ALLREDUCE_SRC,
                and_text="host a\nhost b\nswitch sX\nlink a sX\nlink sX b",
                windows={"allreduce": WindowConfig(mask=(4,), ext={"len": 4})},
                defines=ALLREDUCE_DEFINES,
            )

    def test_tofino_like_rejects_allreduce_without_splitting(self):
        """On the hardware-flavoured profile, a 4-element window needs 4
        accesses to `accum` in one packet: rejected with actionable
        feedback (the paper's S6 memory-pressure discussion) unless the
        arch-specific register-splitting transformation is allowed."""
        with pytest.raises(BackendRejection) as exc:
            Compiler(profile="tofino-like", split_arrays=False).compile(
                ALLREDUCE_SRC,
                and_text=STAR_AND,
                windows={"allreduce": WindowConfig(mask=(4,), ext={"len": 4})},
                defines=ALLREDUCE_DEFINES,
            )
        assert any("reg_accum" in r for r in exc.value.reasons)

    def test_tofino_like_accepts_allreduce_with_splitting(self):
        """With split_arrays="auto" (default), the compiler performs the
        NetCache/SwitchML per-offset split and the chip accepts."""
        program = Compiler(profile="tofino-like").compile(
            ALLREDUCE_SRC,
            and_text=STAR_AND,
            windows={"allreduce": WindowConfig(mask=(4,), ext={"len": 4})},
            defines=ALLREDUCE_DEFINES,
        )
        splits = program.split_info["s1"]
        assert [s.name for s in splits] == ["accum"]
        assert splits[0].stride == 4
        report = program.reports["s1"]
        assert all(v <= 1 for v in report.max_register_accesses.values())

    def test_compile_convenience_wrapper(self):
        import repro

        program = repro.compile_ncl(
            "_net_ _at_(\"s1\") unsigned total[1] = {0};\n"
            "_net_ _out_ void count(unsigned *d) { total[0] += d[0]; }"
        )
        assert "count" in program.kernel_ids


class TestConformance:
    def test_recursion_rejected(self):
        mod = lowered_module(
            "int f(int x) { return f(x - 1); }\n"
            "_net_ _out_ void k(int *d) { d[0] = f(d[0]); }"
        )
        with pytest.raises(ConformanceError, match="recursive"):
            check_module(mod)

    def test_mutual_recursion_rejected(self):
        mod = lowered_module(
            "int g(int x);\n"
            "int f(int x) { return g(x); }\n"
            "int g(int x) { return f(x); }\n"
            "_net_ _out_ void k(int *d) { d[0] = f(d[0]); }"
        )
        with pytest.raises(ConformanceError, match="recursive"):
            check_module(mod)

    def test_dynamic_division_rejected(self):
        mod = lowered_module("_net_ _out_ void k(int *d) { d[0] = d[0] / d[1]; }")
        with pytest.raises(ConformanceError, match="divisor"):
            check_module(mod)

    def test_pow2_division_allowed(self):
        mod = lowered_module("_net_ _out_ void k(unsigned *d) { d[0] = d[0] / 8; }")
        check_module(mod)

    def test_location_conflict_rejected(self):
        mod = lowered_module(
            '_net_ _at_("s2") int other[4];\n'
            '_net_ _out_ _at_("s1") void k(int *d) { d[0] = other[0]; }'
        )
        with pytest.raises(ConformanceError, match="location conflict"):
            check_module(mod)

    def test_unknown_pass_label_rejected(self):
        mod = lowered_module('_net_ _out_ void k(int *d) { _pass("nowhere"); }')
        spec = parse_and("host a\nswitch s1\nhost b\nlink a s1\nlink s1 b")
        with pytest.raises(ConformanceError, match="nowhere"):
            check_module(mod, spec)

    def test_state_pinned_to_host_rejected(self):
        mod = lowered_module(
            '_net_ _at_("a") int x[2];\n_net_ _out_ void k(int *d) { d[0] = x[0]; }'
        )
        spec = parse_and("host a\nswitch s1\nlink a s1")
        with pytest.raises(ConformanceError, match="host"):
            check_module(mod, spec)


class TestVersioning:
    MULTI = (
        '_net_ _at_("s1") unsigned a[4] = {0};\n'
        '_net_ _at_("s2") unsigned b[4] = {0};\n'
        "_net_ unsigned everywhere[4] = {0};\n"
        '_net_ _out_ _at_("s1") void only1(unsigned *d) { a[0] += d[0]; }\n'
        '_net_ _out_ _at_("s2") void only2(unsigned *d) { b[0] += d[0]; }\n'
        "_net_ _out_ void spmd(unsigned *d) {\n"
        '  if (location.id == _locid("s1")) { d[0] = 111; }\n'
        "  else { d[0] = 222; }\n"
        "}"
    )
    AND = (
        "host h0\nswitch s1\nswitch s2\nhost h1\n"
        "link h0 s1\nlink s1 s2\nlink s2 h1"
    )

    def versions(self):
        mod = lowered_module(self.MULTI)
        return {v.label: v for v in version_module(mod, parse_and(self.AND))}

    def test_one_module_per_switch(self):
        versions = self.versions()
        assert set(versions) == {"s1", "s2"}

    def test_pinned_kernels_filtered(self):
        versions = self.versions()
        assert "only1" in versions["s1"].module.functions
        assert "only1" not in versions["s2"].module.functions
        assert "only2" in versions["s2"].module.functions

    def test_location_less_kernel_everywhere(self):
        versions = self.versions()
        assert "spmd" in versions["s1"].module.functions
        assert "spmd" in versions["s2"].module.functions

    def test_pinned_state_filtered(self):
        versions = self.versions()
        assert "a" in versions["s1"].module.globals
        assert "a" not in versions["s2"].module.globals
        assert "everywhere" in versions["s1"].module.globals
        assert "everywhere" in versions["s2"].module.globals

    def test_location_split_resolves_branches(self):
        """Versioning + folding implements the paper's location splitting:
        the location.id branch collapses to a single arm per switch."""
        versions = self.versions()
        for label, want in (("s1", 111), ("s2", 222)):
            fn = versions[label].module.functions["spmd"]
            from repro.nir.passes import optimize_switch

            optimize_switch(fn)
            stores = [
                i for i in fn.instructions() if isinstance(i, ir.StoreParam)
            ]
            assert len(stores) == 1
            assert isinstance(stores[0].value, ir.Const)
            assert stores[0].value.value == want

    PINNED_C = '_net_ _at_("s1") unsigned c[4];\n'

    def compile_a(self, body, opt_level):
        return Compiler(opt_level=opt_level).compile(
            self.PINNED_C + "_net_ _out_ void a(unsigned *d) {\n" + body + "}\n",
            and_text=self.AND,
            windows={"a": WindowConfig(mask=(1,))},
        )

    @pytest.mark.parametrize("opt_level", [0, 2])
    def test_unguarded_access_to_pinned_state_rejected(self, opt_level):
        """A location-less kernel runs on s2 too, where 'c' has no copy:
        an access location specialization leaves there is NCL0603."""
        with pytest.raises(ConformanceError) as exc:
            self.compile_a("  d[0] = c[0] + 1; c[1] = d[0];\n", opt_level)
        message = str(exc.value)
        assert "NCL0603" in message
        assert "kernel 'a' at \"s2\" accesses 'c' pinned to \"s1\"" in message
        assert 'location.id == _locid("s1")' in message
        assert '_at_("s1")' in message

    @pytest.mark.parametrize("opt_level", [0, 2])
    def test_guarded_access_to_pinned_state_compiles(self, opt_level):
        program = self.compile_a(
            '  if (location.id == _locid("s1")) { d[0] = c[0] + 1; c[1] = d[0]; }\n',
            opt_level,
        )
        assert "reg_c" in program.switch_programs["s1"].registers
        assert "reg_c" not in program.switch_programs["s2"].registers
        assert "reg_c" not in program.switch_sources["s2"]

    def test_spmd_execution_differs_by_location(self):
        src = (
            "_net_ unsigned hits[2] = {0};\n"
            "_net_ _out_ void probe(unsigned *d) {\n"
            '  if (location.id == _locid("s1")) hits[0] += 1;\n'
            "  else hits[1] += 1;\n"
            "}"
        )
        program = Compiler().compile(
            src,
            and_text=self.AND,
            windows={"probe": WindowConfig(mask=(1,))},
        )
        from repro.runtime import Cluster

        cluster = Cluster.from_program(program)
        cluster.host("h0").out("probe", [[1]], dst="h1")
        cluster.run()
        assert cluster.controller.register_dump("hits", label="s1") == [1, 0]
        assert cluster.controller.register_dump("hits", label="s2") == [0, 1]
