"""Per-rule positive/negative tests for the repro.analysis framework."""

import pytest

from repro.analysis import RULES, Registry, Rule, lint_source
from repro.diag import Severity
from repro.errors import IrError
from repro.ncl.types import BOOL, I32, VOID
from repro.nir import ir
from repro.nir.verify import verify_function


def lint(source, **kw):
    return lint_source(source, "test.ncl", **kw)


def codes(result):
    return [d.code for d in result.sink.sorted()]


select_rules = RULES.select


def rule_names():
    return [rule.name for rule in RULES.all()]


def warnings_with(result, code):
    return [d for d in result.sink.sorted() if d.code == code]


class TestRuleSelection:
    """The shared Registry class, through the lint instance (check-deploy
    and check-proto own two more instances of the same class)."""

    def test_duplicate_name_rejected(self):
        registry = Registry("toy check", code_width=8)

        @registry.register
        class First(Rule):
            name = "one"

        with pytest.raises(ValueError, match="duplicate toy check 'one'"):
            registry.register(First)
        assert [r.name for r in registry.all()] == ["one"]

    def test_all_rules_by_default(self):
        assert [r.name for r in select_rules()] == rule_names()

    def test_positive_selection(self):
        assert [r.name for r in select_rules(["race"])] == ["race"]
        picked = [r.name for r in select_rules(["dead-store", "race"])]
        # registry order is preserved regardless of the spec order
        assert set(picked) == {"race", "dead-store"}
        assert picked == [n for n in rule_names() if n in picked]

    def test_negative_selection(self):
        names = [r.name for r in select_rules(["no-race"])]
        assert "race" not in names
        assert len(names) == len(rule_names()) - 1

    def test_all_with_negatives(self):
        names = [r.name for r in select_rules(["all", "no-overflow"])]
        assert "overflow" not in names and "race" in names

    def test_unknown_rule_raises(self):
        with pytest.raises(ValueError, match="unknown analysis rule"):
            select_rules(["not-a-rule"])
        with pytest.raises(ValueError, match="unknown analysis rule"):
            lint("_net_ _out_ void k(int *d) { d[0] = 1; }", rules=["nope"])


def test_helper_attribution_is_hash_seed_independent(tmp_path):
    """Which access a race report anchors on used to follow the iteration
    order of a set of helper names, i.e. PYTHONHASHSEED, once a kernel
    called two helpers; ``--json`` must not differ between processes."""
    import os
    import subprocess
    import sys

    src = tmp_path / "helpers.ncl"
    src.write_text(
        "_net_ unsigned A[4] = {0};\n"
        "_net_ unsigned B[4] = {0};\n"
        "void h1(unsigned *d) { A[0] = d[0]; }\n"
        "void h2(unsigned *d) { B[0] = d[1]; h1(d); }\n"
        "void h3(unsigned *d) { A[1] += d[2]; B[1] = 1; }\n"
        "_net_ _out_ void k1(unsigned *d) { h2(d); h3(d); h1(d); }\n"
        "_net_ _out_ void k2(unsigned *d) { A[2] = d[0]; h3(d); B[2] = 2; }\n"
    )
    reports = set()
    for seed in ("0", "1", "2", "3"):
        env = dict(os.environ, PYTHONHASHSEED=seed)
        done = subprocess.run(
            [sys.executable, "-m", "repro.nclc", "lint", "--json", str(src)],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert done.returncode == 1, done.stderr
        reports.add(done.stdout)
    assert len(reports) == 1


class TestRaceDetector:
    TWO_KERNELS = (
        "_net_ unsigned c[4] = {0};\n"
        "_net_ _out_ void a(unsigned k) { c[k & 3] += 1; }\n"
        "_net_ _out_ void b(unsigned k) { c[k & 3] += 1; }\n"
    )

    def test_two_unpinned_kernels_race(self):
        result = lint(self.TWO_KERNELS, rules=["race"])
        races = warnings_with(result, "NCL0701")
        assert len(races) == 1
        # both conflicting sites: a primary plus at least one secondary span
        assert races[0].primary is not None
        assert len(races[0].secondary) >= 1
        assert "'c'" in races[0].message

    def test_single_kernel_is_not_a_race(self):
        src = (
            "_net_ unsigned c[4] = {0};\n"
            "_net_ _out_ void a(unsigned k) { c[k & 3] += 1; }\n"
        )
        assert codes(lint(src, rules=["race"])) == []

    def test_pinned_symbol_serializes_unpinned_kernels(self):
        src = self.TWO_KERNELS.replace(
            "_net_ unsigned", '_net_ _at_("s1") unsigned'
        )
        assert codes(lint(src, rules=["race"])) == []

    def test_kernel_pinned_elsewhere_still_races(self):
        src = (
            '_net_ _at_("s1") unsigned c[4] = {0};\n'
            "_net_ _out_ void a(unsigned k) { c[k & 3] += 1; }\n"
            '_net_ _out_ _at_("s2") void b(unsigned k) { c[k & 3] += 1; }\n'
        )
        races = warnings_with(lint(src, rules=["race"]), "NCL0701")
        assert len(races) == 1

    def test_host_write_vs_kernel_read_on_map(self):
        src = (
            "_net_ ncl::Map<unsigned, unsigned, 64> Hot;\n"
            "_net_ _out_ void k(unsigned key) {\n"
            "  if (auto *h = Hot[key]) { if (*h) _drop(); }\n"
            "}\n"
            "int main() { ncl::map_insert(Hot, 1, 1); return 0; }\n"
        )
        result = lint(src, rules=["race"])
        races = warnings_with(result, "NCL0701")
        assert len(races) == 1
        joined = races[0].message + " ".join(
            s.label or "" for s in races[0].secondary
        ) + " ".join(races[0].notes)
        assert "host" in joined or "control" in joined

    def test_quickstart_ctrl_pattern_is_clean(self):
        src = (
            '_net_ _at_("s1") _ctrl_ int threshold;\n'
            "_net_ _out_ void k(int *d) { if (d[0] > threshold) _drop(); }\n"
            "int main() { ncl::ctrl_wr(&threshold, 7); return 0; }\n"
        )
        assert codes(lint(src, rules=["race"])) == []

    def test_race_through_helper_call(self):
        """A helper cannot name switch state: sema rejects the access
        (NCL0400), and the race rule, which reads each kernel's own
        accesses, has nothing to add."""
        src = (
            "_net_ unsigned c[4] = {0};\n"
            "void bump(unsigned k) { c[k & 3] += 1; }\n"
            "_net_ _out_ void a(unsigned k) { bump(k); }\n"
            "_net_ _out_ void b(unsigned k) { bump(k); }\n"
        )
        result = lint(src, rules=["race"])
        rejected = warnings_with(result, "NCL0400")
        assert [(d.primary.line, d.primary.column) for d in rejected] == [(2, 25)]
        assert "'c'" in rejected[0].message
        assert warnings_with(result, "NCL0701") == []


class TestDefUseRules:
    def test_uninit_read(self):
        src = (
            "_net_ _out_ void k(unsigned key, int *d) {\n"
            "  int x;\n"
            "  if (key & 1) x = d[0];\n"
            "  d[1] = x;\n"
            "}\n"
        )
        found = warnings_with(lint(src, rules=["uninit-read"]), "NCL0702")
        assert len(found) == 1 and "'x'" in found[0].message

    def test_uninit_read_negative(self):
        src = "_net_ _out_ void k(int *d) { int x = 0; d[1] = x; }"
        assert codes(lint(src, rules=["uninit-read"])) == []

    def test_dead_store(self):
        src = (
            "_net_ _out_ void k(int *d) {\n"
            "  int h = 0;\n"
            "  h = d[0];\n"
            "  d[1] = h;\n"
            "}\n"
        )
        found = warnings_with(lint(src, rules=["dead-store"]), "NCL0703")
        assert len(found) == 1

    def test_dead_store_negative(self):
        src = "_net_ _out_ void k(int *d) { int h = 0; d[1] = h; }"
        assert codes(lint(src, rules=["dead-store"])) == []

    def test_unreachable_after_return(self):
        src = (
            "_net_ _out_ void k(int *d) {\n"
            "  if (d[0]) { return; d[1] = 1; }\n"
            "  d[2] = 2;\n"
            "}\n"
        )
        found = warnings_with(lint(src, rules=["unreachable-code"]), "NCL0704")
        assert len(found) == 1

    def test_reachable_code_is_clean(self):
        src = "_net_ _out_ void k(int *d) { if (d[0]) return; d[2] = 2; }"
        assert codes(lint(src, rules=["unreachable-code"])) == []

    def test_unbounded_loop(self):
        src = "_net_ _out_ void k(int *d) { while (1) { d[0] += 1; } }"
        found = warnings_with(lint(src, rules=["unbounded-loop"]), "NCL0705")
        assert len(found) == 1

    def test_loop_with_break_is_bounded(self):
        src = (
            "_net_ _out_ void k(int *d) {\n"
            "  while (1) { if (d[0]) break; d[0] += 1; }\n"
            "}\n"
        )
        assert codes(lint(src, rules=["unbounded-loop"])) == []

    def test_host_loops_are_not_flagged(self):
        src = (
            "_net_ _out_ void k(int *d) { d[0] = 1; }\n"
            "int main() { while (1) { } return 0; }\n"
        )
        assert codes(lint(src, rules=["unbounded-loop"])) == []


class TestArithmeticRules:
    def test_implicit_truncation(self):
        src = "_net_ _out_ void k(int *d) { short s = d[0]; d[1] = s; }"
        found = warnings_with(lint(src, rules=["width-truncation"]), "NCL0801")
        assert len(found) == 1
        assert "32" in found[0].message and "16" in found[0].message

    def test_explicit_cast_is_clean(self):
        src = "_net_ _out_ void k(int *d) { short s = (short)d[0]; d[1] = s; }"
        assert codes(lint(src, rules=["width-truncation"])) == []

    def test_shift_out_of_range(self):
        src = "_net_ _out_ void k(int *d) { d[0] = d[1] << 40; }"
        found = warnings_with(lint(src, rules=["shift-range"]), "NCL0802")
        assert len(found) == 1
        # a constant out-of-range amount is proved, hence error-grade
        assert found[0].status == "proved"
        assert found[0].severity is Severity.ERROR

    def test_shift_in_range_is_clean(self):
        src = "_net_ _out_ void k(int *d) { d[0] = d[1] << 3; }"
        assert codes(lint(src, rules=["shift-range"])) == []

    def test_variable_shift_range_graded_possible(self):
        src = (
            "_net_ _out_ void k(unsigned *d) { d[0] = d[1] >> (d[2] & 63); }"
        )
        found = warnings_with(lint(src, rules=["shift-range"]), "NCL0802")
        assert len(found) == 1
        assert found[0].status == "possible"
        assert found[0].severity is Severity.WARNING

    def test_variable_shift_masked_in_range_is_clean(self):
        src = (
            "_net_ _out_ void k(unsigned *d) { d[0] = d[1] >> (d[2] & 31); }"
        )
        assert codes(lint(src, rules=["shift-range"])) == []

    def test_constant_overflow(self):
        src = "_net_ _out_ void k(int *d) { d[0] = 2000000000 + 2000000000; }"
        found = warnings_with(lint(src, rules=["overflow"]), "NCL0803")
        assert len(found) == 1
        assert found[0].status == "proved"
        assert found[0].severity is Severity.ERROR

    def test_unknown_operands_do_not_flag_overflow(self):
        # d[0] + d[1] can of course wrap, but both ranges are full-width
        # unknowns: flagging this would flag half of every program
        src = "_net_ _out_ void k(int *d) { d[0] = d[0] + d[1]; }"
        assert codes(lint(src, rules=["overflow"])) == []

    def test_div_by_zero_graded(self):
        proved = "_net_ _out_ void k(unsigned *d) { d[0] = d[1] / (d[2] & 0); }"
        found = warnings_with(lint(proved, rules=["div-by-zero"]), "NCL0805")
        assert len(found) == 1 and found[0].status == "proved"
        maybe = "_net_ _out_ void k(unsigned *d) { d[0] = d[1] / (d[2] & 3); }"
        found = warnings_with(lint(maybe, rules=["div-by-zero"]), "NCL0805")
        assert len(found) == 1 and found[0].status == "possible"
        # (NCL0602, the conformance complaint about non-power-of-two
        # divisors, still fires -- only the zero-divisor finding is gone)
        clean = "_net_ _out_ void k(unsigned *d) { d[0] = d[1] / ((d[2] & 3) | 4); }"
        assert warnings_with(lint(clean, rules=["div-by-zero"]), "NCL0805") == []

    def test_dead_branch_proved_only(self):
        src = (
            "_net_ _out_ void k(unsigned *d) {\n"
            "  unsigned low = d[0] & 7;\n"
            "  if (low > 9) { d[1] = 1; }\n"
            "}\n"
        )
        found = warnings_with(lint(src, rules=["dead-branch"]), "NCL0706")
        assert len(found) == 1
        assert found[0].status == "proved"
        assert "always false" in found[0].message
        live = (
            "_net_ _out_ void k(unsigned *d) {\n"
            "  unsigned low = d[0] & 7;\n"
            "  if (low > 3) { d[1] = 1; }\n"
            "}\n"
        )
        assert codes(lint(live, rules=["dead-branch"])) == []

    def test_truncation_suppressed_when_value_fits(self):
        src = (
            "_net_ _out_ void k(int *d) { short s = d[0] & 255; d[1] = s; }"
        )
        assert codes(lint(src, rules=["width-truncation"])) == []

    def test_truncation_proved_when_value_never_fits(self):
        src = (
            "_net_ _out_ void k(int *d) {"
            " short s = (d[0] & 255) + 70000; d[1] = s; }"
        )
        found = warnings_with(lint(src, rules=["width-truncation"]), "NCL0801")
        assert len(found) == 1
        assert found[0].status == "proved"
        assert found[0].severity is Severity.ERROR


class TestUsageRules:
    def test_unused_out_kernel(self):
        src = (
            "_net_ _out_ void used(int *d) { d[0] = 1; }\n"
            "_net_ _out_ void lonely(int *d) { d[0] = 1; }\n"
            "int main() { ncl::out(used, {0}); return 0; }\n"
        )
        found = warnings_with(lint(src, rules=["unused-kernel"]), "NCL0901")
        assert len(found) == 1 and "lonely" in found[0].message

    def test_no_host_code_means_no_usage_verdict(self):
        src = "_net_ _out_ void lonely(int *d) { d[0] = 1; }"
        assert codes(lint(src, rules=["unused-kernel"])) == []

    def test_a_kernel_helper_is_not_host_code(self):
        """A pure helper a kernel calls is switch code; with no other
        function the program is Python-driven and gets no verdict."""
        src = (
            "_net_ unsigned c[4] = {0};\n"
            "unsigned idx(unsigned k) { return k & 3; }\n"
            "_net_ _out_ void a(unsigned k) { c[idx(k)] += 1; }\n"
        )
        assert codes(lint(src)) == []
        with_main = src + "int main() { return 0; }\n"
        found = warnings_with(lint(with_main, rules=["unused-kernel"]), "NCL0901")
        assert len(found) == 1 and "'a'" in found[0].message

    def test_unused_window_field(self):
        src = (
            "struct window { unsigned tag; };\n"
            "_net_ _out_ void k(int *d) { d[0] = 1; }\n"
        )
        found = warnings_with(
            lint(src, rules=["unused-window-field"]), "NCL0903"
        )
        assert len(found) == 1 and "tag" in found[0].message

    def test_read_window_field_is_clean(self):
        src = (
            "struct window { unsigned tag; };\n"
            "_net_ _out_ void k(int *d) { d[0] = window.tag; }\n"
        )
        assert codes(lint(src, rules=["unused-window-field"])) == []


class TestPisaResourceRule:
    TWO_ACCESSES = (
        '_net_ _at_("s1") unsigned c[4] = {0};\n'
        "_net_ _out_ void k(unsigned key) { c[0] = c[1] + 1; }\n"
    )

    def test_register_access_budget_tofino(self):
        result = lint(
            self.TWO_ACCESSES, profile="tofino-like", rules=["pisa-resources"]
        )
        found = warnings_with(result, "NCL0611")
        assert len(found) == 1 and "'c'" in found[0].message

    def test_register_access_budget_bmv2(self):
        assert codes(lint(self.TWO_ACCESSES, rules=["pisa-resources"])) == []

    def test_multiply_without_mul_support(self):
        src = "_net_ _out_ void k(int *d) { d[0] = d[1] * d[2]; }"
        result = lint(src, profile="tofino-like", rules=["pisa-resources"])
        assert [d.code for d in result.sink.sorted()] == ["NCL0610"]

    def test_power_of_two_multiply_is_fine(self):
        src = "_net_ _out_ void k(int *d) { d[0] = d[1] * 8; }"
        result = lint(src, profile="tofino-like", rules=["pisa-resources"])
        assert codes(result) == []


class TestErrorRecovery:
    def test_three_sema_errors_reported_together(self):
        src = (
            "_net_ ncl::Map<unsigned, unsigned, 64> M;\n"
            "_net_ _out_ void k(int *d) { d[0] = nope; }\n"
            "_net_ _out_ void j(int *d) { d[0] = alsonope; }\n"
        )
        result = lint(src)
        errors = [
            d for d in result.sink.sorted() if d.severity is Severity.ERROR
        ]
        assert len(errors) >= 3
        for diag in errors:
            assert diag.code.startswith("NCL")
            assert diag.primary is not None

    def test_broken_kernel_dropped_healthy_kernel_analyzed(self):
        src = (
            "_net_ _out_ void bad(int *d) { d[0] = nope; }\n"
            "_net_ _out_ void good(int *d) { int h = 0; h = d[0]; d[1] = h; }\n"
        )
        result = lint(src, rules=["dead-store"])
        assert result.module is not None
        assert "good" in result.module.functions
        assert "bad" not in result.module.functions
        assert len(warnings_with(result, "NCL0703")) == 1

    def test_syntax_error_is_a_single_diagnostic(self):
        result = lint("_net_ _out_ void k(int *d) {")
        assert len(result.sink) == 1
        assert result.sink.sorted()[0].code == "NCL0101"

    def test_werror_promotes(self):
        src = "_net_ _out_ void k(int *d) { int h = 0; h = d[0]; d[1] = h; }"
        result = lint(src, rules=["dead-store"], werror=True)
        assert result.sink.has_errors and result.exit_code == 1


class TestVerifierTargets:
    """The branch-target and phi-arity verifier checks (satellite)."""

    def test_br_to_foreign_block(self):
        fn = ir.Function("f", ir.FunctionKind.HELPER, [], VOID)
        entry = fn.new_block("entry")
        other = ir.Function("g", ir.FunctionKind.HELPER, [], VOID)
        foreign = other.new_block("elsewhere")
        entry.append(ir.Br(foreign))
        with pytest.raises(IrError, match="br targets 'elsewhere"):
            verify_function(fn)

    def test_condbr_edge_to_foreign_block(self):
        fn = ir.Function("f", ir.FunctionKind.HELPER, [], VOID)
        entry = fn.new_block("entry")
        local = fn.new_block("local")
        local.append(ir.Ret())
        other = ir.Function("g", ir.FunctionKind.HELPER, [], VOID)
        foreign = other.new_block("elsewhere")
        cond = entry.append(ir.Cast("bool", ir.Const(I32, 1), BOOL))
        entry.append(ir.CondBr(cond, foreign, local))
        with pytest.raises(IrError, match="condbr then-edge targets"):
            verify_function(fn)

    def test_phi_arity_mismatch(self):
        fn = ir.Function("f", ir.FunctionKind.HELPER, [], VOID)
        entry = fn.new_block("entry")
        left = fn.new_block("left")
        join = fn.new_block("join")
        cond = entry.append(ir.Cast("bool", ir.Const(I32, 1), BOOL))
        entry.append(ir.CondBr(cond, left, join))
        left.append(ir.Br(join))
        phi = ir.Phi(I32)
        phi.incoming.append((ir.Const(I32, 1), left))
        phi.block = join
        join.instrs.insert(0, phi)  # one incoming, two predecessors
        join.append(ir.Ret())
        with pytest.raises(
            IrError, match="incoming values but the block has 2 predecessors"
        ):
            verify_function(fn)
