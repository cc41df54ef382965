"""Tests for the transport-safety verifier (``nclc check-proto``).

Four layers:

* the explicit-state model checker -- minimal counterexamples, guard
  absorption, restart hazards, state-space sizes;
* the check registry -- NCL0850-family findings on hand-written
  programs;
* the CLI -- exit codes, ``--werror``, ``--list-rules``, and the
  byte-deterministic ``repro.proto/1`` JSON report;
* counterexample replay -- the seeded unsafe counter of
  tests/data/proto/unsafe_counter.ncl is rejected (exit 1) and its
  minimal schedule, replayed on a real :class:`~repro.runtime.Cluster`,
  reproduces the double-count end-to-end.
"""

import json
from pathlib import Path

import pytest

from repro.analysis.effects import SymbolEffect
from repro.analysis.proto import (
    all_checks,
    check_kernel_model,
    check_program,
    replay_counterexample,
)
from repro.diag import Severity
from repro.errors import ReproError
from repro.nclc import Compiler
from repro.nclc.proto import main as proto_main

REPO = Path(__file__).resolve().parent.parent
UNSAFE = REPO / "tests" / "data" / "proto" / "unsafe_counter.ncl"

#: the minimal double-count schedule the BFS must find for an
#: unguarded fold: the retransmitted attempt re-executes the kernel
CANONICAL_SCHEDULE = [
    {"action": "send", "attempt": 0},
    {"action": "deliver", "attempt": 0},
    {"action": "retransmit", "attempt": 1},
    {"action": "deliver", "attempt": 1},
]


def compile_file(path, opt_level=2):
    return Compiler(opt_level=opt_level).compile(
        path.read_text(), filename=str(path)
    )


def compile_src(text, opt_level=2):
    return Compiler(opt_level=opt_level).compile(text, filename="<test>")


def kernel_effects(program, label, kernel):
    return program.effect_summaries()[label][kernel]


class TestModelChecker:
    def test_unguarded_fold_yields_minimal_counterexample(self):
        eff = kernel_effects(compile_file(UNSAFE), "s1", "tally")
        result = check_kernel_model(eff, "s1")
        assert result.verdict == "unsafe"
        cx = result.counterexample
        assert cx is not None
        assert cx.symbol == "hits"
        assert cx.applied == 2
        # breadth-first search: no shorter schedule exists, and the
        # canonical one is deterministic
        assert cx.schedule == CANONICAL_SCHEDULE
        assert result.states_explored == 20

    def test_guarded_fold_is_at_most_once(self):
        program = compile_file(REPO / "examples" / "parity.ncl")
        eff = kernel_effects(program, "s1", "parity")
        result = check_kernel_model(eff, "s1")
        assert result.verdict == "at-most-once"
        assert result.counterexample is None
        # the guard enlarges the reachable space (marked bit) but the
        # search still terminates exhaustively
        assert result.states_explored == 59

    def test_all_idempotent_kernel_skips_the_search(self):
        program = compile_file(REPO / "examples" / "fig5_kvs.ncl")
        eff = kernel_effects(program, "s1", "query")
        result = check_kernel_model(eff, "s1")
        assert result.verdict == "exactly-once"
        assert result.counterexample is None
        assert result.states_explored == 1  # nothing to track

    def test_cross_switch_guard_fails_on_restart(self):
        """A dedup mark on another switch does not survive together
        with the state it guards: restart(mark's switch) clears the
        mark, the retransmit re-applies the fold."""
        program = compile_file(REPO / "examples" / "parity.ncl")
        eff = kernel_effects(program, "s1", "parity")
        result = check_kernel_model(
            eff, "s1", symbol_labels={"mark": "s2"}
        )
        assert result.verdict == "unsafe"
        cx = result.counterexample
        assert cx is not None
        actions = [step["action"] for step in cx.schedule]
        assert "restart" in actions
        restarts = [s for s in cx.schedule if s["action"] == "restart"]
        assert restarts == [{"action": "restart", "switch": "s2"}]

    def test_opt_level_does_not_change_the_verdict(self):
        for opt_level in (0, 1, 2):
            eff = kernel_effects(
                compile_file(UNSAFE, opt_level=opt_level), "s1", "tally"
            )
            result = check_kernel_model(eff, "s1")
            assert result.verdict == "unsafe"
            assert result.counterexample.schedule == CANONICAL_SCHEDULE


class TestChecks:
    def test_registry_is_sorted_and_complete(self):
        checks = all_checks()
        names = [c.name for c in checks]
        assert names == sorted(names)
        assert names == [
            "effects", "guard-coverage", "restart-hazard", "window-model",
        ]
        codes = sorted(code for c in checks for code in c.codes)
        assert codes == [
            "NCL0850", "NCL0851", "NCL0852", "NCL0853", "NCL0854",
            "NCL0855",
        ]

    def test_unsafe_counter_raises_0851_and_0854(self):
        ctx = check_program(compile_file(UNSAFE))
        by_code = {d.code for d in ctx.sink}
        assert by_code == {"NCL0851", "NCL0854"}
        assert ctx.sink.has_errors
        model_error = next(d for d in ctx.sink if d.code == "NCL0854")
        assert model_error.severity is Severity.ERROR
        assert "send(a0), deliver(a0), retransmit(a1), deliver(a1)" in (
            " ".join(model_error.notes)
        )

    def test_unsafe_rmw_raises_0850(self):
        ctx = check_program(compile_src(
            """
            _net_ _at_("s1") unsigned acc[4] = {0};
            _net_ _out_ void k(unsigned *v) {
              acc[0] = acc[0] * 2 + v[0];   // not a recognized fold
            }
            """
        ))
        codes = {d.code for d in ctx.sink}
        assert "NCL0850" in codes
        rmw = next(d for d in ctx.sink if d.code == "NCL0850")
        assert rmw.severity is Severity.ERROR

    def test_partial_guard_raises_0853(self):
        ctx = check_program(compile_src(
            """
            _net_ _at_("s1") unsigned total[1] = {0};
            _net_ _at_("s1") unsigned mark[64] = {0};
            _net_ _out_ void k(unsigned *v) {
              if (mark[window.seq & 63] == 0) {
                mark[window.seq & 63] = 1;
                total[0] += v[0];
              }
              total[0] += 1;   // outside the guard: still replays
            }
            """
        ))
        codes = {d.code for d in ctx.sink}
        assert "NCL0853" in codes
        assert "NCL0854" in codes  # the model confirms the double-apply
        assert ctx.sink.has_errors

    def test_guarded_clean_program_has_no_findings(self):
        ctx = check_program(
            compile_file(REPO / "examples" / "parity.ncl")
        )
        assert list(ctx.sink) == []
        assert not ctx.sink.has_errors

    def test_cross_switch_mark_raises_0855(self):
        """Injecting a guard-symbol summary pinned to another switch
        makes both the structural check (NCL0855) and the model
        (NCL0854, via a restart step) fire."""
        program = compile_file(REPO / "examples" / "parity.ncl")
        from repro.analysis.proto import ProtoContext, run_checks

        ctx = ProtoContext(program)
        summaries = ctx.effect_summaries()
        eff = summaries["s1"]["parity"]
        eff.symbols["mark"] = SymbolEffect("mark", "net", "s2", [])
        run_checks(ctx)
        codes = {d.code for d in ctx.sink}
        assert "NCL0855" in codes
        assert "NCL0854" in codes
        hazard = next(d for d in ctx.sink if d.code == "NCL0855")
        assert "'s2'" in hazard.message and "'s1'" in hazard.message


class TestCli:
    def test_unsafe_counter_exits_1(self, capsys):
        assert proto_main([str(UNSAFE)]) == 1
        out = capsys.readouterr().out
        assert "transport-safety: UNSAFE" in out
        assert "minimal counterexample (4 steps" in out

    def test_unsafe_counter_json_counterexample_is_canonical(self, capsys):
        assert proto_main([str(UNSAFE), "--json"]) == 1
        report = json.loads(capsys.readouterr().out)
        assert report["schema"] == "repro.proto/1"
        assert report["safe"] is False
        [kernel] = report["kernels"]
        assert kernel["kernel"] == "tally"
        assert kernel["verdict"] == "unsafe"
        assert kernel["counterexample"]["symbol"] == "hits"
        assert kernel["counterexample"]["schedule"] == CANONICAL_SCHEDULE

    @pytest.mark.parametrize("example", [
        "parity.ncl", "stats.ncl", "fig4_allreduce.ncl", "fig5_kvs.ncl",
    ])
    def test_shipped_examples_are_clean_even_under_werror(
        self, capsys, example
    ):
        path = REPO / "examples" / example
        assert proto_main([str(path), "--werror"]) == 0
        out = capsys.readouterr().out
        assert "transport-safety: SAFE (0 warning(s))" in out

    def test_multiple_sources_fail_if_any_fails(self, capsys):
        parity = REPO / "examples" / "parity.ncl"
        assert proto_main([str(parity), str(UNSAFE)]) == 1
        out = capsys.readouterr().out
        assert out.count("transport-safety:") == 2

    def test_json_report_is_byte_deterministic(self, capsys):
        proto_main([str(UNSAFE), "--json"])
        first = capsys.readouterr().out
        proto_main([str(UNSAFE), "--json"])
        second = capsys.readouterr().out
        assert first == second

    def test_list_rules(self, capsys):
        assert proto_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for check in all_checks():
            assert check.name in out
            for code in check.codes:
                assert code in out

    def test_no_sources_exits_2(self, capsys):
        assert proto_main([]) == 2


class TestReplay:
    """The ISSUE's acceptance criterion, end to end: the minimal
    counterexample emitted by check-proto replays in the simulator and
    reproduces the double-count on real switch registers."""

    def test_counterexample_replays_to_a_double_count(self, capsys):
        assert proto_main([str(UNSAFE), "--json"]) == 1
        report = json.loads(capsys.readouterr().out)
        [kernel] = report["kernels"]
        schedule = kernel["counterexample"]["schedule"]

        program = compile_file(UNSAFE)
        after = replay_counterexample(program, "s1", "tally", schedule)
        assert after["hits"] == [2]  # the replayed attempt re-applied

        # the failure-free prefix of the same schedule counts once
        happy = [s for s in schedule if s["action"] in ("send", "deliver")]
        baseline = replay_counterexample(program, "s1", "tally", happy)
        assert baseline["hits"] == [1]

    def test_restart_swaps_in_a_zeroed_switch(self):
        program = compile_file(UNSAFE)
        after = replay_counterexample(program, "s1", "tally", [
            {"action": "send", "attempt": 0},
            {"action": "deliver", "attempt": 0},
            {"action": "restart", "switch": "s1"},
        ])
        assert after["hits"] == [0]

    def test_guarded_kernel_survives_the_canonical_schedule(self):
        program = compile_file(REPO / "examples" / "parity.ncl")
        after = replay_counterexample(
            program, "s1", "parity", CANONICAL_SCHEDULE
        )
        assert after["total"] == [1]  # the dedup mark absorbed attempt 1
        assert after["odd"] == [1]

    def test_drop_is_not_replayable(self):
        program = compile_file(UNSAFE)
        with pytest.raises(ReproError, match="drop"):
            replay_counterexample(program, "s1", "tally", [
                {"action": "send", "attempt": 0},
                {"action": "drop", "attempt": 0},
            ])

    def test_unknown_kernel_is_rejected(self):
        program = compile_file(UNSAFE)
        with pytest.raises(ReproError, match="nope"):
            replay_counterexample(program, "s1", "nope", [])
