"""Evaluate-on-change against plain round-robin (tests/absint_oracle.py).

Every analysis the toolchain makes while it compiles, lints and
protocol-checks a program is made twice -- by ``_Analyzer.run`` and by the
oracle's loop over the same function -- at the moment it is asked for:
before ``rangesimplify`` in the host and switch pipelines, after lint's
inline + mem2reg, on the final switch modules.  The facts must be the
same facts: same rendering, same ``rounds``, same statuses, same
insertion order.
"""

from __future__ import annotations

import pytest

from repro.analysis import absint
from repro.analysis.absint import render_function_facts
from repro.nclc import Compiler, WindowConfig

from tests import toolchain_corpus as corpus
from tests.absint_oracle import OracleAnalyzer
from tests.test_fuzz_compiler import AND, WINDOW, KernelFuzzer


def assert_same_facts(facts, oracle):
    assert render_function_facts(facts) == render_function_facts(oracle)
    assert facts.rounds == oracle.rounds
    assert list(facts.values.items()) == list(oracle.values.items())
    assert list(facts.div_status.items()) == list(oracle.div_status.items())
    assert list(facts.shift_status.items()) == list(oracle.shift_status.items())
    assert facts.infeasible_edges == oracle.infeasible_edges
    assert list(facts.branch_decisions.items()) == list(oracle.branch_decisions.items())
    assert facts.reachable == oracle.reachable
    assert facts.ret_value == oracle.ret_value


@pytest.fixture
def both_engines(monkeypatch):
    """Run the oracle beside every analysis; yields per-analysis
    ``(function name, rounds, transfers made, transfers the oracle made)``."""
    real_run = absint._Analyzer.run
    real_transfer = absint._Analyzer._transfer
    made = []
    log = []

    def counted_transfer(self, instr):
        made.append(instr)
        return real_transfer(self, instr)

    def checked_run(self):
        oracle = OracleAnalyzer(self.fn, self.label_ids, self.win_ext)
        expected = oracle.run()
        del made[:]  # the oracle's evaluations went through the count too
        facts = real_run(self)
        assert_same_facts(facts, expected)
        log.append((self.fn.name, facts.rounds, len(made), oracle.transfers))
        return facts

    monkeypatch.setattr(absint._Analyzer, "run", checked_run)
    monkeypatch.setattr(absint._Analyzer, "_transfer", counted_transfer)
    return log


COMPILABLE = [
    case.name for case in corpus.BENCH + corpus.EXAMPLES
    if case.name != corpus.NEVER_COMPILES
]


@pytest.mark.parametrize("name", COMPILABLE)
def test_every_analysis_of_a_sweep_agrees(name, both_engines):
    case = corpus.by_name(name)
    program, _lint, _proto, _report = corpus.sweep(case)
    program.absint_facts()
    program.render_effects()
    assert both_engines, "the sweep made no analysis"
    # the point of the change: fewer evaluations, never more
    assert sum(mine for *_, mine, _ in both_engines) < sum(
        oracle for *_, oracle in both_engines
    )


def test_verified_build_agrees(both_engines):
    """--verify-opt analyses the function before and after every pass."""
    corpus.compile_case(corpus.by_name("deploy/kvs.ncl"), verify_opt=True)
    assert len(both_engines) > 20


def test_lint_only_program_agrees(both_engines):
    corpus.lint_case(corpus.by_name(corpus.NEVER_COMPILES))
    assert both_engines


@pytest.mark.parametrize("seed", range(24))
def test_generated_kernels_agree(seed, both_engines):
    """The compiler fuzzer's kernels (nested branches, constant loops,
    switch state): lint's inline + mem2reg view and the host pipeline keep
    the loops, so widening and 4+-round analyses are in here."""
    from repro.analysis import lint_source
    from repro.errors import BackendRejection, ConformanceError

    source = KernelFuzzer(seed).kernel()
    try:
        Compiler().compile(
            source, and_text=AND, windows={"fuzzed": WindowConfig(mask=(WINDOW,))}
        )
    except (BackendRejection, ConformanceError):
        pass  # the analyses up to the rejection were compared
    lint_source(source, f"fuzz{seed}.ncl", and_text=AND)
    assert both_engines


def test_loops_take_more_than_the_confirming_round(both_engines):
    """At least one generated kernel must reach the rounds where skipping
    matters beyond the last one (a loop-carried value being widened)."""
    from repro.analysis import lint_source

    for seed in range(24):
        lint_source(KernelFuzzer(seed).kernel(), f"fuzz{seed}.ncl", and_text=AND)
    assert max(rounds for _, rounds, _, _ in both_engines) >= 4
