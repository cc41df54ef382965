"""What a compile + lint + check-proto costs, pinned as counts that do not
depend on the machine (the idiom of tests/test_obs_bindonce.py) or on the
interpreter: calls of this repo's own Python functions against the
parent's, abstract-interpreter transfer evaluations against plain
round-robin's, and dominance frontiers computed only where they are read.

Parent = commit 46853cb (per-character lexer, round-robin absint, eager
frontiers), measured there with this file's ``sweep_calls``: 43 775 calls
for ``bench/inputs/fig4_allreduce.ncl`` and 50 465 for
``bench/inputs/deploy/kvs.ncl``; this commit reads 30 961 (0.71x) and
38 063 (0.75x).  Builtins, the standard library and comprehension bodies
are left out because their call counts differ between the CI matrix's
CPythons (3.12 inlines comprehensions, ``re`` and ``dataclasses`` change
inside); with them, as cProfile's ``total_calls`` on CPython 3.11, the
same two sweeps read 101 344 -> 69 471 (0.69x) and 119 207 -> 89 505
(0.75x).
"""

from __future__ import annotations

import inspect
import os
import sys

import pytest

import repro
from repro.nir import cfg, mem2reg

from tests import toolchain_corpus as corpus
from tests.test_absint_differential import both_engines  # noqa: F401  (fixture)

PARENT_CALLS = {"fig4_allreduce.ncl": 43_775, "deploy/kvs.ncl": 50_465}

SRC = os.path.dirname(repro.__file__)
#: code objects CPython 3.12 no longer calls (PEP 709 inlines them)
COMPREHENSIONS = frozenset({"<listcomp>", "<dictcomp>", "<setcomp>"})


def sweep_calls(case) -> int:
    """Calls of functions defined under ``src/repro`` in one warmed sweep."""
    for _ in range(2):  # imports, lazily compiled regexes, lru_caches
        corpus.sweep(case)
    calls = 0

    def on_event(frame, event, arg):
        nonlocal calls
        if event == "call":
            code = frame.f_code
            if code.co_filename.startswith(SRC) and code.co_name not in COMPREHENSIONS:
                calls += 1

    sys.setprofile(on_event)
    try:
        corpus.sweep(case)
    finally:
        sys.setprofile(None)
    return calls


@pytest.mark.parametrize("name", sorted(PARENT_CALLS))
def test_a_sweep_makes_at_most_four_fifths_of_the_parents_calls(name):
    calls = sweep_calls(corpus.by_name(name))
    assert calls <= 0.8 * PARENT_CALLS[name], (calls, PARENT_CALLS[name])


def transfers(log):
    """(made, round-robin would have made) over the analyses in *log*."""
    return sum(made for *_, made, _ in log), sum(oracle for *_, oracle in log)


@pytest.mark.parametrize("name", sorted(PARENT_CALLS))
def test_two_round_analyses_evaluate_each_instruction_once(name, both_engines):
    """Every analysis of these two programs converges in two rounds, the
    second only confirming the first: half of round-robin's evaluations
    is the floor, and it is reached (parent 306 / 398, here 153 / 199)."""
    corpus.sweep(corpus.by_name(name))
    made, round_robin = transfers(both_engines)
    assert {rounds for _, rounds, _, _ in both_engines} == {2}
    assert round_robin > 0 and made * 2 == round_robin


def test_the_seven_programs_evaluate_under_two_fifths(both_engines):
    """Host functions keep their loops and take four rounds and more, so
    over the bench's sweep the saving is larger than half.  Counted with
    the widening that drops every known bit once a join loses one
    (rounds at most 6): 1 054 evaluations where round-robin makes 2 456.
    Before it (215f809: up to 35 rounds, a known bit lost per round) the
    same sweep read 1 518 / 5 907, under two fifths."""
    for case in corpus.BENCH:
        corpus.sweep(case)
    made, round_robin = transfers(both_engines)
    assert (made, round_robin) == (1054, 2456)
    assert max(rounds for _, rounds, _, _ in both_engines) <= 6


def test_frontiers_are_computed_only_under_mem2reg(monkeypatch):
    asked_under_mem2reg = []
    trees = []
    real_frontiers = cfg.DominatorTree._compute_frontiers
    real_init = cfg.DominatorTree.__init__

    def spying_frontiers(self):
        callers = [frame.function for frame in inspect.stack()]
        asked_under_mem2reg.append(mem2reg.promote_allocas.__name__ in callers)
        return real_frontiers(self)

    def counting_init(self, fn):
        trees.append(fn)
        real_init(self, fn)

    monkeypatch.setattr(cfg.DominatorTree, "_compute_frontiers", spying_frontiers)
    monkeypatch.setattr(cfg.DominatorTree, "__init__", counting_init)
    for name in sorted(PARENT_CALLS):
        corpus.sweep(corpus.by_name(name))
    assert asked_under_mem2reg and all(asked_under_mem2reg)
    # the parent computed them for every tree: 35 + 33 times here, not 2 + 2
    assert len(asked_under_mem2reg) * 4 < len(trees)


def test_frontiers_read_twice_are_computed_once():
    program = corpus.compile_case(corpus.by_name("stats.ncl"))
    fn = next(iter(program.ref_module.functions.values()))
    tree = cfg.DominatorTree(fn)
    assert tree.frontiers is tree.frontiers
    assert set(tree.frontiers) == set(tree.rpo)
