"""``repro.nir.cfg`` against the textbook definitions.

Every function a ``DominatorTree`` is built for while the toolchain
compiles and lints the corpus and the fuzzer's kernels (loops included)
is checked against dominance computed from its definition: *a* dominates
*b* iff every path from the entry to *b* passes through *a*; the
dominance frontier of *a* is every block *a* does not strictly dominate
that has a predecessor *a* dominates.
"""

from __future__ import annotations

import pytest

from repro.analysis import lint_source
from repro.nir import cfg

from tests import toolchain_corpus as corpus
from tests.test_fuzz_compiler import AND, KernelFuzzer


def dominators_by_definition(fn):
    """block -> set of its dominators, by the set-intersection dataflow."""
    reachable = cfg.reverse_postorder(fn)
    preds = fn.predecessors()
    dom = {b: set(reachable) for b in reachable}
    dom[fn.entry] = {fn.entry}
    changed = True
    while changed:
        changed = False
        for block in reachable:
            if block is fn.entry:
                continue
            incoming = [dom[p] for p in preds[block] if p in dom]
            new = set.intersection(*incoming) | {block}
            if new != dom[block]:
                dom[block] = new
                changed = True
    return dom, preds


def check_tree(fn):
    tree = cfg.DominatorTree(fn)
    dom, preds = dominators_by_definition(fn)
    assert tree.rpo[0] is fn.entry and set(tree.rpo) == set(dom)
    # reverse postorder: every block after all its non-back-edge predecessors
    position = {b: i for i, b in enumerate(tree.rpo)}
    for block in tree.rpo:
        assert any(position[p] < position[block] for p in preds[block] if p in dom) or (
            block is fn.entry
        )
    for block in tree.rpo:
        strict = dom[block] - {block}
        for other in tree.rpo:
            assert tree.dominates(other, block) == (other in dom[block])
        if block is fn.entry:
            assert tree.idom[block] is block
        else:  # the strict dominator every other strict dominator dominates
            assert strict and all(d in dom[tree.idom[block]] for d in strict)
            assert tree.idom[block] in strict
            assert block in tree.children[tree.idom[block]]
    for a in tree.rpo:
        frontier = {
            b for b in tree.rpo
            if len(preds[b]) >= 2
            and any(p in dom and a in dom[p] for p in preds[b])
            and not (a in dom[b] and a is not b)
        }
        assert tree.frontiers[a] == frontier
    for loop in cfg.natural_loops(fn):
        header = loop["header"]
        assert all(header in dom[b] for b in loop["body"])
        assert all(header in latch.successors() for latch in loop["latches"])
    return len(tree.rpo)


@pytest.fixture
def every_tree_checked(monkeypatch):
    sizes = []
    real_init = cfg.DominatorTree.__init__
    busy = []

    def checked_init(self, fn):
        real_init(self, fn)
        if not busy:  # check_tree builds trees of its own
            busy.append(True)
            try:
                sizes.append(check_tree(fn))
            finally:
                busy.pop()

    monkeypatch.setattr(cfg.DominatorTree, "__init__", checked_init)
    return sizes


def test_corpus_functions(every_tree_checked):
    for case in corpus.BENCH:
        corpus.sweep(case)
    assert len(every_tree_checked) > 200 and max(every_tree_checked) >= 5


def test_generated_kernels_with_loops(every_tree_checked):
    loops = 0
    for seed in range(24):
        source = KernelFuzzer(seed).kernel()
        loops += "for (" in source
        lint_source(source, f"fuzz{seed}.ncl", and_text=AND)
    assert loops >= 5 and max(every_tree_checked) >= 8
