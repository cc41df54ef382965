"""CFG analyses for NIR: dominators, dominance frontiers, orderings.

Implements the Cooper-Harvey-Kennedy iterative dominator algorithm, which
is simple and fast at the CFG sizes NCL kernels produce.
"""

from __future__ import annotations

from functools import cached_property
from typing import Dict, List, Optional, Set

from repro.nir.ir import Block, Function


def reverse_postorder(fn: Function) -> List[Block]:
    """Blocks in reverse postorder from the entry (ignores unreachable)."""
    visited: Set[Block] = set()
    order: List[Block] = []

    def visit(block: Block) -> None:
        if block in visited:
            return
        visited.add(block)
        for succ in block.successors():
            visit(succ)
        order.append(block)

    visit(fn.entry)
    order.reverse()
    return order


class DominatorTree:
    """Immediate dominators + dominance frontiers (on first read; only
    mem2reg's phi placement reads them) for one function."""

    def __init__(self, fn: Function):
        self.fn = fn
        self.rpo = reverse_postorder(fn)
        self._rpo_index = {b: i for i, b in enumerate(self.rpo)}
        self._preds = fn.predecessors()
        self.idom: Dict[Block, Optional[Block]] = {}
        self._compute_idoms()
        self.children: Dict[Block, List[Block]] = {b: [] for b in self.rpo}
        for block, idom in self.idom.items():
            if idom is not None and idom is not block:
                self.children[idom].append(block)

    def _compute_idoms(self) -> None:
        entry = self.fn.entry
        preds = self._preds
        idom: Dict[Block, Optional[Block]] = {b: None for b in self.rpo}
        idom[entry] = entry
        changed = True
        while changed:
            changed = False
            for block in self.rpo:
                if block is entry:
                    continue
                candidates = [p for p in preds[block] if idom.get(p) is not None]
                if not candidates:
                    continue
                new_idom = candidates[0]
                for pred in candidates[1:]:
                    new_idom = self._intersect(pred, new_idom, idom)
                if idom[block] is not new_idom:
                    idom[block] = new_idom
                    changed = True
        self.idom = idom

    def _intersect(
        self, a: Block, b: Block, idom: Dict[Block, Optional[Block]]
    ) -> Block:
        fa, fb = a, b
        while fa is not fb:
            while self._rpo_index[fa] > self._rpo_index[fb]:
                fa = idom[fa]  # type: ignore[assignment]
            while self._rpo_index[fb] > self._rpo_index[fa]:
                fb = idom[fb]  # type: ignore[assignment]
        return fa

    @cached_property
    def frontiers(self) -> Dict[Block, Set[Block]]:
        return self._compute_frontiers()

    def _compute_frontiers(self) -> Dict[Block, Set[Block]]:
        frontiers: Dict[Block, Set[Block]] = {b: set() for b in self.rpo}
        preds = self._preds
        for block in self.rpo:
            if len(preds[block]) < 2:
                continue
            for pred in preds[block]:
                if pred not in self._rpo_index:
                    continue
                runner: Optional[Block] = pred
                while runner is not None and runner is not self.idom[block]:
                    frontiers[runner].add(block)
                    runner = self.idom[runner]
                    if runner is pred:  # safety against malformed idoms
                        break
        return frontiers

    def dominates(self, a: Block, b: Block) -> bool:
        """True if *a* dominates *b* (reflexive)."""
        runner: Optional[Block] = b
        while runner is not None:
            if runner is a:
                return True
            nxt = self.idom.get(runner)
            if nxt is runner:
                return runner is a
            runner = nxt
        return False


def natural_loops(fn: Function) -> List[Dict]:
    """Find natural loops via back edges (tail -> header where header
    dominates tail). Returns [{header, body: set[Block], latches}]; a
    body holds reachable blocks only."""
    dom = DominatorTree(fn)
    preds = fn.predecessors()
    loops: Dict[Block, Dict] = {}
    for block in dom.rpo:
        for succ in block.successors():
            if dom.dominates(succ, block):
                info = loops.setdefault(
                    succ, {"header": succ, "body": {succ}, "latches": []}
                )
                info["latches"].append(block)
                # Walk predecessors backwards from the latch to collect the
                # loop body; the header (already in the body) stops the walk.
                stack = [block]
                while stack:
                    node = stack.pop()
                    if node in info["body"]:
                        continue
                    info["body"].add(node)
                    stack.extend(p for p in preds[node] if p in dom.idom)
    return list(loops.values())
