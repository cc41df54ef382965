"""The NIR verifier.

Run after construction and by the ``verify`` steps of the -O pipelines:
catches malformed CFGs, dangling values, def-before-use violations
and phi inconsistencies early, the way ``opt -verify`` does for LLVM.
"""

from __future__ import annotations

from typing import Dict

from repro.errors import IrError
from repro.nir import ir
from repro.nir.cfg import DominatorTree


def verify_function(fn: ir.Function) -> None:
    if not fn.blocks:
        raise IrError(f"{fn.name}: function has no blocks")
    _verify_uniqueness(fn)
    _verify_terminators(fn)
    _verify_phis(fn)
    _verify_dominance(fn)


def _verify_uniqueness(fn: ir.Function) -> None:
    """Each instruction object appears in exactly one block, once -- a
    pass that moves code by appending without removing corrupts every
    later analysis keyed by instruction identity."""
    seen: Dict[ir.Instr, str] = {}
    for block in fn.blocks:
        for instr in block.instrs:
            if instr in seen:
                raise IrError(
                    f"{fn.name}: %{instr.id} appears in both "
                    f"{seen[instr]} and {block.label}"
                )
            seen[instr] = block.label
    entry = fn.entry
    for instr in entry.instrs:
        if isinstance(instr, ir.Phi):
            raise IrError(
                f"{fn.name}/{entry.label}: phi %{instr.id} in the entry "
                "block (the entry has no predecessors)"
            )


def verify_module(module: ir.Module) -> None:
    for fn in module.functions.values():
        verify_function(fn)


def _verify_terminators(fn: ir.Function) -> None:
    block_set = set(fn.blocks)
    for block in fn.blocks:
        term = block.terminator
        if term is None:
            raise IrError(f"{fn.name}/{block.label}: missing terminator")
        for instr in block.instrs[:-1]:
            if instr.is_terminator:
                raise IrError(
                    f"{fn.name}/{block.label}: terminator {instr.render()} "
                    "in the middle of a block"
                )
        # Every branch edge must target a block that is still part of this
        # function -- a pass that removed a block but left a stale edge
        # behind is reported here, by field, not at some later traversal.
        if isinstance(term, ir.Br):
            if term.target not in block_set:
                raise IrError(
                    f"{fn.name}/{block.label}: br targets {term.target.label!r}, "
                    "which is not a block of this function"
                )
        elif isinstance(term, ir.CondBr):
            for edge, target in (("then", term.then), ("else", term.other)):
                if target not in block_set:
                    raise IrError(
                        f"{fn.name}/{block.label}: condbr {edge}-edge targets "
                        f"{target.label!r}, which is not a block of this function"
                    )
        for instr in block.instrs:
            if instr.block is not block:
                raise IrError(
                    f"{fn.name}/{block.label}: instruction {instr.render()} has "
                    "stale block pointer"
                )


def _verify_phis(fn: ir.Function) -> None:
    preds = fn.predecessors()
    for block in fn.blocks:
        seen_non_phi = False
        for instr in block.instrs:
            if isinstance(instr, ir.Phi):
                if seen_non_phi:
                    raise IrError(
                        f"{fn.name}/{block.label}: phi after non-phi instruction"
                    )
                incoming_blocks = [b for _, b in instr.incoming]
                if len(instr.incoming) != len(set(preds[block])):
                    raise IrError(
                        f"{fn.name}/{block.label}: phi %{instr.id} has "
                        f"{len(instr.incoming)} incoming values but the block "
                        f"has {len(set(preds[block]))} predecessors"
                    )
                if set(incoming_blocks) != set(preds[block]):
                    raise IrError(
                        f"{fn.name}/{block.label}: phi %{instr.id} incoming blocks "
                        f"{[b.label for b in incoming_blocks]} != predecessors "
                        f"{[b.label for b in preds[block]]}"
                    )
                if len(incoming_blocks) != len(set(incoming_blocks)):
                    raise IrError(
                        f"{fn.name}/{block.label}: phi %{instr.id} duplicate "
                        "incoming block"
                    )
            else:
                seen_non_phi = True


def _verify_dominance(fn: ir.Function) -> None:
    """Every use of an instruction result must be dominated by its def."""
    dom = DominatorTree(fn)
    reachable = set(dom.rpo)
    positions: Dict[ir.Instr, int] = {}
    for block in fn.blocks:
        for idx, instr in enumerate(block.instrs):
            positions[instr] = idx
    for block in fn.blocks:
        if block not in reachable:
            continue
        for instr in block.instrs:
            if isinstance(instr, ir.Phi):
                for value, pred in instr.incoming:
                    _check_phi_use(fn, dom, instr, value, pred, positions)
                continue
            for op in instr.operands:
                if not isinstance(op, ir.Instr):
                    continue
                def_block = op.block
                if def_block is None or def_block not in reachable:
                    raise IrError(
                        f"{fn.name}: %{instr.id} uses %{op.id} from an "
                        "unreachable/detached block"
                    )
                if def_block is block:
                    if positions[op] >= positions[instr]:
                        raise IrError(
                            f"{fn.name}/{block.label}: %{instr.id} uses %{op.id} "
                            "before definition"
                        )
                elif not dom.dominates(def_block, block):
                    raise IrError(
                        f"{fn.name}: %{instr.id} in {block.label} uses %{op.id} "
                        f"defined in non-dominating {def_block.label}"
                    )


def _check_phi_use(fn, dom, phi, value, pred, positions) -> None:
    if not isinstance(value, ir.Instr):
        return
    def_block = value.block
    if def_block is None:
        raise IrError(f"{fn.name}: phi %{phi.id} uses detached %{value.id}")
    if not dom.dominates(def_block, pred):
        raise IrError(
            f"{fn.name}: phi %{phi.id} incoming %{value.id} from {pred.label} "
            f"not dominated by def in {def_block.label}"
        )
