"""Always-inline helper calls.

PISA has no call stack, so every ``CallFn`` in a kernel is inlined before
lowering (hosts could keep calls, but we inline there too for uniform
optimization). Inlining splits the call block, clones the callee's blocks
in between, rewires returns to the continuation, and replaces the call's
result with a phi over the returned values.
"""

from __future__ import annotations

from typing import List, Optional

from repro.errors import ConformanceError
from repro.nir import ir
from repro.nir.passes.clone import ValueMap, clone_region, substitute_params

_MAX_INLINE_DEPTH = 32


def inline_calls(fn: ir.Function, depth: int = 0) -> int:
    """Inline every CallFn in *fn*; recurses into callees first."""
    if depth > _MAX_INLINE_DEPTH:
        raise ConformanceError(
            f"{fn.name}: call nesting exceeds {_MAX_INLINE_DEPTH} "
            "(recursive helper functions are not allowed)"
        )
    inlined = 0
    while True:
        call = _find_call(fn)
        if call is None:
            return inlined
        _inline_one(fn, call, depth)
        inlined += 1


def _find_call(fn: ir.Function) -> Optional[ir.CallFn]:
    for instr in fn.instructions():
        if isinstance(instr, ir.CallFn):
            return instr
    return None


def _inline_one(fn: ir.Function, call: ir.CallFn, depth: int) -> None:
    callee = call.callee
    if callee is fn:
        raise ConformanceError(f"{fn.name}: direct recursion cannot be inlined")
    # Make sure the callee itself is call-free (post-order inlining).
    inline_calls(callee, depth + 1)

    block = call.block
    assert block is not None
    call_idx = block.instrs.index(call)

    # Split the call block: everything after the call moves to `cont`.
    cont = fn.new_block(f"{block.label}.cont")
    tail = block.instrs[call_idx + 1 :]
    block.instrs = block.instrs[:call_idx]
    for instr in tail:
        instr.block = cont
        cont.instrs.append(instr)
    # Successor phis referencing `block` now come from `cont`.
    for succ in cont.successors():
        for phi in succ.phis():
            phi.incoming = [
                (v, cont if b is block else b) for v, b in phi.incoming
            ]

    # Callee params -> call arguments.
    vmap = ValueMap()
    clones = clone_region(fn, callee.blocks, vmap, suffix=f"inl{call.id}")
    substitute_params(clones, dict(zip(callee.params, call.operands)))

    # Entry edge.
    br = ir.Br(vmap.block(callee.entry))
    br.block = block
    block.instrs.append(br)

    # Rewire returns to the continuation, collecting returned values.
    returned: List[ir.Value] = []
    ret_blocks: List[ir.Block] = []
    for clone in clones:
        term = clone.terminator
        if isinstance(term, ir.Ret):
            if term.value is not None:
                returned.append(term.value)
            ret_blocks.append(clone)
            jump = ir.Br(cont)
            jump.block = clone
            clone.instrs[-1] = jump

    # Replace the call's result.
    result: Optional[ir.Value] = None
    if not callee.ret.is_void:
        if len(ret_blocks) == 1:
            result = returned[0] if returned else ir.Undef(callee.ret)
        else:
            phi = ir.Phi(callee.ret)
            phi.block = cont
            cont.instrs.insert(0, phi)
            for rb, value in zip(ret_blocks, returned):
                phi.add_incoming(value, rb)
            result = phi
    if result is not None:
        for b in fn.blocks:
            for instr in b.instrs:
                instr.replace_operand(call, result)
