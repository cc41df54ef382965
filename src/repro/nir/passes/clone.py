"""Block/region cloning utilities used by loop unrolling and inlining."""

from __future__ import annotations

import copy
from typing import Dict, Iterable, List, Optional

from repro.errors import ConformanceError
from repro.nir import ir


class ValueMap:
    """Maps original values/blocks to their clones; identity by default."""

    def __init__(self) -> None:
        self.values: Dict[ir.Instr, ir.Value] = {}
        self.blocks: Dict[ir.Block, ir.Block] = {}

    def value(self, v: ir.Value) -> ir.Value:
        if isinstance(v, ir.Instr):
            return self.values.get(v, v)
        return v

    def block(self, b: ir.Block) -> ir.Block:
        return self.blocks.get(b, b)


def clone_instr(instr: ir.Instr, vmap: ValueMap) -> ir.Instr:
    """Clone one instruction, remapping operands and branch targets: a
    fresh id and block, every other attribute as it is (a
    :class:`ir.MemRegion` copied, since a clone may retarget it)."""
    new = object.__new__(type(instr))
    new.__dict__.update(instr.__dict__, id=next(ir._id_counter), block=None)
    new.operands = [vmap.value(op) for op in instr.operands]
    if isinstance(instr, ir.Phi):
        new.incoming = [(vmap.value(v), vmap.block(b)) for v, b in instr.incoming]
    elif isinstance(instr, ir.Br):
        new.target = vmap.block(instr.target)
    elif isinstance(instr, ir.CondBr):
        new.then, new.other = vmap.block(instr.then), vmap.block(instr.other)
    elif isinstance(instr, ir.Memcpy):
        new.dst, new.src = copy.copy(instr.dst), copy.copy(instr.src)
    return new


def clone_function(fn: ir.Function, new_name: Optional[str] = None) -> ir.Function:
    """Deep-copy a whole function (used by nclc's IR versioning to create
    per-location module versions that are then specialized in place)."""
    new_fn = ir.Function(
        new_name or fn.name,
        fn.kind,
        [ir.Param(p.index, p.name, p.ty, p.ext) for p in fn.params],
        fn.ret,
        fn.at_label,
    )
    clones = clone_region(new_fn, fn.blocks, ValueMap())
    substitute_params(clones, dict(zip(fn.params, new_fn.params)))
    new_fn._label_counter = fn._label_counter
    return new_fn


def substitute_params(blocks: Iterable[ir.Block], params: Dict[ir.Param, ir.Value]) -> None:
    """Replaces each parameter *params* maps, in *blocks*' operands and as
    the buffer of their param-addressed memory operations (which must
    stay a parameter)."""

    def value(v: ir.Value) -> ir.Value:
        return params.get(v, v) if isinstance(v, ir.Param) else v

    def buffer(param: ir.Param) -> ir.Param:
        bound = params.get(param, param)
        if not isinstance(bound, ir.Param):
            raise ConformanceError(
                "cannot inline a helper that indexes a non-parameter pointer argument"
            )
        return bound

    for block in blocks:
        for instr in block.instrs:
            instr.operands = [value(op) for op in instr.operands]
            if isinstance(instr, ir.Phi):
                instr.incoming = [(value(v), b) for v, b in instr.incoming]
            if isinstance(instr, (ir.LoadParam, ir.StoreParam)):
                instr.param = buffer(instr.param)
            if isinstance(instr, ir.Memcpy):
                for region in (instr.dst, instr.src):
                    if region.kind == "param":
                        region.param = buffer(region.param)


def clone_region(
    fn: ir.Function,
    blocks: Iterable[ir.Block],
    vmap: ValueMap,
    suffix: str = "",
) -> List[ir.Block]:
    """Clone *blocks* into *fn*, labelled ``label.suffix`` (with no
    suffix, as they are). ``vmap`` may be pre-seeded (e.g. to map
    header phis to concrete values); it is extended with all clones.

    Branch targets and phi incomings pointing inside the region are
    remapped; those pointing outside are preserved.
    """
    originals = list(blocks)
    clones: List[ir.Block] = []
    for block in originals:
        clone = ir.Block(f"{block.label}.{suffix}" if suffix else block.label)
        vmap.blocks[block] = clone
        clones.append(clone)
        fn.blocks.append(clone)
    for block, clone in zip(originals, clones):
        for instr in block.instrs:
            if isinstance(instr, ir.Instr) and instr in vmap.values:
                continue  # pre-seeded (e.g. header phi replaced by a value)
            new = clone_instr(instr, vmap)
            new.block = clone
            clone.instrs.append(new)
            vmap.values[instr] = new
    # Second pass: operands referencing region instructions cloned *after*
    # their use site (possible with phis/back edges) need remapping.
    for clone in clones:
        for instr in clone.instrs:
            instr.operands = [vmap.value(op) for op in instr.operands]
            if isinstance(instr, ir.Phi):
                instr.incoming = [(vmap.value(v), b) for v, b in instr.incoming]
    return clones
