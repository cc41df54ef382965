"""Constant folding + propagation (the paper's "const. folding/propagation").

Folds pure instructions whose operands are all constants into ``Const``
values, propagates them into uses, and simplifies algebraic identities
(x+0, x*1, x*0, x&0, select on const, casts of consts). Also performs
strength reduction of multiplication/division/modulo by powers of two --
PISA ALUs have shifters but no general divider, so this turns otherwise
non-conformant kernels into conformant ones.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.ncl.types import BOOL, is_signed, scalar_bits
from repro.nir import ir
from repro.util import intops


def fold_constants(fn: ir.Function) -> int:
    """Iterate folding to a fixed point. Returns number of folds."""
    total = 0
    while True:
        changed = _fold_once(fn)
        total += changed
        if not changed:
            return total


def _fold_once(fn: ir.Function) -> int:
    replacements: Dict[ir.Instr, ir.Value] = {}
    for block in fn.blocks:
        for instr in list(block.instrs):  # _materialize may insert mid-walk
            folded = try_fold(instr)
            if folded is not None:
                replacements[instr] = folded
    if not replacements:
        return 0

    def resolve(v: ir.Value) -> ir.Value:
        seen = set()
        while isinstance(v, ir.Instr) and v in replacements and id(v) not in seen:
            seen.add(id(v))
            v = replacements[v]
        return v

    resolved = {old: resolve(new) for old, new in replacements.items()}
    for block in fn.blocks:
        block.instrs = [i for i in block.instrs if i not in resolved]
        for instr in block.instrs:
            for old, new in resolved.items():
                instr.replace_operand(old, new)
    return len(resolved)


def _const(value: ir.Value) -> Optional[int]:
    if isinstance(value, ir.Const):
        return value.value
    return None


def try_fold(instr: ir.Instr) -> Optional[ir.Value]:
    """What *instr* folds to, if anything (loop unrolling folds its
    control slice with it too)."""
    if isinstance(instr, ir.BinOp):
        return _fold_binop(instr)
    if isinstance(instr, ir.UnOp):
        a = _const(instr.operands[0])
        if a is None:
            return None
        if instr.op == "neg":
            raw = -a
        elif instr.op == "not":
            raw = ~a
        else:
            return ir.Const(BOOL, int(not a))
        return _wrap_const(raw, instr.ty)
    if isinstance(instr, ir.Cast):
        a = _const(instr.operands[0])
        if a is None:
            # zext/trunc of a bool-typed value to same width etc. -- leave.
            return None
        src_ty = instr.operands[0].ty
        if instr.kind == "bool":
            return ir.Const(BOOL, int(a != 0))
        src_bits = scalar_bits(src_ty) if src_ty.is_scalar else 64
        if instr.kind == "zext":
            raw = intops.to_unsigned(a, src_bits)
        elif instr.kind == "sext":
            raw = intops.wrap_signed(a, src_bits)
        else:
            raw = a
        return _wrap_const(raw, instr.ty)
    if isinstance(instr, ir.Select):
        cond = _const(instr.operands[0])
        if cond is not None:
            return instr.operands[1] if cond else instr.operands[2]
        if _values_equal(instr.operands[1], instr.operands[2]):
            return instr.operands[1]
        return None
    return None


def _fold_binop(instr: ir.BinOp) -> Optional[ir.Value]:
    a = _const(instr.lhs)
    b = _const(instr.rhs)
    ty = instr.ty
    if a is not None and b is not None:
        return _fold_const_pair(instr.op, a, b, instr)
    # Algebraic identities with one constant side.
    op = instr.op
    if op == "add":
        if b == 0:
            return instr.lhs
        if a == 0:
            return instr.rhs
    elif op == "sub":
        if b == 0:
            return instr.lhs
        if _values_equal(instr.lhs, instr.rhs):
            return ir.Const(ty, 0)
    elif op == "mul":
        if b == 1:
            return instr.lhs
        if a == 1:
            return instr.rhs
        if b == 0 or a == 0:
            return ir.Const(ty, 0)
        # Strength-reduce x * 2^k -> x << k (PISA has no multiplier on
        # some targets; shifts are always available).
        const_side, value_side = (b, instr.lhs) if b is not None else (a, instr.rhs)
        if const_side is not None and const_side > 0 and _is_pow2(const_side):
            shift = const_side.bit_length() - 1
            new = ir.BinOp("shl", value_side, ir.Const(ty, shift), ty)
            return _materialize(new, instr)
    elif op in ("udiv", "sdiv") and b is not None and b > 0 and _is_pow2(b):
        if op == "udiv":
            shift = b.bit_length() - 1
            new = ir.BinOp("lshr", instr.lhs, ir.Const(ty, shift), ty)
            return _materialize(new, instr)
    elif op == "urem" and b is not None and b > 0 and _is_pow2(b):
        new = ir.BinOp("and", instr.lhs, ir.Const(ty, b - 1), ty)
        return _materialize(new, instr)
    elif op in ("and",):
        if b == 0 or a == 0:
            return ir.Const(ty, 0)
        mask_all = intops.mask(scalar_bits(ty)) if ty.is_scalar else None
        if mask_all is not None and b == mask_all:
            return instr.lhs
    elif op in ("or", "xor"):
        if b == 0:
            return instr.lhs
        if a == 0:
            return instr.rhs
    elif op in ("shl", "lshr", "ashr"):
        if b == 0:
            return instr.lhs
    elif op in ("eq", "ne") and _values_equal(instr.lhs, instr.rhs):
        return ir.Const(BOOL, int(op == "eq"))
    return None


def _materialize(new: ir.Instr, old: ir.Instr) -> ir.Instr:
    """Insert *new* right before *old* in its block and return it."""
    block = old.block
    assert block is not None
    idx = block.instrs.index(old)
    new.block = block
    block.instrs.insert(idx, new)
    return new


def _fold_const_pair(op: str, a: int, b: int, instr: ir.BinOp) -> Optional[ir.Value]:
    ty = instr.ty
    bits = scalar_bits(ty) if ty.is_scalar else 64
    try:
        if op in ir.BinOp.COMPARES:
            if op.startswith("u"):
                ua, ub = intops.to_unsigned(a, 64), intops.to_unsigned(b, 64)
            else:
                ua, ub = a, b
            result = {
                "eq": a == b,
                "ne": a != b,
                "ult": ua < ub,
                "ule": ua <= ub,
                "ugt": ua > ub,
                "uge": ua >= ub,
                "slt": ua < ub,
                "sle": ua <= ub,
                "sgt": ua > ub,
                "sge": ua >= ub,
            }[op]
            return ir.Const(BOOL, int(result))
        if op == "add":
            raw = a + b
        elif op == "sub":
            raw = a - b
        elif op == "mul":
            raw = a * b
        elif op == "udiv":
            raw = intops.checked_udiv(intops.to_unsigned(a, bits), intops.to_unsigned(b, bits))
        elif op == "sdiv":
            raw = intops.checked_sdiv(a, b)
        elif op == "urem":
            raw = intops.to_unsigned(a, bits) % intops.to_unsigned(b, bits)
        elif op == "srem":
            raw = intops.checked_srem(a, b)
        elif op == "shl":
            raw = a << intops.shift_amount(b, bits)
        elif op == "lshr":
            raw = intops.to_unsigned(a, bits) >> intops.shift_amount(b, bits)
        elif op == "ashr":
            raw = intops.wrap_signed(a, bits) >> intops.shift_amount(b, bits)
        elif op == "and":
            raw = a & b
        elif op == "or":
            raw = a | b
        elif op == "xor":
            raw = a ^ b
        else:
            return None
    except ZeroDivisionError:
        return None  # leave the trap in place; the interpreter will raise
    return _wrap_const(raw, ty)


def _wrap_const(raw: int, ty) -> ir.Const:
    if ty.is_scalar:
        return ir.Const(ty, intops.wrap(raw, scalar_bits(ty), is_signed(ty)))
    return ir.Const(ty, raw)


def _values_equal(a: ir.Value, b: ir.Value) -> bool:
    if a is b:
        return True
    return isinstance(a, ir.Const) and isinstance(b, ir.Const) and a == b


def _is_pow2(n: int) -> bool:
    return n > 0 and (n & (n - 1)) == 0
