"""The NIR reference walker: the independent oracle for ``repro.nir.pygen``.

This is the tree-walking interpreter that ``repro.nir.interp`` shipped
until the executors were lowered to generated Python. It re-dispatches on
the instruction type at every step and shares no code with the lowering
except :mod:`repro.util.intops`' *runtime* functions, so the differential
suites can hold the generated code against it. Behaviour is unchanged but
for one fix, shared with the executor: every window-data and ``_ctrl_``
array access (``memcpy`` regions included) checks ``0 <= i < n`` itself
and raises ``PisaError`` naming the object, index and size, where a read
past the end used to escape as ``IndexError`` and a negative index used
to address from the end.
"""

from __future__ import annotations

from typing import Callable, Dict, List, MutableSequence, Optional, Tuple

from repro.errors import PisaError
from repro.ncl.types import PointerType, Type, is_signed, scalar_bits, sizeof
from repro.nir import ir
from repro.nir.interp import InterpResult, WindowContext
from repro.util import intops

_MAX_STEPS = 1_000_000


class OracleInterpreter:
    def __init__(self, module: ir.Module, state: DeviceState):
        self.module = module
        self.state = state

    def run(self, fn: ir.Function, ctx: WindowContext) -> InterpResult:
        if len(ctx.args) != len(fn.params):
            raise PisaError(
                f"{fn.name}: expected {len(fn.params)} args, got {len(ctx.args)}"
            )
        return _FrameInterp(self, fn, ctx).run()


class _FrameInterp:
    def __init__(self, parent: OracleInterpreter, fn: ir.Function, ctx: WindowContext):
        self.parent = parent
        self.state = parent.state
        self.module = parent.module
        self.fn = fn
        self.ctx = ctx
        self.values: Dict[int, object] = {}
        self.fwd = ir.FwdKind.PASS
        self.fwd_label: Optional[str] = None
        self.steps = 0

    # -- value plumbing -----------------------------------------------------

    def value_of(self, value: ir.Value) -> object:
        if isinstance(value, ir.Const):
            return value.value
        if isinstance(value, ir.Param):
            return self.ctx.args[value.index]
        if isinstance(value, ir.Undef):
            return 0
        if isinstance(value, ir.Instr):
            if value.id not in self.values:
                raise PisaError(f"use of unevaluated %{value.id} ({value.render()})")
            return self.values[value.id]
        raise PisaError(f"cannot evaluate {value!r}")

    def int_of(self, value: ir.Value) -> int:
        v = self.value_of(value)
        if not isinstance(v, int):
            raise PisaError(f"expected integer, got {type(v).__name__}")
        return v

    def _wrap(self, raw: int, ty: Type) -> int:
        if not ty.is_scalar:
            return raw
        return intops.wrap(raw, scalar_bits(ty), is_signed(ty))

    # -- execution loop ---------------------------------------------------------

    def run(self) -> InterpResult:
        block = self.fn.entry
        prev_block: Optional[ir.Block] = None
        while True:
            # Phis evaluate in parallel against the incoming edge.
            phi_updates: List[Tuple[ir.Phi, object]] = []
            for phi in block.phis():
                for value, pred in phi.incoming:
                    if pred is prev_block:
                        phi_updates.append((phi, self.value_of(value)))
                        break
                else:
                    if prev_block is not None:
                        raise PisaError(
                            f"phi %{phi.id} has no incoming for {prev_block.label}"
                        )
                    phi_updates.append((phi, 0))
            for phi, value in phi_updates:
                self.values[phi.id] = value

            for instr in block.non_phis():
                self.steps += 1
                if self.steps > _MAX_STEPS:
                    raise PisaError(f"{self.fn.name}: step budget exceeded")
                result = self.execute(instr)
                if isinstance(result, _Jump):
                    prev_block, block = block, result.target
                    break
                if isinstance(result, _Return):
                    return InterpResult(self.fwd, self.fwd_label, result.value)
            else:
                raise PisaError(f"{self.fn.name}/{block.label}: fell off block end")

    # -- instruction semantics --------------------------------------------------

    def execute(self, instr: ir.Instr):
        if isinstance(instr, ir.BinOp):
            self.values[instr.id] = self.exec_binop(instr)
        elif isinstance(instr, ir.UnOp):
            self.values[instr.id] = self.exec_unop(instr)
        elif isinstance(instr, ir.Cast):
            self.values[instr.id] = self.exec_cast(instr)
        elif isinstance(instr, ir.Select):
            cond = self.int_of(instr.operands[0])
            self.values[instr.id] = self.value_of(
                instr.operands[1] if cond else instr.operands[2]
            )
        elif isinstance(instr, ir.Load):
            # Pre-mem2reg IR: emulate the stack slot via a dict.
            self.values[instr.id] = self.values.get(("slot", instr.slot.id), 0)
        elif isinstance(instr, ir.Store):
            self.values[("slot", instr.slot.id)] = self.value_of(instr.value)
        elif isinstance(instr, ir.Alloca):
            self.values.setdefault(("slot", instr.id), 0)
        elif isinstance(instr, ir.LoadElem):
            self.values[instr.id] = self.exec_load_elem(instr)
        elif isinstance(instr, ir.StoreElem):
            self.exec_store_elem(instr)
        elif isinstance(instr, ir.LoadParam):
            self.values[instr.id] = self.exec_load_param(instr)
        elif isinstance(instr, ir.StoreParam):
            self.exec_store_param(instr)
        elif isinstance(instr, ir.WinField):
            if instr.field not in self.ctx.meta:
                raise PisaError(f"window field {instr.field!r} not bound")
            self.values[instr.id] = self.ctx.meta[instr.field]
        elif isinstance(instr, ir.LocField):
            if instr.field != "id":
                raise PisaError(f"unknown location field {instr.field!r}")
            self.values[instr.id] = self.ctx.location_id
        elif isinstance(instr, ir.LocLabel):
            if instr.label not in self.ctx.location_labels:
                raise PisaError(f"unresolved location label {instr.label!r}")
            self.values[instr.id] = self.ctx.location_labels[instr.label]
        elif isinstance(instr, ir.CtrlRead):
            self.values[instr.id] = self.exec_ctrl_read(instr)
        elif isinstance(instr, ir.MapLookup):
            state = self.state.maps.get(instr.ref.name)
            if state is None:
                raise PisaError(f"Map {instr.ref.name!r} not present on device")
            found, value = state.lookup(self.int_of(instr.key))
            self.values[instr.id] = ("maptok", found, value)
        elif isinstance(instr, ir.MapFound):
            token = self.value_of(instr.operands[0])
            self.values[instr.id] = int(self._token(token)[1])
        elif isinstance(instr, ir.MapValue):
            token = self.value_of(instr.operands[0])
            self.values[instr.id] = self._token(token)[2]
        elif isinstance(instr, ir.BloomOp):
            bloom = self.state.blooms.get(instr.ref.name)
            if bloom is None:
                raise PisaError(f"BloomFilter {instr.ref.name!r} not on device")
            key = self.int_of(instr.operands[0])
            if instr.op == "insert":
                bloom.insert(key)
            else:
                self.values[instr.id] = int(bloom.query(key))
        elif isinstance(instr, ir.Memcpy):
            self.exec_memcpy(instr)
        elif isinstance(instr, ir.Fwd):
            self.fwd = instr.kind
            self.fwd_label = instr.label
        elif isinstance(instr, ir.CallFn):
            self.values[instr.id] = self.exec_call(instr)
        elif isinstance(instr, ir.Br):
            return _Jump(instr.target)
        elif isinstance(instr, ir.CondBr):
            return _Jump(instr.then if self.int_of(instr.cond) else instr.other)
        elif isinstance(instr, ir.Ret):
            value = self.int_of(instr.value) if instr.value is not None else None
            return _Return(value)
        else:
            raise PisaError(f"cannot interpret {instr.render()}")
        return None

    @staticmethod
    def _token(token) -> Tuple[str, bool, int]:
        if not (isinstance(token, tuple) and token and token[0] == "maptok"):
            raise PisaError("expected a Map lookup token")
        return token  # type: ignore[return-value]

    def exec_binop(self, instr: ir.BinOp) -> int:
        a = self.int_of(instr.lhs)
        b = self.int_of(instr.rhs)
        op = instr.op
        ty = instr.ty
        if op in ir.BinOp.COMPARES:
            # Operands were coerced to a common type at lowering; compare
            # directly (signedness baked into the op choice).
            table: Dict[str, Callable[[int, int], bool]] = {
                "eq": lambda x, y: x == y,
                "ne": lambda x, y: x != y,
                "ult": lambda x, y: x < y,
                "ule": lambda x, y: x <= y,
                "ugt": lambda x, y: x > y,
                "uge": lambda x, y: x >= y,
                "slt": lambda x, y: x < y,
                "sle": lambda x, y: x <= y,
                "sgt": lambda x, y: x > y,
                "sge": lambda x, y: x >= y,
            }
            if op.startswith("u"):
                bits = 64
                a = intops.to_unsigned(a, bits)
                b = intops.to_unsigned(b, bits)
            return int(table[op](a, b))
        bits = scalar_bits(ty)
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
            ua, ub = intops.to_unsigned(a, bits), intops.to_unsigned(b, bits)
            intops.checked_udiv(ua, ub)
            raw = ua % ub
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
            raise PisaError(f"unknown binop {op}")
        return self._wrap(raw, ty)

    def exec_unop(self, instr: ir.UnOp) -> int:
        a = self.int_of(instr.operands[0])
        if instr.op == "neg":
            return self._wrap(-a, instr.ty)
        if instr.op == "not":
            return self._wrap(~a, instr.ty)
        return int(not a)

    def exec_cast(self, instr: ir.Cast) -> int:
        a = self.int_of(instr.operands[0])
        src_ty = instr.operands[0].ty
        if instr.kind == "bool":
            return int(a != 0)
        src_bits = scalar_bits(src_ty) if src_ty.is_scalar else 64
        if instr.kind == "zext":
            raw = intops.to_unsigned(a, src_bits)
        elif instr.kind == "sext":
            raw = intops.wrap_signed(a, src_bits)
        else:  # trunc
            raw = a
        return self._wrap(raw, instr.ty)

    def exec_load_elem(self, instr: ir.LoadElem) -> int:
        array = self._array(instr.ref)
        idx = self.int_of(instr.index)
        self._bounds(instr.ref, idx)
        return array[idx]

    def exec_store_elem(self, instr: ir.StoreElem) -> None:
        array = self._array(instr.ref)
        idx = self.int_of(instr.index)
        self._bounds(instr.ref, idx)
        array[idx] = self._wrap(self.int_of(instr.value), instr.ref.elem_type)

    def _array(self, ref: ir.GlobalRef) -> MutableSequence[int]:
        array = self.state.arrays.get(ref.name)
        if array is None:
            raise PisaError(f"global {ref.name!r} not present on device")
        return array

    def _bounds(self, ref: ir.GlobalRef, idx: int) -> None:
        if not 0 <= idx < ref.total_elements:
            raise PisaError(
                f"index {idx} out of range for {ref.name} "
                f"[{ref.total_elements} elements]"
            )

    def exec_load_param(self, instr: ir.LoadParam) -> int:
        buf = self.value_of(instr.param)
        idx = self.int_of(instr.index)
        if isinstance(buf, int):  # scalar parameter, index must be 0
            if idx != 0:
                raise PisaError("indexing a scalar parameter")
            return buf
        self._param_bounds(instr.param, buf, idx)
        return int(buf[idx])  # type: ignore[index]

    def exec_store_param(self, instr: ir.StoreParam) -> None:
        buf = self.value_of(instr.param)
        idx = self.int_of(instr.index)
        param_ty = instr.param.ty
        elem_ty = param_ty.pointee if isinstance(param_ty, PointerType) else param_ty
        value = self._wrap(self.int_of(instr.value), elem_ty)
        self._param_bounds(instr.param, buf, idx)
        buf[idx] = value  # type: ignore[index]

    @staticmethod
    def _param_bounds(param: ir.Param, buf, idx: int) -> None:
        if not 0 <= idx < len(buf):
            raise PisaError(
                f"index {idx} out of range for window data {param.name} "
                f"[{len(buf)} elements]"
            )

    def exec_ctrl_read(self, instr: ir.CtrlRead):
        if instr.ref.name not in self.state.ctrl:
            raise PisaError(f"control variable {instr.ref.name!r} not on device")
        value = self.state.ctrl[instr.ref.name]
        if instr.index is not None:
            idx = self.int_of(instr.index)
            if not 0 <= idx < len(value):  # type: ignore[arg-type]
                raise PisaError(
                    f"index {idx} out of range for control variable "
                    f"{instr.ref.name} [{len(value)} elements]"  # type: ignore[arg-type]
                )
            return value[idx]  # type: ignore[index]
        return value

    def exec_memcpy(self, instr: ir.Memcpy) -> None:
        nbytes = self.int_of(instr.nbytes)
        dst_elem = sizeof(instr.dst.elem_type)
        src_elem = sizeof(instr.src.elem_type)
        if nbytes % dst_elem or nbytes % src_elem:
            raise PisaError(
                f"memcpy length {nbytes} not a multiple of element sizes "
                f"({dst_elem}/{src_elem})"
            )
        if dst_elem != src_elem:
            raise PisaError("memcpy between different element widths")
        count = nbytes // dst_elem
        src_vals = [
            self._region_read(instr.src, self.int_of(instr.src_off) + i)
            for i in range(count)
        ]
        for i, value in enumerate(src_vals):
            self._region_write(
                instr.dst, self.int_of(instr.dst_off) + i, value
            )

    def _region_read(self, region: ir.MemRegion, idx: int) -> int:
        if region.kind == "param":
            buf = self.value_of(region.param)  # type: ignore[arg-type]
            if isinstance(buf, int):
                if idx != 0:
                    raise PisaError("memcpy overruns scalar parameter")
                return buf
            self._param_bounds(region.param, buf, idx)  # type: ignore[arg-type]
            return int(buf[idx])  # type: ignore[index]
        ref = region.ref
        assert ref is not None
        self._bounds(ref, idx)
        return self._array(ref)[idx]

    def _region_write(self, region: ir.MemRegion, idx: int, value: int) -> None:
        value = self._wrap(value, region.elem_type)
        if region.kind == "param":
            buf = self.value_of(region.param)  # type: ignore[arg-type]
            self._param_bounds(region.param, buf, idx)  # type: ignore[arg-type]
            buf[idx] = value  # type: ignore[index]
            return
        ref = region.ref
        assert ref is not None
        self._bounds(ref, idx)
        self._array(ref)[idx] = value

    def exec_call(self, instr: ir.CallFn):
        args = [self.value_of(op) for op in instr.operands]
        sub_ctx = WindowContext(
            self.ctx.meta, args, self.ctx.location_id, self.ctx.location_labels
        )
        sub = _FrameInterp(self.parent, instr.callee, sub_ctx)
        result = sub.run()
        # Forwarding decisions made in helpers propagate to the caller.
        if sub.fwd is not ir.FwdKind.PASS or sub.fwd_label:
            self.fwd = sub.fwd
            self.fwd_label = sub.fwd_label
        return result.ret


class _Jump:
    def __init__(self, target: ir.Block):
        self.target = target


class _Return:
    def __init__(self, value: Optional[int]):
        self.value = value
