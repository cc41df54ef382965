"""Load-time lowering of NIR functions to Python source.

:func:`lower_function` turns one :class:`ir.Function` into one Python
function ``kernel(state, meta, args, loc, labels) -> (fwd, label, ret)``:
SSA values and pre-mem2reg slots become locals, blocks become arms of a
``pc`` dispatch loop, phis become parallel assignments on the incoming
edge, and wrap / sign-extend / shift-clamp become inline mask arithmetic
whose source comes from :mod:`repro.util.intops`. Nothing about the
program is re-discovered per run, and there is no fallback to a tree walk.

The semantics are those of the reference walker ``tests/nir_oracle.py``,
against which every shipped kernel is differentially tested. Two
liberties: the step budget is charged per block, so a runaway loop traps
at a block boundary; and IR the walker would only reject on reaching it
(an unknown instruction, a phi without its edge) is rejected here.
"""

from __future__ import annotations

from typing import Callable, Dict, Tuple

from repro.errors import PisaError
from repro.ncl.types import PointerType, Type, is_signed, scalar_bits, sizeof
from repro.nir import ir
from repro.util import intops
from repro.util.pysrc import SourceWriter, compile_source

MAX_STEPS = 1_000_000


def lower_function(fn: ir.Function, cache: Dict[ir.Function, Callable]) -> Callable:
    """The Python function *fn* lowers to, memoised in *cache* (which also
    receives its callees; a body-less one, a host runtime call, must be
    there already). Valid until *fn* is next mutated; its ``source``
    attribute holds the generated text."""
    code = cache.get(fn)
    if code is None:
        gen = _FunctionSource(fn)
        env = compile_source(f"<nir {fn.name}>", gen.source, {**_ENV, **gen.env})
        code = cache[fn] = env["kernel"]
        code.source = gen.source
        for name, callee in gen.callees.items():
            env[name] = lower_function(callee, cache)
    return code


# -- what generated code calls ---------------------------------------------


class _Missing:
    """Stands in for a global array the device does not hold."""

    def __init__(self, name: str):
        self.name = name

    def _fail(self, *_):
        raise PisaError(f"global {self.name!r} not present on device")

    __getitem__ = __setitem__ = _fail


def _oob(what: str, idx: int, n: int) -> PisaError:
    return PisaError(f"index {idx} out of range for {what} [{n} elements]")


def _memcpy(dst, src, nbytes, dst_size, src_size, bits, signed) -> None:
    """All reads, then all writes, every index checked. *dst* and *src*
    are ``(buffer, description, elements, offset)``."""
    if nbytes % dst_size or nbytes % src_size:
        raise PisaError(
            f"memcpy length {nbytes} not a multiple of element sizes "
            f"({dst_size}/{src_size})"
        )
    if dst_size != src_size:
        raise PisaError("memcpy between different element widths")
    values = []
    for (buf, what, n, off), store in ((src, False), (dst, True)):
        for k in range(nbytes // dst_size):
            if not 0 <= off + k < n:
                raise _oob(what, off + k, n)
            if store:
                buf[off + k] = intops.wrap(values[k], bits, signed)
            else:
                values.append(int(buf[off + k]))


_ENV = {
    **intops.SRC_ENV,
    **ir.FwdKind.__members__,
    "PisaError": PisaError,
    "oob": _oob,
    "memcpy": _memcpy,
}


# -- the generator ------------------------------------------------------------


class _FunctionSource:
    """Generates ``source`` for one function. An instruction of class
    ``X`` is emitted by method ``_X``, which returns the source of the
    instruction's value, if it has one that is not assigned yet."""

    def __init__(self, fn: ir.Function):
        self.fn = fn
        self.env: Dict[str, object] = {}  # per-function additions to _ENV
        self.callees: Dict[str, ir.Function] = {}  # env name -> callee
        self.arrays: Dict[str, str] = {}  # global name -> local holding its list
        self.arm_of: Dict[ir.Block, int] = {fn.entry: 0}
        self.arms = [fn.entry]  # edge() appends each block it first targets
        self.w = body = SourceWriter()
        body.depth = 2  # inside "def kernel" and "while True"
        for arm, block in enumerate(self.arms):
            with body.block(f"{'el' if arm else ''}if pc == {arm}:"):
                self._block(block)

        head = SourceWriter()
        with head.block("def kernel(state, meta, args, loc, labels):"):
            head(f"# {fn.name}({', '.join(p.name for p in fn.params)})")
            if fn.params:
                head(", ".join(f"a{p.index}" for p in fn.params) + ", = args")
            for name, local in self.arrays.items():
                head(f"{local} = state.arrays.get({name!r}, no_{local})")
            # Slots read 0 until stored to; entry phis have no incoming edge.
            zeroed = [f"s{i.id}" for i in fn.instructions() if isinstance(i, ir.Alloca)]
            zeroed += [f"v{phi.id}" for phi in fn.entry.phis()]
            head(" = ".join(zeroed + ["steps", "pc", "0"]))
            head("fwd = PASS; lab = None")
            head("while True:")
        self.source = "\n".join(head.lines + body.lines) + "\n"

    # -- values ----------------------------------------------------------

    def v(self, value: ir.Value) -> str:
        if isinstance(value, ir.Instr):
            return f"v{value.id}"
        if isinstance(value, ir.Const):
            return str(value.value) if value.value >= 0 else f"({value.value})"
        if isinstance(value, ir.Param):
            return f"a{value.index}"
        if isinstance(value, ir.Undef):
            return "0"
        raise PisaError(f"cannot evaluate {value!r}")

    @staticmethod
    def wrap(expr: str, ty: Type) -> str:
        return intops.wrap_src(expr, scalar_bits(ty), is_signed(ty)) if ty.is_scalar else expr

    def buffer(self, base) -> Tuple[str, str, str]:
        """``(list, description, element count)`` of a global or a param."""
        if isinstance(base, ir.Param):
            return self.v(base), f"window data {base.name}", f"len({self.v(base)})"
        local = self.arrays.get(base.name)
        if local is None:
            local = self.arrays[base.name] = f"g{len(self.arrays)}"
            self.env[f"no_{local}"] = _Missing(base.name)
        return local, base.name, str(base.total_elements)

    def element(self, base, index: ir.Value) -> str:
        """Source of ``base[index]``, after emitting the bounds check."""
        (buf, what, n), idx = self.buffer(base), self.v(index)
        self.w(f"if not 0 <= {idx} < {n}: raise oob({what!r}, {idx}, {n})")
        return f"{buf}[{idx}]"

    def lookup(self, i: ir.Instr, table: str, key: str, message: str) -> None:
        """``v<i> = table[key]``, or *message* when there is none."""
        self.w(f"v{i.id} = {table}.get({key!r})")
        self.w(f"if v{i.id} is None: raise PisaError({message!r})")

    # -- blocks and edges ---------------------------------------------------

    def _block(self, block: ir.Block) -> None:
        """One arm: the budget, then the instructions up to the terminator."""
        self.cur = block
        body = block.non_phis()
        steps = next((n for n, i in enumerate(body, 1) if i.is_terminator), 0)
        if not steps:
            raise PisaError(f"{self.fn.name}/{block.label}: fell off block end")
        self.w(f"# {block.label}")
        message = f"{self.fn.name}: step budget exceeded"
        self.w(f"steps += {steps}")
        self.w(f"if steps > {MAX_STEPS}: raise PisaError({message!r})")
        for instr in body[:steps]:
            emit = getattr(self, "_" + type(instr).__name__, None)
            if emit is None:
                raise PisaError(f"cannot interpret {instr.render()}")
            out = emit(instr)
            if out is not None:
                self.w(f"v{instr.id} = {out}")

    def edge(self, target: ir.Block) -> None:
        """Leave the current block for *target*: its phis, in parallel, then ``pc``."""
        phis = target.phis()
        if phis:
            values = []
            for phi in phis:
                value = next((v for v, pred in phi.incoming if pred is self.cur), None)
                if value is None:
                    raise PisaError(f"phi %{phi.id} has no incoming for {self.cur.label}")
                values.append(self.v(value))
            self.w(f"{', '.join(f'v{phi.id}' for phi in phis)} = {', '.join(values)}")
        if target not in self.arm_of:
            self.arm_of[target] = len(self.arms)
            self.arms.append(target)
        self.w(f"pc = {self.arm_of[target]}")

    def _Br(self, i: ir.Br):
        self.edge(i.target)

    def _CondBr(self, i: ir.CondBr):
        for header, target in ((f"if {self.v(i.cond)}:", i.then), ("else:", i.other)):
            with self.w.block(header):
                self.edge(target)

    def _Ret(self, i: ir.Ret):
        self.w(f"return fwd, lab, {self.v(i.value) if i.value is not None else None}")

    # -- instructions ---------------------------------------------------------

    def _BinOp(self, i: ir.BinOp):
        a, b, op = self.v(i.lhs), self.v(i.rhs), i.op
        if op in ir.BinOp.COMPARES:
            # Operands were coerced to a common type at lowering; the
            # signedness is baked into the op choice.
            if op[0] == "u":
                a, b = intops.wrap_src(a, 64, False), intops.wrap_src(b, 64, False)
            return f"+({a} {intops.COMPARE_SRC[op[-2:]]} {b})"
        bits = scalar_bits(i.ty)
        if op == "lshr":
            a = intops.wrap_src(a, bits, False)
        return self.wrap(intops.arith_src(op, a, b, bits), i.ty)

    def _UnOp(self, i: ir.UnOp):
        a = self.v(i.operands[0])
        if i.op == "lnot":
            return f"+(not {a})"
        return self.wrap(("-" if i.op == "neg" else "~") + a, i.ty)

    def _Cast(self, i: ir.Cast):
        a, src_ty = self.v(i.operands[0]), i.operands[0].ty
        if i.kind == "bool":
            return f"+({a} != 0)"
        if i.kind != "trunc":
            bits = scalar_bits(src_ty) if src_ty.is_scalar else 64
            a = intops.wrap_src(a, bits, i.kind == "sext")
        return self.wrap(a, i.ty)

    def _Select(self, i: ir.Select):
        c, a, b = map(self.v, i.operands)
        return f"{a} if {c} else {b}"

    def _Alloca(self, i: ir.Alloca):
        return None  # zeroed at function entry; re-running it keeps the value

    def _Load(self, i: ir.Load):
        return f"s{i.slot.id}"

    def _Store(self, i: ir.Store):
        self.w(f"s{i.slot.id} = {self.v(i.value)}")

    def _LoadElem(self, i: ir.LoadElem):
        return self.element(i.ref, i.index)

    def _StoreElem(self, i: ir.StoreElem):
        self.w(f"{self.element(i.ref, i.index)} = {self.wrap(self.v(i.value), i.ref.elem_type)}")

    def _LoadParam(self, i: ir.LoadParam):
        return f"int({self.element(i.param, i.index)})"

    def _StoreParam(self, i: ir.StoreParam):
        ty = i.param.ty
        elem_ty = ty.pointee if isinstance(ty, PointerType) else ty
        self.w(f"{self.element(i.param, i.index)} = {self.wrap(self.v(i.value), elem_ty)}")

    def _WinField(self, i: ir.WinField):
        self.lookup(i, "meta", i.field, f"window field {i.field!r} not bound")

    def _LocField(self, i: ir.LocField):
        if i.field != "id":
            raise PisaError(f"unknown location field {i.field!r}")
        return "loc"

    def _LocLabel(self, i: ir.LocLabel):
        self.lookup(i, "labels", i.label, f"unresolved location label {i.label!r}")

    def _CtrlRead(self, i: ir.CtrlRead):
        name = i.ref.name
        self.lookup(i, "state.ctrl", name, f"control variable {name!r} not on device")
        if i.index is not None:
            idx, n = self.v(i.index), f"len(v{i.id})"
            self.w(f"if not 0 <= {idx} < {n}: raise oob('control variable {name}', {idx}, {n})")
            return f"v{i.id}[{idx}]"

    def _MapLookup(self, i: ir.MapLookup):
        name = i.ref.name
        self.lookup(i, "state.maps", name, f"Map {name!r} not present on device")
        return f"v{i.id}.lookup({self.v(i.key)})"  # the token: (found, value)

    def _MapFound(self, i: ir.MapFound):
        return f"+{self.v(i.operands[0])}[0]"

    def _MapValue(self, i: ir.MapValue):
        return f"{self.v(i.operands[0])}[1]"

    def _BloomOp(self, i: ir.BloomOp):
        name, key = i.ref.name, self.v(i.operands[0])
        self.lookup(i, "state.blooms", name, f"BloomFilter {name!r} not on device")
        if i.op == "query":
            return f"+v{i.id}.query({key})"
        self.w(f"v{i.id}.insert({key})")

    def _Memcpy(self, i: ir.Memcpy):
        def region(region: ir.MemRegion, offset: ir.Value) -> str:
            buf, what, n = self.buffer(region.param if region.kind == "param" else region.ref)
            return f"({buf}, {what!r}, {n}, {self.v(offset)})"

        elem = i.dst.elem_type
        self.w(
            f"memcpy({region(i.dst, i.dst_off)}, {region(i.src, i.src_off)}, "
            f"{self.v(i.nbytes)}, {sizeof(elem)}, {sizeof(i.src.elem_type)}, "
            f"{scalar_bits(elem)}, {is_signed(elem)})"
        )

    def _GlobalAddr(self, i: ir.GlobalAddr):
        # a host global is its element list; switch-side state, its name
        return self.buffer(i.ref)[0] if i.ref.space == "host" else repr(i.ref.name)

    def _Fwd(self, i: ir.Fwd):
        self.w(f"fwd = {i.kind.name}; lab = {i.label!r}")

    def _CallFn(self, i: ir.CallFn):
        name = f"f{len(self.callees)}"
        self.callees[name] = i.callee  # bound into the env once lowered
        args = ", ".join(map(self.v, i.operands))
        self.w(f"_f, _l, v{i.id} = {name}(state, meta, [{args}], loc, labels)  # {i.callee.name}")
        # Forwarding decisions made in helpers propagate to the caller.
        self.w("if _f is not PASS or _l: fwd = _f; lab = _l")
