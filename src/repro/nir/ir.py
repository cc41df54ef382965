"""NIR -- the NCL intermediate representation.

NIR plays the role LLVM IR plays in the paper's nclc (Fig 6): a typed,
register-based IR over basic blocks, constructed from the NCL AST, put
into SSA form, optimized, and finally lowered to the P4-like switch
target (or interpreted directly on hosts).

Value taxonomy
--------------
* :class:`Const` -- typed integer/bool constant.
* :class:`Param` -- a kernel/function parameter (scalar value or the
  base of a pointer parameter).
* :class:`Undef` -- explicit undefined value (from uninitialized locals).
* :class:`Instr` subclasses -- every instruction that produces a result.

Memory model
------------
Scalars live in SSA registers after mem2reg. Aggregate state is accessed
through dedicated instructions naming the symbol they touch:

* ``LoadElem``/``StoreElem`` -- switch memory (``_net_`` arrays) and host
  global arrays, with a linearized element index;
* ``LoadParam``/``StoreParam`` -- window data / ``_ext_`` host buffers
  reached through pointer parameters;
* ``CtrlRead`` -- ``_ctrl_`` variables (never written from kernel code);
* ``MapLookup``/``MapFound``/``MapValue`` -- ``ncl::Map`` access;
* ``Memcpy`` -- bulk copy between parameter/global windows of elements;
* ``GlobalAddr`` -- host code only: a global handed whole to a runtime
  call (``{data}``, ``&done``, ``&nworkers``, a bare Map).

Forwarding decisions (``_drop``/``_pass``/``_bcast``/``_reflect``) are
modelled by :class:`Fwd`, which writes the per-window decision register;
the last executed ``Fwd`` wins, default is ``pass`` (paper S4.1).
"""

from __future__ import annotations

import itertools
from enum import Enum, auto
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.errors import IrError
from repro.ncl.types import (
    ArrayType,
    BloomFilterType,
    BOOL,
    MapType,
    PointerType,
    Type,
    U16,
)


class FwdKind(Enum):
    """The four forwarding decisions an outgoing kernel can make."""

    PASS = auto()
    DROP = auto()
    BCAST = auto()
    REFLECT = auto()

    @classmethod
    def from_intrinsic(cls, name: str) -> "FwdKind":
        return {
            "_pass": cls.PASS,
            "_drop": cls.DROP,
            "_bcast": cls.BCAST,
            "_reflect": cls.REFLECT,
        }[name]


# ---------------------------------------------------------------------------
# Values
# ---------------------------------------------------------------------------


class Value:
    """Anything an instruction may consume."""

    ty: Type

    def short(self) -> str:
        raise NotImplementedError


class Const(Value):
    __slots__ = ("ty", "value")

    def __init__(self, ty: Type, value: int):
        self.ty = ty
        self.value = int(value)

    def short(self) -> str:
        return f"{self.value}:{self.ty!r}"

    def __repr__(self) -> str:
        return f"Const({self.short()})"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Const) and (self.ty, self.value) == (other.ty, other.value)

    def __hash__(self) -> int:
        return hash((self.ty, self.value))


class Undef(Value):
    __slots__ = ("ty",)

    def __init__(self, ty: Type):
        self.ty = ty

    def short(self) -> str:
        return f"undef:{self.ty!r}"

    def __repr__(self) -> str:
        return f"Undef({self.ty!r})"


class Param(Value):
    """A function parameter. Pointer params are window-data bases."""

    __slots__ = ("ty", "name", "index", "ext")

    def __init__(self, index: int, name: str, ty: Type, ext: bool = False):
        self.index = index
        self.name = name
        self.ty = ty
        self.ext = ext

    def short(self) -> str:
        return f"%{self.name}"

    def __repr__(self) -> str:
        return f"Param({self.index}, {self.name}, {self.ty!r})"


# ---------------------------------------------------------------------------
# Instructions
# ---------------------------------------------------------------------------

_id_counter = itertools.count()


class Instr(Value):
    """Base instruction. ``operands`` drives generic rewriting/analysis."""

    mnemonic = "?"
    has_side_effects = False
    is_terminator = False

    def __init__(self, ty: Type, operands: Sequence[Value] = ()):
        self.ty = ty
        self.operands: List[Value] = list(operands)
        self.id = next(_id_counter)
        self.block: Optional["Block"] = None
        #: NCL source location of the construct this instruction was
        #: lowered from (stamped by the lowerer; None for synthetic IR).
        self.loc = None

    def short(self) -> str:
        return f"%{self.id}"

    def replace_operand(self, old: Value, new: Value) -> None:
        self.operands = [new if op is old else op for op in self.operands]

    def render(self) -> str:
        ops = ", ".join(op.short() for op in self.operands)
        return f"%{self.id} = {self.mnemonic} {ops}".rstrip()

    def __repr__(self) -> str:
        return f"<{type(self).__name__} %{self.id}>"


class BinOp(Instr):
    """Arithmetic/bitwise/comparison. ``op`` is one of:

    add sub mul udiv sdiv urem srem shl lshr ashr and or xor
    eq ne ult ule ugt uge slt sle sgt sge
    """

    COMPARES = frozenset("eq ne ult ule ugt uge slt sle sgt sge".split())
    ARITH = frozenset("add sub mul udiv sdiv urem srem shl lshr ashr and or xor".split())

    def __init__(self, op: str, lhs: Value, rhs: Value, ty: Type):
        if op not in self.COMPARES and op not in self.ARITH:
            raise IrError(f"unknown binop {op!r}")
        super().__init__(BOOL if op in self.COMPARES else ty, (lhs, rhs))
        self.op = op

    mnemonic = "binop"

    @property
    def lhs(self) -> Value:
        return self.operands[0]

    @property
    def rhs(self) -> Value:
        return self.operands[1]

    def render(self) -> str:
        return f"%{self.id} = {self.op} {self.operands[0].short()}, {self.operands[1].short()}"


class UnOp(Instr):
    """``neg`` (two's complement), ``not`` (bitwise), ``lnot`` (logical)."""

    def __init__(self, op: str, operand: Value, ty: Type):
        if op not in ("neg", "not", "lnot"):
            raise IrError(f"unknown unop {op!r}")
        super().__init__(BOOL if op == "lnot" else ty, (operand,))
        self.op = op

    mnemonic = "unop"

    def render(self) -> str:
        return f"%{self.id} = {self.op} {self.operands[0].short()}"


class Cast(Instr):
    """zext / sext / trunc / bool (int -> i1 by != 0).

    ``explicit`` distinguishes a cast the programmer wrote from an
    implicit conversion the lowerer inserted; the width-truncation lint
    only warns about the latter.
    """

    def __init__(self, kind: str, operand: Value, to_ty: Type, explicit: bool = False):
        if kind not in ("zext", "sext", "trunc", "bool"):
            raise IrError(f"unknown cast kind {kind!r}")
        super().__init__(to_ty, (operand,))
        self.kind = kind
        self.explicit = explicit

    mnemonic = "cast"

    def render(self) -> str:
        return f"%{self.id} = {self.kind} {self.operands[0].short()} to {self.ty!r}"


class Select(Instr):
    """``select cond, a, b`` -- branch-free ternary."""

    def __init__(self, cond: Value, a: Value, b: Value, ty: Type):
        super().__init__(ty, (cond, a, b))

    mnemonic = "select"


class Alloca(Instr):
    """Stack slot for a scalar local; removed by mem2reg."""

    def __init__(self, slot_ty: Type, name: str):
        super().__init__(PointerType(slot_ty), ())
        self.slot_ty = slot_ty
        self.name = name

    mnemonic = "alloca"

    def render(self) -> str:
        return f"%{self.id} = alloca {self.slot_ty!r}  ; {self.name}"


class Load(Instr):
    def __init__(self, slot: Alloca):
        super().__init__(slot.slot_ty, (slot,))

    mnemonic = "load"

    @property
    def slot(self) -> Alloca:
        slot = self.operands[0]
        assert isinstance(slot, Alloca)
        return slot


class Store(Instr):
    has_side_effects = True

    def __init__(self, slot: Alloca, value: Value):
        from repro.ncl.types import VOID

        super().__init__(VOID, (slot, value))

    mnemonic = "store"

    @property
    def slot(self) -> Alloca:
        slot = self.operands[0]
        assert isinstance(slot, Alloca)
        return slot

    @property
    def value(self) -> Value:
        return self.operands[1]


class GlobalRef:
    """Descriptor of a module-level symbol referenced by instructions."""

    def __init__(
        self,
        name: str,
        ty: Type,
        space: str,  # 'net' | 'ctrl' | 'map' | 'bloom' | 'host'
        at_label: Optional[str] = None,
        init: object = None,
    ):
        self.name = name
        self.ty = ty
        self.space = space
        self.at_label = at_label
        self.init = init

    @property
    def elem_type(self) -> Type:
        if isinstance(self.ty, ArrayType):
            return self.ty.scalar_element
        return self.ty

    @property
    def total_elements(self) -> int:
        if isinstance(self.ty, ArrayType):
            return self.ty.total_elements
        return 1

    def __repr__(self) -> str:
        return f"GlobalRef({self.space} {self.name}: {self.ty!r})"


class LoadElem(Instr):
    """Read one element of a global array (or a scalar global: index 0)."""

    def __init__(self, ref: GlobalRef, index: Value):
        super().__init__(ref.elem_type, (index,))
        self.ref = ref

    mnemonic = "ldelem"

    @property
    def index(self) -> Value:
        return self.operands[0]

    def render(self) -> str:
        return f"%{self.id} = ldelem {self.ref.name}[{self.operands[0].short()}]"


class StoreElem(Instr):
    has_side_effects = True

    def __init__(self, ref: GlobalRef, index: Value, value: Value):
        from repro.ncl.types import VOID

        super().__init__(VOID, (index, value))
        self.ref = ref

    mnemonic = "stelem"

    @property
    def index(self) -> Value:
        return self.operands[0]

    @property
    def value(self) -> Value:
        return self.operands[1]

    def render(self) -> str:
        return (
            f"stelem {self.ref.name}[{self.operands[0].short()}] = "
            f"{self.operands[1].short()}"
        )


class LoadParam(Instr):
    """Read ``param[index]`` through a pointer parameter (window data)."""

    def __init__(self, param: Param, index: Value):
        pointee = param.ty.pointee if isinstance(param.ty, PointerType) else param.ty
        super().__init__(pointee, (index,))
        self.param = param

    mnemonic = "ldparam"

    @property
    def index(self) -> Value:
        return self.operands[0]

    def render(self) -> str:
        return f"%{self.id} = ldparam {self.param.name}[{self.operands[0].short()}]"


class StoreParam(Instr):
    has_side_effects = True

    def __init__(self, param: Param, index: Value, value: Value):
        from repro.ncl.types import VOID

        super().__init__(VOID, (index, value))
        self.param = param

    mnemonic = "stparam"

    @property
    def index(self) -> Value:
        return self.operands[0]

    @property
    def value(self) -> Value:
        return self.operands[1]

    def render(self) -> str:
        return (
            f"stparam {self.param.name}[{self.operands[0].short()}] = "
            f"{self.operands[1].short()}"
        )


class WinField(Instr):
    """Read a window-struct field (builtin or user extension)."""

    def __init__(self, field: str, ty: Type):
        super().__init__(ty, ())
        self.field = field

    mnemonic = "winfld"

    def render(self) -> str:
        return f"%{self.id} = winfld .{self.field}"


class LocField(Instr):
    """Read a location-struct field; resolved per switch at versioning."""

    def __init__(self, field: str, ty: Type):
        super().__init__(ty, ())
        self.field = field

    mnemonic = "locfld"

    def render(self) -> str:
        return f"%{self.id} = locfld .{self.field}"


class LocLabel(Instr):
    """``_locid("label")`` -- becomes a Const once the AND is known."""

    def __init__(self, label: str):
        super().__init__(U16, ())
        self.label = label

    mnemonic = "locid"

    def render(self) -> str:
        return f'%{self.id} = locid "{self.label}"'


class CtrlRead(Instr):
    """Read a ``_ctrl_`` variable (scalar, or one element of a ctrl array)."""

    def __init__(self, ref: GlobalRef, index: Optional[Value] = None):
        ops = (index,) if index is not None else ()
        super().__init__(ref.elem_type, ops)
        self.ref = ref

    mnemonic = "ctrlrd"

    @property
    def index(self) -> Optional[Value]:
        return self.operands[0] if self.operands else None

    def render(self) -> str:
        idx = f"[{self.operands[0].short()}]" if self.operands else ""
        return f"%{self.id} = ctrlrd {self.ref.name}{idx}"


class MapLookup(Instr):
    """Look up ``key`` in a Map; yields an opaque lookup token."""

    def __init__(self, ref: GlobalRef, key: Value):
        assert isinstance(ref.ty, MapType)
        super().__init__(PointerType(ref.ty.value), (key,))
        self.ref = ref

    mnemonic = "maplkp"

    @property
    def key(self) -> Value:
        return self.operands[0]

    def render(self) -> str:
        return f"%{self.id} = maplkp {self.ref.name}[{self.operands[0].short()}]"


class MapFound(Instr):
    """i1: did the lookup hit?"""

    def __init__(self, token: Value):
        super().__init__(BOOL, (token,))

    mnemonic = "mapfnd"


class MapValue(Instr):
    """The value behind a successful lookup (undefined on miss)."""

    def __init__(self, token: Value, value_ty: Type):
        super().__init__(value_ty, (token,))

    mnemonic = "mapval"


class BloomOp(Instr):
    """``insert`` (side effect) or ``query`` (yields i1) on a BloomFilter."""

    def __init__(self, ref: GlobalRef, op: str, key: Value):
        from repro.ncl.types import VOID

        assert isinstance(ref.ty, BloomFilterType)
        if op not in ("insert", "query"):
            raise IrError(f"unknown bloom op {op!r}")
        super().__init__(BOOL if op == "query" else VOID, (key,))
        self.ref = ref
        self.op = op
        self.has_side_effects = op == "insert"

    mnemonic = "bloom"

    def render(self) -> str:
        return f"%{self.id} = bloom.{self.op} {self.ref.name}, {self.operands[0].short()}"


class MemRegion:
    """One side of a memcpy: (param | global) base plus an element offset."""

    def __init__(
        self,
        kind: str,  # 'param' | 'global'
        param: Optional[Param] = None,
        ref: Optional[GlobalRef] = None,
    ):
        if kind not in ("param", "global"):
            raise IrError(f"bad memcpy region kind {kind!r}")
        self.kind = kind
        self.param = param
        self.ref = ref
        if kind == "param" and param is None:
            raise IrError("param region without param")
        if kind == "global" and ref is None:
            raise IrError("global region without ref")

    @property
    def elem_type(self) -> Type:
        if self.kind == "param":
            assert self.param is not None
            ty = self.param.ty
            return ty.pointee if isinstance(ty, PointerType) else ty
        assert self.ref is not None
        return self.ref.elem_type

    @property
    def name(self) -> str:
        return self.param.name if self.kind == "param" else self.ref.name  # type: ignore[union-attr]


class Memcpy(Instr):
    """Bulk copy of ``nbytes`` between two element regions.

    operands = (dst_offset_elems, src_offset_elems, nbytes).
    """

    has_side_effects = True

    def __init__(
        self,
        dst: MemRegion,
        dst_off: Value,
        src: MemRegion,
        src_off: Value,
        nbytes: Value,
    ):
        from repro.ncl.types import VOID

        super().__init__(VOID, (dst_off, src_off, nbytes))
        self.dst = dst
        self.src = src

    mnemonic = "memcpy"

    @property
    def dst_off(self) -> Value:
        return self.operands[0]

    @property
    def src_off(self) -> Value:
        return self.operands[1]

    @property
    def nbytes(self) -> Value:
        return self.operands[2]

    def render(self) -> str:
        return (
            f"memcpy {self.dst.name}+{self.operands[0].short()} <- "
            f"{self.src.name}+{self.operands[1].short()}, {self.operands[2].short()}B"
        )


class GlobalAddr(Instr):
    """The address of a host global, ``_ctrl_`` variable or container, as
    host code passes it to a runtime call: a host global's element list,
    or the name the control plane knows switch-side state by."""

    def __init__(self, ref: GlobalRef):
        super().__init__(PointerType(ref.ty), ())
        self.ref = ref

    mnemonic = "gaddr"

    def render(self) -> str:
        return f"%{self.id} = gaddr {self.ref.name}"


class Fwd(Instr):
    """Set the window forwarding decision (last writer wins)."""

    has_side_effects = True

    def __init__(self, kind: FwdKind, label: Optional[str] = None):
        from repro.ncl.types import VOID

        super().__init__(VOID, ())
        self.kind = kind
        self.label = label

    mnemonic = "fwd"

    def render(self) -> str:
        suffix = f' "{self.label}"' if self.label else ""
        return f"fwd {self.kind.name.lower()}{suffix}"


class CallFn(Instr):
    """Direct call to a helper function (always inlined before lowering),
    or in host code to a body-less extern: a runtime call (nir.lower)."""

    has_side_effects = True

    def __init__(self, callee: "Function", args: Sequence[Value]):
        super().__init__(callee.ret, args)
        self.callee = callee

    mnemonic = "call"

    def render(self) -> str:
        args = ", ".join(op.short() for op in self.operands)
        return f"%{self.id} = call {self.callee.name}({args})"


class Phi(Instr):
    def __init__(self, ty: Type):
        super().__init__(ty, ())
        self.incoming: List[Tuple[Value, "Block"]] = []

    mnemonic = "phi"

    def add_incoming(self, value: Value, block: "Block") -> None:
        self.incoming.append((value, block))
        self.operands.append(value)

    def set_incoming(self, idx: int, value: Value) -> None:
        self.incoming[idx] = (value, self.incoming[idx][1])
        self.operands[idx] = value

    def replace_operand(self, old: Value, new: Value) -> None:
        super().replace_operand(old, new)
        self.incoming = [
            (new if val is old else val, blk) for val, blk in self.incoming
        ]

    def render(self) -> str:
        parts = ", ".join(f"[{v.short()}, {b.label}]" for v, b in self.incoming)
        return f"%{self.id} = phi {parts}"


# Terminators ----------------------------------------------------------------


class Br(Instr):
    is_terminator = True
    has_side_effects = True

    def __init__(self, target: "Block"):
        from repro.ncl.types import VOID

        super().__init__(VOID, ())
        self.target = target

    mnemonic = "br"

    def successors(self) -> List["Block"]:
        return [self.target]

    def render(self) -> str:
        return f"br {self.target.label}"


class CondBr(Instr):
    is_terminator = True
    has_side_effects = True

    def __init__(self, cond: Value, then: "Block", other: "Block"):
        from repro.ncl.types import VOID

        super().__init__(VOID, (cond,))
        self.then = then
        self.other = other

    mnemonic = "condbr"

    @property
    def cond(self) -> Value:
        return self.operands[0]

    def successors(self) -> List["Block"]:
        return [self.then, self.other]

    def render(self) -> str:
        return f"condbr {self.operands[0].short()}, {self.then.label}, {self.other.label}"


class Ret(Instr):
    is_terminator = True
    has_side_effects = True

    def __init__(self, value: Optional[Value] = None):
        from repro.ncl.types import VOID

        super().__init__(VOID, (value,) if value is not None else ())

    mnemonic = "ret"

    @property
    def value(self) -> Optional[Value]:
        return self.operands[0] if self.operands else None

    def successors(self) -> List["Block"]:
        return []

    def render(self) -> str:
        return f"ret {self.operands[0].short()}" if self.operands else "ret"


TERMINATORS = (Br, CondBr, Ret)


# ---------------------------------------------------------------------------
# Blocks, functions, modules
# ---------------------------------------------------------------------------


class Block:
    def __init__(self, label: str):
        self.label = label
        self.instrs: List[Instr] = []

    @property
    def terminator(self) -> Optional[Instr]:
        if self.instrs and self.instrs[-1].is_terminator:
            return self.instrs[-1]
        return None

    def successors(self) -> List["Block"]:
        term = self.terminator
        if term is None:
            return []
        return term.successors()  # type: ignore[attr-defined]

    def append(self, instr: Instr) -> Instr:
        if self.terminator is not None:
            raise IrError(f"appending after terminator in {self.label}")
        instr.block = self
        self.instrs.append(instr)
        return instr

    def phis(self) -> List[Phi]:
        return [i for i in self.instrs if isinstance(i, Phi)]

    def non_phis(self) -> List[Instr]:
        return [i for i in self.instrs if not isinstance(i, Phi)]

    def render(self) -> str:
        lines = [f"{self.label}:"]
        lines.extend(f"  {instr.render()}" for instr in self.instrs)
        return "\n".join(lines)

    def __repr__(self) -> str:
        return f"Block({self.label})"


class FunctionKind(Enum):
    OUT_KERNEL = auto()
    IN_KERNEL = auto()
    HELPER = auto()


class Function:
    def __init__(
        self,
        name: str,
        kind: FunctionKind,
        params: List[Param],
        ret: Type,
        at_label: Optional[str] = None,
    ):
        self.name = name
        self.kind = kind
        self.params = params
        self.ret = ret
        self.at_label = at_label
        self.blocks: List[Block] = []
        self._label_counter = 0

    @property
    def entry(self) -> Block:
        if not self.blocks:
            raise IrError(f"function {self.name} has no blocks")
        return self.blocks[0]

    def new_block(self, hint: str = "bb") -> Block:
        label = f"{hint}{self._label_counter}"
        self._label_counter += 1
        block = Block(label)
        self.blocks.append(block)
        return block

    def instructions(self) -> Iterable[Instr]:
        for block in self.blocks:
            yield from block.instrs

    def predecessors(self) -> Dict[Block, List[Block]]:
        preds: Dict[Block, List[Block]] = {b: [] for b in self.blocks}
        for block in self.blocks:
            for succ in block.successors():
                preds[succ].append(block)
        return preds

    def render(self) -> str:
        params = ", ".join(
            f"{'_ext_ ' if p.ext else ''}{p.name}: {p.ty!r}" for p in self.params
        )
        head = f"func {self.name}({params}) -> {self.ret!r} [{self.kind.name}]"
        if self.at_label:
            head += f' @ "{self.at_label}"'
        body = "\n".join(block.render() for block in self.blocks)
        return f"{head}\n{body}"

    def __repr__(self) -> str:
        return f"Function({self.name}, {self.kind.name})"


#: the GlobalRef spaces that live on a switch
STATE_SPACES = ("net", "ctrl", "map", "bloom")


def state_accesses(fn: Function) -> Iterator[Tuple[Block, Instr, GlobalRef, bool]]:
    """Every ``(block, instr, ref, is_write)`` by which *fn* touches
    switch state (a ref in :data:`STATE_SPACES`), in block then
    instruction order; a memcpy yields its ``dst`` before its ``src``,
    and a Bloom-filter insert is a write.

    The one definition every analysis reads. It does not follow calls:
    sema lets only ``_out_`` kernels name switch state (NCL0400 on a
    helper that does, and on passing switch memory to a pointer
    parameter), so no callee can touch it.
    """
    for block in fn.blocks:
        for instr in block.instrs:
            if isinstance(instr, Memcpy):
                touched = ((instr.dst.ref, True), (instr.src.ref, False))
            elif isinstance(instr, (LoadElem, CtrlRead, MapLookup)):
                touched = ((instr.ref, False),)
            elif isinstance(instr, StoreElem):
                touched = ((instr.ref, True),)
            elif isinstance(instr, BloomOp):
                touched = ((instr.ref, instr.op == "insert"),)
            else:
                continue
            for ref, is_write in touched:
                if ref is not None and ref.space in STATE_SPACES:
                    yield block, instr, ref, is_write


class Module:
    """A set of functions plus the global symbols they reference.

    One module is produced per compilation; IR versioning (nclc stage 2)
    clones it per AND location.
    """

    def __init__(self, name: str):
        self.name = name
        self.functions: Dict[str, Function] = {}
        self.globals: Dict[str, GlobalRef] = {}
        self.window_fields: List[Tuple[str, Type]] = []

    def add_function(self, fn: Function) -> Function:
        if fn.name in self.functions:
            raise IrError(f"duplicate function {fn.name}")
        self.functions[fn.name] = fn
        return fn

    def add_global(self, ref: GlobalRef) -> GlobalRef:
        if ref.name in self.globals:
            raise IrError(f"duplicate global {ref.name}")
        self.globals[ref.name] = ref
        return ref

    def kernels(self, kind: Optional[FunctionKind] = None) -> List[Function]:
        out = []
        for fn in self.functions.values():
            if fn.kind is FunctionKind.HELPER:
                continue
            if kind is None or fn.kind is kind:
                out.append(fn)
        return out

    def render(self) -> str:
        lines = [f"module {self.name}"]
        for ref in self.globals.values():
            lines.append(f"  global {ref.space} {ref.name}: {ref.ty!r}")
        for fn in self.functions.values():
            lines.append("")
            lines.append(fn.render())
        return "\n".join(lines)
