"""Load-time lowering of NIR functions to Python source.

:func:`lower_function` turns one :class:`ir.Function` into one Python
function ``kernel(state, meta, args, loc, labels) -> (fwd, label, ret)``:
SSA values and pre-mem2reg slots become locals; the CFG becomes
structured code -- a natural loop a ``while True:``, a branch an ``if``,
a back edge ``continue`` and a loop exit ``break`` (setting ``ex`` when
the loop leaves for more than one place) -- phis become parallel
assignments on the incoming edge, and wrap / sign-extend / shift-clamp
become inline mask arithmetic whose source comes from
:mod:`repro.util.intops`. Each window field and the length of each
indexed parameter is read once, at entry; its check stays at the use.
Nothing about the program is re-discovered per run, and there is no
fallback to a tree walk.

The semantics are those of the reference walker ``tests/nir_oracle.py``,
against which every shipped kernel is differentially tested. Two
liberties: the step budget is charged per block, so a runaway loop traps
at a block boundary; and IR the walker would only reject on reaching it
(an unknown instruction, a phi without its edge) is rejected here, as is
a CFG this lowering does not structure (an irreducible one, or a jump
past a merge, which only hand-built IR has) and one nested deeper than
CPython compiles (more than 20 loops inside each other).
"""

from __future__ import annotations

from collections import Counter
from contextlib import nullcontext
from typing import Callable, Dict, List, Optional, Tuple

from repro.errors import PisaError
from repro.ncl.types import PointerType, Type, is_signed, scalar_bits, sizeof
from repro.nir import ir
from repro.nir.cfg import DominatorTree, natural_loops
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
        try:
            env = compile_source(f"<nir {fn.name}>", gen.source, {**_ENV, **gen.env})
        except SyntaxError as exc:  # loops or branches nested past what CPython compiles
            raise PisaError(f"{fn.name}: cannot be lowered: {exc.msg}") from None
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
    instruction's value, if it has one that is not assigned yet.

    The function and each natural loop are *regions*, a loop standing in
    the region around it as one node. A node with one way in is emitted
    at that edge; a *merge* node, with more, after the code of its
    immediate dominator, where the ways in fall through to it. A way in
    that would have to fall past another merge node is refused (no NCL
    program lowers to one)."""

    def __init__(self, fn: ir.Function):
        self.fn = fn
        self.env: Dict[str, object] = {}  # per-function additions to _ENV
        self.callees: Dict[str, ir.Function] = {}  # env name -> callee
        self.arrays: Dict[str, str] = {}  # global name -> local holding its list
        self.lengths: Dict[int, str] = {}  # param index -> local holding its len()
        self.names: Dict[ir.Instr, str] = {}  # window fields, read at entry
        fields: Dict[str, str] = {}
        for i in fn.instructions():
            if isinstance(i, ir.WinField):
                self.names[i] = fields.setdefault(i.field, f"w{len(fields)}")
        self._shape()
        self.w = SourceWriter()
        self.w.depth = 1
        self.leaves = False  # whether the code last emitted ends in a jump away
        self._region(fn.entry, None, [])

        head = SourceWriter()
        with head.block("def kernel(state, meta, args, loc, labels):"):
            head(f"# {fn.name}({', '.join(p.name for p in fn.params)})")
            if fn.params:
                head(", ".join(f"a{p.index}" for p in fn.params) + ", = args")
            for name, local in self.arrays.items():
                head(f"{local} = state.arrays.get({name!r}, no_{local})")
            for text in [f"{local} = meta.get({f!r})" for f, local in fields.items()] + [
                    f"{local} = len(a{k})" for k, local in self.lengths.items()]:
                head(text)
            # Slots read 0 until stored to; entry phis have no incoming edge.
            zeroed = [f"s{i.id}" for i in fn.instructions() if isinstance(i, ir.Alloca)]
            zeroed += [f"v{phi.id}" for phi in fn.entry.phis()]
            head(" = ".join(zeroed + ["steps", "0"]))
            head("fwd = PASS; lab = None")
        self.source = "\n".join(head.lines + self.w.lines) + "\n"

    def _shape(self) -> None:
        """Loops and where they leave to; each node's ways in and the
        merge nodes each node immediately dominates."""
        dom = DominatorTree(self.fn)
        rpo = {b: k for k, b in enumerate(dom.rpo)}
        for b, t in ((b, t) for b in dom.rpo for t in b.successors()):
            if rpo[t] <= rpo[b] and not dom.dominates(t, b):
                raise PisaError(f"{self.fn.name}: irreducible control flow into {t.label}")
        #: loop header -> its blocks; block -> header of its innermost loop
        self.body = {lp["header"]: lp["body"] for lp in natural_loops(self.fn)}
        self.loop_of: Dict[ir.Block, ir.Block] = {}
        self.parent = dict.fromkeys(self.body)  # header -> header of the loop around
        for h in sorted(self.body, key=lambda h: -len(self.body[h])):  # inner ones last
            for b in self.body[h]:
                self.loop_of[b] = h
                if b in self.body and b is not h:
                    self.parent[b] = h
        self.exits = {
            h: sorted({t for b in body for t in b.successors() if t not in body}, key=rpo.get)
            for h, body in self.body.items()
        }
        #: block -> its ways in, but for back edges
        self.ways = Counter(
            t for b in dom.rpo for t in b.successors() if b not in self.body.get(t, ())
        )
        self.merges: Dict[tuple, List[ir.Block]] = {}  # (region, node) -> merge nodes
        for b in dom.rpo:
            if self.ways[b] > 1:
                key = (self.region(b), self.node_in(dom.idom[b], self.region(b)))
                self.merges.setdefault(key, []).append(b)

    def region(self, node: ir.Block) -> Optional[ir.Block]:
        """The loop (its header; None: the function) *node* is a node of."""
        return self.parent[node] if node in self.body else self.loop_of.get(node)

    def node_in(self, block: ir.Block, region: Optional[ir.Block]) -> ir.Block:
        """The node of *region* that holds *block*."""
        header = self.loop_of.get(block)
        while header is not region:
            block, header = header, self.parent[header]
        return block

    # -- values ----------------------------------------------------------

    def v(self, value: ir.Value) -> str:
        if isinstance(value, ir.Instr):
            return self.names.get(value) or f"v{value.id}"
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
            n = self.lengths.setdefault(base.index, f"n{base.index}")
            return self.v(base), f"window data {base.name}", n
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

    # -- regions, blocks and edges ------------------------------------------------

    def _region(self, node: ir.Block, region, follow: List[ir.Block]) -> None:
        """*node*'s code, then that of the merge nodes it dominates, up to
        where *follow* (the merge nodes after, nearest first) starts."""
        chain = []
        while node is not None:  # the node, and those its code falls into
            merges = self.merges.get((region, node), [])
            chain.append((merges, follow))
            follow = merges + follow
            node = self._node(node, region, follow)
        for merges, follow in reversed(chain):
            for k, m in enumerate(merges):
                self._region(m, region, merges[k + 1:] + follow)

    def _node(self, node: ir.Block, region, follow: List[ir.Block]) -> Optional[ir.Block]:
        """Emits a block, or a loop and where it leaves to; returns the
        node this code falls into, if any."""
        if node not in self.body or node is region:
            return self._block(node, region, follow)
        with self.w.block("while True:"):
            self._region(node, node, [])
        exits = self.exits[node]
        if len(exits) == 1:
            return self._goto(exits[0], region, follow)
        arms = [self._arm(target, region, follow) for target in exits]
        for k, (lines, _) in enumerate(arms):
            test = "else:" if k == len(exits) - 1 else f"{'el' if k else ''}if ex == {k}:"
            with self.w.block(test):
                for line in lines or ["pass"]:
                    self.w(line)
        self.leaves = all(leaves for _, leaves in arms)
        return None

    def _block(self, block: ir.Block, region, follow: List[ir.Block]) -> Optional[ir.Block]:
        """The budget, the instructions, then the terminator."""
        body = block.non_phis()
        steps = next((n for n, i in enumerate(body, 1) if i.is_terminator), 0)
        if not steps or body[steps - 1] is not block.terminator:  # the CFG's edges
            raise PisaError(f"{self.fn.name}/{block.label}: fell off block end")
        self.w(f"# {block.label}")
        message = f"{self.fn.name}: step budget exceeded"
        self.w(f"steps += {steps}")
        self.w(f"if steps > {MAX_STEPS}: raise PisaError({message!r})")
        *instrs, term = body[:steps]
        for instr in instrs:
            emit = getattr(self, "_" + type(instr).__name__, None)
            if emit is None:
                raise PisaError(f"cannot interpret {instr.render()}")
            out = emit(instr)
            if out is not None:
                self.w(f"v{instr.id} = {out}")
        if isinstance(term, ir.Br):
            self.phis(block, term.target)
            return self._goto(term.target, region, follow)
        if isinstance(term, ir.CondBr):
            then, other = (self._arm(t, region, follow, block) for t in (term.then, term.other))
            self._if(self.v(term.cond), then, other)
        elif isinstance(term, ir.Ret):
            self.w(f"return fwd, lab, {self.v(term.value) if term.value is not None else None}")
            self.leaves = True
        else:
            raise PisaError(f"cannot interpret {term.render()}")
        return None

    def phis(self, source: ir.Block, target: ir.Block) -> None:
        """*target*'s phis for the edge from *source*, in parallel."""
        values = []
        for phi in target.phis():
            value = next((v for v, pred in phi.incoming if pred is source), None)
            if value is None:
                raise PisaError(f"phi %{phi.id} has no incoming for {source.label}")
            values.append((f"v{phi.id}", self.v(value)))
        if values:
            self.w(" = ".join(", ".join(side) for side in zip(*values)))

    def _goto(self, target: ir.Block, region, follow: List[ir.Block]) -> Optional[ir.Block]:
        """Leaves for *target* by ``continue``, ``break`` or a fall through
        to the next merge node; or returns it, to be emitted in place."""
        self.leaves = False
        if target is region:
            if follow:
                self.w("continue")
                self.leaves = True
        elif region is not None and target not in self.body[region]:
            if len(self.exits[region]) > 1:
                self.w(f"ex = {self.exits[region].index(target)}")
            self.w("break")
            self.leaves = True
        elif self.ways[target] == 1:
            return target
        elif target not in follow[:1]:  # past another merge node
            raise PisaError(f"{self.fn.name}: cannot place {target.label}")
        return None

    def _arm(self, target, region, follow, source=None) -> Tuple[List[str], bool]:
        """The lines of one way out of a branch, unindented, and whether
        they end in a jump away."""
        outer, self.w = self.w, SourceWriter()
        if source is not None:
            self.phis(source, target)
        node = self._goto(target, region, follow)
        if node is not None:
            self._region(node, region, follow)
        lines, self.w = self.w.lines, outer
        return lines, self.leaves

    def _if(self, cond: str, then, other) -> None:
        """``if``/``else`` over two ``(lines, leaves)`` arms, an empty one left
        out; an arm that leaves goes first, the other after it unindented."""
        if not then[0] or (other[1] and not then[1]):
            cond, then, other = f"not {cond}", other, then
        (lines, leaves), (rest, rest_leaves) = then, other
        if lines:  # else both arms are empty
            with self.w.block(f"if {cond}:"):
                for line in lines:
                    self.w(line)
        with self.w.block("else:") if rest and not leaves else nullcontext():
            for line in rest:
                self.w(line)
        self.leaves = leaves and rest_leaves

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
        local = self.names[i]
        self.w(f"if {local} is None: raise PisaError({f'window field {i.field!r} not bound'!r})")

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

