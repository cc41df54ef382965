"""Load-time lowering of a P4 program to Python over the PHV's slots.

A packet's PHV is one flat list ``S`` (:class:`repro.pisa.phv.PhvLayout`
says which slot is which field), and everything that touches it per
packet is generated here, once, when the switch is built:

* :func:`lower_parser` -- the parse graph expanded from ``start`` into
  nested ``if`` statements: per state one unpack per extracted header (offsets are
  literals: every path through the graph is static), the ``select`` as
  literal comparisons, and at each ``accept`` the slot list built in one
  display from what that path extracted;
* :func:`lower_program` -- one function per action (primitives as
  straight-line statements over ``S[17]`` and the register lists, masks
  and register sizes as literals from :mod:`repro.util.intops`'
  emitters), one per table that builds its key tuple, and one ``control``
  function (``IfNode`` -> ``if``, ``Do`` -> a direct call, ``Apply`` ->
  ``pipe.apply_table``);
* :func:`lower_deparser` -- per valid header one pack straight out of its
  slot range.

Table *entries* stay data, looked up per packet. A header field is read
as ``(+S[k])``, which is what raises when nothing was extracted into it
(:class:`repro.pisa.phv.Absent`); metadata is always there and is read
bare. Every slot and register holds a value within its own width (the
parser, ``Phv.write``, ``RegisterState`` and the generated stores all
keep it so), so an expression has a known width -- a field's, a
constant's, one more than the wider operand of ``+`` -- and a mask is
emitted only where that width can exceed the destination's; a literal
register index within the array is not range-checked.

The semantics are those of the reference ``tests/pisa_oracle.py`` (a
dict PHV, a parse loop, a walker). Three liberties: an action's
register-access counts are added once, when it starts; what the oracle
would only reject on reaching it (an unbound parameter, an unknown op,
field, register or action) is rejected here, when the program is loaded;
and so is a parse graph with a cycle that has more than one way round,
which the oracle would run (to ``MAX_STATES`` states per packet) and the
expansion cannot hold.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.errors import PisaError
from repro.p4 import model as p4
from repro.pisa.phv import PhvLayout
from repro.util import intops
from repro.util.bits import FieldLayout
from repro.util.pysrc import SourceWriter, compile_source

_ARITH = ("add", "sub", "mul", "and", "or", "xor", "shl", "lshr", "ashr")
_COMPARES = ("eq", "ne", "ult", "ule", "ugt", "uge", "slt", "sle", "sgt", "sge")

#: longest path through the parse graph, in states (guards against cycles)
MAX_STATES = 64
#: most states a parse graph may expand to: a cycle with one way round
#: costs MAX_STATES of them, one with two ways round would not end
MAX_EXPANSION = 1024


def _fail(message: str):
    raise PisaError(message)


def _short(instance: str, need_bytes: int, have_bytes: int):
    raise PisaError(
        f"packet too short for header {instance!r}: need "
        f"{need_bytes * 8} bits, have {have_bytes * 8}"
    )


def _read_src(layout: PhvLayout, ref: str) -> Tuple[str, int]:
    """Source of the value of field *ref*, and its width."""
    if ref.startswith("valid."):
        slot = layout.valid.get(ref.split(".", 1)[1])
        return ("0" if slot is None else f"S[{slot}]"), 1
    slot = layout.slots.get(ref)
    if slot is None:
        raise PisaError(f"read of unknown field {ref!r}")
    src = f"S[{slot}]" if slot < layout.n_meta else f"(+S[{slot}])"
    return src, layout.masks[slot].bit_length()


def _wrapped(src: str, bits: int, width: Optional[int]) -> Tuple[str, int]:
    """*src* as an operand, wrapped to *bits* unless its known *width*
    fits, and the width after."""
    if width is not None and intops.fits(width, bits, False):
        return f"({src})", width
    return intops.wrap_src(src, bits, False), bits


def _wire_layout(program: p4.P4Program, instance: str) -> FieldLayout:
    """The wire layout of a header instance. One whose fields ``struct``
    moves is (un)packed by ``layout.unsigned``'s bound methods; any other
    by its shifts and masks, emitted inline."""
    return FieldLayout([(f.name, f.bits) for f in program.instance_type(instance).fields])


# -- parser --------------------------------------------------------------------


def lower_parser(program: p4.P4Program, layout: PhvLayout) -> Tuple[Callable, str]:
    """``(parse, source)``: ``parse(data) -> (slots, unparsed rest)``."""
    gen = _ParserSource(program, layout)
    env = {"fail": _fail, "short": _short, "from_bytes": int.from_bytes, **gen.env}
    compile_source(f"<p4 {program.name} parser>", gen.source, env)
    return env["parse"], gen.source


class _ParserSource:
    """The parse graph expanded from ``start``. Every path through it is
    static -- which headers were extracted, at which byte offsets -- so a
    state unpacks into locals (``h2`` is the third header instance), a
    ``select`` compares one of them with literals, and each way to
    ``accept`` builds its slot list in one display: metadata zeros, then
    per header instance what was extracted or its run of ``Absent``."""

    def __init__(self, program: p4.P4Program, layout: PhvLayout):
        self.layout = layout
        self.states = {s.name: s for s in program.parser}
        if self.states and "start" not in self.states:
            raise PisaError("parse graph has no 'start' state")
        #: header instance -> its position in the slot layout
        self.order = {inst: i for i, inst in enumerate(layout.headers)}
        self.wire = {
            inst: _wire_layout(program, inst) for s in program.parser for inst in s.extracts
        }
        blank = layout.blank
        self.env = {"M": blank[: layout.n_meta]}
        for instance, (start, end) in layout.headers.items():
            self.env[f"A{self.order[instance]}"] = blank[start:end]
        for instance, wire in self.wire.items():
            if wire.unsigned is not None:
                self.env[f"u{self.order[instance]}"] = wire.unsigned.unpack_from
        self.expanded = 0
        self.w = w = SourceWriter()
        with w.block("def parse(data):"):
            w(f"# {program.name}")
            w("n = len(data)")
            self._state("start" if self.states else "accept", 0, (), 0)
        self.source = "\n".join(w.lines) + "\n"

    def _state(self, name: str, pos: int, extracted: Tuple[str, ...], depth: int) -> None:
        """State *name* entered *pos* bytes into the packet with the
        headers *extracted*; every way out of the emitted block returns
        or raises."""
        w, order = self.w, self.order
        if name == "accept":
            parts = ["*M"]
            parts += [f"*{'h' if inst in extracted else 'A'}{i}" for inst, i in order.items()]
            parts += [str(int(inst in extracted)) for inst in order]
            w(f"return [{', '.join(parts)}], {f'data[{pos}:]' if pos else 'data'}")
            return
        if name == "reject":
            w("fail('parser rejected packet')")
            return
        state = self.states.get(name)
        if state is None:
            w(f"fail({f'parser: unknown state {name!r}'!r})")
            return
        if depth >= MAX_STATES:
            w("fail('parse graph did not terminate')")
            return
        self.expanded += 1
        if self.expanded > MAX_EXPANSION:
            raise PisaError(
                f"parse graph expands past {MAX_EXPANSION} states "
                f"(a cycle through {name!r} with more than one way round?)"
            )
        w(f"# {name}")
        for instance in state.extracts:
            wire, i = self.wire[instance], order[instance]
            end = pos + wire.nbytes
            have = f"n - {pos}" if pos else "n"
            w(f"if n < {end}: short({instance!r}, {wire.nbytes}, {have})")
            if wire.unsigned is not None:
                w(f"h{i} = u{i}(data, {pos})")
            else:
                word = f"from_bytes(data[{pos}:{end}], 'big')"
                w(f"h{i} = {wire.unpack_src(word)}")
            extracted += (instance,)
            pos = end
        if state.select_field is not None:
            selector = self._select(state.select_field, extracted)
            if selector is None:
                return
            seen = set()
            for value, target in state.transitions:
                if value not in seen:  # the first match wins
                    seen.add(value)
                    with w.block(f"if {selector} == {int(value)}:"):
                        self._state(target, pos, extracted, depth + 1)
        self._state(state.default_next, pos, extracted, depth + 1)

    def _select(self, ref: str, extracted: Tuple[str, ...]):
        """Source of a ``select`` field's value; None (after emitting the
        raise) where the path has not extracted its header."""
        container, _, field = ref.partition(".")
        if container == "valid":
            return str(int(field in extracted))
        slot = self.layout.slots.get(ref)
        if slot is None:
            raise PisaError(f"read of unknown field {ref!r}")
        if container == "meta":
            return "0"  # nothing has written metadata yet
        if container not in extracted:
            self.w(f"fail({f'read of field {ref!r} in invalid header'!r})")
            return None
        return f"h{self.order[container]}[{slot - self.layout.headers[container][0]}]"


# -- deparser ------------------------------------------------------------------


def lower_deparser(program: p4.P4Program, layout: PhvLayout) -> Tuple[Callable, str]:
    """``(deparse, source)``: ``deparse(slots, rest) -> bytes``."""
    env: Dict[str, Callable] = {}
    w = SourceWriter()
    with w.block("def deparse(S, rest):"):
        w(f"# {program.name}")
        with w.block("return b''.join(("):
            for instance in program.deparser:
                wire, valid = _wire_layout(program, instance), layout.valid[instance]
                start, end = layout.headers[instance]
                if wire.unsigned is not None:  # named after its validity slot
                    env[f"k{valid}"] = wire.unsigned.pack
                    packed = f"k{valid}(*S[{start}:{end}])"
                else:
                    packed = wire.pack_src([f"S[{k}]" for k in range(start, end)])
                w(f"{packed} if S[{valid}] else b'',  # {instance}")
            w("rest,")
        w("))")
    source = "\n".join(w.lines) + "\n"
    compile_source(f"<p4 {program.name} deparser>", source, env)
    return env["deparse"], source


# -- actions, table keys, control ------------------------------------------------


def lower_program(
    program: p4.P4Program, layout: PhvLayout, stats, registers: Dict[str, List[int]],
    tables: Dict[str, p4.Table],
) -> Tuple[Dict[str, Callable], Callable, Dict[str, Tuple[p4.Table, Callable]], str]:
    """``(actions by name, control, tables by name, source)`` for *program*,
    bound to one pipeline's *stats*, register lists and *tables*. An action is
    called as ``action(slots, args)``, the control block as
    ``control(pipe, phv)``; a table comes with its key builder,
    ``key(slots) -> tuple``."""
    gen = _ProgramSource(program, layout)
    env = {**intops.SRC_ENV, "fail": _fail}
    env.update(stats=stats, runs=stats.action_runs)
    env.update((local, registers[name]) for name, local in gen.registers.items())
    compile_source(f"<p4 {program.name}>", gen.source, env)
    actions = {name: env[local] for name, local in gen.actions.items()}
    keyed = {name: (tables[name], env[local]) for name, local in gen.keys.items()}
    return actions, env["control"], keyed, gen.source


class _ProgramSource:
    def __init__(self, program: p4.P4Program, layout: PhvLayout):
        self.program = program
        self.layout = layout
        self.registers = {name: f"r{k}" for k, name in enumerate(program.registers)}
        self.actions = {name: f"a{k}" for k, name in enumerate(program.actions)}
        self.keys = {name: f"key{k}" for k, name in enumerate(program.tables)}
        self.w = w = SourceWriter()
        for action in program.actions.values():
            self._action(action)
        for table in program.tables.values():
            key = "".join(f"{_read_src(layout, ref)[0]}, " for ref, _ in table.keys)
            w(f"def {self.keys[table.name]}(S): return ({key})  # table {table.name}")
        with w.block("def control(pipe, phv):"):
            w(f"# {program.name}")
            w("S = phv.slots; obs = pipe.observer")
            self._nodes(program.control)
        self.source = "\n".join(w.lines) + "\n"

    def expr(self, e: p4.PExpr, params: Sequence[str]) -> Tuple[str, int]:
        """Source of *e*, an int-valued operand, and its known width *w*:
        the value lies in ``[0, 2**w)``. A slot or a register holds a
        value within its width, whoever wrote it."""
        kind = type(e)
        if kind is p4.PConst:
            value = intops.wrap_unsigned(e.value, e.bits)
            return str(value), value.bit_length()
        if kind is p4.PField:
            return _read_src(self.layout, e.ref)
        if kind is p4.PParam:
            if e.name not in params:
                raise PisaError(f"unbound action parameter {e.name!r}")
            return _wrapped(f"args[{params.index(e.name)}]", e.bits, None)
        if kind is p4.PBin:
            (a, wa), (b, wb), op = self.expr(e.lhs, params), self.expr(e.rhs, params), e.op
            if op in _COMPARES:
                if op[0] == "s":
                    a = intops.wrap_src(a, e.bits, True, wa)
                    b = intops.wrap_src(b, e.bits, True, wb)
                return f"+({a} {intops.COMPARE_SRC[op[-2:]]} {b})", 1
            if op not in _ARITH:
                raise PisaError(f"unknown ALU op {op!r}")
            if op == "and":
                width = min(wa, wb)
            elif op in ("or", "xor", "add"):
                width = max(wa, wb) + (op == "add")
            elif op == "shl" and b.isdigit():
                width = wa + intops.shift_amount(int(b), e.bits)
            else:
                width = None
            return _wrapped(intops.arith_src(op, a, b, e.bits), e.bits, width)
        if kind is p4.PMux:
            (a, wa), (b, wb) = self.expr(e.a, params), self.expr(e.b, params)
            cond, _ = self.expr(e.cond, params)
            return _wrapped(f"{a} if {cond} else {b}", e.bits, max(wa, wb))
        if kind is p4.PUn:
            a, _ = self.expr(e.operand, params)
            if e.op == "lnot":
                return f"+({a} == 0)", 1
            if e.op not in ("neg", "not"):
                raise PisaError(f"unknown unary ALU op {e.op!r}")
            return _wrapped(("-" if e.op == "neg" else "~") + a, e.bits, None)
        raise PisaError(f"cannot evaluate {e!r}")

    def element(
        self, name: str, index: p4.PExpr, params: Sequence[str], value: str = ""
    ) -> Tuple[str, str]:
        """``(source of name[i], source of the value)``. A literal index
        within the array is subscripted as it is; any other is emitted (as
        ``i``), then *value* (as ``x``), then the bounds check -- the
        walker's order."""
        size = self.program.registers[name].size
        i, _ = self.expr(index, params)
        if i.isdigit() and int(i) < size:
            return f"{self.registers[name]}[{i}]", value
        self.w(f"i = {i}")
        if value:
            self.w(f"x = {value}")
        message = f"register {name}: index %d out of range [0, {size})"
        self.w(f"if not 0 <= i < {size}: fail({message!r} % i)")
        return f"{self.registers[name]}[i]", "x"

    def _action(self, action: p4.Action) -> None:
        name, w = action.name, self.w
        params = [pname for pname, _ in action.params]
        arity = f"action {name}: expected {len(params)} args, got %d"
        with w.block(f"def {self.actions[name]}(S, args=()):"):
            w(f"# action {name}({', '.join(params)})")
            w(f"if len(args) != {len(params)}: fail({arity!r} % len(args))")
            w(f"runs[{name!r}] = runs.get({name!r}, 0) + 1")
            for counter, kind in (("reads", p4.PRegRead), ("writes", p4.PRegWrite)):
                count = sum(type(prim) is kind for prim in action.primitives)
                if count:
                    w(f"stats.register_{counter} += {count}")
            for prim in action.primitives:
                self._primitive(prim, params)
        w("")

    def _primitive(self, prim, params: Sequence[str]) -> None:
        """One primitive; a store masks to its destination's width where
        the value's known width does not fit it."""
        kind, program = type(prim), self.program
        if kind in (p4.PRegRead, p4.PRegWrite) and prim.reg not in program.registers:
            raise PisaError(f"unknown register array {prim.reg!r}")
        if kind is p4.PRegWrite:
            value, width = self.expr(prim.expr, params)
            value = intops.wrap_src(value, program.registers[prim.reg].bits, False, width)
            target, value = self.element(prim.reg, prim.index, params, value)
            self.w(f"{target} = {value}  # {prim!r}")
        elif kind in (p4.PRegRead, p4.PAssign):
            if kind is p4.PAssign:
                value, width = self.expr(prim.expr, params)
            else:
                value = self.element(prim.reg, prim.index, params)[0]
                width = program.registers[prim.reg].bits
            value = intops.wrap_src(value, program.field_bits(prim.dst), False, width)
            self.w(f"S[{self.layout.slots[prim.dst]}] = {value}  # {prim!r}")
        else:
            raise PisaError(f"unknown primitive {prim!r}")

    def _nodes(self, nodes: Sequence[p4.ControlNode]) -> None:
        w = self.w
        for node in nodes:
            kind = type(node)
            if kind is p4.Apply:
                w(f"pipe.apply_table({node.table!r}, phv)")
            elif kind is p4.Do:
                if node.action not in self.actions:
                    raise PisaError(f"unknown action {node.action!r}")
                w(f"if obs is not None: obs.action({node.action!r})")
                w(f"{self.actions[node.action]}(S)")
            elif kind is p4.IfNode:
                with w.block(f"if {self.expr(node.cond, ())[0]}:  # {node.cond!r}"):
                    self._nodes(node.then_nodes)
                    if not node.then_nodes:
                        w("pass")
                if node.else_nodes:
                    with w.block("else:"):
                        self._nodes(node.else_nodes)
            else:
                raise PisaError(f"unknown control node {node!r}")
