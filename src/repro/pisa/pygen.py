"""Load-time lowering of a P4 program's actions and control to Python.

:func:`lower_program` turns a :class:`P4Program` into one Python function
per action -- primitives as straight-line statements over ``phv.fields``
and the register lists, destination masks and register widths as
literals from :mod:`repro.util.intops`' emitters -- plus one ``control``
function (``IfNode`` -> ``if``, ``Do`` -> a direct call, ``Apply`` ->
``pipe.apply_table``). Tables stay data, matched per packet.

The semantics are those of the reference walker ``tests/pisa_oracle.py``.
Two liberties: an action's register-access counts are added once, when
it starts; and what the walker would only reject on reaching it (an
unbound parameter, an unknown op, field, register or action) is rejected
here, when the program is loaded.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Sequence, Tuple

from repro.errors import PisaError
from repro.p4 import model as p4
from repro.util import intops
from repro.util.pysrc import SourceWriter, compile_source

_ARITH = ("add", "sub", "mul", "and", "or", "xor", "shl", "lshr", "ashr")
_COMPARES = ("eq", "ne", "ult", "ule", "ugt", "uge", "slt", "sle", "sgt", "sge")


def lower_program(
    program: p4.P4Program, stats, registers: Dict[str, List[int]]
) -> Tuple[Dict[str, Callable], Callable, str]:
    """``(actions by name, control, source)`` for *program*, bound to one
    pipeline's *stats* and register lists. An action is called as
    ``action(phv, args)``, the control block as ``control(pipe, phv)``."""
    gen = _ProgramSource(program)
    env = {**intops.SRC_ENV, "fail": _fail, "bad_read": _bad_read}
    env.update(stats=stats, runs=stats.action_runs)
    env.update((local, registers[name]) for name, local in gen.registers.items())
    compile_source(f"<p4 {program.name}>", gen.source, env)
    actions = {name: env[local] for name, local in gen.actions.items()}
    return actions, env["control"], gen.source


def _fail(message: str):
    raise PisaError(message)


def _bad_read(phv, exc: KeyError):
    """A field read found nothing: ``Phv.read`` knows why."""
    phv.read(exc.args[0])
    raise exc


class _ProgramSource:
    def __init__(self, program: p4.P4Program):
        self.program = program
        self.registers = {name: f"r{k}" for k, name in enumerate(program.registers)}
        self.actions = {name: f"a{k}" for k, name in enumerate(program.actions)}
        self.w = w = SourceWriter()
        for action in program.actions.values():
            self._action(action)
        with w.block("def control(pipe, phv):"):
            w(f"# {program.name}")
            w("F = phv.fields; V = phv.valid; obs = pipe.observer")
            self._nodes(program.control)
        self.source = "\n".join(w.lines) + "\n"

    def expr(self, e: p4.PExpr, params: Sequence[str]) -> str:
        """Source of *e*, an int-valued operand."""
        kind, wrap = type(e), intops.wrap_src
        if kind is p4.PConst:
            return str(intops.wrap_unsigned(e.value, e.bits))
        if kind is p4.PField:
            if e.ref.startswith("valid."):
                return f"(+V.get({e.ref.split('.', 1)[1]!r}, False))"
            return f"F[{e.ref!r}]"
        if kind is p4.PParam:
            if e.name not in params:
                raise PisaError(f"unbound action parameter {e.name!r}")
            return wrap(f"args[{params.index(e.name)}]", e.bits, False)
        if kind is p4.PBin:
            a, b, op = self.expr(e.lhs, params), self.expr(e.rhs, params), e.op
            if op in _COMPARES:
                if op[0] == "s":
                    a, b = wrap(a, e.bits, True), wrap(b, e.bits, True)
                return f"(+({a} {intops.COMPARE_SRC[op[-2:]]} {b}))"
            if op not in _ARITH:
                raise PisaError(f"unknown ALU op {op!r}")
            return wrap(intops.arith_src(op, a, b, e.bits), e.bits, False)
        if kind is p4.PMux:
            a, b = self.expr(e.a, params), self.expr(e.b, params)
            return wrap(f"{a} if {self.expr(e.cond, params)} else {b}", e.bits, False)
        if kind is p4.PUn:
            a = self.expr(e.operand, params)
            if e.op == "lnot":
                return f"(+({a} == 0))"
            if e.op not in ("neg", "not"):
                raise PisaError(f"unknown unary ALU op {e.op!r}")
            return wrap(("-" if e.op == "neg" else "~") + a, e.bits, False)
        raise PisaError(f"cannot evaluate {e!r}")

    def element(self, name: str, index: p4.PExpr, params: Sequence[str], value: str = "") -> str:
        """Source of ``name[i]``, after emitting the index (as ``i``), then
        *value* (as ``x``), then the bounds check -- the walker's order."""
        size = self.program.registers[name].size
        self.w(f"i = {self.expr(index, params)}")
        if value:
            self.w(f"x = {value}")
        message = f"register {name}: index %d out of range [0, {size})"
        self.w(f"if not 0 <= i < {size}: fail({message!r} % i)")
        return f"{self.registers[name]}[i]"

    def _action(self, action: p4.Action) -> None:
        name, w, program = action.name, self.w, self.program
        params = [pname for pname, _ in action.params]
        arity = f"action {name}: expected {len(params)} args, got %d"
        with w.block(f"def {self.actions[name]}(phv, args=()):"):
            w(f"# action {name}({', '.join(params)})")
            w(f"if len(args) != {len(params)}: fail({arity!r} % len(args))")
            w(f"runs[{name!r}] = runs.get({name!r}, 0) + 1")
            for counter, kind in (("reads", p4.PRegRead), ("writes", p4.PRegWrite)):
                count = sum(type(prim) is kind for prim in action.primitives)
                if count:
                    w(f"stats.register_{counter} += {count}")
            w("F = phv.fields; V = phv.valid")
            with w.block("try:"):
                for prim in action.primitives:
                    self._primitive(prim, params)
                if not action.primitives:
                    w("pass")
            with w.block("except KeyError as exc:"):
                w("bad_read(phv, exc)")
        w("")

    def _primitive(self, prim, params: Sequence[str]) -> None:
        """One primitive; every store masks to its destination's width."""
        kind, program, wrap = type(prim), self.program, intops.wrap_src
        if kind in (p4.PRegRead, p4.PRegWrite) and prim.reg not in program.registers:
            raise PisaError(f"unknown register array {prim.reg!r}")
        if kind is p4.PRegWrite:
            value = wrap(self.expr(prim.expr, params), program.registers[prim.reg].bits, False)
            self.w(f"{self.element(prim.reg, prim.index, params, value)} = x")
        elif kind in (p4.PRegRead, p4.PAssign):
            value = (
                self.expr(prim.expr, params) if kind is p4.PAssign
                else self.element(prim.reg, prim.index, params)
            )
            self.w(f"F[{prim.dst!r}] = {wrap(value, program.field_bits(prim.dst), False)}")
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
                w(f"{self.actions[node.action]}(phv)")
            elif kind is p4.IfNode:
                cond = self.expr(node.cond, ())
                if "F[" in cond:  # a field read can miss; say why, as Phv.read does
                    w(f"try: c = {cond}")
                    w("except KeyError as exc: bad_read(phv, exc)")
                    cond = "c"
                with w.block(f"if {cond}:"):
                    self._nodes(node.then_nodes)
                    if not node.then_nodes:
                        w("pass")
                if node.else_nodes:
                    with w.block("else:"):
                        self._nodes(node.else_nodes)
            else:
                raise PisaError(f"unknown control node {node!r}")
