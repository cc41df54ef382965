"""The match-action reference walker: the independent oracle for
``repro.pisa.pygen``.

This is the tree-walking ``Pipeline`` that ``repro.pisa.pipeline``
shipped until actions and control were lowered to generated Python:
``eval_expr`` recurses over the expression tree, ``run_action`` and
``_run_nodes`` re-dispatch on the primitive / node type per packet. It
subclasses the production :class:`Pipeline` only for what was never
interpreted (``apply_table``, ``_match``), builds itself without
lowering anything, and shares no code with the lowering except
:mod:`repro.util.intops`' *runtime* functions, so the differential
suites can hold the generated code against it.
"""

from __future__ import annotations

from typing import Dict, Sequence

from repro.errors import PisaError
from repro.p4.model import (
    Action,
    Apply,
    ControlNode,
    Do,
    IfNode,
    P4Program,
    PAssign,
    PBin,
    PConst,
    PExpr,
    PField,
    PMux,
    PParam,
    PRegRead,
    PRegWrite,
    PUn,
)
from repro.pisa.phv import Phv
from repro.pisa.pipeline import Pipeline, PipelineStats, RegisterState
from repro.util import intops


class OraclePipeline(Pipeline):
    def __init__(self, program: P4Program, registers=None):
        self.program = program
        self.registers = registers or RegisterState(program)
        self.stats = PipelineStats()
        self.observer = None
        self.last_tables_matched = 0

    # -- expression evaluation ------------------------------------------------

    def eval_expr(self, expr: PExpr, phv: Phv, args: Dict[str, int]) -> int:
        if isinstance(expr, PConst):
            return intops.wrap_unsigned(expr.value, expr.bits)
        if isinstance(expr, PField):
            return phv.read(expr.ref)
        if isinstance(expr, PParam):
            if expr.name not in args:
                raise PisaError(f"unbound action parameter {expr.name!r}")
            return intops.wrap_unsigned(args[expr.name], expr.bits)
        if isinstance(expr, PBin):
            return self._eval_bin(expr, phv, args)
        if isinstance(expr, PMux):
            if self.eval_expr(expr.cond, phv, args):
                return intops.wrap_unsigned(self.eval_expr(expr.a, phv, args), expr.bits)
            return intops.wrap_unsigned(self.eval_expr(expr.b, phv, args), expr.bits)
        if isinstance(expr, PUn):
            operand = self.eval_expr(expr.operand, phv, args)
            if expr.op == "neg":
                return intops.wrap_unsigned(-operand, expr.bits)
            if expr.op == "not":
                return intops.wrap_unsigned(~operand, expr.bits)
            if expr.op == "lnot":
                return int(operand == 0)
            raise PisaError(f"unknown unary ALU op {expr.op!r}")
        raise PisaError(f"cannot evaluate {expr!r}")

    def _eval_bin(self, expr: PBin, phv: Phv, args: Dict[str, int]) -> int:
        a = self.eval_expr(expr.lhs, phv, args)
        b = self.eval_expr(expr.rhs, phv, args)
        bits = expr.bits
        op = expr.op
        if op in ("eq", "ne", "ult", "ule", "ugt", "uge", "slt", "sle", "sgt", "sge"):
            if op[0] == "s":
                sa, sb = intops.wrap_signed(a, bits), intops.wrap_signed(b, bits)
            else:
                sa, sb = a, b
            return int(
                {
                    "eq": sa == sb,
                    "ne": sa != sb,
                    "ult": sa < sb,
                    "ule": sa <= sb,
                    "ugt": sa > sb,
                    "uge": sa >= sb,
                    "slt": sa < sb,
                    "sle": sa <= sb,
                    "sgt": sa > sb,
                    "sge": sa >= sb,
                }[op]
            )
        if op == "add":
            raw = a + b
        elif op == "sub":
            raw = a - b
        elif op == "mul":
            raw = a * b
        elif op == "and":
            raw = a & b
        elif op == "or":
            raw = a | b
        elif op == "xor":
            raw = a ^ b
        elif op == "shl":
            raw = a << intops.shift_amount(b, bits)
        elif op == "lshr":
            raw = a >> intops.shift_amount(b, bits)
        elif op == "ashr":
            raw = intops.wrap_signed(a, bits) >> intops.shift_amount(b, bits)
        else:
            raise PisaError(f"unknown ALU op {op!r}")
        return intops.wrap_unsigned(raw, bits)

    # -- actions ---------------------------------------------------------------

    def run_action(self, name: str, phv: Phv, args: Sequence[int] = ()) -> None:
        action = self.program.actions.get(name)
        if action is None:
            raise PisaError(f"unknown action {name!r}")
        if len(args) != len(action.params):
            raise PisaError(
                f"action {name}: expected {len(action.params)} args, "
                f"got {len(args)}"
            )
        bound = {pname: value for (pname, _), value in zip(action.params, args)}
        self.stats.action_runs[name] = self.stats.action_runs.get(name, 0) + 1
        for prim in action.primitives:
            if isinstance(prim, PAssign):
                phv.write(prim.dst, self.eval_expr(prim.expr, phv, bound))
            elif isinstance(prim, PRegRead):
                index = self.eval_expr(prim.index, phv, bound)
                phv.write(prim.dst, self.registers.read(prim.reg, index))
                self.stats.register_reads += 1
            elif isinstance(prim, PRegWrite):
                index = self.eval_expr(prim.index, phv, bound)
                value = self.eval_expr(prim.expr, phv, bound)
                self.registers.write(prim.reg, index, value)
                self.stats.register_writes += 1
            else:
                raise PisaError(f"unknown primitive {prim!r}")

    # -- tables ------------------------------------------------------------------

    def apply_table(self, name: str, phv: Phv) -> bool:
        """Apply a table; returns True on hit."""
        table = self.program.tables.get(name)
        if table is None:
            raise PisaError(f"unknown table {name!r}")
        key = [phv.read(ref) for ref, _ in table.keys]
        entry = self._match(table, key)
        if entry is not None:
            self.stats.table_hits[name] = self.stats.table_hits.get(name, 0) + 1
            self.last_tables_matched += 1
            if self.observer is not None:
                self.observer.table(name, True, entry.action)
            self.run_action(entry.action, phv, entry.args)
            return True
        self.stats.table_misses[name] = self.stats.table_misses.get(name, 0) + 1
        if self.observer is not None:
            self.observer.table(name, False, table.default_action)
        self.run_action(table.default_action, phv, table.default_args)
        return False

    # -- control -------------------------------------------------------------------

    def run(self, phv: Phv) -> None:
        self.stats.packets += 1
        self.last_tables_matched = 0
        self._run_nodes(self.program.control, phv)

    def _run_nodes(self, nodes: Sequence[ControlNode], phv: Phv) -> None:
        for node in nodes:
            if isinstance(node, Apply):
                self.apply_table(node.table, phv)
            elif isinstance(node, Do):
                if self.observer is not None:
                    self.observer.action(node.action)
                self.run_action(node.action, phv)
            elif isinstance(node, IfNode):
                if self.eval_expr(node.cond, phv, {}):
                    self._run_nodes(node.then_nodes, phv)
                else:
                    self._run_nodes(node.else_nodes, phv)
            else:
                raise PisaError(f"unknown control node {node!r}")


def eval_both(program: P4Program, expr: PExpr) -> int:
    """*expr* evaluated by the lowered executor (through a probe action
    writing a 64-bit metadata field) and by the walker; they must agree."""
    program.add_metadata("probe_", 64)
    program.add_action(Action("probe_", [PAssign("meta.probe_", expr)]))
    results = []
    for pipeline in (Pipeline(program), OraclePipeline(program)):
        phv = Phv(program)
        pipeline.run_action("probe_", phv)
        results.append(phv.read("meta.probe_"))
    assert results[0] == results[1] == OraclePipeline(program).eval_expr(expr, Phv(program), {})
    return results[0]
