"""The PISA reference switch: the independent oracle for everything
``repro.pisa.pygen`` generates.

This is the switch ``repro.pisa`` shipped before a packet became one
flat slot list run by generated code: :class:`OraclePhv` is the dict PHV
(a field is a key, present once its header is extracted or it is
written), :class:`OracleParser` loops over the parse graph one state per
iteration and :class:`OracleDeparser` over the emit order, on the
bit-at-a-time codec of ``tests/bits_oracle.py``; :class:`OraclePipeline`
is the tree-walker (``eval_expr`` recurses over the expression tree,
``run_action`` and ``_run_nodes`` re-dispatch on the primitive / node
type per packet) and matches every table by the priority scan
``_match``, never through ``Table.index``. :class:`OracleSwitch` strings
them together the way ``PisaSwitch.process`` does. They share no code
with the lowering except :mod:`repro.util.intops`' *runtime* functions,
the register store and the counters, so the differential suites can hold
the generated code against them.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.errors import PisaError
from repro.p4.model import (
    FWD_PASS,
    META_FWD,
    META_FWD_LABEL,
    NO_LABEL,
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
    Table,
    TableEntry,
)
from repro.pisa.phv import Phv
from repro.pisa.pipeline import Pipeline, PipelineStats, RegisterState
from repro.pisa.switch_dev import FWD_NAMES, SwitchResult
from repro.util import intops

from tests import bits_oracle


class OraclePhv:
    def __init__(self, program: P4Program):
        self.program = program
        self.fields: Dict[str, int] = {}
        self.valid: Dict[str, bool] = {inst: False for inst in program.instances}
        self.payload_rest: bytes = b""
        for name in program.metadata:
            self.fields[f"meta.{name}"] = 0

    def set_valid(self, instance: str, valid: bool = True) -> None:
        if instance not in self.valid:
            raise PisaError(f"unknown header instance {instance!r}")
        self.valid[instance] = valid
        if valid:
            htype = self.program.instance_type(instance)
            for field in htype.fields:
                self.fields.setdefault(f"{instance}.{field.name}", 0)

    def is_valid(self, instance: str) -> bool:
        return self.valid.get(instance, False)

    def read(self, ref: str) -> int:
        if ref.startswith("valid."):
            return int(self.is_valid(ref.split(".", 1)[1]))
        if ref not in self.fields:
            container = ref.split(".", 1)[0]
            if container != "meta" and not self.is_valid(container):
                raise PisaError(f"read of field {ref!r} in invalid header")
            raise PisaError(f"read of unknown field {ref!r}")
        return self.fields[ref]

    def write(self, ref: str, value: int) -> None:
        bits = self.program.field_bits(ref)
        self.fields[ref] = intops.wrap_unsigned(int(value), bits)


def _wire_fields(program: P4Program, instance: str):
    return [(f.name, f.bits) for f in program.instance_type(instance).fields]


class OracleParser:
    MAX_STATES = 64  # guards against parse-graph cycles

    def __init__(self, program: P4Program):
        self.program = program
        self.states = {s.name: s for s in program.parser}
        if program.parser and "start" not in self.states:
            raise PisaError("parse graph has no 'start' state")

    def parse(self, data: bytes) -> OraclePhv:
        phv = OraclePhv(self.program)
        if not self.states:
            phv.payload_rest = data
            return phv
        steps = 0
        state = self.states["start"]
        while True:
            steps += 1
            if steps > self.MAX_STATES:
                raise PisaError("parse graph did not terminate")
            for instance in state.extracts:
                fields = _wire_fields(self.program, instance)
                need = sum(bits for _, bits in fields)
                if len(data) * 8 < need:
                    raise PisaError(
                        f"packet too short for header {instance!r}: need "
                        f"{need} bits, have {len(data) * 8}"
                    )
                values, data = bits_oracle.unpack_fields(fields, data)
                phv.valid[instance] = True
                for name, value in values.items():
                    phv.fields[f"{instance}.{name}"] = value
            next_name = state.default_next
            if state.select_field is not None:
                selector = phv.read(state.select_field)
                for value, target in state.transitions:
                    if value == selector:  # the first match wins
                        next_name = target
                        break
            if next_name == "accept":
                break
            if next_name == "reject":
                raise PisaError("parser rejected packet")
            state = self.states.get(next_name)
            if state is None:
                raise PisaError(f"parser: unknown state {next_name!r}")
        phv.payload_rest = data
        return phv


class OracleDeparser:
    def __init__(self, program: P4Program):
        self.program = program

    def deparse(self, phv: OraclePhv) -> bytes:
        out = b""
        for instance in self.program.deparser:
            if phv.valid.get(instance):
                fields = _wire_fields(self.program, instance)
                values = {name: phv.fields[f"{instance}.{name}"] for name, _ in fields}
                out += bits_oracle.pack_fields(fields, values)
        return out + phv.payload_rest


class OraclePipeline:
    """*tables* are the ones whose entries it matches: a switch's own
    (``PisaSwitch.tables``) to run beside it, by default the program's."""

    def __init__(self, program: P4Program, registers=None, tables=None):
        self.program = program
        self.registers = registers or RegisterState(program)
        self.tables = program.tables if tables is None else tables
        self.stats = PipelineStats()
        self.observer = None
        self.last_tables_matched = 0

    # -- expression evaluation ------------------------------------------------

    def eval_expr(self, expr: PExpr, phv, args: Dict[str, int]) -> int:
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

    def _eval_bin(self, expr: PBin, phv, args: Dict[str, int]) -> int:
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

    def run_action(self, name: str, phv, args: Sequence[int] = ()) -> None:
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

    def apply_table(self, name: str, phv) -> bool:
        """Apply a table; returns True on hit."""
        table = self.tables.get(name)
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

    @staticmethod
    def _match(table: Table, key: List[int]) -> Optional[TableEntry]:
        best: Optional[TableEntry] = None
        for entry in table.entries:
            if len(entry.match) != len(key):
                raise PisaError(f"table {table.name}: malformed entry {entry!r}")
            hit = True
            for (ref_kind, pattern, value) in zip(table.keys, entry.match, key):
                kind = ref_kind[1]
                if kind == "exact":
                    if pattern != value:
                        hit = False
                        break
                else:  # ternary
                    pvalue, pmask = pattern if isinstance(pattern, tuple) else (pattern, -1)
                    if (value & pmask) != (pvalue & pmask):
                        hit = False
                        break
            if hit and (best is None or entry.priority > best.priority):
                best = entry
        return best

    # -- control -------------------------------------------------------------------

    def run(self, phv) -> None:
        self.stats.packets += 1
        self.last_tables_matched = 0
        self._run_nodes(self.program.control, phv)

    def _run_nodes(self, nodes: Sequence[ControlNode], phv) -> None:
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


class OracleSwitch:
    """parser -> pipeline -> deparser, as ``PisaSwitch.process`` does it."""

    def __init__(self, program: P4Program, tables=None):
        self.program = program
        self.pipeline = OraclePipeline(program, tables=tables)
        self.registers = self.pipeline.registers
        self.parser = OracleParser(program)
        self.deparser = OracleDeparser(program)

    def process(self, data: bytes) -> SwitchResult:
        phv = self.parser.parse(data)
        phv.write(META_FWD, FWD_PASS)
        phv.write(META_FWD_LABEL, NO_LABEL)
        self.pipeline.run(phv)
        verdict_code = phv.read(META_FWD)
        if verdict_code >= len(FWD_NAMES):
            raise PisaError(f"corrupt forwarding decision {verdict_code}")
        label = phv.read(META_FWD_LABEL)
        return SwitchResult(
            FWD_NAMES[verdict_code],
            None if label == NO_LABEL else label,
            self.deparser,
            phv,
        )


def eval_both(program: P4Program, expr: PExpr) -> int:
    """*expr* evaluated by the lowered executor (through a probe action
    writing a 64-bit metadata field) and by the walker; they must agree."""
    program.add_metadata("probe_", 64)
    program.add_action(Action("probe_", [PAssign("meta.probe_", expr)]))
    results = []
    for pipeline, phv in (
        (Pipeline(program), Phv(program)),
        (OraclePipeline(program), OraclePhv(program)),
    ):
        pipeline.run_action("probe_", phv)
        results.append(phv.read("meta.probe_"))
    oracle = OraclePipeline(program).eval_expr(expr, OraclePhv(program), {})
    assert results[0] == results[1] == oracle
    return results[0]
