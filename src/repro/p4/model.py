"""The P4-like target program model.

This is nclc's code-generation target: a program for a PISA switch,
structured the way P4-16 programs are -- header types, a programmable
parser, match-action tables, actions built from primitive operations,
register extern arrays, and a deparser. The :mod:`repro.pisa` package
interprets this model bmv2-style; :mod:`repro.p4.printer` renders it as
``.p4``-flavoured source; :mod:`repro.p4.backend` checks it against a
chip profile and accepts or rejects (paper S5: "The final P4 program is
given to a P4 backend to eventually accept/reject it").

Field references are dotted strings: ``"eth.dst"``, ``"ncp.seq"``,
``"meta.v42"``. The pseudo-header ``meta`` is the user metadata struct
(the paper's reverse-SROA target for SSA registers).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.errors import PisaError

# ---------------------------------------------------------------------------
# Headers
# ---------------------------------------------------------------------------


class HeaderField:
    __slots__ = ("name", "bits")

    def __init__(self, name: str, bits: int):
        if bits <= 0 or bits > 128:
            raise PisaError(f"unsupported field width {bits} for {name}")
        self.name = name
        self.bits = bits

    def __repr__(self) -> str:
        return f"{self.name}:{self.bits}"


class HeaderType:
    """A fixed-layout header; fields are byte-packed big-endian on the wire."""

    def __init__(self, name: str, fields: Sequence[Tuple[str, int]]):
        self.name = name
        self.fields = [HeaderField(n, b) for n, b in fields]
        total = sum(f.bits for f in self.fields)
        if total % 8 != 0:
            raise PisaError(
                f"header {name} is {total} bits; headers must be byte-aligned"
            )
        self.bit_width = total

    @property
    def byte_width(self) -> int:
        return self.bit_width // 8

    def field(self, name: str) -> HeaderField:
        for f in self.fields:
            if f.name == name:
                return f
        raise PisaError(f"header {self.name} has no field {name!r}")

    def __repr__(self) -> str:
        return f"HeaderType({self.name}, {self.byte_width}B)"


# ---------------------------------------------------------------------------
# Expressions (action operand language)
# ---------------------------------------------------------------------------


class PExpr:
    """Base expression; evaluated by the PISA ALU over PHV fields."""


class PConst(PExpr):
    __slots__ = ("value", "bits")

    def __init__(self, value: int, bits: int = 32):
        self.value = value
        self.bits = bits

    def __repr__(self) -> str:
        return f"{self.value}"


class PField(PExpr):
    """Read of a PHV field (header field or metadata)."""

    __slots__ = ("ref",)

    def __init__(self, ref: str):
        self.ref = ref

    def __repr__(self) -> str:
        return self.ref


class PParam(PExpr):
    """An action parameter, bound per table entry (action data)."""

    __slots__ = ("name", "bits")

    def __init__(self, name: str, bits: int = 32):
        self.name = name
        self.bits = bits

    def __repr__(self) -> str:
        return f"${self.name}"


class PBin(PExpr):
    """Binary ALU op. Ops mirror NIR: add sub mul and or xor shl lshr ashr
    plus comparisons eq ne ult ule ugt uge slt sle sgt sge (yield 0/1)."""

    __slots__ = ("op", "lhs", "rhs", "bits", "signed")

    def __init__(self, op: str, lhs: PExpr, rhs: PExpr, bits: int, signed: bool = False):
        self.op = op
        self.lhs = lhs
        self.rhs = rhs
        self.bits = bits
        self.signed = signed

    def __repr__(self) -> str:
        return f"({self.lhs!r} {self.op} {self.rhs!r})"


class PUn(PExpr):
    __slots__ = ("op", "operand", "bits", "signed")

    def __init__(self, op: str, operand: PExpr, bits: int, signed: bool = False):
        self.op = op
        self.operand = operand
        self.bits = bits
        self.signed = signed

    def __repr__(self) -> str:
        return f"({self.op} {self.operand!r})"


class PMux(PExpr):
    """``cond != 0 ? a : b`` -- P4-16's conditional expression; also what
    RegisterAction predication provides on hardware."""

    __slots__ = ("cond", "a", "b", "bits")

    def __init__(self, cond: PExpr, a: PExpr, b: PExpr, bits: int):
        self.cond = cond
        self.a = a
        self.b = b
        self.bits = bits

    def __repr__(self) -> str:
        return f"({self.cond!r} ? {self.a!r} : {self.b!r})"


# ---------------------------------------------------------------------------
# Primitives (action body statements)
# ---------------------------------------------------------------------------


class Primitive:
    pass


class PAssign(Primitive):
    """``dst = expr`` where dst is a PHV field reference."""

    __slots__ = ("dst", "expr")

    def __init__(self, dst: str, expr: PExpr):
        self.dst = dst
        self.expr = expr

    def __repr__(self) -> str:
        return f"{self.dst} = {self.expr!r}"


class PRegRead(Primitive):
    """``dst = reg[index]`` -- stateful register array read."""

    __slots__ = ("dst", "reg", "index")

    def __init__(self, dst: str, reg: str, index: PExpr):
        self.dst = dst
        self.reg = reg
        self.index = index

    def __repr__(self) -> str:
        return f"{self.dst} = {self.reg}.read({self.index!r})"


class PRegWrite(Primitive):
    """``reg[index] = expr``."""

    __slots__ = ("reg", "index", "expr")

    def __init__(self, reg: str, index: PExpr, expr: PExpr):
        self.reg = reg
        self.index = index
        self.expr = expr

    def __repr__(self) -> str:
        return f"{self.reg}.write({self.index!r}, {self.expr!r})"


# ---------------------------------------------------------------------------
# Actions, tables, registers
# ---------------------------------------------------------------------------


class Action:
    def __init__(
        self,
        name: str,
        primitives: Sequence[Primitive] = (),
        params: Sequence[Tuple[str, int]] = (),
    ):
        self.name = name
        self.primitives = list(primitives)
        self.params = [(n, b) for n, b in params]

    def __repr__(self) -> str:
        return f"Action({self.name}, {len(self.primitives)} prims)"


class TableEntry:
    """One match entry: key values (exact ints, or (value, mask) pairs for
    ternary keys), the action to run and its action data."""

    def __init__(
        self,
        match: Sequence[Union[int, Tuple[int, int]]],
        action: str,
        args: Sequence[int] = (),
        priority: int = 0,
    ):
        self.match = list(match)
        self.action = action
        self.args = list(args)
        self.priority = priority

    def __repr__(self) -> str:
        return f"TableEntry({self.match} -> {self.action}{tuple(self.args)})"


class Table:
    """A match-action table.

    ``managed_by`` records who installs entries: ``"const"`` (entries in
    the program text), ``"control-plane"`` (e.g. the tables backing
    ``ncl::Map`` or IPv4 routes). The PISA simulator treats them the
    same; the distinction feeds the printer and the docs.
    """

    def __init__(
        self,
        name: str,
        keys: Sequence[Tuple[str, str]],
        actions: Sequence[str],
        default_action: str,
        default_args: Sequence[int] = (),
        entries: Optional[List[TableEntry]] = None,
        managed_by: str = "const",
        size: int = 1024,
    ):
        for _, kind in keys:
            if kind not in ("exact", "ternary"):
                raise PisaError(f"unsupported match kind {kind!r}")
        self.name = name
        self.keys = list(keys)
        self.actions = list(actions)
        self.default_action = default_action
        self.default_args = list(default_args)
        self.managed_by = managed_by
        self.size = size
        #: installed entries, in install order. Mutate only through
        #: :meth:`add_entry` / :meth:`remove_entries`, which keep
        #: :attr:`index` in step.
        self.entries: List[TableEntry] = []
        #: exact key tuple -> the entry a lookup of it yields (the highest
        #: priority, the earliest installed among equals), when every key
        #: is ``exact``; None for a table with a ternary key, which is
        #: matched by priority scan
        self.index: Optional[Dict[tuple, TableEntry]] = (
            {} if all(kind == "exact" for _, kind in self.keys) else None
        )
        for entry in entries or ():
            self.add_entry(entry)

    def add_entry(self, entry: TableEntry, replace: bool = False) -> None:
        """Install *entry*, last; with *replace*, in place of every entry
        with its match (an exact table finds them in :attr:`index`)."""
        if len(entry.match) != len(self.keys):
            raise PisaError(
                f"table {self.name}: malformed entry {entry!r}: "
                f"{len(entry.match)} match fields for {len(self.keys)} keys"
            )
        for (ref, kind), pattern in zip(self.keys, entry.match):
            pair = kind == "ternary" and isinstance(pattern, tuple) and len(pattern) == 2
            if not all(isinstance(v, int) for v in (pattern if pair else (pattern,))):
                raise PisaError(
                    f"table {self.name}: malformed entry {entry!r}: "
                    f"bad pattern for {kind} key {ref}"
                )
        if replace and (self.index is None or tuple(entry.match) in self.index):
            self.remove_entries(lambda e: e.match == entry.match)
        if len(self.entries) >= self.size:
            raise PisaError(f"table {self.name} full ({self.size} entries)")
        self.entries.append(entry)
        self._index(entry)

    def remove_entries(self, predicate) -> int:
        before = len(self.entries)
        self.entries = [e for e in self.entries if not predicate(e)]
        if self.index is not None and len(self.entries) != before:
            self.index.clear()
            for entry in self.entries:
                self._index(entry)
        return before - len(self.entries)

    def _index(self, entry: TableEntry) -> None:
        if self.index is not None:
            key = tuple(entry.match)
            held = self.index.get(key)
            if held is None or entry.priority > held.priority:
                self.index[key] = entry

    def __repr__(self) -> str:
        return f"Table({self.name}, keys={self.keys}, {len(self.entries)} entries)"


class RegisterArray:
    def __init__(self, name: str, bits: int, size: int, signed: bool = False):
        if size <= 0:
            raise PisaError(f"register {name}: size must be positive")
        self.name = name
        self.bits = bits
        self.size = size
        self.signed = signed

    @property
    def byte_size(self) -> int:
        return (self.bits // 8) * self.size

    def __repr__(self) -> str:
        return f"RegisterArray({self.name}, {self.bits}b x {self.size})"


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


class ParseState:
    """Extract ``extracts`` headers, then branch on a field value."""

    def __init__(
        self,
        name: str,
        extracts: Sequence[str] = (),
        select_field: Optional[str] = None,
        transitions: Sequence[Tuple[int, str]] = (),
        default_next: str = "accept",
    ):
        self.name = name
        self.extracts = list(extracts)
        self.select_field = select_field
        self.transitions = list(transitions)
        self.default_next = default_next

    def __repr__(self) -> str:
        return f"ParseState({self.name} -> {self.default_next})"


# ---------------------------------------------------------------------------
# Control flow
# ---------------------------------------------------------------------------


class ControlNode:
    pass


class Apply(ControlNode):
    __slots__ = ("table",)

    def __init__(self, table: str):
        self.table = table

    def __repr__(self) -> str:
        return f"{self.table}.apply()"


class Do(ControlNode):
    """Direct action invocation (no table)."""

    __slots__ = ("action",)

    def __init__(self, action: str):
        self.action = action

    def __repr__(self) -> str:
        return f"{self.action}()"


class IfNode(ControlNode):
    def __init__(
        self,
        cond: PExpr,
        then_nodes: Sequence[ControlNode],
        else_nodes: Sequence[ControlNode] = (),
    ):
        self.cond = cond
        self.then_nodes = list(then_nodes)
        self.else_nodes = list(else_nodes)

    def __repr__(self) -> str:
        return f"if ({self.cond!r}) {{...{len(self.then_nodes)}}} else {{...{len(self.else_nodes)}}}"


# ---------------------------------------------------------------------------
# Program
# ---------------------------------------------------------------------------

#: Well-known metadata fields every generated program has.
META_FWD = "meta.fwd"  # 0 pass / 1 drop / 2 bcast / 3 reflect
META_FWD_LABEL = "meta.fwd_label"  # AND node id for _pass(label); 0xFFFF none

FWD_PASS = 0
FWD_DROP = 1
FWD_BCAST = 2
FWD_REFLECT = 3
NO_LABEL = 0xFFFF


class P4Program:
    def __init__(self, name: str):
        self.name = name
        self.headers: Dict[str, HeaderType] = {}
        #: instance name -> header type name (e.g. "eth" -> "ethernet_t")
        self.instances: Dict[str, str] = {}
        self.metadata: Dict[str, int] = {  # field name (no "meta.") -> bits
            "fwd": 8,
            "fwd_label": 16,
        }
        self.parser: List[ParseState] = []
        self.actions: Dict[str, Action] = {}
        self.tables: Dict[str, Table] = {}
        self.registers: Dict[str, RegisterArray] = {}
        self.control: List[ControlNode] = []
        self.deparser: List[str] = []  # instance names, emit order

    # -- construction helpers ------------------------------------------------

    def add_header(self, htype: HeaderType, instance: str) -> None:
        self.headers[htype.name] = htype
        if instance in self.instances:
            raise PisaError(f"duplicate header instance {instance!r}")
        self.instances[instance] = htype.name

    def add_metadata(self, name: str, bits: int) -> str:
        if name in self.metadata and self.metadata[name] != bits:
            raise PisaError(f"metadata field {name!r} redefined with new width")
        self.metadata[name] = bits
        return f"meta.{name}"

    def add_action(self, action: Action) -> Action:
        if action.name in self.actions:
            raise PisaError(f"duplicate action {action.name!r}")
        self.actions[action.name] = action
        return action

    def add_table(self, table: Table) -> Table:
        if table.name in self.tables:
            raise PisaError(f"duplicate table {table.name!r}")
        for action_name in table.actions + [table.default_action]:
            if action_name not in self.actions:
                raise PisaError(
                    f"table {table.name}: unknown action {action_name!r}"
                )
        self.tables[table.name] = table
        return table

    def add_register(self, reg: RegisterArray) -> RegisterArray:
        if reg.name in self.registers:
            raise PisaError(f"duplicate register {reg.name!r}")
        self.registers[reg.name] = reg
        return reg

    # -- introspection -------------------------------------------------------

    def instance_type(self, instance: str) -> HeaderType:
        if instance not in self.instances:
            raise PisaError(f"unknown header instance {instance!r}")
        return self.headers[self.instances[instance]]

    def field_bits(self, ref: str) -> int:
        container, _, field = ref.partition(".")
        if not field:
            raise PisaError(f"malformed field reference {ref!r}")
        if container == "meta":
            if field not in self.metadata:
                raise PisaError(f"unknown metadata field {ref!r}")
            return self.metadata[field]
        return self.instance_type(container).field(field).bits

    def phv_bits(self) -> int:
        """Total PHV budget consumed: all header instances + metadata."""
        total = sum(
            self.instance_type(inst).bit_width for inst in self.instances
        )
        total += sum(self.metadata.values())
        return total

    def validate(self) -> None:
        """Structural validation (references resolve, parser states exist)."""
        state_names = {s.name for s in self.parser} | {"accept", "reject"}
        for state in self.parser:
            for inst in state.extracts:
                self.instance_type(inst)
            for _, nxt in state.transitions:
                if nxt not in state_names:
                    raise PisaError(f"parser: unknown state {nxt!r}")
            if state.default_next not in state_names:
                raise PisaError(f"parser: unknown state {state.default_next!r}")
        for table in self.tables.values():
            for ref, _ in table.keys:
                self.field_bits(ref)
        for inst in self.deparser:
            self.instance_type(inst)
        self._validate_control(self.control)

    def _validate_control(self, nodes: Sequence[ControlNode]) -> None:
        for node in nodes:
            if isinstance(node, Apply):
                if node.table not in self.tables:
                    raise PisaError(f"control: unknown table {node.table!r}")
            elif isinstance(node, Do):
                if node.action not in self.actions:
                    raise PisaError(f"control: unknown action {node.action!r}")
            elif isinstance(node, IfNode):
                self._validate_control(node.then_nodes)
                self._validate_control(node.else_nodes)
            else:
                raise PisaError(f"unknown control node {node!r}")

    def __repr__(self) -> str:
        return (
            f"P4Program({self.name}: {len(self.tables)} tables, "
            f"{len(self.actions)} actions, {len(self.registers)} registers)"
        )
