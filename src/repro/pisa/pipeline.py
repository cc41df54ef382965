"""The match-action pipeline executor.

Executes a :class:`P4Program`'s control block over a PHV, bmv2-style:
expressions are evaluated by the ALU model with fixed-width wrapping,
tables match exact/ternary keys, actions run primitives in order, and
register arrays provide stateful memory. Collects per-table/per-action
statistics for the benchmarks.

Actions and control are not walked per packet: :mod:`repro.pisa.pygen`
lowers them to Python functions over the PHV's slots once, when the
:class:`Pipeline` is built. Table *entries* stay data and may change at
any time: an all-exact table is looked up in the index its
:class:`~repro.p4.model.Table` keeps, a table with a ternary key by
priority scan. The reference semantics is the tree-walking pipeline this
module used to hold, now the test oracle ``tests/pisa_oracle.py``.
"""

from __future__ import annotations

import copy
from typing import Dict, List, Optional, Sequence

from repro.errors import PisaError
from repro.p4.model import P4Program, Table, TableEntry
from repro.pisa.phv import Phv, PhvLayout
from repro.pisa.pygen import lower_program
from repro.util import intops


class RegisterState:
    """Backing store for all register arrays of one program instance."""

    def __init__(self, program: P4Program):
        self.program = program
        self.arrays: Dict[str, List[int]] = {}
        for name, reg in program.registers.items():
            initial = getattr(reg, "initial", None)
            values = [0] * reg.size
            if initial:
                for i, v in enumerate(initial[: reg.size]):
                    values[i] = intops.wrap_unsigned(int(v), reg.bits)
            self.arrays[name] = values

    def read(self, name: str, index: int) -> int:
        array = self._array(name, index)
        return array[index]

    def write(self, name: str, index: int, value: int) -> None:
        array = self._array(name, index)
        reg = self.program.registers[name]
        array[index] = intops.wrap_unsigned(int(value), reg.bits)

    def _array(self, name: str, index: int) -> List[int]:
        if name not in self.arrays:
            raise PisaError(f"unknown register array {name!r}")
        array = self.arrays[name]
        if not 0 <= index < len(array):
            raise PisaError(
                f"register {name}: index {index} out of range [0, {len(array)})"
            )
        return array


class PipelineStats:
    def __init__(self) -> None:
        self.packets = 0
        self.table_hits: Dict[str, int] = {}
        self.table_misses: Dict[str, int] = {}
        self.action_runs: Dict[str, int] = {}
        self.register_reads = 0
        self.register_writes = 0

    def as_dict(self) -> Dict[str, object]:
        return {
            "packets": self.packets,
            "table_hits": dict(self.table_hits),
            "table_misses": dict(self.table_misses),
            "action_runs": dict(self.action_runs),
            "register_reads": self.register_reads,
            "register_writes": self.register_writes,
        }


class Pipeline:
    def __init__(self, program: P4Program):
        self.program = program
        self.registers = RegisterState(program)
        #: its own tables: copies of the program's, const entries too
        self.tables = copy.deepcopy(program.tables)
        self.stats = PipelineStats()
        #: per-packet trace observer (e.g. repro.obs.SwitchPacketTrace),
        #: set around one run() by the switch device; None -> no tracing
        self.observer = None
        #: tables matched (hit) by the most recent run() -- the per-hop
        #: "tables" field of an INT record (repro.obs.int)
        self.last_tables_matched = 0
        #: which PHV slot is which field, as the lowered code numbers them
        self.layout = PhvLayout.of(program)
        #: the program lowered to Python: actions by name, control, each
        #: table with the function building its key, source
        self._actions, self._control, self._tables, self.source = lower_program(
            program, self.layout, self.stats, self.registers.arrays, self.tables
        )

    # -- actions ---------------------------------------------------------------

    def run_action(self, name: str, phv: Phv, args: Sequence[int] = ()) -> None:
        action = self._actions.get(name)
        if action is None:
            raise PisaError(f"unknown action {name!r}")
        if phv.layout is not self.layout:
            self.layout.require(phv.layout)
        action(phv.slots, args)

    # -- tables ------------------------------------------------------------------

    def apply_table(self, name: str, phv: Phv) -> bool:
        """Apply a table; returns True on hit."""
        lowered = self._tables.get(name)
        if lowered is None:
            raise PisaError(f"unknown table {name!r}")
        table, key_of = lowered
        if phv.layout is not self.layout:
            self.layout.require(phv.layout)
        slots = phv.slots
        key = key_of(slots)
        index = table.index
        entry = index.get(key) if index is not None else self._match(table, key)
        stats = self.stats
        hit = entry is not None
        if hit:
            stats.table_hits[name] = stats.table_hits.get(name, 0) + 1
            self.last_tables_matched += 1
            action_name, args = entry.action, entry.args
        else:
            stats.table_misses[name] = stats.table_misses.get(name, 0) + 1
            action_name, args = table.default_action, table.default_args
        if self.observer is not None:
            self.observer.table(name, hit, action_name)
        action = self._actions.get(action_name)
        if action is None:
            raise PisaError(f"unknown action {action_name!r}")
        action(slots, args)
        return hit

    @staticmethod
    def _match(table: Table, key: Sequence[int]) -> Optional[TableEntry]:
        """The priority scan, for a table with a ternary key (an
        all-exact table is looked up in ``Table.index``)."""
        best: Optional[TableEntry] = None
        kinds = [kind for _, kind in table.keys]
        for entry in table.entries:
            for kind, pattern, value in zip(kinds, entry.match, key):
                if kind == "exact":
                    if pattern != value:
                        break
                else:
                    pvalue, pmask = pattern if isinstance(pattern, tuple) else (pattern, -1)
                    if (value & pmask) != (pvalue & pmask):
                        break
            else:
                if best is None or entry.priority > best.priority:
                    best = entry
        return best

    # -- control -------------------------------------------------------------------

    def run(self, phv: Phv) -> None:
        if phv.layout is not self.layout:
            self.layout.require(phv.layout)
        self.stats.packets += 1
        self.last_tables_matched = 0
        self._control(self, phv)
