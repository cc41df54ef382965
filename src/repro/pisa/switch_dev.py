"""A complete PISA switch device: parser -> pipeline -> deparser, with a
control-plane interface.

This is the per-switch runtime object the network simulator hosts. It
owns its register state and its tables (both persist across packets)
and exposes the control-plane operations libncrt's controller uses:
writing ``_ctrl_`` registers, and inserting/removing ``ncl::Map`` and
routing entries.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.errors import PisaError
from repro.p4.model import (
    FWD_PASS,
    META_FWD,
    META_FWD_LABEL,
    NO_LABEL,
    P4Program,
    Table,
    TableEntry,
)
from repro.pisa.parser import Deparser, PacketParser
from repro.pisa.phv import Phv
from repro.pisa.pipeline import Pipeline, RegisterState

#: Forwarding verdict names, index-aligned with the META_FWD encoding.
FWD_NAMES = ("pass", "drop", "bcast", "reflect")


class SwitchResult:
    """Outcome of processing one packet."""

    __slots__ = ("verdict", "label_id", "phv", "tables_matched", "_deparser", "_data")

    def __init__(
        self,
        verdict: str,
        label_id: Optional[int],
        deparser: Deparser,
        phv: Phv,
        tables_matched: int = 0,
    ):
        self.verdict = verdict  # 'pass' | 'drop' | 'bcast' | 'reflect'
        self.label_id = label_id  # AND node id for labelled _pass, else None
        self.phv = phv
        #: tables hit during the pipeline run (stamped into INT records)
        self.tables_matched = tables_matched
        self._deparser = deparser
        self._data: Optional[bytes] = None

    @property
    def data(self) -> bytes:
        """The output packet, deparsed on first read: as on hardware, a
        packet the program drops never reaches the deparser."""
        data = self._data
        if data is None:
            data = self._data = self._deparser.deparse(self.phv)
        return data

    def __repr__(self) -> str:
        label = f"->{self.label_id}" if self.label_id is not None else ""
        return f"SwitchResult({self.verdict}{label}, {len(self.data)}B)"


class PisaSwitch:
    """A switch running *program* with registers and tables of its own:
    the program is never written, so switches built from one do not
    share entries."""

    def __init__(self, program: P4Program, name: str = "switch"):
        program.validate()
        self.name = name
        self.program = program
        self.pipeline = Pipeline(program)
        self.registers, self.tables = self.pipeline.registers, self.pipeline.tables
        self.parser = PacketParser(program)
        self.deparser = Deparser(program)
        #: the slot map all three were lowered against
        self.layout = self.pipeline.layout
        self._fwd = self.layout.slots[META_FWD]
        self._fwd_label = self.layout.slots[META_FWD_LABEL]

    # -- data plane -----------------------------------------------------------

    def process(
        self, data: bytes, ingress_port: int = 0, observer=None
    ) -> SwitchResult:
        if observer is not None:
            observer.parse(len(data))
        phv = self.parser.parse(data)
        phv.ingress_port = ingress_port
        slots = phv.slots
        slots[self._fwd] = FWD_PASS
        slots[self._fwd_label] = NO_LABEL
        pipeline = self.pipeline
        pipeline.observer = observer
        try:
            pipeline.run(phv)
        finally:
            pipeline.observer = None
        verdict_code = slots[self._fwd]
        if verdict_code >= len(FWD_NAMES):
            raise PisaError(f"corrupt forwarding decision {verdict_code}")
        label = slots[self._fwd_label]
        return SwitchResult(
            FWD_NAMES[verdict_code],
            None if label == NO_LABEL else label,
            self.deparser,
            phv,
            pipeline.last_tables_matched,
        )

    # -- control plane -----------------------------------------------------------

    def ctrl_register_write(
        self, register: str, value: int, index: int = 0
    ) -> None:
        """Control-plane write into a register array (``_ctrl_`` backing)."""
        self.registers.write(register, index, value)

    def ctrl_register_read(self, register: str, index: int = 0) -> int:
        return self.registers.read(register, index)

    def reset_registers(self) -> None:
        """Every register array back to its initial value, in place (the
        generated pipeline is bound to these lists); tables are kept."""
        fresh = RegisterState(self.program).arrays
        for name, values in self.registers.arrays.items():
            values[:] = fresh[name]

    def table_insert(
        self,
        table: str,
        match: Sequence,
        action: str,
        args: Sequence[int] = (),
        priority: int = 0,
    ) -> None:
        tbl = self._table(table)
        if action not in tbl.actions:
            raise PisaError(f"table {table}: action {action!r} not allowed")
        params = self.program.actions[action].params
        if len(args) != len(params):
            raise PisaError(
                f"table {table}: action {action} takes {len(params)} "
                f"args, entry gives {len(args)}"
            )
        tbl.add_entry(TableEntry(list(match), action, list(args), priority), replace=True)

    def table_delete(self, table: str, match: Sequence) -> int:
        return self._table(table).remove_entries(lambda e: list(e.match) == list(match))

    def table_entries(self, table: str) -> List[TableEntry]:
        return list(self._table(table).entries)

    def _table(self, name: str) -> Table:
        tbl = self.tables.get(name)
        if tbl is None:
            raise PisaError(f"unknown table {name!r}")
        return tbl

    @property
    def stats(self):
        return self.pipeline.stats
