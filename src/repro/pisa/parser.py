"""The programmable packet parser and deparser.

Bit-accurate: header fields are extracted most-significant-bit first from
the byte stream (network order), exactly as a PISA parser TCAM would, and
the deparser re-serializes every valid header followed by any unparsed
payload bytes.
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.errors import PisaError
from repro.p4.model import P4Program
from repro.pisa.phv import Phv
from repro.util.bits import FieldLayout


def _header_plan(program: P4Program, instance: str) -> Tuple[str, tuple, FieldLayout]:
    """One header instance, compiled: (instance, PHV keys, layout)."""
    layout = FieldLayout(
        [(f.name, f.bits) for f in program.instance_type(instance).fields]
    )
    return instance, tuple(f"{instance}.{name}" for name in layout.names), layout


class PacketParser:
    """Executes the program's parse graph over raw bytes into a PHV.

    The graph is compiled at construction, so a packet costs one wide
    read per header and no per-field lookups in the program.
    """

    MAX_STATES = 64  # guards against parse-graph cycles

    def __init__(self, program: P4Program):
        self.program = program
        #: every packet's PHV starts as a copy of this blank one
        self._blank = Phv(program)
        #: name -> (extract plans, select field, {value: target}, default)
        self._states: Dict[str, tuple] = {
            s.name: (
                [_header_plan(program, inst) for inst in s.extracts],
                s.select_field,
                dict(reversed(s.transitions)),  # the first match wins
                s.default_next,
            )
            for s in program.parser
        }
        if program.parser and "start" not in self._states:
            raise PisaError("parse graph has no 'start' state")

    def parse(self, data: bytes) -> Phv:
        phv = self._blank.clone()
        if not self._states:
            phv.payload_rest = data
            return phv
        fields, valid = phv.fields, phv.valid
        pos = steps = 0
        state = self._states["start"]
        while True:
            steps += 1
            if steps > self.MAX_STATES:
                raise PisaError("parse graph did not terminate")
            extracts, select_field, targets, next_name = state
            for instance, keys, layout in extracts:
                if len(data) - pos < layout.nbytes:
                    raise PisaError(
                        f"packet too short for header {instance!r}: need "
                        f"{layout.nbytes * 8} bits, have {(len(data) - pos) * 8}"
                    )
                valid[instance] = True
                fields.update(zip(keys, layout.unpack_seq(data, pos)))
                pos += layout.nbytes
            if select_field is not None:
                next_name = targets.get(phv.read(select_field), next_name)
            if next_name == "accept":
                break
            if next_name == "reject":
                raise PisaError("parser rejected packet")
            state = self._states.get(next_name)
            if state is None:
                raise PisaError(f"parser: unknown state {next_name!r}")
        phv.payload_rest = data[pos:]
        return phv


class Deparser:
    """Re-serializes valid headers (program deparser order) + payload."""

    def __init__(self, program: P4Program):
        self.program = program
        self._plans = [_header_plan(program, inst) for inst in program.deparser]

    def deparse(self, phv: Phv) -> bytes:
        read, valid = phv.fields.__getitem__, phv.valid
        parts = [
            layout.pack_seq(list(map(read, keys)))
            for instance, keys, layout in self._plans
            if valid.get(instance)
        ]
        parts.append(phv.payload_rest)
        return b"".join(parts)
