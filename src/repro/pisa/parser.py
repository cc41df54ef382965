"""The programmable packet parser and deparser.

Bit-accurate: header fields are extracted most-significant-bit first from
the byte stream (network order), exactly as a PISA parser TCAM would, and
the deparser re-serializes every valid header followed by any unparsed
payload bytes. Both are lowered to Python over the PHV's slots when they
are built (:mod:`repro.pisa.pygen`); a packet costs one call of each.
"""

from __future__ import annotations

from repro.p4.model import P4Program
from repro.pisa.phv import Phv, PhvLayout
from repro.pisa.pygen import lower_deparser, lower_parser


class PacketParser:
    """Executes the program's parse graph over raw bytes into a PHV."""

    def __init__(self, program: P4Program):
        self.program = program
        self.layout = PhvLayout.of(program)
        #: the parse graph lowered to ``parse(data) -> (slots, rest)``
        self._parse, self.source = lower_parser(program, self.layout)

    def parse(self, data: bytes) -> Phv:
        phv = Phv.__new__(Phv)
        phv.layout = self.layout
        phv.slots, phv.payload_rest = self._parse(data)
        phv.ingress_port = 0
        return phv


class Deparser:
    """Re-serializes valid headers (program deparser order) + payload."""

    def __init__(self, program: P4Program):
        self.program = program
        self.layout = PhvLayout.of(program)
        #: the emit order lowered to ``deparse(slots, rest) -> bytes``
        self._deparse, self.source = lower_deparser(program, self.layout)

    def deparse(self, phv: Phv) -> bytes:
        if phv.layout is not self.layout:
            self.layout.require(phv.layout)
        return self._deparse(phv.slots, phv.payload_rest)
