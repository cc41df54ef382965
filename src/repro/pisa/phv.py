"""The Packet Header Vector (PHV).

The PHV is PISA's per-packet working set (Fig 1a): all extracted header
fields plus user/architecture metadata. Fields are addressed with dotted
references (``"ncp.seq"``, ``"meta.v7"``); header instances carry a
validity bit, and bytes beyond the parsed headers ride along untouched
(the unparsed payload).
"""

from __future__ import annotations

from typing import Dict

from repro.errors import PisaError
from repro.p4.model import P4Program
from repro.util import intops


class Phv:
    def __init__(self, program: P4Program):
        self.program = program
        self.fields: Dict[str, int] = {}
        self.valid: Dict[str, bool] = {inst: False for inst in program.instances}
        self.payload_rest: bytes = b""
        # Architecture metadata.
        self.ingress_port: int = 0
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

    def clone(self) -> "Phv":
        new = Phv.__new__(Phv)
        new.program = self.program
        new.fields = dict(self.fields)
        new.valid = dict(self.valid)
        new.payload_rest = self.payload_rest
        new.ingress_port = self.ingress_port
        return new
