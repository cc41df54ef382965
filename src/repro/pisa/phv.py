"""The Packet Header Vector (PHV).

The PHV is PISA's per-packet working set (Fig 1a): all extracted header
fields plus user/architecture metadata. A packet's PHV is one flat list
of slots whose layout a :class:`PhvLayout` fixes per program::

    [ metadata ... | every header instance's fields ... | one validity bit per instance ]

The generated parser, actions, control and deparser (:mod:`repro.pisa.pygen`)
address it by slot number; :class:`Phv` keeps the dotted-name interface
(``"ncp.seq"``, ``"meta.v7"``) over the layout's name -> slot map for the
control plane and tests. Bytes beyond the parsed headers ride along
untouched (the unparsed payload).
"""

from __future__ import annotations

from functools import lru_cache
from typing import Dict, List, Tuple

from repro.errors import PisaError
from repro.p4.model import P4Program


class Absent:
    """What the slot of a header field holds until the header is
    extracted (or the field written). Generated code reads a header field
    as ``+S[k]``: nothing to an int, and on this the error a read of a
    never-extracted field has always raised, at the point of the read."""

    __slots__ = ("ref",)

    def __init__(self, ref: str):
        self.ref = ref

    def __pos__(self):
        raise PisaError(f"read of field {self.ref!r} in invalid header")

    def __repr__(self) -> str:
        return f"<absent {self.ref}>"


class PhvLayout:
    """The slot map of one program: which slot holds which field.

    A pure function of the program's metadata and header instances, so
    :meth:`of` hands every parser, pipeline, deparser and hand-built PHV
    of the same program the same object.
    """

    def __init__(self, metadata: Tuple, headers: Tuple):
        #: dotted field reference -> slot
        self.slots: Dict[str, int] = {}
        #: slot -> all-ones mask of the field's width (what a write keeps)
        self.masks: List[int] = []
        #: header instance -> (first slot, end slot) of its fields
        self.headers: Dict[str, Tuple[int, int]] = {}
        #: header instance -> slot of its validity bit
        self.valid: Dict[str, int] = {}
        #: the PHV of a packet nothing was extracted from; never mutated
        self.blank: List[object] = []
        for name, bits in metadata:
            self._add(f"meta.{name}", bits, 0)
        self.n_meta = len(self.blank)
        for instance, fields in headers:
            start = len(self.blank)
            for name, bits in fields:
                ref = f"{instance}.{name}"
                self._add(ref, bits, Absent(ref))
            self.headers[instance] = (start, len(self.blank))
        for instance, _ in headers:
            self.valid[instance] = len(self.blank)
            self.blank.append(0)

    def _add(self, ref: str, bits: int, initial: object) -> None:
        self.slots[ref] = len(self.blank)
        self.masks.append((1 << bits) - 1)
        self.blank.append(initial)

    @classmethod
    def of(cls, program: P4Program) -> "PhvLayout":
        return _layout(
            tuple(program.metadata.items()),
            tuple(
                (inst, tuple((f.name, f.bits) for f in program.instance_type(inst).fields))
                for inst in program.instances
            ),
        )

    def require(self, other: "PhvLayout") -> None:
        """A PHV laid out by *other* is about to be addressed by this
        layout's slot numbers: refuse unless the two agree."""
        if other.slots != self.slots or other.valid != self.valid:
            raise PisaError(
                "PHV was laid out for a different program (metadata or "
                "headers changed since it was built)"
            )


_layout = lru_cache(maxsize=128)(PhvLayout)


class Phv:
    __slots__ = ("layout", "slots", "payload_rest", "ingress_port")

    def __init__(self, program: P4Program):
        self.layout = PhvLayout.of(program)
        self.slots: List[object] = self.layout.blank[:]
        self.payload_rest: bytes = b""
        # Architecture metadata.
        self.ingress_port: int = 0

    def set_valid(self, instance: str, valid: bool = True) -> None:
        slot = self.layout.valid.get(instance)
        if slot is None:
            raise PisaError(f"unknown header instance {instance!r}")
        slots = self.slots
        slots[slot] = int(valid)
        if valid:
            for k in range(*self.layout.headers[instance]):
                if type(slots[k]) is Absent:
                    slots[k] = 0

    def is_valid(self, instance: str) -> bool:
        slot = self.layout.valid.get(instance)
        return slot is not None and bool(self.slots[slot])

    def read(self, ref: str) -> int:
        if ref.startswith("valid."):
            return int(self.is_valid(ref.split(".", 1)[1]))
        slot = self.layout.slots.get(ref)
        if slot is None:
            container = ref.split(".", 1)[0]
            if container != "meta" and not self.is_valid(container):
                raise PisaError(f"read of field {ref!r} in invalid header")
            raise PisaError(f"read of unknown field {ref!r}")
        return +self.slots[slot]

    def write(self, ref: str, value: int) -> None:
        slot = self.layout.slots.get(ref)
        if slot is None:
            raise PisaError(f"write of unknown field {ref!r}")
        self.slots[slot] = int(value) & self.layout.masks[slot]

    def as_dict(self) -> Dict[str, int]:
        """Every field that holds a value, by name."""
        slots = self.slots
        return {
            ref: slots[k]
            for ref, k in self.layout.slots.items()
            if type(slots[k]) is not Absent
        }

    def live_fields(self) -> int:
        """PHV occupancy: metadata plus the fields of valid headers."""
        layout, slots = self.layout, self.slots
        valid = layout.valid
        live = layout.n_meta
        for instance, (start, end) in layout.headers.items():
            if slots[valid[instance]]:
                live += end - start
        return live

    def clone(self) -> "Phv":
        new = Phv.__new__(Phv)
        new.layout = self.layout
        new.slots = self.slots[:]
        new.payload_rest = self.payload_rest
        new.ingress_port = self.ingress_port
        return new
