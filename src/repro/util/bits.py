"""Compiled field layouts: bit-level packing (network order, MSB first).

A ``(name, bits)`` list is compiled once into a :class:`FieldLayout`:
one wide read plus a shift and mask per field, or one ``struct`` call
where every field is 8/16/32/64 bits wide.  The NCP wire codec,
fragments, INT trailers and the PISA parser/deparser all run on it, so
every side agrees on layout by construction.
"""

from __future__ import annotations

import struct
from typing import Dict, List, Mapping, Sequence, Tuple

from repro.errors import ReproError

#: widths ``struct`` moves; a layout of only these costs one C call,
#: linear in its size (the big-int path shifts the whole word per field)
_CODES = {8: "B", 16: "H", 32: "I", 64: "Q"}


class FieldLayout:
    """A fixed, byte-aligned run of ``(name, bits[, signed])`` fields.

    Packing reduces each value modulo ``2**bits`` (``intops.to_unsigned``);
    unpacking yields unsigned values, and a ``signed`` field's
    two's-complement value (``intops.wrap``).
    """

    def __init__(self, fields: Sequence[Sequence]):
        self.fields: List[Tuple[str, int]] = [(f[0], f[1]) for f in fields]
        self.names = tuple(name for name, _ in self.fields)
        total = sum(bits for _, bits in self.fields)
        if total % 8 != 0 or any(bits <= 0 for _, bits in self.fields):
            raise ReproError(
                f"layout of {total} bits: widths must be positive and the "
                f"total byte-aligned"
            )
        self.nbytes = total // 8
        #: per field: (shift, mask, sign bit or 0)
        self._plan: List[Tuple[int, int, int]] = []
        shift = total
        for f in fields:
            shift -= f[1]
            sign = 1 << (f[1] - 1) if len(f) > 2 and f[2] else 0
            self._plan.append((shift, (1 << f[1]) - 1, sign))
        #: ``struct`` codec of the fields read as unsigned, where there is
        #: one. Public for callers that have already checked the buffer
        #: length and hold only in-range unsigned values (the generated
        #: PISA parser and deparser): ``unsigned.unpack_from(data, pos)``,
        #: ``unsigned.pack(*values)``.
        self.unsigned = None
        self._struct = None
        if all(bits in _CODES for _, bits in self.fields):
            codes = [_CODES[bits] for _, bits in self.fields]
            self.unsigned = struct.Struct(">" + "".join(codes))
            self._struct = struct.Struct(
                ">" + "".join(c.lower() if p[2] else c for c, p in zip(codes, self._plan))
            )

    def offset(self, name: str) -> int:
        """Byte offset of a (byte-aligned) field from the layout start."""
        bit = 0
        for field, bits in self.fields:
            if field == name:
                if bit % 8 != 0:
                    raise ReproError(f"field {name!r} is not byte-aligned")
                return bit // 8
            bit += bits
        raise ReproError(f"layout has no field {name!r}")

    def reader(self, *names: str) -> struct.Struct:
        """A ``struct.Struct`` reading just the named fields (given in
        layout order, each byte-aligned and 8/16/32/64 bits wide) from
        the front of a buffer; its ``size`` ends at the last of them."""
        widths = dict(self.fields)
        fmt, pos = ">", 0
        for name in names:
            start, bits = self.offset(name), widths[name]
            if start < pos or bits not in _CODES:
                raise ReproError(f"field {name!r}: no fixed-offset read ({bits} bits)")
            fmt += f"{start - pos}x{_CODES[bits]}"
            pos = start + bits // 8
        return struct.Struct(fmt)

    def paired(self) -> struct.Struct:
        """The layout as one ``struct`` call for a caller that moves each
        48-bit field as a 16+32 pair of slots (high half, low half) and
        every other field, 8/16/32/64 bits wide, as one.  Unsigned and
        unchecked like :attr:`unsigned`: the caller masks what it packs."""
        try:
            codes = ["HI" if bits == 48 else _CODES[bits] for _, bits in self.fields]
        except KeyError as width:
            raise ReproError(f"no struct slot for a {width}-bit field") from None
        return struct.Struct(">" + "".join(codes))

    def unpack_seq(self, data: bytes, offset: int = 0) -> Sequence[int]:
        """Field values, in layout order, read at ``data[offset:]``."""
        end = offset + self.nbytes
        if len(data) < end:
            raise ReproError(
                f"buffer too short: need {self.nbytes} bytes at offset "
                f"{offset}, have {max(len(data) - offset, 0)}"
            )
        if self._struct is not None:
            return self._struct.unpack_from(data, offset)
        word = int.from_bytes(data[offset:end], "big")
        return [
            v - (sign << 1) if (v := (word >> shift) & mask) & sign else v
            for shift, mask, sign in self._plan
        ]

    def unpack(self, data: bytes, offset: int = 0) -> Dict[str, int]:
        return dict(zip(self.names, self.unpack_seq(data, offset)))

    def pack_seq(self, values: Sequence[int]) -> bytes:
        """Serialize one value per field, in layout order."""
        if len(values) != len(self._plan):
            raise ReproError(f"{len(values)} values for {len(self._plan)} fields")
        if self._struct is not None:
            try:
                return self._struct.pack(*values)
            except struct.error:  # a value outside its field's range: wrap
                return self.unsigned.pack(
                    *[int(v) & p[1] for v, p in zip(values, self._plan)]
                )
        word = 0
        for v, (shift, mask, _) in zip(values, self._plan):
            word |= (int(v) & mask) << shift
        return word.to_bytes(self.nbytes, "big")

    # -- source emitters ----------------------------------------------------
    #
    # For code generated once per layout (the PISA parser and deparser):
    # the shift-and-mask plan as literals, with no call, no length check
    # and no wrapping in between. Unsigned fields only; the caller has
    # checked the buffer and holds in-range values. ``tests/test_bits.py``
    # eval()s both against ``unpack_seq`` / ``pack_seq``.

    def unpack_src(self, word: str) -> str:
        """Source of the tuple :meth:`unpack_seq` yields, given the
        source of the layout's bytes as one big-endian int. Uses the
        scratch name ``_w``."""
        if any(sign for _, _, sign in self._plan):
            raise ReproError("unpack_src: layout has a signed field")
        top, rest = self._plan[0], self._plan[1:]
        fields = [f"(_w := {word}) >> {top[0]}"] + [
            f"_w >> {shift} & {mask:#x}" if shift else f"_w & {mask:#x}"
            for shift, mask, _ in rest
        ]
        return f"({', '.join(fields)},)"

    def pack_src(self, values: Sequence[str]) -> str:
        """Source of the bytes :meth:`pack_seq` yields for *values*, the
        sources of one in-range unsigned int per field."""
        if len(values) != len(self._plan):
            raise ReproError(f"{len(values)} values for {len(self._plan)} fields")
        word = " | ".join(
            f"{value} << {shift}" if shift else value
            for value, (shift, _, _) in zip(values, self._plan)
        )
        return f"({word}).to_bytes({self.nbytes}, 'big')"

    def pack(self, values: Mapping[str, int]) -> bytes:
        """Serialize ``values`` by field name; a missing field packs 0."""
        return self.pack_seq([values.get(name, 0) for name in self.names])
