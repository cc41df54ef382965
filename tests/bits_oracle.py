"""The reference bit codec: one bit per loop iteration, MSB first.

This is the reader/writer ``repro.util.bits`` shipped before it became a
compiled field layout. It is kept here, unoptimized, as the oracle the
compiled codec is compared against (tests/test_wire_codec.py).
"""

from __future__ import annotations

from typing import List, Sequence, Tuple


class BitReader:
    def __init__(self, data: bytes):
        self.data = data
        self.bitpos = 0

    def read(self, nbits: int) -> int:
        assert nbits <= len(self.data) * 8 - self.bitpos, "buffer too short"
        value = 0
        for _ in range(nbits):
            byte = self.data[self.bitpos // 8]
            bit = (byte >> (7 - (self.bitpos % 8))) & 1
            value = (value << 1) | bit
            self.bitpos += 1
        return value

    def rest(self) -> bytes:
        assert self.bitpos % 8 == 0, "read stopped mid-byte"
        return self.data[self.bitpos // 8 :]


class BitWriter:
    def __init__(self) -> None:
        self._bits: List[int] = []

    def write(self, value: int, nbits: int) -> None:
        for shift in range(nbits - 1, -1, -1):
            self._bits.append((value >> shift) & 1)

    def to_bytes(self) -> bytes:
        assert len(self._bits) % 8 == 0, "non-byte-aligned bit stream"
        out = bytearray()
        for i in range(0, len(self._bits), 8):
            byte = 0
            for bit in self._bits[i : i + 8]:
                byte = (byte << 1) | bit
            out.append(byte)
        return bytes(out)


def pack_fields(fields: Sequence[Tuple[str, int]], values: dict) -> bytes:
    writer = BitWriter()
    for name, bits in fields:
        writer.write(int(values.get(name, 0)) & ((1 << bits) - 1), bits)
    return writer.to_bytes()


def unpack_fields(fields: Sequence[Tuple[str, int]], data: bytes) -> Tuple[dict, bytes]:
    reader = BitReader(data)
    values = {name: reader.read(bits) for name, bits in fields}
    return values, reader.rest()
