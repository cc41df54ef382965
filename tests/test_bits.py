"""Bit-level packing (repro.util.bits) -- the wire/PHV substrate."""

import pytest
from hypothesis import given, strategies as st

from repro.errors import ReproError
from repro.util.bits import BitReader, BitWriter, FieldLayout, pack_fields, unpack_fields


class TestBitWriter:
    def test_single_byte(self):
        w = BitWriter()
        w.write(0xAB, 8)
        assert w.to_bytes() == b"\xab"

    def test_msb_first(self):
        w = BitWriter()
        w.write(1, 1)
        w.write(0, 7)
        assert w.to_bytes() == b"\x80"

    def test_multi_field_packing(self):
        w = BitWriter()
        w.write(0x4, 4)  # 0100
        w.write(0x5, 4)  # 0101
        assert w.to_bytes() == b"\x45"

    def test_non_byte_aligned_raises(self):
        w = BitWriter()
        w.write(1, 3)
        with pytest.raises(ReproError):
            w.to_bytes()

    def test_values_truncated_to_width(self):
        w = BitWriter()
        w.write(0x1FF, 8)  # only low 8 bits
        assert w.to_bytes() == b"\xff"


class TestBitReader:
    def test_reads_msb_first(self):
        r = BitReader(b"\x80")
        assert r.read(1) == 1
        assert r.read(7) == 0

    def test_cross_byte_field(self):
        r = BitReader(b"\x12\x34")
        assert r.read(16) == 0x1234

    def test_underflow_raises(self):
        r = BitReader(b"\x00")
        with pytest.raises(ReproError):
            r.read(9)

    def test_rest_returns_remaining_bytes(self):
        r = BitReader(b"\xaa\xbb\xcc")
        r.read(8)
        assert r.rest() == b"\xbb\xcc"

    def test_rest_mid_byte_raises(self):
        r = BitReader(b"\xaa\xbb")
        r.read(4)
        with pytest.raises(ReproError):
            r.rest()


FIELD_LAYOUTS = st.lists(
    st.tuples(
        st.text(alphabet="abcdefgh", min_size=1, max_size=4),
        st.sampled_from([8, 16, 24, 32, 48, 64]),
    ),
    min_size=1,
    max_size=6,
    unique_by=lambda t: t[0],
)


class TestFieldPacking:
    @given(FIELD_LAYOUTS, st.data())
    def test_pack_unpack_roundtrip(self, layout, data):
        values = {
            name: data.draw(st.integers(min_value=0, max_value=(1 << bits) - 1))
            for name, bits in layout
        }
        packed = pack_fields(layout, values)
        assert len(packed) == sum(b for _, b in layout) // 8
        unpacked, rest = unpack_fields(layout, packed)
        assert rest == b""
        assert unpacked == values

    def test_missing_values_default_zero(self):
        packed = pack_fields([("a", 8), ("b", 8)], {"a": 7})
        assert packed == b"\x07\x00"

    def test_unpack_leaves_tail(self):
        values, rest = unpack_fields([("a", 8)], b"\x01\x02\x03")
        assert values == {"a": 1}
        assert rest == b"\x02\x03"

    @given(st.binary(min_size=2, max_size=64))
    def test_writer_reader_inverse_on_bytes(self, blob):
        w = BitWriter()
        for byte in blob:
            w.write(byte, 8)
        assert w.to_bytes() == blob


class TestSourceEmitters:
    """``unpack_src`` / ``pack_src`` spell the layout's shifts and masks
    as literals for generated code; eval()ed, they are ``unpack_seq`` /
    ``pack_seq`` on in-range unsigned values."""

    @given(
        st.lists(st.integers(1, 70), min_size=1, max_size=7).filter(lambda w: sum(w) % 8 == 0),
        st.data(),
    )
    def test_eval_equals_runtime(self, widths, data):
        layout = FieldLayout([(f"f{i}", bits) for i, bits in enumerate(widths)])
        values = [data.draw(st.integers(0, (1 << bits) - 1)) for bits in widths]
        packed = layout.pack_seq(values)
        names = [f"v{i}" for i in range(len(values))]
        assert eval(layout.pack_src(names), dict(zip(names, values))) == packed
        word = int.from_bytes(packed, "big")
        assert eval(layout.unpack_src("word"), {"word": word}) == tuple(values)

    def test_signed_layouts_are_refused(self):
        with pytest.raises(ReproError, match="signed"):
            FieldLayout([("a", 8, True)]).unpack_src("w")
