"""Bit-level packing (repro.util.bits) -- the wire/PHV substrate."""

import pytest
from hypothesis import given, strategies as st

from repro.errors import ReproError
from repro.util.bits import FieldLayout


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
        compiled = FieldLayout(layout)
        packed = compiled.pack(values)
        assert len(packed) == compiled.nbytes == sum(b for _, b in layout) // 8
        assert compiled.unpack(packed) == values

    def test_missing_values_default_zero(self):
        packed = FieldLayout([("a", 8), ("b", 8)]).pack({"a": 7})
        assert packed == b"\x07\x00"

    def test_unpack_ignores_tail(self):
        layout = FieldLayout([("a", 8)])
        assert layout.unpack(b"\x01\x02\x03") == {"a": 1}
        assert layout.nbytes == 1


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
