"""The compiled wire codec against its oracle, and the three views of
one frame (peek_frame, decode_frame, the switch's PacketParser) against
each other."""

import json
import random
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import NcpError, ReproError
from repro.ncp.fragment import FRAG_KERNEL_BIT, fragment_frame
from repro.ncp.wire import (
    FLAG_INT,
    FLAG_LAST,
    HEADERS,
    HEADERS_LEN,
    IPV4_OFF,
    UDP_OFF,
    ChunkLayout,
    KernelLayout,
    decode_frame,
    encode_frame,
    node_ip,
    node_mac,
    peek_frame,
)
from repro.obs.int import IntConfig, attach_tail, stamp_hop
from repro.pisa.parser import Deparser, PacketParser
from repro.util import intops
from repro.util.bits import FieldLayout
from tests import bits_oracle


@st.composite
def layouts(draw):
    """Field widths 1-64, unaligned fields, byte-aligned total."""
    widths = draw(st.lists(st.integers(1, 64), min_size=1, max_size=12))
    pad = -sum(widths) % 8
    if pad:
        widths.append(pad)
    signed = [draw(st.booleans()) for _ in widths]
    return [(f"f{i}", w, s) for i, (w, s) in enumerate(zip(widths, signed))]


def edge_values(bits):
    """In-range, boundary, over-wide and negative inputs for one field."""
    top = 1 << bits
    return st.one_of(
        st.sampled_from(
            [0, 1, -1, top - 1, top, top + 1, top >> 1, (top >> 1) - 1,
             -(top >> 1), -(top >> 1) - 1, -top, 1 << 70, -(1 << 70)]
        ),
        st.integers(-(1 << 66), 1 << 66),
    )


class TestCompiledLayoutAgainstOracle:
    @given(layouts(), st.data())
    @settings(max_examples=200, deadline=None)
    def test_pack_unpack_match_bit_loop(self, fields, data):
        plain = [(n, b) for n, b, _ in fields]
        values = {n: data.draw(edge_values(b), label=n) for n, b, _ in fields}
        layout = FieldLayout(fields)
        packed = layout.pack(values)
        assert packed == bits_oracle.pack_fields(plain, values)
        assert layout.pack_seq([values[n] for n, _ in plain]) == packed

        raw, rest = bits_oracle.unpack_fields(plain, packed + b"tail")
        assert rest == b"tail"
        assert layout.unpack(packed + b"tail") == {
            n: intops.wrap(raw[n], b, s) for n, b, s in fields
        }
        assert FieldLayout(plain).unpack(packed) == raw
        # pack reduces like to_unsigned; unpack restores like wrap
        for n, b, s in fields:
            assert raw[n] == intops.to_unsigned(values[n], b)
            assert layout.unpack(packed)[n] == intops.wrap(values[n], b, s)

    @given(layouts(), st.binary(min_size=0, max_size=7), st.data())
    @settings(max_examples=100, deadline=None)
    def test_unpack_at_offset(self, fields, prefix, data):
        layout = FieldLayout([(n, b) for n, b, _ in fields])
        body = data.draw(st.binary(min_size=layout.nbytes, max_size=layout.nbytes))
        expected, _ = bits_oracle.unpack_fields(layout.fields, body)
        assert layout.unpack(prefix + body, len(prefix)) == expected
        with pytest.raises(ReproError, match="too short"):
            layout.unpack_seq(prefix + body[:-1], len(prefix))

    def test_offsets_and_reader(self):
        layout = FieldLayout([("a", 4), ("b", 4), ("c", 16), ("d", 48), ("e", 8)])
        assert [layout.offset(n) for n in "acde"] == [0, 1, 3, 9]
        with pytest.raises(ReproError, match="byte-aligned"):
            layout.offset("b")
        with pytest.raises(ReproError, match="no field"):
            layout.offset("z")
        reader = layout.reader("c", "e")
        assert reader.size == layout.nbytes
        blob = layout.pack({"a": 1, "b": 2, "c": 0xBEEF, "d": 7, "e": 0x5A})
        assert reader.unpack_from(blob) == (0xBEEF, 0x5A)
        with pytest.raises(ReproError, match="fixed-offset"):
            layout.reader("d")

    def test_rejects_unaligned_total_and_wrong_arity(self):
        with pytest.raises(ReproError, match="byte-aligned"):
            FieldLayout([("a", 3)])
        with pytest.raises(ReproError, match="2 fields"):
            FieldLayout([("a", 8), ("b", 8)]).pack_seq([1])

    def test_kernel_payload_plan_equals_intops(self):
        layout = KernelLayout(
            3, "mixed",
            [ChunkLayout("k", 1, 64, False), ChunkLayout("v", 3, 32, True),
             ChunkLayout("u", 2, 8, True)],
            ext_fields=[("len", 32, False), ("bias", 16, True)],
        )
        chunks = [[-1], [2**31, -2**31 - 1, 7], [255, -129]]
        frame = encode_frame(layout, 1, 2, 9, chunks, {"len": -1, "bias": 0x8000})
        decoded = decode_frame(frame, {3: layout})
        assert decoded.ext == {"len": 2**32 - 1, "bias": -2**15}
        assert decoded.chunks == [
            [intops.wrap(v, c.bits, c.signed) for v in vals]
            for c, vals in zip(layout.chunks, chunks)
        ]


# -- the 54 header bytes ---------------------------------------------------------

#: frames captured at the commit named in the file, before the headers
#: went through one positional ``struct`` call
GOLDEN_FRAMES = json.loads(
    (Path(__file__).resolve().parent / "golden" / "ncp_frames.json").read_text()
)


def headers_by_name(layout, src, dst, seq, last, from_node, body_len):
    """The specification: every header field by name, the unset ones 0,
    packed a bit at a time."""
    return bits_oracle.pack_fields(HEADERS.fields, {
        "eth.dst": node_mac(dst),
        "eth.src": node_mac(src),
        "eth.ethertype": 0x0800,
        "ipv4.version_ihl": 0x45,
        "ipv4.total_len": HEADERS_LEN - IPV4_OFF + body_len,
        "ipv4.ident": seq & 0xFFFF,
        "ipv4.ttl": 64,
        "ipv4.proto": 17,
        "ipv4.src": node_ip(src),
        "ipv4.dst": node_ip(dst),
        "udp.sport": 0x4E43,
        "udp.dport": 0x4E43,
        "udp.length": HEADERS_LEN - UDP_OFF + body_len,
        "ncp.magic": 0xC317,
        "ncp.version": 1,
        "ncp.flags": FLAG_LAST if last else 0,
        "ncp.kernel_id": layout.kernel_id,
        "ncp.from_node": src if from_node is None else from_node,
        "ncp.seq": seq,
    })


class TestEncodedHeaders:
    #: both sides of every width the header masks to: node ids,
    #: kernel_id and from_node mod 2**16, seq mod 2**32 (ident mod 2**16)
    EDGES = [0, 1, 2**16 - 1, 2**16, 2**16 + 5, 2**32 - 1, 2**32, 2**32 + 7, 2**40]

    def test_differential_against_the_bit_loop(self):
        rng = random.Random(20)
        layouts = [
            KernelLayout(1, "a", [ChunkLayout("d", 8, 32, True)], [("len", 32, False)]),
            KernelLayout(70000, "q", [ChunkLayout("k", 1, 64, False),
                                      ChunkLayout("v", 4, 32, False)]),
            # a body past 64 KiB: the two length fields wrap as well
            KernelLayout(9, "huge", [ChunkLayout("d", 8200, 64, False)]),
        ]

        def pick():
            return rng.choice(self.EDGES) if rng.random() < 0.4 else rng.randrange(1 << 34)

        for i in range(2000):
            layout = layouts[2] if i % 400 == 0 else layouts[i % 2]
            chunks = [[rng.randrange(1 << c.bits) for _ in range(c.count)]
                      for c in layout.chunks]
            ext = {n: rng.randrange(1 << b) for n, b, _ in layout.ext_fields}
            src, dst, seq = pick(), pick(), pick()
            last = rng.random() < 0.5
            from_node = None if rng.random() < 0.3 else pick()
            frame = encode_frame(layout, src, dst, seq, chunks, ext, last, from_node)
            body = frame[HEADERS_LEN:]
            assert body == bits_oracle.pack_fields(
                layout.payload.fields,
                dict(zip(layout.payload.names, [*ext.values(), *sum(chunks, [])])),
            )
            assert frame[:HEADERS_LEN] == headers_by_name(
                layout, src, dst, seq, last, from_node, len(body)
            ), (src, dst, seq, last, from_node)

    def test_seq_at_the_top_of_its_field(self):
        layout = KernelLayout(1, "a", [ChunkLayout("d", 1, 8, False)])
        headers = HEADERS.unpack(encode_frame(layout, 2**16 + 3, 2**16 - 1, 2**32 - 1, [[0]]))
        assert headers["ncp.seq"] == 2**32 - 1 and headers["ipv4.ident"] == 2**16 - 1
        assert headers["ipv4.src"] == node_ip(3) and headers["eth.src"] == node_mac(3)
        assert headers["ipv4.dst"] == node_ip(2**16 - 1)
        assert headers["ncp.from_node"] == 3

    @pytest.mark.parametrize("which, fixture, kernel", [
        ("fig4_window", "allreduce_program", "allreduce"),
        ("fig5_query", "kvs_program", "query"),
    ])
    def test_golden_frames(self, request, which, fixture, kernel):
        golden = GOLDEN_FRAMES[which]
        layout = request.getfixturevalue(fixture).layouts[kernel]
        assert encode_frame(layout, **golden["args"]).hex() == golden["hex"]

    def test_every_check_still_raises(self):
        layout = KernelLayout(1, "a", [ChunkLayout("d", 2, 32, True)], [("len", 32, False)])
        with pytest.raises(NcpError, match="expected 1 chunks, got 2"):
            encode_frame(layout, 1, 2, 0, [[1, 2], [3]], {"len": 2})
        with pytest.raises(NcpError, match="missing window extension field 'len'"):
            encode_frame(layout, 1, 2, 0, [[1, 2]])
        with pytest.raises(NcpError, match="chunk 'd': expected 2 elements, got 3"):
            encode_frame(layout, 1, 2, 0, [[1, 2, 3]], {"len": 2})


# -- three views of one frame ---------------------------------------------------


def seeded_frames(program, kernel, seed, count=6):
    """(layout, frame) pairs of *kernel* windows with seeded contents."""
    rng = random.Random(seed)
    layout = program.layouts[kernel]
    out = []
    for _ in range(count):
        chunks = [
            [rng.randrange(-(1 << c.bits), 1 << c.bits) for _ in range(c.count)]
            for c in layout.chunks
        ]
        ext = {n: rng.randrange(1 << b) for n, b, _ in layout.ext_fields}
        out.append(
            encode_frame(
                layout, rng.randrange(1, 200), rng.randrange(1, 200),
                rng.randrange(1 << 32), chunks, ext,
                last=rng.random() < 0.5, from_node=rng.randrange(1 << 16),
            )
        )
    return layout, out


def with_int_trailer(frame):
    armed = attach_tail(frame, attempt=1)
    stamped, ok = stamp_hop(armed, IntConfig(), 7, 1e-6, 2e-6, 90, 2)
    assert ok
    return stamped


def assert_views_agree(program, frame, layout=None):
    """peek_frame, the stacked header layout, the switch parser and (for
    whole windows) decode_frame report one value per shared field."""
    switch_program = program.switch_programs["s1"]
    phv = PacketParser(switch_program).parse(frame)
    peek = peek_frame(frame)
    for name, value in HEADERS.unpack(frame).items():
        assert phv.read(name) == value, name
    assert peek == {
        "kernel": phv.read("ncp.kernel_id"),
        "seq": phv.read("ncp.seq"),
        "from": phv.read("ncp.from_node"),
        "last": phv.read("ncp.flags") & FLAG_LAST,
        "src": phv.read("ipv4.src") & 0xFFFF,
        "dst": phv.read("ipv4.dst") & 0xFFFF,
    }
    assert Deparser(switch_program).deparse(phv) == frame
    if layout is None:
        return phv
    decoded = decode_frame(frame, {layout.kernel_id: layout})
    assert (
        decoded.kernel_id, decoded.seq, decoded.from_node, int(decoded.last),
        decoded.src_node, decoded.dst_node,
    ) == tuple(peek[k] for k in ("kernel", "seq", "from", "last", "src", "dst"))
    hdr = f"k{layout.kernel_id}"
    assert phv.is_valid(hdr)
    for name, bits, _ in layout.ext_fields:
        assert phv.read(f"{hdr}.x_{name}") == intops.to_unsigned(decoded.ext[name], bits)
    for ci, chunk in enumerate(layout.chunks):
        for ei, value in enumerate(decoded.chunks[ci]):
            assert phv.read(f"{hdr}.d{ci}_{ei}") == intops.to_unsigned(value, chunk.bits)
    return phv


class TestThreeViews:
    @pytest.mark.parametrize("seed", [4, 5])
    def test_fig4_windows(self, allreduce_program, seed):
        layout, frames = seeded_frames(allreduce_program, "allreduce", seed)
        for frame in frames:
            assert_views_agree(allreduce_program, frame, layout)

    @pytest.mark.parametrize("seed", [4, 5])
    def test_fig5_windows(self, kvs_program, seed):
        layout, frames = seeded_frames(kvs_program, "query", seed)
        for frame in frames:
            assert_views_agree(kvs_program, frame, layout)

    def test_with_int_trailer(self, allreduce_program, kvs_program):
        for program, kernel in ((allreduce_program, "allreduce"), (kvs_program, "query")):
            layout, frames = seeded_frames(program, kernel, 11, count=3)
            for frame in frames:
                stamped = with_int_trailer(frame)
                phv = assert_views_agree(program, stamped, layout)
                assert phv.read("ncp.flags") & FLAG_INT
                assert phv.payload_rest == stamped[len(frame):]

    @pytest.mark.parametrize("int_trailer", [False, True])
    def test_fragments(self, kvs_program, int_trailer):
        layout, frames = seeded_frames(kvs_program, "query", 12, count=2)
        for frame in frames:
            pieces = fragment_frame(frame, HEADERS_LEN + 4 + 8)
            assert len(pieces) > 2
            for piece in pieces:
                if int_trailer:
                    piece = with_int_trailer(piece)
                phv = assert_views_agree(kvs_program, piece)
                # the switch parses the NCP header and stops: no kernel runs
                assert phv.read("ncp.kernel_id") & FRAG_KERNEL_BIT
                assert not phv.is_valid(f"k{layout.kernel_id}")
                assert phv.payload_rest == piece[HEADERS_LEN:]
                with pytest.raises(NcpError, match="unknown kernel id"):
                    decode_frame(piece, {layout.kernel_id: layout})


class TestTruncatedFrames:
    def test_every_cut_raises_ncp_error(self, allreduce_program):
        layout, (frame, *_) = seeded_frames(allreduce_program, "allreduce", 4)
        layouts = {layout.kernel_id: layout}
        payload = len(frame) - HEADERS_LEN
        assert decode_frame(frame, layouts).seq == peek_frame(frame)["seq"]
        for n in range(len(frame)):
            with pytest.raises(NcpError, match="truncated frame") as err:
                decode_frame(frame[:n], layouts)
            if n < HEADERS_LEN:
                assert f"need {HEADERS_LEN} bytes, have {n}" in str(err.value)
            else:
                assert f"needs {payload} bytes, have {n - HEADERS_LEN}" in str(err.value)
