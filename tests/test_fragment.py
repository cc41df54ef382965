"""Multi-packet windows: NCP fragmentation/reassembly (S6 future work)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import NcpError
from repro.ncp.fragment import (
    FLAG_FRAG,
    FRAG_KERNEL_BIT,
    Reassembler,
    fragment_frame,
    is_fragment,
)
from repro.ncp.wire import ChunkLayout, KernelLayout, decode_frame, encode_frame
from repro.net.frame import Frame


def big_layout(n=64):
    return KernelLayout(5, "big", [ChunkLayout("data", n, 32, True)])


def big_frame(n=64, seq=3, src=1, dst=2):
    layout = big_layout(n)
    return layout, encode_frame(
        layout, src, dst, seq=seq, chunks=[list(range(n))], last=True
    )


class TestFragmentation:
    def test_small_frame_untouched(self):
        layout, frame = big_frame(4)
        assert fragment_frame(frame, 1500) == [frame]

    def test_fragments_fit_mtu(self):
        layout, frame = big_frame(64)
        frames = fragment_frame(frame, 128)
        assert len(frames) > 1
        assert all(len(f) <= 128 for f in frames)
        assert all(is_fragment(f) for f in frames)

    def test_fragment_kernel_id_outside_dispatch_space(self):
        from repro.ncp.wire import HEADERS

        layout, frame = big_frame(64)
        frag = fragment_frame(frame, 128)[0]
        headers = HEADERS.unpack(frag)
        assert headers["ncp.kernel_id"] & FRAG_KERNEL_BIT
        assert headers["ncp.flags"] & FLAG_FRAG

    def test_header_fields_are_carried_not_regenerated(self):
        """A frame whose TTL a hop decremented and whose IP ident was
        rewritten after encoding: every fragment carries the altered
        fields and the reassembled frame is the altered frame."""
        from repro.ncp.wire import HEADERS

        layout, frame = big_frame(64)
        ttl, ident = HEADERS.offset("ipv4.ttl"), HEADERS.offset("ipv4.ident")
        altered = bytearray(frame)
        altered[ttl] = 17
        altered[ident:ident + 2] = b"\xbe\xef"
        altered = bytes(altered)
        pieces = fragment_frame(altered, 100)
        r = Reassembler()
        rebuilt = None
        for piece in pieces:
            headers = HEADERS.unpack(piece)
            assert (headers["ipv4.ttl"], headers["ipv4.ident"]) == (17, 0xBEEF)
            assert headers["ipv4.total_len"] == len(piece) - 14
            assert headers["udp.length"] == len(piece) - 34
            rebuilt = r.feed(piece)
        assert rebuilt == altered != frame

    def test_mtu_too_small(self):
        layout, frame = big_frame(64)
        with pytest.raises(NcpError, match="mtu"):
            fragment_frame(frame, 10)

    def test_refuses_double_fragmentation(self):
        layout, frame = big_frame(64)
        frag = fragment_frame(frame, 128)[0]
        with pytest.raises(NcpError, match="fragment"):
            fragment_frame(frag, 64)


class TestReassembly:
    def test_roundtrip_in_order(self):
        layout, frame = big_frame(64)
        r = Reassembler()
        rebuilt = None
        for piece in fragment_frame(frame, 100):
            rebuilt = r.feed(piece)
        assert rebuilt == frame
        decoded = decode_frame(rebuilt, {5: layout})
        assert decoded.chunks == [list(range(64))]
        assert decoded.last

    def test_roundtrip_out_of_order(self):
        layout, frame = big_frame(64)
        pieces = fragment_frame(frame, 100)
        r = Reassembler()
        rebuilt = None
        for piece in reversed(pieces):
            result = r.feed(piece)
            if result is not None:
                rebuilt = result
        assert rebuilt == frame

    def test_interleaved_windows(self):
        layout, frame_a = big_frame(64, seq=0)
        _, frame_b = big_frame(64, seq=1)
        pieces_a = fragment_frame(frame_a, 100)
        pieces_b = fragment_frame(frame_b, 100)
        r = Reassembler()
        rebuilt = []
        for a, b in zip(pieces_a, pieces_b):
            for piece in (a, b):
                result = r.feed(piece)
                if result is not None:
                    rebuilt.append(result)
        assert sorted(map(len, rebuilt)) == sorted(map(len, [frame_a, frame_b]))
        assert r.pending_windows == 0

    def test_incomplete_window_stays_pending(self):
        layout, frame = big_frame(64)
        pieces = fragment_frame(frame, 100)
        r = Reassembler()
        for piece in pieces[:-1]:
            assert r.feed(piece) is None
        assert r.pending_windows == 1

    @staticmethod
    def all_but_last(seq):
        return fragment_frame(big_frame(64, seq=seq)[1], 100)[:-1]

    def test_full_table_evicts_the_oldest_window(self):
        """Four windows that each lost their last fragment used to fill a
        table of four for good: the first fragment of every later window
        was refused with "reassembly table full"."""
        r = Reassembler(max_pending=4)
        for seq in range(4):
            for piece in self.all_but_last(seq):
                assert r.feed(piece) is None
        assert (r.pending_windows, r.evicted) == (4, 0)
        _, fifth = big_frame(64, seq=4)
        rebuilt = [r.feed(piece) for piece in fragment_frame(fifth, 100)]
        assert rebuilt[-1] == fifth and set(rebuilt[:-1]) == {None}
        assert (r.pending_windows, r.evicted, r.reassembled) == (3, 1, 1)
        held = sum(len(p) - 58 for p in self.all_but_last(0))
        assert r.evicted_bytes == held > 0
        # the one given up on was the oldest, seq 0: 1..3 still complete
        for seq in (1, 2, 3):
            _, frame = big_frame(64, seq=seq)
            assert r.feed(fragment_frame(frame, 100)[-1]) == frame
        assert (r.pending_windows, r.evicted) == (0, 1)

    def test_malformed_fragment_evicts_nothing(self):
        r = Reassembler(max_pending=2)
        for seq in range(2):
            for piece in self.all_but_last(seq):
                r.feed(piece)
        first_of_third = self.all_but_last(2)[0]
        with pytest.raises(NcpError, match="outside its count"):
            r.feed(self.rewrite(first_of_third, index=200))
        with pytest.raises(NcpError, match="truncated fragment"):
            r.feed(first_of_third[:57])
        assert (r.pending_windows, r.evicted) == (2, 0)

    def test_non_fragment_rejected(self):
        layout, frame = big_frame(4)
        with pytest.raises(NcpError, match="not a fragment"):
            Reassembler().feed(frame)

    @staticmethod
    def rewrite(piece, **frag_fields):
        """*piece* with fields of its fragment subheader replaced."""
        from repro.ncp.fragment import FRAG
        from repro.ncp.wire import HEADERS_LEN

        sub = FRAG.unpack(piece, HEADERS_LEN)
        sub.update(frag_fields)
        end = HEADERS_LEN + FRAG.nbytes
        return piece[:HEADERS_LEN] + FRAG.pack(sub) + piece[end:]

    def test_index_outside_count_rejected(self):
        """A 3-fragment window with one index rewritten to 9 used to be
        counted toward completion and die in KeyError(1)."""
        layout, frame = big_frame(64)
        pieces = fragment_frame(frame, 160)
        assert len(pieces) == 3
        r = Reassembler()
        assert r.feed(pieces[0]) is None
        with pytest.raises(NcpError, match="index 9 outside its count 3"):
            r.feed(self.rewrite(pieces[1], index=9))
        assert r.pending_windows == 1
        assert r.feed(pieces[2]) is None
        # the table was left consistent: the real fragment still completes
        assert r.feed(pieces[1]) == frame
        assert r.pending_windows == 0

    def test_bad_first_fragment_leaves_no_entry(self):
        layout, frame = big_frame(64)
        pieces = fragment_frame(frame, 160)
        r = Reassembler()
        with pytest.raises(NcpError, match="outside its count"):
            r.feed(self.rewrite(pieces[0], index=3))
        assert r.pending_windows == 0

    def test_count_mismatch_rejected(self):
        layout, frame = big_frame(64)
        pieces = fragment_frame(frame, 160)
        r = Reassembler()
        assert r.feed(pieces[0]) is None
        with pytest.raises(NcpError, match="claims 2 fragments, its window has 3"):
            r.feed(self.rewrite(pieces[1], count=2))
        assert r.feed(pieces[1]) is None
        assert r.feed(pieces[2]) == frame

    def test_truncated_fragment_rejected(self):
        layout, frame = big_frame(64)
        piece = fragment_frame(frame, 160)[0]
        assert not is_fragment(piece[:53]) and is_fragment(piece[:54])
        for n in (0, 20, 54, 57):
            with pytest.raises(NcpError, match="truncated fragment"):
                Reassembler().feed(piece[:n])

    def test_host_counts_malformed_fragment_as_reassembly_drop(self):
        from repro.nclc import Compiler, WindowConfig
        from repro.runtime import Cluster

        program = Compiler().compile(
            "_net_ _out_ void ship(int *d) { }",
            and_text="host a\nhost b\nswitch s1\nlink a s1\nlink s1 b",
            windows={"ship": WindowConfig(mask=(64,))},
        )
        host = Cluster.from_program(program).hosts["b"]
        frame = encode_frame(
            program.layouts["ship"], 1, 2, seq=0, chunks=[list(range(64))]
        )
        pieces = fragment_frame(frame, 160)
        host._on_frame(Frame(pieces[0]))
        host._on_frame(Frame(self.rewrite(pieces[1], index=9)))
        assert host.node.stats.drops == 1
        assert host.windows_received == 0

    def test_host_counts_an_evicted_window_and_keeps_receiving(self):
        """Through a host: every window the table gives up on is one
        ``reassembly`` drop (node stats and ``ncp.rx_drops``, no tracer
        needed), and fragmented windows keep arriving afterwards."""
        from repro.nclc import Compiler, WindowConfig
        from repro.obs import Observability
        from repro.runtime import Cluster

        program = Compiler().compile(
            "_net_ _out_ void ship(int *d) { }",
            and_text="host a\nhost b\nswitch s1\nlink a s1\nlink s1 b",
            windows={"ship": WindowConfig(mask=(64,))},
        )
        obs = Observability()
        host = Cluster.from_program(program, obs=obs).hosts["b"]
        host._reassembler = Reassembler(max_pending=4)

        def pieces(seq):
            frame = encode_frame(
                program.layouts["ship"], 1, 2, seq=seq, chunks=[list(range(64))]
            )
            return fragment_frame(frame, 160)

        for seq in range(4):
            for piece in pieces(seq)[:-1]:
                host._on_frame(Frame(piece))
        assert (host.node.stats.drops, host.windows_received) == (0, 0)
        for seq in (4, 5):
            for piece in pieces(seq):
                host._on_frame(Frame(piece))
        assert host.windows_received == 2
        assert [w.seq for w in host.inbox["ship"]] == [4, 5]
        # seq 4's first fragment pushed out the stalest window; completing
        # freed its slot, so seq 5 evicted nothing
        assert host._reassembler.evicted == 1
        assert host.node.stats.drops == 1
        series = obs.registry.get("ncp.rx_drops").snapshot()["series"]
        assert [(s["labels"], s["value"]) for s in series] == [
            ({"host": "b", "cause": "reassembly"}, 1)
        ]

    @given(st.integers(90, 400), st.integers(8, 96))
    @settings(max_examples=20, deadline=None)
    def test_roundtrip_property(self, mtu, n_elems):
        layout = KernelLayout(5, "big", [ChunkLayout("data", n_elems, 32, True)])
        frame = encode_frame(layout, 1, 2, seq=9, chunks=[list(range(n_elems))])
        r = Reassembler()
        rebuilt = None
        pieces = fragment_frame(frame, mtu)
        if pieces == [frame]:
            rebuilt = frame  # fit in one packet; nothing to reassemble
        else:
            for piece in pieces:
                assert len(piece) <= mtu
                result = r.feed(piece)
                if result is not None:
                    rebuilt = result
        assert rebuilt == frame


class TestEndToEndFragmentedWindows:
    def test_host_to_host_through_switch(self):
        """A window too big for one packet crosses the network in
        fragments; the switch forwards them (no kernel execution) and the
        receiving host reassembles + runs the incoming kernel."""
        from repro.nclc import Compiler, WindowConfig
        from repro.runtime import Cluster

        SRC = """
        _net_ _at_("s1") unsigned executed[1] = {0};
        _net_ _out_ void ship(int *d) { executed[0] += 1; }
        _net_ _in_ void land(int *d, _ext_ int *out) {
          for (unsigned i = 0; i < 64; ++i) out[i] = d[i];
        }
        """
        program = Compiler().compile(
            SRC,
            and_text="host a\nhost b\nswitch s1\nlink a s1\nlink s1 b",
            windows={"ship": WindowConfig(mask=(64,))},
        )
        cluster = Cluster.from_program(program)
        # rebind sender with a small MTU
        sender = cluster.hosts["a"]
        sender.mtu = 128
        out = [0] * 64
        cluster.hosts["b"].register_in("land", [out])
        sender.out("ship", [list(range(64))], dst="b")
        cluster.run()
        assert out == list(range(64))
        # the switch never executed the kernel on fragments:
        assert cluster.controller.register_dump("executed")[0] == 0
