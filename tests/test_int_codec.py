"""The INT trailer codec against the bit-loop oracle, and what a node
does with a trailer that does not parse: one counted, cause-labelled
drop at the first node that looks at it, never an exception out of the
run loop."""

from __future__ import annotations

import random

import pytest

from repro.apps.allreduce import AllReduceJob
from repro.ncp.wire import FLAG_INT, FLAGS_OFF, HEADERS_LEN, encode_frame
from repro.nclc import Compiler, WindowConfig
from repro.net.network import FaultPlan, Network
from repro.obs import IntConfig, Observability
from repro.obs.int import (
    HOP_BYTES,
    HOP_DROPPED,
    INT_MAGIC,
    TAIL_BYTES,
    TAIL_TRUNCATED,
    IntError,
    attach_tail,
    carries_int,
    peek_stack,
    stamp_hop,
    strip_stack,
)
from repro.runtime import Cluster
from tests import bits_oracle
from tests.test_int import PROBE_SRC, make_frame

TAIL_FIELDS = [("hop_count", 8), ("attempt", 8), ("flags", 8), ("magic", 16)]
HOP_FIELDS = [
    ("hop", 16), ("ingress_ns", 48), ("egress_ns", 48),
    ("qdepth", 32), ("tables", 8), ("flags", 8),
]
TOP48 = (1 << 48) - 1
TOP32 = (1 << 32) - 1


def oracle_trailer(records, attempt, flags=0):
    """The trailer bytes the wire format prescribes, one bit at a time."""
    out = b"".join(bits_oracle.pack_fields(HOP_FIELDS, r) for r in records)
    return out + bits_oracle.pack_fields(
        TAIL_FIELDS,
        {"hop_count": len(records), "attempt": attempt, "flags": flags,
         "magic": INT_MAGIC},
    )


def random_record(rng):
    """One hop record; the extremes of every field come up often."""
    def pick(top):
        return rng.choice([0, 1, top - 1, top, rng.randrange(top + 1)])

    return {
        "hop": pick(0xFFFF),
        "ingress_ns": pick(TOP48),
        "egress_ns": pick(TOP48),
        "qdepth": pick(TOP32),
        "tables": pick(255),
        "flags": rng.choice([0, HOP_DROPPED]),
    }


def stamp(frame, record, cfg=IntConfig(max_hops=255)):
    # ns -> the float seconds stamp_hop takes; exact up to 2**48 ns
    return stamp_hop(
        frame, cfg, record["hop"], record["ingress_ns"] / 1e9,
        record["egress_ns"] / 1e9, record["qdepth"], record["tables"],
        dropped=bool(record["flags"]),
    )


class TestAgainstBitOracle:
    @pytest.mark.parametrize("seed", range(8))
    def test_stamped_bytes_and_decoded_records(self, seed):
        rng = random.Random(seed)
        base = make_frame(seq=seed)
        attempt = rng.randrange(256)
        frame = attach_tail(base, attempt)
        records = [random_record(rng) for _ in range(rng.randrange(1, 9))]
        for n, record in enumerate(records, 1):
            frame, ok = stamp(frame, record)
            assert ok
            assert frame[HEADERS_LEN:][len(base) - HEADERS_LEN:] == oracle_trailer(
                records[:n], attempt
            )
        stack = peek_stack(frame)
        assert stack.hops == records
        assert stack.records == [tuple(r.values()) for r in records]
        assert (stack.attempt, stack.truncated, len(stack)) == (
            attempt, False, len(records))
        # ... and what the oracle reads back off the wire agrees
        off = len(base)
        for record in records:
            got, _ = bits_oracle.unpack_fields(HOP_FIELDS, frame[off:off + HOP_BYTES])
            assert got == record
            off += HOP_BYTES
        bare, stripped = strip_stack(frame)
        assert bare == base and stripped.records == stack.records

    def test_both_48_bit_extremes_and_full_qdepth(self):
        frame = attach_tail(make_frame())
        low = dict(hop=0, ingress_ns=0, egress_ns=0, qdepth=0, tables=0, flags=0)
        high = dict(hop=0xFFFF, ingress_ns=TOP48, egress_ns=TOP48,
                    qdepth=TOP32, tables=255, flags=HOP_DROPPED)
        for record in (low, high):
            frame, _ = stamp(frame, record)
        assert peek_stack(frame).hops == [low, high]
        assert frame.endswith(oracle_trailer([low, high], 0))

    def test_out_of_range_values_wrap_to_their_field(self):
        """As FieldLayout packs them (and the oracle masks them): a
        timestamp past 2**48 ns or a queue past 2**32 B must not fail
        the switch that stamps it."""
        frame = attach_tail(make_frame())
        frame, ok = stamp_hop(frame, IntConfig(), 0x10005, (TOP48 + 8) / 1e9,
                              0.0, TOP32 + 3, 700)
        assert ok
        assert peek_stack(frame).hops == [dict(
            hop=5, ingress_ns=7, egress_ns=0, qdepth=2, tables=255, flags=0)]

    def test_truncation_sets_the_flag_and_keeps_the_records(self):
        cfg = IntConfig(max_hops=1)
        record = dict(hop=3, ingress_ns=10, egress_ns=20, qdepth=5, tables=1, flags=0)
        frame, _ = stamp(attach_tail(make_frame(), 7), record, cfg)
        over, ok = stamp(frame, record, cfg)
        assert not ok
        assert over.endswith(oracle_trailer([record], 7, TAIL_TRUNCATED))
        assert peek_stack(over).truncated


class TestPairedStruct:
    def test_format_is_derived_from_the_field_list(self):
        from repro.errors import ReproError
        from repro.util.bits import FieldLayout

        layout = FieldLayout(HOP_FIELDS)
        assert layout.paired().format == ">HHIHIIBB"
        assert layout.paired().size == layout.nbytes == HOP_BYTES
        assert FieldLayout(TAIL_FIELDS).paired().format == ">BBBH"
        with pytest.raises(ReproError, match="24-bit"):
            FieldLayout([("a", 24)]).paired()


class TestAttemptSaturates:
    @pytest.mark.parametrize("attempt, stored", [
        (0, 0), (254, 254), (255, 255), (256, 255), (300, 255), (10_000, 255),
    ])
    def test_attempt_is_capped_at_the_field_top(self, attempt, stored):
        """At the parent 256 wrapped to 0: the 256th retransmission
        entered the lineage index as the original send."""
        armed = attach_tail(make_frame(), attempt)
        assert peek_stack(armed).attempt == stored
        assert armed.endswith(oracle_trailer([], stored))


def forge(frame, how):
    """An armed frame whose trailer no longer parses."""
    armed = bytearray(attach_tail(frame))
    if how == "magic":
        armed[-1] ^= 0xFF
    elif how == "hop_count":
        armed[-TAIL_BYTES] = 200  # 200 records in a frame that has none
    return bytes(armed)


class TestForgedAndTruncatedTails:
    @pytest.mark.parametrize("how", ["magic", "hop_count"])
    def test_every_reader_refuses(self, how):
        bad = forge(make_frame(), how)
        assert carries_int(bad)
        for read in (peek_stack, strip_stack):
            with pytest.raises(IntError):
                read(bad)
        with pytest.raises(IntError):
            stamp_hop(bad, IntConfig(), 1, 0.0, 1e-6, 0, 0)

    def test_hop_count_must_fit_between_headers_and_tail(self):
        frame = attach_tail(make_frame())  # 16 payload bytes: no room for a record
        one = bytearray(frame)
        one[-TAIL_BYTES] = 1
        with pytest.raises(IntError, match="claims 1 records"):
            peek_stack(bytes(one))

    def test_frame_cut_short_of_its_tail(self):
        """FLAG_INT set but the bytes end early: no reader may index
        before the headers."""
        armed = attach_tail(make_frame(values=(1,)))
        for cut in range(1, TAIL_BYTES + 4):
            short = armed[:-cut]
            if carries_int(short):
                with pytest.raises(IntError):
                    peek_stack(short)
            else:
                assert peek_stack(short) is None
        bare_headers = bytearray(armed[:HEADERS_LEN + 2])
        assert bare_headers[FLAGS_OFF] & FLAG_INT
        with pytest.raises(IntError, match="no room"):
            stamp_hop(bytes(bare_headers), IntConfig(), 1, 0.0, 1e-6, 0, 0)


# -- a malformed trailer in the fabric ------------------------------------------


def probe_cluster(obs):
    program = Compiler().compile(PROBE_SRC, windows={"probe": WindowConfig(mask=(1,))})
    return Cluster.from_program(program, obs=obs)


def probe_frame(cluster, how):
    h0, h1 = cluster.host("h0"), cluster.host("h1")
    frame = encode_frame(
        cluster.program.layouts["probe"], src_node=h0.node_id,
        dst_node=h1.node_id, seq=0, chunks=[[7]], last=True,
    )
    return forge(frame, how)


def drops_in(obs):
    return [(e.track, e.cat, e.args["cause"]) for e in obs.tracer.named("drop")]


@pytest.mark.parametrize("how", ["magic", "hop_count"])
class TestMalformedTrailerInTheFabric:
    def test_host_counts_one_int_drop(self, how):
        """No IntConfig, so the switch passes the trailer through
        unread; the receiving host is the first node to look."""
        obs = Observability()
        cluster = probe_cluster(obs)
        h0, h1 = cluster.host("h0"), cluster.host("h1")
        bad = probe_frame(cluster, how)
        h0.node.transmit(bad, h1.node_id)
        cluster.run()  # at the parent: IntError out of Simulator.run
        assert h1.node.stats.drops == 1
        assert h1.windows_received == 0 and not h1.inbox
        assert drops_in(obs) == [("host h1", "ncp", "int")]
        assert obs.tracer.named("drop")[0].args["bytes"] == len(bad)
        series = {
            s["labels"]["cause"]: s["value"]
            for s in obs.snapshot()["ncp.rx_drops"]["series"]
            if s["labels"]["host"] == "h1"
        }
        assert series == {"int": 1}
        # the host is still in business
        h0.out("probe", [[9]], dst="h1")
        cluster.run()
        assert h1.windows_received == 1

    def test_host_drop_is_counted_without_an_observer(self, how):
        cluster = probe_cluster(None)
        h0, h1 = cluster.host("h0"), cluster.host("h1")
        h0.node.transmit(probe_frame(cluster, how), h1.node_id)
        cluster.run()
        assert h1.node.stats.drops == 1
        assert h1.windows_received == 0

    def test_switch_drops_what_it_cannot_stamp(self, how):
        """With INT on, the switch is the first node to parse the
        trailer: it drops the frame there and forwards nothing."""
        obs = Observability(int_config=IntConfig(max_hops=8))
        cluster = probe_cluster(obs)
        h0, h1 = cluster.host("h0"), cluster.host("h1")
        h0.node.transmit(probe_frame(cluster, how), h1.node_id)
        cluster.run()
        s1 = cluster.switches["s1"]
        assert s1.stats.drops == 1
        assert s1.stats.tx_frames == 0
        assert h1.node.stats.rx_frames == 0 and h1.node.stats.drops == 0
        assert drops_in(obs) == [("switch s1", "switch", "int")]
        assert not obs.tracer.named("int:stack")
        assert "ncp.rx_drops" not in obs.snapshot()

    def test_broadcast_drops_once_not_once_per_port(self, how):
        obs = Observability(int_config=IntConfig(max_hops=8))
        job = AllReduceJob(2, 4, 4, obs=obs)
        job.cluster.controller.ctrl_wr("nworkers", 1)  # first window broadcasts
        w0 = job.cluster.host("w0")
        s1 = job.cluster.switches["s1"]
        frame = encode_frame(
            job.program.layouts["allreduce"], src_node=w0.node_id,
            dst_node=s1.node_id, seq=0, chunks=[[1, 2, 3, 4]],
            ext_values={"len": 4}, last=True,
        )
        w0.node.transmit(forge(frame, how), s1.node_id)
        job.cluster.run()
        assert s1.stats.drops == 1
        assert s1.stats.tx_frames == 0
        assert drops_in(obs) == [("switch s1", "switch", "int")]

    def test_absorbed_window_is_counted_once(self, how):
        """The kernel consumed the window (``_drop()``: one count, the
        verdict's); the trailer that cannot be stamped leaves a ``drop``
        instant where the ``int:stack`` would have been."""
        obs = Observability(int_config=IntConfig(max_hops=8))
        job = AllReduceJob(2, 4, 4, obs=obs)
        w0 = job.cluster.host("w0")
        s1 = job.cluster.switches["s1"]
        frame = encode_frame(
            job.program.layouts["allreduce"], src_node=w0.node_id,
            dst_node=s1.node_id, seq=0, chunks=[[1, 2, 3, 4]],
            ext_values={"len": 4}, last=True,
        )
        w0.node.transmit(forge(frame, how), s1.node_id)
        job.cluster.run()
        assert s1.stats.drops == 1
        assert drops_in(obs) == [("switch s1", "switch", "int")]
        assert not obs.tracer.named("int:stack")

    def test_link_drop_of_a_malformed_frame_still_traces_the_drop(self, how):
        """The link drops it for its own reason (loss); the trailer it
        cannot decode only costs the ``int:stack`` event."""
        obs = Observability()
        net = Network(obs=obs)
        a, b = net.add_host("a"), net.add_host("b")
        net.add_link("a", "b")
        net.compute_routes()
        net.inject(FaultPlan(loss=1.0, seed=1))
        a.transmit(forge(make_frame(), how), b.node_id)
        net.run()
        assert net.links[0].stats.drops_loss == 1
        assert drops_in(obs) == [("link a<->b", "link", "loss")]
        assert not obs.tracer.named("int:stack")
