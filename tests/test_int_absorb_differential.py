"""A consumed packet's INT stack without the round trip through bytes.

``PisaSwitchNode._int_absorb`` takes the stack the packet arrived with
and appends this hop's ``hop_record``; at cb58053 it deparsed the packet,
stamped the record into the bytes and decoded them straight back
(``tests/int_absorb_oracle.py``).  Both must leave the same thing in the
trace: on every packet the shipped programs consume, on random stacks
either side of every cap and mask, and on trailers that do not parse."""

from __future__ import annotations

import random
from functools import lru_cache
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from repro.apps.allreduce import AllReduceJob
from repro.apps.dedup import DedupCluster
from repro.apps.kvs_cache import KvsCluster
from repro.apps.telemetry import TelemetryCluster
from repro.ncp.wire import encode_frame, node_ip
from repro.net.frame import Frame
from repro.net.network import Network
from repro.net.pisanode import PisaSwitchNode
from repro.nclc import Compiler, WindowConfig
from repro.obs import IntConfig, Observability, Tracer
from repro.obs.int import (
    HOP_BYTES,
    attach_tail,
    hop_record,
    peek_stack,
    stamp_hop,
)
from repro.pisa.switch_dev import PisaSwitch
from repro.runtime import Cluster

from tests.int_absorb_oracle import parent_int_absorb, parent_stamp_hop
from tests.test_int_codec import forge
from tests.test_obs_event_goldens import GATE_AND, GATE_SRC, PROBE_SRC

# -- every packet the shipped programs consume ---------------------------------------


@pytest.fixture
def absorbed(monkeypatch):
    """Every ``_int_absorb`` call checked against the parent's, which
    worked from the deparsed bytes of the packet's ``SwitchResult``;
    yields the list of outcomes checked."""
    checked = []
    real_process = PisaSwitch.process
    real_absorb = PisaSwitchNode._int_absorb
    last = {}

    def process(self, *args, **kwargs):
        result = last[self] = real_process(self, *args, **kwargs)
        return result

    def absorb(self, obs, int_cfg, frame, tables_matched, outcome):
        already = len(obs.tracer.events)
        real_absorb(self, obs, int_cfg, frame, tables_matched, outcome)
        result = last[self.switch]
        assert tables_matched == result.tables_matched
        expected = parent_int_absorb(
            result.data, int_cfg, self.node_id, self.sim.now(), self.DELAY,
            result.tables_matched, outcome, self._node_names,
        )
        new = obs.tracer.events[already:]
        if expected is None:
            assert new == []
        elif expected.__class__ is tuple:
            (event,) = new
            assert (event.name, event.cat, event.track) == ("drop", "switch", self.track)
            assert event.args == {"cause": expected[0], "bytes": expected[1]}
        else:
            (event,) = new
            assert (event.name, event.cat, event.track) == ("int:stack", "int", self.track)
            assert event.ts == self.sim.now()
            assert event.args == expected
            assert list(event.args) == list(expected)  # same keys, same order
        checked.append(outcome if expected.__class__ is dict else expected)

    monkeypatch.setattr(PisaSwitch, "process", process)
    monkeypatch.setattr(PisaSwitchNode, "_int_absorb", absorb)
    return checked


def observed(max_hops=8, byte_budget=None):
    return Observability(
        tracer=Tracer(), int_config=IntConfig(max_hops=max_hops, byte_budget=byte_budget)
    )


class TestEveryShippedProgram:
    def test_fig4_allreduce(self, absorbed):
        job = AllReduceJob(4, 64, 8, multiround=True, obs=observed())
        rng = random.Random(4)
        for _ in range(2):
            job.run_round([[rng.randrange(-2**31, 2**31) for _ in range(64)]
                           for _ in range(4)])
        assert absorbed == ["drop:switch"] * 48  # 3 of every 4 windows, 2 rounds of 8

    def test_fig5_kvs(self, absorbed):
        kvs = KvsCluster(n_clients=2, cache_size=8, val_words=4, n_keys=32, obs=observed())
        kvs.install_hot_keys([0, 1, 2, 3])
        kvs.run_workload(0, [0, 1, 9, 2, 0, 17, 3, 1], put_every=4)
        assert absorbed and set(absorbed) == {"drop:switch"}  # server updates

    def test_dedup(self, absorbed):
        dedup = DedupCluster(filter_bits=256)
        dedup.cluster.network.sim.obs = observed()
        dedup.send_stream([1, 2, 1, 3, 2, 1])
        assert absorbed == ["drop:switch"] * 3

    def test_telemetry_route_to_a_port_that_is_not_there(self, absorbed):
        """Two switches under ``max_hops=1``: the miss at the second one
        finds the stack full."""
        telemetry = TelemetryCluster(n_senders=1, slots=16, obs=observed(max_hops=1))
        cluster = telemetry.cluster
        s1, s2 = cluster.switches["s1"], cluster.switches["s2"]
        s1.switch.table_insert("ipv4_route", [node_ip(99)], "ipv4_forward", [7])
        s1.install_route(98, s1.routes[cluster.host("collector").node_id])
        s2.switch.table_insert("ipv4_route", [node_ip(98)], "ipv4_forward", [7])
        src = cluster.host("src0")
        src.out_window("monitor", 0, [[5], [0, 0, 0]], 99)
        src.out_window("monitor", 1, [[5], [0, 0, 0]], 98)
        cluster.run()
        assert absorbed == ["drop:route-miss"] * 2
        stacks = cluster.sim.obs.tracer.named("int:stack")
        assert [("truncated" in e.args, len(e.args["hops"])) for e in stacks] == [
            (False, 1), (True, 1)]

    @pytest.mark.parametrize("byte_budget", [None, HOP_BYTES, HOP_BYTES - 1])
    def test_kernel_drop_behind_another_switch(self, absorbed, byte_budget):
        program = Compiler().compile(
            GATE_SRC, and_text=GATE_AND, windows={"gate": WindowConfig(mask=(1,))}
        )
        obs = observed(max_hops=2 if byte_budget else 1, byte_budget=byte_budget)
        gate = Cluster.from_program(program, obs=obs)
        gate.host("a").out_window("gate", 0, [[0]], "b")
        gate.run()
        assert absorbed == ["drop:switch"]
        (event,) = obs.tracer.named("int:stack")
        assert event.args["truncated"] == 1  # s1's record, or nobody's, filled it

    @pytest.mark.parametrize("how", ["magic", "hop_count"])
    def test_a_forged_trailer_is_one_drop_instant(self, absorbed, how):
        obs = observed()
        job = AllReduceJob(2, 4, 4, obs=obs)
        w0, s1 = job.cluster.host("w0"), job.cluster.switches["s1"]
        frame = encode_frame(
            job.program.layouts["allreduce"], src_node=w0.node_id,
            dst_node=s1.node_id, seq=0, chunks=[[1, 2, 3, 4]],
            ext_values={"len": 4}, last=True,
        )
        bad = forge(frame, how)
        w0.node.transmit(bad, s1.node_id)
        job.cluster.run()  # no IntError out of Simulator.run
        assert absorbed == [("int", len(bad))]
        assert s1.stats.drops == 1 and not obs.tracer.named("int:stack")


# -- random stacks ------------------------------------------------------------------

#: values on both sides of every mask hop_record applies
HOP_IDS = st.sampled_from([0, 1, 7, 0xFFFF, 0x10000, 0x10007, 2**31, -1])
TIMES = st.one_of(
    st.sampled_from([0.0, 1e-9, 1e-6, 281474.976710655, 281474.976710656,
                     281474.976710657, 3e5, 1e6]),
    st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
)
QDEPTHS = st.sampled_from([0, 1, 119, 2**32 - 1, 2**32, 2**32 + 5, 2**40, -1])
TABLES = st.sampled_from([0, 1, 2, 254, 255, 256, 300, 10_000])
RECORDS = st.tuples(HOP_IDS, TIMES, TIMES, QDEPTHS, TABLES, st.booleans())


@lru_cache(maxsize=None)
def probe_program():
    return Compiler().compile(PROBE_SRC, windows={"probe": WindowConfig(mask=(1,))})


def probe_frame():
    return encode_frame(probe_program().layouts["probe"], 0, 1, 0, [[7]], {}, True, 0)


def frame_with(records, attempt, truncated):
    frame = attach_tail(probe_frame(), attempt)
    roomy = IntConfig(max_hops=255)
    for record in records:
        frame, stamped = parent_stamp_hop(frame, roomy, *record)
        assert stamped
    if truncated:
        frame, _ = parent_stamp_hop(frame, IntConfig(byte_budget=0), 1, 0.0, 0.0, 0, 0)
    return frame


class TestHopRecord:
    @given(RECORDS)
    def test_is_the_record_the_parent_packed(self, record):
        packed, _ = parent_stamp_hop(attach_tail(probe_frame()), IntConfig(), *record)
        assert peek_stack(packed).records == [hop_record(*record)]

    @given(st.lists(RECORDS, max_size=4), RECORDS, st.integers(0, 300), st.booleans())
    def test_stamp_hop_writes_the_bytes_the_parent_wrote(
        self, records, record, attempt, truncated
    ):
        frame = frame_with(records, attempt, truncated)
        for cfg in (IntConfig(), IntConfig(max_hops=len(records) or 1),
                    IntConfig(byte_budget=len(records) * HOP_BYTES)):
            assert stamp_hop(frame, cfg, *record) == parent_stamp_hop(frame, cfg, *record)


class TestRandomStacks:
    @pytest.fixture(scope="class")
    def node(self):
        net = Network(obs=Observability(tracer=Tracer(retain=8)))
        switch = PisaSwitch(probe_program().switch_programs["s1"], "s1")
        return net.add_pisa_switch("s1", switch, node_id=2)

    @settings(max_examples=300, deadline=None)
    @given(
        max_hops=st.integers(1, 5),
        budget=st.one_of(st.none(), st.integers(0, 6 * HOP_BYTES)),
        extra=st.integers(-5, 1),
        fill=st.lists(RECORDS, min_size=6, max_size=6),
        attempt=st.integers(0, 300),
        truncated=st.booleans(),
        hop_id=HOP_IDS, now=TIMES, tables=TABLES,
        outcome=st.sampled_from(["drop:switch", "drop:route-miss"]),
    )
    def test_absorb_leaves_what_the_parent_left(
        self, node, max_hops, budget, extra, fill, attempt, truncated,
        hop_id, now, tables, outcome,
    ):
        cfg = IntConfig(max_hops=max_hops, byte_budget=budget)
        records = fill[: max(0, max_hops + extra)]  # 0 .. max_hops + 1 records
        data = frame_with(records, attempt, truncated)
        obs = Observability(tracer=Tracer(), int_config=cfg)
        node.node_id, node._node_names = hop_id, {hop_id: "s1"}
        node.sim = SimpleNamespace(now=lambda: now, obs=obs)
        node._int_absorb(obs, cfg, Frame(data), tables, outcome)
        expected = parent_int_absorb(
            data, cfg, hop_id, now, node.DELAY, tables, outcome,
            node._node_names,
        )
        (event,) = obs.tracer.events
        assert (event.name, event.ts, event.track) == ("int:stack", now, "switch s1")
        assert event.args == expected and list(event.args) == list(expected)
        stack = peek_stack(data)
        assert event.args["attempt"] == stack.attempt
        grew = len(event.args["hops"]) - len(stack.records)
        assert grew == (1 if cfg.allows(len(stack.records)) else 0)
        assert ("truncated" in event.args) == (stack.truncated or not grew)
