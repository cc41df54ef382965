"""Discrete-event network simulator."""

import pytest

from repro.errors import SimulationError
from repro.ncp.wire import ChunkLayout, KernelLayout, encode_frame, peek_frame
from repro.net import FaultPlan, Network, Simulator, fat_tree
from repro.net import frame as frame_mod
from repro.net.node import HostNode

LAYOUT = KernelLayout(1, "push", [ChunkLayout("x", 4, 32, False)])


class TestSimulator:
    def test_time_advances(self):
        sim = Simulator()
        seen = []
        sim.schedule(2.0, lambda: seen.append(sim.now()))
        sim.schedule(1.0, lambda: seen.append(sim.now()))
        sim.run()
        assert seen == [1.0, 2.0]

    def test_fifo_for_simultaneous_events(self):
        sim = Simulator()
        seen = []
        for i in range(5):
            sim.schedule(1.0, lambda i=i: seen.append(i))
        sim.run()
        assert seen == [0, 1, 2, 3, 4]

    def test_run_until(self):
        sim = Simulator()
        seen = []
        sim.schedule(1.0, lambda: seen.append(1))
        sim.schedule(5.0, lambda: seen.append(5))
        sim.run(until=2.0)
        assert seen == [1]
        assert sim.now() == 2.0
        sim.run()
        assert seen == [1, 5]

    def test_negative_delay_rejected(self):
        with pytest.raises(SimulationError):
            Simulator().schedule(-1, lambda: None)

    def test_nested_scheduling(self):
        sim = Simulator()
        seen = []

        def outer():
            seen.append("outer")
            sim.schedule(1.0, lambda: seen.append("inner"))

        sim.schedule(1.0, outer)
        sim.run()
        assert seen == ["outer", "inner"]
        assert sim.now() == 2.0


def two_hosts(bandwidth=1e9, latency=1e-6, loss=0.0):
    net = Network()
    a = net.add_host("a")
    b = net.add_host("b")
    net.add_link("a", "b", latency=latency, bandwidth=bandwidth)
    net.compute_routes()
    net.inject(FaultPlan(loss=loss, seed=1))
    return net, a, b


class TestLinks:
    def test_delivery_and_timing(self):
        net, a, b = two_hosts(bandwidth=8e6, latency=1e-3)  # 1 byte/us
        got = []
        b.receiver = lambda data: got.append((net.sim.now(), data))
        a.transmit(b"x" * 1000, b.node_id)
        net.run()
        assert len(got) == 1
        # serialization 1000B at 1B/us = 1ms, + 1ms latency + host delay
        t, data = got[0]
        assert data == b"x" * 1000
        assert t == pytest.approx(2e-3 + HostNode.DELAY, rel=1e-6)

    def test_serialization_queueing(self):
        net, a, b = two_hosts(bandwidth=8e6, latency=0.0)
        times = []
        b.receiver = lambda data: times.append(net.sim.now())
        for _ in range(3):
            a.transmit(b"y" * 1000, b.node_id)
        net.run()
        # back-to-back: arrivals 1ms apart
        assert times[1] - times[0] == pytest.approx(1e-3, rel=1e-6)
        assert times[2] - times[1] == pytest.approx(1e-3, rel=1e-6)

    def test_loss(self):
        net, a, b = two_hosts(loss=1.0)
        got = []
        b.receiver = lambda data: got.append(data)
        a.transmit(b"z", b.node_id)
        net.run()
        assert got == []
        assert net.links[0].stats.drops == 1

    def test_stats_accumulate(self):
        net, a, b = two_hosts()
        b.receiver = lambda data: None
        a.transmit(b"abc", b.node_id)
        net.run()
        assert a.stats.tx_bytes == 3
        assert b.stats.rx_bytes == 3
        assert net.total_bytes_on_links() == 3

    def test_unbound_receiver_counts_drop(self):
        net, a, b = two_hosts()
        a.transmit(b"abc", b.node_id)
        net.run()
        assert b.stats.drops == 1

    def test_a_receiver_that_raises_leaves_the_frames_behind_it_deliverable(self):
        """A node acts on a frame inside the link's wake: an exception out
        of it ends the run, and the next run still delivers the rest."""
        net, a, b = two_hosts()
        got = []

        def receiver(data):
            got.append(data)
            if len(got) == 1:
                raise RuntimeError("first frame refused")

        b.receiver = receiver
        for i in range(3):
            a.transmit(bytes([i]) * 64, b.node_id)
        with pytest.raises(RuntimeError, match="first frame refused"):
            net.run()
        net.run()
        assert got == [bytes([i]) * 64 for i in range(3)]
        a.transmit(b"late", b.node_id)
        net.run()
        assert got[-1] == b"late"


class TestTopology:
    def test_multihop_routing(self):
        net = Network()
        net.add_host("a")
        net.add_forwarding_switch("s1")
        net.add_host("b")
        net.add_link("a", "s1")
        net.add_link("s1", "b")
        net.compute_routes()
        a = net.host("a")
        b = net.host("b")
        # route from a toward b goes through s1
        assert a.routes[b.node_id] == 0

    def test_duplicate_names_rejected(self):
        net = Network()
        net.add_host("a")
        with pytest.raises(SimulationError, match="duplicate"):
            net.add_host("a")

    def test_link_endpoints_must_exist(self):
        net = Network()
        net.add_host("a")
        with pytest.raises(SimulationError):
            net.add_link("a", "ghost")

    def test_node_by_id(self):
        net = Network()
        h = net.add_host("a", node_id=7)
        assert net.node_by_id(7) is h
        with pytest.raises(SimulationError):
            net.node_by_id(9)

    def test_graph_kinds(self):
        net = Network()
        net.add_host("h")
        net.add_forwarding_switch("s")
        net.add_link("h", "s")
        assert dict(net.graph().nodes(data=True)) == {
            "h": {"kind": "host", "programmable": False},
            "s": {"kind": "switch", "programmable": False},
        }


class TestForwardingSwitch:
    def test_routes_on_header_destination(self):
        net = Network()
        a = net.add_host("a")
        net.add_host("b")
        c = net.add_host("c")
        net.add_forwarding_switch("s")
        for h in ("a", "b", "c"):
            net.add_link(h, "s")
        net.compute_routes()
        got = {"a": [], "b": [], "c": []}
        for name in got:
            net.host(name).receiver = got[name].append
        frame = encode_frame(LAYOUT, a.node_id, c.node_id, 0, [[1, 2, 3, 4]])
        a.transmit(frame, c.node_id)
        a.send(b"not ncp", 0)  # nothing to route on: dropped at the switch
        net.run()
        assert got == {"a": [], "b": [], "c": [frame]}
        assert net.nodes["s"].stats.drops == 1


class TestFrameCurrency:
    def test_bytes_in_same_bytes_out_one_peek(self, monkeypatch):
        """The host edge is bytes; inside the fabric the one Frame made
        by ``Node.send`` crosses every hop, so a five-switch path hands
        the receiver the *same* bytes object and parses its headers
        once."""
        peeks = []
        monkeypatch.setattr(
            frame_mod, "peek_frame",
            lambda data: peeks.append(data) or peek_frame(data),
        )
        topo = fat_tree(4)
        net = topo.build()
        src, dst = net.host(topo.hosts[0]), net.host(topo.hosts[-1])
        got = []
        dst.receiver = got.append
        data = encode_frame(LAYOUT, src.node_id, dst.node_id, 0, [[1, 2, 3, 4]])
        src.transmit(data, dst.node_id)
        net.run()
        assert len(got) == 1 and got[0] is data
        crossed = [
            n.name for n in net.nodes.values()
            if not isinstance(n, HostNode) and n.stats.rx_frames
        ]
        assert len(crossed) == 5
        assert len(peeks) == 1 and peeks[0] is data
