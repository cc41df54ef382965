"""Datacenter topology generators, ECMP routing, and failure injection.

Structural properties of the fat-tree / leaf-spine generators (each a
:class:`repro.andspec.FabricSpec` whose host-facing tier is the
programmable one), the one description read two ways (``build()`` into a
live Network, ``graph()`` for the mapper and the deployment checker),
ECMP spreading over parallel core paths, switch-failure semantics (drop
cause ``down``, the ``node.up`` gauge, a health alert on it), and
NIC-style delivery coalescing.
"""

import pytest

from repro.andspec.model import parse_and
from repro.andspec.mapping import MappingError, map_overlay
from repro.errors import SimulationError
from repro.ncp.wire import ChunkLayout, KernelLayout, encode_frame
from repro.net import FaultPlan, Network, fat_tree, leaf_spine
from repro.net.node import ForwardingSwitchNode
from repro.net.pisanode import PisaSwitchNode
from repro.pisa.switch_dev import PisaSwitch
from repro.obs import Observability, TimeSeriesSampler

LAYOUT = KernelLayout(1, "push", [ChunkLayout("x", 4, 32, False)])


def frame_to(dst_node_id: int, seq: int = 0) -> bytes:
    return encode_frame(LAYOUT, 0, dst_node_id, seq, [[1, 2, 3, 4]])


def deliver_all(topo, pairs, **build_kwargs):
    """Build *topo*, send one frame per (src, dst) host-index pair, run,
    and return (net, delivered counts by destination host index)."""
    net = topo.build(**build_kwargs)
    hosts = [net.host(h) for h in topo.hosts]
    got = [0] * len(hosts)

    def make_counter(i):
        def count(_data: bytes) -> None:
            got[i] += 1
        return count

    for i, host in enumerate(hosts):
        host.receiver = make_counter(i)
    for src, dst in pairs:
        hosts[src].transmit(frame_to(hosts[dst].node_id), hosts[dst].node_id)
    net.run()
    return net, got


def programmable(spec):
    return [s for s in spec.switches if spec.nodes[s].programmable]


class TestGenerators:
    def test_fat_tree_k4_counts(self):
        topo = fat_tree(4)
        assert len(topo.hosts) == 16
        assert len(topo.switches) == 20
        assert len(topo.links) == 48
        assert programmable(topo) == [f"e{p}_{i}" for p in range(4) for i in range(2)]
        assert sum(s.startswith("a") for s in topo.switches) == 8
        assert sum(s.startswith("c") for s in topo.switches) == 4

    def test_fat_tree_k8_paper_scale(self):
        topo = fat_tree(8)
        assert len(topo.hosts) == 128
        assert len(topo.switches) == 80
        assert len(topo.links) == 384
        assert sum(s.startswith("c") for s in topo.switches) == 16

    def test_fat_tree_validates_arity(self):
        with pytest.raises(SimulationError, match="even"):
            fat_tree(3)
        with pytest.raises(SimulationError, match="even"):
            fat_tree(0)
        with pytest.raises(SimulationError, match="oversubscription"):
            fat_tree(4, oversubscription=0.5)

    def test_fat_tree_oversubscription_tapers_uplinks(self):
        topo = fat_tree(4, bandwidth=10e9, oversubscription=4.0)
        assert topo.link_between("h0", "e0_0").bandwidth == 10e9
        # k/2 * bandwidth / oversub = 2 * 10G / 4
        assert topo.link_between("e0_0", "a0_0").bandwidth == pytest.approx(5e9)
        assert topo.link_between("a0_0", "c0_0").bandwidth == pytest.approx(5e9)

    def test_leaf_spine_counts(self):
        topo = leaf_spine(leaves=4, spines=2, hosts_per_leaf=8)
        assert len(topo.hosts) == 32
        assert programmable(topo) == ["l0", "l1", "l2", "l3"]
        assert [s for s in topo.switches if s.startswith("s")] == ["s0", "s1"]
        # host links + leaves*spines uplinks
        assert len(topo.links) == 32 + 8
        with pytest.raises(SimulationError):
            leaf_spine(0, 2, 8)

    def test_repr(self):
        assert "fat-tree-k4" in repr(fat_tree(4))

    def test_generated_fabrics_validate(self):
        fat_tree(4).validate()
        leaf_spine(2, 2, 4).validate()


class TestBuild:
    def test_hosts_claim_low_node_ids(self):
        topo = fat_tree(4)
        net = topo.build()
        for i, name in enumerate(topo.hosts):
            assert net.host(name).node_id == i
        for switch in topo.switches:
            assert net.nodes[switch].node_id >= len(topo.hosts)
            assert isinstance(net.nodes[switch], ForwardingSwitchNode)

    def test_all_to_all_delivery_fat_tree(self):
        topo = fat_tree(4)
        n = len(topo.hosts)
        pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
        _net, got = deliver_all(topo, pairs)
        assert got == [n - 1] * n

    def test_all_to_all_delivery_leaf_spine(self):
        topo = leaf_spine(leaves=3, spines=2, hosts_per_leaf=2)
        n = len(topo.hosts)
        pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
        _net, got = deliver_all(topo, pairs)
        assert got == [n - 1] * n

    def test_ecmp_spreads_over_core_links(self):
        topo = fat_tree(4)
        n = len(topo.hosts)
        pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
        net, _ = deliver_all(topo, pairs)
        core = [
            link for link in net.links
            if link.a.name.startswith("c") or link.b.name.startswith("c")
        ]
        used = [link for link in core if link.stats.frames > 0]
        # the (src, dst) hash must light up every core link, not one
        assert len(core) == 16
        assert len(used) == len(core)

    def test_single_path_routing_concentrates(self):
        topo = fat_tree(4)
        n = len(topo.hosts)
        pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
        net, got = deliver_all(topo, pairs, ecmp=False)
        assert got == [n - 1] * n
        core = [
            link for link in net.links
            if link.a.name.startswith("c") or link.b.name.startswith("c")
        ]
        used = [link for link in core if link.stats.frames > 0]
        # shortest-path-only routing leaves parallel core links idle
        assert len(used) < len(core)

    def test_ecmp_routes_deterministic(self):
        tables = []
        for _ in range(2):
            net = fat_tree(4).build()
            tables.append(
                {name: dict(node.routes) for name, node in net.nodes.items()}
            )
        assert tables[0] == tables[1]

    def test_route_miss_drops_at_switch(self):
        topo = leaf_spine(leaves=2, spines=1, hosts_per_leaf=1)
        net = topo.build()
        h0 = net.host("h0")
        h0.receiver = lambda _d: None
        # destination node id that exists nowhere in the fabric
        h0.send(frame_to(999), 0)
        net.run()
        leaf = net.nodes["l0"]
        assert leaf.stats.drops == 1


class TestPlacementTargets:
    def test_map_overlay_places_on_programmable_tier_only(self):
        overlay = parse_and(
            "host h0\nhost h1\nswitch s\nlink h0 s\nlink h1 s"
        )
        mapping = map_overlay(overlay, fat_tree(4).graph())
        assert mapping.placement["s"].startswith("e")

    def test_map_overlay_fails_without_programmable_switches(self):
        graph = fat_tree(4).graph()
        for name in graph:
            graph.nodes[name]["programmable"] = False
        overlay = parse_and("host h0\nhost h1\nswitch s\nlink h0 s\nlink h1 s")
        with pytest.raises(MappingError):
            map_overlay(overlay, graph)

    def test_pisa_factory_runs_on_the_programmable_tier(self, allreduce_program):
        made = []

        def factory(name):
            made.append(name)
            return PisaSwitch(allreduce_program.switch_programs["s1"], name)

        topo = leaf_spine(2, 2, 2)
        net = topo.build(pisa_factory=factory)
        assert made == programmable(topo)
        assert {n for n, node in net.nodes.items() if isinstance(node, PisaSwitchNode)} == set(made)
        # the live network's view is the fabric's, minus the MTUs
        spec_view = topo.graph()
        assert dict(net.graph().nodes(data=True)) == dict(spec_view.nodes(data=True))
        assert sorted(map(sorted, net.graph().edges)) == sorted(map(sorted, spec_view.edges))


def two_host_line(obs=None):
    """h0 -- s -- h1 (links 0 and 1) with explicit construction (no
    generator), so the failure tests control every timing."""
    net = Network(obs=obs)
    net.add_host("h0")
    net.add_host("h1")
    net.add_forwarding_switch("s")
    net.add_link("h0", "s")
    net.add_link("s", "h1")
    net.compute_routes()
    got = []
    net.host("h1").receiver = got.append
    return net, got


def node_fails(name, at=0.0):
    return FaultPlan(events=((at, "down", name),))


class TestFailSwitch:
    def test_immediate_failure_drops_with_cause_down(self):
        net, got = two_host_line()
        h1 = net.host("h1")
        net.inject(node_fails("s"))
        net.host("h0").transmit(frame_to(h1.node_id), h1.node_id)
        net.run()
        assert got == []
        # the frame died on arrival at the downed switch
        assert net.link_between("h0", "s").stats.drops_down == 1

    def test_in_flight_frames_drop_at_downed_node(self):
        net, got = two_host_line()
        h1 = net.host("h1")
        net.host("h0").transmit(frame_to(h1.node_id), h1.node_id)
        # fail while the frame is serializing toward the switch: it is
        # already in the delivery pipe, and must still die there
        net.inject(node_fails("s", at=5e-7))
        net.run()
        assert got == []
        assert net.link_between("h0", "s").stats.drops_down == 1
        assert net.link_between("s", "h1").stats.drops_down == 0

    def test_downed_sender_drops_at_transmit(self):
        net, got = two_host_line()
        h1 = net.host("h1")
        # a node event works on any node: a downed host cannot transmit
        net.inject(node_fails("h0"))
        net.host("h0").transmit(frame_to(h1.node_id), h1.node_id)
        net.run()
        assert got == []
        assert net.link_between("h0", "s").stats.drops_down == 1
        assert net.link_between("h0", "s").stats.frames == 0

    def test_recovery_resumes_delivery(self):
        net, got = two_host_line()
        h1 = net.host("h1")
        net.inject(node_fails("s"))
        net.host("h0").transmit(frame_to(h1.node_id), h1.node_id)
        net.run()
        assert got == []
        net.inject(FaultPlan(events=((net.sim.now(), "up", "s"),)))
        net.host("h0").transmit(frame_to(h1.node_id, seq=1), h1.node_id)
        net.run()
        assert len(got) == 1

    def test_unknown_node_rejected(self):
        net, _ = two_host_line()
        with pytest.raises(SimulationError, match="no node"):
            net.inject(node_fails("ghost"))

    def test_node_up_gauge_in_snapshot(self):
        obs = Observability()
        net = Network(obs=obs)
        net.add_host("h0")
        net.add_host("h1")
        net.add_forwarding_switch("s")
        net.add_link("h0", "s")
        net.add_link("s", "h1")
        net.compute_routes()
        net.inject(node_fails("s"))
        snap = obs.registry.snapshot()
        up = {
            s["labels"]["node"]: s["value"]
            for s in snap["node.up"]["series"]
        }
        assert up == {"h0": 1, "h1": 1, "s": 0}

    def test_health_alert_fires_on_down_drops(self):
        sampler = TimeSeriesSampler(
            1e-6, rules=["dead: link.drops{cause=down} rate > 0 over 2us !critical"]
        )
        obs = Observability(sampler=sampler)
        net = Network(obs=obs)
        net.add_host("h0")
        net.add_host("h1")
        net.add_forwarding_switch("s")
        net.add_link("h0", "s")
        net.add_link("s", "h1")
        net.compute_routes()
        got = []
        net.host("h1").receiver = got.append
        h1 = net.host("h1")
        net.inject(node_fails("s", at=5e-7))
        for i in range(12):
            net.host("h0").transmit(
                frame_to(h1.node_id, seq=i), h1.node_id
            )
        net.run()
        sampler.finish(net.sim.now())
        assert got == []
        assert [a.rule.name for a in sampler.alerts] == ["dead"]
        assert sampler.alerts[0].rule.escalates
        names = [e.name for e in obs.tracer.events if e.track == "health"]
        assert "alert:firing" in names
