"""One physical description, one placement rule, one path rule: the
overlay mapper, the simulator's routes and check-deploy agree on every
fabric.

All three read a :class:`repro.andspec.FabricSpec` (or a live network)
through the same graph view and decide with the same helpers:

* paths -- :meth:`repro.andspec.mapping.Adjacency.search` chooses a node's
  single-path routes, hosts endpoints and never interior nodes;
  single-path ``Network.compute_routes`` installs its first hops, and
  ``map_overlay`` and check-deploy judge each overlay edge, in both
  directions, by the route those tables give
  (:class:`repro.andspec.mapping.Routes`): it must cross no other mapped
  switch of the tenant (else ``MappingError`` / NCL0930), and
  NCL0940/0941 read its narrowest link and switch-hop count. ECMP routes
  only spread flows over equal-cost paths through switches, by hop counts
  from the same search (:class:`repro.andspec.mapping.Adjacency`), and
  are held here to a networkx subgraph view of their own
  (:func:`transit_view`);
* placement targets -- a switch is one iff it has a chip profile (the
  generators give one to the tier hosts plug into);
* host placement -- :func:`repro.andspec.place_hosts` (pins, then name
  matches, then free hosts in declaration order).

The route tables of ``fat_tree(8)``, ``leaf_spine(4, 2, 4)`` and the
Fig 4 star are pinned against digests captured at 215f809, before the
transit rule was shared (``tests/golden/route_tables.json``): on fabrics
whose hosts have one link each the rule moves no route.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import networkx as nx
import pytest

from repro.analysis.deploy import (
    Deployment,
    TenantDeployment,
    check_deployment,
    parse_deployment,
)
from repro.analysis.deploy.report import admission_ledger
from repro.andspec import map_overlay, parse_and, parse_fabric
from repro.apps.allreduce import AllReduceJob
from repro.errors import MappingError
from repro.ncp.wire import ChunkLayout, KernelLayout, encode_frame
from repro.nclc import Compiler, WindowConfig
from repro.net import fat_tree, leaf_spine
from repro.net.node import HostNode
from repro.pisa.switch_dev import PisaSwitch
from repro.runtime.cluster import Cluster

REPO = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden" / "route_tables.json"


def transit_view(graph, ends):
    """The part of *graph* a path between *ends* may use: every switch,
    plus the ends themselves (a view, not a copy) -- written here, apart
    from the search the simulator routes by, so it stays a reference."""
    keep = set(ends)
    return nx.subgraph_view(
        graph, filter_node=lambda n: n in keep or graph.nodes[n]["kind"] == "switch"
    )


#: a host ``m`` between sA and sB: a path through it is two hops shorter
#: than the switch path sA - t1 - t2 - sB, but m does not forward
MULTIHOMED = """
host   w0
host   w1
host   m
switch sA
switch sB
switch t1
switch t2
link   w0 sA
link   w1 sB
link   sA m
link   m sB
link   sA t1
link   t1 t2
link   t2 sB
"""
#: a direct 80-byte sw0 -- swx link beside a 9000-byte detour through t;
#: the single-path route from sw0 to trainer1 is the short, narrow one
DETOUR = """
switch sw0
switch swx
switch t
host   trainer0
host   trainer1
link   trainer0 sw0
link   trainer1 swx
link   sw0 swx mtu=80
link   sw0 t mtu=9000
link   t swx mtu=9000
"""
FIG4_STAR = "switch s1\n" + "".join(f"host w{i}\nlink w{i} s1\n" for i in range(4))
CHAIN_AND = "host w0\nhost w1\nswitch x\nswitch y\nlink w0 x\nlink x y\nlink y w1"
STAR_AND = "host w0\nhost w1\nswitch s1\nlink w0 s1\nlink w1 s1"
PUSH_NCL = r"""
_net_ _at_("LABEL") unsigned seen[1] = {0};
_net_ _out_ _at_("LABEL") void push(unsigned *d) { seen[0] += d[0]; }
"""
LAYOUT = KernelLayout(1, "push", [ChunkLayout("x", 4, 32, False)])


def compile_push(and_text: str, label: str):
    return Compiler().compile(
        PUSH_NCL.replace("LABEL", label),
        and_text=and_text,
        windows={"push": WindowConfig(mask=(1,))},
    )


def deploy(fabric, program, placement, host_pins=None):
    tenant = TenantDeployment(
        "t", program, placement=placement, host_pins=host_pins
    )
    return tenant, check_deployment(Deployment(fabric, [tenant]))


def deploy_example_fabric():
    """The fabric half of examples/deploy/multi_tenant.deploy."""
    text = (REPO / "examples/deploy/multi_tenant.deploy").read_text()
    return parse_fabric("\n".join(
        line for line in text.splitlines()
        if line.split()[:1] in (["switch"], ["host"], ["link"])
    ))


FABRICS = {
    "fat_tree(4)": lambda: fat_tree(4),
    "leaf_spine(2,2,2)": lambda: leaf_spine(2, 2, 2),
    "examples/deploy": deploy_example_fabric,
    "multihomed": lambda: parse_fabric(MULTIHOMED),
}


def programmable(spec):
    return [s for s in spec.switches if spec.nodes[s].programmable]


def route_digest(net) -> str:
    tables = {
        name: [[dst, port] for dst, port in node.routes.items()]
        for name, node in sorted(net.nodes.items())
    }
    return hashlib.sha256(json.dumps(tables, sort_keys=True).encode()).hexdigest()


def follow_overlay(cluster, u: str, v: str):
    """The physical path a frame from overlay node *u* to overlay node
    *v* takes in a mapped *cluster*: frames carry AND node ids, which
    ``deploy_mapped`` aliases onto the physical routes."""
    place = cluster.mapping.placement
    net = cluster.network
    node, target = net.nodes[place[u]], cluster.program.and_spec.node(v).node_id
    path = [node.name]
    while node.name != place[v] and len(path) <= len(net.nodes):
        node = node.links[node.routes[target]].other(node)
        path.append(node.name)
    return path


def follow(net, src: str, dst: str):
    """The node path a frame from *src* to *dst* takes, read off the
    installed route tables hop by hop."""
    node, target = net.nodes[src], net.nodes[dst].node_id
    path = [src]
    while node.name != dst and len(path) <= len(net.nodes):
        node = node.links[node.routes[target]].other(node)
        path.append(node.name)
    return path


# ---------------------------------------------------------------------------
# transit: hosts do not forward
# ---------------------------------------------------------------------------


class TestMultihomedHost:
    def test_mapper_routes_the_overlay_edge_over_switches(self):
        mapping = map_overlay(
            parse_and(CHAIN_AND), parse_fabric(MULTIHOMED).graph()
        )
        assert (mapping.placement["x"], mapping.placement["y"]) == ("sA", "sB")
        assert mapping.edge_paths[("x", "y")] == ["sA", "t1", "t2", "sB"]

    @pytest.mark.parametrize("ecmp", [False, True])
    def test_the_frame_reaches_w1_not_m(self, ecmp):
        net = parse_fabric(MULTIHOMED).build(ecmp=ecmp)
        assert follow(net, "w0", "w1") == ["w0", "sA", "t1", "t2", "sB", "w1"]
        got = {name: [] for name in ("w0", "w1", "m")}
        for name, frames in got.items():
            net.host(name).receiver = frames.append
        w0, w1 = net.host("w0"), net.host("w1")
        data = encode_frame(LAYOUT, w0.node_id, w1.node_id, 0, [[1, 2, 3, 4]])
        w0.transmit(data, w1.node_id)
        net.run()
        assert got == {"w0": [], "w1": [data], "m": []}

    def test_check_deploy_routes_the_same_path(self):
        fabric = parse_fabric(MULTIHOMED)
        tenant, ctx = deploy(
            fabric, compile_push(CHAIN_AND, "x"), {"x": "sA", "y": "sB"}
        )
        assert ctx.edge_paths(tenant)[("x", "y")].path == ["sA", "t1", "t2", "sB"]
        assert not [d for d in ctx.sink.sorted() if d.code.startswith("NCL093")]


# ---------------------------------------------------------------------------
# placement targets and host placement: the mapper and check-deploy agree
# ---------------------------------------------------------------------------


class TestPlacementTargets:
    def test_leaf_spine_maps_onto_its_leaves(self):
        spec = leaf_spine(2, 2, 2)
        mapping = map_overlay(parse_and(STAR_AND), spec.graph())
        assert mapping.placement["s1"] == "l0"
        program = compile_push(STAR_AND, "s1")
        _tenant, ctx = deploy(spec, program, {"s1": "l0"})
        assert not [d for d in ctx.sink.sorted() if d.code.startswith("NCL093")]
        _tenant, ctx = deploy(spec, program, {"s1": "s0"})
        [finding] = [d for d in ctx.sink.sorted() if d.code == "NCL0932"]
        assert "'s0', a switch with no chip profile" in finding.message

    def test_fat_tree_targets_are_the_edge_tier_for_both(self):
        spec = fat_tree(4)
        edges = [f"e{pod}_{i}" for pod in range(4) for i in range(2)]
        assert programmable(spec) == edges
        nine = parse_and(
            "host w0\n" + "".join(f"switch s{i}\n" for i in range(9))
            + "link w0 s0\n"
            + "".join(f"link s{i} s{i + 1}\n" for i in range(8))
        )
        with pytest.raises(MappingError, match="needs 9 switches but the physical network has 8"):
            map_overlay(nine, spec.graph())
        _tenant, ctx = deploy(spec, compile_push(STAR_AND, "s1"), {"s1": "e0_0"})
        assert list(admission_ledger(ctx)) == sorted(edges)

    def test_a_name_match_wins_over_a_free_host(self):
        spec = parse_fabric("switch sw\nhost b\nhost x\nlink b sw\nlink x sw")
        and_text = "host a\nhost b\nswitch s1\nlink a s1\nlink b s1"
        mapping = map_overlay(parse_and(and_text), spec.graph())
        tenant, ctx = deploy(spec, compile_push(and_text, "s1"), {"s1": "sw"})
        assignment, problems = ctx.host_assignment(tenant)
        assert problems == []
        assert {k: mapping.placement[k] for k in ("a", "b")} == assignment == {
            "a": "x", "b": "b",
        }


# ---------------------------------------------------------------------------
# the model check-deploy admits equals what the simulator instantiates
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(FABRICS))
class TestModelMatchesSimulator:
    @pytest.mark.parametrize("ecmp", [False, True])
    def test_host_routes_cross_switches_only_on_shortest_paths(self, name, ecmp):
        spec = FABRICS[name]()
        graph = spec.graph()
        net = spec.build(ecmp=ecmp)
        for src in spec.hosts:
            for dst in spec.hosts:
                if src == dst:
                    continue
                path = follow(net, src, dst)
                assert path[-1] == dst
                assert all(not isinstance(net.nodes[n], HostNode) for n in path[1:-1])
                assert len(path) - 1 == nx.shortest_path_length(
                    transit_view(graph, (src, dst)), src, dst
                )

    def test_a_mapped_star_is_admitted_as_placed(self, name):
        spec = FABRICS[name]()
        program = compile_push(STAR_AND, "s1")
        mapping = map_overlay(program.and_spec, spec.graph())
        _tenant, ctx = deploy(
            spec, program, {"s1": mapping.placement["s1"]},
            {h: mapping.placement[h] for h in ("w0", "w1")},
        )
        assert [d.code for d in ctx.sink.sorted() if d.code.startswith("NCL093")] == []


# ---------------------------------------------------------------------------
# one path rule: the mapper and check-deploy judge the installed route
# ---------------------------------------------------------------------------


AGREEMENT = dict(
    FABRICS,
    **{"fig4 star": lambda: parse_fabric(FIG4_STAR), "detour": lambda: parse_fabric(DETOUR)},
)


#: overlay -> (AND text, the label its kernel runs at)
OVERLAYS = {"star": (STAR_AND, "s1"), "chain": (CHAIN_AND, "x")}


@pytest.mark.parametrize(
    "name,overlay",
    [(name, "star") for name in sorted(AGREEMENT)]
    + [(name, "chain") for name in sorted(AGREEMENT) if name != "fig4 star"],
)
def test_mapper_check_deploy_and_installed_routes_are_one_path(name, overlay):
    spec = AGREEMENT[name]()
    and_text, label = OVERLAYS[overlay]
    program = compile_push(and_text, label)
    # the chain's ends on the first and last host, so x and y both route
    pins = {"w0": spec.hosts[0], "w1": spec.hosts[-1]} if overlay == "chain" else None
    mapping = map_overlay(program.and_spec, spec.graph(), pins)
    switches = [n.label for n in program.and_spec.switches]
    hosts = [n.label for n in program.and_spec.hosts]
    tenant, ctx = deploy(
        spec, program,
        {s: mapping.placement[s] for s in switches},
        {h: mapping.placement[h] for h in hosts},
    )
    assert [d.code for d in ctx.sink.sorted() if d.code.startswith("NCL093")] == []
    p4 = program.switch_programs[label]
    cluster = Cluster.deploy_mapped(
        program,
        spec.build(pisa_factory=lambda sw: PisaSwitch(p4, sw)),
        host_pin={h: mapping.placement[h] for h in hosts},
    )
    assert cluster.mapping.placement == mapping.placement
    for a, b in program.and_spec.edges:
        for u, v in ((a, b), (b, a)):
            walked = follow_overlay(cluster, u, v)
            assert mapping.edge_paths[(u, v)] == walked
            assert ctx.edge_paths(tenant)[(u, v)].path == walked
            assert cluster.mapping.edge_paths[(u, v)] == walked


class TestDetour:
    """Frames from sw0 to trainer1 take the direct 80-byte link, so that
    is the link check-deploy judges, not the wider detour through t."""

    MANIFEST = DETOUR + (
        f"tenant training {REPO}/examples/deploy/allreduce.ncl "
        f"and={REPO}/examples/deploy/allreduce.and\n"
        "define training DATA_LEN=64\n"
        "define training WIN_LEN=8\n"
        "window training allreduce=8 len=8\n"
        "map    training s1=sw0\n"
        "pin    training w0=trainer0 w1=trainer1\n"
    )

    def test_the_installed_route_takes_the_narrow_link(self):
        net = parse_fabric(DETOUR).build(ecmp=False)
        assert follow(net, "sw0", "trainer1") == ["sw0", "swx", "trainer1"]
        assert follow(net, "trainer1", "sw0") == ["trainer1", "swx", "sw0"]

    def test_check_deploy_rejects_windows_wider_than_the_route(self):
        ctx = check_deployment(parse_deployment(self.MANIFEST, "detour.deploy"))
        [finding] = [d for d in ctx.sink.sorted() if d.code == "NCL0940"]
        assert "puts 90 bytes on the wire" in finding.message
        assert "routed path bottlenecks at 80 bytes (link sw0 -- swx)" in finding.message


class TestInterposedSwitch:
    """An overlay edge whose route crosses another mapped switch is
    refused even when a detour around that switch exists: frames take
    the route, not the detour."""

    #: a line a - b - c with a longer detour a - d - e - c
    FABRIC = """
switch a
switch b
switch c
switch d
switch e
host   w0
link   w0 a
link   a b
link   b c
link   a d
link   d e
link   e c
"""
    AND = "host w0\nswitch x\nswitch y\nswitch z\nlink w0 x\nlink x y\nlink x z"

    def test_check_deploy_refuses_the_route(self):
        spec = parse_fabric(self.FABRIC)
        assert follow(spec.build(ecmp=False), "a", "c") == ["a", "b", "c"]
        _tenant, ctx = deploy(
            spec, compile_push(self.AND, "x"), {"x": "a", "y": "c", "z": "b"}
        )
        [finding] = [d for d in ctx.sink.sorted() if d.code == "NCL0930"]
        assert "overlay edge x -- y is unrealizable" in finding.message
        assert "the route between them crosses another of the tenant's mapped" in finding.message


class TestRouteTablesPinned:
    @pytest.fixture(scope="class")
    def golden(self):
        return json.loads(GOLDEN.read_text())["routes"]

    def test_fat_tree_8(self, golden):
        assert route_digest(fat_tree(8).build()) == golden["fat_tree(8)"]

    def test_leaf_spine_4_2_4(self, golden):
        assert route_digest(leaf_spine(4, 2, 4).build()) == golden["leaf_spine(4,2,4)"]

    def test_fig4_star(self, golden):
        job = AllReduceJob(4, 256, 8, multiround=True)
        assert route_digest(job.cluster.network) == golden["fig4 star"]
