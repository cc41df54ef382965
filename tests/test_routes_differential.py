"""``Network.compute_routes`` against the routes the parent installed
(``tests/routes_oracle.py``): one switches-only search per root, read as
first hops for single-path and as hop counts for ECMP, must install the
same routes in the same order as a ``route_tree`` per source and a
networkx shortest-path search per destination.

Every node's ``list(routes.items())`` is compared, so the order routes
are installed in -- which is the order of a PISA switch's
``ipv4_route`` entries -- is held too, over the generated fabrics, the
Fig 4 star, the multi-homed and detour fabrics of
``tests/test_placement_agreement.py`` and generated networks with
multi-homed hosts, host-to-host links, parallel links and disconnected
parts.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.andspec import parse_fabric
from repro.ncp.wire import node_ip
from repro.net import fat_tree, leaf_spine
from repro.net.network import Network
from repro.pisa.switch_dev import PisaSwitch

from tests import routes_oracle
from tests.test_placement_agreement import (
    DETOUR,
    FIG4_STAR,
    MULTIHOMED,
    STAR_AND,
    compile_push,
)

FABRICS = {
    "fat_tree(4)": lambda: fat_tree(4),
    "fat_tree(8)": lambda: fat_tree(8),
    "leaf_spine(2,2,2)": lambda: leaf_spine(2, 2, 2),
    "leaf_spine(4,2,4)": lambda: leaf_spine(4, 2, 4),
    "leaf_spine(3,3,1)": lambda: leaf_spine(3, 3, 1),
    "fig4 star": lambda: parse_fabric(FIG4_STAR),
    "multihomed": lambda: parse_fabric(MULTIHOMED),
    "detour": lambda: parse_fabric(DETOUR),
}


def unrouted(spec, pisa=None) -> Network:
    """*spec* built as ``FabricSpec.build`` builds it, before routes are
    installed; ``pisa`` makes the programmable switches PISA devices."""
    net = Network()
    for name in spec.hosts:
        net.add_host(name)
    for name in spec.switches:
        if pisa is not None and spec.nodes[name].programmable:
            net.add_pisa_switch(name, PisaSwitch(pisa, name))
        else:
            net.add_forwarding_switch(name)
    for link in spec.links:
        net.add_link(link.a, link.b)
    return net


def tables(net: Network):
    return {name: list(node.routes.items()) for name, node in net.nodes.items()}


def assert_same_routes(make, ecmp):
    net, ref = make(), make()
    net.compute_routes(ecmp=ecmp)
    routes_oracle.compute_routes(ref, ecmp=ecmp)
    assert tables(net) == tables(ref)
    return net, ref


@pytest.mark.parametrize("ecmp", [False, True], ids=["single", "ecmp"])
@pytest.mark.parametrize("name", sorted(FABRICS))
def test_fabric_routes_match_the_parent(name, ecmp):
    spec = FABRICS[name]()
    net, _ = assert_same_routes(lambda: unrouted(spec), ecmp)
    assert tables(spec.build(ecmp=ecmp)) == tables(net)


@pytest.mark.parametrize("ecmp", [False, True], ids=["single", "ecmp"])
def test_pisa_route_entries_match_the_parent(ecmp):
    """A PISA switch gets its routes as ``ipv4_route`` entries too, in
    install order."""
    p4 = compile_push(STAR_AND, "s1").switch_programs["s1"]
    net, ref = assert_same_routes(lambda: unrouted(leaf_spine(2, 2, 2), p4), ecmp)
    leaves = [name for name in net.nodes if name.startswith("l")]
    assert leaves
    for name in leaves:
        got, want = (
            [(e.match, e.action, e.args) for e in n.nodes[name].switch.table_entries("ipv4_route")]
            for n in (net, ref)
        )
        assert got == want == [
            ([node_ip(dst)], "ipv4_forward", [port])
            for dst, port in net.nodes[name].routes.items()
        ]


@st.composite
def networks(draw):
    """Up to 9 nodes, hosts and switches interleaved in declaration
    order, with any links between distinct nodes -- a host may have
    several, two hosts may share one, a pair may be linked twice, and
    parts may be cut off from each other."""
    kinds = draw(st.lists(st.sampled_from(["host", "switch"]), min_size=1, max_size=9))
    names = [f"{kind[0]}{i}" for i, kind in enumerate(kinds)]
    order = draw(st.permutations(range(len(names))))
    pairs = st.tuples(*[st.integers(0, len(names) - 1)] * 2).filter(lambda p: p[0] != p[1])
    links = draw(st.lists(pairs, max_size=14))
    links += draw(st.lists(st.sampled_from(links), max_size=3)) if links else []

    def make():
        net = Network()
        for i in order:
            if kinds[i] == "host":
                net.add_host(names[i])
            else:
                net.add_forwarding_switch(names[i])
        for a, b in links:
            net.add_link(names[a], names[b])
        return net

    return make


@settings(max_examples=300, deadline=None)
@given(networks(), st.booleans())
def test_generated_network_routes_match_the_parent(make, ecmp):
    assert_same_routes(make, ecmp)
