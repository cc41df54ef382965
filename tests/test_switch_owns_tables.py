"""A PISA switch owns its tables: entries installed on one switch are
seen by no other switch, and no other cluster, built from the same
compiled program -- the program itself is never written."""

from __future__ import annotations

from repro.apps.kvs_cache import KvsCluster
from repro.ncp.wire import ChunkLayout, KernelLayout, encode_frame, node_ip
from repro.net import leaf_spine
from repro.pisa.switch_dev import PisaSwitch

from tests.test_placement_agreement import STAR_AND, compile_push


def test_two_clusters_from_one_program_cache_their_own_keys():
    program = KvsCluster.compile_program(1, 16, 2)
    a = KvsCluster(1, 16, 2, n_keys=64, program=program)
    b = KvsCluster(1, 16, 2, n_keys=64, program=program)
    a.install_hot_keys([5])
    b.install_hot_keys([9])
    b.get(0, 5)
    b.get(0, 9)
    b.run()
    five, nine = sorted(b.records, key=lambda r: r.key)
    assert (five.key, five.served_by_cache, five.value) == (5, False, b.store[5])
    assert (nine.key, nine.served_by_cache, nine.value) == (9, True, b.store[9])
    assert a.cluster.controller.map_entries("Idx") == {5: 0}
    assert b.cluster.controller.map_entries("Idx") == {9: 0}
    assert all(not t.entries for t in program.switch_programs["s1"].tables.values())


def test_switches_sharing_a_program_route_by_their_own_tables():
    """Both leaves of a leaf-spine run one P4 program object; each must
    forward by its own ``ipv4_route`` entries, or frames loop between
    the tiers. ``max_events`` turns a loop into a failure, not a hang."""
    p4 = compile_push(STAR_AND, "s1").switch_programs["s1"]
    topo = leaf_spine(2, 2, 2)
    net = topo.build(pisa_factory=lambda name: PisaSwitch(p4, name))
    # a kernel no switch runs: every frame is forwarded by ipv4_route
    layout = KernelLayout(0x77, "other", [ChunkLayout("x", 1, 8, False)])
    got = {name: 0 for name in topo.hosts}
    for name in topo.hosts:
        net.host(name).receiver = lambda _data, name=name: got.__setitem__(name, got[name] + 1)
    for src in topo.hosts:
        for dst in topo.hosts:
            if src != dst:
                dst_id = net.host(dst).node_id
                frame = encode_frame(layout, net.host(src).node_id, dst_id, 0, [[7]])
                net.host(src).transmit(frame, dst_id)
    net.sim.run(max_events=10_000)
    assert got == {name: len(topo.hosts) - 1 for name in topo.hosts}
    for leaf in ("l0", "l1"):
        node = net.nodes[leaf]
        assert [(e.match, e.args) for e in node.switch.table_entries("ipv4_route")] == [
            ([node_ip(dst)], [port]) for dst, port in node.routes.items()
        ]
