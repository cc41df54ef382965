"""Fig 3c -- mapping the AND overlay onto a physical network.

The paper assumes a placement mechanism (S3.2, citing Switches-for-HIRE)
that maps functional components to physical devices and populates
routing. This bench exercises ours: overlays of growing size mapped onto
leaf-spine-ish physical topologies, reporting feasibility and mapper
latency; plus a deployed-and-verified end-to-end check through a mapped
(non-1:1) topology.
"""

import time


from repro.andspec import FabricSpec, map_overlay, parse_and
from repro.nclc import Compiler, WindowConfig
from repro.net.network import Network
from repro.runtime.cluster import Cluster

from benchmarks._util import print_table, record_once


def leaf_spine(n_leaves: int, n_hosts_per_leaf: int) -> FabricSpec:
    """One spine over *n_leaves* leaves; every switch is programmable."""
    phys = FabricSpec()
    phys.add_switch("spine")
    for leaf in range(n_leaves):
        phys.add_switch(f"leaf{leaf}")
        phys.add_link(f"leaf{leaf}", "spine")
        for h in range(n_hosts_per_leaf):
            name = f"h{leaf}_{h}"
            phys.add_host(name)
            phys.add_link(name, f"leaf{leaf}")
    return phys


def star_overlay(n_hosts: int) -> str:
    lines = [f"host w{i}" for i in range(n_hosts)] + ["switch s1"]
    lines += [f"link w{i} s1" for i in range(n_hosts)]
    return "\n".join(lines)


def test_fig3c_mapping_sweep(benchmark):
    rows = []

    def sweep():
        for n_hosts, n_leaves in [(2, 2), (4, 2), (4, 4), (8, 4)]:
            overlay = parse_and(star_overlay(n_hosts))
            phys = leaf_spine(n_leaves, max(2, n_hosts // n_leaves + 1)).graph()
            t0 = time.perf_counter()
            mapping = map_overlay(overlay, phys)
            elapsed = (time.perf_counter() - t0) * 1e3
            rows.append(
                [
                    f"{n_hosts}h+1s",
                    f"{n_leaves} leaves",
                    mapping.placement["s1"],
                    f"{elapsed:.2f}",
                ]
            )

    record_once(benchmark, sweep)
    print_table(
        "Fig 3c: overlay -> physical placement",
        ["overlay", "physical", "switch placed at", "mapper ms"],
        rows,
    )


SIMPLE_NCL = r"""
_net_ _at_("s1") unsigned total[1] = {0};
_net_ _out_ void addup(unsigned *d) { total[0] += d[0]; d[0] = total[0]; }
_net_ _in_ void got(unsigned *d, _ext_ unsigned *out) { out[0] = d[0]; }
"""


def test_fig3c_mapped_deployment_end_to_end(benchmark):
    """Deploy the overlay onto a larger physical network (the Fig 3c
    picture: logical h1-s1-h2 riding on a multi-switch fabric) and verify
    in-network execution still happens at the mapped switch."""

    def run():
        program = Compiler().compile(
            SIMPLE_NCL,
            and_text="host src\nhost dst\nswitch s1\nlink src s1\nlink s1 dst",
            windows={"addup": WindowConfig(mask=(1,))},
        )
        net = Network()
        net.add_host("src")
        net.add_host("dst")
        net.add_host("bystander")
        from repro.pisa.switch_dev import PisaSwitch

        # physical fabric: two candidate PISA switches in a chain
        for name in ("p0", "p1"):
            net.add_pisa_switch(name, PisaSwitch(program.switch_programs["s1"], name))
        net.add_link("src", "p0")
        net.add_link("p0", "p1")
        net.add_link("p1", "dst")
        net.add_link("bystander", "p1")
        cluster = Cluster.deploy_mapped(program, net)
        out = [0]
        cluster.host("dst").register_in("got", [out])
        cluster.host("src").out("addup", [[41]], dst="dst")
        cluster.run()
        assert out[0] == 41
        mapped_to = cluster.mapping.placement["s1"]
        assert mapped_to in ("p0", "p1")
        return mapped_to

    placed = record_once(benchmark, run)
    print(f"\noverlay switch s1 placed on physical {placed}; window executed there.")
