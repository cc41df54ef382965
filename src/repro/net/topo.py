"""Datacenter topology generators: k-ary fat-trees and leaf-spines.

A generator returns a :class:`repro.andspec.fabric.FabricSpec` -- the
one physical description the simulator
(:meth:`~repro.andspec.fabric.FabricSpec.build`), the overlay mapper and
the deployment checker (:meth:`~repro.andspec.fabric.FabricSpec.graph`)
all read. Hosts come in pod-major order; links carry per-tier
bandwidths. The tier hosts plug into (fat-tree edge switches, leaves)
gets the ``bmv2`` chip profile, so it is where kernels are placed -- where
the paper puts INC kernels; aggregation, core and spine switches have no
profile and only forward.

The ``oversubscription`` knob divides uplink bandwidth (edge->agg,
agg->core; leaf->spine) by the given factor, modelling the usual
tapered datacenter designs (1.0 = full bisection bandwidth).
"""

from __future__ import annotations

from repro.andspec.fabric import DEFAULT_BANDWIDTH, FabricSpec
from repro.errors import SimulationError


def fat_tree(
    k: int,
    bandwidth: float = DEFAULT_BANDWIDTH,
    oversubscription: float = 1.0,
) -> FabricSpec:
    """The classic k-ary fat-tree (Al-Fares et al.): k pods, each with
    k/2 edge and k/2 aggregation switches, (k/2)^2 core switches, and
    k^3/4 hosts.  k=8 gives the paper-scale fabric: 128 hosts, 80
    switches, 384 links.

    Names: hosts ``h{i}`` (pod-major order), edge ``e{pod}_{i}``,
    aggregation ``a{pod}_{i}``, core ``c{group}_{i}`` where *group* is
    the aggregation index the core switch connects to in every pod.
    """
    if k < 2 or k % 2:
        raise SimulationError(f"fat-tree arity must be even and >= 2, got {k}")
    if oversubscription < 1.0:
        raise SimulationError("oversubscription factor must be >= 1.0")
    half = k // 2
    uplink = bandwidth * half / oversubscription
    spec = FabricSpec(f"fat-tree-k{k}")
    for group in range(half):
        for i in range(half):
            spec.add_switch(f"c{group}_{i}", profile=None)
    host = 0
    for pod in range(k):
        for e in range(half):
            edge = f"e{pod}_{e}"
            spec.add_switch(edge)
            for _ in range(half):
                name = f"h{host}"
                spec.add_host(name)
                spec.add_link(name, edge, bandwidth=bandwidth)
                host += 1
        for a in range(half):
            agg = f"a{pod}_{a}"
            spec.add_switch(agg, profile=None)
            for e in range(half):
                spec.add_link(f"e{pod}_{e}", agg, bandwidth=uplink)
            for i in range(half):
                spec.add_link(agg, f"c{a}_{i}", bandwidth=uplink)
    return spec


def leaf_spine(
    leaves: int,
    spines: int,
    hosts_per_leaf: int,
    bandwidth: float = DEFAULT_BANDWIDTH,
    oversubscription: float = 1.0,
) -> FabricSpec:
    """A two-tier leaf-spine Clos: every leaf connects to every spine.

    Names: hosts ``h{i}``, leaves ``l{i}``, spines ``s{i}``.  Uplink
    bandwidth is sized for full bisection (``hosts_per_leaf * bandwidth
    / spines``) divided by the oversubscription factor.
    """
    if leaves < 1 or spines < 1 or hosts_per_leaf < 1:
        raise SimulationError("leaf-spine dimensions must be positive")
    if oversubscription < 1.0:
        raise SimulationError("oversubscription factor must be >= 1.0")
    uplink = hosts_per_leaf * bandwidth / spines / oversubscription
    spec = FabricSpec(f"leaf-spine-{leaves}x{spines}")
    for s in range(spines):
        spec.add_switch(f"s{s}", profile=None)
    host = 0
    for leaf in range(leaves):
        name = f"l{leaf}"
        spec.add_switch(name)
        for _ in range(hosts_per_leaf):
            spec.add_host(f"h{host}")
            spec.add_link(f"h{host}", name, bandwidth=bandwidth)
            host += 1
        for s in range(spines):
            spec.add_link(name, f"s{s}", bandwidth=uplink)
    return spec
