"""Overlay-to-physical network mapping.

The paper assumes "a mechanism that maps the overlay network of the AND
file into a physical network and allocates network resources" (S3.2,
citing Switches-for-HIRE). This module provides a concrete such
mechanism for the simulator:

* overlay hosts are mapped to physical hosts;
* overlay switches are mapped to distinct physical switches;
* every overlay edge (u, v) must map to a physical path between the
  images of u and v that traverses **no other mapped switch** -- this is
  what preserves on-path kernel execution order.

The mapper does exhaustive search with pruning over switch placements
(overlays are small -- a handful of functional components), after pinning
hosts either by an explicit assignment or by name match.
"""

from __future__ import annotations

from itertools import permutations
from typing import Dict, List, Optional, Sequence, Tuple

import networkx as nx

from repro.errors import MappingError
from repro.andspec.model import AndSpec


class PhysicalNet:
    """A physical topology the mapper can target.

    Thin wrapper over an undirected networkx graph whose nodes carry a
    ``kind`` attribute (``host``/``switch``). The network simulator's
    :class:`repro.net.topology.Topology` exposes a conversion to this.
    """

    def __init__(self) -> None:
        self.graph = nx.Graph()

    def add_host(self, name: str) -> None:
        self.graph.add_node(name, kind="host")

    def add_switch(self, name: str, pisa: bool = True) -> None:
        """Add a switch; ``pisa=False`` marks a plain forwarder (e.g. a
        fat-tree aggregation/core tier) that can carry traffic but not
        host kernels -- the mapper will route through it, never place on
        it."""
        self.graph.add_node(name, kind="switch", pisa=pisa)

    def add_link(self, a: str, b: str) -> None:
        for n in (a, b):
            if n not in self.graph:
                raise MappingError(f"link references unknown physical node {n!r}")
        self.graph.add_edge(a, b)

    def hosts(self) -> List[str]:
        return [n for n, d in self.graph.nodes(data=True) if d["kind"] == "host"]

    def switches(self) -> List[str]:
        return [n for n, d in self.graph.nodes(data=True) if d["kind"] == "switch"]

    def pisa_switches(self) -> List[str]:
        """Switches that can host kernels (programmable targets only)."""
        return [
            n for n, d in self.graph.nodes(data=True)
            if d["kind"] == "switch" and d.get("pisa", True)
        ]


class Mapping:
    """Result of a successful overlay mapping."""

    def __init__(
        self,
        placement: Dict[str, str],
        edge_paths: Dict[Tuple[str, str], List[str]],
    ) -> None:
        #: overlay label -> physical node name
        self.placement = dict(placement)
        #: overlay edge -> physical node path (inclusive endpoints)
        self.edge_paths = dict(edge_paths)

    def __repr__(self) -> str:
        return f"Mapping({self.placement})"


def map_overlay(
    overlay: AndSpec,
    physical: PhysicalNet,
    host_pin: Optional[Dict[str, str]] = None,
) -> Mapping:
    """Map *overlay* onto *physical*; raises :class:`MappingError` if
    impossible.

    ``host_pin`` optionally fixes overlay-host -> physical-host choices;
    unpinned overlay hosts are matched by name if a physical node with
    the same name exists, else assigned greedily.
    """
    graph = physical.graph
    phys_hosts = physical.hosts()
    # Kernels can only be placed on programmable switches; plain
    # forwarders (fat-tree transit tiers) are path material, not targets.
    phys_switches = physical.pisa_switches()

    placement: Dict[str, str] = {}
    used_hosts = set()
    host_pin = dict(host_pin or {})
    for node in overlay.hosts:
        target = host_pin.get(node.label)
        if target is None and node.label in graph and graph.nodes[node.label]["kind"] == "host":
            target = node.label
        if target is None:
            free = [h for h in phys_hosts if h not in used_hosts]
            if not free:
                raise MappingError("not enough physical hosts for the overlay")
            target = free[0]
        if target not in graph or graph.nodes[target]["kind"] != "host":
            raise MappingError(f"{target!r} is not a physical host")
        if target in used_hosts:
            raise MappingError(f"physical host {target!r} assigned twice")
        placement[node.label] = target
        used_hosts.add(target)

    overlay_switches = [n.label for n in overlay.switches]
    if len(overlay_switches) > len(phys_switches):
        raise MappingError(
            f"overlay needs {len(overlay_switches)} switches but the physical "
            f"network has {len(phys_switches)}"
        )

    edges = list(overlay.edges)
    for candidate in permutations(phys_switches, len(overlay_switches)):
        trial = dict(placement)
        trial.update(zip(overlay_switches, candidate))
        paths = _check_edges(graph, edges, trial, set(candidate))
        if paths is not None:
            return Mapping(trial, paths)
    raise MappingError("no feasible placement of overlay switches found")


def _check_edges(
    graph: nx.Graph,
    edges: Sequence[Tuple[str, str]],
    placement: Dict[str, str],
    mapped_switches: set,
) -> Optional[Dict[Tuple[str, str], List[str]]]:
    paths: Dict[Tuple[str, str], List[str]] = {}
    for a, b in edges:
        src, dst = placement[a], placement[b]
        try:
            path = nx.shortest_path(graph, src, dst)
        except nx.NetworkXNoPath:
            return None
        # Interior nodes must not be other mapped switches (that would
        # interpose a kernel-running switch on a logical edge).
        for interior in path[1:-1]:
            if interior in mapped_switches:
                return None
        paths[(a, b)] = path
    return paths
