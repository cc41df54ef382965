"""Overlay-to-physical network mapping, and the rules every reader of a
physical network shares.

The paper assumes "a mechanism that maps the overlay network of the AND
file into a physical network and allocates network resources" (S3.2,
citing Switches-for-HIRE). :func:`map_overlay` is that mechanism for the
simulator: overlay hosts go to physical hosts by :func:`place_hosts`
(pins, then name matches, then free hosts in declaration order), overlay
switches to distinct ``programmable`` switches, and every overlay edge
must ride the installed route (:class:`Routes`) between its ends' images,
both ways, crossing **no other mapped switch**, which would reorder
kernel execution. The search over switch placements is exhaustive
(overlays are small).

The physical network is the graph :meth:`FabricSpec.graph
<repro.andspec.fabric.FabricSpec.graph>` or
:meth:`repro.net.network.Network.graph` gives (node ``kind`` and
``programmable``); the simulator's routes and the deployment checker
apply the same :meth:`Adjacency.search` and :func:`place_hosts`.
"""

from __future__ import annotations

from itertools import permutations
from typing import Collection, Dict, List, Optional, Sequence, Tuple

import networkx as nx

from repro.errors import MappingError
from repro.andspec.model import AndSpec


class Mapping:
    """Result of a successful overlay mapping."""

    def __init__(
        self,
        placement: Dict[str, str],
        edge_paths: Dict[Tuple[str, str], List[str]],
    ) -> None:
        #: overlay label -> physical node name
        self.placement = dict(placement)
        #: (u, v) -> the route from u's image to v's (inclusive ends), for
        #: both directions of every overlay edge
        self.edge_paths = dict(edge_paths)

    def __repr__(self) -> str:
        return f"Mapping({self.placement})"


class Adjacency:
    """*graph* in index form, built once for many searches: node names and
    each node's neighbors (indices) in graph order, and if it forwards."""

    def __init__(self, graph: nx.Graph) -> None:
        self.names = list(graph)
        self.index = {name: i for i, name in enumerate(self.names)}
        self.neighbors = [[self.index[n] for n in graph[name]] for name in self.names]
        self.forwards = [kind == "switch" for _, kind in graph.nodes(data="kind")]

    def search(self, root: int) -> Tuple[List[int], List[int], List[int]]:
        """The one breadth-first search from *root*, grown through switches
        only in graph neighbor order (every run breaks ties the same way):
        the nodes reached in order, *root* first, and per node its hop
        count and *root*'s first hop toward it (-1: not reached)."""
        forwards, neighbors = self.forwards, self.neighbors
        depth, first = [-1] * len(neighbors), [-1] * len(neighbors)
        depth[root], reached = 0, [root]
        for via in reached:
            if forwards[via] or via == root:
                for n in neighbors[via]:
                    if depth[n] < 0:
                        depth[n], first[n] = depth[via] + 1, n if via == root else first[via]
                        reached.append(n)
        return reached, depth, first

    def route_tree(self, src: str) -> Dict[str, str]:
        """The single-path routes *src* installs, node -> first hop, in the
        order :meth:`search` reaches them (``Network.compute_routes``
        installs these first hops, :class:`Routes` walks them)."""
        reached, _, first = self.search(self.index[src])
        return {self.names[n]: self.names[first[n]] for n in reached[1:]}


class Routes:
    """The installed single-path routes of *graph*, read hop by hop the
    way a frame takes them; each node's :meth:`Adjacency.route_tree` is computed
    once, on first use."""

    def __init__(self, graph: nx.Graph) -> None:
        self.graph = graph
        self._adjacency = Adjacency(graph)
        self._trees: Dict[str, Dict[str, str]] = {}

    def path(self, src: str, dst: str) -> Optional[List[str]]:
        """The nodes a frame from *src* to *dst* visits (both ends
        included), or None if *src* has no route to *dst*."""
        path = [src]
        while path[-1] != dst:
            node = path[-1]
            if node not in self._trees:
                self._trees[node] = self._adjacency.route_tree(node)
            if dst not in self._trees[node]:
                return None
            path.append(self._trees[node][dst])
        return path

    def edge(
        self, src: str, dst: str, mapped: Collection[str]
    ) -> Optional[Tuple[List[str], List[str]]]:
        """The routes *src* -> *dst* and back if an overlay edge may ride
        them: both exist and cross none of the *mapped* switches; None
        otherwise."""
        there, back = self.path(src, dst), self.path(dst, src)
        if there is None or back is None:
            return None
        if any(n in mapped for n in there[1:-1] + back[1:-1]):
            return None
        return there, back


def place_hosts(
    labels: Sequence[str], graph: nx.Graph, pins: Dict[str, str]
) -> Tuple[Dict[str, str], List[Tuple[str, str]]]:
    """Place overlay hosts *labels* onto the physical hosts of *graph*.

    Pins win; an unpinned overlay host matches a physical host of the
    same name; leftovers take free physical hosts in declaration order.
    Returns ``(assignment, problems)`` where each problem is
    ``(overlay_host, reason)``.
    """
    kinds = dict(graph.nodes(data="kind"))
    assignment: Dict[str, str] = {}
    problems: List[Tuple[str, str]] = []
    used: set = set()
    for label in labels:
        target = pins.get(label)
        if target is None and kinds.get(label) == "host":
            target = label
        if target is None:
            continue  # greedy pass below
        if target not in kinds:
            problems.append(
                (label, f"pinned to unknown fabric node '{target}'")
            )
            continue
        if kinds[target] != "host":
            problems.append(
                (label, f"pinned to '{target}', which is a switch")
            )
            continue
        if target in used:
            problems.append(
                (label, f"fabric host '{target}' assigned twice")
            )
            continue
        assignment[label] = target
        used.add(target)
    free = [n for n, kind in kinds.items() if kind == "host" and n not in used]
    for label in labels:
        if label in assignment or any(p[0] == label for p in problems):
            continue
        if not free:
            problems.append(
                (label, "no free fabric host left to place it on")
            )
            continue
        assignment[label] = free.pop(0)
        used.add(assignment[label])
    return assignment, problems


def map_overlay(
    overlay: AndSpec,
    graph: nx.Graph,
    host_pin: Optional[Dict[str, str]] = None,
) -> Mapping:
    """Map *overlay* onto the physical network *graph*; raises
    :class:`MappingError` if impossible.

    ``host_pin`` optionally fixes overlay-host -> physical-host choices
    (see :func:`place_hosts` for the rest).
    """
    placement, problems = place_hosts(
        [n.label for n in overlay.hosts], graph, dict(host_pin or {})
    )
    if problems:
        label, reason = problems[0]
        raise MappingError(f"overlay host '{label}': {reason}")

    targets = [n for n, prog in graph.nodes(data="programmable") if prog]
    overlay_switches = [n.label for n in overlay.switches]
    if len(overlay_switches) > len(targets):
        raise MappingError(
            f"overlay needs {len(overlay_switches)} switches but the physical "
            f"network has {len(targets)}"
        )

    routes = Routes(graph)
    for candidate in permutations(targets, len(overlay_switches)):
        trial = dict(placement)
        trial.update(zip(overlay_switches, candidate))
        paths: Dict[Tuple[str, str], List[str]] = {}
        for a, b in overlay.edges:
            routed = routes.edge(trial[a], trial[b], candidate)
            if routed is None:
                break
            paths[(a, b)], paths[(b, a)] = routed
        else:
            return Mapping(trial, paths)
    raise MappingError("no feasible placement of overlay switches found")
