"""The routes ``Network.compute_routes`` installed at 8553c1d, in both
modes: single-path from a ``route_tree`` per source, ECMP from a networkx
copy of the switches that each destination joins in turn, with one
``single_source_shortest_path_length`` per destination. Nothing under
``src/`` imports this; it is the oracle
``tests/test_routes_differential.py`` holds today's one-search
``compute_routes`` to.

``transit_graph``, ``route_tree`` and the body of ``compute_routes`` are
the parent's verbatim, ``self`` being the network routed.
"""

from __future__ import annotations

from typing import Dict, Iterable

import networkx as nx

from repro.net.network import Network
from repro.net.node import Node
from repro.net.pisanode import PisaSwitchNode


def transit_graph(graph: nx.Graph, ends: Iterable[str]) -> nx.Graph:
    """The part of *graph* a path between *ends* may use: every switch,
    plus the ends themselves (a view, not a copy; it keeps *graph*'s
    node and neighbor order, so searches over it break ties the same way
    on every run)."""
    keep = set(ends)
    kinds = graph.nodes
    return nx.subgraph_view(
        graph, filter_node=lambda n: n in keep or kinds[n]["kind"] == "switch"
    )


def route_tree(graph: nx.Graph, src: str) -> Dict[str, str]:
    """The single-path routes *src* installs, node -> first hop, in the
    order a breadth-first search from *src* reaches the nodes: it grows
    through switches only (hosts do not forward) in *graph*'s neighbor
    order, so every run breaks ties the same way."""
    kinds = graph.nodes
    hop = {src: src}
    queue = [src]
    for via in queue:
        for name in graph[via]:
            if name not in hop:
                hop[name] = name if via == src else hop[via]
                if kinds[name]["kind"] == "switch":
                    queue.append(name)
    del hop[src]
    return hop


def compute_routes(self: Network, ecmp: bool = False) -> None:
    """Install the routes of every node pair into network *self*, as the
    parent's ``Network.compute_routes`` did."""
    g = self.graph()
    ports: Dict[str, Dict[str, int]] = {}
    for name, node in self.nodes.items():
        ports[name] = {}
        for port, link in enumerate(node.links):
            ports[name].setdefault(link.other(node).name, port)
    if not ecmp:
        for src_name, src in self.nodes.items():
            for dst_name, hop in route_tree(g, src_name).items():
                _install(src, self.nodes[dst_name], ports[src_name][hop])
        return
    # transit_graph(g, (src, dst)) of every pair from one copy of the
    # switches, which each destination joins in turn (a source only
    # adds its own first hop).
    core = nx.Graph(transit_graph(g, ()))
    neighbors = {name: sorted(g[name]) for name in g}
    for dst_name, dst in self.nodes.items():
        joined = dst_name not in core
        if joined:
            core.add_node(dst_name)
            core.add_edges_from((dst_name, n) for n in g[dst_name] if n in core)
        dist = nx.single_source_shortest_path_length(core, dst_name)
        if joined:
            core.remove_node(dst_name)
        for src_name, src in self.nodes.items():
            near = [dist[n] for n in neighbors[src_name] if n in dist]
            if src is dst or not near:
                continue
            # Every neighbor one step closer to dst is an equal-cost
            # next hop; hash the (src, dst) id pair over them.
            best = min(near)
            next_hops = [n for n in neighbors[src_name] if dist.get(n) == best]
            pick = next_hops[
                (src.node_id * 2654435761 + dst.node_id * 40503)
                % len(next_hops)
            ]
            _install(src, dst, ports[src_name][pick])


def _install(src: Node, dst: Node, port: int) -> None:
    if isinstance(src, PisaSwitchNode):
        src.install_route(dst.node_id, port)
    else:
        src.routes[dst.node_id] = port
