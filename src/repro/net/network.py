"""The simulated network: topology construction, routing, statistics."""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

import networkx as nx

from repro.errors import SimulationError
from repro.andspec.mapping import PhysicalNet
from repro.net.events import Simulator
from repro.net.link import Link
from repro.net.node import ForwardingSwitchNode, HostNode, Node
from repro.net.pisanode import PisaSwitchNode
from repro.obs.context import Observability
from repro.obs.netmetrics import collect_network_metrics
from repro.pisa.switch_dev import PisaSwitch

#: default link parameters (10 GbE, 1 us propagation)
DEFAULT_BANDWIDTH = 10e9
DEFAULT_LATENCY = 1e-6


class Network:
    """A concrete simulated network of hosts and switches.

    Pass an :class:`~repro.obs.Observability` to trace the run and have
    the network register itself as a metrics collector; without one the
    simulation runs on the no-op fast path.
    """

    def __init__(
        self,
        sim: Optional[Simulator] = None,
        obs: Optional[Observability] = None,
    ):
        self.sim = sim or Simulator()
        if obs is not None:
            self.sim.obs = obs
            if obs.enabled:
                obs.registry.register_collector(
                    lambda reg: collect_network_metrics(self, reg)
                )
        self.nodes: Dict[str, Node] = {}
        self.links: List[Link] = []
        self._by_id: Dict[int, Node] = {}
        self._next_id = 0

    # -- construction -----------------------------------------------------------

    def _claim_id(self, node_id: Optional[int]) -> int:
        if node_id is None:
            node_id = self._next_id
        self._next_id = max(self._next_id, node_id + 1)
        return node_id

    def _register(self, node: Node) -> Node:
        if node.name in self.nodes:
            raise SimulationError(f"duplicate node name {node.name!r}")
        if node.node_id in self._by_id:
            raise SimulationError(f"duplicate node id {node.node_id}")
        self.nodes[node.name] = node
        self._by_id[node.node_id] = node
        return node

    def add_host(self, name: str, node_id: Optional[int] = None) -> HostNode:
        host = HostNode(name, self._claim_id(node_id), self.sim)
        self._register(host)
        return host

    def add_pisa_switch(
        self, name: str, switch: PisaSwitch, node_id: Optional[int] = None
    ) -> PisaSwitchNode:
        node = PisaSwitchNode(name, self._claim_id(node_id), self.sim, switch)
        self._register(node)
        return node

    def add_forwarding_switch(
        self, name: str, node_id: Optional[int] = None
    ) -> ForwardingSwitchNode:
        """A plain (non-programmable) L3 forwarder -- the transit tier of
        generated datacenter fabrics."""
        node = ForwardingSwitchNode(name, self._claim_id(node_id), self.sim)
        self._register(node)
        return node

    def add_link(
        self,
        a: str,
        b: str,
        latency: float = DEFAULT_LATENCY,
        bandwidth: float = DEFAULT_BANDWIDTH,
        loss: float = 0.0,
        seed: int = 0,
        queue_limit_bytes: Optional[int] = None,
        delivery_quantum: Optional[float] = None,
    ) -> Link:
        if a not in self.nodes or b not in self.nodes:
            raise SimulationError(f"link endpoints must exist: {a!r}, {b!r}")
        link = Link(
            self.nodes[a], self.nodes[b], latency, bandwidth, loss, seed,
            queue_limit_bytes=queue_limit_bytes,
            delivery_quantum=delivery_quantum,
        )
        self.links.append(link)
        return link

    def link_between(self, a: str, b: str) -> Link:
        """The (first) link whose endpoints are named *a* and *b*."""
        for link in self.links:
            if {link.a.name, link.b.name} == {a, b}:
                return link
        raise SimulationError(f"no link between {a!r} and {b!r}")

    def fail_link(self, a: str, b: str, at: Optional[float] = None) -> Link:
        """Inject a link failure: immediately, or at virtual time ``at``
        (scheduled on the simulator, so the failure lands
        deterministically mid-run)."""
        link = self.link_between(a, b)
        if at is None:
            link.set_down()
        else:
            self.sim.schedule_at(
                at, link.set_down, label=f"link;{a}<->{b};fail"
            )
        return link

    def fail_switch(self, name: str, at: Optional[float] = None) -> Node:
        """Fail a node: it stops transmitting, and frames arriving at it
        -- including frames already in flight on its links -- drop with
        cause ``down``.  Immediate, or scheduled at virtual time ``at``."""
        node = self.nodes.get(name)
        if node is None:
            raise SimulationError(f"no node named {name!r}")
        if at is None:
            node.set_down()
        else:
            self.sim.schedule_at(at, node.set_down, label=f"node;{name};fail")
        return node

    # -- routing -------------------------------------------------------------------

    def graph(self) -> nx.Graph:
        g = nx.Graph()
        for node in self.nodes.values():
            g.add_node(node.name, kind="host" if isinstance(node, HostNode) else "switch")
        for link in self.links:
            g.add_edge(link.a.name, link.b.name, link=link)
        return g

    def compute_routes(self, ecmp: bool = False) -> None:
        """Install next-hop routes (and P4 route entries on PISA switches)
        for every node pair, via shortest paths.

        With ``ecmp=True``, every equal-cost next hop is considered and
        one is picked per (src, dst) pair by a deterministic hash -- the
        flow-level spreading a fat-tree needs so its core links all carry
        traffic.  The choice depends only on the node-id pair, so routes
        are identical across runs and schedulers.
        """
        g = self.graph()
        if not ecmp:
            for src_name, src in self.nodes.items():
                paths = nx.single_source_shortest_path(g, src_name)
                for dst_name, path in paths.items():
                    if dst_name == src_name or len(path) < 2:
                        continue
                    dst = self.nodes[dst_name]
                    next_hop = self.nodes[path[1]]
                    port = self._port_toward(src, next_hop)
                    self._install(src, dst, port)
            return
        dist = dict(nx.all_pairs_shortest_path_length(g))
        for src_name, src in self.nodes.items():
            dist_from_src = dist[src_name]
            neighbors = sorted(g.neighbors(src_name))
            for dst_name, dst in self.nodes.items():
                if dst_name == src_name:
                    continue
                d = dist_from_src.get(dst_name)
                if d is None:
                    continue
                # Every neighbor one step closer to dst is an equal-cost
                # next hop; hash the (src, dst) id pair over them.
                next_hops = [
                    n for n in neighbors if dist[n].get(dst_name) == d - 1
                ]
                if not next_hops:
                    continue
                pick = next_hops[
                    (src.node_id * 2654435761 + dst.node_id * 40503)
                    % len(next_hops)
                ]
                port = self._port_toward(src, self.nodes[pick])
                self._install(src, dst, port)

    def _install(self, src: Node, dst: Node, port: int) -> None:
        if isinstance(src, PisaSwitchNode):
            src.install_route(dst.node_id, port)
        else:
            src.routes[dst.node_id] = port

    def _port_toward(self, node: Node, neighbor: Node) -> int:
        for port, link in enumerate(node.links):
            if link.other(node) is neighbor:
                return port
        raise SimulationError(f"{node.name} has no link to {neighbor.name}")

    # -- queries ---------------------------------------------------------------------

    def host(self, name: str) -> HostNode:
        node = self.nodes.get(name)
        if not isinstance(node, HostNode):
            raise SimulationError(f"{name!r} is not a host")
        return node

    def node_by_id(self, node_id: int) -> Node:
        node = self._by_id.get(node_id)
        if node is None:
            raise SimulationError(f"no node with id {node_id}")
        return node

    def to_physical(self) -> PhysicalNet:
        """Expose the topology to the AND mapper."""
        phys = PhysicalNet()
        for node in self.nodes.values():
            if isinstance(node, HostNode):
                phys.add_host(node.name)
            else:
                # Plain forwarders can't host kernels.
                phys.add_switch(node.name, pisa=isinstance(node, PisaSwitchNode))
        for link in self.links:
            phys.add_link(link.a.name, link.b.name)
        return phys

    def total_bytes_on_links(self) -> int:
        return sum(link.stats.bytes for link in self.links)

    def run(self, until: Optional[float] = None) -> float:
        return self.sim.run(until)


def star_network(
    n_hosts: int,
    make_switch: Callable[[Network], Node],
    bandwidth: float = DEFAULT_BANDWIDTH,
    latency: float = DEFAULT_LATENCY,
) -> Tuple[Network, List[HostNode]]:
    """Hosts around one ToR switch -- the Fig 4 AllReduce topology."""
    net = Network()
    hosts = [net.add_host(f"h{i}") for i in range(n_hosts)]
    switch = make_switch(net)
    for host in hosts:
        net.add_link(host.name, switch.name, latency=latency, bandwidth=bandwidth)
    net.compute_routes()
    return net, hosts
