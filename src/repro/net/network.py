"""The simulated network: topology construction, faults, routing, statistics."""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import partial
from typing import Dict, List, Optional, Tuple

import networkx as nx

from repro.errors import SimulationError
from repro.andspec.fabric import DEFAULT_BANDWIDTH, DEFAULT_LATENCY
from repro.andspec.mapping import Adjacency
from repro.net.events import Simulator
from repro.net.link import Link
from repro.net.node import ForwardingSwitchNode, HostNode, Node
from repro.net.pisanode import PisaSwitchNode
from repro.obs.context import Observability
from repro.obs.netmetrics import collect_network_metrics
from repro.pisa.switch_dev import PisaSwitch


@dataclass(frozen=True)
class FaultPlan:
    """What goes wrong in a run, as data (:meth:`Network.inject` applies
    it): each link's per-frame ``loss`` probability, drawn from streams
    seeded by ``seed``, and ``events`` ``(at, kind, target)``, kept sorted
    by ``at``: at virtual time ``at`` (finite) a node (by name) or a link
    (by a pair of names) goes ``"down"`` or comes back ``"up"``."""

    loss: float = 0.0
    seed: int = 0
    events: Tuple[tuple, ...] = ()

    def __post_init__(self) -> None:
        if not 0.0 <= self.loss <= 1.0:  # NaN fails this too
            raise SimulationError(f"loss must be in [0, 1], got {self.loss!r}")
        for at, kind, _target in self.events:
            if kind not in ("down", "up"):
                raise SimulationError(f"unknown fault kind {kind!r} (known: down, up)")
            if not abs(at) < float("inf"):  # NaN fails this too
                raise SimulationError(f"fault event time must be finite, got {at!r}")
        object.__setattr__(self, "events", tuple(sorted(self.events, key=lambda e: e[0])))


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
        queue_limit_bytes: Optional[int] = None,
    ) -> Link:
        if a not in self.nodes or b not in self.nodes:
            raise SimulationError(f"link endpoints must exist: {a!r}, {b!r}")
        link = Link(
            self.nodes[a], self.nodes[b], latency, bandwidth,
            queue_limit_bytes=queue_limit_bytes,
        )
        self.links.append(link)
        return link

    def link_between(self, a: str, b: str) -> Link:
        """The (first) link whose endpoints are named *a* and *b*."""
        for link in self.links:
            if {link.a.name, link.b.name} == {a, b}:
                return link
        raise SimulationError(f"no link between {a!r} and {b!r}")

    def inject(self, plan: FaultPlan) -> None:
        """Apply *plan*, the one way a fault enters the simulation. With
        ``plan.loss > 0`` link *i* of :attr:`links` draws from
        ``random.Random(plan.seed + i)``, one stream for both directions.
        An event due by now sets its target's ``up`` at once, a later one
        is scheduled; every target is checked before anything changes."""
        targets = []
        for _at, _kind, target in plan.events:
            if isinstance(target, str):
                if target not in self.nodes:
                    raise SimulationError(f"no node named {target!r}")
                targets.append((self.nodes[target], f"node;{target}"))
            else:
                targets.append((self.link_between(*target), "link;{}<->{}".format(*target)))
        if plan.loss > 0:
            for i, link in enumerate(self.links):
                link.loss_draw = (random.Random(plan.seed + i).random, plan.loss)
        for (at, kind, _target), (obj, track) in zip(plan.events, targets):
            if at <= self.sim.now():
                obj.up = kind == "up"
            else:
                self.sim.schedule_at(at, partial(setattr, obj, "up", kind == "up"),
                                     label=track + (";heal" if kind == "up" else ";fail"))

    # -- routing -------------------------------------------------------------------

    def graph(self) -> nx.Graph:
        """The view the overlay mapper reads, the same one
        :meth:`repro.andspec.fabric.FabricSpec.graph` gives of a fabric:
        node ``kind`` and ``programmable`` (a PISA switch)."""
        g = nx.Graph()
        for node in self.nodes.values():
            g.add_node(
                node.name,
                kind="host" if isinstance(node, HostNode) else "switch",
                programmable=isinstance(node, PisaSwitchNode),
            )
        for link in self.links:
            g.add_edge(link.a.name, link.b.name)
        return g

    def compute_routes(self, ecmp: bool = False) -> None:
        """Install next-hop routes (and P4 route entries on PISA switches)
        for every node pair, over paths that cross switches only (hosts
        do not forward).

        Without ``ecmp`` each node installs the first hops of its
        :meth:`repro.andspec.mapping.Adjacency.route_tree`, the routes the overlay
        mapper and check-deploy judge. With ``ecmp=True``, one of the
        equal-cost next hops (the switches one hop closer to dst by the
        same search) is picked per (src, dst) pair by a hash of their node
        ids -- the flow-level spreading a fat-tree needs so its core links
        all carry traffic, identical on every run.
        """
        adj = Adjacency(self.graph())
        nodes = [self.nodes[name] for name in adj.names]
        ids = [node.node_id for node in nodes]
        ports: List[Dict[int, int]] = [{} for _ in nodes]
        for node, out in zip(nodes, ports):
            for port, link in enumerate(node.links):
                out.setdefault(adj.index[link.other(node).name], port)
        installs = [n.install_route for n in nodes]
        depths = [adj.search(dst)[1] for dst in range(len(nodes))] if ecmp else []
        for src, install in enumerate(installs):
            if not ecmp:
                reached, _, first = adj.search(src)
                for dst in reached[1:]:
                    install(ids[dst], ports[src][first[dst]])
                continue
            # The next hops toward dst: the neighbor switches one hop closer
            # (a lone one always is), by name, one picked by the (src, dst) ids.
            near = sorted(filter(adj.forwards.__getitem__, adj.neighbors[src]),
                          key=adj.names.__getitem__)
            out, base = ports[src], ids[src] * 2654435761
            for dst, depth in enumerate(depths):
                closer = depth[src] - 1
                if closer > 0:
                    hops = near if len(near) == 1 else [n for n in near if depth[n] == closer]
                    install(ids[dst], out[hops[(base + ids[dst] * 40503) % len(hops)]])
                elif closer == 0:  # the last hop
                    install(ids[dst], out[dst])

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

    def total_bytes_on_links(self) -> int:
        return sum(link.stats.bytes for link in self.links)

    def run(self, until: Optional[float] = None) -> float:
        return self.sim.run(until)

