"""Deployment: turn a compiled program + AND into a running cluster.

The paper assumes a deployment mechanism "that maps the overlay network
of the AND file into a physical network and allocates network resources
accordingly ... places application components to physical devices and
ensures connectivity by populating routing tables appropriately" (S3.2).
:class:`Cluster` is that mechanism for the simulator:

* :meth:`Cluster.from_program` deploys 1:1 -- the AND *is* the physical
  topology (each overlay node becomes a simulated device);
* :meth:`Cluster.deploy_mapped` maps the overlay onto an existing
  physical :class:`Network` via :func:`repro.andspec.map_overlay` and
  loads switch programs onto the chosen physical switches.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.errors import SimulationError
from repro.andspec.mapping import Mapping, map_overlay
from repro.nclc.driver import CompiledProgram
from repro.net.network import DEFAULT_BANDWIDTH, DEFAULT_LATENCY, Network
from repro.net.pisanode import PisaSwitchNode
from repro.pisa.switch_dev import PisaSwitch
from repro.runtime.controller import Controller
from repro.runtime.host_rt import NclHost


class Cluster:
    def __init__(
        self,
        program: CompiledProgram,
        network: Network,
        hosts: Dict[str, NclHost],
        switches: Dict[str, PisaSwitchNode],
        controller: Controller,
        mapping: Optional[Mapping] = None,
    ):
        self.program = program
        self.network = network
        self.hosts = hosts
        self.switches = switches
        self.controller = controller
        self.mapping = mapping

    # -- construction -----------------------------------------------------------

    @classmethod
    def from_program(
        cls,
        program: CompiledProgram,
        bandwidth: float = DEFAULT_BANDWIDTH,
        latency: float = DEFAULT_LATENCY,
        ctrl_delay: float = 0.0,
        obs=None,
    ) -> "Cluster":
        """1:1 deployment: every AND node becomes a simulated device.

        ``obs`` (an :class:`repro.obs.Observability`) enables tracing
        and metrics collection for the whole deployment.
        """
        net = Network(obs=obs)
        spec = program.and_spec
        switches: Dict[str, PisaSwitchNode] = {}
        hosts: Dict[str, NclHost] = {}
        for node in spec.nodes.values():
            if node.is_host:
                net.add_host(node.label, node_id=node.node_id)
            else:
                p4 = program.switch_programs[node.label]
                switches[node.label] = net.add_pisa_switch(
                    node.label, PisaSwitch(p4, node.label), node_id=node.node_id
                )
        for a, b in spec.edges:
            net.add_link(a, b, latency=latency, bandwidth=bandwidth)
        net.compute_routes()
        controller = Controller(program, switches, net.sim, delay=ctrl_delay)
        for node in spec.hosts:
            hosts[node.label] = NclHost(net.host(node.label), program)
        return cls(program, net, hosts, switches, controller)

    @classmethod
    def deploy_mapped(
        cls,
        program: CompiledProgram,
        network: Network,
        host_pin: Optional[Dict[str, str]] = None,
        ctrl_delay: float = 0.0,
    ) -> "Cluster":
        """Map the AND overlay onto an existing physical network.

        The mapper places overlay switches on the network's PISA switches
        (its programmable nodes) and replaces their programs; overlay
        hosts land on physical hosts by :func:`repro.andspec.place_hosts`.
        """
        mapping = map_overlay(program.and_spec, network.graph(), host_pin)
        switches: Dict[str, PisaSwitchNode] = {}
        hosts: Dict[str, NclHost] = {}
        for and_node in program.and_spec.switches:
            node = network.nodes[mapping.placement[and_node.label]]
            node.switch = PisaSwitch(
                program.switch_programs[and_node.label], and_node.label
            )
            switches[and_node.label] = node
        # AND node ids must be routable: alias them onto physical routes.
        network.compute_routes()
        for overlay_label, phys_name in mapping.placement.items():
            and_node = program.and_spec.node(overlay_label)
            phys_node = network.nodes[phys_name]
            if and_node.node_id == phys_node.node_id:
                continue
            for node in network.nodes.values():
                port = node.routes.get(phys_node.node_id)
                if port is not None:
                    node.install_route(and_node.node_id, port)
        controller = Controller(program, switches, network.sim, delay=ctrl_delay)
        for and_node in program.and_spec.hosts:
            phys = network.host(mapping.placement[and_node.label])
            # NCP frames carry AND ids; the runtime speaks with its
            # overlay identity, not the physical one.
            hosts[and_node.label] = NclHost(phys, program, and_node_id=and_node.node_id)
        return cls(program, network, hosts, switches, controller, mapping)

    # -- convenience -------------------------------------------------------------

    @property
    def sim(self):
        return self.network.sim

    def host(self, label: str) -> NclHost:
        if label not in self.hosts:
            raise SimulationError(f"no deployed host {label!r}")
        return self.hosts[label]

    def run(self, until: Optional[float] = None) -> float:
        return self.network.run(until)

    def now(self) -> float:
        return self.sim.now()
