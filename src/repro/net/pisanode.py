"""The network-simulator node hosting a compiled PISA switch."""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.errors import SimulationError
from repro.ncp.wire import node_ip
from repro.net.frame import Frame
from repro.net.node import Node
from repro.obs.int import (
    IntError,
    carries_int,
    hop_record,
    peek_stack,
    stack_event_args,
    stamp_hop,
)
from repro.obs.netmetrics import SwitchPacketTrace
from repro.obs.registry import BoundSeries, FamilySpec
from repro.pisa.switch_dev import PisaSwitch

if TYPE_CHECKING:
    from repro.net.events import Simulator

_PHV_FIELDS = FamilySpec(
    "histogram", "switch.phv_fields", "PHV occupancy (live field count) per packet",
    ("switch",), (8, 16, 32, 64, 128, 256),
)


class PisaSwitchNode(Node):
    """Wraps a :class:`PisaSwitch` and realizes its forwarding verdicts:

    * ``pass``   -> out the port chosen by the P4 ``ipv4_route`` table
      (``meta.egress_port``), or toward the ``_pass(label)`` target;
    * ``drop``   -> consumed;
    * ``bcast``  -> out every port except the ingress (the overlay
      neighbors, for ToR-style deployments -- paper S4.1);
    * ``reflect``-> back out the ingress port (addresses were swapped by
      the template's ``reflect_rewrite`` action).
    """

    DELAY = 1e-6

    PROF_KIND = "switch"

    def __init__(self, name: str, node_id: int, sim: "Simulator", switch: PisaSwitch):
        super().__init__(name, node_id, sim)
        self.switch = switch
        #: where the routing table's verdict lands, if the program has one
        self._egress = switch.layout.slots.get("meta.egress_port")
        self._node_names = {node_id: name}
        self._series = BoundSeries()

    def install_route(self, dst_node_id: int, port: int) -> None:
        """Install both the simulator next-hop and the P4 table entry."""
        self.routes[dst_node_id] = port
        if "ipv4_route" in self.switch.tables:
            self.switch.table_insert("ipv4_route", [node_ip(dst_node_id)], "ipv4_forward", [port])

    def handle_frame(self, frame: Frame, in_port: int) -> None:
        stats = self.stats
        stats.rx_frames += 1
        stats.rx_bytes += len(frame.data)
        stats.processed += 1
        obs = self.sim.obs
        if obs.enabled:
            observer = SwitchPacketTrace()
            result = self.switch.process(frame.data, in_port, observer=observer)
            # the per-stage spans tile the DELAY the frame spent here
            observer.emit(
                obs.tracer, self.track, self.sim.now() - self.DELAY,
                self.DELAY, result.verdict, in_port, frame,
            )
            self._series[obs.registry, _PHV_FIELDS, self.name].observe(
                result.phv.live_fields()
            )
        else:
            result = self.switch.process(frame.data, in_port)
        int_cfg = obs.int_config  # None on NULL_OBS and untelemetered runs
        verdict = result.verdict
        if verdict == "drop":
            stats.drops += 1
            if int_cfg is not None:
                self._int_absorb(obs, int_cfg, frame, result.tables_matched, "drop:switch")
            return
        if verdict == "bcast":
            # "_bcast() sends a window to all devices, one hop away -- in
            # the overlay -- from the current location" (S4.1): that
            # includes the neighbor it arrived from.
            self._forward(result, range(len(self.links)), int_cfg)
            return
        if verdict == "reflect":
            self._forward(result, (in_port,), int_cfg)
            return
        # pass: a labelled pass overrides normal routing.
        if result.label_id is not None:
            port = self.routes.get(result.label_id)
            if port is None:
                raise SimulationError(
                    f"{self.name}: _pass toward unknown node {result.label_id}"
                )
            self._forward(result, (port,), int_cfg)
            return
        if self._egress is None:
            egress = result.phv.read("meta.egress_port")  # says what is missing
        else:
            egress = result.phv.slots[self._egress]
        if egress >= len(self.links):
            # Route miss left the default egress; treat as drop.
            stats.drops += 1
            if int_cfg is not None:
                self._int_absorb(
                    obs, int_cfg, frame, result.tables_matched, "drop:route-miss"
                )
            return
        self._forward(result, (egress,), int_cfg)

    # -- in-band telemetry hooks ---------------------------------------------

    def _forward(self, result, ports, int_cfg) -> None:
        """Send the result out every port, stamping a per-hop INT record
        onto each copy (the queue depth differs per egress link, so every
        copy gets its own record). A frame whose INT trailer is malformed
        is dropped here, the first node to look at it (cause ``int``)."""
        data = result.data
        if int_cfg is None or not carries_int(data):
            for port in ports:
                self.send(data, port)
            return
        now = self.sim.now()
        try:
            # stamp every copy before sending any: a trailer that does
            # not parse fails the first stamp, and nothing has left
            frames = [
                stamp_hop(
                    data, int_cfg, self.node_id, now - self.DELAY, now,
                    int(self.links[port].backlog_bytes(self, now)),
                    result.tables_matched,
                )[0]
                for port in ports
            ]
        except IntError:
            self.stats.drops += 1
            self.trace_drop("switch", "int", len(data))
            return
        for frame, port in zip(frames, ports):
            self.send(frame, port)

    def _int_absorb(
        self, obs, int_cfg, frame: Frame, tables_matched: int, outcome: str
    ) -> None:
        """A packet consumed here (kernel ``_drop()`` or a route miss,
        already counted in ``stats.drops``): its stack is the one it
        arrived with -- the trailer rides behind the payload, where no
        action reaches -- plus this hop's record with the DROPPED flag,
        emitted into the trace since delivery will never surface it
        (nothing is deparsed or stamped: nobody receives those bytes).
        A trailer that does not parse leaves a ``drop`` instant (cause
        ``int``) in its place."""
        try:
            stack = peek_stack(frame.data)  # None: no trailer to speak of
        except IntError:
            self.trace_drop("switch", "int", len(frame.data))
            return
        meta = frame.meta
        if stack is None or meta is None:
            return
        now = self.sim.now()
        if int_cfg.allows(len(stack.records)):
            stack.records.append(
                hop_record(
                    self.node_id, now - self.DELAY, now, 0,
                    tables_matched, dropped=True,
                )
            )
        else:
            stack.truncated = True
        obs.tracer.instant(
            "int:stack", now, self.track, "int",
            (
                stack_event_args, stack, meta["kernel"], meta["seq"], meta["from"],
                outcome, None, self._node_names,
            ),
        )
