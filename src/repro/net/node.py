"""Network nodes: the common base, hosts, and switch wrappers."""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Union, TYPE_CHECKING

from repro.errors import SimulationError
from repro.net.frame import Frame
from repro.obs.trace import fields

if TYPE_CHECKING:
    from repro.net.events import Simulator
    from repro.net.link import Link


#: a ``drop`` instant's args at a node (obs.trace.fields); ``dst`` where one was read
_DROP_ARGS = ("cause", "bytes", "dst")


def _deliver_args(frame: Frame) -> dict:
    return frame.named({"bytes": len(frame)})


class NodeStats:
    __slots__ = ("rx_frames", "rx_bytes", "tx_frames", "tx_bytes", "drops", "processed")

    def __init__(self) -> None:
        self.rx_frames = 0
        self.rx_bytes = 0
        self.tx_frames = 0
        self.tx_bytes = 0
        self.drops = 0
        self.processed = 0


class Node:
    """Base network node with numbered ports."""

    #: profiler component kind for schedule labels (see repro.obs.profile)
    PROF_KIND = "node"

    #: seconds from a frame's arrival to the instant this node acts on it:
    #: the link's pipe calls :meth:`handle_frame` then, if the node is up
    DELAY = 0.0

    def __init__(self, name: str, node_id: int, sim: "Simulator"):
        self.name = name
        self.node_id = node_id
        self.sim = sim
        self.links: List["Link"] = []
        #: next-hop port by destination node id (installed at deploy time)
        self.routes: Dict[int, int] = {}
        self.stats = NodeStats()
        #: administrative state (Network.inject sets it): frames a downed
        #: node sends or is sent, in flight too, drop with cause ``down``
        self.up = True
        #: schedule label for frame arrivals at this node -- the count of
        #: these events is the profiler's packets/sec numerator
        self.prof_rx_label = f"{self.PROF_KIND};{name};rx"
        #: the trace track of what happens at this node
        self.track = f"{self.PROF_KIND} {name}"

    def install_route(self, dst_node_id: int, port: int) -> None:
        self.routes[dst_node_id] = port

    def attach_link(self, link: "Link") -> int:
        self.links.append(link)
        return len(self.links) - 1

    def send(self, data: Union[bytes, Frame], port: int) -> None:
        """Put a packet on the link at *port*.  This is the one place
        bytes become a :class:`Frame`; a Frame passes through, so its
        cached header parse survives the hop."""
        if not 0 <= port < len(self.links):
            raise SimulationError(f"{self.name}: no port {port}")
        frame = data if type(data) is Frame else Frame(data)
        self.stats.tx_frames += 1
        self.stats.tx_bytes += len(frame.data)
        self.links[port].transmit(self.sim, self, frame)

    def send_toward(self, data: Union[bytes, Frame], dst_node_id: int) -> None:
        port = self.routes.get(dst_node_id)
        if port is None:
            raise SimulationError(
                f"{self.name}: no route toward node {dst_node_id}"
            )
        self.send(data, port)

    def handle_frame(self, frame: Frame, in_port: int) -> None:
        """Act on *frame*, :attr:`DELAY` after it arrived at *in_port*."""
        raise NotImplementedError

    def trace_drop(
        self, cat: str, cause: str, nbytes: int, dst: Optional[int] = None
    ) -> None:
        """The ``drop`` instant of a frame that ended at this node (the
        caller counts it), naming the cause, the bytes lost and, where
        one was read, the destination nobody routes to."""
        obs = self.sim.obs
        if obs.enabled:
            names = _DROP_ARGS if dst is not None else _DROP_ARGS[:2]
            obs.tracer.instant(
                "drop", self.sim.now(), self.track, cat, (fields, names, cause, nbytes, dst)
            )

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.name}#{self.node_id})"


class HostNode(Node):
    """An end host: delivers frames to a bound receiver callback.

    The libncrt host runtime binds :attr:`frame_receiver` (Frame in,
    keeping the cached header parse); plain callers bind
    :attr:`receiver` (bytes in). Frames arriving before either is bound
    are counted as drops (like an unbound UDP port).
    """

    PROF_KIND = "host"

    #: model of the host networking stack's per-frame processing delay
    DELAY = 2e-6

    def __init__(self, name: str, node_id: int, sim: "Simulator"):
        super().__init__(name, node_id, sim)
        self.receiver: Optional[Callable[[bytes], None]] = None
        #: preferred receiver: gets the Frame object itself, so the
        #: header parse cached along the packet path is reused
        self.frame_receiver: Optional[Callable[[Frame], None]] = None

    def handle_frame(self, frame: Frame, in_port: int) -> None:
        self.stats.rx_frames += 1
        self.stats.rx_bytes += len(frame)
        frame_receiver = self.frame_receiver
        if frame_receiver is None and self.receiver is None:
            self.stats.drops += 1
            self.trace_drop("host", "no-receiver", len(frame))
            return
        obs = self.sim.obs
        if obs.enabled:
            # the stack's processing window, from the frame's arrival
            obs.tracer.span(
                "deliver", self.sim.now() - self.DELAY, self.DELAY, self.track, "host",
                (_deliver_args, frame),
            )
        if frame_receiver is not None:
            frame_receiver(frame)
        else:
            self.receiver(frame.data)

    def transmit(self, data: Union[bytes, Frame], dst_node_id: int) -> None:
        """Send a frame toward a destination (single-homed hosts just use
        their uplink)."""
        self.stats.processed += 1
        if dst_node_id in self.routes:
            self.send_toward(data, dst_node_id)
        elif len(self.links) == 1:
            self.send(data, 0)
        else:
            raise SimulationError(
                f"{self.name}: multi-homed host needs a route to {dst_node_id}"
            )


class ForwardingSwitchNode(Node):
    """A plain L3 forwarder: routes on the frame's destination node id.

    This is the transit tier of generated fabrics (aggregation/core in a
    fat-tree, spines in a leaf-spine) and the ToR of the host-only
    baselines: no P4 pipeline -- just a route-table lookup on the cached
    header parse and a transmit, :attr:`DELAY` after the frame arrived.
    """

    PROF_KIND = "switch"

    DELAY = 1e-6

    def handle_frame(self, frame: Frame, in_port: int) -> None:
        stats = self.stats
        stats.rx_frames += 1
        stats.rx_bytes += len(frame.data)
        stats.processed += 1
        meta = frame.meta
        port = None if meta is None else self.routes.get(meta["dst"])
        if port is None:
            stats.drops += 1
            self.trace_drop(
                "switch", "route-miss", len(frame.data),
                None if meta is None else meta["dst"],
            )
            return
        self.send(frame, port)
