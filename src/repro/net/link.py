"""Point-to-point links with latency, bandwidth, loss and an up flag.

Delivery is *piped*, and the pipe is the one place that decides when a
node acts on a frame: each direction of a link keeps a FIFO of in-flight
``(due, frame)`` pairs, where ``due`` is the frame's arrival plus the
receiving node's processing delay (:attr:`repro.net.node.Node.DELAY`),
and arms at most one scheduler event (the "wake") at a time.  A wake
hands every frame whose due time has come to the receiver's
``handle_frame`` -- which does its work inline -- if the receiver is up
at that instant, and drops it with cause ``down`` if not; then it
re-arms for the next head-of-queue frame.  Because each direction's
arrival times are non-decreasing (frames serialize behind one another),
so are its due times, and one hop costs one scheduler event.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Optional, Tuple, TYPE_CHECKING

from repro.errors import SimulationError
from repro.net.frame import Frame
from repro.obs.int import IntError, IntStack, peek_stack, stack_event_args

if TYPE_CHECKING:
    from repro.net.node import Node
    from repro.net.events import Simulator


# -- what a link's events say, built when an event is read (obs.trace) -----------


def _frame_args(direction: str, frame: Frame) -> dict:
    return frame.named({"dir": direction, "bytes": len(frame.data)})


def _drop_args(direction: str, frame: Frame, cause: str, backlog: Optional[float]) -> dict:
    args = _frame_args(direction, frame)
    args["cause"] = cause
    if backlog is not None:
        args["backlog_bytes"] = int(backlog)
    return args


def _drop_stack_args(stack: IntStack, meta: dict, cause: str) -> dict:
    return stack_event_args(stack, meta["kernel"], meta["seq"], meta["from"], "drop:" + cause)


class LinkStats:
    """Per-link accounting; drops are split by cause so a lossy run, a
    congested run and a failed-link run are distinguishable in a
    registry snapshot."""

    __slots__ = (
        "frames", "bytes", "drops_loss", "drops_overflow", "drops_down",
        "busy_time",
    )

    def __init__(self) -> None:
        self.frames = 0
        self.bytes = 0
        self.drops_loss = 0
        self.drops_overflow = 0
        self.drops_down = 0
        self.busy_time = 0.0

    @property
    def drops(self) -> int:
        """Total drops, all causes (backward-compatible view)."""
        return self.drops_loss + self.drops_overflow + self.drops_down


class _Pipe:
    """One direction's in-flight frames, drained by a single wake event
    at each frame's due time (arrival + the receiver's ``DELAY``, read
    when the link is made)."""

    __slots__ = ("link", "receiver", "in_port", "delay", "queue", "armed")

    def __init__(self, link: "Link", receiver: "Node", in_port: int) -> None:
        self.link = link
        self.receiver = receiver
        self.in_port = in_port
        self.delay = receiver.DELAY
        self.queue: Deque[Tuple[float, Frame]] = deque()
        self.armed = False

    def push(self, sim: "Simulator", arrival: float, frame: Frame) -> None:
        due = arrival + self.delay
        self.queue.append((due, frame))
        if not self.armed:
            self.armed = True
            sim.schedule_at(due, self._wake, label=self.receiver.prof_rx_label)

    def _wake(self) -> None:
        receiver = self.receiver
        sim = receiver.sim
        now = sim.now()
        queue = self.queue
        try:
            if receiver.up:
                in_port = self.in_port
                while queue and queue[0][0] <= now:
                    receiver.handle_frame(queue.popleft()[1], in_port)
            else:
                # The receiving node is down when it would act on these
                # frames: they die at the NIC with drop cause ``down``.
                link = self.link
                while queue and queue[0][0] <= now:
                    link._drop_at_delivery(sim, receiver, queue.popleft()[1])
        finally:
            # re-armed even when a handler raised, so the frames behind
            # it are still delivered if the run goes on
            if queue:
                sim.schedule_at(queue[0][0], self._wake, label=receiver.prof_rx_label)
            else:
                self.armed = False


class Link:
    """A full-duplex link between two node ports.

    Serialization delay is ``size / bandwidth`` and each direction has an
    independent transmit queue (``free_at``): frames queue behind one
    another, which is what creates incast congestion at a ToR in the
    AllReduce benchmarks. ``queue_limit_bytes`` optionally bounds that
    per-direction backlog: a frame that would push the queued bytes past
    the limit is dropped (cause ``overflow``), modelling a finite egress
    buffer.
    """

    def __init__(
        self,
        a: "Node",
        b: "Node",
        latency: float = 1e-6,
        bandwidth: float = 10e9,  # bits/s
        queue_limit_bytes: Optional[int] = None,
    ):
        if bandwidth <= 0:
            raise SimulationError("bandwidth must be positive")
        self.a = a
        self.b = b
        self.latency = latency
        self.bandwidth = bandwidth
        self.queue_limit_bytes = queue_limit_bytes
        self._free_at = {a: 0.0, b: 0.0}
        #: administrative state; a downed link eats every frame with cause
        #: ``down``. Network.inject sets it, and ``loss_draw``: None, or a
        #: seeded ``(random, rate)`` that drops a frame with cause ``loss``
        self.up = True
        self.loss_draw: Optional[Tuple[Callable[[], float], float]] = None
        self.stats = LinkStats()
        self.port_at = {
            a: a.attach_link(self),
            b: b.attach_link(self),
        }
        #: per-direction delivery pipes, keyed by the sending node
        self._pipes = {
            a: _Pipe(self, b, self.port_at[b]),
            b: _Pipe(self, a, self.port_at[a]),
        }
        #: trace track, and each direction's ``dir`` argument by sender
        self.track = f"link {a.name}<->{b.name}"
        self._dir = {a: f"{a.name}->{b.name}", b: f"{b.name}->{a.name}"}

    def other(self, node: "Node") -> "Node":
        if node is self.a:
            return self.b
        if node is self.b:
            return self.a
        raise SimulationError(f"{node} is not attached to this link")

    def backlog_bytes(self, sender: "Node", now: float) -> float:
        """Bytes queued in *sender*'s direction at time ``now`` -- the
        egress queue depth switches stamp into INT records, and the
        quantity the overflow check compares against the buffer limit."""
        return max(0.0, self._free_at[sender] - now) * self.bandwidth / 8

    def _trace_drop(
        self, obs, sim: "Simulator", sender: "Node",
        frame: Frame, cause: str, backlog: Optional[float] = None,
    ) -> None:
        """Emit the drop instant and, for an INT-carrying frame, the
        partial telemetry stack it was carrying when it died -- that is
        what lets the lineage index show *which attempt* a loss ate."""
        now = sim.now()
        obs.tracer.instant(
            "drop", now, self.track, "link",
            (_drop_args, self._dir[sender], frame, cause, backlog),
        )
        try:
            stack = peek_stack(frame.data)  # None: no trailer
        except IntError:  # dropped and counted all the same, with no stack to show
            return
        meta = frame.meta
        if stack is not None and meta is not None:
            obs.tracer.instant(
                "int:stack", now, self.track, "int", (_drop_stack_args, stack, meta, cause)
            )

    def _drop_at_delivery(
        self, sim: "Simulator", receiver: "Node", frame: Frame
    ) -> None:
        """An in-flight frame reached a downed node: cause ``down``."""
        self.stats.drops_down += 1
        obs = sim.obs
        if obs.enabled:
            self._trace_drop(obs, sim, self.other(receiver), frame, "down")

    def transmit(self, sim: "Simulator", sender: "Node", frame: Frame) -> None:
        """Send a frame from *sender* to the other end: it serializes
        once the direction's earlier frames have, and arrives
        ``latency`` later."""
        self.other(sender)  # refuses a node that is not on this link
        obs = sim.obs
        if not self.up or not sender.up:
            self.stats.drops_down += 1
            if obs.enabled:
                self._trace_drop(obs, sim, sender, frame, "down")
            return
        loss_draw = self.loss_draw
        if loss_draw is not None and loss_draw[0]() < loss_draw[1]:
            self.stats.drops_loss += 1
            if obs.enabled:
                self._trace_drop(obs, sim, sender, frame, "loss")
            return
        size = len(frame.data)
        serialization = size * 8 / self.bandwidth
        now = sim.now()
        start = max(now, self._free_at[sender])
        if self.queue_limit_bytes is not None:
            backlog_bytes = self.backlog_bytes(sender, now)
            if backlog_bytes + size > self.queue_limit_bytes:
                self.stats.drops_overflow += 1
                if obs.enabled:
                    self._trace_drop(
                        obs, sim, sender, frame, "overflow",
                        backlog=backlog_bytes,
                    )
                return
        done = start + serialization
        self._free_at[sender] = done
        self.stats.frames += 1
        self.stats.bytes += size
        self.stats.busy_time += serialization
        if obs.enabled:
            args = (_frame_args, self._dir[sender], frame)  # one payload for both spans
            if start > now:
                obs.tracer.span("queue", now, start - now, self.track, "link", args)
            obs.tracer.span("serialize", start, serialization, self.track, "link", args)
        self._pipes[sender].push(sim, done + self.latency, frame)

    def __repr__(self) -> str:
        return f"Link({self.a.name} <-> {self.b.name})"
