"""In-band network telemetry (INT) over NCP frames.

Production INC systems must self-monitor from inside the network: the
fabric that computes on packets is also the only witness to what
happened to them. This module implements the classic INT pattern --
**each switch appends a fixed-width per-hop record to a telemetry stack
carried by the packet itself**, and the receiving host strips the stack
and publishes it -- scoped to this repo's NCP transport.

Wire format
-----------
An INT-enabled frame sets :data:`~repro.ncp.wire.FLAG_INT` in the NCP
header and carries a trailer *after* the window payload::

    Ethernet | IPv4 | UDP | NCP | ext+data | hop records ... | INT tail

    tail (5 B):  hop_count:8 | attempt:8 | flags:8 | magic:16
    hop  (20 B): hop:16 | ingress_ns:48 | egress_ns:48 | qdepth:32
                 | tables:8 | flags:8

The tail sits at the *end* of the frame so switches append records
without re-parsing the (kernel-specific) payload; the IPv4/UDP length
fields keep describing the base datagram -- the stack rides outside
them, like a link-layer trailer. Timestamps are the simulator's virtual
clock in integer nanoseconds, so identical runs produce byte-identical
stacks. ``qdepth`` is the egress link backlog in bytes at enqueue;
``tables`` is how many pipeline tables matched for this packet.

Truncation semantics (:class:`IntConfig`): a switch that would push the
stack past ``max_hops`` records or past ``byte_budget`` stack bytes
appends nothing and sets the ``TRUNCATED`` tail flag instead -- the
stack stays parseable and the gap is explicit, exactly like hop-limit
exhaustion in INT-MD.

The disabled path costs nothing: hosts only attach a tail when the
run's :class:`~repro.obs.context.Observability` carries an
:class:`IntConfig`, and switches/links only look at frames whose NCP
flags byte has FLAG_INT set (one fixed-offset byte test).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.errors import ReproError
from repro.ncp.wire import FLAG_INT, FLAGS_OFF, HEADERS_LEN, NCP_MAGIC, NCP_OFF
from repro.util.bits import FieldLayout

#: trailer magic ("telemetry" tail marker, distinct from NCP_MAGIC)
INT_MAGIC = 0x17E1

_TAIL = FieldLayout(
    [("hop_count", 8), ("attempt", 8), ("flags", 8), ("magic", 16)]
)
_HOP = FieldLayout(
    [
        ("hop", 16),
        ("ingress_ns", 48),
        ("egress_ns", 48),
        ("qdepth", 32),
        ("tables", 8),
        ("flags", 8),
    ]
)
TAIL_BYTES = _TAIL.nbytes  # 5
HOP_BYTES = _HOP.nbytes  # 20

#: tail flag: a switch hit the hop cap or byte budget and appended nothing
TAIL_TRUNCATED = 0x01
#: hop-record flag: the packet was dropped at this hop
HOP_DROPPED = 0x01

_NS = 1e9


class IntError(ReproError):
    """Malformed INT trailer or misuse of the stamping API."""


class IntConfig:
    """Per-run INT policy: cap the stack by hop count and/or bytes.

    ``max_hops`` bounds the number of per-hop records; ``byte_budget``
    (optional) bounds the record bytes -- whichever bites first wins.
    """

    __slots__ = ("max_hops", "byte_budget")

    def __init__(self, max_hops: int = 8, byte_budget: Optional[int] = None):
        if max_hops <= 0 or max_hops > 255:
            raise IntError(f"max_hops must be in [1, 255], got {max_hops}")
        if byte_budget is not None and byte_budget < 0:
            raise IntError(f"byte_budget must be non-negative, got {byte_budget}")
        self.max_hops = max_hops
        self.byte_budget = byte_budget

    def allows(self, hop_count: int) -> bool:
        """Room for one more record on a stack of ``hop_count``?"""
        if hop_count >= self.max_hops:
            return False
        if self.byte_budget is not None and (hop_count + 1) * HOP_BYTES > self.byte_budget:
            return False
        return True

    def __repr__(self) -> str:
        return f"IntConfig(max_hops={self.max_hops}, byte_budget={self.byte_budget})"


class IntStack:
    """A decoded INT trailer: the per-hop records plus tail metadata."""

    __slots__ = ("hops", "attempt", "truncated")

    def __init__(self, hops: List[Dict[str, int]], attempt: int, truncated: bool):
        self.hops = hops
        self.attempt = attempt
        self.truncated = truncated

    def __len__(self) -> int:
        return len(self.hops)

    def __repr__(self) -> str:
        t = " truncated" if self.truncated else ""
        return f"IntStack({len(self.hops)} hops, attempt={self.attempt}{t})"


# -- frame predicates ---------------------------------------------------------


def carries_int(data: bytes) -> bool:
    """Does this frame carry an INT trailer? One length check plus three
    fixed-offset byte tests -- the per-frame cost on the disabled path."""
    return (
        len(data) >= HEADERS_LEN + TAIL_BYTES
        and data[NCP_OFF] == (NCP_MAGIC >> 8)
        and data[NCP_OFF + 1] == (NCP_MAGIC & 0xFF)
        and bool(data[FLAGS_OFF] & FLAG_INT)
    )


def _split(frame: bytes) -> Tuple[int, Dict[str, int]]:
    """(length of the base frame, tail fields) of an INT frame; the hop
    records lie between the base frame and the tail."""
    tail = _TAIL.unpack(frame, len(frame) - TAIL_BYTES)
    if tail["magic"] != INT_MAGIC:
        raise IntError(f"bad INT tail magic {tail['magic']:#x}")
    cut = len(frame) - TAIL_BYTES - tail["hop_count"] * HOP_BYTES
    if cut < HEADERS_LEN:
        raise IntError(
            f"INT tail claims {tail['hop_count']} records but the frame "
            f"has only {len(frame)} bytes"
        )
    return cut, tail


# -- host side ----------------------------------------------------------------


def attach_tail(frame: bytes, attempt: int = 0) -> bytes:
    """Arm a freshly encoded NCP frame for INT: set FLAG_INT and append
    an empty trailer. ``attempt`` distinguishes retransmissions (0 is
    the original transmission)."""
    if carries_int(frame):
        raise IntError("frame already carries an INT trailer")
    armed = bytearray(frame)
    armed[FLAGS_OFF] |= FLAG_INT
    return bytes(armed) + _TAIL.pack({"attempt": attempt, "magic": INT_MAGIC})


def peek_stack(frame: bytes) -> Optional[IntStack]:
    """Decode the INT stack without modifying the frame (None when the
    frame carries no trailer)."""
    if not carries_int(frame):
        return None
    cut, tail = _split(frame)
    hops = [
        _HOP.unpack(frame, off)
        for off in range(cut, len(frame) - TAIL_BYTES, HOP_BYTES)
    ]
    return IntStack(hops, tail["attempt"], bool(tail["flags"] & TAIL_TRUNCATED))


def strip_stack(frame: bytes) -> Tuple[bytes, Optional[IntStack]]:
    """Remove the trailer at delivery: returns the bare NCP frame (with
    FLAG_INT cleared) and the decoded stack. A frame without a trailer
    passes through unchanged with a None stack."""
    stack = peek_stack(frame)
    if stack is None:
        return frame, None
    bare = bytearray(frame[: -TAIL_BYTES - len(stack) * HOP_BYTES])
    bare[FLAGS_OFF] &= ~FLAG_INT & 0xFF
    return bytes(bare), stack


# -- switch side --------------------------------------------------------------


def stamp_hop(
    frame: bytes,
    cfg: IntConfig,
    hop_id: int,
    ingress_ts: float,
    egress_ts: float,
    qdepth_bytes: int,
    tables_matched: int,
    dropped: bool = False,
) -> Tuple[bytes, bool]:
    """Append one per-hop record (switch data-plane hook).

    Timestamps are virtual-clock seconds, stored as integer ns. Returns
    ``(frame, stamped)``; when the :class:`IntConfig` caps bite, the
    record is not appended and the tail's TRUNCATED flag is set instead.
    """
    _, tail = _split(frame)
    body = frame[:-TAIL_BYTES]
    if not cfg.allows(tail["hop_count"]):
        tail["flags"] |= TAIL_TRUNCATED
        return body + _TAIL.pack(tail), False
    record = _HOP.pack(
        {
            "hop": hop_id,
            "ingress_ns": int(round(ingress_ts * _NS)),
            "egress_ns": int(round(egress_ts * _NS)),
            "qdepth": int(qdepth_bytes),
            "tables": min(tables_matched, 255),
            "flags": HOP_DROPPED if dropped else 0,
        }
    )
    tail["hop_count"] += 1
    return body + record + _TAIL.pack(tail), True


# -- trace/metrics emission ---------------------------------------------------


def stack_event_args(
    stack: IntStack,
    kernel: int,
    seq: int,
    from_node: int,
    outcome: str,
    frag: Optional[int] = None,
    node_names: Optional[Dict[int, str]] = None,
) -> Dict[str, object]:
    """The ``int:stack`` trace-event payload: window identity, outcome
    (``delivered`` or ``drop:<cause>``), and the per-hop records.
    ``node_names`` (hop id -> label) annotates hops for human readers;
    unresolved hops keep just their numeric id."""
    hops: List[Dict[str, object]] = []
    for rec in stack.hops:
        entry: Dict[str, object] = dict(rec)
        if node_names is not None and rec["hop"] in node_names:
            entry["node"] = node_names[rec["hop"]]
        hops.append(entry)
    args: Dict[str, object] = {
        "kernel": kernel,
        "seq": seq,
        "from": from_node,
        "attempt": stack.attempt,
        "outcome": outcome,
        "hops": hops,
    }
    if stack.truncated:
        args["truncated"] = 1
    if frag is not None:
        args["frag"] = frag
    return args


#: int.hop_latency_ns histogram buckets (nanosecond scale)
HOP_LATENCY_BUCKETS = (
    1e3, 2.5e3, 5e3, 1e4, 2.5e4, 5e4, 1e5, 2.5e5, 5e5, 1e6, 1e7,
)


def record_stack_metrics(registry, host: str, stack: IntStack, deliver_ts: float) -> None:
    """Fold one delivered stack into the registry: stack/record counts,
    truncation count, and the per-hop latency histogram that the
    ``stragglers`` query thresholds against.

    Per-hop latency of hop *i* is ingress-to-ingress (to the next hop,
    or to delivery for the last hop): switch residence plus the egress
    link's queueing and serialization, which is where congestion shows.
    """
    registry.counter(
        "int.stacks", "INT stacks stripped at hosts", ("host",)
    ).labels(host=host).inc()
    registry.counter(
        "int.records", "INT per-hop records stripped at hosts", ("host",)
    ).labels(host=host).inc(len(stack.hops))
    if stack.truncated:
        registry.counter(
            "int.truncated", "INT stacks truncated in flight", ("host",)
        ).labels(host=host).inc()
    if not stack.hops:
        return
    latency = registry.histogram(
        "int.hop_latency_ns",
        "per-hop latency (ingress-to-next-ingress), nanoseconds",
        ("hop",),
        buckets=HOP_LATENCY_BUCKETS,
    )
    deliver_ns = int(round(deliver_ts * _NS))
    for rec, nxt in zip(stack.hops, stack.hops[1:]):
        latency.labels(hop=rec["hop"]).observe(nxt["ingress_ns"] - rec["ingress_ns"])
    last = stack.hops[-1]
    latency.labels(hop=last["hop"]).observe(deliver_ns - last["ingress_ns"])
