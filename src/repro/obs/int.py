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
from repro.obs.registry import BoundSeries, FamilySpec
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

# One ``struct`` call moves one record, positionally (a name -> value dict
# per record cost ten times the call). Every tail field is a struct width; a
# hop record's two 48-bit timestamps each move as a 16+32 pair of slots,
# split where the record is stamped and joined where it is read.
_pack_tail, _unpack_tail = _TAIL.unsigned.pack, _TAIL.unsigned.unpack_from
_HOP_PAIRED = _HOP.paired()
_pack_hop, _unpack_hop = _HOP_PAIRED.pack, _HOP_PAIRED.unpack_from
_LO32 = 0xFFFFFFFF
_LO48 = 0xFFFFFFFFFFFF

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
    """A decoded INT trailer: the per-hop records plus tail metadata.

    ``records`` holds one tuple per hop, in the hop record's field order
    (``hop, ingress_ns, egress_ns, qdepth, tables, flags``); ``hops`` is
    the same records as name -> value dicts, built when asked for."""

    __slots__ = ("records", "attempt", "truncated")

    def __init__(self, records: List[Tuple[int, ...]], attempt: int, truncated: bool):
        self.records = records
        self.attempt = attempt
        self.truncated = truncated

    @property
    def hops(self) -> List[Dict[str, int]]:
        return [dict(zip(_HOP.names, record)) for record in self.records]

    def __len__(self) -> int:
        return len(self.records)

    def __repr__(self) -> str:
        t = " truncated" if self.truncated else ""
        return f"IntStack({len(self.records)} hops, attempt={self.attempt}{t})"


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


def _split(frame: bytes) -> Tuple[int, int, int, int]:
    """``(length of the base frame, hop_count, attempt, flags)`` of an
    INT frame; the hop records lie between the base frame and the tail."""
    end = len(frame) - TAIL_BYTES
    if end < HEADERS_LEN:
        raise IntError(f"no room for an INT tail in a {len(frame)}-byte frame")
    hop_count, attempt, flags, magic = _unpack_tail(frame, end)
    if magic != INT_MAGIC:
        raise IntError(f"bad INT tail magic {magic:#x}")
    cut = end - hop_count * HOP_BYTES
    if cut < HEADERS_LEN:
        raise IntError(
            f"INT tail claims {hop_count} records but the frame "
            f"has only {len(frame)} bytes"
        )
    return cut, hop_count, attempt, flags


# -- host side ----------------------------------------------------------------


def attach_tail(frame: bytes, attempt: int = 0) -> bytes:
    """Arm a freshly encoded NCP frame for INT: set FLAG_INT and append
    an empty trailer. ``attempt`` distinguishes retransmissions (0 is
    the original transmission) and saturates at 255, the field's top:
    telemetry must not fail the send, and a wrapped count would enter
    the lineage index as the original."""
    if carries_int(frame):
        raise IntError("frame already carries an INT trailer")
    armed = bytearray(frame)
    armed[FLAGS_OFF] |= FLAG_INT
    return bytes(armed) + _pack_tail(0, min(attempt, 255), 0, INT_MAGIC)


def peek_stack(frame: bytes) -> Optional[IntStack]:
    """Decode the INT stack without modifying the frame (None when the
    frame carries no trailer)."""
    if not carries_int(frame):
        return None
    cut, hop_count, attempt, flags = _split(frame)
    records = []
    for off in range(cut, cut + hop_count * HOP_BYTES, HOP_BYTES):
        hop, ih, il, eh, el, qdepth, tables, hflags = _unpack_hop(frame, off)
        records.append((hop, ih << 32 | il, eh << 32 | el, qdepth, tables, hflags))
    return IntStack(records, attempt, bool(flags & TAIL_TRUNCATED))


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


def hop_record(
    hop_id: int,
    ingress_ts: float,
    egress_ts: float,
    qdepth_bytes: int,
    tables_matched: int,
    dropped: bool = False,
) -> Tuple[int, ...]:
    """One hop's record as :attr:`IntStack.records` holds it (what
    :func:`stamp_hop` packs, and what a switch consuming the packet
    appends to the stack it arrived with). Timestamps are virtual-clock
    seconds, stored as integer ns; out-of-range values wrap to their
    field, as FieldLayout packs them, and ``tables`` saturates."""
    return (
        hop_id & 0xFFFF,
        int(round(ingress_ts * _NS)) & _LO48,
        int(round(egress_ts * _NS)) & _LO48,
        int(qdepth_bytes) & _LO32,
        tables_matched if tables_matched < 255 else 255,
        HOP_DROPPED if dropped else 0,
    )


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
    """Append one :func:`hop_record` (switch data-plane hook). Returns
    ``(frame, stamped)``; when the :class:`IntConfig` caps bite, the
    record is not appended and the tail's TRUNCATED flag is set instead.
    """
    _, hop_count, attempt, flags = _split(frame)
    body = frame[:-TAIL_BYTES]
    if not cfg.allows(hop_count):
        return body + _pack_tail(hop_count, attempt, flags | TAIL_TRUNCATED, INT_MAGIC), False
    hop, ingress, egress, qdepth, tables, hflags = hop_record(
        hop_id, ingress_ts, egress_ts, qdepth_bytes, tables_matched, dropped
    )
    record = _pack_hop(
        hop, ingress >> 32, ingress & _LO32, egress >> 32, egress & _LO32,
        qdepth, tables, hflags,
    )
    return body + record + _pack_tail(hop_count + 1, attempt, flags, INT_MAGIC), True


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
    hops: List[Dict[str, object]] = stack.hops  # fresh dicts, ours to annotate
    if node_names is not None:
        for entry in hops:
            if entry["hop"] in node_names:
                entry["node"] = node_names[entry["hop"]]
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


_STACKS = FamilySpec("counter", "int.stacks", "INT stacks stripped at hosts", ("host",))
_RECORDS = FamilySpec(
    "counter", "int.records", "INT per-hop records stripped at hosts", ("host",)
)
_TRUNCATED = FamilySpec(
    "counter", "int.truncated", "INT stacks truncated in flight", ("host",)
)
_HOP_LATENCY = FamilySpec(
    "histogram", "int.hop_latency_ns",
    "per-hop latency (ingress-to-next-ingress), nanoseconds",
    ("hop",), HOP_LATENCY_BUCKETS,
)


def record_stack_metrics(
    series: BoundSeries, registry, host: str, stack: IntStack, deliver_ts: float
) -> None:
    """Fold one delivered stack into the registry, through the
    delivering host's bound *series*: stack/record counts, truncation
    count, and the per-hop latency histogram that the ``stragglers``
    query thresholds against.

    Per-hop latency of hop *i* is ingress-to-ingress (to the next hop,
    or to delivery for the last hop): switch residence plus the egress
    link's queueing and serialization, which is where congestion shows.
    """
    records = stack.records
    series[registry, _STACKS, host].inc()
    series[registry, _RECORDS, host].inc(len(records))
    if stack.truncated:
        series[registry, _TRUNCATED, host].inc()
    if not records:
        return
    for record, nxt in zip(records, records[1:]):
        series[registry, _HOP_LATENCY, record[0]].observe(nxt[1] - record[1])
    hop, ingress_ns = records[-1][:2]
    series[registry, _HOP_LATENCY, hop].observe(
        int(round(deliver_ts * _NS)) - ingress_ns
    )
