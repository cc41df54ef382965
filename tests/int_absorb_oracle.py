"""What a switch did with a packet it consumed, as cb58053 did it: deparse
the packet, stamp the final hop record into the bytes with the DROPPED
flag, decode the bytes it had just made, and name the window from a
second header peek.  Nothing under ``src/`` imports this; it is the
oracle ``tests/test_int_absorb_differential.py`` holds
``PisaSwitchNode._int_absorb`` and ``repro.obs.int.hop_record`` to.

``parent_stamp_hop`` is the parent's ``stamp_hop`` verbatim, masks and
all -- today's packs what ``hop_record`` returns, so comparing today's
with itself would show nothing.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple, Union

from repro.ncp.wire import peek_frame
from repro.obs.int import (
    HOP_DROPPED,
    INT_MAGIC,
    TAIL_BYTES,
    TAIL_TRUNCATED,
    IntConfig,
    IntError,
    _pack_hop,
    _pack_tail,
    _split,
    carries_int,
    peek_stack,
    stack_event_args,
)

_NS = 1e9
_LO32 = 0xFFFFFFFF


def parent_stamp_hop(
    frame: bytes,
    cfg: IntConfig,
    hop_id: int,
    ingress_ts: float,
    egress_ts: float,
    qdepth_bytes: int,
    tables_matched: int,
    dropped: bool = False,
) -> Tuple[bytes, bool]:
    _, hop_count, attempt, flags = _split(frame)
    body = frame[:-TAIL_BYTES]
    if not cfg.allows(hop_count):
        return body + _pack_tail(hop_count, attempt, flags | TAIL_TRUNCATED, INT_MAGIC), False
    ingress = int(round(ingress_ts * _NS))
    egress = int(round(egress_ts * _NS))
    record = _pack_hop(
        hop_id & 0xFFFF,
        ingress >> 32 & 0xFFFF, ingress & _LO32,
        egress >> 32 & 0xFFFF, egress & _LO32,
        int(qdepth_bytes) & _LO32,
        min(tables_matched, 255),
        HOP_DROPPED if dropped else 0,
    )
    return body + record + _pack_tail(hop_count + 1, attempt, flags, INT_MAGIC), True


def parent_int_absorb(
    deparsed: bytes,
    cfg: IntConfig,
    node_id: int,
    now: float,
    pipeline_delay: float,
    tables_matched: int,
    outcome: str,
    node_names: Dict[int, str],
) -> Union[None, Tuple[str, int], Dict[str, object]]:
    """What the parent's ``_int_absorb`` left in the trace for the
    deparsed bytes of a consumed packet: ``None`` (no trailer, or no
    window to name), ``("int", nbytes)`` for the ``drop`` instant of a
    trailer that does not parse, or the ``int:stack`` event's args."""
    data = deparsed
    if not carries_int(data):
        return None
    try:
        data, _ = parent_stamp_hop(
            data, cfg, node_id, now - pipeline_delay, now, 0, tables_matched,
            dropped=True,
        )
    except IntError:
        return ("int", len(data))
    stack = peek_stack(data)
    meta: Optional[Dict[str, int]] = peek_frame(data)
    if stack is None or meta is None:
        return None
    return stack_event_args(
        stack, meta["kernel"], meta["seq"], meta["from"], outcome,
        node_names=node_names,
    )
