"""The simulator's shared packet representation.

A :class:`Frame` pairs the raw wire bytes with a lazily-parsed,
cached header view (:func:`repro.ncp.wire.peek_frame`'s dict).  Every
component of the packet path -- links, switch nodes, the host runtime --
passes the *same* Frame object along, so a packet's NCP/IPv4 headers are
parsed at most once per packet instead of once per hop ("parse once,
route everywhere").

Inside the fabric a Frame is the only currency: :meth:`Node.send
<repro.net.node.Node.send>` is the one place bytes become a Frame, and
links, pipes and every ``handle_frame`` take Frames only.  Raw bytes
stay the currency at the host edge: ``HostNode.transmit`` takes the
bytes an application encoded and a plain ``receiver`` callback gets
``frame.data`` back, identity-preserved.  Anything that rewrites the
packet (a PISA pipeline, INT stamping) produces fresh bytes, which the
switch's own ``send`` wraps into a fresh Frame.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.ncp.wire import peek_frame

#: sentinel: header metadata not parsed yet (``None`` is a valid parse
#: result -- it marks a non-NCP frame)
_UNPARSED = object()


class Frame:
    """One in-flight packet: wire bytes + cached header metadata."""

    __slots__ = ("data", "_meta")

    def __init__(self, data: bytes, meta: object = _UNPARSED) -> None:
        self.data = data
        self._meta = meta

    @property
    def meta(self) -> Optional[Dict[str, int]]:
        """The header-only NCP view (kernel/seq/from/src/dst), parsed on
        first access and cached; ``None`` for non-NCP frames."""
        meta = self._meta
        if meta is _UNPARSED:
            meta = peek_frame(self.data)
            self._meta = meta
        return meta  # type: ignore[return-value]

    def named(self, args: Dict[str, object]) -> Dict[str, object]:
        """*args* plus the window this frame carries, if it carries one:
        how a trace event about a frame starts (built when it is read)."""
        meta = self.meta
        if meta is not None:
            args["kernel"], args["seq"], args["from"] = (
                meta["kernel"], meta["seq"], meta["from"])
        return args

    @property
    def size(self) -> int:
        return len(self.data)

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:
        meta = self._meta
        if meta is _UNPARSED:
            return f"Frame({len(self.data)}B, unparsed)"
        if meta is None:
            return f"Frame({len(self.data)}B, non-NCP)"
        return (
            f"Frame({len(self.data)}B, k{meta['kernel']} seq={meta['seq']} "  # type: ignore[index]
            f"from={meta['from']} dst={meta['dst']})"  # type: ignore[index]
        )
