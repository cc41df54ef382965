"""Multi-packet windows: NCP fragmentation and reassembly.

The paper deliberately scopes its prototype to windows that fit a packet
and calls multi-packet windows out as future work with a concrete
obstacle: "storing multiple packets may not yet be practical due to
limited switch memory" (S6). This module implements the future-work
half faithfully to that constraint:

* hosts fragment an oversized window into MTU-sized NCP fragments and
  reassemble on receipt;
* **switches do not execute kernels on fragments** -- the fragment
  carries a kernel id outside the deployed dispatch space, so the
  generated parser falls through to plain forwarding (exactly the
  behaviour a window-buffering switch would need memory to avoid).

Fragment frame layout::

    Ethernet | IPv4 | UDP | NCP(kernel_id | FRAG_BIT, flags |= FLAG_FRAG)
             | frag subheader (index:8, count:8, payload_len:16) | bytes

The ablation bench compares one-window-per-packet against fragmented
large windows: fragmentation recovers header efficiency on big windows
but forfeits in-network compute for them.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.errors import NcpError
from repro.ncp.wire import FLAGS_OFF, HEADERS_LEN, SLOT, pack_headers, unpack_headers
from repro.util.bits import FieldLayout

#: set on the wire kernel_id of every fragment; outside the id range the
#: compiler assigns (1..N), so switch parsers never dispatch on it.
FRAG_KERNEL_BIT = 0x8000
#: NCP header flag marking a fragment.
FLAG_FRAG = 0x02

#: the subheader between the NCP header and a fragment's piece
FRAG = FieldLayout([("index", 8), ("count", 8), ("payload_len", 16)])
#: where a fragment's slice of the window payload starts
_PIECE_OFF = HEADERS_LEN + FRAG.nbytes

MAX_FRAGMENTS = 255

#: the header slots fragmenting rewrites, and those that key reassembly
_FLAGS, _KERNEL = SLOT["ncp.flags"], SLOT["ncp.kernel_id"]
_IP_SRC, _SEQ = SLOT["ipv4.src"], SLOT["ncp.seq"]


def fragment_frame(frame: bytes, mtu: int) -> List[bytes]:
    """Split an encoded NCP frame into fragments that fit *mtu* bytes.

    Returns ``[frame]`` unchanged when it already fits. The NCP header is
    replicated into each fragment (with the FRAG markers); the payload
    (window extension fields + data) is what gets sliced.
    """
    if len(frame) <= mtu:
        return [frame]
    budget = mtu - _PIECE_OFF
    if budget <= 0:
        raise NcpError(f"mtu {mtu} too small for NCP headers")
    headers = list(unpack_headers(frame))
    if headers[_FLAGS] & FLAG_FRAG:
        raise NcpError("refusing to fragment a fragment")
    pieces = [frame[i : i + budget] for i in range(HEADERS_LEN, len(frame), budget)]
    if len(pieces) > MAX_FRAGMENTS:
        raise NcpError(f"window needs {len(pieces)} fragments (max {MAX_FRAGMENTS})")

    headers[_KERNEL] |= FRAG_KERNEL_BIT
    headers[_FLAGS] |= FLAG_FRAG
    return [
        pack_headers(headers, FRAG.nbytes + len(piece))
        + FRAG.pack_seq((index, len(pieces), len(piece)))
        + piece
        for index, piece in enumerate(pieces)
    ]


def is_fragment(data: bytes) -> bool:
    return len(data) >= HEADERS_LEN and bool(data[FLAGS_OFF] & FLAG_FRAG)


def fragment_index(data: bytes) -> int:
    """Position of a fragment within its window."""
    return FRAG.unpack(data, HEADERS_LEN)["index"]


class Reassembler:
    """Collects fragments into complete NCP frames.

    Keyed by (src ip, original kernel id, seq) -- one outstanding window
    per sender/kernel/seq, as NCP's window sequencing guarantees.  At
    most ``max_pending`` windows wait: the first fragment of one more
    evicts the oldest (one that lost a fragment would never leave).
    """

    def __init__(self, max_pending: int = 1024):
        #: key -> (fragment count, first fragment's header slots, index -> piece)
        self._pending: Dict[
            Tuple[int, int, int], Tuple[int, List[int], Dict[int, bytes]]
        ] = {}
        self.max_pending = max_pending
        self.reassembled = 0
        self.fragments_seen = 0
        #: windows given up on to make room, and the payload bytes they held
        self.evicted = 0
        self.evicted_bytes = 0

    def feed(self, data: bytes) -> Optional[bytes]:
        """Add one fragment; returns the rebuilt original frame when this
        fragment completes its window, else None.  A malformed fragment
        raises NcpError and leaves the pending windows as they were."""
        if len(data) < _PIECE_OFF:
            raise NcpError(
                f"truncated fragment: headers need {_PIECE_OFF} bytes, "
                f"have {len(data)}"
            )
        headers = list(unpack_headers(data))
        if not headers[_FLAGS] & FLAG_FRAG:
            raise NcpError("not a fragment")
        index, count, piece_len = FRAG.unpack_seq(data, HEADERS_LEN)
        self.fragments_seen += 1
        if index >= count:
            raise NcpError(f"fragment index {index} outside its count {count}")

        original_kernel = headers[_KERNEL] & ~FRAG_KERNEL_BIT
        key = (headers[_IP_SRC], original_kernel, headers[_SEQ])
        entry = self._pending.get(key)
        if entry is None:
            if len(self._pending) >= self.max_pending:
                oldest = next(iter(self._pending))  # dicts keep insertion order
                self.evicted += 1
                self.evicted_bytes += sum(map(len, self._pending.pop(oldest)[2].values()))
            entry = self._pending[key] = (count, headers, {})
        elif count != entry[0]:
            raise NcpError(
                f"fragment claims {count} fragments, its window has {entry[0]}"
            )
        count, headers, pieces = entry
        pieces[index] = data[_PIECE_OFF : _PIECE_OFF + piece_len]
        if len(pieces) < count:
            return None
        del self._pending[key]
        payload = b"".join(pieces[i] for i in range(count))
        headers[_KERNEL] = original_kernel
        headers[_FLAGS] &= ~FLAG_FRAG
        self.reassembled += 1
        return pack_headers(headers, len(payload)) + payload

    @property
    def pending_windows(self) -> int:
        return len(self._pending)
