"""NCP wire format.

NCP (Net Compute Protocol, paper S3.2) is the window transport: besides
moving window data it "encodes kernel execution context" -- which kernel
to execute, the window sequence number, the sender, and any user-defined
window-struct extension fields.

Frame layout (prototype scope: one window per packet, over UDP)::

    Ethernet | IPv4 | UDP(dport=NCP_PORT) | NCP fixed | ext fields | data

The same (name, bits) layouts drive every consumer:

* the host-side codec in this module (:func:`encode_frame` /
  :func:`decode_frame` / :func:`peek_frame`), which runs on
  :data:`HEADERS` -- the four fixed headers stacked into one compiled
  54-byte layout, written by one positional ``struct`` call -- and on
  each :class:`KernelLayout`'s compiled ``payload`` plan;
* fragments (:mod:`repro.ncp.fragment`), INT (:mod:`repro.obs.int`) and
  the deployment checker, which take every header offset, slot and length
  from :data:`HEADERS` (the constants below exist in this module only);
* nclc's generated parser, so the switch parses exactly what hosts emit.
"""

from __future__ import annotations

from itertools import accumulate
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from repro.errors import NcpError
from repro.ncl.types import PointerType, Type, is_signed, scalar_bits
from repro.util.bits import FieldLayout

# -- constants -----------------------------------------------------------------

ETHERTYPE_IPV4 = 0x0800
IP_PROTO_UDP = 17
NCP_PORT = 0x4E43  # 'NC'
NCP_MAGIC = 0xC317
NCP_VERSION = 1

FLAG_LAST = 0x01
#: (0x02 is FLAG_FRAG, defined in repro.ncp.fragment)
#: frame carries an in-band telemetry trailer (see repro.obs.int)
FLAG_INT = 0x04

ETH_FIELDS: List[Tuple[str, int]] = [("dst", 48), ("src", 48), ("ethertype", 16)]
IPV4_FIELDS: List[Tuple[str, int]] = [
    ("version_ihl", 8),
    ("tos", 8),
    ("total_len", 16),
    ("ident", 16),
    ("flags_frag", 16),
    ("ttl", 8),
    ("proto", 8),
    ("checksum", 16),
    ("src", 32),
    ("dst", 32),
]
UDP_FIELDS: List[Tuple[str, int]] = [
    ("sport", 16),
    ("dport", 16),
    ("length", 16),
    ("checksum", 16),
]
NCP_FIELDS: List[Tuple[str, int]] = [
    ("magic", 16),
    ("version", 8),
    ("flags", 8),
    ("kernel_id", 16),
    ("from_node", 16),
    ("seq", 32),
]

IPV4_VERSION_IHL = 0x45
DEFAULT_TTL = 64

#: ETH | IPv4 | UDP | NCP as one layout; fields are named
#: ``<instance>.<field>`` like the switch program's PHV references.
HEADERS = FieldLayout(
    [
        (f"{instance}.{name}", bits)
        for instance, fields in (
            ("eth", ETH_FIELDS), ("ipv4", IPV4_FIELDS),
            ("udp", UDP_FIELDS), ("ncp", NCP_FIELDS),
        )
        for name, bits in fields
    ]
)
#: bytes before the window payload (also the shortest NCP frame)
HEADERS_LEN = HEADERS.nbytes
IPV4_OFF = HEADERS.offset("ipv4.version_ihl")
UDP_OFF = HEADERS.offset("udp.sport")
NCP_OFF = HEADERS.offset("ncp.magic")
FLAGS_OFF = HEADERS.offset("ncp.flags")

#: The headers as one positional ``struct`` call, a MAC moving as a 16+32
#: pair of slots; ``SLOT`` is where a field's (first) slot sits in what
#: :data:`unpack_headers` yields and :func:`pack_headers` takes.
_PAIRED = HEADERS.paired()
SLOT = dict(zip(
    HEADERS.names, accumulate((1 + (bits == 48) for _, bits in HEADERS.fields), initial=0)
))
unpack_headers = _PAIRED.unpack_from
_TOTAL_LEN, _UDP_LENGTH = SLOT["ipv4.total_len"], SLOT["udp.length"]

#: the fields routing, tracing and decoding need, read in one call
_KEY_FIELDS = HEADERS.reader(
    "eth.ethertype", "ipv4.proto", "ipv4.src", "ipv4.dst", "udp.dport",
    "ncp.magic", "ncp.version", "ncp.flags", "ncp.kernel_id",
    "ncp.from_node", "ncp.seq",
).unpack_from


#: what a node's MAC (02:00:00:00:x:y) and address carry above its id
_MAC_HI, _IP_NET = 0x0200, 10 << 24


def node_ip(node_id: int) -> int:
    """Deterministic IPv4 address for a node id: 10.0.x.y."""
    return _IP_NET | (node_id & 0xFFFF)


def node_mac(node_id: int) -> int:
    return (_MAC_HI << 32) | (node_id & 0xFFFF)


# -- kernel layouts ----------------------------------------------------------------


class ChunkLayout:
    """One parameter's slice of a window: ``count`` elements of
    ``bits``-wide (``signed``?) integers."""

    __slots__ = ("name", "count", "bits", "signed")

    def __init__(self, name: str, count: int, bits: int, signed: bool):
        if count <= 0:
            raise NcpError(f"chunk {name!r}: count must be positive")
        if bits not in (8, 16, 32, 64):
            raise NcpError(f"chunk {name!r}: unsupported element width {bits}")
        self.name = name
        self.count = count
        self.bits = bits
        self.signed = signed

    @property
    def bytes(self) -> int:
        return self.count * self.bits // 8

    def __repr__(self) -> str:
        return f"ChunkLayout({self.name} x{self.count} @{self.bits}b)"


class KernelLayout:
    """The on-the-wire shape of one kernel's windows.

    Derived from the kernel signature plus the window mask: parameter *i*
    contributes ``mask[i]`` elements per window (paper S4.2: "a mask with
    the number of elements from each array ... its length must always
    match the number of pointers in an _out_ kernel's signature").
    Scalar parameters contribute one element regardless.
    """

    def __init__(
        self,
        kernel_id: int,
        kernel_name: str,
        chunks: Sequence[ChunkLayout],
        ext_fields: Sequence[Tuple[str, int, bool]] = (),
    ):
        self.kernel_id = kernel_id
        self.kernel_name = kernel_name
        self.chunks = list(chunks)
        self.ext_fields = [(n, b, s) for n, b, s in ext_fields]
        self.ext_names = tuple(n for n, _, _ in self.ext_fields)
        #: [start, end) of each chunk among the payload plan's values
        ends = list(accumulate((c.count for c in self.chunks), initial=len(self.ext_names)))
        self.chunk_bounds = list(zip(ends, ends[1:]))
        #: compiled ext+chunks plan: packs with to_unsigned semantics,
        #: unpacks each element wrapped to its width and signedness
        self.payload = FieldLayout(
            [(f"x_{name}", bits, signed) for name, bits, signed in self.ext_fields]
            + [
                (f"d{ci}_{ei}", chunk.bits, chunk.signed)
                for ci, chunk in enumerate(self.chunks)
                for ei in range(chunk.count)
            ]
        )

    @property
    def data_bytes(self) -> int:
        return sum(c.bytes for c in self.chunks)

    @property
    def ext_bytes(self) -> int:
        return sum(b for _, b, _ in self.ext_fields) // 8

    def payload_field_layout(self) -> List[Tuple[str, int]]:
        """(name, bits) list for ext fields + data elements; also the
        field layout of the generated per-kernel P4 header."""
        return list(self.payload.fields)

    def __repr__(self) -> str:
        return f"KernelLayout(#{self.kernel_id} {self.kernel_name}, {self.chunks})"


def layout_for_kernel(
    kernel_id: int,
    kernel_name: str,
    param_types: Sequence[Tuple[str, Type]],
    mask: Sequence[int],
    ext_fields: Sequence[Tuple[str, Type]] = (),
) -> KernelLayout:
    """Build a KernelLayout from NCL types + a window mask."""
    if len(mask) != len(param_types):
        raise NcpError(
            f"mask length {len(mask)} != number of window-data parameters "
            f"{len(param_types)}"
        )
    chunks = []
    for (name, ty), count in zip(param_types, mask):
        if isinstance(ty, PointerType):
            elem = ty.pointee
        else:
            elem = ty
            if count != 1:
                raise NcpError(
                    f"scalar parameter {name!r} must have mask entry 1, got {count}"
                )
        chunks.append(ChunkLayout(name, count, scalar_bits(elem), is_signed(elem)))
    ext = [(n, scalar_bits(t), is_signed(t)) for n, t in ext_fields]
    return KernelLayout(kernel_id, kernel_name, chunks, ext)


# -- frame codec --------------------------------------------------------------------


def pack_headers(slots: List[int], body_len: int) -> bytes:
    """The 54 header bytes from one in-range value per :data:`SLOT`, for
    a frame whose NCP header is followed by ``body_len`` bytes; fills in
    the UDP and IPv4 length slots."""
    slots[_UDP_LENGTH] = (HEADERS_LEN - UDP_OFF + body_len) & 0xFFFF
    slots[_TOTAL_LEN] = (HEADERS_LEN - IPV4_OFF + body_len) & 0xFFFF
    return _PAIRED.pack(*slots)


def encode_frame(
    layout: KernelLayout,
    src_node: int,
    dst_node: int,
    seq: int,
    chunks: Sequence[Sequence[int]],
    ext_values: Optional[Dict[str, int]] = None,
    last: bool = False,
    from_node: Optional[int] = None,
) -> bytes:
    """Serialize one window into a full Ethernet/IPv4/UDP/NCP frame."""
    if len(chunks) != len(layout.chunks):
        raise NcpError(
            f"expected {len(layout.chunks)} chunks, got {len(chunks)}"
        )
    ext_values = ext_values or {}
    values: List[int] = []
    for name in layout.ext_names:
        if name not in ext_values:
            raise NcpError(f"missing window extension field {name!r}")
        values.append(ext_values[name])
    for chunk_layout, chunk in zip(layout.chunks, chunks):
        if len(chunk) != chunk_layout.count:
            raise NcpError(
                f"chunk {chunk_layout.name!r}: expected {chunk_layout.count} "
                f"elements, got {len(chunk)}"
            )
        values.extend(chunk)
    payload = layout.payload.pack_seq(values)
    src, dst = src_node & 0xFFFF, dst_node & 0xFFFF
    headers = pack_headers(
        [  # in HEADERS order, one value per slot
            _MAC_HI, dst, _MAC_HI, src, ETHERTYPE_IPV4,
            IPV4_VERSION_IHL, 0, 0, seq & 0xFFFF, 0, DEFAULT_TTL, IP_PROTO_UDP, 0,
            _IP_NET | src, _IP_NET | dst,
            NCP_PORT, NCP_PORT, 0, 0,
            NCP_MAGIC, NCP_VERSION, FLAG_LAST if last else 0,
            layout.kernel_id & 0xFFFF,
            (src_node if from_node is None else from_node) & 0xFFFF,
            seq & 0xFFFFFFFF,
        ],
        len(payload),
    )
    return headers + payload


class DecodedFrame(NamedTuple):
    """A parsed NCP frame."""

    src_node: int
    dst_node: int
    kernel_id: int
    from_node: int
    seq: int
    last: bool
    ext: Dict[str, int]
    chunks: List[List[int]]


def is_ncp_frame(data: bytes) -> bool:
    """Cheap check mirroring the switch parser's NCP recognition."""
    return peek_frame(data) is not None


def peek_frame(data: bytes) -> Optional[Dict[str, int]]:
    """Header-only decode (no layout needed) for tracing and routing:
    which window is this frame carrying? Returns None for non-NCP
    frames. One fixed-offset read -- it runs once per packet on the
    simulator fast path (cached on repro.net.Frame)."""
    if len(data) < HEADERS_LEN:
        return None
    (ethertype, proto, src, dst, dport, magic, _version, flags, kernel,
     from_node, seq) = _KEY_FIELDS(data)
    if (
        ethertype != ETHERTYPE_IPV4
        or proto != IP_PROTO_UDP
        or dport != NCP_PORT
        or magic != NCP_MAGIC
    ):
        return None
    return {
        "kernel": kernel,
        "seq": seq,
        "from": from_node,
        "last": 1 if flags & FLAG_LAST else 0,
        "src": src & 0xFFFF,
        "dst": dst & 0xFFFF,
    }


def decode_frame(
    data: bytes, layouts: Dict[int, KernelLayout]
) -> DecodedFrame:
    """Parse a full frame; dispatches the payload layout on kernel_id."""
    if len(data) < HEADERS_LEN:
        raise NcpError(
            f"truncated frame: the NCP headers need {HEADERS_LEN} bytes, "
            f"have {len(data)}"
        )
    (ethertype, proto, src, dst, dport, magic, version, flags, kernel_id,
     from_node, seq) = _KEY_FIELDS(data)
    if ethertype != ETHERTYPE_IPV4:
        raise NcpError(f"not IPv4 (ethertype {ethertype:#x})")
    if proto != IP_PROTO_UDP:
        raise NcpError(f"not UDP (proto {proto})")
    if dport != NCP_PORT:
        raise NcpError(f"not an NCP port ({dport})")
    if magic != NCP_MAGIC:
        raise NcpError(f"bad NCP magic {magic:#x}")
    if version != NCP_VERSION:
        raise NcpError(f"unsupported NCP version {version}")
    layout = layouts.get(kernel_id)
    if layout is None:
        raise NcpError(f"unknown kernel id {kernel_id}")
    payload = layout.payload
    if len(data) < HEADERS_LEN + payload.nbytes:
        raise NcpError(
            f"truncated frame: a {layout.kernel_name} window payload needs "
            f"{payload.nbytes} bytes, have {len(data) - HEADERS_LEN}"
        )
    values = payload.unpack_seq(data, HEADERS_LEN)
    return DecodedFrame(
        src & 0xFFFF, dst & 0xFFFF, kernel_id, from_node, seq, bool(flags & FLAG_LAST),
        dict(zip(layout.ext_names, values)),
        [list(values[start:end]) for start, end in layout.chunk_bounds],
    )
