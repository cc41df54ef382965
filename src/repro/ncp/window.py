"""The window abstraction (paper S4.2).

A window associates elements across the arrays of one kernel invocation
-- "a basic unit of processing". The runtime constructs windows from a
*window specification* (a mask giving the number of elements taken from
each array per window) completely transparently, and reassembles arrays
from windows at the receiver.

Windows are not packets: the prototype maps one window to one packet
(paper S6), but :class:`Windower` is written against the abstraction so
multi-packet windows bolt on in the framing layer, and the ablation
bench exercises both window/packet ratios the codec supports.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence

from repro.errors import NcpError


class Window:
    """One window: per-array chunks plus its metadata.  It owns the chunk
    lists it is given (the windower's slices, the decoder's lists: built
    for it, copied by nobody); ``ext`` is only read, and the windows of
    one invocation share theirs."""

    __slots__ = ("seq", "chunks", "ext", "last", "from_node")

    def __init__(
        self,
        seq: int,
        chunks: Sequence[Sequence[int]],
        ext: Optional[Dict[str, int]] = None,
        last: bool = False,
        from_node: int = 0,
    ):
        self.seq = seq
        self.chunks = chunks
        self.ext = {} if ext is None else ext
        self.last = last
        self.from_node = from_node

    def meta(self) -> Dict[str, int]:
        """Window-struct fields as seen by kernel code."""
        meta = {"seq": self.seq, "from": self.from_node, "last": int(self.last)}
        meta.update(self.ext)
        return meta

    def __repr__(self) -> str:
        sizes = "/".join(str(len(c)) for c in self.chunks)
        return f"Window(seq={self.seq}, chunks={sizes}, last={self.last})"


class Windower:
    """Splits arrays into windows per a mask, and reassembles them.

    The mask has one entry per array; entry *i* is the number of elements
    array *i* contributes to each window (Fig 2 uses ``{2,2}``). Arrays
    must be mask-aligned multiples of one another: every array is
    consumed after the same number of windows.
    """

    def __init__(self, mask: Sequence[int]):
        if not mask or any(m <= 0 for m in mask):
            raise NcpError(f"invalid window mask {list(mask)}")
        self.mask = tuple(int(m) for m in mask)

    def window_count(self, arrays: Sequence[Sequence[int]]) -> int:
        if len(arrays) != len(self.mask):
            raise NcpError(
                f"mask has {len(self.mask)} entries but {len(arrays)} arrays given"
            )
        counts = set()
        for array, m in zip(arrays, self.mask):
            if len(array) % m != 0:
                raise NcpError(
                    f"array of length {len(array)} is not divisible by its "
                    f"mask entry {m}"
                )
            counts.add(len(array) // m)
        if len(counts) != 1:
            raise NcpError(
                f"arrays yield differing window counts {sorted(counts)}; "
                "all arrays must be consumed after the same number of windows"
            )
        return counts.pop()

    def split(
        self,
        arrays: Sequence[Sequence[int]],
        ext: Optional[Dict[str, int]] = None,
        from_node: int = 0,
    ) -> Iterator[Window]:
        """Yield the windows of one kernel invocation, in sequence order."""
        total = self.window_count(arrays)
        for seq in range(total):
            chunks = [array[seq * m : (seq + 1) * m] for array, m in zip(arrays, self.mask)]
            yield Window(seq, chunks, ext, seq == total - 1, from_node)

    def scatter(
        self, window: Window, arrays: Sequence[List[int]]
    ) -> None:
        """Write a window's chunks back into position in ``arrays``
        (receiver-side reassembly)."""
        if len(arrays) != len(self.mask):
            raise NcpError("array count does not match mask")
        for array, chunk, m in zip(arrays, window.chunks, self.mask):
            if len(chunk) != m:
                raise NcpError(
                    f"window chunk has {len(chunk)} elements, mask says {m}"
                )
            base = window.seq * m
            if base + m > len(array):
                raise NcpError(
                    f"window seq {window.seq} overruns array of length {len(array)}"
                )
            array[base : base + m] = chunk

    def reassemble(
        self, windows: Sequence[Window], lengths: Sequence[int]
    ) -> List[List[int]]:
        """Rebuild full arrays from an (unordered) window sequence."""
        arrays: List[List[int]] = [[0] * n for n in lengths]
        for window in windows:
            self.scatter(window, arrays)
        return arrays
