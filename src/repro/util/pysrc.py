"""Writing and compiling generated Python source: the little that the
two executors' lowerings (``repro.nir.pygen``, ``repro.pisa.pygen``)
share."""

from __future__ import annotations

import linecache
from contextlib import contextmanager
from functools import lru_cache
from typing import Dict, Iterator, List


class SourceWriter:
    """Collects source lines at a current indentation depth."""

    def __init__(self) -> None:
        self.lines: List[str] = []
        self.depth = 0

    def __call__(self, text: str) -> None:
        self.lines.append("    " * self.depth + text)

    @contextmanager
    def block(self, header: str) -> Iterator[None]:
        """``header`` then everything written inside, one level deeper."""
        self(header)
        self.depth += 1
        try:
            yield
        finally:
            self.depth -= 1


@lru_cache(maxsize=128)
def _code(filename: str, source: str):
    """``compile()`` is 85 % of what a lowering costs, and the text says
    all there is to say about a program (a changed program has a changed
    text): a second pipeline or interpreter over the same one does not
    pay it again."""
    return compile(source, filename, "exec")


def compile_source(filename: str, source: str, env: Dict[str, object]) -> Dict[str, object]:
    """Execute *source* in *env* under the pseudo-filename *filename*
    (``<nir result>``, ``<p4 ncl_s1>``) and return *env*. The source is
    registered with :mod:`linecache` (mtime None: not backed by a file, so
    ``checkcache()`` leaves it) for tracebacks to show the generated line."""
    linecache.cache[filename] = (len(source), None, source.splitlines(True), filename)
    exec(_code(filename, source), env)
    return env
