"""Content-addressed artifact cache for nclc.

A cache key is the sha256 of everything that determines compiler
output: the NCL source, ``-D`` defines, the AND text, window configs,
the chip profile, the optimization level and split option, and the
*pipeline fingerprint* (compile steps + NIR pass lists plus the compiler
version, :func:`repro.nclc.pm.pipeline_fingerprint`). Change any of
them -- including just upgrading the compiler or reordering a pass --
and the key changes, so a hit is always safe to reuse.

The cached value is the byte-stable ``repro.nclc/2`` artifact JSON
(:mod:`repro.nclc.artifact`); a warm hit skips the frontend and the NIR
pipeline -- loading regenerates only the P4 from the stored NIR --
which is what makes unchanged rebuilds fast.

Layout on disk (when a root directory is given)::

    <root>/<key[:2]>/<key>.nclc.json

Entries are written atomically (temp file + rename) so a crashed
compile never leaves a truncated artifact behind; one truncated some
other way, or written under another schema (``repro.nclc/1``), does not
load and is a miss (``Compiler.compile`` rebuilds and overwrites it).
An in-memory layer fronts the disk in all cases; a purely in-memory
cache (``root=None``) works for single-process reuse and tests.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from typing import Dict, Mapping, Optional

from repro.nclc.pm import pipeline_fingerprint
from repro.nir.passes.unroll import DEFAULT_MAX_TRIPS


class CacheStats:
    """Hit/miss/write counters for one cache instance."""

    def __init__(self) -> None:
        self.hits = 0
        self.misses = 0
        self.puts = 0

    def as_dict(self) -> Dict[str, int]:
        return {"hits": self.hits, "misses": self.misses, "puts": self.puts}

    def __repr__(self) -> str:
        return f"CacheStats(hits={self.hits}, misses={self.misses}, puts={self.puts})"


class ArtifactCache:
    """Content-addressed store of compile artifacts.

    ``registry`` (optional) is a :class:`repro.obs.MetricsRegistry`; hits
    and misses are counted under ``nclc.cache`` with an ``event`` label.
    """

    def __init__(self, root=None, registry=None):
        self.root = os.fspath(root) if root is not None else None
        self.registry = registry
        self.stats = CacheStats()
        self._mem: Dict[str, str] = {}

    # -- keying --------------------------------------------------------------

    def key_for(
        self,
        source: str,
        and_text: Optional[str] = None,
        windows: Optional[Mapping[str, object]] = None,
        defines: Optional[Mapping[str, int]] = None,
        profile=None,
        opt_level: int = 2,
        split_arrays="auto",
    ) -> str:
        """The content address of one compile's inputs + configuration."""
        window_enc = {}
        for name, cfg in (windows or {}).items():
            mask = list(getattr(cfg, "mask", cfg))
            ext = dict(getattr(cfg, "ext", {}))
            window_enc[name] = {
                "mask": mask, "ext": {k: ext[k] for k in sorted(ext)}
            }
        payload = {
            "source": source,
            "and": and_text,
            "windows": window_enc,
            "defines": dict(defines or {}),
            "profile": getattr(profile, "name", profile),
            "opt_level": opt_level,
            # the unroll bound is fixed; still keyed, so keys stay put
            "max_unroll": DEFAULT_MAX_TRIPS,
            "split_arrays": split_arrays,
            "pipeline": pipeline_fingerprint(opt_level),
        }
        blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()

    # -- storage -------------------------------------------------------------

    def _path(self, key: str) -> Optional[str]:
        if self.root is None:
            return None
        return os.path.join(self.root, key[:2], f"{key}.nclc.json")

    def get(self, key: str) -> Optional[str]:
        """The artifact JSON stored under *key*, or None."""
        text = self._mem.get(key)
        if text is None:
            path = self._path(key)
            if path is not None and os.path.exists(path):
                with open(path) as fp:
                    text = fp.read()
                self._mem[key] = text
        return text

    def count(self, event: str, key: str, trace=None) -> None:
        """Record one lookup's outcome (``hit``/``miss``) in stats, the
        metrics registry, and the compile trace."""
        if event == "hit":
            self.stats.hits += 1
        else:
            self.stats.misses += 1
        if self.registry is not None:
            self.registry.counter(
                "nclc.cache", "artifact cache lookups, by outcome", ("event",)
            ).labels(event=event).inc()
        if trace is not None and hasattr(trace, "cache_event"):
            trace.cache_event(event, key)

    def put(self, key: str, text: str) -> None:
        """Store artifact JSON under its content address (atomic on disk)."""
        self._mem[key] = text
        self.stats.puts += 1
        path = self._path(key)
        if path is None:
            return
        os.makedirs(os.path.dirname(path), exist_ok=True)
        fd, tmp = tempfile.mkstemp(
            dir=os.path.dirname(path), suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "w") as fp:
                fp.write(text)
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise

    def clear(self) -> None:
        """Drop the in-memory layer (disk entries are left in place)."""
        self._mem.clear()

    def __repr__(self) -> str:
        where = self.root or "<memory>"
        return f"ArtifactCache({where}, {self.stats!r})"
