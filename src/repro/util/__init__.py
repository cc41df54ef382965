"""Shared low-level helpers: fixed-width integer semantics (``intops``),
bit-level packing (``bits``) and generated-source plumbing (``pysrc``)."""
