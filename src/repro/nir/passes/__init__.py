"""NIR optimization passes: the name -> pass table and the standard pipelines.

The menu mirrors the paper's S5 "Analysis and optimization" stage:
loop unrolling, constant folding/propagation, GVN/CSE, DCE, plus CFG
simplification and always-inlining of helpers.

Every pass has a stable name (:data:`NIR_PASSES`), so a pipeline is a
tuple of names: the compile (:mod:`repro.nclc.pm`) fingerprints them for
the artifact cache and times each invocation individually. The
``-O0/-O1/-O2`` presets are those tuples (:data:`HOST_PIPELINES` /
:data:`SWITCH_PIPELINES`), run per kernel by :func:`optimize_host` and
:func:`optimize_switch`:

* ``-O0`` runs only what correctness demands -- inlining and mem2reg
  (codegen needs SSA over acyclic CFGs), window specialization, the
  constant folding + CFG simplification needed to discover trip counts,
  the full unroll, and memcpy expansion;
* ``-O1`` adds DCE and store forwarding (the latter halves register
  accesses, which chip profiles budget);
* ``-O2`` is the paper's full menu: GVN/CSE, conditional store merging,
  and repeated cleanup rounds.
"""

from __future__ import annotations

from typing import Callable, Dict, Mapping, Optional, Sequence, Tuple

from repro.nir import ir
from repro.nir.mem2reg import promote_allocas
from repro.nir.passes.constfold import fold_constants
from repro.nir.passes.dce import eliminate_dead_code
from repro.nir.passes.gvn import global_value_numbering
from repro.nir.passes.inline import inline_calls
from repro.nir.passes.memexpand import expand_memcpy
from repro.nir.passes.rangesimplify import simplify_ranges
from repro.nir.passes.regsplit import SplitInfo, split_register_arrays
from repro.nir.passes.simplify_cfg import simplify_cfg
from repro.nir.passes.specialize import specialize_location, specialize_window
from repro.nir.passes.storefwd import forward_stores
from repro.nir.passes.storemerge import merge_conditional_stores
from repro.nir.passes.unroll import unroll_loops
from repro.nir.verify import verify_function

__all__ = [
    "fold_constants",
    "eliminate_dead_code",
    "expand_memcpy",
    "forward_stores",
    "merge_conditional_stores",
    "global_value_numbering",
    "inline_calls",
    "simplify_cfg",
    "simplify_ranges",
    "specialize_location",
    "specialize_window",
    "split_register_arrays",
    "SplitInfo",
    "unroll_loops",
    "promote_allocas",
    "optimize_host",
    "optimize_switch",
    "run_function_pipeline",
    "host_pipeline",
    "switch_pipeline",
    "NIR_PASSES",
    "HOST_PIPELINES",
    "SWITCH_PIPELINES",
    "OPT_LEVELS",
    "PassStats",
]


class PassStats:
    """Per-pass change counters, reported by the Fig 6 compiler bench."""

    def __init__(self) -> None:
        self.counters: dict = {}

    def add(self, name: str, count: int) -> None:
        self.counters[name] = self.counters.get(name, 0) + count

    def __repr__(self) -> str:
        inner = ", ".join(f"{k}={v}" for k, v in sorted(self.counters.items()))
        return f"PassStats({inner})"


#: Every function-level pass by name. One calling convention:
#: ``NIR_PASSES[name](function, window_spec) -> int``, the change count
#: :class:`PassStats` accumulates; ``window_spec`` (the kernel's static
#: window-extension fields, empty on the host) is read only by the two
#: passes that bake those fields in.
NIR_PASSES: Dict[str, Callable[[ir.Function, Mapping[str, int]], int]] = {
    "inline": lambda fn, spec: inline_calls(fn),
    "mem2reg": lambda fn, spec: promote_allocas(fn),
    "constfold": lambda fn, spec: fold_constants(fn),
    "simplifycfg": lambda fn, spec: simplify_cfg(fn),
    "gvn": lambda fn, spec: global_value_numbering(fn),
    "dce": lambda fn, spec: eliminate_dead_code(fn),
    "specialize-window": specialize_window,
    # switch CFGs must be acyclic: every loop is unrolled in full
    "unroll": lambda fn, spec: unroll_loops(fn),
    "memexpand": lambda fn, spec: expand_memcpy(fn),
    "rangesimplify": simplify_ranges,
    "storefwd": lambda fn, spec: forward_stores(fn),
    "storemerge": lambda fn, spec: merge_conditional_stores(fn),
    # the structural verifier: changes nothing, counts nothing
    "verify": lambda fn, spec: verify_function(fn) or 0,
}


# ---------------------------------------------------------------------------
# Pipelines
# ---------------------------------------------------------------------------

#: Cleanup rounds (each ends in a verify, as the monolithic driver did).
_CLEANUP = ("constfold", "simplifycfg", "gvn", "dce", "simplifycfg", "verify")
_CLEANUP_O1 = ("constfold", "simplifycfg", "dce", "simplifycfg", "verify")
#: the minimum folding needed so unroll can discover trip counts and
#: versioning's location split collapses (never skippable).
_CLEANUP_O0 = ("constfold", "simplifycfg", "verify")

#: The host pipeline per opt level: SSA + early optimizations, loops kept.
HOST_PIPELINES: Dict[int, Tuple[str, ...]] = {
    0: ("inline", "mem2reg", "verify", *_CLEANUP_O0),
    1: ("inline", "mem2reg", "verify", *_CLEANUP_O1),
    2: ("inline", "mem2reg", "verify", *_CLEANUP, "rangesimplify", *_CLEANUP),
}

#: The device pipeline front half per opt level: SSA, specialization,
#: full unroll, then scalar/memory optimization. After any of these the
#: CFG is acyclic and ready for PISA lowering.
SWITCH_PIPELINES: Dict[int, Tuple[str, ...]] = {
    0: (
        "inline", "mem2reg", "verify",
        "specialize-window",
        *_CLEANUP_O0,
        "unroll", "verify",
        *_CLEANUP_O0,
        "memexpand",
        "dce",  # unrolled loop counters would otherwise occupy PHV space
        *_CLEANUP_O0,
    ),
    1: (
        "inline", "mem2reg", "verify",
        "specialize-window",
        *_CLEANUP_O1,
        "unroll", "verify",
        *_CLEANUP_O1,
        "memexpand", "storefwd",
        *_CLEANUP_O1,
    ),
    2: (
        "inline", "mem2reg", "verify",
        "specialize-window",
        *_CLEANUP,
        "unroll", "verify",
        *_CLEANUP,
        "memexpand", "storefwd", "storemerge", "storefwd",
        "verify",
        *_CLEANUP,
        "rangesimplify",
        *_CLEANUP,
    ),
}

OPT_LEVELS = tuple(sorted(SWITCH_PIPELINES))


def host_pipeline(opt_level: int = 2) -> Tuple[str, ...]:
    if opt_level not in HOST_PIPELINES:
        raise ValueError(f"unknown opt level {opt_level!r} (have {OPT_LEVELS})")
    return HOST_PIPELINES[opt_level]


def switch_pipeline(opt_level: int = 2) -> Tuple[str, ...]:
    if opt_level not in SWITCH_PIPELINES:
        raise ValueError(f"unknown opt level {opt_level!r} (have {OPT_LEVELS})")
    return SWITCH_PIPELINES[opt_level]


def _run_pass(trace, stage, name, fn, window_spec) -> int:
    """Run one pass, optionally under a CompileTrace (duck-typed: any
    object with ``measure(stage, pass, fn)`` recording wall time and
    IR-size deltas)."""
    if trace is None:
        return NIR_PASSES[name](fn, window_spec)
    with trace.measure(stage, name, fn):
        return NIR_PASSES[name](fn, window_spec)


def run_function_pipeline(
    fn: ir.Function,
    pipeline: Sequence[str],
    stats: Optional[PassStats] = None,
    verify: bool = True,
    trace=None,
    stage: str = "",
    window_spec: Optional[Mapping[str, int]] = None,
    validator=None,
) -> PassStats:
    """Run the named passes over *fn* in order.

    ``verify=False`` skips the ``verify`` steps (used by tests that
    build deliberately broken IR).

    ``validator`` is the ``--verify-opt`` hook (duck-typed, see
    :class:`repro.analysis.transval.PassValidator`): before each
    transform pass it snapshots the function, afterwards it checks the
    output against the snapshot (structural verify + differential
    vectors + abstract-invariant comparison) and raises
    :class:`repro.analysis.transval.TranslationValidationError` naming
    the pass if the semantics changed.
    """
    stats = stats or PassStats()
    window_spec = window_spec or {}
    for name in pipeline:
        if name not in NIR_PASSES:
            raise ValueError(f"unknown NIR pass {name!r}")
        if name == "verify":
            if verify:
                _run_pass(trace, stage, name, fn, window_spec)
            continue
        before = validator.snapshot(fn) if validator is not None else None
        stats.add(name, _run_pass(trace, stage, name, fn, window_spec))
        if validator is not None:
            validator.check(name, before, fn)
    return stats


def optimize_host(
    fn: ir.Function,
    stats: Optional[PassStats] = None,
    verify: bool = True,
    trace=None,
    stage: str = "host",
    opt_level: int = 2,
    validator=None,
) -> PassStats:
    """The host pipeline: SSA + early optimizations, loops kept."""
    return run_function_pipeline(
        fn, host_pipeline(opt_level), stats, verify, trace, stage,
        validator=validator,
    )


def optimize_switch(
    fn: ir.Function,
    window_spec: Optional[Mapping[str, int]] = None,
    stats: Optional[PassStats] = None,
    verify: bool = True,
    trace=None,
    stage: str = "switch",
    opt_level: int = 2,
    validator=None,
) -> PassStats:
    """The device pipeline front half: SSA, specialization, full unroll,
    then the scalar optimizations. After this the CFG is acyclic and
    ready for PISA lowering."""
    pipeline = switch_pipeline(opt_level)
    if not window_spec:
        pipeline = tuple(p for p in pipeline if p != "specialize-window")
    return run_function_pipeline(
        fn, pipeline, stats, verify, trace, stage, window_spec, validator
    )
