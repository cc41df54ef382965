"""Conformance checking (nclc stage 1, paper S5).

"Not all LLVM IR maps to PISA": this stage rejects NCL programs whose
switch-side IR cannot be realized on a match-action pipeline, before any
expensive transformation runs. Checks:

* no recursion in the helper-call graph (direct or mutual);
* no general division/modulo in outgoing kernels (power-of-two divisors
  are fine -- they strength-reduce to shifts later; the check here is a
  conservative early warning mirroring the pass pipeline's guarantees);
* location consistency: a kernel pinned to ``_at_("s1")`` may not touch
  switch memory pinned to another location (the paper names "location
  conflicts between kernels and switch memory" as a stage-1 check);
  versioning applies the same rule to a location-less kernel once it is
  specialized for each switch (:func:`check_switch_kernel`);
* all ``_at_``/``_pass``/``_locid`` labels exist in the AND and name
  switches;
* window masks match kernel signatures (delegated to the layout builder
  but validated here for early diagnostics).

Loop trip-count constancy is *not* checked here -- it cannot be decided
before window specialization, so the unroller performs it and raises the
same :class:`ConformanceError`.

Two failure modes, mirroring :mod:`repro.ncl.sema`: without a sink the
first violation raises :class:`ConformanceError` (the compile pipeline's
behaviour); with a :class:`repro.diag.DiagnosticSink` every violation is
recorded as a structured ``NCL06xx`` diagnostic -- with the source span
of the offending instruction when NIR carries one -- and checking
continues.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional, Set

from repro.diag import DiagnosticSink
from repro.errors import ConformanceError, SourceLocation
from repro.andspec.model import AndSpec
from repro.nir import ir

#: Diagnostic codes for the conformance stage.
CODE_RECURSION = "NCL0601"
CODE_DIVMOD = "NCL0602"
CODE_LOCATION_CONFLICT = "NCL0603"
CODE_UNKNOWN_LABEL = "NCL0604"
CODE_HOST_PINNED_STATE = "NCL0605"

_Fail = Callable[..., None]


def check_module(
    module: ir.Module,
    and_spec: Optional[AndSpec] = None,
    sink: Optional[DiagnosticSink] = None,
    unit: object = None,
) -> List[str]:
    """Run all conformance checks; returns a list of informational notes.

    Without *sink*, raises :class:`ConformanceError` on the first hard
    violation. With a sink, records every violation and returns.
    """
    notes: List[str] = []

    def fail(code: str, message: str, loc: Optional[SourceLocation] = None) -> None:
        if sink is None:
            raise ConformanceError(message)
        sink.error(code, message, loc, rule="conformance")

    _check_no_recursion(module, fail)
    for fn in module.kernels(ir.FunctionKind.OUT_KERNEL):
        _check_kernel_ops(fn, fail)
        if fn.at_label is not None:
            _check_location_conflicts(fn, fn.at_label, fail)
        if and_spec is not None:
            _check_labels(fn, and_spec, fail)
    if and_spec is not None:
        _check_global_labels(module, and_spec, fail)
    return notes


def _check_no_recursion(module: ir.Module, fail: _Fail) -> None:
    graph: Dict[str, Set[str]] = {}
    for fn in module.functions.values():
        callees = {
            instr.callee.name
            for instr in fn.instructions()
            if isinstance(instr, ir.CallFn)
        }
        graph[fn.name] = callees

    WHITE, GRAY, BLACK = 0, 1, 2
    color = {name: WHITE for name in graph}

    def visit(name: str, path: List[str]) -> None:
        color[name] = GRAY
        for callee in graph.get(name, ()):
            if color.get(callee) == GRAY:
                cycle = " -> ".join(path + [name, callee])
                fail(
                    CODE_RECURSION,
                    f"recursive call chain cannot map to PISA: {cycle}",
                )
            elif color.get(callee) == WHITE:
                visit(callee, path + [name])
        color[name] = BLACK

    for name in graph:
        if color[name] == WHITE:
            visit(name, [])


def _check_kernel_ops(fn: ir.Function, fail: _Fail) -> None:
    for instr in fn.instructions():
        if isinstance(instr, ir.BinOp) and instr.op in ("udiv", "sdiv", "urem", "srem"):
            divisor = instr.rhs
            if isinstance(divisor, ir.Const) and divisor.value > 0 and (
                divisor.value & (divisor.value - 1)
            ) == 0:
                continue  # strength-reduced to a shift/mask later
            fail(
                CODE_DIVMOD,
                f"{fn.name}: {instr.op} with a non-power-of-two divisor "
                "cannot map to the PISA ALU",
                instr.loc,
            )


def _check_location_conflicts(fn: ir.Function, label: str, fail: _Fail) -> None:
    """*fn* runs on switch *label*, where state pinned to another switch
    has no copy to touch."""
    for _block, instr, ref, _w in ir.state_accesses(fn):
        pin = ref.at_label
        if pin is None or pin == label:
            continue
        verb = "memcpys" if isinstance(instr, ir.Memcpy) else "accesses"
        message = (
            f'location conflict: kernel {fn.name!r} at "{label}" {verb} '
            f'{ref.name!r} pinned to "{pin}"'
        )
        if fn.at_label is None:
            message += (
                f'; guard the access with `if (location.id == _locid("{pin}"))` '
                f'or pin the kernel with _at_("{pin}")'
            )
        fail(CODE_LOCATION_CONFLICT, message, instr.loc)


def check_switch_kernel(fn: ir.Function, label: str) -> None:
    """Versioning's location check: *fn*, specialized for switch *label*,
    may not still touch state pinned to another switch. Raises
    :class:`ConformanceError` naming the code (NCL0603) and the first
    such access."""

    def fail(code: str, message: str, loc: Optional[SourceLocation]) -> None:
        raise ConformanceError(f"{loc}: {code} {message}" if loc else f"{code} {message}")

    _check_location_conflicts(fn, label, fail)


def _kernel_labels(fn: ir.Function) -> Iterable[ir.Instr]:
    for instr in fn.instructions():
        if isinstance(instr, ir.Fwd) and instr.label is not None:
            yield instr
        elif isinstance(instr, ir.LocLabel):
            yield instr


def _check_labels(fn: ir.Function, and_spec: AndSpec, fail: _Fail) -> None:
    known = set(and_spec.label_ids())
    if fn.at_label is not None and fn.at_label not in known:
        fail(
            CODE_UNKNOWN_LABEL,
            f'kernel {fn.name!r}: _at_("{fn.at_label}") is not in the AND',
        )
    for instr in _kernel_labels(fn):
        if instr.label not in known:
            fail(
                CODE_UNKNOWN_LABEL,
                f"kernel {fn.name!r}: label {instr.label!r} is not in the AND",
                instr.loc,
            )


def _check_global_labels(module: ir.Module, and_spec: AndSpec, fail: _Fail) -> None:
    known = and_spec.label_ids()
    for ref in module.globals.values():
        if ref.at_label is None:
            continue
        if ref.at_label not in known:
            fail(
                CODE_UNKNOWN_LABEL,
                f'global {ref.name!r}: _at_("{ref.at_label}") is not in the AND',
            )
            continue
        node = and_spec.node(ref.at_label)
        if ref.space in ir.STATE_SPACES and not node.is_switch:
            fail(
                CODE_HOST_PINNED_STATE,
                f"global {ref.name!r}: switch state cannot be pinned to "
                f"host {ref.at_label!r}",
            )
