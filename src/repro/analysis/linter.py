"""The ``nclc lint`` pipeline: frontend recovery + analyses in one call.

Runs as much of the compiler front half as the program's health allows,
never stopping at the first problem:

1. parse (fail-fast: a syntax error ends the pipeline as one diagnostic);
2. semantic analysis in error-recovery mode (every sema error collected,
   poisoned constructs survive for later stages);
3. lenient lowering to NIR (functions that cannot lower are dropped);
4. conformance checking against a real or synthesized AND;
5. the :mod:`repro.analysis.rules` rule set.

Without ``--and`` the AND is the compile driver's default chain
(:func:`repro.nclc.pm.default_and`), but over every label the program
references -- not just the pinned ones a compile would require -- so
`lint` never invents unknown-label errors for label probes like
``location.id == _locid(..)``.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Union

import repro.analysis as analysis
from repro.andspec.model import parse_and
from repro.diag import DiagnosticSink, diagnostic_from_error
from repro.errors import NclSyntaxError, NclTypeError
from repro.ncl import analyze, parse
from repro.ncl.sema import TranslationUnit
from repro.nir import ir
from repro.nir.lower import lower_unit
from repro.nclc.conformance import check_module
from repro.nclc.pm import default_and, required_labels
from repro.pisa.arch import ArchProfile, profile_by_name


class LintResult:
    """Outcome of linting one source file (or several into one sink)."""

    def __init__(
        self,
        sink: DiagnosticSink,
        unit: Optional[TranslationUnit] = None,
        module: Optional[ir.Module] = None,
    ):
        self.sink = sink
        self.unit = unit
        self.module = module

    @property
    def exit_code(self) -> int:
        return 1 if self.sink.has_errors else 0


def _referenced_labels(
    unit: TranslationUnit, module: Optional[ir.Module]
) -> List[str]:
    """Every AND label the program mentions, pinning or probing: what a
    compile requires, plus incoming kernels' pins and label probes."""
    labels = set(required_labels(unit))
    labels.update(
        info.at_label for info in unit.in_kernels.values() if info.at_label
    )
    if module is not None:
        for fn in module.functions.values():
            for instr in fn.instructions():
                if isinstance(instr, ir.LocLabel):
                    labels.add(instr.label)
                elif isinstance(instr, ir.Fwd) and instr.label is not None:
                    labels.add(instr.label)
    return sorted(labels)


def lint_source(
    source: str,
    filename: str = "<ncl>",
    *,
    defines=None,
    and_text: Optional[str] = None,
    profile: Union[ArchProfile, str, None] = None,
    rules: Optional[Sequence[str]] = None,
    werror: bool = False,
    sink: Optional[DiagnosticSink] = None,
) -> LintResult:
    """Lint one NCL source; all findings land in *sink* (or a fresh one).

    *rules* takes ``-W``-style selection specs (``["race", "no-overflow"]``);
    unknown names raise ``ValueError``. *profile* is an
    :class:`ArchProfile` or its name; the PISA-resource rule checks
    against it (default ``bmv2``, whose budgets are effectively
    unlimited).
    """
    sink = sink if sink is not None else DiagnosticSink()
    selected = analysis.RULES.select(rules)
    if isinstance(profile, str) or profile is None:
        profile = profile_by_name(profile)

    try:
        program = parse(source, filename, defines)
    except NclSyntaxError as exc:
        sink.add(diagnostic_from_error(exc))
        if werror:
            sink.promote_warnings()
        return LintResult(sink)

    unit = analyze(program, sink=sink)

    try:
        module: Optional[ir.Module] = lower_unit(unit, lenient=True)
    except NclTypeError as exc:
        # Lenient lowering swallows per-function failures; a module-level
        # failure with a clean sema pass is a real finding of its own.
        sink.add(diagnostic_from_error(exc))
        module = None

    and_spec = (
        parse_and(and_text)
        if and_text is not None
        else default_and(_referenced_labels(unit, module))
    )

    if module is not None:
        check_module(module, and_spec, sink=sink, unit=unit)

    ctx = analysis.AnalysisContext(unit, module, sink, profile, and_spec)
    analysis.RULES.run(ctx, selected)

    if werror:
        sink.promote_warnings()
    return LintResult(sink, unit, module)
