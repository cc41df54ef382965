"""Rule-based static analysis over NCL ASTs and NIR (`nclc lint`).

The paper's pitch is that nclc moves in-network programming from
"trial-and-error against a P4 backend" to a feedback loop with real
compiler diagnostics. This package is the analysis half of that loop: a
registry of :class:`Rule` objects, each inspecting the analyzed
translation unit (AST level) and/or the lowered NIR module, and
reporting findings into a :class:`repro.diag.DiagnosticSink`.

Layering:

* :mod:`repro.analysis.dataflow` -- reusable slot dataflow (may-uninit,
  dead stores) over pre-SSA NIR;
* :mod:`repro.analysis.rules` -- the shipped rule set (shared-state race
  detector, def-use lints, PISA-resource explanations, ...);
* :mod:`repro.analysis.linter` -- the ``lint_source`` pipeline gluing
  frontend error recovery, lenient lowering, conformance checking and
  the rules together (what ``python -m repro.nclc lint`` runs).

Rules are selected by name (``-W race``/``-W no-dead-store`` on the
CLI); every finding carries the rule name and a stable ``NCLxxxx`` code.
"""

from __future__ import annotations

from typing import (
    Any,
    Dict,
    Generic,
    List,
    Optional,
    Sequence,
    Tuple,
    Type,
    TypeVar,
)

from repro.andspec.model import AndSpec
from repro.diag import DiagnosticSink
from repro.errors import ReproError
from repro.ncl.sema import TranslationUnit
from repro.nir import ir
from repro.pisa.arch import ArchProfile, BMV2


Ctx = TypeVar("Ctx")


class AnalysisContext:
    """Everything a rule may look at.

    ``module`` is ``None`` when lowering produced nothing (e.g. the
    program had no kernels, or recovery poisoned all of them); rules
    that need NIR return early on it.
    """

    def __init__(
        self,
        unit: TranslationUnit,
        module: Optional[ir.Module],
        sink: DiagnosticSink,
        profile: Optional[ArchProfile] = None,
        and_spec: Optional[AndSpec] = None,
    ) -> None:
        self.unit = unit
        self.module = module
        self.sink = sink
        self.profile = profile or BMV2
        self.and_spec = and_spec
        self._absint_fns: Optional[List[Tuple[object, object]]] = None

    def absint_functions(self) -> List[Tuple[object, object]]:
        """Lazily-computed ``[(ssa_function, FunctionFacts)]`` pairs.

        The lint module is pre-SSA (lenient lowering output), so each
        function is cloned, inlined and mem2reg-promoted before the
        abstract interpreter runs; source locations survive the cloning,
        which is what lets range-graded rules anchor findings back to
        the original program. Functions that cannot be brought into SSA
        (error recovery poisoned them) simply contribute no facts.
        """
        if self._absint_fns is not None:
            return self._absint_fns
        self._absint_fns = []
        if self.module is None:
            return self._absint_fns
        from repro.analysis.absint import analyze_function
        from repro.nir.passes import run_function_pipeline
        from repro.nir.passes.clone import clone_function

        label_ids = (
            self.and_spec.label_ids() if self.and_spec is not None else None
        )
        for name in self.module.functions:
            fn = self.module.functions[name]
            try:
                ssa = clone_function(fn)
                run_function_pipeline(ssa, ("inline", "mem2reg"), verify=False)
                facts = analyze_function(ssa, label_ids=label_ids)
            except ReproError:
                continue
            self._absint_fns.append((ssa, facts))
        return self._absint_fns


class Rule(Generic[Ctx]):
    """One analysis over a context of type *Ctx*: a lint rule
    (:class:`AnalysisContext`), a deployment check or a transport-safety
    check. Subclasses set the metadata and implement ``run``."""

    #: registry-facing name (lint: ``-W <name>`` / ``-W no-<name>``).
    name: str = "?"
    #: diagnostic codes this rule may emit (``--list-rules`` + the docs).
    codes: Sequence[str] = ()
    #: one-line description for ``--list-rules`` and the docs.
    about: str = ""

    def run(self, ctx: Ctx) -> None:
        raise NotImplementedError


R = TypeVar("R", bound="Rule[Any]")


class Registry(Generic[Ctx]):
    """The rules of one checker family, in definition order -- the order
    they run and list in. ``nclc lint``, ``check-deploy`` and
    ``check-proto`` each own one instance."""

    def __init__(self, family: str, code_width: int) -> None:
        self.family = family
        #: width of the codes column in ``--list-rules``
        self.code_width = code_width
        self._rules: Dict[str, Rule[Ctx]] = {}

    def register(self, cls: Type[R]) -> Type[R]:
        """Class decorator adding a rule (one shared instance)."""
        rule = cls()
        if rule.name in self._rules:
            raise ValueError(f"duplicate {self.family} {rule.name!r}")
        self._rules[rule.name] = rule
        return cls

    def all(self) -> List[Rule[Ctx]]:
        return list(self._rules.values())

    def select(self, specs: Optional[Sequence[str]] = None) -> List[Rule[Ctx]]:
        """Resolve ``-W``-style selection specs to an ordered rule list.

        * no specs: every registered rule;
        * positive names (``race``): run exactly the listed rules;
        * ``no-<name>``: remove a rule from the selection (combines with
          either of the above).

        Unknown names raise ``ValueError`` (the CLI turns that into exit 2).
        """
        positives: List[str] = []
        negatives: List[str] = []
        for spec in specs or []:
            target = negatives if spec.startswith("no-") else positives
            target.append(spec[3:] if spec.startswith("no-") else spec)
        for name in positives + negatives:
            if name != "all" and name not in self._rules:
                known = ", ".join(self._rules)
                raise ValueError(
                    f"unknown {self.family} {name!r} (known: {known})"
                )
        if positives and "all" not in positives:
            enabled = [n for n in self._rules if n in positives]
        else:
            enabled = list(self._rules)
        return [self._rules[n] for n in enabled if n not in negatives]

    def run(self, ctx: Ctx, rules: Optional[Sequence[Rule[Ctx]]] = None) -> None:
        """Run *rules* (default: all) over the context, in that order."""
        for rule in self.all() if rules is None else rules:
            rule.run(ctx)

    def list_rules(self) -> str:
        """The ``--list-rules`` table: one ``name codes about`` line per rule."""
        return "".join(
            f"{rule.name:20} {', '.join(rule.codes):{self.code_width}} "
            f"{rule.about}\n"
            for rule in self.all()
        )


#: the ``nclc lint`` rule set (populated by :mod:`repro.analysis.rules`)
RULES: Registry[AnalysisContext] = Registry("analysis rule", code_width=30)
register = RULES.register
all_rules = RULES.all


# Import for side effect: populates the registry. Kept at the bottom so
# rules.py can import the framework names above from this module.
from repro.analysis import rules as _rules  # noqa: E402,F401
from repro.analysis.linter import LintResult, lint_source  # noqa: E402

__all__ = [
    "AnalysisContext",
    "Rule",
    "Registry",
    "RULES",
    "register",
    "all_rules",
    "LintResult",
    "lint_source",
]
