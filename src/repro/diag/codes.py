"""The central registry of stable ``NCLxxxx`` diagnostic codes.

Every diagnostic the toolchain can emit carries a stable code; codes are
assigned once and never reused, because downstream tooling (CI gates,
suppression lists, the docs table in ``docs/DIAGNOSTICS.md``) keys on
them. This module is the single source of truth for the assignment:

* the frontend / conformance / compile-step codes are listed statically
  here;
* the ``nclc lint`` analysis rules contribute their declared ``codes``;
* the ``check-deploy`` whole-fabric checks contribute theirs;
* the ``check-proto`` transport-safety checks contribute theirs.

:func:`all_codes` folds the four sources together and *raises* on any
collision, and a registry-uniqueness unit test runs it in CI, so a new
rule or check that grabs an already-assigned code fails loudly instead
of silently aliasing an existing meaning.

Allocation map (first code of each block):

====== ==================================================
block  owner
====== ==================================================
0001   generic front-end error
0101   lexer / parser
04xx   semantic analysis
06xx   conformance + PISA resource estimates (lint)
07xx   dataflow / control-flow lint rules
08xx   value-flow (absint-graded) lint rules
0850+  transport-safety effect/protocol checks (check-proto)
0901+  usage lint rules (unused kernel / window field)
0910+  deployment: per-switch resource admission
0920+  deployment: tenant isolation
0930+  deployment: placement / reachability
0940+  deployment: transport invariants
0990   a compile step failed
====== ==================================================
"""

from __future__ import annotations

import re
from typing import Dict, Iterable, Tuple

#: codes emitted by raise sites outside the rule/check registries:
#: frontend errors, conformance checks, and the compile steps.
STATIC_CODES: Dict[str, str] = {
    "NCL0001": "generic front-end error",
    "NCL0101": "syntax error",
    "NCL0400": "semantic/type error",
    "NCL0404": "use of an undeclared identifier",
    "NCL0405": "unknown function",
    "NCL0601": "recursion (not realizable on PISA)",
    "NCL0602": "general division/modulo (no ALU support)",
    "NCL0603": "conflicting _at_ location constraints",
    "NCL0604": "_at_/_locid label not present in the AND",
    "NCL0605": "host code touching switch-pinned state it cannot reach",
    "NCL0990": "internal compiler pipeline failure",
}

_CODE_RE = re.compile(r"^NCL\d{4}$")


class CodeCollision(ValueError):
    """Two components claim the same NCLxxxx code."""


def _claim(
    table: Dict[str, Tuple[str, str]],
    code: str,
    owner: str,
    summary: str,
) -> None:
    if not _CODE_RE.match(code):
        raise CodeCollision(
            f"{owner}: malformed diagnostic code {code!r} "
            "(expected NCL + 4 digits)"
        )
    if code in table:
        prev_owner, _ = table[code]
        raise CodeCollision(
            f"diagnostic code {code} claimed by both {prev_owner!r} "
            f"and {owner!r}"
        )
    table[code] = (owner, summary)


def all_codes() -> Dict[str, Tuple[str, str]]:
    """``{code: (owner, summary)}`` over every registered source.

    Raises :class:`CodeCollision` if any two sources claim one code.
    """
    table: Dict[str, Tuple[str, str]] = {}
    for code, summary in STATIC_CODES.items():
        _claim(table, code, "frontend", summary)

    from repro.analysis import all_rules

    for rule in all_rules():
        for code in rule.codes:
            _claim(table, code, f"lint rule '{rule.name}'", rule.about)

    from repro.analysis.deploy.checks import all_checks

    for check in all_checks():
        for code in check.codes:
            _claim(
                table, code, f"deploy check '{check.name}'", check.about
            )

    from repro.analysis.proto import all_checks as all_proto_checks

    for proto_check in all_proto_checks():
        for code in proto_check.codes:
            _claim(
                table,
                code,
                f"proto check '{proto_check.name}'",
                proto_check.about,
            )
    return table


def assert_unique(extra: Iterable[Tuple[str, str]] = ()) -> None:
    """Fail (raise) if any registered code collides; *extra* optionally
    adds ``(code, owner)`` pairs to check against the registry."""
    table = all_codes()
    for code, owner in extra:
        _claim(table, code, owner, "")
