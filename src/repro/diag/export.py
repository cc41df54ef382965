"""Machine-readable diagnostic export (SARIF-lite JSON).

The schema is versioned (``repro.diag/1``) and the serialization is
byte-deterministic for a given input program: diagnostics are sorted in
source order and keys are emitted sorted, so golden tests and CI diffing
can compare output verbatim.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional

from repro.diag import Diagnostic, DiagnosticSink, Severity, Span

SCHEMA = "repro.diag/1"


def span_dict(span: Optional[Span]) -> Optional[Dict[str, object]]:
    if span is None:
        return None
    out: Dict[str, object] = {
        "file": span.filename,
        "line": span.line,
        "column": span.column,
        "length": span.length,
    }
    if span.label is not None:
        out["label"] = span.label
    return out


def diagnostic_dict(diag: Diagnostic) -> Dict[str, object]:
    out: Dict[str, object] = {
        "severity": diag.severity.label,
        "code": diag.code,
        "message": diag.message,
        "primary": span_dict(diag.primary),
        "secondary": [span_dict(s) for s in diag.secondary],
        "notes": list(diag.notes),
    }
    if diag.rule is not None:
        out["rule"] = diag.rule
    if diag.fixit is not None:
        out["fixit"] = diag.fixit
    if diag.status is not None:
        out["status"] = diag.status
    return out


def findings_block(sink: DiagnosticSink) -> Dict[str, object]:
    """The ``summary`` + ``diagnostics`` keys every report schema
    (``repro.diag/1``, ``repro.deploy/1``, ``repro.proto/1``) carries."""
    return {
        "summary": {
            "errors": sink.count(Severity.ERROR),
            "warnings": sink.count(Severity.WARNING),
            "notes": sink.count(Severity.NOTE),
        },
        "diagnostics": [diagnostic_dict(d) for d in sink.sorted()],
    }


def export_dict(sink: DiagnosticSink) -> Dict[str, object]:
    return {"schema": SCHEMA, **findings_block(sink)}


def render_json(sink: DiagnosticSink) -> str:
    """Deterministic JSON text (sorted keys, trailing newline)."""
    return json.dumps(export_dict(sink), indent=2, sort_keys=True) + "\n"


def findings_by_code(sink: DiagnosticSink) -> Dict[str, List[Diagnostic]]:
    """Group diagnostics by code -- convenient for tests and tooling."""
    by_code: Dict[str, List[Diagnostic]] = {}
    for diag in sink.sorted():
        by_code.setdefault(diag.code, []).append(diag)
    return by_code
