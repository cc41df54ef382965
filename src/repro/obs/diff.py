"""Cross-run regression diffing: two runs' artifacts -> one report.

The bench harness and budget gate accumulate byte-deterministic
artifacts per run -- ``repro.profile/1`` documents, ``repro.timeseries/2``
dumps, metrics-registry snapshots, flat measured-metric dicts.
:func:`build_report` compares any mix of them between a baseline run A
and a candidate run B into a single byte-deterministic ``repro.diff/1``
report: per-key deltas, series that appeared or vanished, the handlers
whose wall time regressed most, and where two time series first
diverged. Two identical runs produce a byte-identical *zero-delta*
report -- the gate for "this refactor changed nothing observable".

Surfaced as ``python -m repro.obs.query diff A B`` (A/B are artifact
files or run directories) and driven by ``benchmarks/compare_runs.py``
and the budget gate's ``--history`` mode, which uses the profile section
to name *which handler* regressed when a throughput floor fails.

Artifact kinds are sniffed, never declared: a dict with a known
``schema`` is a profile/timeseries document, a dict of
``{"kind": ..., "series": [...]}`` families is a metrics snapshot, a
flat ``{name: number}`` dict is a measured-metrics map, and anything
else is flattened to its numeric leaves. Wall-clock-derived keys
(``*wall*``, ``*_per_sec``, ``avg_us``) are tagged in the report so
consumers can separate real regressions from timer noise.
"""

from __future__ import annotations

import json
from typing import Dict, IO, List, Optional, Sequence, Tuple

from repro.obs.timeseries import TIMESERIES_SCHEMA

DIFF_SCHEMA = "repro.diff/1"

#: substrings marking a metric as wall-clock-derived (nondeterministic
#: across runs even when the simulation is identical)
_WALL_MARKERS = ("wall", "_per_sec", "avg_us", "bytes_per_sec")


def is_wall_metric(key: str) -> bool:
    return any(marker in key for marker in _WALL_MARKERS)


# -- artifact sniffing + flattening ------------------------------------------


def sniff_kind(doc) -> str:
    """Which artifact family a loaded JSON document belongs to."""
    if isinstance(doc, dict):
        schema = doc.get("schema")
        if schema == "repro.profile/1":
            return "profile"
        if schema == TIMESERIES_SCHEMA:
            return "timeseries"
        if isinstance(schema, str):
            return "generic"
        values = list(doc.values())
        if values and all(
            isinstance(v, dict) and "kind" in v and "series" in v
            for v in values
        ):
            return "metrics"
        if values and all(isinstance(v, (int, float)) for v in values):
            return "scalars"
    return "generic"


def _series_key(name: str, labels: Dict) -> str:
    if not labels:
        return name
    inner = ",".join(f"{k}={labels[k]}" for k in sorted(labels))
    return f"{name}{{{inner}}}"


def flatten_metrics(snapshot: Dict) -> Dict[str, float]:
    """A registry snapshot as flat ``name{labels}[.field] -> number``.

    Histogram series contribute their summary scalars (count/sum/min/
    max/p50/p90/p99) as dotted subkeys; bucket maps are folded into
    count-per-bound subkeys so a shifted distribution shows up even
    when the percentiles round the same."""
    out: Dict[str, float] = {}
    for name in sorted(snapshot):
        family = snapshot[name]
        for entry in family.get("series", ()):
            key = _series_key(name, entry.get("labels") or {})
            value = entry.get("value")
            if isinstance(value, dict):
                for field in sorted(value):
                    sub = value[field]
                    if isinstance(sub, dict):  # histogram buckets
                        for bound in sorted(sub):
                            out[f"{key}.{field}.le={bound}"] = sub[bound]
                    elif isinstance(sub, (int, float)):
                        out[f"{key}.{field}"] = sub
            elif isinstance(value, (int, float)):
                out[key] = value
        if family.get("overflow_routed"):
            out[f"{name}.__overflow_routed__"] = family["overflow_routed"]
    return out


def flatten_profile(report: Dict) -> Dict[str, float]:
    """A ``repro.profile/1`` document as flat numbers: run-level meters
    plus per-label ``entry{label}.wall_s`` / ``.count``."""
    out: Dict[str, float] = {}
    for field in (
        "total_wall_s",
        "attributed_wall_s",
        "named_wall_s",
        "attributed_fraction",
        "events",
        "events_per_sec",
        "packets_per_sec",
    ):
        if field in report:
            out[field] = report[field]
    for entry in report.get("entries", ()):
        label = entry["label"]
        out[f"entry{{{label}}}.count"] = entry.get("count", 0)
        out[f"entry{{{label}}}.wall_s"] = entry.get("wall_s", 0.0)
    return out


def flatten_generic(doc, prefix: str = "") -> Dict[str, float]:
    """Every numeric leaf of an arbitrary JSON document, dotted-path
    keyed (lists index numerically). Booleans and strings are skipped."""
    out: Dict[str, float] = {}
    if isinstance(doc, dict):
        for key in sorted(doc):
            path = f"{prefix}.{key}" if prefix else str(key)
            out.update(flatten_generic(doc[key], path))
    elif isinstance(doc, list):
        for i, item in enumerate(doc):
            out.update(flatten_generic(item, f"{prefix}[{i}]"))
    elif isinstance(doc, (int, float)) and not isinstance(doc, bool):
        out[prefix] = doc
    return out


# -- section diffs -----------------------------------------------------------


def diff_scalars(a: Dict[str, float], b: Dict[str, float]) -> Dict[str, object]:
    """Generic flat-map diff: changed/added/removed keys with deltas."""
    changed: List[Dict[str, object]] = []
    unchanged = 0
    for key in sorted(set(a) & set(b)):
        va, vb = a[key], b[key]
        if va == vb:
            unchanged += 1
            continue
        entry: Dict[str, object] = {
            "key": key,
            "a": va,
            "b": vb,
            "delta": vb - va,
        }
        if va:
            entry["pct"] = round(100.0 * (vb - va) / abs(va), 4)
        if is_wall_metric(key):
            entry["wall_clock"] = True
        changed.append(entry)
    added = [
        {"key": k, "b": b[k]} for k in sorted(set(b) - set(a))
    ]
    removed = [
        {"key": k, "a": a[k]} for k in sorted(set(a) - set(b))
    ]
    return {
        "changed": changed,
        "added": added,
        "removed": removed,
        "unchanged": unchanged,
    }


def diff_profile(a: Dict, b: Dict, top: int = 10) -> Dict[str, object]:
    """Profile diff: the scalar diff plus ``top_regressed`` -- labels
    ranked by wall-time growth (the "which handler got slower" answer
    the budget gate wants when a floor fails)."""
    out = diff_scalars(flatten_profile(a), flatten_profile(b))
    walls_a = {e["label"]: e.get("wall_s", 0.0) for e in a.get("entries", ())}
    walls_b = {e["label"]: e.get("wall_s", 0.0) for e in b.get("entries", ())}
    regressed = []
    for label in sorted(set(walls_a) | set(walls_b)):
        wa = walls_a.get(label, 0.0)
        wb = walls_b.get(label, 0.0)
        delta = wb - wa
        if delta > 0:
            entry = {"label": label, "a_wall_s": wa, "b_wall_s": wb,
                     "delta_wall_s": delta}
            if wa:
                entry["pct"] = round(100.0 * delta / wa, 4)
            regressed.append(entry)
    regressed.sort(key=lambda e: (-e["delta_wall_s"], e["label"]))
    out["top_regressed"] = regressed[:top]
    return out


def diff_timeseries(a: Dict, b: Dict) -> Dict[str, object]:
    """Time-series diff: run-level scalars, per-series final values,
    series that appeared/vanished, and for every changed series the
    first bucket index where the two runs diverge (``first_divergence``)
    plus the largest absolute gap (``max_divergence``)."""
    run_scalars = diff_scalars(
        {k: a.get(k) for k in ("interval", "buckets", "end_time")
         if isinstance(a.get(k), (int, float))},
        {k: b.get(k) for k in ("interval", "buckets", "end_time")
         if isinstance(b.get(k), (int, float))},
    )

    def series_map(doc) -> Dict[str, Dict[int, float]]:
        out = {}
        for series in doc.get("series", ()):
            key = _series_key(series["name"], series.get("labels") or {})
            out[key] = {int(i): v for i, v in series.get("points", ())}
        return out

    sa, sb = series_map(a), series_map(b)
    changed: List[Dict[str, object]] = []
    unchanged = 0
    for key in sorted(set(sa) & set(sb)):
        pa, pb = sa[key], sb[key]
        if pa == pb:
            unchanged += 1
            continue
        diverged = sorted(
            idx for idx in set(pa) | set(pb)
            if pa.get(idx, 0.0) != pb.get(idx, 0.0)
        )
        gaps = [abs(pb.get(i, 0.0) - pa.get(i, 0.0)) for i in diverged]
        final_a = pa[max(pa)] if pa else 0.0
        final_b = pb[max(pb)] if pb else 0.0
        entry: Dict[str, object] = {
            "key": key,
            "a": final_a,
            "b": final_b,
            "delta": final_b - final_a,
            "first_divergence": diverged[0],
            "max_divergence": max(gaps),
        }
        if final_a:
            entry["pct"] = round(
                100.0 * (final_b - final_a) / abs(final_a), 4
            )
        changed.append(entry)
    added = [{"key": k} for k in sorted(set(sb) - set(sa))]
    removed = [{"key": k} for k in sorted(set(sa) - set(sb))]
    return {
        "changed": run_scalars["changed"] + changed,
        "added": added,
        "removed": removed,
        "unchanged": run_scalars["unchanged"] + unchanged,
    }


_FLATTENERS = {
    "profile": None,  # handled by diff_profile
    "timeseries": None,  # handled by diff_timeseries
    "metrics": flatten_metrics,
    "scalars": lambda doc: dict(doc),
    "generic": flatten_generic,
}


def diff_section(kind: str, a, b, top: int = 10) -> Dict[str, object]:
    if kind == "profile":
        section = diff_profile(a, b, top=top)
    elif kind == "timeseries":
        section = diff_timeseries(a, b)
    else:
        flatten = _FLATTENERS[kind]
        section = diff_scalars(flatten(a), flatten(b))
    section["kind"] = kind
    return section


# -- the report --------------------------------------------------------------


def section_is_zero(section: Dict) -> bool:
    """No changed, added or removed keys (wall-clock keys excepted --
    two executions of the *same* code never share wall time)."""
    changed = [
        e for e in section.get("changed", ())
        if not e.get("wall_clock")
    ]
    return not changed and not section.get("added") and not section.get("removed")


def build_report(
    sections: Sequence[Tuple[str, str, object, object]],
    a_label: str = "A",
    b_label: str = "B",
    top: int = 10,
) -> Dict[str, object]:
    """The ``repro.diff/1`` report for ``(name, kind, a_doc, b_doc)``
    sections. Pure data, deterministically ordered: identical inputs
    give byte-identical JSON."""
    out_sections: Dict[str, object] = {}
    for name, kind, doc_a, doc_b in sections:
        out_sections[name] = diff_section(kind, doc_a, doc_b, top=top)
    zero = all(section_is_zero(s) for s in out_sections.values())
    changed = sum(len(s["changed"]) for s in out_sections.values())
    return {
        "schema": DIFF_SCHEMA,
        "a": a_label,
        "b": b_label,
        "zero_delta": zero,
        "changed_total": changed,
        "sections": {
            name: out_sections[name] for name in sorted(out_sections)
        },
    }


def validate_report(report: Dict) -> List[str]:
    """Schema problems in a loaded ``repro.diff/1`` document (empty list
    when valid) -- the CI gate's checker."""
    problems: List[str] = []
    if not isinstance(report, dict):
        return ["report is not an object"]
    if report.get("schema") != DIFF_SCHEMA:
        problems.append(
            f"schema is {report.get('schema')!r}, expected {DIFF_SCHEMA!r}"
        )
    for field in ("a", "b"):
        if not isinstance(report.get(field), str):
            problems.append(f"missing run label {field!r}")
    if not isinstance(report.get("zero_delta"), bool):
        problems.append("missing zero_delta flag")
    sections = report.get("sections")
    if not isinstance(sections, dict):
        return problems + ["missing sections object"]
    for name, section in sections.items():
        if not isinstance(section, dict):
            problems.append(f"section {name!r} is not an object")
            continue
        if section.get("kind") not in (
            "profile", "timeseries", "metrics", "scalars", "generic"
        ):
            problems.append(
                f"section {name!r}: unknown kind {section.get('kind')!r}"
            )
        for part in ("changed", "added", "removed"):
            if not isinstance(section.get(part), list):
                problems.append(f"section {name!r}: missing {part!r} list")
        for entry in section.get("changed") or ():
            if not isinstance(entry, dict) or "key" not in entry:
                problems.append(f"section {name!r}: malformed changed entry")
                break
    zero = report.get("zero_delta")
    if isinstance(zero, bool) and isinstance(sections, dict):
        actual = all(
            section_is_zero(s)
            for s in sections.values() if isinstance(s, dict)
        )
        if zero != actual:
            problems.append(
                f"zero_delta says {zero} but sections say {actual}"
            )
    return problems


def write_report(report: Dict, fp: IO[str]) -> None:
    json.dump(report, fp, sort_keys=True)
    fp.write("\n")


# -- rendering ---------------------------------------------------------------


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:g}"
    return str(value)


def render_report(report: Dict, limit: int = 20) -> str:
    """The report as a terminal-friendly listing."""
    lines = [f"diff {report['a']} -> {report['b']}"]
    if report.get("zero_delta"):
        lines.append(
            "zero-delta: runs are observationally identical "
            "(wall-clock metrics excepted)"
        )
    for name in sorted(report.get("sections", {})):
        section = report["sections"][name]
        changed = section.get("changed") or []
        added = section.get("added") or []
        removed = section.get("removed") or []
        lines.append(
            f"\n[{name}] ({section.get('kind')}) "
            f"{len(changed)} changed, {len(added)} new, "
            f"{len(removed)} vanished, {section.get('unchanged', 0)} unchanged"
        )
        shown = sorted(
            changed,
            key=lambda e: (-abs(e.get("delta", 0)), e["key"]),
        )[:limit]
        for entry in shown:
            pct = f" ({entry['pct']:+g}%)" if "pct" in entry else ""
            wall = "  [wall-clock]" if entry.get("wall_clock") else ""
            extra = ""
            if "first_divergence" in entry:
                extra = f"  diverges@bucket {entry['first_divergence']}"
            lines.append(
                f"  {entry['key']}: {_fmt(entry['a'])} -> "
                f"{_fmt(entry['b'])}  delta {_fmt(entry['delta'])}"
                f"{pct}{extra}{wall}"
            )
        if len(changed) > limit:
            lines.append(f"  ... {len(changed) - limit} more changed")
        for entry in added[:limit]:
            lines.append(f"  + {entry['key']} (new in {report['b']})")
        for entry in removed[:limit]:
            lines.append(f"  - {entry['key']} (vanished from {report['b']})")
        for entry in (section.get("top_regressed") or ())[:5]:
            pct = f" ({entry['pct']:+g}%)" if "pct" in entry else ""
            lines.append(
                f"  regressed: {entry['label']}  "
                f"+{entry['delta_wall_s']:.6f}s{pct}"
            )
    return "\n".join(lines)


# -- loading runs from disk --------------------------------------------------

#: artifact-file suffixes recognized inside a run directory, mapped to
#: section names (directory mode pairs files by shared suffix)
_DIR_SUFFIXES = (
    (".profile.json", "profile"),
    (".timeseries.json", "timeseries"),
    (".metrics.json", "metrics"),
    (".lineage.json", "lineage"),
    (".results.json", "results"),
)


def load_run(spec: str) -> Dict[str, Tuple[str, object]]:
    """A run's diffable artifacts: ``{section: (kind, document)}``.

    ``spec`` is either one JSON artifact file (section named after the
    sniffed kind) or a run directory, where every recognized
    ``*.profile.json`` / ``*.timeseries.json`` / ``*.metrics.json`` /
    ``*.lineage.json`` / ``*.results.json`` becomes its own section
    keyed by file stem, so two directories pair up by artifact name."""
    from pathlib import Path

    path = Path(spec)
    if path.is_dir():
        out: Dict[str, Tuple[str, object]] = {}
        for child in sorted(path.iterdir()):
            for suffix, _section in _DIR_SUFFIXES:
                if child.name.endswith(suffix):
                    doc = json.loads(child.read_text())
                    out[child.name] = (sniff_kind(doc), doc)
                    break
        if not out:
            raise FileNotFoundError(
                f"{spec}: no diffable artifacts "
                f"(*.profile.json, *.timeseries.json, *.metrics.json, "
                f"*.lineage.json, *.results.json)"
            )
        return out
    if not path.exists():
        raise FileNotFoundError(spec)
    doc = json.loads(path.read_text())
    return {sniff_kind(doc): (sniff_kind(doc), doc)}


def diff_runs(
    spec_a: str,
    spec_b: str,
    top: int = 10,
    a_label: Optional[str] = None,
    b_label: Optional[str] = None,
) -> Dict[str, object]:
    """Load two runs (files or directories) and build their report.
    Sections present in only one run are diffed against an empty
    document so every artifact difference is visible."""
    run_a = load_run(spec_a)
    run_b = load_run(spec_b)
    sections = []
    for name in sorted(set(run_a) | set(run_b)):
        kind_a, doc_a = run_a.get(name, (None, None))
        kind_b, doc_b = run_b.get(name, (None, None))
        kind = kind_a or kind_b
        if kind_a and kind_b and kind_a != kind_b:
            kind = "generic"
        empty = {} if kind not in ("profile", "timeseries") else {"entries": [], "series": []}
        sections.append(
            (name, kind, doc_a if doc_a is not None else empty,
             doc_b if doc_b is not None else empty)
        )
    return build_report(
        sections,
        a_label=a_label or spec_a,
        b_label=b_label or spec_b,
        top=top,
    )
