"""Run-explanation CLI over saved runs: ``python -m repro.obs.query``.

Works offline from the artifacts a run writes -- a trace JSONL
(:meth:`repro.obs.Tracer.write_jsonl`), a lineage JSON
(:meth:`repro.obs.lineage.LineageIndex.write_json`), and optionally a
metrics snapshot (:meth:`repro.obs.Observability.snapshot`, as JSON), a
time-series dump (:meth:`repro.obs.TimeSeriesSampler.write_json`: the
registry's curves plus the alerts its rules raised) or a flight bundle
(which carries that dump).

Subcommands::

    lineage     build the lineage JSON from a trace JSONL
    explain     full emit -> hops -> delivery story of one window
    slowest     delivered windows by emit-to-delivery latency
    drops       every drop, with cause and site
    stragglers  per-hop records above a latency percentile threshold
    profile     where the wall time went (repro.profile/1 report)
    timeseries  virtual-clock curves of the registry (repro.timeseries/2)
    alerts      health alerts, from a time-series dump or a flight bundle
    export      re-render a metrics snapshot (e.g. Prometheus text)
    diff        cross-run regression report (repro.diff/1) from two
                runs' artifacts (files or run directories)

Examples::

    python -m repro.obs.query lineage --trace run.trace.jsonl -o run.lineage.json
    python -m repro.obs.query explain --lineage run.lineage.json --window aggregate:3
    python -m repro.obs.query slowest --trace run.trace.jsonl --top 10
    python -m repro.obs.query stragglers --lineage run.lineage.json \\
        --metrics run.metrics.json --percentile 99
    python -m repro.obs.query profile --profile run.profile.json --top 10
    python -m repro.obs.query timeseries --timeseries run.timeseries.json \\
        --series link.drops --rate
    python -m repro.obs.query alerts --flight flight-0.json
    python -m repro.obs.query alerts --timeseries run.timeseries.json
    python -m repro.obs.query export --metrics run.metrics.json --format prom
    python -m repro.obs.query diff baseline/ candidate/ --top 5
    python -m repro.obs.query diff a.metrics.json b.metrics.json --json
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Dict, List, Optional, Tuple, Union

from repro.obs.lineage import LineageError, LineageIndex
from repro.obs.prom import render_prom
from repro.obs.timeseries import TIMESERIES_SCHEMA, matching, rates, summed


def load_json(path: str) -> Dict:
    with open(path) as fp:
        return json.load(fp)


def load_trace_events(path: str):
    """Iterate a trace JSONL (or sharded trace) one event at a time.

    Streams: the lineage fold downstream keeps O(windows) state, so a
    multi-gigabyte sharded trace never has to fit in memory. ``path``
    may be a single JSONL, a shard directory, a shard manifest, or a
    sharded sink's base path."""
    from repro.obs.sinks import iter_trace_events

    return iter_trace_events(path)


def load_index(args: argparse.Namespace) -> LineageIndex:
    if args.lineage:
        with open(args.lineage) as fp:
            return LineageIndex.from_json(json.load(fp))
    if args.trace:
        return LineageIndex.from_events(load_trace_events(args.trace))
    raise LineageError("pass --trace <run.jsonl> or --lineage <run.json>")


def parse_window(spec: str) -> Tuple[Union[int, str], int]:
    """``KERNEL:SEQ`` -> (kernel id or name, seq)."""
    kernel, sep, seq = spec.rpartition(":")
    if not sep or not seq.lstrip("-").isdigit():
        raise LineageError(
            f"bad --window {spec!r}; expected KERNEL:SEQ (e.g. aggregate:3 "
            "or 1:3)"
        )
    return (int(kernel) if kernel.isdigit() else kernel), int(seq)


# -- subcommands ---------------------------------------------------------------


def cmd_lineage(args: argparse.Namespace) -> int:
    index = LineageIndex.from_events(load_trace_events(args.trace))
    if args.output == "-":
        index.write_json(sys.stdout)
    else:
        with open(args.output, "w") as fp:
            index.write_json(fp)
        print(f"wrote {args.output} ({len(index.windows)} windows)")
    return 0


def cmd_explain(args: argparse.Namespace) -> int:
    index = load_index(args)
    kernel, seq = parse_window(args.window)
    print(index.explain(kernel, seq))
    return 0


def cmd_slowest(args: argparse.Namespace) -> int:
    index = load_index(args)
    rows = index.slowest(args.top)
    if not rows:
        print("no delivered windows in this run")
        return 0
    print(f"{'window':<24} {'latency':>12} {'branches':>9} {'attempts':>9}")
    for window in rows:
        name = f"{window.kernel or window.kernel_id}:{window.seq}"
        attempts = sum(len(b.attempts) for b in window.branches.values())
        print(
            f"{name:<24} {window.latency() * 1e6:>10.3f}us "
            f"{len(window.branches):>9} {attempts:>9}"
        )
    return 0


def cmd_drops(args: argparse.Namespace) -> int:
    index = load_index(args)
    records = index.drops()
    if not records:
        print("no drops in this run")
        return 0
    if args.top:
        records = records[: args.top]
    for window, branch, attempt, record in records:
        name = f"{window.kernel or window.kernel_id}:{window.seq}"
        origin = branch.label or index.node_names.get(branch.from_node) \
            or f"node {branch.from_node}"
        cause = record.get("outcome", record.get("cause"))
        print(
            f"{name:<24} from={origin:<8} attempt={attempt.number} "
            f"t={float(record['ts']) * 1e6:.3f}us at {record['site']}: {cause}"
        )
    return 0


def _pooled_threshold(metrics_path: str, percentile: float) -> Optional[float]:
    """Percentile threshold from the registry's ``int.hop_latency_ns``
    histograms: pool the cumulative bucket counts across every hop
    series and take the smallest bucket bound covering ``percentile``
    of all observations (an upper-bound estimate, like Prometheus's
    ``histogram_quantile``)."""
    with open(metrics_path) as fp:
        snap = json.load(fp)
    family = snap.get("int.hop_latency_ns")
    if not family:
        return None
    pooled: Dict[str, int] = {}
    total = 0
    for series in family["series"]:
        value = series["value"]
        if not value.get("count"):
            continue
        total += value["count"]
        for bound, cum in value["buckets"].items():
            pooled[bound] = pooled.get(bound, 0) + cum
    if not total:
        return None
    need = total * percentile / 100.0
    finite = sorted(
        (float(b), c) for b, c in pooled.items() if b != "+Inf"
    )
    for bound, cum in finite:
        if cum >= need:
            return bound
    return float("inf")


def cmd_stragglers(args: argparse.Namespace) -> int:
    index = load_index(args)
    entries = index.hop_latencies()
    if not entries:
        print("no delivered INT stacks in this run")
        return 0
    threshold = None
    source = ""
    if args.metrics:
        threshold = _pooled_threshold(args.metrics, args.percentile)
        source = "registry histogram buckets"
    if threshold is None:
        # No metrics snapshot: exact percentile over the lineage's own
        # per-hop latencies.
        ordered = sorted(e["latency_ns"] for e in entries)
        rank = min(
            len(ordered) - 1, int(len(ordered) * args.percentile / 100.0)
        )
        threshold = ordered[rank]
        source = "lineage hop records"
    print(
        f"p{args.percentile:g} threshold: {threshold:g}ns "
        f"(from {source}; {len(entries)} hop records)"
    )
    slow = [e for e in entries if e["latency_ns"] >= threshold]
    if not slow:
        print("no hop records at or above the threshold")
        return 0
    # Stable total order: latency desc, then every identifying field, so
    # equal-latency records (common with quantized hop latencies) list
    # identically across runs and platforms.
    slow.sort(key=lambda e: (-e["latency_ns"], str(e["kernel_id"]),
                             e["seq"], e["attempt"], e["hop"],
                             str(e["node"] or "")))
    for e in slow[: args.top]:
        name = f"{e['kernel'] or e['kernel_id']}:{e['seq']}"
        hop = f"{e['node']} (#{e['hop']})" if e["node"] else f"#{e['hop']}"
        print(
            f"  {name:<20} attempt={e['attempt']} hop {hop:<14} "
            f"latency={e['latency_ns']}ns qdepth={e['qdepth']}B"
        )
    return 0


def cmd_profile(args: argparse.Namespace) -> int:
    report = load_json(args.profile)
    if report.get("schema") != "repro.profile/1":
        raise LineageError(
            f"{args.profile} is not a repro.profile/1 report "
            f"(schema={report.get('schema')!r})"
        )
    if args.format == "collapsed":
        # Regenerate collapsed-stack lines from the saved report, so a
        # flamegraph can still be rendered from the artifact alone.
        for entry in sorted(report["entries"], key=lambda e: e["label"]):
            us = max(1, int(round(entry["wall_s"] * 1e6)))
            print(f"sim;{entry['label']} {us}")
        return 0
    total = report["total_wall_s"]
    print(
        f"total wall: {total * 1e3:.3f}ms over {report['events']} events "
        f"({report['events_per_sec']:,.0f} events/s, "
        f"{report['packets_per_sec']:,.0f} packets/s)"
    )
    print(
        f"attributed to named components: "
        f"{report['attributed_fraction'] * 100:.1f}%"
    )
    print(f"{'label':<32} {'count':>8} {'wall':>12} {'pct':>7} {'avg':>10}")
    for entry in report["entries"][: args.top]:
        print(
            f"{entry['label']:<32} {entry['count']:>8} "
            f"{entry['wall_s'] * 1e3:>10.3f}ms {entry['wall_pct']:>6.1f}% "
            f"{entry['avg_us']:>8.2f}us"
        )
    return 0


def parse_label_filter(text: Optional[str]) -> Dict[str, str]:
    """``"link=w0<->s1,cause=down"`` -> dict."""
    labels: Dict[str, str] = {}
    for part in (text or "").split(","):
        part = part.strip()
        if not part:
            continue
        if "=" not in part:
            raise LineageError(f"bad --labels entry {part!r}; expected k=v")
        k, v = part.split("=", 1)
        labels[k.strip()] = v.strip()
    return labels


def check_timeseries(doc: Dict, source: str) -> Dict:
    if doc.get("schema") != TIMESERIES_SCHEMA:
        raise LineageError(
            f"{source} is not a {TIMESERIES_SCHEMA} dump "
            f"(schema={doc.get('schema')!r})"
        )
    return doc


def cmd_timeseries(args: argparse.Namespace) -> int:
    doc = check_timeseries(load_json(args.timeseries), args.timeseries)
    interval = doc["interval"]
    if not args.series:
        print(
            f"{doc['buckets']} buckets of {interval * 1e6:g}us "
            f"(end_time={doc['end_time']}); series:"
        )
        for series in doc["series"]:
            labels = ",".join(f"{k}={v}" for k, v in series["labels"].items())
            sel = series["name"] + ("{" + labels + "}" if labels else "")
            print(f"  {sel:<48} {series['kind']:<8} {len(series['points'])} points")
        return 0
    want = parse_label_filter(args.labels)
    matched = matching(doc, args.series, want)
    if not matched:
        print(f"no series matching {args.series!r} labels {want}")
        return 1
    points = summed(matched)
    if args.rate:
        points = rates(points, interval)
        unit = "/s"
    else:
        unit = ""
    print(f"{args.series} over {len(matched)} series:")
    for idx, value in points:
        print(f"  t={idx * interval * 1e6:>10.3f}us  {value:g}{unit}")
    return 0


def cmd_alerts(args: argparse.Namespace) -> int:
    if args.flight:
        bundle = load_json(args.flight)
        from repro.obs.flight import validate_bundle

        problems = validate_bundle(bundle)
        if problems:
            for problem in problems:
                print(f"invalid flight bundle: {problem}", file=sys.stderr)
            return 2
        doc = bundle["timeseries"]
        print(
            f"flight bundle: reason={bundle['reason']!r} "
            f"t={bundle['virtual_time']} "
            f"({len(bundle['events'])}/{bundle['events_seen']} events retained)"
        )
        if doc is None:
            print("bundle carries no time series (run had no sampler)")
            return 0
    else:
        doc = check_timeseries(load_json(args.timeseries), args.timeseries)
    print(f"{len(doc['rules'])} rules:")
    for rule in doc["rules"]:
        print(f"  {rule}")
    alerts = doc["alerts"]
    if not alerts:
        print("no alerts fired")
        return 0
    print(f"{len(alerts)} alerts:")
    for alert in alerts:
        resolved = (
            f"resolved at {alert['resolved_at'] * 1e6:.3f}us"
            if alert["resolved_at"] is not None else "still firing"
        )
        print(
            f"  [{alert['severity']}] {alert['name']}: value {alert['value']:g} "
            f"vs threshold {alert['threshold']:g} -- fired at "
            f"{alert['fired_at'] * 1e6:.3f}us, {resolved}"
        )
        if args.window:
            for t, value in alert["window"]:
                print(f"      t={t * 1e6:>10.3f}us  {value:g}")
    return 0


def cmd_diff(args: argparse.Namespace) -> int:
    from repro.obs.diff import diff_runs, render_report, write_report

    report = diff_runs(args.run_a, args.run_b, top=args.top)
    if args.output and args.output != "-":
        with open(args.output, "w") as fp:
            write_report(report, fp)
        print(f"wrote {args.output}")
    if args.json:
        if not args.output or args.output == "-":
            write_report(report, sys.stdout)
    else:
        print(render_report(report, limit=args.limit))
    if args.fail_on_delta and not report["zero_delta"]:
        return 1
    return 0


def cmd_export(args: argparse.Namespace) -> int:
    snapshot = load_json(args.metrics)
    if args.format == "prom":
        text = render_prom(snapshot)
    else:  # json passthrough (normalized key order)
        text = json.dumps(snapshot, sort_keys=True, indent=1) + "\n"
    if args.output == "-":
        sys.stdout.write(text)
    else:
        with open(args.output, "w") as fp:
            fp.write(text)
        print(f"wrote {args.output}")
    return 0


# -- entry point ---------------------------------------------------------------


def _add_inputs(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--trace", help="trace JSONL (Tracer.write_jsonl)")
    sub.add_argument("--lineage", help="lineage JSON (LineageIndex.write_json)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.query",
        description="explain saved runs: window lineage, drops, stragglers",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    lineage = subs.add_parser(
        "lineage", help="build lineage JSON from a trace JSONL"
    )
    lineage.add_argument("--trace", required=True)
    lineage.add_argument("-o", "--output", default="-",
                         help="output path (default: stdout)")
    lineage.set_defaults(fn=cmd_lineage)

    explain = subs.add_parser(
        "explain", help="full emit -> hops -> delivery story of one window"
    )
    _add_inputs(explain)
    explain.add_argument("--window", required=True, metavar="KERNEL:SEQ",
                         help="e.g. aggregate:3 or 1:3")
    explain.set_defaults(fn=cmd_explain)

    slowest = subs.add_parser(
        "slowest", help="delivered windows by emit-to-delivery latency"
    )
    _add_inputs(slowest)
    slowest.add_argument("--top", type=int, default=10)
    slowest.set_defaults(fn=cmd_slowest)

    drops = subs.add_parser("drops", help="every drop, with cause and site")
    _add_inputs(drops)
    drops.add_argument("--top", type=int, default=0,
                       help="show only the first N drops (default: all)")
    drops.set_defaults(fn=cmd_drops)

    stragglers = subs.add_parser(
        "stragglers", help="hop records above a latency percentile"
    )
    _add_inputs(stragglers)
    stragglers.add_argument("--metrics",
                            help="metrics snapshot JSON (threshold source)")
    stragglers.add_argument("--percentile", type=float, default=99.0)
    stragglers.add_argument("--top", type=int, default=20)
    stragglers.set_defaults(fn=cmd_stragglers)

    profile = subs.add_parser(
        "profile", help="where the wall time went (repro.profile/1)"
    )
    profile.add_argument("--profile", required=True,
                         help="profile report JSON (Profiler.write_json)")
    profile.add_argument("--top", type=int, default=20)
    profile.add_argument("--format", choices=("table", "collapsed"),
                         default="table")
    profile.set_defaults(fn=cmd_profile)

    timeseries = subs.add_parser(
        "timeseries", help="virtual-clock curves (repro.timeseries/2)"
    )
    timeseries.add_argument("--timeseries", required=True,
                            help="dump JSON (TimeSeriesSampler.write_json)")
    timeseries.add_argument("--series",
                            help="series name (omit to list all series)")
    timeseries.add_argument("--labels",
                            help="label filter, e.g. cause=down,link=w0<->s1")
    timeseries.add_argument("--rate", action="store_true",
                            help="show the per-bucket rate curve")
    timeseries.set_defaults(fn=cmd_timeseries)

    alerts = subs.add_parser(
        "alerts", help="health alerts, from a time-series dump or flight bundle"
    )
    source = alerts.add_mutually_exclusive_group(required=True)
    source.add_argument("--timeseries",
                        help="dump JSON (TimeSeriesSampler.write_json)")
    source.add_argument("--flight",
                        help="flight bundle JSON (reconstructs alert state)")
    alerts.add_argument("--window", action="store_true",
                        help="also print each alert's evidence window")
    alerts.set_defaults(fn=cmd_alerts)

    diff = subs.add_parser(
        "diff", help="cross-run regression report (repro.diff/1)"
    )
    diff.add_argument("run_a", metavar="A",
                      help="baseline: artifact JSON or run directory")
    diff.add_argument("run_b", metavar="B",
                      help="candidate: artifact JSON or run directory")
    diff.add_argument("--top", type=int, default=10,
                      help="top regressed handlers to rank (default 10)")
    diff.add_argument("--limit", type=int, default=20,
                      help="changed keys to print per section (default 20)")
    diff.add_argument("--json", action="store_true",
                      help="emit the repro.diff/1 JSON instead of text")
    diff.add_argument("-o", "--output",
                      help="also write the JSON report to this path")
    diff.add_argument("--fail-on-delta", action="store_true",
                      help="exit 1 unless the report is zero-delta")
    diff.set_defaults(fn=cmd_diff)

    export = subs.add_parser(
        "export", help="re-render a metrics snapshot (Prometheus text)"
    )
    export.add_argument("--metrics", required=True,
                        help="metrics snapshot JSON (Observability.snapshot)")
    export.add_argument("--format", choices=("prom", "json"), default="prom")
    export.add_argument("-o", "--output", default="-",
                        help="output path (default: stdout)")
    export.set_defaults(fn=cmd_export)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (LineageError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # Output piped into head/less that quit early -- not an error,
        # but Python would print a traceback at interpreter shutdown
        # unless stdout is detached first.
        sys.stderr.close()
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0


if __name__ == "__main__":
    sys.exit(main())
