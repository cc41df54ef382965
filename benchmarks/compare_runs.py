#!/usr/bin/env python3
"""Cross-run comparison over bench artifacts: pairwise diff + trends.

Two modes, both built on ``repro.obs.diff`` (``repro.diff/1``):

* **pairwise** -- ``python benchmarks/compare_runs.py A B``: diff two
  runs' artifacts (each a JSON file or an artifact directory, e.g. two
  directories of ``repro.obs`` exports or two ``check_budget.py --history``
  entries) and print per-metric deltas, new/vanished series, and the
  handlers whose wall time regressed most. ``--json`` emits the raw
  report; ``--fail-on-delta`` exits 1 on any non-wall-clock change --
  the "this refactor changed nothing observable" gate.

* **trend** -- ``python benchmarks/compare_runs.py --trend DIR``: walk
  the run ledger a repeated ``check_budget.py --history DIR`` accrues
  (``run-0000.json``, ``run-0001.json``, ...) and print each metric's
  trajectory first -> last, flagging the largest drifts. ``--gate PCT``
  exits 1 when any deterministic metric moved more than PCT% between
  the two most recent runs -- the regression tripwire the budget gate
  calls on to see perf as a trajectory rather than a snapshot.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
if not any((Path(p) / "repro").is_dir() for p in sys.path if p):
    sys.path.insert(0, str(REPO / "src"))


def cmd_pairwise(args) -> int:
    from repro.obs.diff import diff_runs, render_report, write_report

    report = diff_runs(args.runs[0], args.runs[1], top=args.top)
    if args.output:
        with open(args.output, "w") as fp:
            write_report(report, fp)
        print(f"wrote {args.output}")
    if args.json:
        write_report(report, sys.stdout)
    else:
        print(render_report(report, limit=args.limit))
    if args.fail_on_delta and not report["zero_delta"]:
        return 1
    return 0


def _load_history(trend_dir: Path):
    runs = sorted(trend_dir.glob("run-*.json"))
    if len(runs) < 2:
        raise SystemExit(
            f"error: need at least 2 runs in {trend_dir} "
            f"(found {len(runs)}); accumulate them with "
            "check_budget.py --history"
        )
    docs = []
    for path in runs:
        with open(path) as fp:
            docs.append((path.name, json.load(fp)))
    return docs


def cmd_trend(args) -> int:
    from repro.obs.diff import is_wall_metric

    docs = _load_history(Path(args.trend))
    names = sorted({
        name for _, doc in docs for name in doc.get("measured", {})
    })
    print(f"trend over {len(docs)} runs ({docs[0][0]} .. {docs[-1][0]}):\n")
    width = max(len(n) for n in names)
    print(f"{'metric':<{width}}  {'first':>14}  {'last':>14}  "
          f"{'drift':>9}  note")
    for name in names:
        series = [
            doc.get("measured", {}).get(name)
            for _, doc in docs
        ]
        present = [v for v in series if v is not None]
        first, last = present[0], present[-1]
        note = ""
        if series[0] is None:
            note = "appeared"
        elif series[-1] is None:
            note = "vanished"
        if is_wall_metric(name):
            note = (note + " wall-clock").strip()
        if first:
            drift = f"{100.0 * (last - first) / abs(first):+.1f}%"
        else:
            drift = "n/a" if last == first else "inf"
        print(f"{name:<{width}}  {first:>14}  {last:>14}  {drift:>9}  {note}")

    # The gate compares the two *newest* runs, so one old outlier can't
    # permanently trip it.
    if args.gate > 0:
        prev_m = docs[-2][1].get("measured", {})
        last_m = docs[-1][1].get("measured", {})
        tripped = []
        for name in sorted(set(prev_m) & set(last_m)):
            if is_wall_metric(name):
                continue
            a, b = prev_m[name], last_m[name]
            if a and abs(100.0 * (b - a) / abs(a)) > args.gate:
                tripped.append((name, a, b))
        if tripped:
            print(f"\ntrend gate FAILED (> {args.gate:g}% between "
                  f"{docs[-2][0]} and {docs[-1][0]}):", file=sys.stderr)
            for name, a, b in tripped:
                pct = 100.0 * (b - a) / abs(a)
                print(f"  - {name}: {a} -> {b} ({pct:+.1f}%)",
                      file=sys.stderr)
            return 1
        print(f"\ntrend gate passed (no deterministic metric moved "
              f"> {args.gate:g}% in the newest run)")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "runs", nargs="*", metavar="RUN",
        help="two runs to diff pairwise (artifact JSON or directory)",
    )
    parser.add_argument(
        "--trend", metavar="DIR",
        help="trend mode over a check_budget.py --history ledger",
    )
    parser.add_argument("--top", type=int, default=10,
                        help="top regressed handlers to rank")
    parser.add_argument("--limit", type=int, default=20,
                        help="changed keys to print per section")
    parser.add_argument("--json", action="store_true",
                        help="emit the repro.diff/1 JSON instead of text")
    parser.add_argument("-o", "--output",
                        help="write the JSON report to this path")
    parser.add_argument("--fail-on-delta", action="store_true",
                        help="pairwise: exit 1 unless zero-delta")
    parser.add_argument("--gate", type=float, default=0.0, metavar="PCT",
                        help="trend: fail when a deterministic metric "
                        "moved more than PCT%% between the newest runs")
    args = parser.parse_args(argv)
    if args.trend:
        if args.runs:
            parser.error("--trend takes no positional runs")
        return cmd_trend(args)
    if len(args.runs) != 2:
        parser.error("pairwise mode needs exactly two runs (or use --trend)")
    try:
        return cmd_pairwise(args)
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
