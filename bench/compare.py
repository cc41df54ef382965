#!/usr/bin/env python3
"""Compare two benchmark results: ``python bench/compare.py A.json B.json``.

A is the base (the parent commit), B the change.  One row per workload
x end-to-end metric: both medians, the ratio B/A, how much worse B is as
a share of A, and a status --

* ``ok``          B is no worse than A by more than the metric's bound;
* ``regressed``   it is;
* ``improved``    B is better than A by more than the bound;
* ``unresolved``  the run-to-run spread of either side (interquartile
  range over the median, needs ``--reps 4`` or more) is wider than the
  bound, so the difference cannot be told from noise.

Exact per-layer counts (virtual time, events, frames, ...) are diffed
and every difference is listed: a pure speed-up leaves them identical.
Exit code 1 on a regression or a count difference.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

#: per-layer metrics that are exact (must repeat run to run for a seed)
EXACT = (
    "sim_time_us", "ncp.encode_calls", "ncp.decode_calls", "ncp.peek_calls",
    "ncp.wire_bytes_per_op", "pisa.packets", "pisa.table_lookups",
    "pisa.table_hit_share", "pisa.action_runs", "pisa.register_ops",
    "nir.interp_runs", "runtime.windows_sent", "runtime.windows_received",
    "runtime.rx_drops", "net.events", "net.link_frames", "net.link_bytes",
    "net.link_drops", "obs.trace_events", "obs.int_records",
    "analysis.proto_states", "nir.instrs_o2", "p4.tables", "p4.actions",
)


def spread(values) -> float | None:
    """Interquartile range as a share of the median, if it can be told."""
    if len(values) < 4:
        return None
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def compare(a: dict, b: dict, spec: dict):
    """(rows, count differences) of result *b* against base *a*."""
    rows, differences = [], []
    for name in (w["name"] for w in spec["workloads"]):
        wa, wb = a["workloads"].get(name), b["workloads"].get(name)
        if wa is None or wb is None:
            differences.append(f"{name}: missing from one result")
            continue
        for metric in spec["end_to_end"]:
            va = wa["end_to_end"][metric["name"]]["values"]
            vb = wb["end_to_end"][metric["name"]]["values"]
            ma, mb = statistics.median(va), statistics.median(vb)
            worse = (mb - ma) / ma if metric["better"] == "lower" else (ma - mb) / ma
            spreads = [s for s in (spread(va), spread(vb)) if s is not None]
            if spreads and max(spreads) > metric["bound"]:
                status = "unresolved"
            elif worse > metric["bound"]:
                status = "regressed"
            elif worse < -metric["bound"]:
                status = "improved"
            else:
                status = "ok"
            rows.append({
                "workload": name, "metric": metric["name"], "unit": metric["unit"],
                "a": ma, "b": mb, "ratio": mb / ma, "worse": worse,
                "bound": metric["bound"], "spread": max(spreads) if spreads else None,
                "status": status,
            })
        for key in EXACT:
            ca, cb = wa["per_layer"][key]["value"], wb["per_layer"][key]["value"]
            if ca != cb:
                differences.append(f"{name}: {key} {ca} -> {cb}")
    return rows, differences


def report(a: dict, b: dict, spec: dict, same_code: bool = False) -> bool:
    """Print the comparison.  True when B is acceptable: nothing
    regressed and no exact count moved; with *same_code* (two runs of
    one commit, ``--self-check``) every row must be plain ``ok``."""
    rows, differences = compare(a, b, spec)
    print(f"{'workload':20} {'metric':18} {'A (base)':>14} {'B':>14} {'B/A':>7} "
          f"{'worse by':>9} {'bound':>6} {'spread':>7}  status")
    for r in rows:
        shown = "-" if r["spread"] is None else f"{r['spread']:.1%}"
        print(f"{r['workload']:20} {r['metric']:18} {r['a']:14.6g} {r['b']:14.6g} "
              f"{r['ratio']:7.3f} {r['worse']:+9.1%} {r['bound']:6.0%} {shown:>7}  "
              f"{r['status']} ({r['unit']})")
    for difference in differences:
        print(f"exact count differs: {difference}")
    if not differences:
        print("exact counts: identical")
    accepted = ("ok",) if same_code else ("ok", "improved", "unresolved")
    return not differences and all(r["status"] in accepted for r in rows)


def main(argv) -> int:
    if len(argv) != 2:
        print(__doc__)
        return 2
    a, b = (json.loads(Path(p).read_text()) for p in argv)
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    return 0 if report(a, b, spec) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
