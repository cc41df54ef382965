#!/usr/bin/env python3
"""Performance-budget gate: deterministic bench metrics vs budgets.json.

Wall-clock benchmarks flake in CI; the simulator's own numbers do not.
This script runs a *fast subset* of the benchmark scenarios and compares
metrics that are *deterministic functions of the code* -- simulated
completion time, bytes on the wire, switch packets processed, simulator
events -- against the committed budgets in ``benchmarks/budgets.json``.
A regression that makes the protocol chattier, the switch path process
more packets, or completion time drift shows up here even though no
wall-clock is measured.

Each budget carries a tolerance (percent): intentional changes inside
the tolerance pass, anything outside fails the gate. After an
intentional change, regenerate with::

    python benchmarks/check_budget.py --update

Some metrics are *wall-clock throughput floors* rather than
deterministic two-sided budgets: the profiler's events/sec and
packets/sec on the standard AllReduce round, and the ``sim_scale.*``
datacenter smoke (scheduler churn events/sec and the k=8 fat-tree
packet-push throughput).  They carry ``"kind": "floor"`` and pass when
the measured value is at or above the budget; ``--update`` sets each
floor to a per-metric fraction of the measured value (see
``FLOOR_METRICS``) -- a fifth for raw throughputs (loose enough for
noisy CI machines, tight enough to catch an order-of-magnitude
regression).

The whole-fabric deployment checker is gated the same way: one
``check-deploy`` pass over the 64-switch / 8-tenant bench fabric
(``benchmarks/bench_deploy_check.py``) must stay admissible with zero
diagnostics, and its wall time carries a generous ``"kind": "ceiling"``
budget (``deploy_check.wall_s``) so a super-linear slowdown in the
checks fails the gate without flaking on machine noise.

The observer's own overhead is gated too: a sampled + streamed round
measures ``fig4_allreduce_obs.*`` (events recorded / sampled out,
bytes written, peak resident events). The memory/byte numbers carry
``"kind": "ceiling"`` and pass when measured *at or below* the budget,
so observability-layer memory growth fails the gate the same way a
chattier protocol would.

``--history DIR`` keeps a run ledger: every invocation appends its
measured metrics and profile report to DIR, and when a throughput floor
fails, the gate diffs the current profile against the previous run's
(via ``repro.obs.diff``) and names the handlers whose wall time
regressed most -- the "what got slower" answer, not just "something".

Runs standalone (no pytest): ``python benchmarks/check_budget.py``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
if not any((Path(p) / "repro").is_dir() for p in sys.path if p):
    sys.path.insert(0, str(REPO / "src"))

BUDGETS_PATH = REPO / "benchmarks" / "budgets.json"
SCHEMA = "repro.budgets/1"
DEFAULT_TOLERANCE_PCT = 5.0

#: wall-clock throughput metrics get one-sided floor budgets; --update
#: sets floor = measured * fraction.
FLOOR_METRICS = {
    "fig4_allreduce.events_per_sec": 0.2,
    "fig4_allreduce.packets_per_sec": 0.2,
    "sim_scale.sched_events_per_sec": 0.2,
    "sim_scale.fattree_events_per_sec": 0.2,
    "sim_scale.fattree_packets_per_sec": 0.2,
}

#: overhead metrics get one-sided ceiling budgets (pass at or below);
#: --update sets ceiling = measured * headroom. Wall-clock ceilings
#: (deploy_check) get a much larger headroom than deterministic
#: byte/event counts because CI machines are noisy.
CEILING_METRICS = {
    "fig4_allreduce_obs.peak_resident_events": 1.5,
    "fig4_allreduce_obs.bytes_written": 1.5,
    "deploy_check.wall_s": 6.0,
    "proto_check.wall_s": 6.0,
}


def _switch_packets(network) -> int:
    from repro.net.pisanode import PisaSwitchNode

    return sum(
        node.stats.processed
        for node in network.nodes.values()
        if isinstance(node, PisaSwitchNode)
    )


def measure() -> tuple:
    """The fast bench subset: ``(metrics, profile_report)`` -- a flat
    {metric: deterministic value} dict plus the profiled round's
    ``repro.profile/1`` document (for --history regression naming)."""
    from repro.apps.allreduce import AllReduceJob
    from repro.apps.telemetry import TelemetryCluster
    from repro.apps.workloads import random_arrays
    from repro.obs import IntConfig, Observability

    out = {}

    # -- Fig 4 AllReduce, one INC round, untraced (the fast path) ----------
    job = AllReduceJob(4, 512, 8)
    arrays = random_arrays(4, 512, seed=4)
    results, elapsed = job.run_round(arrays)
    assert results[0] == AllReduceJob.expected(arrays)
    net = job.cluster.network
    out["fig4_allreduce.completion_us"] = round(elapsed * 1e6, 3)
    out["fig4_allreduce.link_bytes"] = net.total_bytes_on_links()
    out["fig4_allreduce.switch_packets"] = _switch_packets(net)
    out["fig4_allreduce.sim_events"] = net.sim.events_processed

    # -- the same round profiled: throughput floors (wall-clock) ----------
    from repro.obs import Profiler

    profiler = Profiler()
    job_prof = AllReduceJob(4, 512, 8, obs=Observability(profiler=profiler))
    results, _ = job_prof.run_round(arrays)
    assert results[0] == AllReduceJob.expected(arrays)
    out["fig4_allreduce.events_per_sec"] = round(profiler.events_per_sec())
    out["fig4_allreduce.packets_per_sec"] = round(profiler.packets_per_sec())
    profile_report = profiler.report()

    # -- the same round sampled + streamed: the observer's own overhead --
    import tempfile

    from repro.obs import JsonlSink, Tracer, TraceSampler

    with tempfile.TemporaryDirectory() as tmp:
        tracer = Tracer(
            sampler=TraceSampler(rate=0.1, max_pending=256), retain=False
        )
        tracer.add_stream(
            JsonlSink(str(Path(tmp) / "obs.trace.jsonl"), shard_events=2000)
        )
        job_obs = AllReduceJob(4, 512, 8, obs=Observability(tracer=tracer))
        results, _ = job_obs.run_round(arrays)
        assert results[0] == AllReduceJob.expected(arrays)
        tracer.close()
        stats = tracer.stats()
    out["fig4_allreduce_obs.events_recorded"] = stats["events_recorded"]
    out["fig4_allreduce_obs.events_sampled_out"] = stats["events_sampled_out"]
    out["fig4_allreduce_obs.bytes_written"] = stats["bytes_written"]
    out["fig4_allreduce_obs.peak_resident_events"] = stats[
        "peak_resident_events"
    ]

    # -- the same round with INT stamping on: the telemetry byte tax ------
    obs = Observability(int_config=IntConfig(max_hops=8))
    job_int = AllReduceJob(4, 512, 8, obs=obs)
    results, elapsed = job_int.run_round(arrays)
    assert results[0] == AllReduceJob.expected(arrays)
    out["fig4_allreduce_int.completion_us"] = round(elapsed * 1e6, 3)
    out["fig4_allreduce_int.link_bytes"] = (
        job_int.cluster.network.total_bytes_on_links()
    )
    snap = obs.snapshot()
    out["fig4_allreduce_int.int_records"] = sum(
        s["value"] for s in snap["int.records"]["series"]
    )

    # -- whole-fabric deployment check: 64 switches, 8 tenants ------------
    if str(REPO) not in sys.path:
        sys.path.insert(0, str(REPO))
    from benchmarks.bench_deploy_check import measure_deploy_check

    out.update(measure_deploy_check())

    # -- transport-safety sweep: every shipped program proved replay-safe -
    from benchmarks.bench_proto_check import measure_proto_check

    out.update(measure_proto_check())

    # -- datacenter-scale smoke: scheduler churn + k=8 fat-tree push ------
    # (>=100k packets; the full >=1M-packet run is
    # `python benchmarks/bench_sim_scale.py` without --smoke)
    from benchmarks.bench_sim_scale import measure_sim_scale

    out.update(measure_sim_scale(smoke=True))

    # -- two-switch flow telemetry (SPMD path), untraced ------------------
    cluster = TelemetryCluster(n_senders=2, slots=16, hh_threshold=3)
    for _ in range(6):
        cluster.send_flows(0, [5])
    cluster.send_flows(1, [1, 2, 3])
    assert cluster.heavy_hitters() == [5]
    out["telemetry.windows_seen"] = cluster.total_seen()
    out["telemetry.link_bytes"] = (
        cluster.cluster.network.total_bytes_on_links()
    )
    return out, profile_report


def load_budgets() -> dict:
    with open(BUDGETS_PATH) as fp:
        data = json.load(fp)
    if data.get("schema") != SCHEMA:
        raise SystemExit(
            f"error: {BUDGETS_PATH} has schema {data.get('schema')!r}, "
            f"expected {SCHEMA!r}"
        )
    return data


def check(measured: dict, budgets: dict, floor_failures=None) -> int:
    """Gate *measured* against *budgets*; 0 on pass. Failed floor-kind
    metric names are appended to *floor_failures* (when given) so the
    caller can run the --history profile diff for exactly those."""
    failures = []
    rows = []
    entries = budgets["metrics"]
    for name in sorted(set(measured) | set(entries)):
        if name not in entries:
            failures.append(f"{name}: measured but not budgeted; run --update")
            continue
        if name not in measured:
            failures.append(f"{name}: budgeted but no longer measured")
            continue
        entry = entries[name]
        budget = entry["budget"]
        value = measured[name]
        if entry.get("kind") == "floor":
            ok = value >= budget
            rows.append((name, budget, value, "  >=", "ok" if ok else "FAIL"))
            if not ok:
                failures.append(
                    f"{name}: measured {value} below floor {budget}"
                )
                if floor_failures is not None:
                    floor_failures.append(name)
            continue
        if entry.get("kind") == "ceiling":
            ok = value <= budget
            rows.append((name, budget, value, "  <=", "ok" if ok else "FAIL"))
            if not ok:
                failures.append(
                    f"{name}: measured {value} above ceiling {budget} "
                    "(observer overhead grew; if intentional, --update)"
                )
            continue
        tol_pct = entry.get("tolerance_pct", DEFAULT_TOLERANCE_PCT)
        allowed = abs(budget) * tol_pct / 100.0
        delta = value - budget
        ok = abs(delta) <= allowed
        rows.append((name, budget, value, f"{tol_pct:g}%", "ok" if ok else "FAIL"))
        if not ok:
            failures.append(
                f"{name}: measured {value} vs budget {budget} "
                f"(|delta| {abs(delta):g} > allowed {allowed:g})"
            )
    width = max(len(r[0]) for r in rows) if rows else 10
    print(f"{'metric':<{width}}  {'budget':>14}  {'measured':>14}  tol   status")
    for name, budget, value, tol, status in rows:
        print(f"{name:<{width}}  {budget:>14}  {value:>14}  {tol:>4}  {status}")
    if failures:
        print("\nbudget check FAILED:", file=sys.stderr)
        for failure in failures:
            print(f"  - {failure}", file=sys.stderr)
        return 1
    print(f"\nbudget check passed ({len(rows)} metrics)")
    return 0


def update(measured: dict) -> None:
    # Preserve any hand-tuned tolerances across regeneration.
    old = {}
    if BUDGETS_PATH.exists():
        old = load_budgets().get("metrics", {})
    data = {
        "schema": SCHEMA,
        "comment": (
            "Deterministic simulated metrics from the fast bench subset "
            "(benchmarks/check_budget.py). Regenerate with --update after "
            "an intentional perf-relevant change."
        ),
        "metrics": {},
    }
    for name in sorted(measured):
        if name in FLOOR_METRICS:
            floor = measured[name] * FLOOR_METRICS[name]
            data["metrics"][name] = {
                "budget": round(floor, 2)
                if isinstance(measured[name], float)
                else int(floor),
                "kind": "floor",
            }
        elif name in CEILING_METRICS:
            ceiling = measured[name] * CEILING_METRICS[name]
            data["metrics"][name] = {
                "budget": round(ceiling, 4)
                if isinstance(measured[name], float)
                else int(ceiling),
                "kind": "ceiling",
            }
        else:
            data["metrics"][name] = {
                "budget": measured[name],
                "tolerance_pct": old.get(name, {}).get(
                    "tolerance_pct", DEFAULT_TOLERANCE_PCT
                ),
            }
    with open(BUDGETS_PATH, "w") as fp:
        json.dump(data, fp, indent=2, sort_keys=True)
        fp.write("\n")
    print(f"wrote {BUDGETS_PATH} ({len(measured)} metrics)")


def _history_runs(history_dir: Path):
    return sorted(history_dir.glob("run-*.json"))


def _append_history(history_dir: Path, measured: dict, profile: dict) -> Path:
    history_dir.mkdir(parents=True, exist_ok=True)
    runs = _history_runs(history_dir)
    next_n = 0
    if runs:
        next_n = max(int(p.stem.split("-")[1]) for p in runs) + 1
    path = history_dir / f"run-{next_n:04d}.json"
    with open(path, "w") as fp:
        json.dump(
            {"measured": measured, "profile": profile},
            fp, indent=2, sort_keys=True,
        )
        fp.write("\n")
    return path


def _name_regressions(history_dir: Path, profile: dict) -> None:
    """A floor failed: diff this run's profile against the previous
    history entry's and say which handlers got slower."""
    from repro.obs.diff import diff_profile

    runs = _history_runs(history_dir)
    if not runs:
        print("(no prior run in --history dir to diff against)",
              file=sys.stderr)
        return
    with open(runs[-1]) as fp:
        prev = json.load(fp)
    section = diff_profile(prev.get("profile", {}), profile)
    regressed = section.get("top_regressed") or []
    if not regressed:
        print(f"(no handler wall-time regression vs {runs[-1].name}; "
              "floor failure is likely machine noise)", file=sys.stderr)
        return
    print(f"\nhandlers regressed vs {runs[-1].name}:", file=sys.stderr)
    for entry in regressed[:5]:
        pct = f" ({entry['pct']:+g}%)" if "pct" in entry else ""
        print(
            f"  {entry['label']}: {entry['a_wall_s']:.6f}s -> "
            f"{entry['b_wall_s']:.6f}s{pct}",
            file=sys.stderr,
        )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--update", action="store_true",
        help="regenerate budgets.json from the current measurement",
    )
    parser.add_argument(
        "--json", action="store_true",
        help="print the measured metrics as JSON and exit",
    )
    parser.add_argument(
        "--history", metavar="DIR",
        help="append this run to a history ledger; on a floor failure, "
        "diff profiles against the previous run and name the regressed "
        "handlers",
    )
    args = parser.parse_args(argv)
    measured, profile = measure()
    if args.json:
        print(json.dumps(measured, indent=2, sort_keys=True))
        if args.history:
            _append_history(Path(args.history), measured, profile)
        return 0
    if args.update:
        update(measured)
        return 0
    if not BUDGETS_PATH.exists():
        print(
            f"error: {BUDGETS_PATH} missing; create it with --update",
            file=sys.stderr,
        )
        return 1
    floor_failures: list = []
    rc = check(measured, load_budgets(), floor_failures)
    if args.history:
        history_dir = Path(args.history)
        if floor_failures:
            _name_regressions(history_dir, profile)
        _append_history(history_dir, measured, profile)
    return rc


if __name__ == "__main__":
    sys.exit(main())
