#!/usr/bin/env python3
"""The repo benchmark (see bench/README.md and BENCHMARK.json).

    python bench/run.py                      # all five workloads -> bench/out/result.json
    python bench/run.py --reps 5 --out A.json
    python bench/run.py --workload kvs_mixed --seed 7 --seconds 20 --trace 0
    python bench/run.py --self-check         # the suite twice; the two must agree
    python bench/run.py --selftest           # < 30 s: the harness checks itself

With ``--workload`` the last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
Without it every workload runs in a fresh subprocess of its own, first
untraced and then traced.  Any failed op makes the exit code non-zero.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
DEFAULT_SEED = 2021


@functools.cache
def spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def workload_names() -> list:
    return [w["name"] for w in spec()["workloads"]]


def declared(kind: str) -> dict:
    """name -> unit of the metrics BENCHMARK.json declares."""
    return {m["name"]: m["unit"] for m in spec()[kind]}


def with_units(values: dict, kind: str) -> dict:
    units = declared(kind)
    if set(values) != set(units):
        raise SystemExit(
            f"bench: {kind} metrics differ from BENCHMARK.json: "
            f"{sorted(set(values) ^ set(units))}"
        )
    return {name: {"value": values[name], "unit": units[name]} for name in units}


def run_one(name: str, seed: int, seconds: float, trace: int, plan=None) -> dict:
    """One workload, in this process; the driver-facing result object."""
    import harness

    plan = plan or harness.FULL
    if trace:
        OUT.mkdir(exist_ok=True)
        attempted, failed, consistent, values = harness.per_layer(
            name, seed, seconds, plan, span_path=OUT / f"{name}.spans.jsonl"
        )
        metrics = with_units(values, "per_layer")
    else:
        run, values, extras = harness.end_to_end(name, seed, seconds, plan)
        attempted, failed, consistent = run.attempted, run.failed, True
        metrics = with_units(values, "end_to_end")
        for key, value in extras.items():
            print(f"{name:20} {key:32} {value:14.6g}")
    for key, metric in metrics.items():
        print(f"{name:20} {key:32} {metric['value']:14.6g} {metric['unit']}")
    print(f"{name:20} ops_attempted {attempted}  ops_failed {failed}"
          + ("" if consistent else "  TRACED PASS DIVERGED FROM UNTRACED"))
    return {
        "correct": failed == 0 and consistent,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


# -- the suite ---------------------------------------------------------------


def environment() -> dict:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "commit": commit,
        "loadavg_at_start": os.getloadavg(),
        "gc": "enabled",
    }


def child(name: str, seed: int, seconds: float, trace: int) -> dict:
    """One workload in a fresh subprocess; its result object."""
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", name, "--seed",
         str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        raise SystemExit(f"bench: {name} --trace {trace} died:\n{proc.stderr}")
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    return json.loads(lines[-1])


def run_suite(seed: int, seconds: float, reps: int) -> dict:
    result = {
        "schema": "repro.bench/1",
        "env": environment(),
        "seed": seed,
        "seconds": seconds,
        "reps": reps,
        "workloads": {},
    }
    for name in workload_names():
        runs = [child(name, seed, seconds, 0) for _ in range(reps)]
        traced = child(name, seed, seconds, 1)
        result["workloads"][name] = {
            "attempted": sum(r["attempted"] for r in runs) + traced["attempted"],
            "failed": sum(r["failed"] for r in runs) + traced["failed"],
            "correct": all(r["correct"] for r in runs) and traced["correct"],
            "end_to_end": {
                metric: {
                    "unit": unit,
                    "values": [r["metrics"][metric]["value"] for r in runs],
                }
                for metric, unit in declared("end_to_end").items()
            },
            "per_layer": traced["metrics"],
        }
    return result


def suite_ok(result: dict) -> bool:
    return all(w["correct"] for w in result["workloads"].values())


def write_result(result: dict, path: Path) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(result, indent=2) + "\n")
    print(f"wrote {path}")


# -- --selftest --------------------------------------------------------------


def selftest(seed: int) -> int:
    """The harness checking itself, at three batches per workload."""
    import harness
    import spans
    import workloads

    problems = []

    def expect(condition, what):
        if not condition:
            problems.append(what)

    # 1. every declared metric comes out, with its unit, at two seeds
    for name in workload_names():
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            result = run_one(name, seed, 0.0, trace, plan=harness.QUICK)
            units = {k: m["unit"] for k, m in result["metrics"].items()}
            expect(units == declared(kind), f"{name}: {kind} metrics or units differ")
            expect(result["correct"], f"{name} --trace {trace}: oracle or trace check failed")
        second = run_one(name, seed + 1, 0.0, 0, plan=harness.QUICK)
        expect(second["correct"], f"{name}: oracle failed at seed {seed + 1}")

    # 2. self time = duration - child durations, on a synthetic tree:
    #    root [0, 10] > a [1, 4] > b [2, 3]; root > c [5, 9]
    recorder = spans.SpanRecorder()
    for name, start, end, parent in (
        ("root", 0.0, 10.0, -1), ("a", 1.0, 4.0, 0), ("b", 2.0, 3.0, 1), ("c", 5.0, 9.0, 0),
    ):
        recorder.name_id.append(recorder._intern(name))
        recorder.start.append(start)
        recorder.end.append(end)
        recorder.parent.append(parent)
        recorder.batch.append(0)
    own = recorder.self_times()
    expect(list(own) == [3.0, 2.0, 1.0, 4.0], "self-time arithmetic")
    expect(recorder.aggregate(own)["a"] == [1, 2.0, 3.0], "span aggregation")

    # 3. a wrong oracle value is a failed op
    star = workloads.AllReduceStar(seed)
    star.batch(0)
    expect(star.check(0) == 0, "allreduce oracle rejects a correct round")
    star.expected[0][3] += 1
    expect(star.check(0) == star.WORKERS, "a wrong oracle value must fail its window on every worker")

    for problem in problems:
        print(f"selftest FAILED: {problem}")
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


# -- command line ------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workload_names())
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=spec()["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--reps", type=int, default=1,
                        help="untraced runs per workload in a suite (compare.py "
                        "needs 4 or more to see the run-to-run spread)")
    parser.add_argument("--out", type=Path, default=OUT / "result.json")
    parser.add_argument("--self-check", action="store_true")
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"bench: no program to measure: {ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.selftest:
        return selftest(args.seed)
    if args.workload:
        result = run_one(args.workload, args.seed, args.seconds, args.trace)
        print(json.dumps(result))
        return 0 if result["correct"] else 1
    first = run_suite(args.seed, args.seconds, args.reps)
    write_result(first, args.out)
    if not args.self_check:
        return 0 if suite_ok(first) else 1
    import compare

    second = run_suite(args.seed, args.seconds, args.reps)
    write_result(second, args.out.with_suffix(".second.json"))
    agree = compare.report(first, second, spec(), same_code=True)
    return 0 if agree and suite_ok(first) and suite_ok(second) else 1


if __name__ == "__main__":
    sys.exit(main())
