#!/usr/bin/env python3
"""The full observability-phase-2 stack on a run that goes wrong.

A two-worker AllReduce with everything attached -- continuous profiler,
virtual-clock time series of the metrics registry with a health alert
rule, flight recorder:

    w0 --+
         +--> s1 (in-network aggregation)
    w1 --+

Round 1 succeeds and prints the profiler's where-did-the-time-go view.
Then the w0 uplink is failed mid-round-2: frames start dropping with
cause ``down``, the critical drop-rate alert fires at the next sampler
boundary (the flight recorder dumps bundle 0 at that instant), and the
round times out inside ``flight_guard`` (bundle 1). The demo validates
both bundles and reconstructs the alert story from bundle 0 alone --
exactly what ``python -m repro.obs.query alerts --flight`` does
offline.

Run:  python examples/flight_recorder_demo.py [output-dir]

Outputs land in *output-dir* (default ``flight_recorder_out/``), which
is gitignored -- demo runs never dirty the repo.
"""

import json
import sys
from pathlib import Path

from repro.apps.allreduce import AllReduceJob
from repro.apps.workloads import random_arrays
from repro.errors import RuntimeApiError
from repro.net import FaultPlan
from repro.obs import (
    FlightRecorder,
    Observability,
    Profiler,
    TimeSeriesSampler,
    flight_guard,
    validate_bundle,
)

N_WORKERS = 2
DATA_LEN = 256
WINDOW = 8

ALERT_RULE = "drops: link.drops{cause=down} rate > 0 over 2us !critical"


def main(outdir: str = "flight_recorder_out") -> int:
    out = Path(outdir)
    out.mkdir(parents=True, exist_ok=True)

    profiler = Profiler()
    sampler = TimeSeriesSampler(interval=1e-6, rules=[ALERT_RULE])  # 1us buckets
    flight = FlightRecorder(capacity=128, out_dir=str(out))
    obs = Observability(profiler=profiler, sampler=sampler, flight=flight)

    job = AllReduceJob(N_WORKERS, DATA_LEN, WINDOW, obs=obs)

    # -- round 1: healthy --------------------------------------------------
    arrays = random_arrays(N_WORKERS, DATA_LEN, seed=1)
    results, elapsed = job.run_round(arrays)
    assert results[0] == AllReduceJob.expected(arrays)
    print(f"round 1 complete in {elapsed * 1e6:.1f}us simulated")
    report = profiler.report()
    print(f"profiler: {report['events']} events, "
          f"{report['events_per_sec']:,.0f} events/s, "
          f"{report['packets_per_sec']:,.0f} packets/s, "
          f"{report['attributed_fraction'] * 100:.1f}% attributed")
    for entry in report["entries"][:3]:
        print(f"  {entry['label']:<24} {entry['wall_pct']:5.1f}%  "
              f"x{entry['count']}")

    # -- round 2: the uplink goes down mid-round ---------------------------
    fail_at = job.cluster.now() + 1e-6
    job.cluster.network.inject(FaultPlan(events=((fail_at, "down", ("w0", "s1")),)))
    print(f"\ninjecting w0<->s1 link failure at t={fail_at * 1e6:.1f}us; "
          f"watching: {ALERT_RULE!r}")
    try:
        with flight_guard(obs, clock=job.cluster.now):
            job.run_round(random_arrays(N_WORKERS, DATA_LEN, seed=2))
        raise SystemExit("round 2 unexpectedly succeeded")
    except RuntimeApiError as exc:
        print(f"round 2 failed (as injected): {exc}")
    sampler.finish(job.cluster.now())

    # -- the recorded story ------------------------------------------------
    print(f"\n{len(flight.bundles)} flight bundles dumped:")
    for reason, data, path in flight.bundles:
        problems = validate_bundle(data)
        status = "valid" if not problems else f"INVALID: {problems}"
        print(f"  {path}  reason={reason!r}  "
              f"{len(data['events'])}/{data['events_seen']} events  {status}")
        if problems:
            return 1

    # Reconstruct the alert + its triggering window from bundle 0 alone
    # (what `python -m repro.obs.query alerts --flight` does offline).
    escalation = json.loads((out / "flight-0.json").read_text())
    (alert,) = escalation["timeseries"]["alerts"]
    print(f"\nfrom flight-0.json alone: [{alert['severity']}] "
          f"{alert['name']} fired at {alert['fired_at'] * 1e6:.1f}us "
          f"({alert['rule']})")
    print("triggering window (drop rate, per 1us bucket):")
    for t, value in alert["window"]:
        print(f"  t={t * 1e6:6.1f}us  {value:g}/s")

    # Full artifacts for the offline CLI.
    with open(out / "run.profile.json", "w") as fp:
        profiler.write_json(fp)
    with open(out / "run.timeseries.json", "w") as fp:
        sampler.write_json(fp)  # the curves, the rule and its alert
    with open(out / "run.metrics.json", "w") as fp:
        json.dump(obs.snapshot(), fp, sort_keys=True)
    print(f"\nwrote run.{{profile,timeseries,metrics}}.json to {out}/;"
          " explore offline, e.g.")
    print(f"  python -m repro.obs.query alerts --flight {out}/flight-0.json --window")
    print(f"  python -m repro.obs.query timeseries --timeseries "
          f"{out}/run.timeseries.json --series link.drops --labels cause=down --rate")
    print(f"  python -m repro.obs.query profile --profile {out}/run.profile.json")
    print(f"  python -m repro.obs.query export --metrics {out}/run.metrics.json "
          f"--format prom")
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:2]))
