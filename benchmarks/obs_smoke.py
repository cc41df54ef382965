#!/usr/bin/env python3
"""Scale smoke test: a 100k+ packet run under bounded-memory tracing.

The point of the streaming/sampling layer is that the observer no
longer has to hold the run: this script pushes >=100k frames through a
lossy two-host deployment with full tracing on, the trace sampled at a
low deterministic rate and streamed to sharded JSONL, and then proves
the four properties the design owes us:

1. **bounded memory** -- peak resident trace events stay under a fixed
   ceiling (vs ~1 event per packet-hop unbounded);
2. **honest self-accounting** -- recorded == emitted + sampled out, and
   bytes_written matches what actually landed on disk;
3. **pre-sampling flight recorder** -- the crash ring saw every event;
4. **anomaly retention** -- every dropped window is fully
   reconstructable from the sharded trace alone (``query explain``
   works for any of them), at a sampling rate that keeps almost
   nothing else.

Exits non-zero (assertion) on any violation. Used by the CI
observability job; also runnable by hand::

    python benchmarks/obs_smoke.py [--windows 50000] [--out DIR]
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
if not any((Path(p) / "repro").is_dir() for p in sys.path if p):
    sys.path.insert(0, str(REPO / "src"))

PROBE_SRC = (
    "_net_ unsigned seen[1] = {0};\n"
    "_net_ _out_ void probe(unsigned *d) { seen[0] += d[0]; }\n"
)

#: sampler bound on in-flight windows; the peak-resident ceiling below
#: is derived from it
MAX_PENDING = 1024

#: trace events per window on the h0 -> s1 -> h1 path (send, queue,
#: serialize x2 links, parser/table/action spans, int:stack, recv ...);
#: a loose upper bound used only to size the ceiling
EVENTS_PER_WINDOW = 24


def run_smoke(n_windows: int, out_dir: Path, rate: float = 0.001,
              loss: float = 0.001) -> dict:
    from repro.nclc import Compiler, WindowConfig
    from repro.net import FaultPlan
    from repro.obs import (
        FlightRecorder,
        JsonlSink,
        Observability,
        Tracer,
        TraceSampler,
    )
    from repro.obs.lineage import LineageIndex
    from repro.runtime import Cluster

    out_dir.mkdir(parents=True, exist_ok=True)
    program = Compiler().compile(
        PROBE_SRC, windows={"probe": WindowConfig(mask=(1,))}
    )

    sampler = TraceSampler(rate=rate, max_pending=MAX_PENDING)
    tracer = Tracer(sampler=sampler, retain=False)
    # Small shards on purpose: the lineage rebuild below then proves
    # the streaming readers walk a multi-shard manifest correctly.
    sink = JsonlSink(str(out_dir / "smoke.trace.jsonl"), shard_events=256)
    tracer.add_stream(sink)
    flight = FlightRecorder(capacity=256)
    obs = Observability(tracer=tracer, flight=flight)

    cluster = Cluster.from_program(program, obs=obs)
    cluster.network.inject(FaultPlan(loss=loss))
    h0 = cluster.host("h0")

    t0 = time.monotonic()
    batch = 2000
    sent = 0
    while sent < n_windows:
        n = min(batch, n_windows - sent)
        # Explicit seqs: Host.out() restarts its windower's numbering
        # on every call, and the smoke needs globally unique window
        # identities for the retention check.
        for seq in range(sent, sent + n):
            h0.out_window("probe", seq, [[seq % 4096]], "h1", last=True)
        cluster.run()
        sent += n
    tracer.close()
    wall = time.monotonic() - t0

    stats = tracer.stats()
    frames = 2 * n_windows  # h0->s1 and s1->h1 legs
    ceiling = MAX_PENDING * EVENTS_PER_WINDOW

    print(f"{n_windows} windows ({frames} frames) in {wall:.1f}s wall "
          f"({frames / wall:,.0f} frames/s traced)")
    print(json.dumps(stats, indent=2, sort_keys=True))

    # 1. bounded memory
    assert frames >= 100_000, f"smoke must push >=100k packets, got {frames}"
    peak = stats["peak_resident_events"]
    assert peak <= ceiling, (
        f"peak resident events {peak} above ceiling {ceiling} "
        f"(= {MAX_PENDING} pending windows x {EVENTS_PER_WINDOW})"
    )
    unbounded = stats["events_recorded"]
    print(f"peak resident {peak} <= ceiling {ceiling} "
          f"(unbounded would be {unbounded}: {unbounded / peak:.0f}x)")

    # 2. honest self-accounting
    assert stats["events_recorded"] == (
        stats["events_emitted"] + stats["events_sampled_out"]
    ), "recorded != emitted + sampled_out"
    disk_bytes = sum(p.stat().st_size for p in map(Path, sink.paths()))
    assert stats["bytes_written"] == disk_bytes, (
        f"self-accounted bytes {stats['bytes_written']} != on-disk {disk_bytes}"
    )
    print(f"bytes_written {disk_bytes} matches disk across "
          f"{len(sink.paths())} shards")

    # 3. the flight recorder rides the pre-sampling stream
    assert flight.events_seen == stats["events_recorded"], (
        "flight recorder missed pre-sampling events"
    )

    # 4. anomaly retention: every dropped window reconstructs from the
    # sharded trace alone
    index = LineageIndex.from_jsonl(str(out_dir / "smoke.trace.jsonl"))
    dropped = [
        (window, attempt)
        for window in index.windows.values()
        for branch in window.branches.values()
        for attempt in branch.attempts.values()
        if attempt.outcome.startswith("drop:")
        and attempt.outcome != "drop:switch"
    ]
    assert dropped, (
        f"no drops at loss={loss} over {n_windows} windows -- "
        "raise --windows or loss"
    )
    for window, _attempt in dropped:
        story = index.explain(window.kernel_id, window.seq)
        assert "drop" in story, (window.kernel_id, window.seq)
    print(f"all {len(dropped)} dropped windows fully reconstructable "
          f"from shards (sampling rate {rate})")
    return stats


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--windows", type=int, default=50_000,
                        help="windows to push (frames = 2x this)")
    parser.add_argument("--out", default="obs-smoke-out",
                        help="artifact directory for shards + manifest")
    parser.add_argument("--rate", type=float, default=0.001,
                        help="head-sampling keep rate")
    parser.add_argument("--loss", type=float, default=0.001,
                        help="link loss probability")
    args = parser.parse_args(argv)
    run_smoke(args.windows, Path(args.out), rate=args.rate, loss=args.loss)
    print("obs smoke OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
