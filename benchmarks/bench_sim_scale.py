#!/usr/bin/env python3
"""Datacenter-scale simulator benchmark: scheduler churn + k=8 fat-tree.

Two phases, both on the production ``repro.net`` code paths:

**Scheduler churn** -- a large resident population of
self-rescheduling timers (timeout-style delays spread over [10us, 5ms])
is driven to a fixed dispatch budget; events/sec is reported.  This is
the regime the event heap is weakest in, measured so the trade stays
visible: 400k (smoke) or 2M resident timers, where each O(log n) sift
walks a deep heap, against the 8 (allreduce_star), 93 (kvs_mixed) and
773 (fattree_forward) records the repo benchmark's workloads ever
queue.  A calendar wheel read about 3x the heap here; it was removed
because no workload comes near this population (docs/SIMULATOR.md
"The event core").

**Fat-tree packet push** -- 128 hosts on a k=8 fat-tree (80 switches,
384 links, ECMP routes) running closed-rate permutation traffic until
every host has injected its quota (>=1M packets total in the full run,
>=100k in ``--smoke``).  Reports virtual-time totals plus wall-clock
packets/sec and events/sec.

Results are deterministic in virtual time (packet and event counts) and
wall-clock in throughput; ``check_budget.py`` gates the smoke metrics
(floors on throughput, tolerances on the deterministic counts).  Run standalone for the full numbers::

    python benchmarks/bench_sim_scale.py            # full (~1M packets)
    python benchmarks/bench_sim_scale.py --smoke    # CI-sized
    python benchmarks/bench_sim_scale.py --profile out.json  # flamegraph doc
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
from pathlib import Path
from time import perf_counter

REPO = Path(__file__).resolve().parent.parent
if not any((Path(p) / "repro").is_dir() for p in sys.path if p):
    sys.path.insert(0, str(REPO / "src"))

# -- phase 1: scheduler churn -------------------------------------------------

#: timeout-style delays: 1024 deterministic values spread over [10us, 5ms]
_DELAYS = [
    1e-5 + ((i * 2654435761) % 4096) / 4096.0 * 5e-3 for i in range(1024)
]


def sched_churn(resident: int, dispatches: int) -> float:
    """Events/sec holding *resident* timers while *dispatches* of them
    re-arm (then draining the population)."""
    from repro.net.events import Simulator

    sim = Simulator()
    delays = _DELAYS
    state = {"left": dispatches, "i": 0}

    def fire() -> None:
        left = state["left"]
        if left > 0:
            state["left"] = left - 1
            i = state["i"]
            state["i"] = (i + 1) & 1023
            sim.schedule(delays[i], fire, label="churn")

    for i in range(resident):
        sim.schedule(delays[i & 1023], fire, label="churn")
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = perf_counter()
        sim.run(max_events=100_000_000)
        wall = perf_counter() - t0
    finally:
        if gc_was_enabled:
            gc.enable()
    return sim.events_processed / wall


# -- phase 2: fat-tree packet push --------------------------------------------


def fattree_push(packets_per_host: int, k: int = 8) -> dict:
    """Closed-rate permutation traffic on a k-ary fat-tree: every host
    paces one small NCP frame per interval at a rotating peer until its
    quota is injected.  Returns counts plus wall-clock throughput."""
    from repro.ncp.wire import ChunkLayout, KernelLayout, encode_frame
    from repro.net.topo import fat_tree

    topo = fat_tree(k)
    net = topo.build()
    hosts = [net.host(h) for h in topo.hosts]
    n = len(hosts)
    layout = KernelLayout(1, "push", [ChunkLayout("x", 4, 32, False)])
    # One frame per destination, pre-encoded once -- the bench times the
    # simulator, not the codec.  The header dst is what the forwarding
    # tier routes on, so it must match the intended peer.
    frames = [
        encode_frame(layout, 0, host.node_id, 0, [[1, 2, 3, 4]])
        for host in hosts
    ]
    delivered = [0]

    def count(_data: bytes) -> None:
        delivered[0] += 1

    for host in hosts:
        host.receiver = count

    interval = 2e-6  # per-host injection rate: 500k pkt/s
    sim = net.sim

    def make_sender(i: int):
        host = hosts[i]
        state = {"left": packets_per_host, "peer": 0}

        def send() -> None:
            left = state["left"]
            if left <= 0:
                return
            state["left"] = left - 1
            peer = state["peer"]
            # rotating permutation partner, never self
            dst = (i + 1 + (peer * 7) % (n - 1)) % n
            if dst == i:
                dst = (dst + 1) % n
            state["peer"] = peer + 1
            host.transmit(frames[dst], hosts[dst].node_id)
            sim.schedule(interval, send, label="bench;inject")

        return send

    for i in range(n):
        # stagger start times so injectors do not all fire in lockstep
        sim.schedule(i * (interval / n), make_sender(i), label="bench;inject")
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = perf_counter()
        sim.run(max_events=1_000_000_000)
        wall = perf_counter() - t0
    finally:
        if gc_was_enabled:
            gc.enable()
    injected = packets_per_host * n
    return {
        "hosts": n,
        "packets": injected,
        "delivered": delivered[0],
        "events": sim.events_processed,
        "virtual_s": sim.now(),
        "wall_s": wall,
        "packets_per_sec": injected / wall,
        "events_per_sec": sim.events_processed / wall,
        "link_frames": sum(link.stats.frames for link in net.links),
    }


# -- the budget-facing measurement -------------------------------------------

#: (resident timers, dispatch budget) per mode for the churn phase
CHURN_FULL = (2_000_000, 400_000)
CHURN_SMOKE = (400_000, 150_000)

#: per-host packet quota (x128 hosts): 1.024M packets full, 102.4k smoke
PACKETS_FULL = 8_000
PACKETS_SMOKE = 800


def measure_sim_scale(smoke: bool = True) -> dict:
    """The ``sim_scale.*`` metrics ``check_budget.py`` gates."""
    resident, dispatches = CHURN_SMOKE if smoke else CHURN_FULL
    churn_eps = sched_churn(resident, dispatches)
    push = fattree_push(PACKETS_SMOKE if smoke else PACKETS_FULL)
    assert push["delivered"] == push["packets"], (
        f"lost packets: {push['delivered']}/{push['packets']}"
    )
    return {
        "sim_scale.sched_events_per_sec": round(churn_eps),
        "sim_scale.fattree_packets": push["packets"],
        "sim_scale.fattree_events": push["events"],
        "sim_scale.fattree_packets_per_sec": round(push["packets_per_sec"]),
        "sim_scale.fattree_events_per_sec": round(push["events_per_sec"]),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true",
        help="CI-sized run (>=100k packets) instead of the full >=1M",
    )
    parser.add_argument(
        "--json", action="store_true", help="machine-readable output"
    )
    parser.add_argument(
        "--profile", metavar="OUT.json",
        help="write a repro.profile/1 report of a profiled fat-tree "
        "push (feed to `repro-obs flame` / `repro-obs query diff`)",
    )
    args = parser.parse_args(argv)

    out = measure_sim_scale(smoke=args.smoke)
    if not args.json:
        resident, dispatches = CHURN_SMOKE if args.smoke else CHURN_FULL
        print(f"scheduler churn ({resident} resident, {dispatches} re-arms):")
        print(f"  {out['sim_scale.sched_events_per_sec']:>12,} ev/s")
        print(
            f"fat-tree k=8 push ({out['sim_scale.fattree_packets']:,} packets,"
            f" 128 hosts):"
        )
        print(f"  events : {out['sim_scale.fattree_events']:,}")
        print(f"  pkt/s  : {out['sim_scale.fattree_packets_per_sec']:>12,}")
        print(f"  ev/s   : {out['sim_scale.fattree_events_per_sec']:>12,}")
    else:
        print(json.dumps(out, indent=2, sort_keys=True))

    if args.profile:
        from repro.obs import Observability, Profiler
        from repro.ncp.wire import ChunkLayout, KernelLayout, encode_frame
        from repro.net.network import Network
        from repro.net.topo import fat_tree

        profiler = Profiler()
        topo = fat_tree(8)
        net = topo.build(obs=Observability(profiler=profiler))
        hosts = [net.host(h) for h in topo.hosts]
        for host in hosts:
            host.receiver = lambda _data: None
        layout = KernelLayout(1, "push", [ChunkLayout("x", 4, 32, False)])
        frames = [
            encode_frame(layout, 0, h.node_id, 0, [[1, 2, 3, 4]])
            for h in hosts
        ]
        for i, host in enumerate(hosts):
            for j in range(50):
                dst = (i + 1 + j) % len(hosts)
                host.transmit(frames[dst], hosts[dst].node_id)
        net.run()
        with open(args.profile, "w") as fp:
            json.dump(profiler.report(), fp, indent=2, sort_keys=True)
            fp.write("\n")
        print(f"wrote profile report to {args.profile}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
