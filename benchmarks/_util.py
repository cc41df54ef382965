"""Shared helpers for the benchmark harness.

Each ``bench_fig*.py`` regenerates one of the paper's figures as an
executable artifact: it prints the series/rows the figure would plot
(run with ``pytest benchmarks/ --benchmark-only -s`` to see them) and
feeds the timing-sensitive kernel of the experiment to pytest-benchmark.
EXPERIMENTS.md records one captured run of every table.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence


def print_table(title: str, headers: Sequence[str], rows: Iterable[Sequence]) -> None:
    widths = [len(h) for h in headers]
    materialized = [[str(c) for c in row] for row in rows]
    for row in materialized:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    line = "  ".join(h.ljust(w) for h, w in zip(headers, widths))
    print(f"\n== {title} ==")
    print(line)
    print("-" * len(line))
    for row in materialized:
        print("  ".join(c.rjust(w) for c, w in zip(row, widths)))


def record_once(benchmark, fn):
    """Run a whole-experiment sweep exactly once under pytest-benchmark.

    Figure-regeneration sweeps are experiments, not microbenchmarks:
    repeating them would mutate stateful clusters and waste minutes. One
    recorded round keeps them visible in ``--benchmark-only`` runs.
    """
    return benchmark.pedantic(fn, rounds=1, iterations=1)


def registry_snapshot(network) -> dict:
    """A metrics-registry snapshot of an untraced *network*: the
    registry's collectors read the always-on component stats, so
    per-layer breakdowns ride in every results JSON."""
    from repro.obs import MetricsRegistry, collect_network_metrics

    registry = MetricsRegistry()
    collect_network_metrics(network, registry)
    return registry.snapshot()


def throughput_summary(profiler) -> Optional[dict]:
    """The profiler's throughput meters for a results JSON. Wall-clock
    derived, so informational rather than budget-deterministic; the
    budget gate keeps only loose *floor* budgets on these."""
    if profiler is None:
        return None
    return {
        "events_per_sec": round(profiler.events_per_sec(), 1),
        "packets_per_sec": round(profiler.packets_per_sec(), 1),
        "attributed_fraction": round(profiler.attributed_fraction(), 4),
    }


def obs_summary(obs) -> Optional[dict]:
    """The tracer's self-accounting for a results JSON: what observing
    the run cost (events recorded vs sampled out, bytes streamed, peak
    events resident in memory). Deterministic -- the budget gate keeps
    ceilings on the memory/byte numbers."""
    if obs is None or obs.tracer is None:
        return None
    stats = obs.tracer.stats()
    return {
        "events_recorded": stats["events_recorded"],
        "events_sampled_out": stats["events_sampled_out"],
        "bytes_written": stats["bytes_written"],
        "peak_resident_events": stats["peak_resident_events"],
    }


def loc(source: str) -> int:
    """Non-empty, non-comment lines of code."""
    count = 0
    for line in source.splitlines():
        stripped = line.strip()
        if stripped and not stripped.startswith(("//", "#")):
            count += 1
    return count
