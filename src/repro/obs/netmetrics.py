"""Bridging the simulator's component stats into the registry, and the
per-packet pipeline trace observer.

The network keeps its ad-hoc stats structs unconditionally (they are a
handful of integer adds on the hot path); :func:`collect_network_metrics`
folds them into registry gauges at snapshot time. It works both live
(registered as a collector by :class:`~repro.net.network.Network` when
an :class:`~repro.obs.context.Observability` is attached) and post-hoc
(benchmarks snapshot any finished network into a fresh registry).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.obs.registry import MetricsRegistry
from repro.obs.trace import Tracer

if TYPE_CHECKING:
    from repro.net.frame import Frame
    from repro.net.network import Network


def collect_network_metrics(net: "Network", registry: MetricsRegistry) -> None:
    """Set registry gauges from every component stat of *net*.

    Idempotent (gauges are overwritten), so it can run at every
    snapshot. Covers the simulator core, links (incl. drop causes and
    per-direction queue depth), nodes, and PISA switch pipelines
    (per-table/per-action accounting).
    """
    registry.gauge("sim.time_seconds", "virtual time at snapshot").set(net.sim.now())
    registry.gauge("sim.events_processed", "discrete events run").set(
        net.sim.events_processed
    )

    g_bytes = registry.gauge("link.bytes", "payload bytes serialized", ("link",))
    g_frames = registry.gauge("link.frames", "frames serialized", ("link",))
    g_busy = registry.gauge("link.busy_seconds", "serialization time", ("link",))
    g_drops = registry.gauge(
        "link.drops", "frames dropped, by cause", ("link", "cause")
    )
    g_qdepth = registry.gauge(
        "link.qdepth_bytes", "bytes queued to cross, by sending end",
        ("link", "dir"),
    )
    now = net.sim.now()
    for link in net.links:
        name = f"{link.a.name}<->{link.b.name}"
        g_bytes.labels(link=name).set(link.stats.bytes)
        g_frames.labels(link=name).set(link.stats.frames)
        g_busy.labels(link=name).set(link.stats.busy_time)
        g_drops.labels(link=name, cause="loss").set(link.stats.drops_loss)
        g_drops.labels(link=name, cause="overflow").set(link.stats.drops_overflow)
        g_drops.labels(link=name, cause="down").set(link.stats.drops_down)
        for end in (link.a, link.b):
            g_qdepth.labels(link=name, dir=f"{end.name}->").set(
                link.backlog_bytes(end, now)
            )

    n_rx_f = registry.gauge("node.rx_frames", "frames received", ("node",))
    n_rx_b = registry.gauge("node.rx_bytes", "bytes received", ("node",))
    n_tx_f = registry.gauge("node.tx_frames", "frames sent", ("node",))
    n_tx_b = registry.gauge("node.tx_bytes", "bytes sent", ("node",))
    n_drops = registry.gauge("node.drops", "frames dropped at the node", ("node",))
    n_proc = registry.gauge("node.processed", "frames processed", ("node",))
    n_up = registry.gauge(
        "node.up", "administrative state (1 up / 0 down)", ("node",)
    )
    sw_pkts = registry.gauge("switch.packets", "packets through the pipeline", ("switch",))
    sw_hits = registry.gauge("switch.table_hits", "table hits", ("switch", "table"))
    sw_miss = registry.gauge("switch.table_misses", "table misses", ("switch", "table"))
    sw_acts = registry.gauge("switch.action_runs", "action executions", ("switch", "action"))
    sw_rreads = registry.gauge("switch.register_reads", "stateful reads", ("switch",))
    sw_rwrites = registry.gauge("switch.register_writes", "stateful writes", ("switch",))

    for node in net.nodes.values():
        n_rx_f.labels(node=node.name).set(node.stats.rx_frames)
        n_rx_b.labels(node=node.name).set(node.stats.rx_bytes)
        n_tx_f.labels(node=node.name).set(node.stats.tx_frames)
        n_tx_b.labels(node=node.name).set(node.stats.tx_bytes)
        n_drops.labels(node=node.name).set(node.stats.drops)
        n_proc.labels(node=node.name).set(node.stats.processed)
        n_up.labels(node=node.name).set(1 if node.up else 0)
        switch = getattr(node, "switch", None)
        pipeline = getattr(switch, "pipeline", None)
        if pipeline is None:
            continue
        stats = pipeline.stats
        sw_pkts.labels(switch=node.name).set(stats.packets)
        for table, hits in stats.table_hits.items():
            sw_hits.labels(switch=node.name, table=table).set(hits)
        for table, misses in stats.table_misses.items():
            sw_miss.labels(switch=node.name, table=table).set(misses)
        for action, runs in stats.action_runs.items():
            sw_acts.labels(switch=node.name, action=action).set(runs)
        sw_rreads.labels(switch=node.name).set(stats.register_reads)
        sw_rwrites.labels(switch=node.name).set(stats.register_writes)


# -- what a switch's per-packet events say, built when one is read (obs.trace) --


def _stage_args(in_port: int, frame: "Frame", stage: int, detail, a, b) -> dict:
    args = frame.named({"in_port": in_port})
    args["stage"] = stage
    if detail is not None:
        args["detail"] = detail(a, b)
    return args


def _parse_detail(nbytes: int, _) -> str:
    return f"{nbytes}B"


def _table_detail(hit: bool, action: str) -> str:
    return ("hit:" if hit else "miss:") + action


def _verdict_args(in_port: int, frame: "Frame", verdict: str) -> dict:
    args = frame.named({"in_port": in_port})
    args["verdict"] = verdict
    return args


class _SpanNames(dict):
    """``name -> prefix + name``, each joined once per process."""

    def __init__(self, prefix: str) -> None:
        self.prefix = prefix

    def __missing__(self, name: str) -> str:
        span = self[name] = self.prefix + name
        return span


_TABLE_SPANS, _ACTION_SPANS = _SpanNames("table:"), _SpanNames("action:")


class SwitchPacketTrace:
    """Per-packet pipeline observer: collects what the parser and each
    pipeline stage did, then emits proportional sub-spans.

    The simulator charges one lumped ``DELAY`` per packet; for
    the trace we apportion it evenly across the recorded stage
    operations (parse, each table apply, each top-level action) so the
    per-stage spans tile the switch's processing window exactly --
    honest about ordering, synthetic about per-stage duration.
    """

    __slots__ = ("ops",)

    def __init__(self) -> None:
        self.ops = []  # (span name, what formats the detail or None, its two inputs)

    # pipeline callbacks ------------------------------------------------------

    def parse(self, nbytes: int) -> None:
        self.ops.append(("parse:parser", _parse_detail, nbytes, None))

    def table(self, name: str, hit: bool, action: str) -> None:
        self.ops.append((_TABLE_SPANS[name], _table_detail, hit, action))

    def action(self, name: str) -> None:
        self.ops.append((_ACTION_SPANS[name], None, None, None))

    # emission ----------------------------------------------------------------

    def emit(
        self,
        tracer: Tracer,
        track: str,
        start: float,
        delay: float,
        verdict: str,
        in_port: int,
        frame: "Frame",
    ) -> None:
        slice_dur = delay / max(1, len(self.ops))
        span = tracer.span
        for i, (name, detail, a, b) in enumerate(self.ops):
            span(
                name, start + i * slice_dur, slice_dur, track, "switch",
                (_stage_args, in_port, frame, i, detail, a, b),
            )
        tracer.instant(
            "verdict", start + delay, track, "switch",
            (_verdict_args, in_port, frame, verdict),
        )
