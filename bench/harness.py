"""Measuring one workload: the untraced end-to-end pass (``--trace 0``)
and the traced per-layer pass (``--trace 1``).

Single-threaded and closed-loop: the harness is the only client and
issues a batch only after the previous one completed and was checked.
GC stays enabled, as users run the system.
"""

from __future__ import annotations

import gc
import itertools
import resource
import statistics
from collections import namedtuple
from contextlib import nullcontext
from time import perf_counter

from repro.net.node import HostNode

from spans import ROOT, SpanRecorder, instrumented
from workloads import COUNTERS, WORKLOADS

#: how much of everything a run does; QUICK is the --selftest size
Plan = namedtuple("Plan", "setups warmup min_batches traced_max")
FULL = Plan(setups=9, warmup=5, min_batches=8, traced_max=30)
QUICK = Plan(setups=1, warmup=1, min_batches=3, traced_max=3)

#: timed batches whose spans go to the .spans.jsonl dump
SPAN_DUMP_BATCHES = 3

#: exact counts are totals over the first FIXED timed batches: the same
#: work on every run of a seed, whatever the machine's speed
FIXED = 8

Pass = namedtuple("Pass", "walls attempted failed deltas")


def set_up(cls, seed: int, times: int):
    """*times* fresh set-ups; the last instance and the median wall.
    GC stays enabled, but a full collection runs (untimed) before each
    set-up, so the previous instance's garbage is not billed to it."""
    walls = []
    workload = None
    for _ in range(times):
        del workload
        gc.collect()
        t0 = perf_counter()
        workload = cls(seed)
        walls.append(perf_counter() - t0)
    return workload, statistics.median(walls)


def run_batches(workload, seconds: float, plan: Plan, recorder=None, max_batches=None):
    """Warm up, then time checked batches until *seconds* have passed
    (at least ``plan.min_batches``, at most *max_batches*).  Batch *n*
    is the n-th timed one; warm-up batches have negative numbers."""
    attempted = failed = 0
    walls, deltas = [], []
    deadline = None
    before = workload.counters()
    for i in itertools.count():
        n = i - plan.warmup
        if n == 0:
            deadline = perf_counter() + seconds
        with recorder.batch_span(n) if recorder is not None else nullcontext():
            t0 = perf_counter()
            workload.batch(i)
            wall = perf_counter() - t0
        bad = workload.check(i)
        after = workload.counters()
        delta = {key: after[key] - before[key] for key in COUNTERS}
        before = after
        if workload.watchdog_us is not None and delta["sim_time_us"] > workload.watchdog_us:
            bad = workload.ops_per_batch  # late: the whole batch missed its deadline
        attempted += workload.ops_per_batch
        failed += bad
        if n < 0:
            continue
        walls.append(wall)
        deltas.append(delta)
        done = n + 1
        if done == max_batches or (done >= plan.min_batches and perf_counter() >= deadline):
            return Pass(walls, attempted, failed, deltas)


def percentile(values, q: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def quiet_wall(walls) -> float:
    """The batch wall of an undisturbed machine: the 25th percentile.
    A shared machine's interference arrives in bursts that stretch up to
    half of a run's batches to 1.2-2x; over 50 runs the median moved
    5-17 % above the quiet level, the lower quartile 1-4 %."""
    return percentile(walls, 0.25)


# -- --trace 0 ----------------------------------------------------------------


def end_to_end(name: str, seed: int, seconds: float, plan: Plan = FULL):
    """The untraced pass: every end-to-end metric, plus printed extras."""
    workload, setup_s = set_up(WORKLOADS[name], seed, plan.setups)
    run = run_batches(workload, seconds, plan)
    # throughput over the faster half of the batches, for the same reason
    fast = sorted(run.walls)[: max(1, len(run.walls) // 2)]
    failed_share = min(1.0, run.failed / run.attempted)
    metrics = {
        "ops_per_s": workload.ops_per_batch * (1.0 - failed_share) * len(fast) / sum(fast),
        "batch_wall_ms_p25": quiet_wall(run.walls) * 1e3,
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    extras = {
        "batches": len(run.walls),
        "batch_wall_ms_p50": statistics.median(run.walls) * 1e3,
        "batch_wall_ms_p90": percentile(run.walls, 0.9) * 1e3,
    }
    return run, metrics, extras


# -- --trace 1 ----------------------------------------------------------------


def per_layer(name: str, seed: int, seconds: float, plan: Plan = FULL, span_path=None):
    """The traced pass.  Runs, in this order and in this process: an
    untraced reference pass of the workload (for the tracing overhead
    and to prove tracing changes no count), for ``allreduce_observed``
    an untraced ``allreduce_star`` pass (for ``obs.overhead_ratio``),
    then the traced pass on a fresh set-up under the timing wrappers.
    Returns (attempted, failed, consistent, metrics)."""
    cls = WORKLOADS[name]
    observed = name == "allreduce_observed"
    reference = run_batches(set_up(cls, seed, 1)[0], seconds * 0.3, plan)
    star = (
        run_batches(set_up(WORKLOADS["allreduce_star"], seed, 1)[0], seconds * 0.2, plan)
        if observed else None
    )
    recorder = SpanRecorder()
    collections = sum(s["collections"] for s in gc.get_stats())
    with instrumented(recorder):
        workload = set_up(cls, seed, 1)[0]
        if workload.net is not None:
            recorder.wrap_receivers(
                node for node in workload.net.nodes.values() if isinstance(node, HostNode)
            )
        traced = run_batches(
            workload, seconds * (0.5 if observed else 0.7), plan,
            recorder=recorder, max_batches=plan.traced_max,
        )
    collections = sum(s["collections"] for s in gc.get_stats()) - collections
    if span_path is not None:
        recorder.write_jsonl(span_path, SPAN_DUMP_BATCHES)

    # Tracing must not change what the program does: batch for batch,
    # virtual times and counts equal those of the untraced pass.
    shared = min(len(reference.deltas), len(traced.deltas))
    consistent = reference.deltas[:shared] == traced.deltas[:shared]

    own = recorder.self_times()
    spans = recorder.aggregate(own)
    fixed_spans = recorder.aggregate(own, last_batch=FIXED)
    batches = len(traced.walls)
    wall = spans[ROOT][2]
    totals = {key: sum(d[key] for d in traced.deltas[:FIXED]) for key in COUNTERS}
    fixed_ops = min(batches, FIXED) * workload.ops_per_batch

    def calls(*names):
        return sum(spans[n][0] for n in names if n in spans)

    def self_s(*names):
        return sum(spans[n][1] for n in names if n in spans)

    def mean(*names, scale=1e6):
        return self_s(*names) / calls(*names) * scale if calls(*names) else 0.0

    def fixed_calls(name):
        return fixed_spans[name][0] if name in fixed_spans else 0

    def share(layer):
        return sum(
            row[1] for n, row in spans.items() if n.split(".")[0] == layer
        ) / wall

    out_seams = ("runtime.out", "runtime.out_window")
    node_seams = ("net.node_pisa", "net.node_forward", "net.node_host")
    int_seams = ("obs.attach_tail", "obs.stamp_hop", "obs.strip_stack")
    events = sum(d["net.events"] for d in traced.deltas)
    metrics = {
        "sim_time_us": totals["sim_time_us"],
        "ncp.encode_us": mean("ncp.encode"),
        "ncp.decode_us": mean("ncp.decode"),
        "ncp.peek_us": mean("ncp.peek"),
        "ncp.encode_calls": fixed_calls("ncp.encode"),
        "ncp.decode_calls": fixed_calls("ncp.decode"),
        "ncp.peek_calls": fixed_calls("ncp.peek"),
        "ncp.wire_bytes_per_op": totals["net.link_bytes"] / fixed_ops,
        "ncp.share": share("ncp"),
        "pisa.parse_us": mean("pisa.parse"),
        "pisa.pipeline_us": mean("pisa.pipeline"),
        "pisa.deparse_us": mean("pisa.deparse"),
        "pisa.process_self_us": mean("pisa.process"),
        "pisa.packets": totals["pisa.packets"],
        "pisa.table_lookups": totals["pisa.table_lookups"],
        "pisa.table_hit_share": (
            totals["pisa.table_hits"] / totals["pisa.table_lookups"]
            if totals["pisa.table_lookups"] else 0.0
        ),
        "pisa.action_runs": totals["pisa.action_runs"],
        "pisa.register_ops": totals["pisa.register_ops"],
        "pisa.share": share("pisa"),
        "nir.interp_us": mean("nir.interp"),
        "nir.interp_runs": fixed_calls("nir.interp"),
        "nir.share": share("nir"),
        "runtime.out_us": mean(*out_seams),
        "runtime.rx_us": mean("runtime.rx"),
        "runtime.windows_sent": totals["runtime.windows_sent"],
        "runtime.windows_received": totals["runtime.windows_received"],
        "runtime.rx_drops": totals["runtime.rx_drops"],
        "runtime.share": share("runtime"),
        "net.dispatch_us_per_event": (
            self_s("net.dispatch") / events * 1e6 if events else 0.0
        ),
        "net.transmit_us": mean("net.transmit"),
        "net.node_us": mean(*node_seams),
        "net.events": totals["net.events"],
        "net.link_frames": totals["net.link_frames"],
        "net.link_bytes": totals["net.link_bytes"],
        "net.link_drops": totals["net.link_drops"],
        "net.share": share("net"),
        "obs.overhead_ratio": (
            quiet_wall(reference.walls) / quiet_wall(star.walls) if observed else 0.0
        ),
        "obs.int_us": mean(*int_seams),
        "obs.trace_events": totals["obs.trace_events"],
        "obs.int_records": totals["obs.int_records"],
        "obs.share": share("obs"),
        "nclc.compile_ms": mean("nclc.compile", scale=1e3),
        "nclc.artifact_ms": mean("nclc.to_json", "nclc.from_json", scale=1e3),
        "analysis.lint_ms": mean("analysis.lint", scale=1e3),
        # per program / per deployment: checks and report render together
        "analysis.proto_ms": (
            self_s("analysis.proto_checks", "analysis.proto_report")
            / calls("analysis.proto_checks") * 1e3
            if calls("analysis.proto_checks") else 0.0
        ),
        "analysis.deploy_ms": (
            self_s("analysis.deploy_checks", "analysis.deploy_report")
            / calls("analysis.deploy_checks") * 1e3
            if calls("analysis.deploy_checks") else 0.0
        ),
        "analysis.proto_states": totals["analysis.proto_states"],
        "nir.instrs_o2": totals["nir.instrs_o2"],
        "p4.tables": totals["p4.tables"],
        "p4.actions": totals["p4.actions"],
        "harness.batch_wall_ms_p90": percentile(traced.walls, 0.9) * 1e3,
        "harness.batches": batches,
        "harness.trace_overhead_ratio": (
            quiet_wall(traced.walls) / quiet_wall(reference.walls)
        ),
        "harness.attributed_share": 1.0 - spans[ROOT][1] / wall,
        "harness.gc_collections": collections,
    }
    # compile stages, from the public CompiledProgram.stage_times
    stage_names = {
        "ncl.frontend_ms": "frontend", "nir.irgen_ms": "irgen",
        "nir.host_opt_ms": "host-opt", "nir.switch_opt_ms": "switch-opt",
        "nclc.codegen_ms": "codegen+backend",
    }
    stage_s, compiles = workload.stage_s, workload.compiles
    for metric, stage in stage_names.items():
        metrics[metric] = stage_s.get(stage, 0.0) / compiles * 1e3 if compiles else 0.0
    if compiles:
        # stages are timed inside compile(), so over the same compiles
        # (warm-up included) they sum to most of, and never more than,
        # the spans wrapped around it
        checked = recorder.aggregate(own, first_batch=-plan.warmup)["nclc.compile"][2]
        consistent = consistent and 0.5 * checked <= sum(stage_s.values()) <= checked
    attempted = reference.attempted + traced.attempted + (star.attempted if star else 0)
    failed = reference.failed + traced.failed + (star.failed if star else 0)
    return attempted, failed, consistent, metrics
