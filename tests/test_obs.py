"""The observability layer: registry semantics, trace exporters,
end-to-end packet-path introspection, drop-cause accounting, and the
compiler's per-pass trace."""

from __future__ import annotations

import io
import itertools
import json
import time

import pytest

from repro.errors import RuntimeApiError, SimulationError
from repro.nclc import Compiler, WindowConfig
from repro.net.events import Simulator
from repro.net.network import FaultPlan, Network
from repro.obs import (
    NULL_OBS,
    CompileTrace,
    MetricsRegistry,
    Observability,
    ObservabilityError,
    Tracer,
    collect_network_metrics,
)

from tests.conftest import ALLREDUCE_DEFINES, ALLREDUCE_SRC, STAR_AND


# ---------------------------------------------------------------------------
# metrics registry
# ---------------------------------------------------------------------------


class TestRegistry:
    def test_counter_and_gauge_basics(self):
        reg = MetricsRegistry()
        c = reg.counter("c")
        c.inc()
        c.inc(4)
        g = reg.gauge("g")
        g.set(7)
        g.add(-2)
        snap = reg.snapshot()
        assert snap["c"]["series"][0]["value"] == 5
        assert snap["g"]["series"][0]["value"] == 5

    def test_counter_rejects_negative(self):
        reg = MetricsRegistry()
        with pytest.raises(ObservabilityError, match="only go up"):
            reg.counter("c").inc(-1)

    def test_labels_must_match_declaration(self):
        reg = MetricsRegistry()
        fam = reg.counter("link.bytes", labels=("link",))
        fam.labels(link="a<->b").inc(10)
        with pytest.raises(ObservabilityError, match="takes labels"):
            fam.labels(node="a")
        with pytest.raises(ObservabilityError, match="takes labels"):
            fam.labels(link="a<->b", cause="loss")
        with pytest.raises(ObservabilityError, match="takes labels"):
            fam.labels()

    def test_label_free_convenience_requires_label_free_family(self):
        reg = MetricsRegistry()
        fam = reg.counter("drops", labels=("cause",))
        with pytest.raises(ObservabilityError, match="use .labels"):
            fam.inc()

    def test_redeclaration_returns_same_family(self):
        reg = MetricsRegistry()
        a = reg.counter("n", labels=("x",))
        b = reg.counter("n", "other description", labels=("x",))
        assert a is b

    def test_kind_clash_raises(self):
        reg = MetricsRegistry()
        reg.counter("n")
        with pytest.raises(ObservabilityError, match="already declared"):
            reg.gauge("n")

    def test_label_clash_raises(self):
        reg = MetricsRegistry()
        reg.counter("n", labels=("a",))
        with pytest.raises(ObservabilityError, match="already declared"):
            reg.counter("n", labels=("a", "b"))

    def test_series_distinct_per_label_value(self):
        reg = MetricsRegistry()
        fam = reg.counter("hits", labels=("table",))
        fam.labels(table="t1").inc(3)
        fam.labels(table="t2").inc(5)
        series = reg.snapshot()["hits"]["series"]
        assert [(s["labels"]["table"], s["value"]) for s in series] == [
            ("t1", 3),
            ("t2", 5),
        ]

    def test_collector_runs_at_snapshot(self):
        reg = MetricsRegistry()
        calls = []

        def collector(r):
            calls.append(1)
            r.gauge("collected").set(len(calls))

        reg.register_collector(collector)
        assert reg.snapshot()["collected"]["series"][0]["value"] == 1
        assert reg.snapshot()["collected"]["series"][0]["value"] == 2

    def test_snapshot_sorted_and_json_stable(self):
        def build():
            reg = MetricsRegistry()
            reg.gauge("z.last").set(1)
            reg.counter("a.first", labels=("k",)).labels(k="v").inc()
            reg.histogram("m.mid").observe(2.5)
            return json.dumps(reg.snapshot(), sort_keys=True)

        one, two = build(), build()
        assert one == two
        assert list(json.loads(one)) == ["a.first", "m.mid", "z.last"]


class TestCardinalityCaps:
    def test_over_cap_keys_collapse_into_overflow_series(self):
        from repro.obs import OVERFLOW_LABEL

        reg = MetricsRegistry()
        fam = reg.counter("link.bytes", labels=("link",), max_series=2)
        fam.labels(link="a").inc(1)
        fam.labels(link="b").inc(2)
        fam.labels(link="c").inc(4)  # over the cap
        fam.labels(link="d").inc(8)  # also routed
        assert fam.series_count() == 3  # a, b, __overflow__
        snap = reg.snapshot()["link.bytes"]
        values = {s["labels"]["link"]: s["value"] for s in snap["series"]}
        assert values == {"a": 1, "b": 2, OVERFLOW_LABEL: 12}
        assert snap["overflow_routed"] == 2  # distinct collapsed keys

    def test_existing_series_keep_updating_past_the_cap(self):
        reg = MetricsRegistry()
        fam = reg.counter("hits", labels=("t",), max_series=1)
        fam.labels(t="hot").inc()
        fam.labels(t="cold").inc()  # routed
        fam.labels(t="hot").inc()  # pre-existing: updates in place
        snap = reg.snapshot()["hits"]
        values = {s["labels"]["t"]: s["value"] for s in snap["series"]}
        assert values["hot"] == 2

    def test_overflow_routed_absent_when_cap_never_bites(self):
        reg = MetricsRegistry()
        fam = reg.counter("hits", labels=("t",), max_series=10)
        fam.labels(t="a").inc()
        assert "overflow_routed" not in reg.snapshot()["hits"]

    def test_registry_wide_default_and_per_family_override(self):
        reg = MetricsRegistry(max_series_per_family=1)
        capped = reg.counter("capped", labels=("k",))
        roomy = reg.counter("roomy", labels=("k",), max_series=10)
        for key in ("a", "b", "c"):
            capped.labels(k=key).inc()
            roomy.labels(k=key).inc()
        assert capped.series_count() == 2  # one real + overflow
        assert roomy.series_count() == 3
        assert reg.total_series() == 5

    def test_label_free_families_never_overflow(self):
        reg = MetricsRegistry(max_series_per_family=1)
        fam = reg.counter("plain")
        fam.inc(5)
        assert reg.snapshot()["plain"]["series"][0]["value"] == 5
        assert "overflow_routed" not in reg.snapshot()["plain"]


class TestHistogram:
    def test_percentiles_linear_interpolation(self):
        reg = MetricsRegistry()
        h = reg.histogram("h")
        for v in range(1, 101):
            h.observe(v)
        series = h.labels()
        assert series.percentile(0) == 1
        assert series.percentile(100) == 100
        assert series.percentile(50) == pytest.approx(50.5)
        assert series.percentile(90) == pytest.approx(90.1)
        assert series.percentile(99) == pytest.approx(99.01)

    def test_percentile_edge_cases(self):
        reg = MetricsRegistry()
        h = reg.histogram("h")
        series = h.labels()
        with pytest.raises(ObservabilityError, match="empty"):
            series.percentile(50)
        h.observe(42)
        assert series.percentile(99) == 42.0
        with pytest.raises(ObservabilityError, match="outside"):
            series.percentile(101)

    def test_percentile_extremes_short_circuit(self):
        """p=0 and p=100 must hit the exact min/max with no interpolation
        arithmetic, for any sample count; empty raises for every p."""
        reg = MetricsRegistry()
        h = reg.histogram("h")
        series = h.labels()
        for p in (0, 50, 100):
            with pytest.raises(ObservabilityError, match="empty"):
                series.percentile(p)
        for v in (7.5, -3.0, 12.25, 0.0):
            h.observe(v)
        assert series.percentile(0) == -3.0
        assert series.percentile(100) == 12.25
        with pytest.raises(ObservabilityError, match="outside"):
            series.percentile(-0.5)

    def test_bucket_counts_cumulative(self):
        reg = MetricsRegistry()
        h = reg.histogram("h", buckets=(10, 100))
        for v in (1, 5, 10, 50, 5000):
            h.observe(v)
        buckets = h.labels().bucket_counts()
        assert buckets == {"10": 3, "100": 4, "+Inf": 5}

    def test_memory_follows_distinct_values_not_observations(self):
        """10^5 observations of 8 distinct values hold 8 entries, and every
        statistic equals the one computed from the full sorted sample."""
        import math

        distinct = (2e-6, 1e-6, 5.5e-6, 3e-6, 1e-3, 7, 2.5e-6, 0.0)
        reg = MetricsRegistry()
        h = reg.histogram("h")
        sample, total = [], 0.0
        for n in range(100_000):
            value = distinct[(n * n) % 8 if n % 3 else n % 8]
            h.observe(value)
            sample.append(value)
            total += value
        series = h.labels()
        assert len(series.counts) == 8
        assert series.count == len(sample) and series.total == total
        ordered = sorted(sample)
        for p in (0, 0.001, 12.5, 50, 90, 99, 99.999, 100):
            rank = (p / 100.0) * (len(ordered) - 1)
            lo, hi = math.floor(rank), min(math.ceil(rank), len(ordered) - 1)
            want = ordered[lo] * (1 - (rank - lo)) + ordered[hi] * (rank - lo)
            if p in (0, 100) or lo == hi:
                want = ordered[hi] if p else ordered[0]
            assert series.percentile(p) == float(want)
        buckets = series.bucket_counts()
        for bound in series.buckets:
            assert buckets[repr(bound)] == sum(v <= bound for v in ordered)
        assert buckets["+Inf"] == len(ordered)

    def test_summary_in_snapshot(self):
        reg = MetricsRegistry()
        reg.histogram("h", buckets=(1.0,)).observe(0.5)
        value = reg.snapshot()["h"]["series"][0]["value"]
        assert value["count"] == 1
        assert value["sum"] == 0.5
        assert value["p50"] == 0.5


# ---------------------------------------------------------------------------
# tracer + exporters
# ---------------------------------------------------------------------------


def small_trace() -> Tracer:
    t = Tracer()
    t.span("serialize", 1e-6, 2e-6, track="link a<->b", cat="link",
           args={"bytes": 64})
    t.instant("drop", 2e-6, track="link a<->b", cat="link",
              args={"cause": "loss"})
    t.span("deliver", 5e-6, 1e-6, track="host b", cat="host")
    return t


class TestTracer:
    def test_queries(self):
        t = small_trace()
        assert len(t) == 3
        assert [e.name for e in t.on_track("link a<->b")] == ["serialize", "drop"]
        assert len(t.named("deliver")) == 1
        assert t.tracks() == ["link a<->b", "host b"]

    def test_jsonl_one_valid_object_per_line(self):
        buf = io.StringIO()
        small_trace().write_jsonl(buf)
        lines = buf.getvalue().splitlines()
        assert len(lines) == 3
        objs = [json.loads(line) for line in lines]
        assert objs[0]["name"] == "serialize"
        assert objs[0]["dur"] == 2e-6
        assert "dur" not in objs[1]
        assert objs[1]["args"] == {"cause": "loss"}

    def test_timeline_human_readable(self):
        text = small_trace().timeline()
        assert "serialize" in text
        assert "cause=loss" in text
        assert text.index("serialize") < text.index("deliver")  # time order
        assert len(small_trace().timeline(limit=1).splitlines()) == 1

    def test_chrome_round_trip(self):
        buf = io.StringIO()
        small_trace().write_chrome(buf)
        doc = json.loads(buf.getvalue())
        events = doc["traceEvents"]
        meta = [e for e in events if e["ph"] == "M"]
        names = {e["args"]["name"] for e in meta if e["name"] == "thread_name"}
        assert names == {"link a<->b", "host b"}
        spans = [e for e in events if e["ph"] == "X"]
        instants = [e for e in events if e["ph"] == "i"]
        assert {e["name"] for e in spans} == {"serialize", "deliver"}
        assert spans[0]["ts"] == 1.0 and spans[0]["dur"] == 2.0  # microseconds
        assert instants[0]["s"] == "t"
        # deterministic tids: first-appearance order
        tid_of = {e["args"]["name"]: e["tid"] for e in meta
                  if e["name"] == "thread_name"}
        assert tid_of["link a<->b"] == 1
        assert tid_of["host b"] == 2


# ---------------------------------------------------------------------------
# the disabled fast path
# ---------------------------------------------------------------------------


class TestDisabledPath:
    def test_default_simulator_obs_is_null(self):
        sim = Simulator()
        assert sim.obs is NULL_OBS
        assert not sim.obs.enabled
        assert sim.obs.snapshot() == {}

    def test_untraced_network_stays_on_null_obs(self):
        net = Network()
        assert net.sim.obs is NULL_OBS
        a, b = net.add_host("a"), net.add_host("b")
        net.add_link("a", "b")
        net.compute_routes()
        b.receiver = lambda data: None
        a.transmit(b"x" * 100, b.node_id)
        net.run()
        # stats still accumulate; no tracer exists to accumulate events
        assert net.links[0].stats.frames == 1
        assert NULL_OBS.tracer is None

    def test_disabled_check_is_near_free(self):
        """The instrumentation-site pattern (attr load + branch) must be
        in the tens-of-nanoseconds range; assert a very generous bound so
        the test never flakes on slow CI."""
        sim = Simulator()
        n = 100_000
        t0 = time.perf_counter()
        for _ in range(n):
            obs = sim.obs
            if obs.enabled:
                raise AssertionError("NULL_OBS must be disabled")
        per_call = (time.perf_counter() - t0) / n
        assert per_call < 5e-6  # 5 us; real cost is ~50 ns

    def test_enabled_flag_routes_instrumentation(self):
        assert Observability().enabled is True
        assert NULL_OBS.enabled is False

    def test_int_off_guard_is_near_free(self):
        """With INT off, the per-frame cost at each hook site is one
        ``carries_int`` call: a length check plus three fixed-offset byte
        tests, about 190 ns. The bar is that absolute cost (< 1 us a
        call), not a share of an AllReduce round: the round got 15x
        faster under an unchanged guard, so a share would fail without
        the guard having changed (ROADMAP 4(c))."""
        from repro.ncp.wire import ChunkLayout, KernelLayout, encode_frame
        from repro.obs.int import carries_int

        layout = KernelLayout(1, "k", [ChunkLayout("d", 8, 32, False)])
        frame = encode_frame(layout, 0, 1, 0, [list(range(8))])
        n = 50_000
        best = float("inf")
        for _ in range(3):
            t0 = time.perf_counter()
            for _ in range(n):
                carries_int(frame)
            best = min(best, (time.perf_counter() - t0) / n)
        assert best < 1e-6


# ---------------------------------------------------------------------------
# link drop causes + node_by_id (net-layer satellites)
# ---------------------------------------------------------------------------


def traced_two_hosts(loss=0.0, **link_kwargs):
    obs = Observability()
    net = Network(obs=obs)
    a = net.add_host("a")
    b = net.add_host("b")
    net.add_link("a", "b", **link_kwargs)
    net.compute_routes()
    net.inject(FaultPlan(loss=loss, seed=1))
    b.receiver = lambda data: None
    return net, a, b, obs


class TestDropCauses:
    def test_loss_drop_counted_and_traced(self):
        net, a, b, obs = traced_two_hosts(loss=1.0)
        a.transmit(b"x" * 10, b.node_id)
        net.run()
        stats = net.links[0].stats
        assert stats.drops_loss == 1
        assert stats.drops_overflow == 0
        assert stats.drops == 1  # backward-compatible sum
        drops = obs.tracer.named("drop")
        assert len(drops) == 1
        assert drops[0].args["cause"] == "loss"

    def test_overflow_drop_counted_and_traced(self):
        # 8 Mbit/s = 1 byte/us; a 1000 B frame occupies the queue for
        # 1 ms, so a burst overflows a 1500 B egress buffer.
        net, a, b, obs = traced_two_hosts(
            bandwidth=8e6, queue_limit_bytes=1500
        )
        for _ in range(4):
            a.transmit(b"y" * 1000, b.node_id)
        net.run()
        stats = net.links[0].stats
        assert stats.drops_overflow > 0
        assert stats.drops_loss == 0
        assert stats.frames + stats.drops_overflow == 4
        drop = obs.tracer.named("drop")[0]
        assert drop.args["cause"] == "overflow"
        assert drop.args["backlog_bytes"] > 0

    def test_no_limit_means_no_overflow(self):
        net, a, b, _ = traced_two_hosts(bandwidth=8e6)
        for _ in range(4):
            a.transmit(b"y" * 1000, b.node_id)
        net.run()
        assert net.links[0].stats.drops == 0
        assert net.links[0].stats.frames == 4

    def test_drop_causes_in_registry_snapshot(self):
        net, a, b, obs = traced_two_hosts(loss=1.0)
        a.transmit(b"x" * 10, b.node_id)
        net.run()
        snap = obs.snapshot()
        series = {
            (s["labels"]["link"], s["labels"]["cause"]): s["value"]
            for s in snap["link.drops"]["series"]
        }
        assert series[("a<->b", "loss")] == 1
        assert series[("a<->b", "overflow")] == 0


class TestNodeById:
    def test_lookup_and_unknown(self):
        net = Network()
        a = net.add_host("a")
        b = net.add_host("b", node_id=17)
        assert net.node_by_id(a.node_id) is a
        assert net.node_by_id(17) is b
        with pytest.raises(SimulationError, match="no node with id"):
            net.node_by_id(99)

    def test_duplicate_id_rejected(self):
        net = Network()
        net.add_host("a", node_id=3)
        with pytest.raises(SimulationError, match="duplicate node id"):
            net.add_host("b", node_id=3)


# ---------------------------------------------------------------------------
# end-to-end: traced AllReduce (packet-path introspection + determinism)
# ---------------------------------------------------------------------------


def run_traced_allreduce():
    from repro.apps.allreduce import AllReduceJob

    obs = Observability()
    job = AllReduceJob(2, 16, 4, obs=obs)
    arrays = [[i for i in range(16)], [2 * i for i in range(16)]]
    results, elapsed = job.run_round(arrays)
    assert results[0] == AllReduceJob.expected(arrays)
    return job, obs


@pytest.fixture(scope="module")
def traced_allreduce():
    return run_traced_allreduce()


class TestTracedAllReduce:
    def test_tracks_cover_every_layer(self, traced_allreduce):
        _, obs = traced_allreduce
        tracks = obs.tracer.tracks()
        assert "host w0" in tracks
        assert "host w1" in tracks
        assert "switch s1" in tracks
        assert any(t.startswith("link ") for t in tracks)

    def test_switch_spans_tile_pipeline_delay(self, traced_allreduce):
        from repro.net.pisanode import PisaSwitchNode

        _, obs = traced_allreduce
        sw = obs.tracer.on_track("switch s1")
        spans = [e for e in sw if e.dur is not None]
        verdicts = [e for e in sw if e.name == "verdict"]
        assert any(e.name == "parse:parser" for e in spans)
        assert any(e.name.startswith("action:") for e in spans)
        assert verdicts and all(
            e.args["verdict"] in ("drop", "bcast", "pass", "reflect")
            for e in verdicts
        )
        # per packet, the sub-spans tile DELAY exactly
        per_packet = sum(e.dur for e in spans) / len(verdicts)
        assert per_packet == pytest.approx(PisaSwitchNode.DELAY)

    def test_events_carry_ncp_window_identity(self, traced_allreduce):
        _, obs = traced_allreduce
        serializes = obs.tracer.named("serialize")
        tagged = [e for e in serializes if "kernel" in e.args]
        assert tagged, "NCP frames should be annotated on the wire"
        # the link layer has no kernel layouts, so it tags the raw id
        assert {e.args["kernel"] for e in tagged} == {1}  # allreduce
        assert {e.args["seq"] for e in tagged} == {0, 1, 2, 3}
        assert all("from" in e.args for e in tagged)

    def test_window_lifecycle_counters(self, traced_allreduce):
        _, obs = traced_allreduce
        snap = obs.snapshot()
        windows = {
            (s["labels"]["host"], s["labels"]["kernel"], s["labels"]["event"]):
                s["value"]
            for s in snap["ncp.windows"]["series"]
        }
        # 16 elems / window of 4 = 4 windows per worker, opened and flushed
        assert windows[("w0", "allreduce", "open")] == 4
        assert windows[("w0", "allreduce", "flush")] == 4
        # each worker receives every broadcast window back (counted under
        # the outgoing kernel whose id the frame carries)
        assert windows[("w1", "allreduce", "recv")] == 4

    def test_switch_pipeline_metrics(self, traced_allreduce):
        _, obs = traced_allreduce
        snap = obs.snapshot()
        pkts = snap["switch.packets"]["series"][0]
        assert pkts["labels"]["switch"] == "s1"
        assert pkts["value"] == 8  # 2 workers * 4 windows
        phv = snap["switch.phv_fields"]["series"][0]["value"]
        assert phv["count"] == 8
        assert phv["min"] > 0

    def test_trace_and_snapshot_deterministic(self):
        """Two identical runs export byte-identical artifacts."""
        outputs = []
        for _ in range(2):
            _, obs = run_traced_allreduce()
            chrome = io.StringIO()
            obs.tracer.write_chrome(chrome)
            jsonl = io.StringIO()
            obs.tracer.write_jsonl(jsonl)
            snap = json.dumps(obs.snapshot(), sort_keys=True)
            outputs.append((chrome.getvalue(), jsonl.getvalue(), snap))
        assert outputs[0] == outputs[1]

    def test_lossy_run_shows_loss_drops_in_snapshot(self):
        """Regression: a lossy deployment is distinguishable from a
        congested one -- its drops carry cause=loss."""
        from repro.apps.allreduce import AllReduceJob

        obs = Observability()
        job = AllReduceJob(2, 16, 4, obs=obs)
        job.cluster.network.inject(FaultPlan(loss=1.0))
        with pytest.raises(RuntimeApiError, match="did not complete"):
            job.run_round([[1] * 16, [2] * 16])
        snap = obs.snapshot()
        loss_drops = sum(
            s["value"]
            for s in snap["link.drops"]["series"]
            if s["labels"]["cause"] == "loss"
        )
        overflow_drops = sum(
            s["value"]
            for s in snap["link.drops"]["series"]
            if s["labels"]["cause"] == "overflow"
        )
        assert loss_drops > 0
        assert overflow_drops == 0


class TestTableSpans:
    def test_pass_verdict_hits_route_table(self):
        """A plain forwarded frame exercises ipv4_route: the per-stage
        trace shows the table hit and the registry counts it."""
        from repro.runtime import Cluster

        src = (
            "_net_ unsigned seen[1] = {0};\n"
            "_net_ _out_ void probe(unsigned *d) { seen[0] += d[0]; }\n"
        )
        program = Compiler().compile(
            src, windows={"probe": WindowConfig(mask=(1,))}
        )
        obs = Observability()
        cluster = Cluster.from_program(program, obs=obs)
        cluster.host("h0").out("probe", [[1]], dst="h1")
        cluster.run()
        tables = [
            e for e in obs.tracer.on_track("switch s1")
            if e.name.startswith("table:")
        ]
        assert any(e.name == "table:ipv4_route" for e in tables)
        assert any(e.args.get("detail", "").startswith("hit:") for e in tables)
        snap = obs.snapshot()
        hits = {
            s["labels"]["table"]: s["value"]
            for s in snap["switch.table_hits"]["series"]
        }
        assert hits.get("ipv4_route", 0) >= 1


# ---------------------------------------------------------------------------
# compiler instrumentation
# ---------------------------------------------------------------------------


def fake_clock():
    counter = itertools.count()
    return lambda: next(counter) * 0.001  # 1 ms per tick


class TestCompileTrace:
    def compile_traced(self):
        trace = CompileTrace(clock=fake_clock())
        Compiler().compile(
            ALLREDUCE_SRC,
            and_text=STAR_AND,
            windows={"allreduce": WindowConfig(mask=(4,), ext={"len": 4})},
            defines=ALLREDUCE_DEFINES,
            trace=trace,
        )
        return trace

    def test_stages_recorded_in_order(self):
        trace = self.compile_traced()
        names = [r["stage"] for r in trace.stages]
        assert names[:5] == [
            "frontend", "irgen", "conformance", "host-opt", "versioning"
        ]
        assert "switch-opt" in names and "codegen+backend" in names
        # fake clock: every stage's wall time is an exact tick multiple
        assert all(r["wall_s"] > 0 for r in trace.stages)
        assert trace.stage_times()["frontend"] == pytest.approx(0.001)

    def test_passes_record_ir_deltas(self):
        trace = self.compile_traced()
        assert trace.passes, "per-pass records expected"
        for rec in trace.passes:
            assert rec["ir_before"] >= 0 and rec["ir_after"] >= 0
            assert rec["wall_s"] == pytest.approx(0.001)
        unrolls = [r for r in trace.passes
                   if r["pass"] == "unroll" and r["stage"] == "s1"]
        assert unrolls and any(
            r["ir_after"] > r["ir_before"] for r in unrolls
        ), "full unroll must grow the switch IR"
        host = [r for r in trace.passes if r["stage"] == "host"]
        assert {r["pass"] for r in host} >= {"inline", "mem2reg", "dce"}

    def test_deterministic_with_fake_clock(self):
        one = json.dumps(self.compile_traced().as_dict(), sort_keys=True)
        two = json.dumps(self.compile_traced().as_dict(), sort_keys=True)
        assert one == two

    def test_reports(self):
        trace = self.compile_traced()
        table = trace.format_table()
        assert "== compile stages ==" in table
        assert "unroll" in table
        buf = io.StringIO()
        trace.write_chrome(buf)
        doc = json.loads(buf.getvalue())
        spans = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert any(e["name"] == "frontend" for e in spans)
        assert any(e["name"].startswith("unroll:") for e in spans)

    def test_compiled_program_carries_trace(self):
        trace = CompileTrace(clock=fake_clock())
        program = Compiler().compile(
            ALLREDUCE_SRC,
            and_text=STAR_AND,
            windows={"allreduce": WindowConfig(mask=(4,), ext={"len": 4})},
            defines=ALLREDUCE_DEFINES,
            trace=trace,
        )
        assert program.compile_trace is trace
        # coarse per-stage wall times are always collected, trace or not
        assert set(program.stage_times) >= {"frontend", "switch-opt"}


class TestNclcCli:
    def test_timing_and_trace_out(self, tmp_path, capsys):
        from repro.nclc.__main__ import main

        src = tmp_path / "allreduce.ncl"
        src.write_text(ALLREDUCE_SRC)
        and_file = tmp_path / "star.and"
        and_file.write_text(STAR_AND)
        trace_file = tmp_path / "compile.trace.json"
        rc = main([
            str(src), "--and", str(and_file), "-o", str(tmp_path / "build"),
            "-D", "DATA_LEN=64", "-D", "WIN_LEN=4",
            "--window", "allreduce=4", "--ext", "len=4",
            "--timing", "--trace-out", str(trace_file),
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "== compile stages ==" in out
        assert "ACCEPTED" in out
        doc = json.loads(trace_file.read_text())
        assert any(e.get("ph") == "X" for e in doc["traceEvents"])
        report = json.loads(
            (tmp_path / "build" / "s1.report.json").read_text()
        )
        assert "stages" in report["timing"]
        assert any(p["pass"] == "unroll" for p in report["timing"]["passes"])


# ---------------------------------------------------------------------------
# post-hoc snapshots (the benchmark path)
# ---------------------------------------------------------------------------


class TestPostHocSnapshot:
    def test_untraced_network_snapshot(self):
        """collect_network_metrics works on a finished, untraced network
        -- how benchmarks attach per-layer breakdowns without paying for
        tracing in the timed region."""
        net = Network()
        a = net.add_host("a")
        b = net.add_host("b")
        net.add_link("a", "b")
        net.compute_routes()
        b.receiver = lambda data: None
        a.transmit(b"x" * 100, b.node_id)
        net.run()
        reg = MetricsRegistry()
        collect_network_metrics(net, reg)
        snap = reg.snapshot()
        assert snap["link.bytes"]["series"][0]["value"] == 100
        rx = {
            s["labels"]["node"]: s["value"]
            for s in snap["node.rx_frames"]["series"]
        }
        assert rx == {"a": 0, "b": 1}
        assert snap["sim.events_processed"]["series"][0]["value"] > 0
