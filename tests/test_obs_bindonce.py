"""The observer bound once per component: what it records is pinned
against the commit before the change (not against itself), what it
costs is pinned as a call count, and a swapped observer gets every
later count."""

from __future__ import annotations

import hashlib
import io
import json
import os
import random
import sys
from collections import deque
from pathlib import Path

import repro
from repro.apps.allreduce import AllReduceJob
from repro.obs import (
    FlightRecorder,
    IntConfig,
    MetricsRegistry,
    Observability,
    Profiler,
    TraceSampler,
    Tracer,
)
from repro.obs.lineage import LineageIndex
from repro.obs.registry import BoundSeries, FamilySpec

GOLDEN = Path(__file__).resolve().parent / "golden" / "obs_allreduce_observed.json"


def fig4_arrays(rng, n_workers=4, data_len=256):
    return [
        [rng.randrange(-2**31, 2**31) for _ in range(data_len)]
        for _ in range(n_workers)
    ]


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


class TestGoldenAgainstTheParent:
    def test_trace_registry_and_lineage_digests(self):
        """Two rounds of the bench's Fig 4 job under a tracer and INT.
        The digests were taken at 1d9c0c5, before the observer's hot path
        was rewritten: same events, same args, same series, byte for
        byte. The trace and registry digests were re-captured on top of
        the commit named in the golden file, when a hop became one
        scheduler event: the 3 504 events are the same but recorded in
        another order (148 ``deliver`` spans start one ulp off, read as
        ``now - DELAY``), and ``sim.events_processed`` went from 1 024 to
        512; the lineage digest is the one taken at 1d9c0c5. The registry
        digest was re-taken on top of 35329d4 when the snapshot gained
        the ``link.qdepth_bytes`` family; without it the snapshot hashes
        to the digest before."""
        golden = json.loads(GOLDEN.read_text())
        obs = Observability(tracer=Tracer(), int_config=IntConfig(max_hops=8))
        job = AllReduceJob(4, 256, 8, multiround=True, obs=obs)
        rng = random.Random(18)
        for _ in range(2):
            arrays = fig4_arrays(rng)
            results, _ = job.run_round(arrays)
            assert results[0] == AllReduceJob.expected(arrays)
        trace = io.StringIO()
        obs.tracer.write_jsonl(trace)
        lineage = io.StringIO()
        LineageIndex.from_events(obs.tracer.events).write_json(lineage)
        assert obs.tracer.events_recorded == golden["events"] == 3504
        assert sha256(trace.getvalue()) == golden["trace_jsonl"]
        assert (
            sha256(json.dumps(obs.snapshot(), sort_keys=True))
            == golden["registry_snapshot"]
        )
        assert sha256(lineage.getvalue()) == golden["lineage_json"]


SRC = os.path.dirname(repro.__file__)
#: code objects CPython 3.12 no longer calls (PEP 709 inlines them)
COMPREHENSIONS = frozenset({"<listcomp>", "<dictcomp>", "<setcomp>"})


def batch_calls(obs) -> int:
    """Calls of functions defined under ``src/repro`` in one warmed
    Fig 4 batch -- the count ``tests/test_toolchain_pins.py::sweep_calls``
    takes: builtins, the standard library, the lowered executors'
    generated code and comprehension bodies are left out, because what
    they add differs between the CI matrix's CPythons."""
    job = AllReduceJob(4, 256, 8, multiround=True, obs=obs)
    arrays = fig4_arrays(random.Random(7))
    for _ in range(2):  # lazy lowering, first-use series, a full ring
        job.run_round(arrays)
    calls = 0

    def on_event(frame, event, arg):
        nonlocal calls
        if event == "call":
            code = frame.f_code
            if code.co_filename.startswith(SRC) and code.co_name not in COMPREHENSIONS:
                calls += 1

    sys.setprofile(on_event)
    try:
        job.run_round(arrays)
    finally:
        sys.setprofile(None)
    return calls


#: a quiet batch read 7 681 with the calendar-wheel scheduler and reads
#: 6 871 on one binary heap; the bar pins that saving
QUIET_CALLS_MAX = 7_500
OBSERVER_ADDS_MAX = 9_500


class TestObserverCallBudget:
    """Deterministic stand-ins for the bench's wall-time rows: calls do
    not depend on the machine, and -- counted as ``batch_calls`` counts
    them -- not on the interpreter either. Both bars are absolute. A
    ratio ``observed / quiet`` (what this class asserted before, <= 2.0,
    and what ``obs.overhead_ratio`` reports) has a denominator every
    data-path PR shrinks: the PR that moved the host's leg of the trip to
    one header ``struct`` call and a lazy deparse took 6.4k calls off
    the quiet batch and 5.0k off the observed one, so the observed batch
    got cheaper while the ratio rose from 1.75 to 2.01, and
    ``obs.overhead_ratio`` rose with it (2.1-2.3 to about 2.6).

    Both pins, in both counts (cProfile's ``total_calls`` on CPython
    3.11, which the bars were stated in until this commit, counts
    builtins, C methods and comprehension bodies too):

    ==================  ========================  =====================
    a warmed batch      cb58053 (the parent)      this commit
    ==================  ========================  =====================
    quiet               8 890  (cProfile 23 428)  8 890  (23 428)
    observed - quiet    12 951 (cProfile 23 639)  8 799  (16 991)
    ==================  ========================  =====================

    (The two tests keep the names they had while the bars were 25k of
    cProfile's calls each; the bars are ``OBSERVER_ADDS_MAX`` and
    ``QUIET_CALLS_MAX``, in this repo's own calls.)
    """

    def test_the_observer_adds_at_most_25k_calls_to_a_batch(self):
        """What watching costs, stated as what it adds: the bench's
        observed configuration (ring tracer, INT, profiler) makes 8 799
        calls more than a quiet batch (17 689 against 8 890). At the
        parent it added 12 951, which this bar refuses: every event was
        an object with its args dict built as it was recorded, and each
        of the 96 windows a batch aggregates away was deparsed, stamped
        and decoded again to say where it ended. (In cProfile's count:
        46.3k before the observer was bound once per component, 23.6k
        after, 17.0k now.)"""
        quiet = batch_calls(None)
        observed = batch_calls(
            Observability(
                tracer=Tracer(retain=4096),
                int_config=IntConfig(max_hops=8),
                profiler=Profiler(),
            )
        )
        assert observed - quiet <= OBSERVER_ADDS_MAX, (observed, quiet)

    def test_a_quiet_batch_makes_at_most_25k_calls(self):
        """The mirror pin for the data path itself: 128 window trips
        read 6 871 calls of this repo's functions (8 890 when the bar
        was set at 9 500; cProfile: 23.4k then, and 29.8k while the
        headers went through a dict and every dropped packet through the
        deparser)."""
        assert batch_calls(None) <= QUIET_CALLS_MAX


# -- the registry helper ----------------------------------------------------------

HITS = FamilySpec("counter", "t.hits", "hits, by who and what", ("who", "what"))
SIZES = FamilySpec("histogram", "t.sizes", "sizes", ("who",), (1, 10, 100))


class TestBoundSeries:
    def test_a_miss_declares_the_family_and_binds_the_child(self):
        registry = MetricsRegistry()
        series = BoundSeries()
        series[registry, HITS, "a", "x"].inc()
        series[registry, HITS, "a", "x"].inc(2)
        series[registry, HITS, "a", 7].inc()  # label values are str()ed once
        series[registry, SIZES, "a"].observe(5)
        assert len(series) == 3
        family = registry.get("t.hits")
        assert (family.kind, family.description, family.label_names) == (
            "counter", "hits, by who and what", ("who", "what"))
        assert series[registry, HITS, "a", "x"] is family.labels(who="a", what="x")
        assert family.labels(who="a", what="x").value == 3
        assert family.labels(who="a", what="7").value == 1
        assert registry.get("t.sizes").buckets == (1, 10, 100)
        assert registry.get("t.sizes").labels(who="a").count == 1

    def test_a_new_registry_gets_fresh_children_and_the_old_ones_go(self):
        old, new = MetricsRegistry(), MetricsRegistry()
        series = BoundSeries()
        series[old, HITS, "a", "x"].inc()
        series[old, HITS, "a", "y"].inc()
        series[new, HITS, "a", "x"].inc(5)
        assert all(key[0] is new for key in series) and len(series) == 1
        assert old.get("t.hits").labels(who="a", what="x").value == 1
        assert new.get("t.hits").labels(who="a", what="x").value == 5

    def test_cardinality_cap_still_routes_to_overflow(self):
        registry = MetricsRegistry(max_series_per_family=1)
        series = BoundSeries()
        series[registry, HITS, "a", "x"].inc()
        series[registry, HITS, "b", "x"].inc()
        series[registry, HITS, "b", "x"].inc()
        family = registry.get("t.hits")
        assert family.overflow_routed == 1
        assert family.labels(who="b", what="x").value == 2  # the overflow series


class TestObserverSwappedMidRun:
    def test_every_later_count_lands_in_the_new_registry(self):
        """``sim.obs`` is a plain attribute that tests assign to. A
        component that kept a child of the first registry would go on
        counting there in silence."""
        first = Observability(int_config=IntConfig(max_hops=8))
        job = AllReduceJob(2, 16, 4, multiround=True, obs=first)
        arrays = [[1] * 16, [2] * 16]
        job.run_round(arrays)
        before = json.dumps(first.snapshot(), sort_keys=True)

        second = Observability(int_config=IntConfig(max_hops=8))
        job.cluster.network.sim.obs = second
        job.run_round(arrays)

        def by_name(obs, name):
            family = obs.registry.get(name)
            return {
                tuple(s["labels"].values()): s["value"]
                for s in family.snapshot()["series"]
            }

        for obs in (first, second):
            # one round each: 4 windows a worker opened, flushed, received
            assert by_name(obs, "ncp.windows") == {
                (w, "allreduce", event): 4
                for w in ("w0", "w1") for event in ("open", "flush", "recv")
            }
            assert by_name(obs, "int.stacks") == {("w0",): 4, ("w1",): 4}
            assert by_name(obs, "int.records") == {("w0",): 4, ("w1",): 4}
            assert by_name(obs, "int.hop_latency_ns")[("2",)]["count"] == 8
            assert by_name(obs, "switch.phv_fields")[("s1",)]["count"] == 8
            assert obs.tracer.events_recorded == first.tracer.events_recorded
        # nothing of the second round leaked back into the first
        families = ("ncp.windows", "int.stacks", "int.records",
                    "int.hop_latency_ns", "switch.phv_fields")
        was = json.loads(before)
        now = first.registry
        for name in families:
            assert now.get(name).snapshot() == was[name]


# -- the trace ring ----------------------------------------------------------------


def fill(tracer, n, start=0):
    for i in range(start, start + n):
        tracer.instant("x", i * 1e-6, "t", args={"i": i})


class TestTraceRing:
    def test_bounded_retain_is_a_ring(self):
        tracer = Tracer(retain=3)
        assert isinstance(tracer.events, deque) and tracer.events.maxlen == 3
        fill(tracer, 10)
        assert [e.args["i"] for e in tracer.events] == [7, 8, 9]
        assert isinstance(Tracer().events, list)
        assert Tracer(retain=False).events.maxlen == 0

    def test_in_order_run_past_the_cap_stays_on_the_sort_free_path(self):
        """At the parent every trim cleared ``_monotonic``, so past the
        cap each ``ordered_events()`` / ``timeline()`` / ``chrome_dict()``
        sorted the whole ring for nothing: dropping a prefix of a
        time-ordered list cannot break its order."""
        tracer = Tracer(retain=4)
        fill(tracer, 50)
        assert tracer.ordered_events() is tracer.events
        assert len(tracer.timeline().splitlines()) == 4
        assert len(tracer.timeline(limit=2).splitlines()) == 2
        assert "47.000us" in tracer.timeline(limit=2).splitlines()[1]
        chrome = [e for e in tracer.chrome_dict()["traceEvents"] if e["ph"] == "i"]
        assert [e["args"]["i"] for e in chrome] == [46, 47, 48, 49]

    def test_one_late_event_is_what_costs_the_sort(self):
        tracer = Tracer(retain=4)
        fill(tracer, 6)
        tracer.instant("late", 3.5e-6, "t")
        ordered = tracer.ordered_events()
        assert ordered is not tracer.events
        assert [e.name for e in tracer.events] == ["x", "x", "x", "late"]
        assert [e.ts for e in ordered] == sorted(e.ts for e in tracer.events)
        assert [e.name for e in ordered] == ["x", "late", "x", "x"]

    def test_a_promotion_that_flushes_late_is_noticed_at_the_ring(self):
        """Order is tracked where events reach ``events``, so buffered
        events a sampler promotes after later ones were kept count as
        late (at the parent they were checked as recorded, in order, and
        ``ordered_events()`` returned them unsorted)."""
        tracer = Tracer(sampler=TraceSampler(rate=0.0, keep_anomalies=True))
        key = {"kernel": 1, "seq": 0, "from": 0}
        tracer.instant("window:send", 1e-6, "host a", args=dict(key, kernel_id=1))
        tracer.instant("tick", 2e-6, "health")  # no window identity: kept at once
        tracer.instant("drop", 3e-6, "link", args=dict(key, cause="loss"))
        assert [e.name for e in tracer.events] == ["tick", "window:send", "drop"]
        assert [e.name for e in tracer.ordered_events()] == [
            "window:send", "tick", "drop"]

    def test_self_accounting_is_what_it_was(self):
        plain = Tracer(retain=8)
        fill(plain, 20)
        assert plain.stats() == {
            "events_recorded": 20, "events_emitted": 20, "events_sampled_out": 0,
            "bytes_written": 0, "resident_events": 8, "peak_resident_events": 8,
        }
        unbounded = Tracer()
        fill(unbounded, 20)
        assert unbounded.peak_resident_events == unbounded.resident_events() == 20
        sampled = Tracer(sampler=TraceSampler(rate=0.0, max_pending=2), retain=False)
        for seq in range(6):
            sampled.instant("window:send", seq * 1e-6, "host a",
                            args={"kernel": 1, "seq": seq, "from": 0})
        sampled.close()
        stats = sampled.stats()
        assert (stats["events_recorded"], stats["events_emitted"],
                stats["events_sampled_out"]) == (6, 0, 6)
        assert stats["peak_resident_events"] == 2

    def test_sinks_see_every_event_first_and_streams_what_is_kept(self):
        order = []

        class Stream:
            bytes_written = 0

            def write(self, event):
                order.append(("stream", event.name))

            def flush(self):
                pass

            def close(self):
                pass

        tracer = Tracer(retain=2)
        fill(tracer, 1)  # untapped: straight into the ring
        tracer.add_sink(lambda event: order.append(("sink", event.name)))
        tracer.add_stream(Stream())
        tracer.span("s", 1e-6, 1e-6, "t")
        tracer.instant("i", 2e-6, "t")
        assert order == [("sink", "s"), ("stream", "s"), ("sink", "i"), ("stream", "i")]
        assert [e.name for e in tracer.events] == ["s", "i"]
        assert tracer.events_recorded == tracer.events_emitted == 3

    def test_flight_recorder_rides_the_sink_tap(self):
        flight = FlightRecorder(capacity=4)
        obs = Observability(tracer=Tracer(retain=2), flight=flight)
        fill(obs.tracer, 6)
        assert flight.events_seen == 6
        assert len(obs.tracer.events) == 2
