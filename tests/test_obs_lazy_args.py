"""An event's args are formatted when someone reads them.

A hot site hands the tracer ``(formatter, *scalars)`` and the dict is
built on the first read of ``TraceEvent.args``.  That is only sound if
nothing a payload holds changes between the event and the read, which is
shown here by mutating everything a formatter could wrongly have kept a
reference to, and -- for any formatter and any scalars -- by exporting a
deferred event and an eagerly formatted one through every reader."""

from __future__ import annotations

import io
import json
import tracemalloc

from hypothesis import given, settings, strategies as st

from repro.apps.allreduce import AllReduceJob
from repro.obs import (
    FlightRecorder,
    IntConfig,
    Observability,
    Profiler,
    TraceSampler,
    Tracer,
)
from repro.obs.lineage import LineageIndex
from repro.obs.trace import TraceEvent


class EagerTracer(Tracer):
    """The parent's tracer: the dict exists before the event does."""

    def span(self, name, ts, dur, track, cat="sim", args=None):
        super().span(name, ts, dur, track, cat, formatted(args))

    def instant(self, name, ts, track, cat="sim", args=None):
        super().instant(name, ts, track, cat, formatted(args))


def formatted(args):
    return args[0](*args[1:]) if args.__class__ is tuple else args


def jsonl(events):
    return [json.dumps(event.as_dict(), sort_keys=True) for event in events]


# -- TraceEvent ----------------------------------------------------------------------


def pair(a, b):
    return {"a": a, "b": b}


class TestTraceEvent:
    def test_a_payload_is_formatted_once_on_first_read(self):
        calls = []

        def fmt(a, b):
            calls.append((a, b))
            return {"a": a, "b": b}

        event = TraceEvent(1.0, None, "x", "sim", "t", (fmt, 1, "two"))
        assert calls == []
        assert event.args == {"a": 1, "b": "two"} and event.args is event.args
        assert event.as_dict()["args"] is event.args
        assert calls == [(1, "two")]

    def test_a_dict_is_stored_as_it_always_was(self):
        given_args = {"k": 1}
        assert TraceEvent(0.0, 1.0, "x", "sim", "t", given_args).args is given_args
        for nothing in (None, {}):
            event = TraceEvent(0.0, 1.0, "x", "sim", "t", nothing)
            assert event.args == {} and "args" not in event.as_dict()

    def test_a_formatter_that_has_nothing_to_say(self):
        event = TraceEvent(0.0, None, "x", "sim", "t", (dict,))
        assert event.args == {} and "args" not in event.as_dict()

    def test_unread_events_fall_off_the_ring_unformatted(self):
        calls = []

        def fmt(i):
            calls.append(i)
            return {"i": i}

        tracer = Tracer(retain=2)
        for i in range(10):
            tracer.instant("x", i * 1e-6, "t", args=(fmt, i))
        assert [e.args["i"] for e in tracer.events] == [8, 9] and calls == [8, 9]


# -- what sits in the ring ------------------------------------------------------------


class TestEventsAreMadeWhenTheRingIsRead:
    def test_every_reader_sees_trace_events_and_the_same_ones(self):
        for tracer in (Tracer(), Tracer(retain=8)):
            events = tracer.events
            tracer.span("a", 0.0, 1e-6, "t", args=(pair, 1, 2))
            tracer.instant("b", 1e-6, "t", "ncp", {"k": 1})
            assert tracer.events is events and len(tracer) == 2
            first, second = tracer.events
            assert type(first) is type(second) is TraceEvent
            assert (first.ts, first.dur, first.name, first.cat, first.track,
                    first.args) == (0.0, 1e-6, "a", "sim", "t", {"a": 1, "b": 2})
            assert (second.dur, second.cat, second.args) == (None, "ncp", {"k": 1})
            tracer.instant("c", 2e-6, "t")
            assert list(tracer.events)[:2] == [first, second]  # not made again
            assert [e.name for e in tracer.events] == ["a", "b", "c"]
            assert tracer.named("c") == [tracer.events[2]]

    def test_a_sink_attached_mid_run_finds_objects_before_its_own(self):
        tracer = Tracer(retain=4)
        for i in range(6):
            tracer.instant("early", i * 1e-6, "t", args=(pair, i, i))
        seen = []
        tracer.add_sink(seen.append)
        tracer.instant("late", 7e-6, "t", args=(pair, 7, 7))
        assert [e.name for e in tracer.events] == ["early"] * 3 + ["late"]
        assert all(type(e) is TraceEvent for e in tracer.events)
        assert seen == [tracer.events[-1]]

    def test_a_reference_kept_across_recording_is_completed_by_the_next_read(self):
        tracer = Tracer()
        kept = tracer.events
        tracer.instant("x", 0.0, "t")
        assert type(kept[0]) is tuple  # what the docstring of ``events`` says
        assert tracer.events is kept and type(kept[0]) is TraceEvent

    def test_nothing_retained_nothing_made(self):
        tracer = Tracer(retain=False)
        tracer.instant("x", 0.0, "t", args=(pair, 1, 2))
        assert len(tracer.events) == 0 and tracer.events_recorded == 1


# -- nothing a payload holds may change ---------------------------------------------


def two_rounds(tracer, disturb):
    """Round 1 of a 2-worker Fig 4 job; then, if *disturb*, everything a
    round leaves behind is overwritten -- the arrays given to ``out()``,
    the delivered windows' lists, the switch registers and later frames'
    stacks (a second round through the same objects), each host's MTU,
    every route table -- before anyone reads an event.  Returns the JSONL
    lines of round 1's events."""
    obs = Observability(tracer=tracer, int_config=IntConfig(max_hops=8))
    job = AllReduceJob(2, 32, 8, multiround=True, obs=obs)
    cluster = job.cluster
    hosts = [cluster.host("w0"), cluster.host("w1")]
    arrays = [list(range(1, 33)), list(range(100, 132))]
    windows = []
    for host in hosts:
        host.register_in(
            "result", [[0] * 32, [0]], on_window=lambda w, h: windows.append(w)
        )

    def send_all():
        for host, array in zip(hosts, arrays):
            host.out("allreduce", [array])  # the caller's own lists, every time
        cluster.run()

    send_all()
    recorded = len(tracer.events)
    assert recorded and len(windows) == 8
    if disturb:
        for array in arrays:
            array[:] = [7] * 32
        for window in windows:
            for chunk in window.chunks:
                chunk[:] = [-1] * len(chunk)
            window.chunks.append([0])
            window.ext["len"] = 99
            window.seq += 1000
            window.last = not window.last
        send_all()
        for host in hosts:
            host.mtu = 64
        for node in cluster.network.nodes.values():
            node.routes.clear()
    return jsonl(list(tracer.events)[:recorded])


class TestNothingAPayloadHoldsChanges:
    def test_events_read_late_say_what_the_eager_parent_said(self):
        eager = two_rounds(EagerTracer(), disturb=False)
        assert two_rounds(Tracer(), disturb=True) == eager
        assert two_rounds(EagerTracer(), disturb=True) == eager  # the scenario is fair
        kinds = {json.loads(line)["name"] for line in eager}
        assert {"window:send", "window:recv", "kernel:run", "int:stack", "serialize",
                "deliver", "parse:parser", "verdict"} <= kinds

    def test_lineage_read_late_is_the_lineage_read_at_once(self):
        def lineage(tracer):
            two_rounds(tracer, disturb=True)
            out = io.StringIO()
            LineageIndex.from_events(tracer.events).write_json(out)
            return out.getvalue()

        assert lineage(Tracer()) == lineage(EagerTracer())


# -- any formatter, any scalars, every reader -----------------------------------------

ATOMS = st.one_of(
    st.none(), st.booleans(), st.integers(-2**40, 2**40), st.text(max_size=8),
    st.floats(allow_nan=False, allow_infinity=False, width=32),
)
NAMES = st.one_of(
    st.sampled_from(["window:send", "window:recv", "window:retransmit", "drop",
                     "int:stack", "serialize", "health:alert"]),
    st.text(min_size=1, max_size=6),
)
IDENTITY = st.one_of(
    st.none(),
    st.tuples(st.integers(0, 3), st.integers(0, 5), st.integers(0, 3),
              st.sampled_from(["delivered", "drop:switch", "drop:loss"])),
)
EVENTS = st.lists(
    st.tuples(
        NAMES,
        st.floats(0.0, 1.0, allow_nan=False),                  # ts
        st.one_of(st.none(), st.floats(0.0, 1e-3, allow_nan=False)),  # dur
        st.sampled_from(["host a", "link a<->b", "switch s"]),  # track
        st.sampled_from(["sim", "ncp", "link", "int"]),         # cat
        IDENTITY,
        st.lists(ATOMS, max_size=4),
    ),
    min_size=1, max_size=24,
)


def describe(identity, *scalars):
    args = {f"s{i}": value for i, value in enumerate(scalars)}
    if identity is not None:
        kernel, seq, from_node, outcome = identity
        args.update(kernel=kernel, seq=seq, outcome=outcome)
        args["from"] = from_node
    return args


def record(tracer, events, deferred):
    for name, ts, dur, track, cat, identity, scalars in events:
        args = (describe, identity, *scalars)
        if not deferred:
            args = formatted(args)
        if dur is None:
            tracer.instant(name, ts, track, cat, args)
        else:
            tracer.span(name, ts, dur, track, cat, args)
    tracer.close()


def exported(tracer):
    out = io.StringIO()
    tracer.write_jsonl(out)
    return out.getvalue(), tracer.chrome_dict(), tracer.timeline(), tracer.stats()


class TestDeferredAndEagerExportAlike:
    @settings(max_examples=150, deadline=None)
    @given(EVENTS)
    def test_through_every_reader(self, events):
        def both(build):
            return [build(deferred) for deferred in (True, False)]

        def plain(deferred):
            tracer = Tracer()
            record(tracer, events, deferred)
            return exported(tracer)

        def sampled(deferred):
            tracer = Tracer(sampler=TraceSampler(rate=0.5, max_pending=3))
            record(tracer, events, deferred)
            return exported(tracer)

        def flight(deferred):
            recorder = FlightRecorder(capacity=8)
            obs = Observability(tracer=Tracer(retain=4), flight=recorder)
            record(obs.tracer, events, deferred)
            return json.dumps(recorder.bundle("manual", 1.0), sort_keys=True)

        for build in (plain, sampled, flight):
            deferred, eager = both(build)
            assert deferred == eager


# -- an Observability that names no tracer keeps everything ----------------------------

#: bytes one Fig 4 batch (1 400 events with INT off) may add to the kept list
KEPT_BATCH_BYTES_MAX = 350_000


class TestTheDefaultTracerKeepsEverything:
    def test_what_200_unread_batches_hold(self):
        """``Observability(profiler=Profiler())`` names no tracer and gets
        ``Tracer()``: every event, forever (docs/OBSERVABILITY.md says
        what to write instead).  The events now hold atoms and the
        frames they name, not a dict apiece: 200 batches grow the peak by
        291 kB a batch (about 208 bytes an event); at cb58053 it was
        440 kB a batch, which this bound refuses."""
        obs = Observability(profiler=Profiler())
        job = AllReduceJob(4, 256, 8, multiround=True, obs=obs)
        arrays = [[i] * 256 for i in range(4)]
        for _ in range(2):
            job.run_round(arrays)
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            before, _ = tracemalloc.get_traced_memory()
            for _ in range(200):
                job.run_round(arrays)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(obs.tracer.events) == obs.tracer.events_recorded  # all of them
        assert (peak - before) / 200 <= KEPT_BATCH_BYTES_MAX
