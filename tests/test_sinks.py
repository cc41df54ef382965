"""Streaming sinks, deterministic sampling, and bounded-memory tracing:
the observability scale layer (``repro.obs.sinks``) plus its tracer
integration -- shard rolling + manifests, byte self-accounting, head
sampling keyed on stable window hashes, anomaly/tail retention, and the
two-identical-runs byte-determinism guarantees."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.nclc import Compiler, WindowConfig
from repro.ncp.window import Window
from repro.obs import (
    FlightRecorder,
    Observability,
    ObservabilityError,
    Tracer,
)
from repro.obs.lineage import LineageIndex
from repro.obs.sinks import (
    JsonlSink,
    TraceSampler,
    iter_jsonl,
    iter_trace_events,
    resolve_trace_paths,
    stable_hash,
    window_key,
)
from repro.obs.trace import TraceEvent
from repro.net import FaultPlan
from repro.runtime import Cluster

PROBE_SRC = (
    "_net_ unsigned seen[1] = {0};\n"
    "_net_ _out_ void probe(unsigned *d) { seen[0] += d[0]; }\n"
)


def probe_cluster(obs, loss=0.0):
    # a plan's loss draws are seeded by link index, so lossy runs replay
    # byte-identically
    program = Compiler().compile(
        PROBE_SRC, windows={"probe": WindowConfig(mask=(1,))}
    )
    cluster = Cluster.from_program(program, obs=obs)
    cluster.network.inject(FaultPlan(loss=loss))
    return cluster


def ev(name="window:send", ts=0.0, kernel=1, seq=0, **extra):
    args = {"kernel": kernel, "seq": seq}
    args.update(extra)
    return TraceEvent(ts, None, name, "sim", "h0", args)


# ---------------------------------------------------------------------------
# stable hashing + window identity
# ---------------------------------------------------------------------------


class TestStableHash:
    def test_known_value_is_process_independent(self):
        # FNV-1a 64 of the empty string is the offset basis; any drift
        # here would silently re-shuffle every sampled trace.
        assert stable_hash("") == 0xCBF29CE484222325
        assert stable_hash("0:1:0") == stable_hash("0:1:0")
        assert stable_hash("0:1:0") != stable_hash("0:1:1")

    def test_window_key_prefers_numeric_kernel_id(self):
        event = ev(kernel_id=7)
        assert window_key(event) == ("7", 0)

    def test_window_key_masks_fragment_bit(self):
        assert window_key(ev(kernel=0x8001, seq=3)) == ("1", 3)

    def test_window_key_none_without_identity(self):
        no_seq = TraceEvent(0.0, None, "alert", "sim", "h0", {"x": 1})
        no_kernel = TraceEvent(0.0, None, "drop", "sim", "h0", {"seq": 1})
        assert window_key(no_seq) is None
        assert window_key(no_kernel) is None

    def test_window_key_reads_jsonl_dicts_too(self):
        assert window_key(ev().as_dict()) == window_key(ev())


# ---------------------------------------------------------------------------
# JsonlSink: sharding, manifests, self-accounting
# ---------------------------------------------------------------------------


class TestJsonlSink:
    def test_single_file_bytes_match_disk(self, tmp_path):
        sink = JsonlSink(tmp_path / "run.trace.jsonl")
        for i in range(10):
            sink.write(ev(seq=i, ts=i * 1e-6))
        sink.close()
        path = tmp_path / "run.trace.jsonl"
        assert sink.events_written == 10
        assert sink.bytes_written == path.stat().st_size
        assert len(list(iter_jsonl([path]))) == 10

    def test_sharding_rolls_and_writes_manifest(self, tmp_path):
        sink = JsonlSink(tmp_path / "run.trace.jsonl", shard_events=4)
        for i in range(10):
            sink.write(ev(seq=i))
        sink.close()
        shards = sorted(tmp_path.glob("run.trace-*.jsonl"))
        assert [s.name for s in shards] == [
            "run.trace-00000.jsonl", "run.trace-00001.jsonl",
            "run.trace-00002.jsonl",
        ]
        manifest = json.loads(
            (tmp_path / "run.trace.manifest.json").read_text()
        )
        assert manifest["schema"] == "repro.tracemanifest/1"
        assert manifest["events"] == 10
        assert [s["events"] for s in manifest["shards"]] == [4, 4, 2]
        assert manifest["bytes"] == sum(
            s.stat().st_size for s in shards
        ) == sink.bytes_written

    def test_write_after_close_raises(self, tmp_path):
        sink = JsonlSink(tmp_path / "t.jsonl")
        sink.write(ev())
        sink.close()
        with pytest.raises(ObservabilityError, match="closed"):
            sink.write(ev())

    def test_shard_events_validated(self, tmp_path):
        with pytest.raises(ObservabilityError, match="at least 1"):
            JsonlSink(tmp_path / "t.jsonl", shard_events=0)


class TestResolveTracePaths:
    def _sharded(self, tmp_path, n=9, shard=4):
        sink = JsonlSink(tmp_path / "run.trace.jsonl", shard_events=shard)
        for i in range(n):
            sink.write(ev(seq=i))
        sink.close()
        return sink

    def test_plain_file(self, tmp_path):
        sink = JsonlSink(tmp_path / "flat.jsonl")
        sink.write(ev())
        sink.close()
        assert resolve_trace_paths(tmp_path / "flat.jsonl") == [
            tmp_path / "flat.jsonl"
        ]

    def test_base_path_resolves_via_manifest(self, tmp_path):
        self._sharded(tmp_path)
        paths = resolve_trace_paths(tmp_path / "run.trace.jsonl")
        assert [p.name for p in paths] == [
            "run.trace-00000.jsonl", "run.trace-00001.jsonl",
            "run.trace-00002.jsonl",
        ]

    def test_manifest_and_directory_specs(self, tmp_path):
        self._sharded(tmp_path)
        via_manifest = resolve_trace_paths(
            tmp_path / "run.trace.manifest.json"
        )
        via_dir = resolve_trace_paths(tmp_path)
        assert len(via_manifest) == 3
        assert set(via_manifest) <= set(via_dir)
        # the full event stream reassembles in order either way
        seqs = [e["args"]["seq"] for e in iter_trace_events(
            tmp_path / "run.trace.jsonl"
        )]
        assert seqs == list(range(9))

    def test_bare_shards_without_manifest(self, tmp_path):
        self._sharded(tmp_path)
        (tmp_path / "run.trace.manifest.json").unlink()
        paths = resolve_trace_paths(tmp_path / "run.trace.jsonl")
        assert len(paths) == 3

    def test_missing_trace_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            resolve_trace_paths(tmp_path / "nope.jsonl")


# ---------------------------------------------------------------------------
# TraceSampler unit behaviour
# ---------------------------------------------------------------------------


class TestTraceSampler:
    def _bound(self, sampler):
        kept = []
        sampler.bind(kept.append)
        return kept

    def test_rate_and_pending_validated(self):
        with pytest.raises(ObservabilityError, match="outside"):
            TraceSampler(rate=1.5)
        with pytest.raises(ObservabilityError, match="outside"):
            TraceSampler(rate=0.5, slow_percentile=100)
        with pytest.raises(ObservabilityError, match="at least 1"):
            TraceSampler(rate=0.5, max_pending=0)

    def test_rate_one_keeps_everything(self):
        sampler = TraceSampler(rate=1.0)
        kept = self._bound(sampler)
        for i in range(20):
            sampler.feed(ev(seq=i))
        sampler.drain()
        assert len(kept) == 20
        assert sampler.events_sampled_out == 0

    def test_rate_zero_drops_identified_windows(self):
        sampler = TraceSampler(rate=0.0, keep_anomalies=False)
        kept = self._bound(sampler)
        for i in range(20):
            sampler.feed(ev(seq=i))
        sampler.drain()
        assert kept == []
        assert sampler.events_sampled_out == 20

    def test_keyless_events_always_kept(self):
        sampler = TraceSampler(rate=0.0)
        kept = self._bound(sampler)
        sampler.feed(TraceEvent(0.0, None, "health:alert", "sim", "t", {}))
        assert len(kept) == 1

    def test_head_decision_is_deterministic_and_salted(self):
        a = TraceSampler(rate=0.5)
        b = TraceSampler(rate=0.5)
        keys = [("1", i) for i in range(200)]
        decisions = [a.head_keep(k) for k in keys]
        assert decisions == [b.head_keep(k) for k in keys]
        # roughly the configured fraction, exactly reproducible
        assert 60 <= sum(decisions) <= 140
        salted = TraceSampler(rate=0.5, salt=1)
        assert decisions != [salted.head_keep(k) for k in keys]

    def test_anomaly_promotes_buffered_history(self):
        sampler = TraceSampler(rate=0.0)
        kept = self._bound(sampler)
        sampler.feed(ev("window:send", ts=0.0))
        sampler.feed(ev("link:serialize", ts=1e-6))
        assert kept == []  # pending, not yet decided
        sampler.feed(ev("drop", ts=2e-6, cause="loss"))
        assert [e.name for e in kept] == [
            "window:send", "link:serialize", "drop"
        ]
        # later events of a promoted window stream straight through
        sampler.feed(ev("window:retransmit", ts=3e-6))
        assert len(kept) == 4
        assert sampler.windows_promoted == 1

    def test_drop_switch_is_not_an_anomaly(self):
        sampler = TraceSampler(rate=0.0)
        kept = self._bound(sampler)
        sampler.feed(ev("window:send", ts=0.0))
        sampler.feed(ev("int:stack", ts=1e-6, outcome="drop:switch"))
        sampler.drain()
        assert kept == []
        sampler2 = TraceSampler(rate=0.0)
        kept2 = self._bound(sampler2)
        sampler2.feed(ev("window:send", ts=0.0))
        sampler2.feed(ev("int:stack", ts=1e-6, outcome="drop:loss"))
        assert len(kept2) == 2

    def test_max_pending_evicts_oldest_fifo(self):
        sampler = TraceSampler(rate=0.0, max_pending=2)
        kept = self._bound(sampler)
        for i in range(3):
            sampler.feed(ev(seq=i))
        # window 0 aged out; an anomaly on it now is a late promotion
        assert sampler.windows_sampled_out == 1
        assert sampler.events_sampled_out == 1
        sampler.feed(ev("drop", seq=0, cause="loss"))
        assert sampler.late_anomalies == 1
        assert [e.name for e in kept] == ["drop"]

    def test_slow_percentile_promotes_tail_deliveries(self):
        sampler = TraceSampler(rate=0.0, slow_percentile=90.0)
        kept = self._bound(sampler)
        # warm up the histogram with fast windows (1us latency)
        for i in range(20):
            sampler.feed(ev("window:send", ts=i * 1e-3, seq=i))
            sampler.feed(ev("window:recv", ts=i * 1e-3 + 1e-6, seq=i))
        assert kept == []
        # one window 1000x slower than everything seen so far
        sampler.feed(ev("window:send", ts=1.0, seq=99))
        sampler.feed(ev("window:recv", ts=1.0 + 1e-3, seq=99))
        assert [e.args["seq"] for e in kept] == [99, 99]
        assert sampler.windows_promoted == 1

    def test_accounting_identity(self):
        sampler = TraceSampler(rate=0.3)
        kept = self._bound(sampler)
        for i in range(100):
            sampler.feed(ev("window:send", ts=i * 1e-6, seq=i))
        sampler.drain()
        stats = sampler.stats()
        assert stats["events_seen"] == 100
        assert stats["events_kept"] == len(kept)
        assert stats["events_kept"] + stats["events_sampled_out"] == 100
        assert stats["events_pending"] == 0


# ---------------------------------------------------------------------------
# tracer integration: retention, monotonicity, self-accounting
# ---------------------------------------------------------------------------


class TestTracerRetention:
    def test_retain_false_keeps_no_events(self, tmp_path):
        tracer = Tracer(retain=False)
        sink = JsonlSink(tmp_path / "t.jsonl")
        tracer.add_stream(sink)
        for i in range(5):
            tracer.instant("x", i * 1e-6, "t")
        assert len(tracer.events) == 0
        assert sink.events_written == 5
        assert tracer.events_recorded == tracer.events_emitted == 5

    def test_retain_int_keeps_bounded_tail(self):
        tracer = Tracer(retain=3)
        for i in range(10):
            tracer.instant("x", i * 1e-6, "t", args={"i": i})
        assert [e.args["i"] for e in tracer.events] == [7, 8, 9]
        # the trimmed list is still time-ordered after the fallback sort
        assert [e.args["i"] for e in tracer.ordered_events()] == [7, 8, 9]

    def test_monotonic_fast_path_skips_sort(self):
        tracer = Tracer()
        for i in range(4):
            tracer.instant("x", i * 1e-6, "t")
        assert tracer.ordered_events() is tracer.events

    def test_out_of_order_falls_back_to_stable_sort(self):
        tracer = Tracer()
        tracer.instant("b", 2e-6, "t")
        tracer.instant("a", 1e-6, "t")
        tracer.instant("a2", 1e-6, "t")  # ties keep recording order
        ordered = tracer.ordered_events()
        assert ordered is not tracer.events
        assert [e.name for e in ordered] == ["a", "a2", "b"]
        assert "1.000us" in tracer.timeline().splitlines()[0]

    def test_sinks_see_presampling_stream(self):
        sampler = TraceSampler(rate=0.0, keep_anomalies=False)
        tracer = Tracer(sampler=sampler, retain=False)
        flight = FlightRecorder(capacity=16)
        obs = Observability(tracer=tracer, flight=flight)
        for i in range(10):
            obs.tracer.instant(
                "window:send", i * 1e-6, "h0", args={"kernel": 1, "seq": i}
            )
        tracer.close()
        assert flight.events_seen == 10  # ring taps before sampling
        assert tracer.events_emitted == 0  # everything sampled out
        assert tracer.events_sampled_out == 10

    def test_stats_identity_and_peak_resident(self):
        sampler = TraceSampler(rate=0.0, max_pending=4)
        tracer = Tracer(sampler=sampler, retain=False)
        for i in range(50):
            tracer.instant(
                "window:send", i * 1e-6, "h0", args={"kernel": 1, "seq": i}
            )
        tracer.close()
        stats = tracer.stats()
        assert stats["events_recorded"] == 50
        assert stats["events_recorded"] == (
            stats["events_emitted"] + stats["events_sampled_out"]
        )
        assert stats["peak_resident_events"] <= 4  # bounded by max_pending
        assert stats["resident_events"] == 0


# ---------------------------------------------------------------------------
# end to end: determinism + anomaly retention on a real cluster
# ---------------------------------------------------------------------------


def _sampled_run(out_dir: Path, rate=0.05, loss=0.15, n=120):
    sampler = TraceSampler(rate=rate, max_pending=512)
    tracer = Tracer(sampler=sampler, retain=False)
    sink = JsonlSink(out_dir / "run.trace.jsonl", shard_events=64)
    tracer.add_stream(sink)
    obs = Observability(tracer=tracer)
    cluster = probe_cluster(obs, loss=loss)
    h0 = cluster.host("h0")
    for seq in range(n):
        h0.out_window("probe", seq, [[seq % 97]], "h1", last=True)
    cluster.run()
    tracer.close()
    index = LineageIndex.from_jsonl(out_dir / "run.trace.jsonl")
    index.write_json(open(out_dir / "run.lineage.json", "w"))
    return obs, sink, index


class TestSampledRunDeterminism:
    def test_identical_runs_are_byte_identical(self, tmp_path):
        dir_a, dir_b = tmp_path / "a", tmp_path / "b"
        dir_a.mkdir(), dir_b.mkdir()
        _sampled_run(dir_a)
        _sampled_run(dir_b)
        files_a = sorted(p.name for p in dir_a.iterdir())
        assert files_a == sorted(p.name for p in dir_b.iterdir())
        assert any(name.startswith("run.trace-") for name in files_a)
        for name in files_a:
            assert (dir_a / name).read_bytes() == (dir_b / name).read_bytes()

    def test_identical_runs_diff_to_zero_delta(self, tmp_path):
        from repro.obs.diff import diff_runs, validate_report, write_report

        dir_a, dir_b = tmp_path / "a", tmp_path / "b"
        dir_a.mkdir(), dir_b.mkdir()
        _sampled_run(dir_a)
        _sampled_run(dir_b)
        report = diff_runs(str(dir_a), str(dir_b), a_label="A", b_label="B")
        assert validate_report(report) == []
        assert report["zero_delta"] is True
        # the report itself is byte-deterministic
        import io

        buf1, buf2 = io.StringIO(), io.StringIO()
        write_report(report, buf1)
        write_report(
            diff_runs(str(dir_a), str(dir_b), a_label="A", b_label="B"), buf2
        )
        assert buf1.getvalue() == buf2.getvalue()

    def test_anomaly_retention_keeps_all_drops_at_rate_zero(self, tmp_path):
        # rate=0.0 is the adversarial extreme: head sampling keeps
        # nothing, so every reconstructable drop below was saved by
        # anomaly retention alone.
        _, _, index = _sampled_run(tmp_path, rate=0.0, loss=0.25)
        dropped = [
            w for w in index.windows.values()
            for b in w.branches.values()
            for a in b.attempts.values()
            if a.outcome.startswith("drop:") and a.outcome != "drop:switch"
        ]
        assert dropped, "loss=0.25 over 120 windows must drop something"
        for window in dropped:
            story = index.explain(window.kernel_id, window.seq)
            assert "drop" in story

    def test_retransmits_retained_at_rate_zero(self, tmp_path):
        sampler = TraceSampler(rate=0.0, max_pending=512)
        tracer = Tracer(sampler=sampler, retain=False)
        sink = JsonlSink(tmp_path / "rtx.trace.jsonl")
        tracer.add_stream(sink)
        obs = Observability(tracer=tracer)
        cluster = probe_cluster(obs)
        h0 = cluster.host("h0")
        h0.out("probe", [[7]], dst="h1")
        cluster.run()
        window = Window(0, [[7]], ext={}, last=True, from_node=h0.node_id)
        h0.retransmit_window("probe", window, "h1")
        cluster.run()
        tracer.close()
        index = LineageIndex.from_jsonl(tmp_path / "rtx.trace.jsonl")
        branch = index.window("probe", 0).branches[h0.node_id]
        # both attempts survive a keep-nothing sampling rate: the
        # retransmit promoted the window, history included
        assert sorted(branch.attempts) == [0, 1]
        assert branch.attempts[1].kind == "retransmit"
        story = index.explain("probe", 0)
        assert "retransmit" in story
