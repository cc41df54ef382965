"""The crash flight recorder: bounded ring, triggers, bundle validity,
and the end-to-end link-failure -> alert -> bundle -> query story."""

import json

import pytest

from repro.apps.allreduce import AllReduceJob
from repro.net import FaultPlan
from repro.apps.workloads import random_arrays
from repro.errors import RuntimeApiError, SimulationError
from repro.obs import (
    FlightRecorder,
    Observability,
    TimeSeriesSampler,
    flight_guard,
    render_prom,
    validate_bundle,
)


class TestRing:
    def test_ring_is_bounded_but_counts_everything(self):
        flight = FlightRecorder(capacity=8)
        obs = Observability(flight=flight)
        for i in range(50):
            obs.tracer.instant(f"e{i}", i * 1e-6, track="t")
        assert flight.events_seen == 50
        recent = flight.recent()
        assert len(recent) == 8
        assert [e["name"] for e in recent] == [f"e{i}" for i in range(42, 50)]

    def test_bundle_is_self_contained_and_valid(self):
        sampler = TimeSeriesSampler(1e-6, rules=["c > 100"])
        flight = FlightRecorder(capacity=4)
        obs = Observability(sampler=sampler, flight=flight)
        obs.registry.counter("c").inc()
        obs.tracer.instant("hello", 0.0, track="t")
        sampler.finish(0.0)
        bundle = flight.bundle("manual", now=0.0)
        assert validate_bundle(bundle) == []
        assert bundle["schema"] == "repro.flight/2"
        assert bundle["timeseries"]["schema"] == "repro.timeseries/2"
        assert bundle["timeseries"]["rules"] == ["c: c > 100"]
        assert "alerts" not in bundle
        json.dumps(bundle)  # self-contained pure data

    def test_validate_rejects_malformed_bundles(self):
        assert validate_bundle([]) == ["bundle is not an object"]
        problems = validate_bundle({"schema": "nope"})
        assert any("schema" in p for p in problems)
        assert any("missing key" in p for p in problems)
        good = FlightRecorder(capacity=2).bundle("r")
        bad = dict(good, events=[{"ts": 0}])
        assert any("lacks ts/name/track" in p for p in validate_bundle(bad))
        overfull = dict(
            good, events=[{"ts": 0, "name": "e", "track": "t"}] * 3
        )
        assert any("exceed capacity" in p for p in validate_bundle(overfull))


class TestTriggers:
    def test_trigger_writes_numbered_bundles(self, tmp_path):
        flight = FlightRecorder(capacity=4, out_dir=str(tmp_path))
        Observability(flight=flight)
        flight.trigger("first", now=1e-6)
        flight.trigger("second", now=2e-6)
        paths = sorted(p.name for p in tmp_path.glob("flight-*.json"))
        assert paths == ["flight-0.json", "flight-1.json"]
        data = json.loads((tmp_path / "flight-1.json").read_text())
        assert data["reason"] == "second"
        assert validate_bundle(data) == []
        assert [r for r, _, _ in flight.bundles] == ["first", "second"]

    def test_flight_guard_dumps_and_reraises(self):
        flight = FlightRecorder(capacity=4)
        obs = Observability(flight=flight)
        with pytest.raises(SimulationError):
            with flight_guard(obs, clock=lambda: 3e-6):
                raise SimulationError("boom")
        ((reason, data, path),) = flight.bundles
        assert reason == "exception:SimulationError"
        assert data["virtual_time"] == 3e-6
        assert path is None  # no out_dir configured

    def test_flight_guard_without_flight_recorder_is_passthrough(self):
        with pytest.raises(ValueError):
            with flight_guard(Observability()):
                raise ValueError("x")


def crashed_allreduce(out_dir):
    """A 2-worker AllReduce with the full observability stack: round 1
    succeeds, then the w0 uplink goes down mid-round-2 -- the critical
    drop-rate alert fires (bundle 0), the round times out inside
    flight_guard (bundle 1)."""
    sampler = TimeSeriesSampler(
        1e-6, rules=["drops: link.drops{cause=down} rate > 0 over 2us !critical"]
    )
    flight = FlightRecorder(capacity=128, out_dir=str(out_dir))
    obs = Observability(sampler=sampler, flight=flight)
    job = AllReduceJob(2, 256, 8, obs=obs)
    job.run_round(random_arrays(2, 256, seed=1))
    job.cluster.network.inject(
        FaultPlan(events=((job.cluster.now() + 1e-6, "down", ("w0", "s1")),))
    )
    with pytest.raises(RuntimeApiError):
        with flight_guard(obs, clock=job.cluster.now):
            job.run_round(random_arrays(2, 256, seed=2))
    sampler.finish(job.cluster.now())
    return obs, job


class TestEndToEnd:
    @pytest.fixture(scope="class")
    def crash(self, tmp_path_factory):
        out_dir = tmp_path_factory.mktemp("flight")
        obs, job = crashed_allreduce(out_dir)
        return obs, job, out_dir

    def test_failure_produces_both_bundles(self, crash):
        obs, job, out_dir = crash
        reasons = [r for r, _, _ in obs.flight.bundles]
        assert reasons == ["alert:drops", "exception:RuntimeApiError"]
        link = job.cluster.network.link_between("w0", "s1")
        assert not link.up
        assert link.stats.drops_down > 0

    def test_bundles_validate_and_carry_the_alert(self, crash):
        obs, _, out_dir = crash
        for n in (0, 1):
            data = json.loads((out_dir / f"flight-{n}.json").read_text())
            assert validate_bundle(data) == []
        escalation = json.loads((out_dir / "flight-0.json").read_text())
        (alert,) = escalation["timeseries"]["alerts"]
        assert alert["name"] == "drops"
        assert alert["severity"] == "critical"
        assert alert["state"] == "firing"
        # the evidence window shows the drop rate crossing zero
        assert alert["window"][-1][1] > 0
        assert alert["window"][0][1] == 0
        # and the bundled time series contains the triggering curve
        down = [
            s for s in escalation["timeseries"]["series"]
            if s["name"] == "link.drops" and s["labels"]["cause"] == "down"
        ]
        assert any(s["points"][-1][1] > 0 for s in down)

    def test_query_alerts_reconstructs_from_the_bundle(self, crash, capsys):
        """The acceptance bar: ``repro.obs.query alerts --flight``
        reconstructs the firing alert and its triggering window from
        the bundle alone."""
        from repro.obs.query import main

        _, _, out_dir = crash
        rc = main(
            ["alerts", "--flight", str(out_dir / "flight-0.json"), "--window"]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "reason='alert:drops'" in out
        assert "link.drops{cause=down} rate > 0 over 2us !critical" in out
        assert "[critical] drops:" in out
        assert "still firing" in out
        assert "t=" in out  # the evidence window printed

    def test_query_alerts_reads_the_time_series_dump(self, crash, tmp_path, capsys):
        from repro.obs.query import main

        obs, _, _ = crash
        dump = tmp_path / "run.timeseries.json"
        with open(dump, "w") as fp:
            obs.sampler.write_json(fp)
        rc = main(["alerts", "--timeseries", str(dump)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "link.drops{cause=down} rate > 0 over 2us !critical" in out
        assert "[critical] drops:" in out
        dump.write_text('{"schema": "repro.alerts/1"}')
        assert main(["alerts", "--timeseries", str(dump)]) == 2
        assert "not a repro.timeseries/2 dump" in capsys.readouterr().err

    def test_query_alerts_rejects_invalid_bundle(self, tmp_path, capsys):
        from repro.obs.query import main

        bad = tmp_path / "bad.json"
        bad.write_text('{"schema": "nope"}')
        rc = main(["alerts", "--flight", str(bad)])
        assert rc == 2
        assert "invalid flight bundle" in capsys.readouterr().err

    def test_flight_events_bounded_by_capacity(self, crash):
        obs, _, out_dir = crash
        data = json.loads((out_dir / "flight-0.json").read_text())
        assert len(data["events"]) <= data["capacity"] == 128
        assert data["events_seen"] > data["capacity"]  # ring actually wrapped


class TestPromExport:
    def test_render_prom_from_crash_snapshot(self, tmp_path):
        obs, job = crashed_allreduce(tmp_path)
        text = render_prom(obs.snapshot())
        assert '# TYPE link_drops gauge' in text
        assert 'link_drops{cause="down",link="s1<->w0"}' in text
        # sanitized names, no dots
        for line in text.splitlines():
            if not line.startswith("#"):
                assert "." not in line.split("{")[0].split(" ")[0]

    def test_query_export_prom(self, tmp_path, capsys):
        from repro.obs.query import main

        obs, _ = crashed_allreduce(tmp_path)
        metrics = tmp_path / "run.metrics.json"
        metrics.write_text(json.dumps(obs.snapshot()))
        rc = main(["export", "--metrics", str(metrics), "--format", "prom"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "# HELP" in out and "# TYPE" in out
        assert 'link_drops{cause="down"' in out
        out_path = tmp_path / "metrics.prom"
        rc = main(["export", "--metrics", str(metrics),
                   "--format", "prom", "-o", str(out_path)])
        assert rc == 0
        assert out_path.read_text().startswith("# HELP")
