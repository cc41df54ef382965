"""Health alerts: rule parsing, evaluation over the registry's time
series, escalation to the flight recorder."""

import pytest

from repro.net.events import Simulator
from repro.obs import AlertRule, FlightRecorder, Observability, TimeSeriesSampler
from repro.obs.timeseries import parse_duration, parse_rule
from repro.obs.registry import ObservabilityError


class TestRuleParsing:
    def test_parse_duration(self):
        assert parse_duration("10us") == pytest.approx(1e-5)
        assert parse_duration("1.5ms") == pytest.approx(1.5e-3)
        assert parse_duration("2s") == 2.0
        assert parse_duration("500ns") == pytest.approx(5e-7)
        with pytest.raises(ObservabilityError, match="duration"):
            parse_duration("10 minutes")

    def test_threshold_rule(self):
        rule = parse_rule("link.qdepth_bytes > 4096")
        assert (rule.mode, rule.op, rule.threshold) == ("value", ">", 4096.0)
        assert rule.name == "link.qdepth_bytes"
        assert rule.severity == "warning"

    def test_rate_rule_with_name_labels_and_severity(self):
        rule = parse_rule(
            "drops: link.drops{cause=down} rate > 0 over 2us !critical"
        )
        assert rule.name == "drops"
        assert rule.series == "link.drops"
        assert rule.labels == {"cause": "down"}
        assert rule.mode == "rate"
        assert rule.over == pytest.approx(2e-6)
        assert rule.escalates

    def test_absence_rule(self):
        rule = parse_rule("stalled: ncp.windows{event=recv} absent over 20us")
        assert rule.mode == "absent"
        assert rule.op == "=="
        assert rule.threshold == 0.0
        assert rule.over == pytest.approx(2e-5)

    def test_text_round_trips(self):
        for text in (
            "drops: link.drops{cause=down} rate > 0 over 2us !critical",
            "stalled: ncp.windows{event=recv} absent over 20us",
            "q: link.qdepth_bytes{dir=w0->,link=s1<->w0} >= 100",
        ):
            rule = parse_rule(text)
            again = parse_rule(rule.text())
            assert again.text() == rule.text()

    def test_bad_rules_rejected(self):
        for bad in ("", "series >", "s ~ 3", "s rate > 1",  # rate needs over
                    "s{cause} > 1"):
            with pytest.raises(ObservabilityError):
                parse_rule(bad)

    def test_constructor_validation(self):
        with pytest.raises(ObservabilityError, match="mode"):
            AlertRule("r", "s", mode="median")
        with pytest.raises(ObservabilityError, match="comparison"):
            AlertRule("r", "s", op="~")
        with pytest.raises(ObservabilityError, match="severity"):
            AlertRule("r", "s", severity="page")
        with pytest.raises(ObservabilityError, match="'over'"):
            AlertRule("r", "s", mode="rate")

    def test_duplicate_rule_names_rejected(self):
        with pytest.raises(ObservabilityError, match="duplicate"):
            TimeSeriesSampler(1e-6, rules=["a: s > 1", "a: other > 2"])


def driven(rules, values, interval=1e-6, series="s", flight=None):
    """Drive a sampler's ``rules`` through ``values``: a scheduled
    callback puts value *k* into the registry half an interval before
    boundary *k*, so boundary *k* samples it (``values[0]`` is the
    series' initial 0). A registry counter carries non-decreasing
    values, a gauge any others."""
    sampler = TimeSeriesSampler(interval, rules=rules)
    obs = Observability(sampler=sampler, flight=flight)
    sim = Simulator()
    sim.obs = obs
    if values == sorted(values):
        child = obs.registry.counter(series).labels()
        for k, (prev, value) in enumerate(zip(values, values[1:]), 1):
            sim.schedule_at((k - 0.5) * interval,
                            lambda d=value - prev: child.inc(d))
    else:
        child = obs.registry.gauge(series).labels()
        for k, value in enumerate(values[1:], 1):
            sim.schedule_at((k - 0.5) * interval,
                            lambda v=value: child.set(v))
    sim.run()
    sampler.finish(sim.now())
    assert sampler.dump()["buckets"] == len(values)
    return sampler, obs


class TestEvaluation:
    def test_threshold_fires_and_resolves(self):
        sampler, obs = driven(["s > 10"], [0, 5, 20, 30, 5])
        assert len(sampler.alerts) == 1
        alert = sampler.alerts[0]
        assert alert.fired_at == pytest.approx(2e-6)
        assert alert.resolved_at == pytest.approx(4e-6)
        assert alert.state == "resolved"
        assert alert.value == 20.0
        assert not sampler.firing()
        # trace instants landed on the health track
        names = [(e.name, e.args["alert"]) for e in obs.tracer.events
                 if e.track == "health"]
        assert names == [("alert:firing", "s"), ("alert:resolved", "s")]

    def test_still_firing_at_end_of_run(self):
        sampler, _ = driven(["s > 10"], [0, 20, 30])
        assert sampler.alerts[0].state == "firing"
        assert sampler.firing() == sampler.alerts

    def test_rate_rule_fires_on_counter_slope(self):
        # counter flat, then +10/bucket: rate = 1e7/s over 1us buckets
        sampler, _ = driven(
            ["fast: s rate > 5e6 over 2us"], [0, 0, 0, 10, 20, 20, 20, 20]
        )
        assert len(sampler.alerts) == 1
        alert = sampler.alerts[0]
        assert alert.fired_at == pytest.approx(4e-6)
        assert alert.resolved_at is not None
        # evidence window carries the triggering rate curve
        assert alert.window
        assert alert.window[-1][1] == pytest.approx(1e7)

    def test_absent_rule_fires_while_counter_stalls(self):
        sampler, _ = driven(
            ["stall: s absent over 3us"], [0, 1, 2, 3, 3, 3, 3, 4, 5]
        )
        assert len(sampler.alerts) == 1
        alert = sampler.alerts[0]
        assert alert.fired_at == pytest.approx(6e-6)
        assert alert.resolved_at == pytest.approx(7e-6)

    def test_no_history_no_false_fire(self):
        sampler, _ = driven(["r: s rate > 0 over 5us"], [0, 10])
        assert sampler.alerts == []  # not enough buckets for the window

    def test_label_filter_selects_series(self):
        sampler = TimeSeriesSampler(1e-6, rules=["only: c{cause=loss} > 1"])
        obs = Observability(sampler=sampler)
        family = obs.registry.gauge("c", labels=("cause",))
        family.labels(cause="down").set(100)
        family.labels(cause="loss").set(0)
        sampler.advance(0.0)
        assert sampler.alerts == []  # the filtered stream stays at 0

    def test_a_series_the_registry_never_creates_reads_zero(self):
        """A heartbeat on windows nobody receives: the registry never
        creates ``ncp.windows{event=recv}``, and the rule reads 0 at
        every boundary, so it fires once it has a whole window."""
        sampler = TimeSeriesSampler(
            1e-6, rules=["stalled: ncp.windows{event=recv} absent over 3us"]
        )
        sim = Simulator()
        sim.obs = obs = Observability(sampler=sampler)
        other = obs.registry.counter("other").labels()
        for k in range(10):
            sim.schedule_at((k + 0.5) * 1e-6, other.inc)
        sim.run()
        assert obs.registry.get("ncp.windows") is None
        (alert,) = sampler.alerts
        assert alert.fired_at == pytest.approx(3e-6)
        assert alert.state == "firing"
        assert alert.window == [[i * 1e-6, 0.0] for i in range(4)]


class TestEscalation:
    def test_critical_firing_escalates_once(self):
        flight = FlightRecorder()
        sampler, _ = driven(
            ["bad: s > 1 !critical", "meh: s > 2"], [0, 5, 5, 5], flight=flight
        )
        # both rules fired, only the critical one escalated, exactly once
        assert len(sampler.alerts) == 2
        assert [(r, d["virtual_time"]) for r, d, _ in flight.bundles] == [
            ("alert:bad", pytest.approx(1e-6))
        ]


class TestDump:
    def test_dump_carries_rules_and_alerts(self):
        sampler, _ = driven(["s > 10"], [0, 20, 5])
        doc = sampler.dump()
        assert doc["schema"] == "repro.timeseries/2"
        assert doc["rules"] == ["s: s > 10"]
        (alert,) = doc["alerts"]
        assert alert["state"] == "resolved"
        assert alert["rule"] == "s: s > 10"
        assert alert["window"]
