"""Virtual-clock time series of the registry: bucket semantics,
determinism, the curves a run's registry gives."""

import json

import pytest

from repro.apps.allreduce import AllReduceJob
from repro.apps.workloads import random_arrays
from repro.net.events import Simulator
from repro.net.network import Network
from repro.obs import Observability, TimeSeriesSampler
from repro.obs.registry import ObservabilityError
from repro.obs.timeseries import matching, rates, summed


def observed_sim(sampler):
    obs = Observability(sampler=sampler)
    sim = Simulator()
    sim.obs = obs
    return sim, obs


def curve(sampler, name, labels=None):
    return summed(matching(sampler.dump(), name, labels))


class TestBucketSemantics:
    def test_samples_land_on_boundaries_before_the_event(self):
        """The sample at boundary k reflects state after every event
        strictly before k*interval; an event exactly on the boundary
        lands in the bucket it opens."""
        sampler = TimeSeriesSampler(1e-6)
        sim, obs = observed_sim(sampler)
        counter = obs.registry.counter("c").labels()
        sim.schedule_at(0.5e-6, counter.inc)   # bucket 0
        sim.schedule_at(1.0e-6, counter.inc)   # exactly on boundary 1
        sim.schedule_at(2.5e-6, counter.inc)   # bucket 2
        sim.run()
        sampler.finish(sim.now())
        points = dict(curve(sampler, "c"))
        assert points[0] == 0   # boundary 0 samples the initial state
        assert points[1] == 1   # the t=1us event had not run yet
        assert points[2] == 2
        assert points[3] == 3   # trailing finish() sample

    def test_quiet_gaps_still_sample_every_boundary(self):
        sampler = TimeSeriesSampler(1e-6)
        sim, obs = observed_sim(sampler)
        counter = obs.registry.counter("c").labels()
        sim.schedule_at(5e-6, counter.inc)
        sim.run()
        sampler.finish(sim.now())
        indices = [i for i, _ in curve(sampler, "c")]
        assert indices == [0, 1, 2, 3, 4, 5, 6]

    def test_finish_is_idempotent(self):
        sampler = TimeSeriesSampler(1e-6)
        obs = Observability(sampler=sampler)
        obs.registry.counter("c").inc()
        sampler.finish(2.5e-6)
        n = len(curve(sampler, "c"))
        sampler.finish(9e-6)
        assert len(curve(sampler, "c")) == n
        assert sampler.end_time == 2.5e-6

    def test_interval_must_be_positive(self):
        with pytest.raises(ObservabilityError, match="positive"):
            TimeSeriesSampler(0.0)

    def test_max_samples_guards_runaway_configs(self):
        sampler = TimeSeriesSampler(1e-9, max_samples=100)
        Observability(sampler=sampler)
        with pytest.raises(ObservabilityError, match="exceeded 100"):
            sampler.advance(1.0)  # would need 1e9 buckets

    def test_a_series_starts_at_the_boundary_it_first_appears(self):
        sampler = TimeSeriesSampler(1e-6)
        sim, obs = observed_sim(sampler)
        late = obs.registry.counter("late")
        sim.schedule_at(2.5e-6, late.inc)
        sim.run()
        sampler.finish(sim.now())
        (series,) = matching(sampler.dump(), "late")
        assert series["points"] == [[3, 1]]


class TestRegistrySeries:
    def test_histograms_are_not_curves(self):
        sampler = TimeSeriesSampler(1e-6)
        obs = Observability(sampler=sampler)
        obs.registry.histogram("h").observe(1.0)
        obs.registry.gauge("g").set(2)
        sampler.advance(0.0)
        kinds = {s["name"]: s["kind"] for s in sampler.dump()["series"]}
        assert "h" not in kinds
        assert kinds["g"] == "gauge"
        assert set(kinds.values()) <= {"counter", "gauge"}

    def test_summed_pointwise_sums_matching_series(self):
        sampler = TimeSeriesSampler(1e-6)
        obs = Observability(sampler=sampler)
        family = obs.registry.counter("c", labels=("k",))
        family.labels(k="a").inc(2)
        family.labels(k="b").inc(3)
        sampler.advance(0.0)
        assert curve(sampler, "c") == [(0, 5)]
        assert curve(sampler, "c", {"k": "a"}) == [(0, 2)]
        assert curve(sampler, "c", {"k": "nope"}) == []

    def test_rates_derive_from_counter_deltas(self):
        points = [(0, 0.0), (1, 10.0), (2, 10.0), (4, 30.0)]
        out = rates(points, 1e-6)
        assert out == [
            (1, pytest.approx(1e7)),
            (2, pytest.approx(0.0)),
            (4, pytest.approx(1e7)),  # delta 20 over a 2-bucket gap
        ]


class TestRunCurves:
    def test_network_and_cluster_curves_come_from_the_registry(self):
        sampler = TimeSeriesSampler(1e-6)
        job = AllReduceJob(2, 256, 8, obs=Observability(sampler=sampler))
        arrays = random_arrays(2, 256, seed=1)
        job.run_round(arrays)
        sampler.finish(job.cluster.now())
        dump = sampler.dump()
        names = {s["name"] for s in dump["series"]}
        assert {"link.frames", "link.bytes", "link.drops",
                "link.qdepth_bytes", "sim.events_processed",
                "ncp.windows"} <= names
        # the frame counters actually moved
        final = summed(matching(dump, "link.frames"))[-1][1]
        assert final == sum(
            lk.stats.frames for lk in job.cluster.network.links
        )
        # drop curves exist per cause even when flat
        causes = {s["labels"]["cause"] for s in matching(dump, "link.drops")}
        assert causes == {"loss", "overflow", "down"}
        events = {s["labels"]["event"] for s in matching(dump, "ncp.windows")}
        assert {"flush", "recv"} <= events
        # queue depth is a curve: it rose above zero and came back down
        depth = summed(matching(dump, "link.qdepth_bytes"))
        assert max(v for _, v in depth) > 0
        assert depth[-1][1] == 0

    def test_qdepth_gauge_is_the_links_backlog(self):
        obs = Observability()
        net = Network(obs=obs)
        h0, h1 = net.add_host("h0"), net.add_host("h1")
        link = net.add_link("h0", "h1")
        net.compute_routes()
        for _ in range(8):  # a burst: all but the first frame queue
            h0.transmit(bytes(1000), h1.node_id)
        net.run(until=2e-6)
        now = net.sim.now()
        series = {
            s["labels"]["dir"]: s["value"]
            for s in obs.snapshot()["link.qdepth_bytes"]["series"]
        }
        assert series == {
            "h0->": link.backlog_bytes(h0, now),
            "h1->": link.backlog_bytes(h1, now),
        }
        assert series["h0->"] > 0


def sampled_allreduce_dump():
    sampler = TimeSeriesSampler(1e-6)
    job = AllReduceJob(2, 256, 8, obs=Observability(sampler=sampler))
    arrays = random_arrays(2, 256, seed=7)
    job.run_round(arrays)
    sampler.finish(job.cluster.now())
    return sampler.dump()


class TestDeterminism:
    def test_dump_is_byte_identical_across_identical_runs(self):
        """The acceptance bar: identical seeded runs produce
        byte-identical ``repro.timeseries/2`` JSON."""
        a = json.dumps(sampled_allreduce_dump(), sort_keys=True)
        b = json.dumps(sampled_allreduce_dump(), sort_keys=True)
        assert a == b

    def test_dump_schema_and_sorted_series(self):
        dump = sampled_allreduce_dump()
        assert dump["schema"] == "repro.timeseries/2"
        assert dump["buckets"] > 0
        assert dump["end_time"] is not None
        assert dump["rules"] == [] and dump["alerts"] == []
        keys = [(s["name"], tuple(sorted(s["labels"].items())))
                for s in dump["series"]]
        assert keys == sorted(keys)
        for series in dump["series"]:
            assert series["kind"] in ("counter", "gauge")
            for idx, _value in series["points"]:
                assert isinstance(idx, int)

    def test_write_json_round_trips(self, tmp_path):
        sampler = TimeSeriesSampler(1e-6)
        Observability(sampler=sampler).registry.gauge("c").set(1)
        sampler.finish(0.0)
        path = tmp_path / "run.timeseries.json"
        with open(path, "w") as fp:
            sampler.write_json(fp)
        assert json.loads(path.read_text())["schema"] == "repro.timeseries/2"
