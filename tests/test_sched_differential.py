"""Differential determinism: fig4/fig5 workloads, simulator vs reference heap.

``Simulator`` must dispatch *real workloads*, not just synthetic event
programs, exactly as the plain reference heap does: the Fig 4 AllReduce
and Fig 5 KVS apps are run once on ``Simulator`` and once with
``tests/sched_oracle.py``'s heap injected in its place, and every
observable output is compared -- numeric results, simulated completion
times, the full trace event stream, the lineage JSON built from it, and
the hosts' final window state.
"""

import json

from repro.apps.allreduce import AllReduceJob
from repro.apps.kvs_cache import KvsCluster, value_words
from repro.apps.workloads import random_arrays
from repro.obs import Observability
from repro.obs.lineage import LineageIndex
from repro.net.events import Simulator
from tests.sched_oracle import HeapSimulator

SCHEDULERS = {"heap": HeapSimulator, "wheel": Simulator}


def use_scheduler(scheduler: str, monkeypatch) -> None:
    """Every ``Network()`` built from here on runs on this scheduler."""
    monkeypatch.setattr("repro.net.network.Simulator", SCHEDULERS[scheduler])


def trace_tuples(obs) -> list:
    """The retained trace as comparable tuples (fully virtual-time, so
    byte-identical runs produce identical lists)."""
    return [
        (e.ts, e.dur, e.name, e.cat, e.track, json.dumps(e.args, sort_keys=True))
        for e in obs.tracer.events
    ]


def lineage_json(obs) -> str:
    index = LineageIndex.from_events(obs.tracer.events)
    return json.dumps(index.to_json(), sort_keys=True)


def run_fig4(scheduler: str, monkeypatch) -> dict:
    use_scheduler(scheduler, monkeypatch)
    obs = Observability()
    job = AllReduceJob(4, 128, 8, obs=obs)
    arrays = random_arrays(4, 128, seed=17)
    results, elapsed = job.run_round(arrays)
    hosts = job.cluster.hosts
    return {
        "results": results,
        "elapsed": elapsed,
        "sim": type(job.cluster.network.sim).__name__,
        "events": job.cluster.network.sim.events_processed,
        "windows": {
            label: (h.windows_sent, h.windows_received, dict(h.inbox))
            for label, h in sorted(hosts.items())
        },
        "trace": trace_tuples(obs),
        "lineage": lineage_json(obs),
    }


def run_fig5(scheduler: str, monkeypatch) -> dict:
    use_scheduler(scheduler, monkeypatch)
    obs = Observability()
    kvs = KvsCluster(
        n_clients=2, cache_size=8, val_words=4, n_keys=64, obs=obs
    )
    kvs.install_hot_keys([1, 2, 3])
    kvs.get(0, 1)        # hit
    kvs.get(1, 40)       # miss -> server
    kvs.put(0, 2, value_words(9, 4))
    kvs.get(1, 2)        # hit, updated value
    kvs.get(0, 50)       # miss
    kvs.run()
    return {
        "records": [
            (r.op, r.key, r.issued, r.completed, r.served_by_cache, r.value)
            for r in kvs.records
        ],
        "server_ops": kvs.server_ops,
        "events": kvs.cluster.network.sim.events_processed,
        "windows": {
            label: (h.windows_sent, h.windows_received)
            for label, h in sorted(kvs.cluster.hosts.items())
        },
        "trace": trace_tuples(obs),
        "lineage": lineage_json(obs),
    }


class TestFig4Differential:
    def test_allreduce_identical_across_schedulers(self, monkeypatch):
        runs = {s: run_fig4(s, monkeypatch) for s in SCHEDULERS}
        heap, wheel = runs["heap"], runs["wheel"]
        assert (heap.pop("sim"), wheel.pop("sim")) == ("HeapSimulator", "Simulator")
        assert heap["results"] == wheel["results"]
        assert heap["elapsed"] == wheel["elapsed"]
        assert heap["events"] == wheel["events"]
        assert heap["windows"] == wheel["windows"]
        assert heap["trace"] == wheel["trace"]
        assert heap["lineage"] == wheel["lineage"]
        # and the workload actually exercised the fabric
        assert heap["events"] > 100
        assert any(e[2] == "window:recv" for e in heap["trace"])


class TestFig5Differential:
    def test_kvs_identical_across_schedulers(self, monkeypatch):
        runs = {s: run_fig5(s, monkeypatch) for s in SCHEDULERS}
        heap, wheel = runs["heap"], runs["wheel"]
        assert heap["records"] == wheel["records"]
        assert heap["server_ops"] == wheel["server_ops"]
        assert heap["events"] == wheel["events"]
        assert heap["windows"] == wheel["windows"]
        assert heap["trace"] == wheel["trace"]
        assert heap["lineage"] == wheel["lineage"]
        # sanity: the workload mixed cache hits and server misses
        by_cache = [r[4] for r in heap["records"] if r[0] == "GET"]
        assert True in by_cache and False in by_cache
