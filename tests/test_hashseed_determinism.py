"""Byte-determinism under hash seeds (ROADMAP 3(d), 4(c)).

The abstract interpreter, the effect analysis and the dominator passes
iterate dicts and sets of IR objects; nothing they print may depend on
how those hash.  Four interpreters, ``PYTHONHASHSEED`` 0 to 3, each take
the seven bench programs to their -O2 artifact JSON, ``--emit nir`` /
``absint`` / ``effects``, P4, lint and check-proto reports (JSON and
text) and the deployment report (tests/toolchain_corpus.py ``--bench
--texts``); the four outputs must be the same bytes.  So must, from this
module run as a script (``python -m tests.test_hashseed_determinism
<output>``):

* ``lineage`` -- the ``repro.lineage/1`` JSON of a traced, INT-stamped
  Fig 4 round in which one window is sent a second time;
* ``flight`` -- the ``repro.flight/2`` bundles of a short Fig 4 run whose
  w0 uplink fails mid-round (the alert escalation and the timeout);
* ``routes`` -- ``fat_tree(8)``'s route tables, single-path and ECMP.
"""

from __future__ import annotations

import io
import json
import os
import subprocess
import sys

from repro.apps.allreduce import AllReduceJob
from repro.apps.workloads import random_arrays
from repro.errors import RuntimeApiError
from repro.ncp.window import Window
from repro.net import FaultPlan, fat_tree
from repro.obs import (
    FlightRecorder,
    IntConfig,
    Observability,
    TimeSeriesSampler,
    Tracer,
    flight_guard,
)
from repro.obs.lineage import LineageIndex

from tests import toolchain_corpus as corpus

SEEDS = ("0", "1", "2", "3")


def run_under(seed: str, *argv: str) -> bytes:
    src = os.pathsep.join(filter(None, [str(corpus.ROOT / "src"), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
    done = subprocess.run(
        [sys.executable, *argv], env=env, cwd=str(corpus.ROOT), capture_output=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr.decode()
    return done.stdout


def outputs_under(seed: str) -> bytes:
    return run_under(seed, str(corpus.ROOT / "tests" / "toolchain_corpus.py"), "--bench", "--texts")


def traced_round_lineage() -> str:
    """The lineage JSON of a traced, INT-stamped Fig 4 round, after which
    worker 0 sends its first window again."""
    obs = Observability(tracer=Tracer(), int_config=IntConfig(max_hops=8))
    job = AllReduceJob(2, 64, 8, obs=obs)
    arrays = [[(worker + 1) * i for i in range(64)] for worker in range(2)]
    job.run_round(arrays)
    host = job.cluster.host("w0")
    window = Window(0, [arrays[0][:8]], ext={"len": 8}, from_node=host.node_id)
    host.retransmit_window("allreduce", window, "s1")
    job.cluster.run()
    out = io.StringIO()
    LineageIndex.from_events(obs.tracer.events).write_json(out)
    return out.getvalue()


def test_toolchain_outputs_do_not_depend_on_the_hash_seed():
    first, *rest = [outputs_under(seed) for seed in SEEDS]
    found = json.loads(first)
    # seven programs x (artifact, nir, absint, effects, lint x2, proto x2,
    # one P4 per switch) + the deployment reports + the fingerprint
    assert len(found) >= 7 * 9 + 3
    assert all(found.values())
    for seed, other in zip(SEEDS[1:], rest):
        if other != first:
            theirs = json.loads(other)
            differing = sorted(k for k in found if found[k] != theirs.get(k))
            raise AssertionError(
                f"PYTHONHASHSEED={seed} changes {differing or 'the key set'}"
            )


def failed_link_flight_bundles() -> str:
    """The flight bundles of a two-worker Fig 4 run with the full
    observer: round 1 succeeds, then the w0 uplink fails mid-round-2 --
    the critical drop-rate alert dumps one bundle, the round's timeout
    inside :func:`flight_guard` the other."""
    sampler = TimeSeriesSampler(1e-6, rules=["drops: link.drops{cause=down} rate > 0 over 2us !critical"])
    flight = FlightRecorder(capacity=64)
    obs = Observability(sampler=sampler, flight=flight)
    job = AllReduceJob(2, 64, 8, obs=obs)
    job.run_round(random_arrays(2, 64, seed=1))
    job.cluster.network.inject(
        FaultPlan(events=((job.cluster.now() + 1e-6, "down", ("w0", "s1")),))
    )
    try:
        with flight_guard(obs, clock=job.cluster.now):
            job.run_round(random_arrays(2, 64, seed=2))
    except RuntimeApiError:
        pass
    return json.dumps([data for _reason, data, _path in flight.bundles], sort_keys=True, indent=1)


def fat_tree_route_tables() -> str:
    """Every node's route table of ``fat_tree(8)``, in installation
    order, single-path and ECMP."""
    return json.dumps({
        mode: {name: list(node.routes.items()) for name, node in fat_tree(8).build(ecmp=ecmp).nodes.items()}
        for mode, ecmp in (("single", False), ("ecmp", True))
    })


#: what this module prints when run as a script, by name
SCRIPT_OUTPUTS = {
    "lineage": traced_round_lineage,
    "flight": failed_link_flight_bundles,
    "routes": fat_tree_route_tables,
}


def test_lineage_does_not_depend_on_the_hash_seed():
    first, *rest = [run_under(seed, "-m", "tests.test_hashseed_determinism", "lineage") for seed in SEEDS]
    assert b'"kind": "retransmit"' in first and b'"kind": "send"' in first
    for seed, other in zip(SEEDS[1:], rest):
        assert other == first, f"PYTHONHASHSEED={seed} changes the lineage JSON"


def test_flight_bundles_do_not_depend_on_the_hash_seed():
    first, *rest = [run_under(seed, "-m", "tests.test_hashseed_determinism", "flight") for seed in SEEDS]
    bundles = json.loads(first)
    assert [b["reason"] for b in bundles] == ["alert:drops", "exception:RuntimeApiError"]
    assert all(b["schema"] == "repro.flight/2" and b["events"] for b in bundles)
    for seed, other in zip(SEEDS[1:], rest):
        assert other == first, f"PYTHONHASHSEED={seed} changes the flight bundles"


def test_fat_tree_routes_do_not_depend_on_the_hash_seed():
    first, *rest = [run_under(seed, "-m", "tests.test_hashseed_determinism", "routes") for seed in SEEDS]
    tables = json.loads(first)
    assert len(tables["single"]) == len(tables["ecmp"]) == 208  # 128 hosts + 80 switches
    for seed, other in zip(SEEDS[1:], rest):
        assert other == first, f"PYTHONHASHSEED={seed} changes fat_tree(8)'s routes"


if __name__ == "__main__":
    sys.stdout.write(SCRIPT_OUTPUTS[sys.argv[1]]())
