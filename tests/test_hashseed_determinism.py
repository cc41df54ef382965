"""Byte-determinism under hash seeds (ROADMAP 3(d), 4(c)).

The abstract interpreter, the effect analysis and the dominator passes
iterate dicts and sets of IR objects; nothing they print may depend on
how those hash.  Four interpreters, ``PYTHONHASHSEED`` 0 to 3, each take
the seven bench programs to their -O2 artifact JSON, ``--emit nir`` /
``absint`` / ``effects``, P4, lint and check-proto reports (JSON and
text) and the deployment report (tests/toolchain_corpus.py ``--bench
--texts``); the four outputs must be the same bytes.  So must the
``repro.lineage/1`` JSON of a traced, INT-stamped Fig 4 round in which
one window is sent a second time (this module, run as a script).
"""

from __future__ import annotations

import io
import json
import os
import subprocess
import sys

from repro.apps.allreduce import AllReduceJob
from repro.ncp.window import Window
from repro.obs import IntConfig, Observability, Tracer
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


def test_lineage_does_not_depend_on_the_hash_seed():
    first, *rest = [run_under(seed, "-m", "tests.test_hashseed_determinism") for seed in SEEDS]
    assert b'"kind": "retransmit"' in first and b'"kind": "send"' in first
    for seed, other in zip(SEEDS[1:], rest):
        assert other == first, f"PYTHONHASHSEED={seed} changes the lineage JSON"


if __name__ == "__main__":
    sys.stdout.write(traced_round_lineage())
