"""Byte-determinism under hash seeds (ROADMAP 3(d)).

The abstract interpreter, the effect analysis and the dominator passes
iterate dicts and sets of IR objects; nothing they print may depend on
how those hash.  Four interpreters, ``PYTHONHASHSEED`` 0 to 3, each take
the seven bench programs to their -O2 artifact JSON, ``--emit nir`` /
``absint`` / ``effects``, P4, lint and check-proto reports (JSON and
text) and the deployment report (tests/toolchain_corpus.py ``--bench
--texts``); the four outputs must be the same bytes.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

from tests import toolchain_corpus as corpus

SEEDS = ("0", "1", "2", "3")


def outputs_under(seed: str) -> bytes:
    src = os.pathsep.join(filter(None, [str(corpus.ROOT / "src"), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
    done = subprocess.run(
        [sys.executable, str(corpus.ROOT / "tests" / "toolchain_corpus.py"),
         "--bench", "--texts"],
        env=env, cwd=str(corpus.ROOT), capture_output=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr.decode()
    return done.stdout


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
