"""A loaded artifact is the program a fresh compile makes.

A ``repro.nclc/2`` artifact stores the compile's inputs and the NIR it
produced. ``CompiledProgram.from_json`` rebuilds the kernel layouts, each
switch's P4 program, its printed text and its acceptance report with the
compile's own code (``repro.nclc.pm.build_layouts`` and
``generate_switch_programs``). For every program of
``tests/toolchain_corpus.py`` (the seven bench programs and the four
examples that compile) at ``-O0/1/2``, on ``bmv2`` and ``tofino-like``,
with register splitting ``auto`` and forced -- 84 switch programs, wherever
the backend accepts the compile -- the loaded program must hold what the
fresh one holds. P4 models are compared attribute by attribute, not
through a serializer.

``tests/test_cache.py::TestKeying::test_keys_are_those_the_parent_wrote``
pins two cache keys, and :data:`FINGERPRINTS` the pipeline fingerprints,
as ``repro.nclc/1`` wrote them: the schema moved, ``NCLC_VERSION`` did
not, so no cache key did.
"""

from __future__ import annotations

import functools
import json

import pytest

from repro.errors import ArtifactError, BackendRejection
from repro.nclc.driver import CompiledProgram
from repro.nclc.pm import pipeline_fingerprint

from tests import toolchain_corpus as corpus

PROGRAMS = [
    case.name for case in corpus.BENCH + corpus.EXAMPLES
    if case.name != corpus.NEVER_COMPILES
]
CONFIGS = [
    (level, profile, split)
    for level in (0, 1, 2)
    for profile in ("bmv2", "tofino-like")
    for split in ("auto", True)
]

#: ``pipeline_fingerprint(level)`` when artifacts were ``repro.nclc/1``
FINGERPRINTS = {
    0: "711ef1f78d64acae56537b793db7b9496e60dcd12b55ad34ef97e6929a724d51",
    1: "24cbc6ea7f00c5a6d380114e6344d4ae8cfdf35121f423caa03eb9273f84d184",
    2: "107eba5efb6d93846432663e89973fab16224d69524af9cf717a3947925a8da7",
}


@functools.lru_cache(maxsize=None)
def fresh(name: str, level: int, profile: str, split):
    """The compile, or None where the backend rejects it."""
    try:
        return corpus.compile_case(
            corpus.by_name(name), level, profile=profile, split_arrays=split
        )
    except BackendRejection:
        return None


def attributes(obj):
    """A P4 model object as plain data, read off its own attributes."""
    if isinstance(obj, dict):
        return {key: attributes(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [attributes(value) for value in obj]
    if obj is None or isinstance(obj, (int, str)):
        return obj
    names = [name for cls in type(obj).__mro__ for name in getattr(cls, "__slots__", ())]
    names += list(getattr(obj, "__dict__", {}))
    return type(obj).__name__, {name: attributes(getattr(obj, name)) for name in names}


def held(program) -> dict:
    """What a program holds besides its NIR, in comparable form."""
    return {
        "switch_sources": program.switch_sources,
        "switch_programs": attributes(program.switch_programs),
        "reports": {label: r.as_dict() for label, r in program.reports.items()},
        "layouts": {
            name: (lo.kernel_id, lo.kernel_name,
                   [(c.name, c.count, c.bits, c.signed) for c in lo.chunks],
                   list(lo.ext_fields))
            for name, lo in program.layouts.items()
        },
        "kernel_ids": program.kernel_ids,
        "pairs": program.pairs,
        "split_info": {
            label: [(s.name, s.stride, list(s.part_names)) for s in splits]
            for label, splits in program.split_info.items()
        },
    }


@pytest.mark.parametrize("level,profile,split", CONFIGS)
@pytest.mark.parametrize("name", PROGRAMS)
def test_the_loaded_program_is_the_fresh_one(name, level, profile, split):
    program = fresh(name, level, profile, split)
    if program is None:
        pytest.skip("the backend rejects this compile")
    text = program.to_json()
    loaded = CompiledProgram.from_json(text)
    assert loaded.to_json() == text
    assert held(loaded) == held(program)
    for label, p4 in loaded.switch_programs.items():
        assert p4 is not program.switch_programs[label]


def test_the_sweep_covers_84_switch_programs():
    programs = [fresh(name, *config) for name in PROGRAMS for config in CONFIGS]
    assert sum(len(p.switch_programs) for p in programs if p is not None) == 84


def test_a_version_1_artifact_is_refused_by_name():
    payload = json.loads(fresh("parity.ncl", 2, "bmv2", "auto").to_json())
    payload["schema"] = "repro.nclc/1"
    with pytest.raises(ArtifactError, match=r"'repro\.nclc/1'.*'repro\.nclc/2'"):
        CompiledProgram.from_json(json.dumps(payload))


def test_pipeline_fingerprints_did_not_move():
    assert {level: pipeline_fingerprint(level) for level in FINGERPRINTS} == FINGERPRINTS
