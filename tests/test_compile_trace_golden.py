"""What a compile leaves behind besides its artifact, pinned against the
parent of the change that made the compile one function.

For the seven ``toolchain_corpus.BENCH`` programs at -O0, -O1 and -O2
(and fig4 under ``verify_opt``): the :class:`repro.obs.CompileTrace`
under a 1-ms fake clock -- so every stage record, every pass record and
the order the clock was read in -- and the keys of
``CompiledProgram.stage_times`` in order. For three failures (a parse
error, an unknown AND label, a backend rejection): the exception, what
the diagnostic sink got, and the partial trace.

The digests in ``tests/golden/compile_trace.json`` were captured at
5cf5b19, while nclc still ran a registered-pass manager over a
blackboard: pinned against that commit, not against this one. To
re-capture (only for a deliberate change to what a compile records)::

    PYTHONPATH=src python -m tests.test_compile_trace_golden --capture
"""

from __future__ import annotations

import itertools
import json
import sys
from pathlib import Path

import pytest

from repro.diag import DiagnosticSink
from repro.diag.export import render_json
from repro.errors import ReproError
from repro.nclc import Compiler, WindowConfig
from repro.obs import CompileTrace

from tests.conftest import STAR_AND
from tests.test_obs_bindonce import sha256
from tests.toolchain_corpus import BENCH, Case, by_name

GOLDEN = Path(__file__).resolve().parent / "golden" / "compile_trace.json"

#: (case name, -O level, Compiler options) of every successful compile pinned
BUILDS = [(case.name, level, {}) for case in BENCH for level in (0, 1, 2)] + [
    ("fig4_allreduce.ncl", 2, {"verify_opt": True})
]

#: name -> (case, Compiler options); each one raises out of ``compile``
FAILURES = {
    "parse": (Case("broken.ncl", "_net_ _out_ void k( {", None, None, None), {}),
    "and-resolve": (
        Case(
            "elsewhere.ncl",
            '_net_ _at_("s9") int x[2];\n'
            '_net_ _out_ _at_("s9") void k(int *d) { d[0] = x[0]; }\n',
            None,
            None,
            STAR_AND,
        ),
        {},
    ),
    "backend": (
        by_name("deploy/allreduce.ncl"),
        {"profile": "tofino-like", "split_arrays": False},
    ),
}


def build_name(name: str, level: int, options: dict) -> str:
    return f"{name}/-O{level}" + "".join(f"/{k}" for k in sorted(options))


def compile_traced(case: Case, level: int = 2, sink=None, **options):
    ticks = itertools.count()
    trace = CompileTrace(clock=lambda: next(ticks) * 1e-3)
    windows = case.windows and {
        kernel: WindowConfig(mask=mask, ext=ext or None)
        for kernel, (mask, ext) in case.windows.items()
    }
    try:
        program = Compiler(opt_level=level, **options).compile(
            case.source,
            and_text=case.and_text,
            windows=windows,
            defines=case.defines,
            filename=case.name,
            trace=trace,
            sink=sink,
        )
    except ReproError as exc:
        return trace, exc
    return trace, program


def trace_digest(trace: CompileTrace) -> str:
    return sha256(json.dumps(trace.as_dict(), sort_keys=True))


def build_record(name: str, level: int, options: dict) -> dict:
    trace, program = compile_traced(by_name(name), level, **options)
    return {"trace": trace_digest(trace), "stage_times": list(program.stage_times)}


def failure_record(name: str) -> dict:
    case, options = FAILURES[name]
    sink = DiagnosticSink()
    trace, exc = compile_traced(case, 2, sink, **options)
    assert isinstance(exc, ReproError), exc
    return {
        "error": f"{type(exc).__name__}: {exc}",
        "sink": [f"{d.code}: {d.message}" for d in sink.sorted()],
        "sink_json": sha256(render_json(sink)),
        "stages": [r["stage"] for r in trace.stages],
        "trace": trace_digest(trace),
    }


@pytest.fixture(scope="module")
def golden():
    pinned = json.loads(GOLDEN.read_text())
    assert pinned["captured_at"] == "5cf5b19"
    return pinned


@pytest.mark.parametrize(
    "name,level,options", BUILDS, ids=[build_name(*b) for b in BUILDS]
)
def test_compile_records_what_the_parent_recorded(golden, name, level, options):
    assert build_record(name, level, options) == golden["builds"][
        build_name(name, level, options)
    ]


@pytest.mark.parametrize("name", sorted(FAILURES))
def test_failure_leaves_what_the_parent_left(golden, name):
    assert failure_record(name) == golden["failures"][name]


def test_the_failures_fail_where_they_are_named(golden):
    """Each failure stops in the step it is named after, and only the
    traced stages that ran before it (and the one it broke in) remain."""
    failures = golden["failures"]
    assert failures["parse"]["stages"] == ["frontend"]
    assert "compile pass 'parse' failed" in failures["parse"]["sink"][-1]
    assert failures["and-resolve"]["stages"] == ["frontend", "irgen"]
    assert "compile pass 'and-resolve' failed" in failures["and-resolve"]["sink"][-1]
    assert failures["backend"]["error"].startswith("BackendRejection")
    assert failures["backend"]["stages"][-1] == "codegen+backend"


if __name__ == "__main__":
    if sys.argv[1:] != ["--capture"]:
        sys.exit(__doc__)
    import subprocess

    commit = subprocess.run(
        ["git", "-C", str(Path(sys.modules["repro"].__file__).parent), "rev-parse",
         "--short", "HEAD"], capture_output=True, text=True, check=True,
    ).stdout.strip()
    captured = {
        "captured_at": commit,
        "builds": {build_name(*b): build_record(*b) for b in BUILDS},
        "failures": {name: failure_record(name) for name in sorted(FAILURES)},
    }
    GOLDEN.write_text(json.dumps(captured, indent=1, sort_keys=True) + "\n")
    print(json.dumps(captured["failures"], indent=1, sort_keys=True))
