"""The frozen programs the toolchain suites share, and every text the
toolchain derives from them.

``BENCH`` mirrors ``bench/workloads.py``'s ``PROGRAMS`` (the seven
programs of the ``toolchain`` workload, with the configurations
``multi_tenant.deploy`` gives the deploy tenants); ``EXAMPLES`` is every
``examples/*.ncl``.  ``outputs(case, opt_level)`` is what a user can make
the toolchain print for one program -- artifact, ``--emit nir`` /
``absint`` / ``effects``, P4, lint and check-proto reports -- keyed by
name; run as a script it prints one sha256 per (program, -O level, output)
plus the deployment reports and pipeline fingerprints, which is how two
commits (``PYTHONPATH=<checkout>/src python tests/toolchain_corpus.py``)
or two hash seeds are shown to produce the same bytes.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path
from typing import Dict, NamedTuple, Optional

ROOT = Path(__file__).resolve().parent.parent
INPUTS = ROOT / "bench" / "inputs"
EXAMPLES_DIR = ROOT / "examples"
DEPLOYMENT = INPUTS / "deploy" / "multi_tenant.deploy"


class Case(NamedTuple):
    name: str
    source: str
    defines: Optional[dict]
    #: kernel -> (mask, ext), turned into WindowConfigs at compile time
    windows: Optional[dict]
    and_text: Optional[str]


def _bench(name, defines=None, windows=None, and_name=None) -> Case:
    and_text = (INPUTS / and_name).read_text() if and_name else None
    return Case(name, (INPUTS / name).read_text(), defines, windows, and_text)


BENCH = (
    _bench("parity.ncl"),
    _bench("stats.ncl"),
    _bench("fig4_allreduce.ncl"),
    _bench("fig5_kvs.ncl"),
    _bench(
        "deploy/allreduce.ncl",
        {"DATA_LEN": 64, "WIN_LEN": 8},
        {"allreduce": ((8,), {"len": 8})},
        "deploy/allreduce.and",
    ),
    _bench(
        "deploy/kvs.ncl",
        {"CACHE_SIZE": 64, "VAL_WORDS": 4, "SERVER": 1},
        {"query": ((1, 4, 1), {})},
        "deploy/kvs.and",
    ),
    _bench(
        "deploy/dedup.ncl",
        {"FILTER_BITS": 1024},
        {"dedup": ((1, 4), {})},
        "deploy/dedup.and",
    ),
)

EXAMPLES = tuple(
    Case(f"examples/{path.name}", path.read_text(), None, None, None)
    for path in sorted(EXAMPLES_DIR.glob("*.ncl"))
)

#: the deliberate diagnostic counter-example lints but never compiles
NEVER_COMPILES = "examples/lint_demo.ncl"


def by_name(name: str) -> Case:
    return next(case for case in BENCH + EXAMPLES if case.name == name)


def compile_case(case: Case, opt_level: int = 2, **compiler_options):
    from repro.nclc import Compiler, WindowConfig

    windows = case.windows and {
        kernel: WindowConfig(mask=mask, ext=ext or None)
        for kernel, (mask, ext) in case.windows.items()
    }
    return Compiler(opt_level=opt_level, **compiler_options).compile(
        case.source,
        and_text=case.and_text,
        windows=windows,
        defines=case.defines,
        filename=case.name,
    )


def lint_case(case: Case):
    from repro.analysis import lint_source

    return lint_source(
        case.source, case.name, defines=case.defines, and_text=case.and_text
    )


def check_proto(program):
    from repro.analysis.proto import ProtoContext, run_checks

    ctx = ProtoContext(program)
    run_checks(ctx)
    return ctx


def sweep(case: Case):
    """What the ``toolchain`` workload does with one program."""
    from repro.analysis.proto import render_report_json

    program = compile_case(case)
    lint = lint_case(case)
    proto = check_proto(program)
    return program, lint, proto, render_report_json(proto)


def outputs(case: Case, opt_level: int = 2) -> Dict[str, str]:
    from repro.analysis import proto as proto_mod
    from repro.diag.export import render_json
    from repro.diag.render import SourceMap, render_text

    lint = lint_case(case)
    out = {
        "lint.json": render_json(lint.sink),
        "lint.txt": render_text(lint.sink, SourceMap({case.name: case.source})),
    }
    if case.name == NEVER_COMPILES:
        return out
    program = compile_case(case, opt_level)
    proto = check_proto(program)
    out.update(
        {
            "artifact.json": program.to_json(),
            "nir.txt": "\n".join(
                f"; {label}\n{module.render()}"
                for label, module in program.switch_modules.items()
            ),
            "absint.txt": program.render_absint(),
            "effects.txt": program.render_effects(),
            "proto.json": proto_mod.render_report_json(proto),
            "proto.txt": proto_mod.render_report_text(proto),
        }
    )
    for label, p4_text in program.switch_sources.items():
        out[f"{label}.p4"] = p4_text
    return out


def deployment_outputs() -> Dict[str, str]:
    from repro.analysis.deploy import check_deployment, parse_deployment
    from repro.analysis.deploy.report import render_report_json, render_report_text

    deployment = parse_deployment(
        DEPLOYMENT.read_text(), DEPLOYMENT.name, base_dir=str(DEPLOYMENT.parent)
    )
    ctx = check_deployment(deployment)
    return {"deploy.json": render_report_json(ctx), "deploy.txt": render_report_text(ctx)}


def texts(cases=BENCH + EXAMPLES, opt_levels=(0, 2)) -> Dict[str, str]:
    from repro.nclc.pm import pipeline_fingerprint

    found = {f"deployment/{k}": v for k, v in deployment_outputs().items()}
    for level in opt_levels:
        found[f"pipeline-fingerprint/-O{level}"] = json.dumps(
            pipeline_fingerprint(level), sort_keys=True
        )
        for case in cases:
            for key, text in outputs(case, level).items():
                found[f"{case.name}/-O{level}/{key}"] = text
    return dict(sorted(found.items()))


if __name__ == "__main__":
    # --bench: the seven bench programs at -O2 only; --texts: the outputs
    # themselves instead of one sha256 each
    found = texts(BENCH, (2,)) if "--bench" in sys.argv[1:] else texts()
    if "--texts" not in sys.argv[1:]:
        found = {
            key: hashlib.sha256(text.encode()).hexdigest()
            for key, text in found.items()
        }
    json.dump(found, sys.stdout, indent=1)
    print()
    overall = hashlib.sha256(json.dumps(found, sort_keys=True).encode()).hexdigest()
    print(f"{len(found)} outputs, sha256 of the list {overall}", file=sys.stderr)
