"""``python -m repro.nclc check-deploy`` -- the whole-fabric checker CLI.

Statically admits (or rejects, with diagnostics) a multi-tenant
deployment manifest: N compiled programs mapped onto one physical
fabric. Runs every check in :mod:`repro.analysis.deploy.checks` --
resource admission, tenant isolation, placement/reachability, transport
invariants -- and renders either the human-readable report (per-switch
utilization, caret excerpts, verdict line) or the byte-deterministic
``repro.deploy/1`` JSON form for tooling and golden tests. Exit codes
are the shared contract of :mod:`repro.nclc.cli` (0 admissible, 1
rejected, 2 usage/manifest/compile errors).
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.analysis.deploy import (
    check_deployment,
    parse_deployment,
    render_report_json,
    render_report_text,
)
from repro.errors import NclError, ReproError
from repro.nclc import cli


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nclc check-deploy",
        description=(
            "Whole-fabric static admission for multi-tenant deployments"
        ),
    )
    parser.add_argument("manifest", nargs="?", help="deployment manifest file")
    cli.add_report_args(parser, "repro.deploy/1", "deployment checks")
    cli.add_opt_arg(
        parser, "optimization level used when compiling tenant programs"
    )
    return parser


@cli.usage_errors
def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.list_rules:
        return cli.list_rules("check-deploy")
    if not args.manifest:
        raise cli.UsageError("no deployment manifest given")

    text = cli.read_text(args.manifest)
    try:
        deployment = parse_deployment(
            text, args.manifest, opt_level=args.opt_level
        )
    except NclError as exc:
        raise cli.UsageError(f"tenant program failed to compile: {exc}")
    except ReproError as exc:
        raise cli.UsageError(str(exc))

    ctx = check_deployment(deployment)
    return cli.report(
        args,
        ctx.sink,
        lambda: render_report_json(ctx),
        lambda: render_report_text(ctx),
    )


if __name__ == "__main__":
    sys.exit(main())
