"""``python -m repro.nclc check-proto`` -- the transport-safety CLI.

Compiles one or more NCL programs and verifies that every kernel's
shared-state updates are safe under the NCP transport's failure modes
(loss, duplication, reorder, retransmit, switch restart): the effect
summaries of :mod:`repro.analysis.effects` composed with the
explicit-state window model checker of :mod:`repro.analysis.proto`.
Renders either the human-readable report (per-kernel effect lattice,
verdict, minimal counterexample schedule) or the byte-deterministic
``repro.proto/1`` JSON form for tooling and golden tests. Exit codes
are the shared contract of :mod:`repro.nclc.cli` (0 replay-safe, 1
findings in any program, 2 usage/compile errors).
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.analysis.proto import (
    check_program,
    render_report_json,
    render_report_text,
)
from repro.errors import ReproError
from repro.nclc import cli
from repro.nclc.driver import Compiler


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nclc check-proto",
        description=(
            "Transport-safety verifier: kernel effect summaries + the "
            "NCP window model checker"
        ),
    )
    parser.add_argument("sources", nargs="*", help="NCL source files")
    cli.add_common_args(parser)
    cli.add_report_args(parser, "repro.proto/1", "transport-safety checks")
    cli.add_opt_arg(
        parser, "optimization level used when compiling the programs"
    )
    cli.add_window_args(parser)
    return parser


@cli.usage_errors
def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.list_rules:
        return cli.list_rules("check-proto")
    if not args.sources:
        raise cli.UsageError("no source files given")
    defines = cli.parse_kv(args.defines)
    and_text = cli.read_and_text(args)
    windows = cli.parse_windows(args)

    exit_code = 0
    for src_path in args.sources:
        text = cli.read_text(src_path)
        try:
            program = Compiler(
                profile=args.profile, opt_level=args.opt_level
            ).compile(
                text,
                and_text=and_text,
                windows=windows or None,
                defines=defines or None,
                filename=src_path,
            )
        except ReproError as exc:
            raise cli.UsageError(f"{src_path}: {exc}")

        ctx = check_program(program)
        exit_code |= cli.report(
            args,
            ctx.sink,
            lambda: render_report_json(ctx),
            lambda: render_report_text(ctx),
        )
    return exit_code


if __name__ == "__main__":
    sys.exit(main())
