"""``python -m repro.nclc lint`` -- the static-analysis CLI.

Lints one or more NCL sources with the full :mod:`repro.analysis`
pipeline (multi-error sema recovery, conformance explanations, the rule
set) and renders either human-readable text with caret excerpts or the
deterministic ``repro.diag/1`` JSON form. Exit codes are the shared
contract of :mod:`repro.nclc.cli` (0 clean, 1 findings, 2 usage).
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.analysis import lint_source
from repro.diag import DiagnosticSink
from repro.diag.export import render_json
from repro.diag.render import SourceMap, render_text
from repro.errors import AndError
from repro.nclc import cli


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nclc lint",
        description="Static analysis for NCL programs (no code generation)",
    )
    parser.add_argument("sources", nargs="*", help="NCL source files")
    cli.add_common_args(parser)
    cli.add_report_args(parser, "repro.diag/1", "analysis rules")
    parser.add_argument(
        "-W",
        "--rule",
        dest="rules",
        action="append",
        metavar="RULE",
        help="select rules: a name runs only the listed rules, "
        "'no-NAME' disables one (repeatable)",
    )
    return parser


@cli.usage_errors
def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.list_rules:
        return cli.list_rules("lint")
    if not args.sources:
        raise cli.UsageError("no source files given")
    defines = cli.parse_kv(args.defines)
    and_text = cli.read_and_text(args)

    sink = DiagnosticSink()
    sources = {}
    for src_path in args.sources:
        sources[src_path] = cli.read_text(src_path)
        try:
            lint_source(
                sources[src_path],
                src_path,
                defines=defines or None,
                and_text=and_text,
                profile=args.profile,
                rules=args.rules,
                sink=sink,  # --werror promotes once, after all files are in
            )
        except (ValueError, KeyError) as exc:
            raise cli.UsageError(str(exc))  # unknown rule name / profile
        except AndError as exc:
            raise cli.UsageError(f"invalid AND: {exc}")

    return cli.report(
        args,
        sink,
        lambda: render_json(sink),
        lambda: render_text(sink, SourceMap(sources)),
    )


if __name__ == "__main__":
    sys.exit(main())
