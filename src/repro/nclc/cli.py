"""The one command-line skeleton under the four nclc subcommands.

``build``, ``lint``, ``check-deploy`` and ``check-proto`` share what is
written here and only here:

* the argument groups (``--profile/--and/-D``, ``--window/--ext``,
  ``-O``, ``--json/--werror/--list-rules``);
* input reading and ``NAME=VALUE`` / window-mask parsing, every mistake
  a :class:`UsageError`;
* the exit-code contract: **0** success (warnings allowed), **1**
  error-level findings (``--werror`` promotes warnings first; for
  ``build``, a program that does not compile), **2** the command could
  not do its job -- bad flags, unreadable or malformed input, a tenant
  or checked program that does not compile, and for ``build`` a backend
  rejection. :func:`usage_errors` prints ``error: ...`` and returns 2;
  :func:`report` is the promote / render / 0-or-1 tail of the checkers.
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path
from typing import Callable, Dict, List, Optional

from repro.diag import DiagnosticSink
from repro.nclc.driver import WindowConfig


class UsageError(Exception):
    """The command cannot run as asked (malformed ``-D``, unreadable
    file, input that does not compile): ``error: ...`` and exit 2."""


def usage_errors(main: Callable[..., int]) -> Callable[..., int]:
    """Decorator for a subcommand ``main``: a :class:`UsageError` raised
    anywhere below it prints ``error: <message>`` and exits 2."""

    @functools.wraps(main)
    def wrapper(argv: Optional[List[str]] = None) -> int:
        try:
            return main(argv)
        except UsageError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2

    return wrapper


def read_text(path: str) -> str:
    """The text of an input file (source, manifest or ``--and`` overlay)."""
    try:
        return Path(path).read_text()
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc}")


def parse_kv(pairs) -> Dict[str, int]:
    """Parse repeated ``NAME=VALUE`` options (``-D``, ``--ext``)."""
    out = {}
    for pair in pairs or []:
        if "=" not in pair:
            raise UsageError(f"expected NAME=VALUE, got {pair!r}")
        name, _, value = pair.partition("=")
        try:
            out[name.strip()] = int(value)
        except ValueError:
            raise UsageError(f"bad value in {pair!r}")
    return out


def parse_windows(args) -> Dict[str, WindowConfig]:
    """``--window KERNEL=N[,N...]`` masks, each carrying the ``--ext``
    field values (which apply to all kernels)."""
    ext = parse_kv(args.exts)
    windows = {}
    for spec in args.windows or []:
        kernel, _, mask_text = spec.partition("=")
        try:
            mask = tuple(int(m) for m in mask_text.split(","))
        except ValueError:
            raise UsageError(f"bad window spec {spec!r}")
        windows[kernel.strip()] = WindowConfig(mask=mask, ext=ext)
    return windows


def add_common_args(parser: argparse.ArgumentParser) -> None:
    """Options every program-taking subcommand understands the same way."""
    parser.add_argument(
        "--profile",
        default="bmv2",
        help="target chip profile: bmv2 | tofino-like (default: bmv2)",
    )
    parser.add_argument("--and", dest="and_file", help="AND overlay file")
    parser.add_argument(
        "-D",
        dest="defines",
        action="append",
        metavar="NAME=VALUE",
        help="constant definition (repeatable)",
    )


def add_window_args(parser: argparse.ArgumentParser) -> None:
    """``--window`` / ``--ext``: compile-time window geometry."""
    parser.add_argument(
        "--window",
        dest="windows",
        action="append",
        metavar="KERNEL=N[,N...]",
        help="window mask for an outgoing kernel (repeatable)",
    )
    parser.add_argument(
        "--ext",
        dest="exts",
        action="append",
        metavar="FIELD=VALUE",
        help="window extension field value (applies to all kernels)",
    )


def add_opt_arg(parser: argparse.ArgumentParser, about: str) -> None:
    parser.add_argument(
        "-O",
        dest="opt_level",
        type=int,
        choices=(0, 1, 2),
        default=2,
        metavar="{0,1,2}",
        help=about,
    )


def add_report_args(
    parser: argparse.ArgumentParser, schema: str, listed: str
) -> None:
    """``--json`` / ``--werror`` / ``--list-rules`` of the three checkers."""
    parser.add_argument(
        "--json",
        action="store_true",
        help=f"emit the deterministic {schema} JSON report",
    )
    parser.add_argument(
        "--werror",
        action="store_true",
        help="treat warnings as errors (exit 1 on any finding)",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help=f"list registered {listed} and exit",
    )


def read_and_text(args) -> Optional[str]:
    """The AND overlay text named by ``--and``, or None."""
    return read_text(args.and_file) if args.and_file else None


def list_rules(first: str) -> int:
    """``--list-rules``: the registry of subcommand *first*, then (under a
    heading each) those of the checkers after it in lint -> check-deploy
    -> check-proto order, so ``lint`` lists every code there is."""
    from repro.analysis import RULES
    from repro.analysis.deploy.checks import CHECKS as DEPLOY_CHECKS
    from repro.analysis.proto import CHECKS as PROTO_CHECKS

    families = {
        "lint": ("analysis rules", RULES),
        "check-deploy": ("deployment checks", DEPLOY_CHECKS),
        "check-proto": ("transport-safety checks", PROTO_CHECKS),
    }
    commands = list(families)
    for command in commands[commands.index(first):]:
        heading, registry = families[command]
        if command != first:
            print(f"\n{heading} (nclc {command}):")
        sys.stdout.write(registry.list_rules())
    return 0


def report(
    args,
    sink: DiagnosticSink,
    render_json: Callable[[], str],
    render_text: Callable[[], str],
) -> int:
    """The checkers' tail: ``--werror`` promotion, then the JSON or the
    text report on stdout; 1 when error-level findings remain, else 0."""
    if args.werror:
        sink.promote_warnings()
    sys.stdout.write(render_json() if args.json else render_text())
    return 1 if sink.has_errors else 0


def build_parser() -> argparse.ArgumentParser:
    """The ``nclc build`` parser (also the bare ``nclc <src>`` form)."""
    parser = argparse.ArgumentParser(
        prog="nclc", description="NCL compiler (NCL -> P4 for PISA switches)"
    )
    parser.add_argument("source", help="NCL source file")
    add_common_args(parser)
    parser.add_argument(
        "-o", "--output", default=".", help="output directory (default: cwd)"
    )
    add_opt_arg(
        parser,
        "optimization level: -O0 minimum passes, -O1 adds DCE + store "
        "forwarding, -O2 the full menu with GVN and store merging "
        "(default: -O2)",
    )
    parser.add_argument(
        "--emit",
        choices=("ast", "nir", "absint", "effects", "p4", "artifact"),
        default="p4",
        help="what to produce: 'ast' prints the parse tree, 'nir' the "
        "optimized per-switch NIR, 'absint' the abstract-interpretation "
        "facts (value ranges + known bits) per switch kernel, 'effects' "
        "the replay-safety effect summaries per switch kernel, 'p4' writes "
        "per-switch .p4 + reports (default), 'artifact' writes one "
        "repro.nclc/2 JSON artifact loadable with CompiledProgram.load",
    )
    parser.add_argument(
        "--verify-opt",
        action="store_true",
        help="translation-validate every optimization pass: snapshot each "
        "kernel before the pass, then check the output via differential "
        "interpretation + abstract invariants; a miscompile fails the "
        "build naming the offending pass",
    )
    parser.add_argument(
        "--cache",
        metavar="DIR",
        help="content-addressed artifact cache directory; unchanged "
        "rebuilds become cache hits",
    )
    add_window_args(parser)
    parser.add_argument(
        "--no-split",
        action="store_true",
        help="disable the register-array splitting transformation",
    )
    parser.add_argument(
        "--dump-ir",
        action="store_true",
        help="print the generated switch P4 instead of writing artifacts "
        "(alias of --emit p4 to stdout; use --emit nir for the NIR)",
    )
    parser.add_argument(
        "--timing",
        action="store_true",
        help="print per-stage and per-pass wall time with IR-size deltas",
    )
    parser.add_argument(
        "--trace-out",
        metavar="FILE",
        help="write the compile timeline as Chrome trace-event JSON "
        "(open in chrome://tracing or Perfetto)",
    )
    return parser


def dump_ast(node, indent: int = 0, name: str = "") -> str:
    """Plain-text rendering of an NCL AST subtree (``--emit ast``)."""
    from repro.ncl import ast

    pad = "  " * indent
    label = f"{name}: " if name else ""
    if isinstance(node, ast.Node):
        scalars = []
        children = []
        for key, value in sorted(vars(node).items()):
            if key == "loc":
                continue
            if isinstance(value, (ast.Node, list)) and value:
                children.append((key, value))
            elif not isinstance(value, (ast.Node, list)):
                scalars.append(f"{key}={value!r}")
        head = f"{pad}{label}{type(node).__name__}"
        if scalars:
            head += " (" + ", ".join(scalars) + ")"
        lines = [head]
        for key, value in children:
            lines.append(dump_ast(value, indent + 1, key))
        return "\n".join(lines)
    if isinstance(node, list):
        lines = [f"{pad}{label}["]
        for item in node:
            lines.append(dump_ast(item, indent + 1))
        lines.append(f"{pad}]")
        return "\n".join(lines)
    return f"{pad}{label}{node!r}"
