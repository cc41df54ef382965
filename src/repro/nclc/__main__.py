"""nclc command-line driver.

Compile an NCL program and emit the per-switch P4 artifacts::

    python -m repro.nclc build program.ncl --and overlay.and -o build/
    python -m repro.nclc build program.ncl --profile tofino-like -O1 \
        --window 'kernel=8' --ext 'len=8' -D DATA_LEN=512 -D WIN_LEN=8

(``build`` is the default subcommand -- a bare source path works too.)
``--emit`` selects the output: the parse tree (``ast``), the optimized
per-switch NIR (``nir``), per-switch P4 + acceptance reports (``p4``,
the default), or one serialized ``repro.nclc/2`` artifact (``artifact``)
that :meth:`repro.nclc.driver.CompiledProgram.load` turns back into a
runnable program. ``--cache DIR`` keeps a content-addressed artifact
cache there so unchanged rebuilds are near-instant.

Or run static analysis only (multi-error recovery, the race detector,
PISA-resource explanations -- see :mod:`repro.nclc.lint`)::

    python -m repro.nclc lint program.ncl [--json] [--werror] [-W race]

Or statically admit a whole multi-tenant deployment -- N programs,
one fabric -- before simulating it (see :mod:`repro.nclc.deploy`)::

    python -m repro.nclc check-deploy fabric.deploy [--json] [--werror]

Or verify transport safety -- kernel effect summaries plus the NCP
window model checker (see :mod:`repro.nclc.proto`)::

    python -m repro.nclc check-proto program.ncl [--json] [--werror]

Outputs, per switch label: ``<label>.p4`` (generated source) and
``<label>.report.json`` (the backend's acceptance report). A rejection
prints the backend's feedback and exits non-zero -- the trial-and-error
loop of the paper's S6, on the command line.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from repro.errors import BackendRejection, ReproError
from repro.nclc import cli
from repro.nclc.artifact import SCHEMA
from repro.nclc.driver import Compiler


def _emit_ast(args) -> int:
    """``--emit ast``: frontend only -- tokenize, parse, print the tree."""
    from repro.ncl.lexer import tokenize
    from repro.ncl.parser import Parser

    source = cli.read_text(args.source)
    defines = cli.parse_kv(args.defines)
    tokens = tokenize(source, args.source, defines or None)
    program = Parser(tokens).parse_program()
    print(cli.dump_ast(program))
    return 0


@cli.usage_errors
def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] == "lint":
        from repro.nclc.lint import main as lint_main

        return lint_main(argv[1:])
    if argv and argv[0] == "check-deploy":
        from repro.nclc.deploy import main as deploy_main

        return deploy_main(argv[1:])
    if argv and argv[0] == "check-proto":
        from repro.nclc.proto import main as proto_main

        return proto_main(argv[1:])
    if argv and argv[0] == "build":
        argv = argv[1:]
    return run_build(cli.build_parser().parse_args(argv))


def run_build(args) -> int:
    if args.emit == "ast":
        try:
            return _emit_ast(args)
        except ReproError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1

    source = cli.read_text(args.source)
    and_text = cli.read_and_text(args)
    defines = cli.parse_kv(args.defines)
    windows = cli.parse_windows(args)

    cache = None
    if args.cache:
        from repro.nclc.cache import ArtifactCache

        cache = ArtifactCache(root=args.cache)

    compiler = Compiler(
        profile=args.profile,
        split_arrays=False if args.no_split else "auto",
        opt_level=args.opt_level,
        cache=cache,
        verify_opt=args.verify_opt,
    )
    trace = None
    if args.timing or args.trace_out:
        from repro.obs import CompileTrace

        trace = CompileTrace()
    try:
        program = compiler.compile(
            source,
            and_text=and_text,
            windows=windows or None,
            defines=defines or None,
            filename=args.source,
            trace=trace,
        )
    except BackendRejection as exc:
        print("backend REJECTED the program:", file=sys.stderr)
        for reason in exc.reasons:
            print(f"  - {reason}", file=sys.stderr)
        # The timing collected up to the rejection is exactly what you
        # want when a build blows the chip budget -- still report it.
        if trace is not None and args.timing:
            print(trace.format_table())
        return 2
    except ReproError as exc:
        from repro.analysis.transval import TranslationValidationError

        if isinstance(exc, TranslationValidationError):
            print(f"translation validation FAILED: optimization pass "
                  f"{exc.pass_name!r} miscompiled kernel {exc.fn_name!r}:",
                  file=sys.stderr)
            print(f"  {exc.detail}", file=sys.stderr)
            return 1
        print(f"error: {exc}", file=sys.stderr)
        return 1

    if trace is not None:
        if args.timing:
            print(trace.format_table())
        if args.trace_out:
            out = Path(args.trace_out)
            out.parent.mkdir(parents=True, exist_ok=True)
            with open(out, "w") as fp:
                trace.write_chrome(fp)

    if args.emit == "nir":
        for label, module in program.switch_modules.items():
            print(f"; ===== switch {label} (optimized NIR, -O{args.opt_level}) =====")
            print(module.render())
        return 0

    if args.emit == "absint":
        sys.stdout.write(program.render_absint())
        return 0

    if args.emit == "effects":
        sys.stdout.write(program.render_effects())
        return 0

    if args.dump_ir:
        for label, p4 in program.switch_programs.items():
            print(f"// ===== switch {label} =====")
            print(program.switch_sources[label])
        return 0

    outdir = Path(args.output)

    if args.emit == "artifact":
        outdir.mkdir(parents=True, exist_ok=True)
        artifact_path = outdir / (Path(args.source).stem + ".nclc.json")
        program.save(artifact_path)
        print(f"artifact: {SCHEMA} (-O{program.opt_level}) -> {artifact_path}")
        return 0

    outdir.mkdir(parents=True, exist_ok=True)
    for label, p4_text in program.switch_sources.items():
        p4_path = outdir / f"{label}.p4"
        p4_path.write_text(p4_text)
        report = program.reports[label]
        report_path = outdir / f"{label}.report.json"
        payload = report.as_dict()
        payload["splits"] = [
            {"array": s.name, "stride": s.stride, "parts": s.part_names}
            for s in program.split_info.get(label, [])
        ]
        # Per-stage compile times always ride along; the per-pass detail
        # joins when the build ran with --timing/--trace-out.
        payload["timing"] = {"stages": program.stage_times}
        if trace is not None:
            payload["timing"]["passes"] = [
                p for p in trace.as_dict()["passes"]
                if p["stage"] in (label, "host")
            ]
        report_path.write_text(json.dumps(payload, indent=2) + "\n")
        print(f"{label}: ACCEPTED on {report.profile} "
              f"({report.stages} stages, {report.phv_bits} PHV bits) "
              f"-> {p4_path}")
    layouts = {
        name: {
            "kernel_id": layout.kernel_id,
            "chunks": [
                {"param": c.name, "count": c.count, "bits": c.bits}
                for c in layout.chunks
            ],
            "ext_fields": [
                {"name": n, "bits": b} for n, b, _ in layout.ext_fields
            ],
        }
        for name, layout in program.layouts.items()
    }
    (outdir / "ncp_layouts.json").write_text(json.dumps(layouts, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
