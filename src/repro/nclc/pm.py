"""The nclc compile: the paper's Fig 6 steps, called in order.

:func:`compile_program` is the whole path as straight-line code over
local variables: the frontend (lex -> parse -> sema), lowering to NIR
(the kernels, and apart from them the host functions), the AND overlay,
the stage-1 conformance check, window geometry, the
per-kernel host pipeline, per-switch versioning, the per-kernel switch
pipeline (window specialisation, unroll, optimisation, register
splitting), then P4 codegen and the backend's accept/reject. The ``-O``
level changes only the per-kernel NIR pass lists (:mod:`repro.nir.passes`);
the steps are the same at every level, and :data:`STEPS` names them for
the artifact-cache fingerprint.

Each step runs under :func:`_step`, which keeps what a caller reads of
it: its wall time in ``CompiledProgram.stage_times``, its
:class:`repro.obs.CompileTrace` stage record, and an ``NCL0990``
diagnostic naming it when it fails. ``lex``, ``parse`` and ``sema`` are
timed and traced together as ``frontend``; ``and-resolve`` and
``windows`` are timed but write no trace record.
"""

from __future__ import annotations

import functools
import hashlib
import time
from contextlib import contextmanager, nullcontext
from typing import Dict, List, Optional, Sequence, Tuple

from repro.andspec.model import AndSpec, parse_and
from repro.errors import ReproError, RuntimeApiError
from repro.ncl.lexer import tokenize
from repro.ncl.parser import Parser
from repro.ncl.sema import TranslationUnit, analyze
from repro.ncp.wire import KernelLayout, layout_for_kernel
from repro.nir import ir
from repro.nir.lower import lower_host, lower_unit
from repro.nir.passes import (
    PassStats,
    host_pipeline,
    optimize_host,
    optimize_switch,
    split_register_arrays,
    switch_pipeline,
)
from repro.p4.backend import AcceptanceReport, check_program
from repro.p4.model import P4Program
from repro.p4.printer import print_program
from repro.pisa.arch import ArchProfile
from repro.nclc.codegen import build_switch_program
from repro.nclc.conformance import check_module
from repro.nclc.driver import CompiledProgram, WindowConfig
from repro.nclc.versioning import version_module

#: Version string baked into every artifact and cache key. It guards what
#: a compile produces: bump it on any change that alters the generated
#: NIR, P4 or reports without changing a step name or a pass list. How an
#: artifact encodes that output is artifact.SCHEMA's business; the move to
#: repro.nclc/2 left this string, and so every cache key, unchanged.
NCLC_VERSION = "nclc-1.1.0"

#: The steps :func:`compile_program` runs, in order, at every ``-O`` level.
STEPS: Tuple[str, ...] = (
    "lex",
    "parse",
    "sema",
    "irgen",
    "and-resolve",
    "conformance",
    "windows",
    "host-opt",
    "versioning",
    "switch-opt",
    "codegen+backend",
)


def pipeline_fingerprint(opt_level: int, extra: Sequence[str] = ()) -> str:
    """A stable digest of everything that determines what the compile
    *does*: the step names, the per-kernel NIR pass lists for this opt
    level, and the compiler version. Cache keys include this, so a
    pipeline or version change misses the cache exactly like a source
    change."""
    h = hashlib.sha256()
    h.update(NCLC_VERSION.encode())
    h.update(b"|driver:" + ",".join(STEPS).encode())
    h.update(b"|host:" + ",".join(host_pipeline(opt_level)).encode())
    h.update(b"|switch:" + ",".join(switch_pipeline(opt_level)).encode())
    for item in extra:
        h.update(b"|" + str(item).encode())
    return h.hexdigest()


@contextmanager
def _step(times, trace, sink, name: str, key: Optional[str] = None, traced=True):
    """One step: its wall time adds to ``times[key or name]``, it is a
    CompileTrace stage record when *traced* (and a trace rides along),
    and a ReproError out of it lands in *sink* as NCL0990 naming it."""
    key = key or name
    with trace.stage(key) if traced and trace is not None else nullcontext():
        t0 = time.perf_counter()
        try:
            yield
        except ReproError as exc:
            if sink is not None:
                sink.error(
                    "NCL0990",
                    f"compile pass {name!r} failed: {exc}",
                    loc=getattr(exc, "loc", None),
                )
            raise
        finally:
            times[key] = times.get(key, 0.0) + time.perf_counter() - t0


def compile_program(
    compiler, source, and_text, windows, defines, filename, trace, sink
):
    """Run the Fig 6 steps over *source* under *compiler*'s profile, -O
    level, split policy and ``verify_opt`` (the arguments are those of
    :meth:`repro.nclc.driver.Compiler.compile`)."""
    opt_level = compiler.opt_level
    stage_times: Dict[str, float] = {}
    stats: Dict[str, PassStats] = {}
    step = functools.partial(_step, stage_times, trace, sink)

    with trace.stage("frontend") if trace is not None else nullcontext():
        with step("lex", "frontend", traced=False):
            tokens = tokenize(source, filename, dict(defines or {}))
        with step("parse", "frontend", traced=False):
            ast = Parser(tokens).parse_program()
        with step("sema", "frontend", traced=False):
            unit = analyze(ast)
    with step("irgen"):
        module = lower_unit(unit)
        host_module, host_errors = lower_host(unit)
    with step("and-resolve", traced=False):
        required = required_labels(unit)
        and_spec = parse_and(and_text) if and_text is not None else default_and(required)
        and_spec.validate(required)
    with step("conformance"):
        check_module(module, and_spec)
    with step("windows", traced=False):
        window_configs = resolve_window_configs(unit, windows)
        layouts = build_layouts(module, window_configs)

    # --verify-opt: every per-kernel pipeline runs under a translation
    # validator (imported here: repro.analysis's linter imports this module)
    verify_opt = compiler.verify_opt
    if verify_opt:
        from repro.analysis.transval import make_validator
    label_ids = and_spec.label_ids()
    with step("host-opt"):
        host_stats = stats.setdefault("host", PassStats())
        for fn in module.kernels():
            validator = (
                make_validator(module, fn, label_ids=label_ids) if verify_opt else None
            )
            optimize_host(
                fn, host_stats, trace=trace, opt_level=opt_level, validator=validator
            )
    with step("versioning"):
        versions = version_module(module, and_spec)

    profile = compiler.profile
    # Arch-specific transformation: split register arrays when the chip
    # allows fewer accesses per array than the kernels make.
    want_split = compiler.split_arrays is True or (
        compiler.split_arrays == "auto"
        and profile is not None
        and profile.max_register_accesses_per_array <= 4
    )
    split_info: Dict[str, list] = {}
    with step("switch-opt"):
        for version in versions:
            loc_stats = stats.setdefault(version.label, PassStats())
            for fn in version.module.kernels(ir.FunctionKind.OUT_KERNEL):
                ext = window_configs[fn.name].ext
                validator = make_validator(
                    version.module,
                    fn,
                    window_spec=ext,
                    label_ids=label_ids,
                    location_id=label_ids.get(version.label, 0),
                ) if verify_opt else None
                optimize_switch(
                    fn, ext, loc_stats, trace=trace, stage=version.label,
                    opt_level=opt_level, validator=validator,
                )
            if want_split:
                splits = split_register_arrays(
                    version.module, profile.max_register_accesses_per_array
                )
                if splits:
                    split_info[version.label] = splits

    switch_modules = {version.label: version.module for version in versions}
    with step("codegen+backend"):
        switch_programs, switch_sources, reports = generate_switch_programs(
            module.name, switch_modules, layouts, label_ids, profile
        )

    # sema's in -> out pairing (S4.1), recorded once for the runtime
    paired = {name: unit.paired_out_kernel(name) for name in sorted(unit.in_kernels)}
    program = CompiledProgram(
        ref_module=module,
        pairs={name: out.name for name, out in paired.items() if out is not None},
        and_spec=and_spec,
        layouts=layouts,
        window_configs=window_configs,
        switch_programs=switch_programs,
        switch_sources=switch_sources,
        reports=reports,
        stats=stats,
        stage_times=stage_times,
        profile=profile,
        source=source,
        split_info=split_info,
        compile_trace=trace,
        opt_level=opt_level,
        switch_modules=switch_modules,
    )
    program.host_module, program.host_errors = host_module, host_errors
    return program


# ---------------------------------------------------------------------------
# Helpers (the linter reuses required_labels and default_and)
# ---------------------------------------------------------------------------


def generate_switch_programs(
    name: str,
    switch_modules: Dict[str, ir.Module],
    layouts: Dict[str, KernelLayout],
    label_ids: Dict[str, int],
    profile: ArchProfile,
) -> Tuple[Dict[str, P4Program], Dict[str, str], Dict[str, AcceptanceReport]]:
    """The ``codegen+backend`` step: each switch's P4 program (codegen +
    template merge), its printed text and the backend's acceptance
    report, all functions of its optimized NIR. A loaded artifact
    (:func:`repro.nclc.artifact.load_program`) rebuilds them here too."""
    programs, sources, reports = {}, {}, {}
    for label, switch_module in switch_modules.items():
        kernels = [
            (fn, layouts[fn.name])
            for fn in switch_module.kernels(ir.FunctionKind.OUT_KERNEL)
        ]
        program = build_switch_program(
            switch_module, kernels, label_ids, name=f"{name}_{label}"
        )
        programs[label] = program
        sources[label] = print_program(program)
        reports[label] = check_program(program, profile)
    return programs, sources, reports


def required_labels(unit: TranslationUnit) -> List[str]:
    labels = []
    for info in unit.out_kernels.values():
        if info.at_label:
            labels.append(info.at_label)
    for gvar in (
        list(unit.net_globals.values())
        + list(unit.ctrl_vars.values())
        + list(unit.maps.values())
        + list(unit.blooms.values())
    ):
        if gvar.at_label:
            labels.append(gvar.at_label)
    return sorted(set(labels))


def default_and(required: List[str]) -> AndSpec:
    """Synthesize a chain AND when the program does not supply one:
    h0 -- s1 -- ... -- h1, with one switch per required label."""
    spec = AndSpec()
    spec.add_host("h0")
    labels = required or ["s1"]
    for label in labels:
        spec.add_switch(label)
    spec.add_host("h1")
    prev = "h0"
    for label in labels:
        spec.add_link(prev, label)
        prev = label
    spec.add_link(prev, "h1")
    return spec


def resolve_window_configs(unit: TranslationUnit, windows):
    windows = dict(windows or {})
    configs = {}
    ext_fields = [name for name, _ in unit.window_fields[3:]]  # skip builtins
    for name, info in unit.out_kernels.items():
        config = windows.pop(name, None)
        if config is None:
            config = WindowConfig(mask=(1,) * len(info.data_params))
        if len(config.mask) != len(info.data_params):
            raise RuntimeApiError(
                f"kernel {name!r}: window mask {config.mask} does not match "
                f"its {len(info.data_params)} data parameters"
            )
        missing = [f for f in ext_fields if f not in config.ext]
        if missing:
            raise RuntimeApiError(
                f"kernel {name!r}: window extension fields {missing} need "
                "compile-time values (pass them in WindowConfig.ext)"
            )
        configs[name] = config
    if windows:
        raise RuntimeApiError(
            f"window configs for unknown kernels: {sorted(windows)}"
        )
    return configs


def build_layouts(module: ir.Module, configs) -> Dict[str, KernelLayout]:
    """Each outgoing kernel's wire layout, from its signature in the
    reference module and its window config (ids in name order)."""
    layouts: Dict[str, KernelLayout] = {}
    ext_fields = module.window_fields[3:]  # user extension fields only
    out_kernels = {fn.name: fn for fn in module.kernels(ir.FunctionKind.OUT_KERNEL)}
    for kid, name in enumerate(sorted(out_kernels), start=1):
        params = [(p.name, p.ty) for p in out_kernels[name].params if not p.ext]
        layouts[name] = layout_for_kernel(
            kid, name, params, configs[name].mask, ext_fields
        )
    return layouts
