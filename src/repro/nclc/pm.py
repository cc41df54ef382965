"""The nclc pass manager.

The compile path is an explicit pipeline of *registered* passes, the
shape LLVM's ``PassBuilder`` gives a compiler: every stage of the
paper's Fig 6 trajectory (frontend lex -> parse -> sema -> conformance,
the per-kernel NIR pipelines, and the backend and-mapping -> codegen ->
P4 emission) is a named :class:`CompilePass` with declared inputs and
outputs, run by a :class:`PassManager` over a :class:`PipelineContext`.

Why this shape (vs the former ~140-line monolithic ``Compiler.compile``):

* pipelines are *data* -- the ``-O0/-O1/-O2`` presets select per-kernel
  NIR pass lists by name, and the full pipeline fingerprints into the
  artifact-cache key (:mod:`repro.nclc.cache`), so a pipeline change
  invalidates cached artifacts exactly like a source change;
* per-pass wall time is emitted uniformly by the manager (the
  :class:`repro.obs.CompileTrace` integration is in one place, not
  sprinkled through the driver);
* passes report failures through a :class:`repro.diag.DiagnosticSink`
  when one is supplied, so tooling sees structured diagnostics;
* ``requires``/``provides`` are checked as the pipeline runs: a pass
  asking for a key no earlier pass put on the blackboard is a
  :class:`PipelineError`, not a ``KeyError`` three calls deep.

The registry here covers the driver-level (module/program) passes; the
function-level NIR passes have their own registry in
:mod:`repro.nir.passes` and are driven per kernel by the ``host-opt``
and ``switch-opt`` passes below.
"""

from __future__ import annotations

import hashlib
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.andspec.model import parse_and
from repro.errors import PipelineError, ReproError
from repro.ncl.parser import Parser
from repro.ncl.lexer import tokenize
from repro.ncl.sema import TranslationUnit, analyze
from repro.ncp.wire import KernelLayout, layout_for_kernel
from repro.nir import ir
from repro.nir.lower import lower_unit
from repro.nir.passes import (
    PassStats,
    host_pipeline,
    run_function_pipeline,
    switch_pipeline,
)
from repro.p4.backend import check_program
from repro.p4.printer import print_program
from repro.nclc.codegen import build_switch_program
from repro.nclc.conformance import check_module
from repro.nclc.versioning import version_module

#: Version string baked into every artifact and cache key. Bump on any
#: change that alters generated artifacts without changing pass names.
NCLC_VERSION = "nclc-1.1.0"


class PipelineContext:
    """Everything the passes read and write during one compilation.

    ``artifacts`` is the blackboard: passes declare which keys they
    require/provide. ``options`` carries the compiler configuration
    (profile, opt_level, max_unroll, split_arrays).
    """

    def __init__(
        self,
        source: str,
        filename: str = "<ncl>",
        defines=None,
        and_text: Optional[str] = None,
        windows=None,
        options: Optional[Dict[str, object]] = None,
        trace=None,
        sink=None,
    ):
        self.artifacts: Dict[str, object] = {
            "source": source,
            "filename": filename,
            "defines": dict(defines or {}),
            "and_text": and_text,
            "windows_in": windows,
        }
        self.options: Dict[str, object] = dict(options or {})
        self.trace = trace
        self.sink = sink
        self.stage_times: Dict[str, float] = {}
        self.stats: Dict[str, PassStats] = {}

    # -- blackboard access ---------------------------------------------------

    def get(self, key: str):
        if key not in self.artifacts:
            raise PipelineError(f"pipeline artifact {key!r} not produced yet")
        return self.artifacts[key]

    def put(self, key: str, value) -> None:
        self.artifacts[key] = value

    def opt(self, key: str, default=None):
        return self.options.get(key, default)


class CompilePass:
    """One registered driver-level pass.

    ``requires``/``provides`` name blackboard keys; the manager refuses
    to run a pass whose required keys no earlier pass has put there.
    """

    def __init__(
        self,
        name: str,
        fn: Callable[[PipelineContext], None],
        requires: Sequence[str] = (),
        provides: Sequence[str] = (),
        about: str = "",
        trace_stage: Optional[str] = "",
    ):
        self.name = name
        self.fn = fn
        self.requires = tuple(requires)
        self.provides = tuple(provides)
        self.about = about
        #: the coarse stage this pass reports under (CompileTrace stage
        #: records and ``stage_times`` keys); "" means "own name", None
        #: means untimed-in-trace (bookkeeping passes).
        self.trace_stage = name if trace_stage == "" else trace_stage


COMPILE_PASSES: Dict[str, CompilePass] = {}


def register_compile_pass(
    name: str,
    requires: Sequence[str] = (),
    provides: Sequence[str] = (),
    about: str = "",
    trace_stage: Optional[str] = "",
):
    """Decorator registering a driver-level pass under a stable name."""

    def deco(fn: Callable[[PipelineContext], None]):
        if name in COMPILE_PASSES:
            raise PipelineError(f"duplicate compile pass {name!r}")
        COMPILE_PASSES[name] = CompilePass(
            name, fn, requires, provides, about, trace_stage
        )
        return fn

    return deco


class PassManager:
    """Runs a named pipeline of compile passes over a context.

    Per-pass wall time lands in ``ctx.stage_times`` (and the
    :class:`repro.obs.CompileTrace`, when one rides along); failures are
    reported through the context's diagnostic sink before propagating.
    """

    def __init__(self, pipeline: Sequence[str]):
        unknown = [n for n in pipeline if n not in COMPILE_PASSES]
        if unknown:
            raise PipelineError(f"unknown compile passes: {unknown}")
        self.pipeline = list(pipeline)

    def run(self, ctx: PipelineContext) -> PipelineContext:
        # Consecutive passes sharing a trace stage become ONE coarse
        # CompileTrace stage record (lex/parse/sema -> "frontend"),
        # preserving the driver's historical stage trajectory.
        for stage, group in self._grouped():
            if stage is not None and ctx.trace is not None:
                with ctx.trace.stage(stage):
                    for cpass in group:
                        self._run_one(cpass, ctx)
            else:
                for cpass in group:
                    self._run_one(cpass, ctx)
        return ctx

    # -- internals -----------------------------------------------------------

    def _grouped(self) -> List[Tuple[Optional[str], List[CompilePass]]]:
        groups: List[Tuple[Optional[str], List[CompilePass]]] = []
        for name in self.pipeline:
            cpass = COMPILE_PASSES[name]
            stage = cpass.trace_stage
            if groups and groups[-1][0] == stage and stage is not None:
                groups[-1][1].append(cpass)
            else:
                groups.append((stage, [cpass]))
        return groups

    def _run_one(self, cpass: CompilePass, ctx: PipelineContext) -> None:
        for key in cpass.requires:
            if key not in ctx.artifacts:
                raise PipelineError(
                    f"pass {cpass.name!r} requires {key!r}, which no earlier "
                    "pass produced"
                )
        t0 = time.perf_counter()
        try:
            cpass.fn(ctx)
        except ReproError as exc:
            if ctx.sink is not None:
                ctx.sink.error(
                    "NCL0990",
                    f"compile pass {cpass.name!r} failed: {exc}",
                    loc=getattr(exc, "loc", None),
                )
            raise
        finally:
            wall = time.perf_counter() - t0
            key = cpass.trace_stage or cpass.name
            ctx.stage_times[key] = ctx.stage_times.get(key, 0.0) + wall


# ---------------------------------------------------------------------------
# Pipeline presets
# ---------------------------------------------------------------------------

#: The full build pipeline; identical pass *names* at every -O level --
#: the opt level parameterizes the per-kernel NIR pipelines inside
#: host-opt and switch-opt (see repro.nir.passes.HOST_PIPELINES).
BUILD_PASSES: Tuple[str, ...] = (
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


def build_pipeline(opt_level: int = 2) -> List[str]:
    """The preset driver pipeline for one ``-O`` level."""
    # Validates the level early (raises on unknown levels).
    switch_pipeline(opt_level)
    return list(BUILD_PASSES)


def pipeline_fingerprint(opt_level: int, extra: Sequence[str] = ()) -> str:
    """A stable digest of everything that determines what the pipeline
    *does*: driver pass names, the per-kernel NIR pass lists for this
    opt level, and the compiler version. Cache keys include this, so a
    pipeline or version change misses the cache exactly like a source
    change."""
    h = hashlib.sha256()
    h.update(NCLC_VERSION.encode())
    h.update(b"|driver:" + ",".join(build_pipeline(opt_level)).encode())
    h.update(b"|host:" + ",".join(host_pipeline(opt_level)).encode())
    h.update(b"|switch:" + ",".join(switch_pipeline(opt_level)).encode())
    for item in extra:
        h.update(b"|" + str(item).encode())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# The registered passes
# ---------------------------------------------------------------------------


@register_compile_pass(
    "lex",
    requires=("source",),
    provides=("tokens",),
    about="tokenize NCL source (applies -D defines)",
    trace_stage="frontend",
)
def _pass_lex(ctx: PipelineContext) -> None:
    ctx.put(
        "tokens",
        tokenize(ctx.get("source"), ctx.get("filename"), ctx.get("defines")),
    )


@register_compile_pass(
    "parse",
    requires=("tokens",),
    provides=("ast",),
    about="parse the token stream into the NCL AST",
    trace_stage="frontend",
)
def _pass_parse(ctx: PipelineContext) -> None:
    ctx.put("ast", Parser(ctx.get("tokens")).parse_program())


@register_compile_pass(
    "sema",
    requires=("ast",),
    provides=("unit",),
    about="semantic analysis: the TranslationUnit",
    trace_stage="frontend",
)
def _pass_sema(ctx: PipelineContext) -> None:
    ctx.put("unit", analyze(ctx.get("ast")))


@register_compile_pass(
    "irgen",
    requires=("unit",),
    provides=("module",),
    about="lower the TranslationUnit to NIR",
)
def _pass_irgen(ctx: PipelineContext) -> None:
    ctx.put("module", lower_unit(ctx.get("unit")))


@register_compile_pass(
    "and-resolve",
    requires=("unit",),
    provides=("and_spec",),
    about="parse/synthesize and validate the AND overlay",
    trace_stage=None,
)
def _pass_and_resolve(ctx: PipelineContext) -> None:
    unit: TranslationUnit = ctx.get("unit")
    required = required_labels(unit)
    and_text = ctx.get("and_text")
    spec = parse_and(and_text) if and_text is not None else default_and(required)
    spec.validate(required)
    ctx.put("and_spec", spec)


@register_compile_pass(
    "conformance",
    requires=("module", "and_spec"),
    provides=("conformance-ok",),
    about="stage-1 conformance check (paper S5)",
)
def _pass_conformance(ctx: PipelineContext) -> None:
    check_module(ctx.get("module"), ctx.get("and_spec"))
    ctx.put("conformance-ok", True)


@register_compile_pass(
    "windows",
    requires=("unit",),
    provides=("window_configs", "layouts"),
    about="pin window geometry and derive NCP kernel layouts",
    trace_stage=None,
)
def _pass_windows(ctx: PipelineContext) -> None:
    unit: TranslationUnit = ctx.get("unit")
    configs = resolve_window_configs(unit, ctx.get("windows_in"))
    ctx.put("window_configs", configs)
    ctx.put("layouts", build_layouts(unit, configs))


@register_compile_pass(
    "host-opt",
    requires=("module", "conformance-ok"),
    provides=("host-opt-done",),
    about="per-kernel host NIR pipeline (reference module)",
)
def _pass_host_opt(ctx: PipelineContext) -> None:
    module: ir.Module = ctx.get("module")
    opt_level = int(ctx.opt("opt_level", 2))
    host_stats = ctx.stats.setdefault("host", PassStats())
    label_ids = _verify_opt_label_ids(ctx)
    for fn in module.kernels():
        validator = None
        if ctx.opt("verify_opt"):
            from repro.analysis.transval import make_validator

            validator = make_validator(module, fn, label_ids=label_ids)
        run_function_pipeline(
            fn,
            host_pipeline(opt_level),
            stats=host_stats,
            trace=ctx.trace,
            stage="host",
            validator=validator,
        )
    ctx.put("host-opt-done", True)


def _verify_opt_label_ids(ctx: PipelineContext):
    """Label->id map for the --verify-opt interpreter runs (the AND is
    resolved before either opt pass, but only consult it when needed)."""
    if not ctx.opt("verify_opt"):
        return None
    return ctx.get("and_spec").label_ids()


@register_compile_pass(
    "versioning",
    requires=("module", "and_spec", "host-opt-done"),
    provides=("versions",),
    about="per-AND-switch IR versioning (stage 2)",
)
def _pass_versioning(ctx: PipelineContext) -> None:
    ctx.put("versions", version_module(ctx.get("module"), ctx.get("and_spec")))


@register_compile_pass(
    "switch-opt",
    requires=("versions", "window_configs", "layouts"),
    provides=("compiled_kernels", "split_info", "switch_modules"),
    about="per-kernel switch NIR pipeline + register-array splitting",
)
def _pass_switch_opt(ctx: PipelineContext) -> None:
    opt_level = int(ctx.opt("opt_level", 2))
    max_unroll = int(ctx.opt("max_unroll", 4096))
    window_configs = ctx.get("window_configs")
    layouts: Dict[str, KernelLayout] = ctx.get("layouts")
    profile = ctx.opt("profile")
    split_arrays = ctx.opt("split_arrays", "auto")

    compiled: Dict[str, List[Tuple[ir.Function, KernelLayout]]] = {}
    split_info: Dict[str, list] = {}
    switch_modules: Dict[str, ir.Module] = {}
    for version in ctx.get("versions"):
        loc_stats = ctx.stats.setdefault(version.label, PassStats())
        kernels: List[Tuple[ir.Function, KernelLayout]] = []
        for fn in version.module.kernels(ir.FunctionKind.OUT_KERNEL):
            config = window_configs[fn.name]
            pipeline = list(switch_pipeline(opt_level))
            if not config.ext:
                pipeline = [p for p in pipeline if p != "specialize-window"]
            validator = None
            if ctx.opt("verify_opt"):
                from repro.analysis.transval import make_validator

                label_ids = _verify_opt_label_ids(ctx)
                validator = make_validator(
                    version.module,
                    fn,
                    window_spec=config.ext,
                    label_ids=label_ids,
                    location_id=label_ids.get(version.label, 0),
                )
            run_function_pipeline(
                fn,
                pipeline,
                stats=loc_stats,
                trace=ctx.trace,
                stage=version.label,
                options={"window_spec": config.ext, "max_trips": max_unroll},
                validator=validator,
            )
            kernels.append((fn, layouts[fn.name]))
        # Arch-specific transformation: split register arrays when the
        # chip allows fewer accesses per array than the kernels make.
        want_split = split_arrays is True or (
            split_arrays == "auto"
            and profile is not None
            and profile.max_register_accesses_per_array <= 4
        )
        if want_split:
            from repro.nir.passes import split_register_arrays

            splits = split_register_arrays(
                version.module, profile.max_register_accesses_per_array
            )
            if splits:
                split_info[version.label] = splits
        compiled[version.label] = kernels
        switch_modules[version.label] = version.module
    ctx.put("compiled_kernels", compiled)
    ctx.put("split_info", split_info)
    ctx.put("switch_modules", switch_modules)


@register_compile_pass(
    "codegen+backend",
    requires=("module", "versions", "compiled_kernels", "and_spec"),
    provides=("switch_programs", "switch_sources", "reports"),
    about="P4 codegen, template merge, backend accept/reject",
)
def _pass_codegen(ctx: PipelineContext) -> None:
    module: ir.Module = ctx.get("module")
    and_spec = ctx.get("and_spec")
    compiled = ctx.get("compiled_kernels")
    profile = ctx.opt("profile")
    label_ids = and_spec.label_ids()
    switch_programs = {}
    switch_sources = {}
    reports = {}
    for version in ctx.get("versions"):
        program = build_switch_program(
            version.module,
            compiled[version.label],
            label_ids,
            name=f"{module.name}_{version.label}",
        )
        switch_programs[version.label] = program
        switch_sources[version.label] = print_program(program)
        reports[version.label] = check_program(program, profile)
    ctx.put("switch_programs", switch_programs)
    ctx.put("switch_sources", switch_sources)
    ctx.put("reports", reports)


# ---------------------------------------------------------------------------
# Helpers shared with the driver
# ---------------------------------------------------------------------------


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


def default_and(required: List[str]):
    """Synthesize a chain AND when the program does not supply one:
    h0 -- s1 -- ... -- h1, with one switch per required label."""
    from repro.andspec.model import AndSpec

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
    from repro.errors import RuntimeApiError
    from repro.nclc.driver import WindowConfig

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


def build_layouts(unit: TranslationUnit, configs) -> Dict[str, KernelLayout]:
    layouts: Dict[str, KernelLayout] = {}
    ext_fields = unit.window_fields[3:]  # user extension fields only
    for kid, name in enumerate(sorted(unit.out_kernels), start=1):
        info = unit.out_kernels[name]
        params = [(p.name, p.ty) for p in info.data_params]
        layouts[name] = layout_for_kernel(
            kid, name, params, configs[name].mask, ext_fields
        )
    return layouts
