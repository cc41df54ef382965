"""nclc -- the NCL compiler driver (the paper's Fig 6 trajectory).

The steps (run in order by :func:`repro.nclc.pm.compile_program`)::

    NCL source ──lex/parse/sema──> TranslationUnit        ("frontend")
        │
        ├── host pipeline:  lower -> SSA -> early opts        (ref module)
        │                   lower host functions               (host module)
        │
        └── device pipeline:
              lower -> conformance check           (stage 1)
              per-AND-switch IR versioning          (stage 2)
              window specialization + full unroll
                + constfold/GVN/DCE/simplify        (stage 3)
              P4 codegen + template merge           (stage 4)
              backend accept/reject per profile

The *window configuration* pins each outgoing kernel's mask (elements
per array per window) and static window-extension fields at compile
time -- the paper's prototype scope ("windows that fit a packet", S6).

The driver owns three policies on top of the compile:

* ``opt_level`` selects the ``-O0/-O1/-O2`` pipeline presets (see
  :mod:`repro.nir.passes`);
* an optional :class:`repro.nclc.cache.ArtifactCache` short-circuits the
  whole run on a content-address hit, returning the cached
  :class:`CompiledProgram` deserialized from its artifact JSON (an entry
  that does not load is a miss, rebuilt and overwritten);
* :class:`CompiledProgram` serializes to the versioned ``repro.nclc/2``
  artifact (:meth:`CompiledProgram.save` / :meth:`CompiledProgram.load`)
  so runtimes and benchmarks can run precompiled programs. The artifact
  holds the compile's inputs and the NIR it produced; loading rebuilds
  the layouts, the P4 programs, their text and the reports with the
  compile's own code (:func:`repro.nclc.pm.build_layouts`,
  :func:`repro.nclc.pm.generate_switch_programs`), so a loaded program
  and a fresh one have the same shape.
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional, Sequence, Union

from repro.andspec.model import AndSpec
from repro.errors import ArtifactError, RuntimeApiError
from repro.ncp.wire import KernelLayout
from repro.nir import ir
from repro.nir.passes import PassStats
from repro.p4.backend import AcceptanceReport
from repro.p4.model import P4Program
from repro.pisa.arch import ArchProfile, profile_by_name


class WindowConfig:
    """Compile-time window geometry for one outgoing kernel."""

    def __init__(
        self,
        mask: Sequence[int] = (1,),
        ext: Optional[Mapping[str, int]] = None,
    ):
        self.mask = tuple(int(m) for m in mask)
        self.ext = dict(ext or {})

    def __repr__(self) -> str:
        return f"WindowConfig(mask={self.mask}, ext={self.ext})"


class CompiledProgram:
    """Everything the runtime needs to deploy and drive the program."""

    def __init__(
        self,
        ref_module: ir.Module,
        pairs: Dict[str, str],
        and_spec: AndSpec,
        layouts: Dict[str, KernelLayout],
        window_configs: Dict[str, WindowConfig],
        switch_programs: Dict[str, P4Program],
        switch_sources: Dict[str, str],
        reports: Dict[str, AcceptanceReport],
        stats: Dict[str, PassStats],
        stage_times: Dict[str, float],
        profile: ArchProfile,
        source: str,
        split_info: Optional[Dict[str, list]] = None,
        compile_trace=None,
        opt_level: int = 2,
        switch_modules: Optional[Dict[str, ir.Module]] = None,
    ):
        #: the reference NIR module; its kernels' signatures are the ones
        #: the runtime reads
        self.ref_module = ref_module
        #: incoming kernel -> the outgoing kernel sema paired it with (S4.1)
        self.pairs = pairs
        self.and_spec = and_spec
        self.layouts = layouts
        self.window_configs = window_configs
        self.switch_programs = switch_programs
        self.switch_sources = switch_sources
        self.reports = reports
        self.stats = stats
        self.stage_times = stage_times
        self.profile = profile
        self.source = source
        #: the per-pass timing/IR-size trace, when the caller compiled
        #: with one (see repro.obs.CompileTrace / ``nclc --timing``)
        self.compile_trace = compile_trace
        #: per-location register splits performed by the arch-specific
        #: transformation (label -> [SplitInfo])
        self.split_info = dict(split_info or {})
        #: the -O level this program was compiled at
        self.opt_level = opt_level
        #: per-location optimized switch NIR (label -> Module); feeds
        #: differential testing and the serialized artifact
        self.switch_modules = dict(switch_modules or {})
        #: ref_module's functions lowered to Python (repro.nir.pygen), shared
        #: by every host; safe to keep because no pass runs on them any more
        self.lowered: Dict[ir.Function, object] = {}
        #: the host functions (repro.nir.lower.lower_host; None when there
        #: are none) that repro.runtime.HostProgram runs, and why each host
        #: function missing from it did not lower
        self.host_module: Optional[ir.Module] = None
        self.host_errors: Dict[str, str] = {}
        #: absint_facts() / effect_summaries(), computed on first request and
        #: kept for the same reason: the switch modules no longer change
        self._absint_facts: Optional[dict] = None
        self._effect_summaries: Optional[dict] = None
        self.kernel_ids = {name: lo.kernel_id for name, lo in layouts.items()}
        self.kernel_by_id = {lo.kernel_id: name for name, lo in layouts.items()}

    @property
    def label_ids(self) -> Dict[str, int]:
        return self.and_spec.label_ids()

    def layout_by_id(self, kernel_id: int) -> KernelLayout:
        name = self.kernel_by_id.get(kernel_id)
        if name is None:
            raise RuntimeApiError(f"unknown kernel id {kernel_id}")
        return self.layouts[name]

    def paired_in_kernel(self, out_kernel: str) -> Optional[str]:
        """The incoming kernel paired with an outgoing one (S4.1)."""
        for in_kernel, paired in self.pairs.items():
            if paired == out_kernel:
                return in_kernel
        return None

    # -- per-switch analyses of the optimized kernels ------------------------
    # Computed from ``switch_modules``, so they work on cache hits and
    # loaded artifacts alike.

    def _per_switch(self, analyze):
        label_ids = self.label_ids
        return {
            label: analyze(self.switch_modules[label], label_ids=label_ids)
            for label in sorted(self.switch_modules)
        }

    def _render_per_switch(self, what: str, per_switch, render) -> str:
        return "\n".join(
            f"; ===== switch {label} ({what}, -O{self.opt_level}) =====\n"
            + render(result)
            for label, result in per_switch.items()
        )

    def absint_facts(self):
        """Per-switch abstract-interpretation facts (value ranges + known
        bits): label -> {fn name -> facts}."""
        from repro.analysis.absint import analyze_module

        if self._absint_facts is None:
            self._absint_facts = self._per_switch(analyze_module)
        return self._absint_facts

    def render_absint(self) -> str:
        """Byte-deterministic dump of :meth:`absint_facts` (the output of
        ``nclc build --emit absint``, golden-tested)."""
        from repro.analysis.absint import render_module_facts

        return self._render_per_switch(
            "absint facts", self.absint_facts(), render_module_facts
        )

    def effect_summaries(self):
        """Per-switch kernel effect summaries (replay-safety lattice:
        idempotent / commutative-monoid / unsafe-on-replay, plus dedup
        guards): label -> {fn name -> KernelEffects}."""
        from repro.analysis.effects import analyze_module_effects

        if self._effect_summaries is None:
            self._effect_summaries = self._per_switch(analyze_module_effects)
        return self._effect_summaries

    def render_effects(self) -> str:
        """Byte-deterministic dump of :meth:`effect_summaries` (the
        output of ``nclc build --emit effects``, golden-tested)."""
        from repro.analysis.effects import render_module_effects

        return self._render_per_switch(
            "effect summaries", self.effect_summaries(), render_module_effects
        )

    # -- the repro.nclc/2 artifact ------------------------------------------

    def to_json(self) -> str:
        """Serialize to canonical (byte-stable) ``repro.nclc/2`` JSON."""
        from repro.nclc.artifact import dump_program

        return dump_program(self)

    def save(self, path) -> None:
        """Write the ``repro.nclc/2`` artifact JSON to *path*."""
        import pathlib

        pathlib.Path(path).write_text(self.to_json())

    @classmethod
    def from_json(cls, text: str) -> "CompiledProgram":
        from repro.nclc.artifact import load_program

        return load_program(text)

    @classmethod
    def load(cls, path) -> "CompiledProgram":
        """Reconstruct a program from a saved artifact; the result drives
        the runtime/cluster without re-invoking the frontend."""
        import pathlib

        return cls.from_json(pathlib.Path(path).read_text())

    def __repr__(self) -> str:
        return (
            f"CompiledProgram({len(self.layouts)} kernels, "
            f"{len(self.switch_programs)} switch programs)"
        )


class Compiler:
    def __init__(
        self,
        profile: Union[str, ArchProfile, None] = None,
        split_arrays: Union[bool, str] = "auto",
        opt_level: int = 2,
        cache=None,
        verify_opt: bool = False,
    ):
        from repro.nir.passes import OPT_LEVELS

        if isinstance(profile, ArchProfile):
            self.profile = profile
        else:
            self.profile = profile_by_name(profile)
        # "auto": split register arrays only when the chip's access
        # discipline demands it; True/False force the behaviour.
        self.split_arrays = split_arrays
        if opt_level not in OPT_LEVELS:
            raise RuntimeApiError(
                f"unknown opt level {opt_level!r} (have {OPT_LEVELS})"
            )
        self.opt_level = opt_level
        #: optional repro.nclc.cache.ArtifactCache consulted per compile
        self.cache = cache
        #: translation-validate every optimization pass (--verify-opt)
        self.verify_opt = verify_opt

    def compile(
        self,
        source: str,
        and_text: Optional[str] = None,
        windows: Optional[Mapping[str, WindowConfig]] = None,
        defines: Optional[Mapping[str, int]] = None,
        filename: str = "<ncl>",
        trace=None,
        sink=None,
    ) -> CompiledProgram:
        """Compile *source*. Pass a :class:`repro.obs.CompileTrace` as
        ``trace`` to additionally record per-pass wall time and IR-size
        deltas (the coarse per-stage times are always collected); pass a
        :class:`repro.diag.DiagnosticSink` as ``sink`` for structured
        pass-failure diagnostics."""
        from repro.nclc import pm

        cache_key = None
        if self.cache is not None:
            cache_key = self.cache.key_for(
                source=source,
                and_text=and_text,
                windows=windows,
                defines=defines,
                profile=self.profile,
                opt_level=self.opt_level,
                split_arrays=self.split_arrays,
            )
        # A cache hit would skip the optimization passes entirely, so
        # there would be nothing for the validator to check; verified
        # builds always run the pipeline (and still publish).
        if cache_key is not None and not self.verify_opt:
            program = None
            text = self.cache.get(cache_key)
            if text is not None:
                try:
                    program = CompiledProgram.from_json(text)
                except ArtifactError:
                    pass  # truncated or stale: a miss, overwritten below
            self.cache.count("miss" if program is None else "hit", cache_key, trace)
            if program is not None:
                return program

        program = pm.compile_program(
            self, source, and_text, windows, defines, filename, trace, sink
        )
        if cache_key is not None:
            self.cache.put(cache_key, program.to_json())
        return program
