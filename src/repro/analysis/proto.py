"""The NCP protocol model checker (``nclc check-proto``).

Composes the kernel effect summaries of :mod:`repro.analysis.effects`
with a small **explicit-state model checker** that exhaustively explores
per-window NCP interleavings:

* ``send`` -- the host puts attempt 0 on the wire;
* ``deliver`` -- an in-flight attempt reaches the switch and the kernel
  executes (reorder is implicit: any in-flight attempt may deliver);
* ``drop`` -- an in-flight attempt is lost;
* ``duplicate`` -- the network duplicates an in-flight attempt;
* ``retransmit`` -- the host presumes loss and re-sends (attempt
  numbering as carried in the INT trailer -- the host *cannot* know
  whether the previous attempt already executed);
* ``restart`` -- a switch loses all register state and dedup marks.

The checked property is **at-most-once effect semantics** per window:
no non-idempotent shared-state update may apply twice to surviving
switch state. When the property fails, the checker emits the *minimal*
counterexample schedule (breadth-first search) as part of a
byte-deterministic ``repro.proto/1`` report; the schedule replays in
the simulator via :func:`replay_counterexample`, reproducing the
double-count on a real :class:`~repro.runtime.Cluster`.

The checks live in their own :class:`repro.analysis.Registry` instance,
run only by ``check-proto`` but listed by ``nclc lint --list-rules``
and folded into :func:`repro.diag.codes.all_codes`.
"""

from __future__ import annotations

import json
from collections import deque
from typing import Deque, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.analysis import Registry, Rule
from repro.analysis.effects import (
    KIND_IDEMPOTENT,
    KIND_MONOID,
    KIND_UNSAFE,
    KernelEffects,
    SymbolEffect,
)
from repro.diag import DiagnosticSink, Severity
from repro.diag.export import findings_block
from repro.errors import ReproError, SourceLocation
from repro.nclc.driver import CompiledProgram

SCHEMA = "repro.proto/1"

_GUARD_FIXIT = (
    "guard the update on a per-window dedup mark, e.g. "
    "`if (seen[window.seq & 63] == 0) { seen[window.seq & 63] = 1; ... }`"
)


# ---------------------------------------------------------------------------
# The explicit-state model checker
# ---------------------------------------------------------------------------


class TrackedSymbol:
    """A non-idempotent shared symbol the model must account for."""

    __slots__ = ("name", "guarded", "label", "guard_label", "grade")

    def __init__(self, name: str, guarded: bool, label: str,
                 guard_label: str, grade: str) -> None:
        self.name = name
        self.guarded = guarded
        self.label = label
        self.guard_label = guard_label
        self.grade = grade


class Counterexample:
    __slots__ = ("symbol", "applied", "schedule")

    def __init__(self, symbol: str, applied: int,
                 schedule: List[Dict[str, object]]) -> None:
        self.symbol = symbol
        self.applied = applied
        self.schedule = schedule

    def to_json(self) -> Dict[str, object]:
        return {
            "symbol": self.symbol,
            "applied": self.applied,
            "schedule": list(self.schedule),
        }


class ModelResult:
    __slots__ = ("kernel", "switch", "verdict", "counterexample",
                 "states_explored")

    def __init__(self, kernel: str, switch: str, verdict: str,
                 counterexample: Optional[Counterexample],
                 states_explored: int) -> None:
        self.kernel = kernel
        self.switch = switch
        self.verdict = verdict
        self.counterexample = counterexample
        self.states_explored = states_explored


# state tuple layout:
#   (sent, inflight attempts (sorted), retx_used, dup_used,
#    guard_marked, applied counts, restarted labels (sorted))
_State = Tuple[bool, Tuple[int, ...], int, bool, bool,
               Tuple[int, ...], Tuple[str, ...]]

_Action = Tuple[str, object]


def _actions(state: _State, max_retx: int, max_dup: int,
             labels: Sequence[str]) -> List[_Action]:
    sent, inflight, retx, dup, _marked, _applied, restarted = state
    out: List[_Action] = []
    if not sent:
        out.append(("send", 0))
        return out
    distinct = sorted(set(inflight))
    for pkt in distinct:
        out.append(("deliver", pkt))
    if retx < max_retx:
        out.append(("retransmit", retx + 1))
    if not dup:
        for pkt in distinct:
            out.append(("duplicate", pkt))
    for pkt in distinct:
        out.append(("drop", pkt))
    for label in labels:
        if label not in restarted:
            out.append(("restart", label))
    return out


def _apply(state: _State, action: _Action, tracked: Sequence[TrackedSymbol],
           has_guard: bool) -> _State:
    sent, inflight, retx, dup, marked, applied, restarted = state
    kind, arg = action
    if kind == "send":
        return (True, tuple(sorted(inflight + (0,))), retx, dup, marked,
                applied, restarted)
    if kind == "retransmit":
        attempt = int(arg)  # type: ignore[call-overload]
        return (sent, tuple(sorted(inflight + (attempt,))), attempt, dup,
                marked, applied, restarted)
    if kind == "duplicate":
        attempt = int(arg)  # type: ignore[call-overload]
        return (sent, tuple(sorted(inflight + (attempt,))), retx, True,
                marked, applied, restarted)
    if kind == "drop":
        attempt = int(arg)  # type: ignore[call-overload]
        remaining = list(inflight)
        remaining.remove(attempt)
        return (sent, tuple(remaining), retx, dup, marked, applied,
                restarted)
    if kind == "deliver":
        attempt = int(arg)  # type: ignore[call-overload]
        remaining = list(inflight)
        remaining.remove(attempt)
        new_applied = list(applied)
        for i, sym in enumerate(tracked):
            if sym.guarded and marked:
                continue  # the dedup guard absorbs the replay
            new_applied[i] = min(2, new_applied[i] + 1)
        return (sent, tuple(remaining), retx, dup, marked or has_guard,
                tuple(new_applied), restarted)
    if kind == "restart":
        label = str(arg)
        new_applied = list(applied)
        new_marked = marked
        for i, sym in enumerate(tracked):
            if sym.label == label:
                new_applied[i] = 0  # the state the effect lives in is gone
            if sym.guarded and sym.guard_label == label:
                new_marked = False  # ... but so may be the dedup mark
        return (sent, inflight, retx, dup, new_marked, tuple(new_applied),
                tuple(sorted(set(restarted) | {label})))
    raise ReproError(f"unknown model action {kind!r}")


def _schedule_entry(action: _Action) -> Dict[str, object]:
    kind, arg = action
    if kind == "restart":
        return {"action": "restart", "switch": arg}
    return {"action": kind, "attempt": arg}


def check_kernel_model(
    effects: KernelEffects,
    switch_label: str,
    symbol_labels: Optional[Dict[str, Optional[str]]] = None,
    max_retx: int = 1,
    max_dup: int = 1,
) -> ModelResult:
    """Exhaustively explore the window interleavings of one kernel.

    ``symbol_labels`` maps shared-symbol names to their pinned switch
    label (``None`` meaning "lives on the kernel's switch"); it defaults
    to the ``at_label`` recorded in the effect summary.
    """
    labels_of = dict(symbol_labels or {})

    def label_of(symbol: str) -> str:
        pinned = labels_of.get(symbol)
        if pinned is None:
            sym = effects.symbols.get(symbol)
            pinned = sym.at_label if sym is not None else None
        return pinned if pinned is not None else switch_label

    guard_labels = {g.symbol: label_of(g.symbol) for g in effects.guards}
    tracked: List[TrackedSymbol] = []
    for name in sorted(effects.symbols):
        sym = effects.symbols[name]
        if sym.kind == KIND_IDEMPOTENT or sym.kind == "none":
            continue
        guard_label = label_of(name)
        if sym.guarded and sym.sites and sym.sites[0].guard is not None:
            guard_label = guard_labels.get(
                sym.sites[0].guard.symbol, guard_label
            )
        tracked.append(TrackedSymbol(
            name, sym.guarded and not sym.partial_guard, label_of(name),
            guard_label, sym.grade,
        ))

    if not tracked:
        return ModelResult(effects.function, switch_label, effects.verdict,
                           None, 1)

    has_guard = bool(effects.guards)
    labels = sorted(
        {s.label for s in tracked}
        | {s.guard_label for s in tracked if s.guarded}
    )
    init: _State = (False, (), 0, False, False,
                    tuple(0 for _ in tracked), ())
    parents: Dict[_State, Tuple[_State, _Action]] = {}
    seen = {init}
    queue: Deque[_State] = deque([init])
    violation: Optional[Tuple[_State, int]] = None
    while queue and violation is None:
        state = queue.popleft()
        for action in _actions(state, max_retx, max_dup, labels):
            nxt = _apply(state, action, tracked, has_guard)
            if nxt in seen:
                continue
            seen.add(nxt)
            parents[nxt] = (state, action)
            for i, count in enumerate(nxt[5]):
                if count >= 2:
                    violation = (nxt, i)
                    break
            if violation is not None:
                break
            queue.append(nxt)

    if violation is None:
        return ModelResult(effects.function, switch_label, effects.verdict,
                           None, len(seen))

    end_state, sym_index = violation
    schedule: List[Dict[str, object]] = []
    cursor = end_state
    while cursor in parents:
        prev, action = parents[cursor]
        schedule.append(_schedule_entry(action))
        cursor = prev
    schedule.reverse()
    cx = Counterexample(tracked[sym_index].name, 2, schedule)
    return ModelResult(effects.function, switch_label, "unsafe", cx,
                       len(seen))


def check_models(
    summaries: Dict[str, Dict[str, KernelEffects]],
) -> Dict[Tuple[str, str], ModelResult]:
    """``(switch label, kernel) -> ModelResult`` for every kernel in a
    program's effect summaries, in sorted order."""
    return {
        (label, name): check_kernel_model(kernels[name], label)
        for label, kernels in sorted(summaries.items())
        for name in sorted(kernels)
    }


# ---------------------------------------------------------------------------
# The check-proto rule set (an instance of repro.analysis.Registry)
# ---------------------------------------------------------------------------


class ProtoContext:
    """Shared state for the transport-safety checks of one program."""

    def __init__(self, program: CompiledProgram,
                 sink: Optional[DiagnosticSink] = None) -> None:
        self.program = program
        self.sink = sink if sink is not None else DiagnosticSink()
        self._results: Optional[Dict[Tuple[str, str], ModelResult]] = None

    def effect_summaries(self) -> Dict[str, Dict[str, KernelEffects]]:
        return self.program.effect_summaries()

    def model_results(self) -> Dict[Tuple[str, str], ModelResult]:
        if self._results is None:
            self._results = check_models(self.effect_summaries())
        return self._results

    def kernels(
        self,
    ) -> Iterator[Tuple[str, str, KernelEffects, ModelResult]]:
        """``(switch label, kernel, its effects, its model result)`` for
        every kernel, in sorted order."""
        results = self.model_results()
        for label, kernels in sorted(self.effect_summaries().items()):
            for kname in sorted(kernels):
                yield label, kname, kernels[kname], results[(label, kname)]

    def symbols(
        self,
    ) -> Iterator[Tuple[str, str, KernelEffects, str, SymbolEffect]]:
        """``(switch label, kernel, its effects, symbol, its effect)`` for
        every shared symbol every kernel updates, in sorted order."""
        for label, kernels in sorted(self.effect_summaries().items()):
            for kname in sorted(kernels):
                eff = kernels[kname]
                for sname in sorted(eff.symbols):
                    yield label, kname, eff, sname, eff.symbols[sname]


ProtoCheck = Rule[ProtoContext]

#: the ``check-proto`` family; defined, hence run and listed, in name order
CHECKS: Registry[ProtoContext] = Registry("proto check", code_width=46)
register = CHECKS.register
all_checks = CHECKS.all


def run_checks(ctx: ProtoContext,
               checks: Optional[Sequence[ProtoCheck]] = None) -> None:
    """Run *checks* (default: all), then dedupe the sink."""
    CHECKS.run(ctx, checks)
    ctx.sink.dedupe()


@register
class EffectClassification(ProtoCheck):
    """NCL0850/NCL0851/NCL0852: unguarded non-idempotent updates."""

    name = "effects"
    codes = ("NCL0850", "NCL0851", "NCL0852")
    about = "classify kernel shared-state updates for replay safety"

    def run(self, ctx: ProtoContext) -> None:
        for _label, kname, _eff, sname, sym in ctx.symbols():
            for site in sym.sites:
                if site.guarded:
                    continue
                if site.kind == KIND_UNSAFE and "self" in site.deps:
                    report, code = ctx.sink.error, "NCL0850"
                    what = (
                        f"read-modify-write of switch memory {sname!r} is "
                        "unsafe on replay"
                    )
                    note = (
                        "a retransmitted window re-executes the kernel; this "
                        "update does not collapse or commute under re-execution"
                    )
                elif site.kind == KIND_UNSAFE:
                    report, code = ctx.sink.warning, "NCL0852"
                    what = (
                        f"overwrite of switch memory {sname!r} is not "
                        "replay-stable"
                    )
                    note = (
                        "re-executing the kernel on the same window bytes may "
                        "store a different value or target a different element"
                    )
                elif site.kind == KIND_MONOID:
                    report, code = ctx.sink.warning, "NCL0851"
                    what = (
                        "unguarded commutative fold into switch memory "
                        f"{sname!r}"
                    )
                    note = (
                        "replays of the same window accumulate (the classic "
                        "double-count); add a dedup guard or make the fold "
                        "idempotent"
                    )
                else:
                    continue
                report(
                    code,
                    f"kernel {kname!r}: {what}: {site.detail}",
                    loc=site.instr.loc,
                    notes=[note],
                    fixit=_GUARD_FIXIT,
                    rule=self.name,
                    status=site.grade,
                )


@register
class GuardCoverage(ProtoCheck):
    """NCL0853: a dedup guard that misses some update sites."""

    name = "guard-coverage"
    codes = ("NCL0853",)
    about = "every update of a guarded symbol must sit behind the guard"

    def run(self, ctx: ProtoContext) -> None:
        for _label, kname, _eff, sname, sym in ctx.symbols():
            if not sym.partial_guard:
                continue
            unguarded = [s for s in sym.sites if not s.guarded]
            ctx.sink.warning(
                "NCL0853",
                f"kernel {kname!r}: dedup guard covers only some updates of "
                f"{sname!r} ({len(sym.sites) - len(unguarded)} of "
                f"{len(sym.sites)} sites guarded)",
                loc=unguarded[0].instr.loc if unguarded else None,
                notes=[
                    "an update outside the guarded branch still re-executes "
                    "on replay",
                ],
                fixit="move every update of the symbol inside the guarded "
                "branch",
                rule=self.name,
                status="possible",
            )


@register
class RestartHazard(ProtoCheck):
    """NCL0855: guard mark and guarded effect on different switches."""

    name = "restart-hazard"
    codes = ("NCL0855",)
    about = "a dedup mark must restart together with the state it guards"

    def run(self, ctx: ProtoContext) -> None:
        for label, kname, eff, sname, sym in ctx.symbols():
            if sym.kind == KIND_IDEMPOTENT or not sym.guarded:
                continue
            guard = next(
                (s.guard for s in sym.sites if s.guard is not None), None
            )
            if guard is None:
                continue
            guard_sym = eff.symbols.get(guard.symbol)
            guard_label = (
                guard_sym.at_label
                if guard_sym is not None and guard_sym.at_label
                else self._global_label(ctx, label, guard.symbol)
            ) or label
            effect_label = sym.at_label or label
            if guard_label == effect_label:
                continue
            ctx.sink.warning(
                "NCL0855",
                f"kernel {kname!r}: dedup mark {guard.symbol!r} lives on "
                f"switch {guard_label!r} but the guarded update of "
                f"{sname!r} executes on {effect_label!r}",
                loc=sym.sites[0].instr.loc,
                notes=[
                    f"a restart of {guard_label!r} clears the mark but not "
                    "the effect: the next retransmit re-applies it",
                ],
                fixit="pin the mark register and the guarded state to the "
                "same _at_ label",
                rule=self.name,
                status="possible",
            )

    @staticmethod
    def _global_label(ctx: ProtoContext, label: str,
                      symbol: str) -> Optional[str]:
        module = ctx.program.switch_modules.get(label)
        if module is None:
            return None
        ref = module.globals.get(symbol)
        return ref.at_label if ref is not None else None


@register
class WindowModel(ProtoCheck):
    """NCL0854: the model checker found a violating schedule."""

    name = "window-model"
    codes = ("NCL0854",)
    about = "exhaustive window-interleaving search for double-applies"

    def run(self, ctx: ProtoContext) -> None:
        for label, kname, eff, result in ctx.kernels():
            cx = result.counterexample
            if cx is None:
                continue
            sym = eff.symbols.get(cx.symbol)
            loc: Optional[SourceLocation] = None
            grade = "possible"
            if sym is not None and sym.sites:
                loc = sym.sites[0].instr.loc
                grade = sym.grade
            steps = ", ".join(_describe_step(s) for s in cx.schedule)
            ctx.sink.error(
                "NCL0854",
                f"kernel {kname!r} on switch {label!r}: window "
                f"interleaving applies the update of {cx.symbol!r} "
                f"{cx.applied}x (at-most-once violated)",
                loc=loc,
                notes=[
                    f"minimal counterexample ({len(cx.schedule)} steps): "
                    f"{steps}",
                    "replay it in the simulator: nclc check-proto --json "
                    "| repro.analysis.proto.replay_counterexample",
                ],
                fixit=_GUARD_FIXIT,
                rule=self.name,
                status=grade,
            )


def _describe_step(step: Dict[str, object]) -> str:
    action = step.get("action")
    if action == "restart":
        return f"restart({step.get('switch')})"
    return f"{action}(a{step.get('attempt')})"


def check_program(program: CompiledProgram,
                  sink: Optional[DiagnosticSink] = None) -> ProtoContext:
    """Run every registered transport-safety check over a program."""
    ctx = ProtoContext(program, sink)
    run_checks(ctx)
    return ctx


# ---------------------------------------------------------------------------
# The repro.proto/1 report
# ---------------------------------------------------------------------------


def build_report(ctx: ProtoContext) -> Dict[str, object]:
    kernels: List[Dict[str, object]] = []
    for label, kname, eff, result in ctx.kernels():
        effects_json: List[Dict[str, object]] = []
        for sname in sorted(eff.symbols):
            sym = eff.symbols[sname]
            effects_json.append({
                "symbol": sym.name,
                "space": sym.space,
                "kind": sym.kind,
                "grade": sym.grade,
                "guarded": sym.guarded,
                "partial_guard": sym.partial_guard,
                "sites": [
                    {
                        "line": site.line,
                        "op": site.op,
                        "kind": site.kind,
                        "fold": site.fold,
                        "grade": site.grade,
                        "guarded": site.guarded,
                        "detail": site.detail,
                    }
                    for site in sorted(
                        sym.sites,
                        key=lambda s: (s.line, s.op, s.detail),
                    )
                ],
            })
        kernels.append({
            "kernel": kname,
            "switch": label,
            "guards": [
                {"style": g.style, "symbol": g.symbol, "grade": g.grade}
                for g in sorted(
                    eff.guards, key=lambda g: (g.symbol, g.style)
                )
            ],
            "effects": effects_json,
            "verdict": result.verdict,
            "states_explored": result.states_explored,
            "counterexample": (
                result.counterexample.to_json()
                if result.counterexample is not None
                else None
            ),
        })
    sink = ctx.sink
    return {
        "schema": SCHEMA,
        "opt_level": ctx.program.opt_level,
        "kernels": kernels,
        **findings_block(sink),
        "safe": not sink.has_errors,
    }


def render_report_json(ctx: ProtoContext) -> str:
    return json.dumps(build_report(ctx), indent=2, sort_keys=True) + "\n"


def render_report_text(ctx: ProtoContext) -> str:
    from repro.diag.render import SourceMap, render_text

    lines: List[str] = []
    for label, kname, eff, result in ctx.kernels():
        lines.append(f"== kernel {kname} @ {label}")
        for guard in sorted(eff.guards, key=lambda g: (g.symbol, g.style)):
            lines.append(
                f"  guard {guard.style} on {guard.symbol!r} ({guard.grade})"
            )
        for sname in sorted(eff.symbols):
            sym = eff.symbols[sname]
            note = (
                " guarded" if sym.guarded
                else " PARTIALLY-guarded" if sym.partial_guard
                else ""
            )
            lines.append(
                f"  effect {sym.space} {sym.name!r}: {sym.kind} "
                f"({sym.grade}){note}"
            )
        lines.append(
            f"  verdict: {result.verdict} "
            f"({result.states_explored} states explored)"
        )
        cx = result.counterexample
        if cx is not None:
            lines.append(
                f"  minimal counterexample "
                f"({len(cx.schedule)} steps, {cx.symbol!r} "
                f"applied {cx.applied}x):"
            )
            for i, step in enumerate(cx.schedule, 1):
                lines.append(f"    {i}. {_describe_step(step)}")
        lines.append("")
    diag_text = render_text(ctx.sink, SourceMap({}), summary=False)
    if diag_text.strip():
        lines.append(diag_text.rstrip("\n"))
        lines.append("")
    sink = ctx.sink
    if sink.has_errors:
        lines.append(
            f"transport-safety: UNSAFE "
            f"({sink.count(Severity.ERROR)} error(s), "
            f"{sink.count(Severity.WARNING)} warning(s))"
        )
    else:
        lines.append(
            f"transport-safety: SAFE "
            f"({sink.count(Severity.WARNING)} warning(s))"
        )
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Counterexample replay: drive a real Cluster through the schedule
# ---------------------------------------------------------------------------


def replay_counterexample(
    program: CompiledProgram,
    switch: str,
    kernel: str,
    schedule: Sequence[Dict[str, object]],
    chunk_value: int = 1,
) -> Dict[str, List[int]]:
    """Replay a model-checker schedule against the simulator.

    Builds a 1:1 :class:`~repro.runtime.Cluster` from the program and
    maps the abstract actions onto the real transport: ``send`` /
    ``retransmit`` / ``duplicate`` put (re-)transmissions on the wire,
    ``deliver`` runs the simulator until the fabric drains (the kernel
    executes on the switch), ``restart`` resets the switch's registers to
    their initial values in place (its table entries are kept).
    Returns the switch's register arrays after the schedule, keyed by
    symbol name -- the seeded double-count is directly observable.
    """
    from repro.ncp.window import Window
    from repro.runtime import Cluster

    cluster = Cluster.from_program(program)
    host_labels = sorted(node.label for node in program.and_spec.hosts)
    if not host_labels:
        raise ReproError("program has no hosts to replay from")
    src = cluster.host(host_labels[0])
    dst = host_labels[1] if len(host_labels) > 1 else host_labels[0]
    config = program.window_configs.get(kernel)
    if config is None:
        raise ReproError(f"{kernel!r} is not a compiled outgoing kernel")
    chunks = [[chunk_value] * n for n in config.mask]
    window = Window(0, chunks, ext=dict(config.ext), last=True,
                    from_node=src.node_id)
    for step in schedule:
        action = step.get("action")
        if action == "send":
            src.out_window(kernel, 0, chunks, dst, last=True)
        elif action in ("retransmit", "duplicate"):
            src.retransmit_window(kernel, window, dst)
        elif action == "deliver":
            cluster.run()
        elif action == "drop":
            raise ReproError(
                "cannot replay 'drop' without loss injection; minimal "
                "counterexamples never need it"
            )
        elif action == "restart":
            label = str(step.get("switch"))
            node = cluster.switches.get(label)
            if node is None:
                raise ReproError(f"no switch {label!r} in the deployment")
            node.switch.reset_registers()
        else:
            raise ReproError(f"unknown schedule action {action!r}")
    cluster.run()
    node = cluster.switches.get(switch)
    if node is None:
        raise ReproError(f"no switch {switch!r} in the deployment")
    arrays = node.switch.registers.arrays
    return {
        name[len("reg_"):]: list(values)
        for name, values in sorted(arrays.items())
        if name.startswith("reg_")
    }
