"""Kernel effect summaries: replay-safety classification of shared state.

The paper's transport (S6) is "windows that fit a packet" over UDP, and
:meth:`repro.runtime.host_rt.NclHost.retransmit_window` happily re-fires
a window whose kernel may already have executed on the switch. Whether
that is *correct* depends entirely on what the kernel does to shared
switch state. This module computes, per kernel and per shared symbol
(``_net_`` register array or ``ncl::BloomFilter``), where the update
sits in the **effect lattice**:

``none``
    the kernel never writes the symbol;
``idempotent``
    re-executing the kernel on the same window bytes leaves the symbol
    unchanged: a pure overwrite with a replay-stable value (window data,
    window metadata, constants), an ``|=``/``&=`` fold, a min/max-style
    ``Select`` clamp, or a Bloom-filter insert;
``monoid``
    a commutative fold (``+=``, ``-=``, ``^=``) of a replay-stable
    delta: replays commute but do not collapse -- re-execution changes
    the result (the classic double-count);
``unsafe``
    any other read-modify-write, or a write whose value or index
    depends on mutable switch state -- re-execution may produce an
    arbitrarily different result.

Orthogonally the analysis recognizes two **dedup-guard idioms** that
turn a ``monoid``/``unsafe`` update into an at-most-once one:

* *seq-dedup* (pattern A): the update is control-dependent on a compare
  of a ``_net_`` mark register indexed by a window-pure expression, and
  the same path stores a mark to that register;
* *bloom-dedup* (pattern B): the update sits on the miss branch of an
  ``ncl::bf_query`` whose path also performs the matching
  ``ncl::bf_insert``.

Findings are graded like the absint rules: ``proved`` when replay
provably changes the result (e.g. a ``+=`` delta proved non-zero by the
abstract interpreter), ``possible`` when the evidence admits it. The
summaries feed the protocol model checker in
:mod:`repro.analysis.proto`, the ``--emit effects`` dump, and the
per-tenant replay-safety verdicts of the deployment checker.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from repro.analysis.absint import FunctionFacts, analyze_module
from repro.nir import ir

# -- the effect lattice -------------------------------------------------------

KIND_NONE = "none"
KIND_IDEMPOTENT = "idempotent"
KIND_MONOID = "monoid"
KIND_UNSAFE = "unsafe"

_KIND_ORDER = {KIND_NONE: 0, KIND_IDEMPOTENT: 1, KIND_MONOID: 2, KIND_UNSAFE: 3}

#: folds where applying twice equals applying once (x | c | c == x | c)
_IDEMPOTENT_FOLDS = frozenset({"or", "and"})
#: commutative folds where replays accumulate (x + c + c != x + c)
_MONOID_FOLDS = frozenset({"add", "sub", "xor"})

_GRADE_ORDER = {"proved": 1, "possible": 0}


def _worst_kind(kinds: List[str]) -> str:
    worst = KIND_NONE
    for kind in kinds:
        if _KIND_ORDER[kind] > _KIND_ORDER[worst]:
            worst = kind
    return worst


# -- analysis results ---------------------------------------------------------


class GuardInfo:
    """One recognized dedup guard in a kernel."""

    __slots__ = ("symbol", "space", "style", "branch", "miss_block", "grade")

    def __init__(
        self,
        symbol: str,
        space: str,
        style: str,
        branch: ir.CondBr,
        miss_block: ir.Block,
        grade: str,
    ) -> None:
        self.symbol = symbol
        self.space = space
        #: 'seq-dedup' (register mark) or 'bloom-dedup' (filter insert)
        self.style = style
        self.branch = branch
        self.miss_block = miss_block
        self.grade = grade


class EffectSite:
    """One instruction that updates a shared symbol."""

    __slots__ = (
        "instr", "symbol", "op", "kind", "fold", "grade", "guarded",
        "guard", "detail", "deps",
    )

    def __init__(
        self,
        instr: ir.Instr,
        symbol: str,
        op: str,
        kind: str,
        fold: Optional[str],
        grade: str,
        guarded: bool,
        guard: Optional[GuardInfo],
        detail: str,
        deps: FrozenSet[str],
    ) -> None:
        self.instr = instr
        self.symbol = symbol
        #: 'store' | 'memcpy' | 'bloom-insert'
        self.op = op
        self.kind = kind
        #: fold operator for read-modify-writes ('add', 'or', 'min', ...)
        self.fold = fold
        self.grade = grade
        self.guarded = guarded
        self.guard = guard
        self.detail = detail
        #: mutable state the stored value/index depends on, as sorted tokens
        self.deps = deps

    @property
    def line(self) -> int:
        loc = self.instr.loc
        return int(loc.line) if loc is not None else 0


class SymbolEffect:
    """The per-symbol join of every effect site in one kernel."""

    __slots__ = ("name", "space", "at_label", "kind", "guarded",
                 "partial_guard", "grade", "sites")

    def __init__(self, name: str, space: str, at_label: Optional[str],
                 sites: List[EffectSite]) -> None:
        self.name = name
        self.space = space
        self.at_label = at_label
        self.sites = sites
        self.kind = _worst_kind([s.kind for s in sites])
        guarded_flags = [s.guarded for s in sites]
        self.guarded = bool(sites) and all(guarded_flags)
        self.partial_guard = any(guarded_flags) and not all(guarded_flags)
        # the join grade: 'proved' only if every hazardous site is proved
        hazardous = [s for s in sites if s.kind != KIND_IDEMPOTENT]
        graded = hazardous or sites
        self.grade = (
            "proved"
            if all(s.grade == "proved" for s in graded)
            else "possible"
        )


class KernelEffects:
    """Effect summary for one kernel function."""

    __slots__ = ("function", "guards", "symbols")

    def __init__(self, function: str, guards: List[GuardInfo],
                 symbols: Dict[str, SymbolEffect]) -> None:
        self.function = function
        self.guards = guards
        self.symbols = symbols

    @property
    def replay_safe(self) -> bool:
        """True when every shared-state update is idempotent or covered
        by a dedup guard (at-most-once under replay)."""
        return all(
            sym.kind == KIND_IDEMPOTENT or sym.guarded
            for sym in self.symbols.values()
        )

    @property
    def verdict(self) -> str:
        """The per-window effect-semantics verdict this summary alone
        supports: 'exactly-once' (all idempotent -- replays converge),
        'at-most-once' (non-idempotent but guarded), or 'unsafe'."""
        if not self.replay_safe:
            return "unsafe"
        if any(
            sym.kind != KIND_IDEMPOTENT for sym in self.symbols.values()
        ):
            return "at-most-once"
        return "exactly-once"


# -- value dependence ---------------------------------------------------------


def _same_value(a: ir.Value, b: ir.Value, depth: int = 8) -> bool:
    """Structural equality of two *pure* SSA value trees (used to match
    the load and store indices of a read-modify-write). Loads of mutable
    state only compare equal as identical objects."""
    if a is b:
        return True
    if depth <= 0:
        return False
    if isinstance(a, ir.Const) and isinstance(b, ir.Const):
        return bool(a.value == b.value and a.ty.bits == b.ty.bits)
    if type(a) is not type(b):
        return False
    if isinstance(a, ir.BinOp) and isinstance(b, ir.BinOp):
        return a.op == b.op and all(
            _same_value(x, y, depth - 1)
            for x, y in zip(a.operands, b.operands)
        )
    if isinstance(a, ir.UnOp) and isinstance(b, ir.UnOp):
        return a.op == b.op and _same_value(
            a.operands[0], b.operands[0], depth - 1
        )
    if isinstance(a, ir.Cast) and isinstance(b, ir.Cast):
        return a.kind == b.kind and a.ty.bits == b.ty.bits and _same_value(
            a.operands[0], b.operands[0], depth - 1
        )
    if isinstance(a, ir.WinField) and isinstance(b, ir.WinField):
        return a.field == b.field
    if isinstance(a, ir.LocField) and isinstance(b, ir.LocField):
        return a.field == b.field
    if isinstance(a, ir.LoadParam) and isinstance(b, ir.LoadParam):
        return a.param is b.param and _same_value(
            a.operands[0], b.operands[0], depth - 1
        )
    return False


class _DepWalker:
    """Computes the set of mutable-state tokens a value depends on.

    Tokens: ``self`` (a load of the symbol/index being stored), and
    ``net:NAME`` / ``ctrl:NAME`` / ``map:NAME`` / ``bloom:NAME`` /
    ``extern`` for everything else mutable. Window data, window/location
    metadata and constants contribute nothing: they are byte-identical
    on every attempt of a window.
    """

    def __init__(self, self_ref: Optional[ir.GlobalRef],
                 self_index: Optional[ir.Value]) -> None:
        self.self_ref = self_ref
        self.self_index = self_index
        self._memo: Dict[int, FrozenSet[str]] = {}
        self._active: Set[int] = set()

    def deps(self, value: ir.Value) -> FrozenSet[str]:
        key = id(value)
        cached = self._memo.get(key)
        if cached is not None:
            return cached
        if key in self._active:  # phi cycle: no *new* deps along the loop
            return frozenset()
        self._active.add(key)
        try:
            out = self._deps(value)
        finally:
            self._active.discard(key)
        self._memo[key] = out
        return out

    def _deps(self, value: ir.Value) -> FrozenSet[str]:
        if isinstance(value, (ir.Const, ir.Undef, ir.Param)):
            return frozenset()
        if isinstance(value, (ir.WinField, ir.LocField, ir.LocLabel)):
            return frozenset()
        if isinstance(value, ir.LoadParam):
            return self.deps(value.operands[0])
        if isinstance(value, ir.LoadElem):
            ref = value.ref
            if (
                self.self_ref is not None
                and ref is self.self_ref
                and self.self_index is not None
                and _same_value(value.index, self.self_index)
            ):
                return frozenset({"self"}) | self.deps(value.index)
            return frozenset({f"{ref.space}:{ref.name}"}) | self.deps(
                value.index
            )
        if isinstance(value, ir.CtrlRead):
            out = {f"ctrl:{value.ref.name}"}
            if value.index is not None:
                return frozenset(out) | self.deps(value.index)
            return frozenset(out)
        if isinstance(value, (ir.MapLookup, ir.MapFound, ir.MapValue)):
            ref = _map_ref(value)
            name = ref.name if ref is not None else "?"
            deps: FrozenSet[str] = frozenset({f"map:{name}"})
            for op in value.operands:
                deps |= self.deps(op)
            return deps
        if isinstance(value, ir.BloomOp):
            deps = frozenset({f"bloom:{value.ref.name}"})
            for op in value.operands:
                deps |= self.deps(op)
            return deps
        if isinstance(value, (ir.Load, ir.Alloca, ir.CallFn)):
            # pre-mem2reg memory or an unsummarized call: be conservative
            return frozenset({"extern"})
        if isinstance(value, ir.Instr):
            deps = frozenset()
            for op in value.operands:
                deps |= self.deps(op)
            return deps
        return frozenset({"extern"})


def _map_ref(value: ir.Instr) -> Optional[ir.GlobalRef]:
    if isinstance(value, ir.MapLookup):
        return value.ref
    for op in value.operands:
        if isinstance(op, ir.Instr):
            found = _map_ref(op)
            if found is not None:
                return found
    return None


def _strip_pure(value: ir.Value) -> ir.Value:
    """Peel casts off a value (they never change replay stability)."""
    while isinstance(value, ir.Cast):
        value = value.operands[0]
    return value


# -- guard recognition --------------------------------------------------------


def _edge_dominated(fn: ir.Function, src: ir.Block,
                    dst: ir.Block) -> Set[ir.Block]:
    """Blocks reachable from entry *only* through the edge src->dst."""
    if not fn.blocks:
        return set()
    seen = {fn.entry}
    work = [fn.entry]
    while work:
        block = work.pop()
        term = block.terminator
        if term is None:
            continue
        for succ in term.successors():
            if block is src and succ is dst:
                continue
            if succ not in seen:
                seen.add(succ)
                work.append(succ)
    return {b for b in fn.blocks if b not in seen}


def _const_differs(value: ir.Value, other: object) -> bool:
    root = _strip_pure(value)
    return isinstance(root, ir.Const) and bool(root.value != other)


def _cond_root(cond: ir.Value) -> Tuple[ir.Value, bool]:
    """Strip casts and logical negation, tracking polarity."""
    negated = False
    while True:
        if isinstance(cond, ir.Cast):
            cond = cond.operands[0]
        elif isinstance(cond, ir.UnOp) and cond.op == "lnot":
            negated = not negated
            cond = cond.operands[0]
        else:
            return cond, negated


def _find_guards(fn: ir.Function, facts: Optional[FunctionFacts]
                 ) -> List[Tuple[GuardInfo, Set[ir.Block]]]:
    """Recognize dedup-guard branches and the blocks they protect."""
    guards: List[Tuple[GuardInfo, Set[ir.Block]]] = []
    walker = _DepWalker(None, None)
    for block in fn.blocks:
        term = block.terminator
        if not isinstance(term, ir.CondBr):
            continue
        if facts is not None and block not in facts.reachable:
            continue
        root, negated = _cond_root(term.cond)

        # Pattern B: bloom-dedup -- effects on the query-miss branch.
        if isinstance(root, ir.BloomOp) and root.op == "query":
            # query true means "seen": the miss branch is the false edge.
            miss = term.then if negated else term.other
            region = _edge_dominated(fn, block, miss)
            insert_keys = [
                instr
                for region_block in region
                for instr in region_block.instrs
                if isinstance(instr, ir.BloomOp)
                and instr.op == "insert"
                and instr.ref is root.ref
            ]
            if insert_keys:
                grade = (
                    "proved"
                    if any(
                        _same_value(i.operands[0], root.operands[0])
                        for i in insert_keys
                    )
                    else "possible"
                )
                guards.append((
                    GuardInfo(root.ref.name, root.ref.space, "bloom-dedup",
                              term, miss, grade),
                    region,
                ))
            continue

        # Pattern A: seq-dedup -- a compare of a mark register with a
        # window-pure index; the protected path stores the mark back.
        if not (isinstance(root, ir.BinOp) and root.op in ir.BinOp.COMPARES):
            continue
        for load_side in (root.operands[0], root.operands[1]):
            load = _strip_pure(load_side)
            if not (isinstance(load, ir.LoadElem)
                    and load.ref.space == "net"):
                continue
            if walker.deps(load.index):
                continue  # the mark index itself must be window-pure
            other = (
                root.operands[1]
                if load_side is root.operands[0]
                else root.operands[0]
            )
            if walker.deps(other):
                continue
            for miss in (term.then, term.other):
                region = _edge_dominated(fn, block, miss)
                marks = [
                    instr
                    for region_block in region
                    for instr in region_block.instrs
                    if isinstance(instr, ir.StoreElem)
                    and instr.ref is load.ref
                    and _same_value(instr.index, load.index)
                ]
                if not marks:
                    continue
                grade = "possible"
                other_root = _strip_pure(other)
                if (
                    root.op in ("eq", "ne")
                    and isinstance(other_root, ir.Const)
                    and all(
                        _const_differs(m.value, other_root.value)
                        for m in marks
                    )
                ):
                    # after marking, the compare can never re-take the
                    # miss edge: the guard provably fires at most once
                    grade = "proved"
                guards.append((
                    GuardInfo(load.ref.name, load.ref.space, "seq-dedup",
                              term, miss, grade),
                    region,
                ))
                break
            break
    return guards


# -- site classification ------------------------------------------------------


def _classify_store(store: ir.StoreElem, walker: _DepWalker,
                    facts: Optional[FunctionFacts]
                    ) -> Tuple[str, Optional[str], str, str, FrozenSet[str]]:
    """Classify one StoreElem: (kind, fold, grade, detail, deps)."""
    value = _strip_pure(store.value)
    index_deps = walker.deps(store.index)
    value_deps = walker.deps(store.value)
    deps = index_deps | value_deps
    other_deps = deps - {"self"}
    ctrl_like = {d for d in other_deps if d.split(":", 1)[0] in ("ctrl", "map")}
    hard_deps = other_deps - ctrl_like

    if "self" not in deps:
        if not other_deps:
            return (KIND_IDEMPOTENT, None, "proved",
                    "overwrite with a replay-stable value", deps)
        if not hard_deps:
            return (KIND_IDEMPOTENT, None, "possible",
                    "overwrite; value/index stable unless the control "
                    "plane intervenes between attempts", deps)
        return (KIND_UNSAFE, None, "possible",
                "overwrite whose value or index depends on mutable "
                "switch state ({})".format(", ".join(sorted(hard_deps))),
                deps)

    # A read-modify-write of the stored element itself.
    if hard_deps:
        return (KIND_UNSAFE, None, "possible",
                "read-modify-write entangled with other mutable state "
                "({})".format(", ".join(sorted(hard_deps))), deps)

    fold = _match_fold(value, walker)
    if fold is None:
        return (KIND_UNSAFE, None, "possible",
                "read-modify-write with no recognized idempotent or "
                "commutative-monoid shape", deps)
    op, delta = fold
    if op in _IDEMPOTENT_FOLDS or op in ("min", "max", "select"):
        grade = "proved" if not ctrl_like else "possible"
        return (KIND_IDEMPOTENT, op, grade,
                f"idempotent '{op}' fold (replays collapse)", deps)
    if op == "identity":
        return (KIND_IDEMPOTENT, op, "proved",
                "stores the element back unchanged", deps)
    # commutative monoid: replays accumulate; proved when the delta is
    # proved non-zero by the abstract interpreter
    grade = "possible"
    if delta is not None and facts is not None:
        abs_delta = facts.value_of(delta)
        if abs_delta is not None and abs_delta.proved_nonzero():
            grade = "proved"
    elif isinstance(delta, ir.Const) and delta.value != 0:
        grade = "proved"
    return (KIND_MONOID, op,
            grade, f"commutative '{op}' fold (replays accumulate)", deps)


def _match_fold(value: ir.Value, walker: _DepWalker
                ) -> Optional[Tuple[str, Optional[ir.Value]]]:
    """Match the shape of a self-RMW value: returns (op, delta)."""

    def is_self_load(v: ir.Value) -> bool:
        v = _strip_pure(v)
        return isinstance(v, ir.LoadElem) and walker.deps(v) == frozenset(
            {"self"}
        ) | walker.deps(v.index)

    value = _strip_pure(value)
    if is_self_load(value):
        return ("identity", None)
    if isinstance(value, ir.BinOp) and value.op in (
        _IDEMPOTENT_FOLDS | _MONOID_FOLDS
    ):
        lhs, rhs = value.operands[0], value.operands[1]
        if is_self_load(lhs) and "self" not in walker.deps(rhs):
            return (value.op, rhs)
        if (value.op != "sub" and is_self_load(rhs)
                and "self" not in walker.deps(lhs)):
            return (value.op, lhs)
        return None
    if isinstance(value, ir.Select):
        cond, a, b = (value.operands[0], value.operands[1], value.operands[2])
        root, _ = _cond_root(cond)
        sides = (a, b)
        if any(is_self_load(s) for s in sides) and isinstance(root, ir.BinOp):
            cmp_sides = [_strip_pure(s) for s in root.operands]
            if any(is_self_load(s) for s in cmp_sides):
                # min/max/clamp: select(P(x, c), x, c) is idempotent
                return ("select", None)
        return None
    return None


# -- the per-kernel analysis --------------------------------------------------


def _classify_memcpy(instr: ir.Memcpy) -> Tuple[str, str, str, FrozenSet[str]]:
    """``(kind, grade, detail, deps)`` of a memcpy into switch memory."""
    dst, src = instr.dst, instr.src
    walker = _DepWalker(dst.ref, None)
    deps = walker.deps(instr.dst_off) | walker.deps(instr.nbytes)
    if src.ref is not None:
        if src.ref is dst.ref:
            deps |= frozenset({"self"})
        elif src.ref.space in ir.STATE_SPACES:
            deps |= frozenset({f"{src.ref.space}:{src.ref.name}"})
    deps |= walker.deps(instr.src_off)
    ctrl_like = {d for d in deps if d.split(":", 1)[0] in ("ctrl", "map")}
    hard = deps - ctrl_like - {"self"}
    if "self" in deps or hard:
        detail = "memcpy into switch memory from mutable state ({})".format(
            ", ".join(sorted(deps))
        )
        return KIND_UNSAFE, "possible", detail, deps
    if ctrl_like:
        return KIND_IDEMPOTENT, "possible", (
            "memcpy overwrite; stable unless the control plane intervenes "
            "between attempts"
        ), deps
    return KIND_IDEMPOTENT, "proved", "memcpy overwrite with replay-stable bytes", deps


def analyze_kernel_effects(fn: ir.Function,
                           facts: Optional[FunctionFacts] = None
                           ) -> KernelEffects:
    """Effect summary of one SSA kernel function: every reachable write
    :func:`repro.nir.ir.state_accesses` finds, classified and matched
    to the dedup guard whose region holds it."""
    guards = _find_guards(fn, facts)

    # Marking stores of a recognized guard are bookkeeping, not payload:
    # drop them from the guard symbol so the mark register itself does
    # not read as an extra effect (it is an idempotent overwrite anyway,
    # but the summary reads better without it).
    guard_syms = {g.symbol for g, _ in guards if g.style == "seq-dedup"}

    by_symbol: Dict[str, List[EffectSite]] = {}
    refs: Dict[str, ir.GlobalRef] = {}
    for block, instr, ref, is_write in ir.state_accesses(fn):
        if not is_write or (
            facts is not None and facts.reachable
            and block not in facts.reachable
        ):
            continue
        if isinstance(instr, ir.BloomOp):
            if any(
                g.symbol == ref.name and g.style == "bloom-dedup"
                for g, _ in guards
            ):
                continue  # the guard's own insert
            op, kind, fold, grade, deps = (
                "bloom-insert", KIND_IDEMPOTENT, None, "proved", frozenset()
            )
            detail = "Bloom-filter insert (set union)"
        elif ref.space != "net":
            continue
        elif isinstance(instr, ir.Memcpy):
            op, fold = "memcpy", None
            kind, grade, detail, deps = _classify_memcpy(instr)
        else:
            op = "store"
            walker = _DepWalker(ref, instr.index)
            kind, fold, grade, detail, deps = _classify_store(
                instr, walker, facts
            )
            if ref.name in guard_syms and kind == KIND_IDEMPOTENT:
                continue  # the mark write itself
        guard: Optional[GuardInfo] = None
        for info, region in guards:
            if block in region:
                if guard is None or (
                    _GRADE_ORDER[info.grade] > _GRADE_ORDER[guard.grade]
                ):
                    guard = info
        site = EffectSite(
            instr, ref.name, op, kind, fold, grade,
            guard is not None, guard, detail, deps,
        )
        refs[ref.name] = ref
        by_symbol.setdefault(ref.name, []).append(site)

    symbols = {
        name: SymbolEffect(
            name, refs[name].space, refs[name].at_label, site_list,
        )
        for name, site_list in by_symbol.items()
    }
    return KernelEffects(fn.name, [g for g, _ in guards], symbols)


def analyze_module_effects(
    module: ir.Module,
    label_ids: Optional[Dict[str, int]] = None,
) -> Dict[str, KernelEffects]:
    """Effect summaries for every kernel of a per-switch module, keyed
    and iterated by kernel name (sorted, for deterministic output)."""
    facts = analyze_module(module, label_ids)
    return {
        name: analyze_kernel_effects(fn, facts[name])
        for name, fn in sorted(module.functions.items())
        if fn.kind is not ir.FunctionKind.HELPER
    }


# -- rendering (byte-deterministic, golden-testable) --------------------------


def _render_site(site: EffectSite) -> str:
    loc = site.instr.loc
    where = f"line {loc.line}" if loc is not None else "line ?"
    bits = [site.kind]
    if site.fold is not None:
        bits.append(f"fold={site.fold}")
    bits.append(site.grade)
    if site.guarded and site.guard is not None:
        bits.append(f"guarded[{site.guard.style}:{site.guard.symbol}]")
    deps = ",".join(sorted(site.deps - {"self"}))
    if deps:
        bits.append(f"deps={deps}")
    return f"    {where}: {site.op} {' '.join(bits)} -- {site.detail}"


def render_kernel_effects(effects: KernelEffects) -> str:
    lines = [f"kernel {effects.function}:"]
    for guard in sorted(effects.guards, key=lambda g: (g.symbol, g.style)):
        lines.append(
            f"  guard {guard.style} on {guard.space} "
            f"'{guard.symbol}' ({guard.grade})"
        )
    for name in sorted(effects.symbols):
        sym = effects.symbols[name]
        label = f" @ \"{sym.at_label}\"" if sym.at_label else ""
        guard_note = (
            " guarded" if sym.guarded
            else " PARTIALLY-guarded" if sym.partial_guard
            else ""
        )
        lines.append(
            f"  {sym.space} '{sym.name}'{label}: {sym.kind} "
            f"({sym.grade}){guard_note}"
        )
        for site in sorted(
            sym.sites, key=lambda s: (s.line, s.op, s.detail)
        ):
            lines.append(_render_site(site))
    lines.append(f"  verdict: {effects.verdict}")
    return "\n".join(lines)


def render_module_effects(summaries: Dict[str, KernelEffects]) -> str:
    return "\n\n".join(
        render_kernel_effects(summaries[name]) for name in sorted(summaries)
    ) + "\n"
