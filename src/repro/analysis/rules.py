"""The shipped `nclc lint` rule set.

Every rule reports through the shared :class:`repro.diag.DiagnosticSink`
with a stable code; the catalog lives in ``docs/DIAGNOSTICS.md``. Codes:

======== ===================== =========================================
code     rule                  finding
======== ===================== =========================================
NCL0701  race                  unserialized shared-state access
NCL0702  uninit-read           variable may be read before assignment
NCL0703  dead-store            stored value is never read
NCL0704  unreachable-code      statement can never execute
NCL0705  unbounded-loop        kernel loop cannot unroll to PISA
NCL0706  dead-branch           branch condition proved constant
NCL0801  width-truncation      implicit narrowing conversion
NCL0802  shift-range           shift amount out of range
NCL0803  overflow              arithmetic overflows its declared width
NCL0805  div-by-zero           division or remainder by zero
NCL0901  unused-kernel         _out_ kernel never launched via ncl::out
NCL0902  unused-kernel         _in_ kernel never registered via ncl::in
NCL0903  unused-window-field   window extension field never read
NCL0610  pisa-resources        general multiply unavailable on target
NCL0611  pisa-resources        register-array access budget exceeded
NCL0612  pisa-resources        PHV bit budget exceeded
NCL0613  pisa-resources        pipeline stage budget exceeded
NCL0614  pisa-resources        match-action table budget exceeded
======== ===================== =========================================

The value-flow rules (``dead-branch``, ``width-truncation``,
``shift-range``, ``overflow``, ``div-by-zero``) consume the abstract
interpreter's interval + known-bits facts
(:meth:`repro.analysis.AnalysisContext.absint_functions`) and grade each
finding: *proved* (error severity -- the property holds on every
execution reaching the site) or *possible* (warning severity -- the
computed ranges admit it). A site that the ranges rule out is
suppressed entirely, which is what keeps the shipped examples
lint-clean. Because helpers are inlined before the analysis, one source
location can occur in several analysis contexts; a finding is *proved*
only when every occurrence proves it, and suppressed only when every
occurrence is ruled out.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.analysis import AnalysisContext, Rule, register
from repro.analysis.absint import exact_range
from repro.analysis.dataflow import dead_stores, may_uninit_reads
from repro.diag import Span
from repro.errors import NclTypeError
from repro.ncl import ast
from repro.ncl.parser import const_eval
from repro.ncl.sema import TranslationUnit
from repro.ncl.types import is_signed, scalar_bits
from repro.nir import ir

LintRule = Rule[AnalysisContext]

#: host runtime calls that WRITE switch-resident state from the control plane
_HOST_WRITE_CALLS = ("ncl::ctrl_wr", "ncl::map_insert", "ncl::map_erase")

_SPACE_WORD = dict(
    zip(ir.STATE_SPACES, ("switch memory", "control variable", "Map", "BloomFilter"))
)


def _bits(ty) -> Optional[int]:
    try:
        return scalar_bits(ty)
    except NclTypeError:  # pointer / void / window types have no width
        return None


def _absint_missed(ctx: AnalysisContext) -> List[ir.Function]:
    """Functions the abstract interpreter produced no facts for.

    Value-flow rules fall back to their pre-absint (purely syntactic)
    checks on these so that a function SSA construction chokes on still
    gets the cheap findings.
    """
    analyzed = {fn.name for fn, _facts in ctx.absint_functions()}
    if ctx.module is None:
        return []
    return [
        fn for name, fn in ctx.module.functions.items() if name not in analyzed
    ]


def _range_note(what: str, val) -> str:
    """A human-readable evidence note for one abstract value."""
    if val.is_singleton:
        return f"{what} is always {val.lo}"
    return f"{what} is in [{val.lo}, {val.hi}]"


def _grade_site(grades: List[str]) -> Optional[str]:
    """Collapse per-occurrence grades for one source site.

    ``grades`` holds one of ``"clean"``/``"proved"``/``"possible"`` per
    analysis context the site occurred in (helpers are inlined, so one
    site can occur several times). Proved needs *every* occurrence
    proved; all-clean suppresses; anything mixed is merely possible.
    """
    if not grades or all(g == "clean" for g in grades):
        return None
    if all(g == "proved" for g in grades):
        return "proved"
    return "possible"


def _gvar_decl(unit: TranslationUnit, name: str) -> Optional[ast.GlobalVar]:
    for table in (unit.net_globals, unit.ctrl_vars, unit.maps, unit.blooms):
        if name in table:
            return table[name]
    return None


def _host_functions(ctx: AnalysisContext) -> List[ast.FuncDecl]:
    """Host functions with bodies, in declaration order.

    ``unit.functions`` also holds the switch-side helpers: the functions
    a kernel reaches, which lowering put in the module as HELPERs. Those
    are left out, so a Python-driven program with a pure helper has no
    host code.
    """
    helpers = set()
    if ctx.module is not None:
        helpers = {
            fn.name for fn in ctx.module.functions.values()
            if fn.kind is ir.FunctionKind.HELPER
        }
    return [
        d for d in ctx.unit.functions.values()
        if d.body is not None and not d.is_kernel and d.name not in helpers
    ]


def _host_calls(ctx: AnalysisContext, names: Tuple[str, ...]) -> Iterator[ast.Call]:
    """Every call to one of the ``ncl::`` runtime functions *names* that
    host code makes."""
    for decl in _host_functions(ctx):
        for node in decl.body.walk():
            if isinstance(node, ast.Call) and node.name in names:
                yield node


class _StateAccess:
    """One touch of a switch-resident symbol, attributed to a party."""

    __slots__ = ("party", "party_desc", "label", "is_write", "loc")

    def __init__(self, party, party_desc, label, is_write, loc):
        self.party = party  # kernel name, or "<host>"
        self.party_desc = party_desc
        self.label = label  # the accessing kernel's _at_ label (None = all)
        self.is_write = is_write
        self.loc = loc


@register
class SharedStateRaceRule(LintRule):
    """The shared-state race detector (the tentpole analysis).

    A symbol races when at least two parties (distinct kernels, or a
    kernel plus the host control plane) touch it, at least one touch is
    a write, and nothing serializes them onto a single switch: the
    symbol must carry an ``_at_`` pin and every accessing kernel must be
    unpinned (versioning rejects an access that location specialization
    leaves on any other switch) or pinned to the *same* label. Host
    control-plane writes to a pinned symbol are serialized by the
    runtime. Accesses are :func:`repro.nir.ir.state_accesses`, kernel by
    kernel: helpers never name switch state (sema, NCL0400).
    """

    name = "race"
    codes = ("NCL0701",)
    about = "shared switch state written concurrently without _at_ serialization"

    def run(self, ctx: AnalysisContext) -> None:
        if ctx.module is None:
            return
        accesses: Dict[str, List[_StateAccess]] = {}

        for fn in ctx.module.kernels():
            for _block, instr, ref, is_write in ir.state_accesses(fn):
                accesses.setdefault(ref.name, []).append(
                    _StateAccess(
                        fn.name, f"kernel '{fn.name}'", fn.at_label, is_write,
                        instr.loc,
                    )
                )

        # Host-side control-plane writes from the AST.
        for node in _host_calls(ctx, _HOST_WRITE_CALLS):
            target = node.args[0] if node.args else None
            if isinstance(target, ast.Unary) and target.op == "&":
                target = target.operand
            if not isinstance(target, ast.Ident):
                continue
            if target.name not in ctx.module.globals:
                continue
            accesses.setdefault(target.name, []).append(
                _StateAccess(
                    "<host>", "the host control plane", None, True, target.loc
                )
            )

        for name, ref in ctx.module.globals.items():
            if ref.space not in ir.STATE_SPACES:
                continue
            touches = accesses.get(name, [])
            writes = [a for a in touches if a.is_write]
            parties = {a.party for a in touches}
            if not writes or len(parties) < 2:
                continue
            kernel_labels = {a.label for a in touches if a.party != "<host>"}
            serialized = ref.at_label is not None and all(
                label in (None, ref.at_label) for label in kernel_labels
            )
            if serialized:
                continue
            self._report(ctx, name, ref, touches, writes)

    def _report(self, ctx, name, ref, touches, writes) -> None:
        primary = next((w for w in writes if w.loc is not None), writes[0])
        other = next(
            (
                a
                for a in touches
                if a.party != primary.party and a.loc is not None
            ),
            None,
        )
        party_descs = sorted({a.party_desc for a in touches})
        what = _SPACE_WORD[ref.space]
        message = (
            f"possible race on {what} '{name}': accessed by "
            f"{' and '.join(party_descs)} with at least one write and no "
            "single-switch _at_ serialization"
        )
        secondary = []
        if other is not None:
            verb = "written" if other.is_write else "read"
            secondary.append(
                Span(other.loc, len(name), f"{verb} by {other.party_desc}")
            )
        loc = primary.loc
        if loc is None:
            decl = _gvar_decl(ctx.unit, name)
            loc = decl.loc if decl is not None else None
        ctx.sink.warning(
            "NCL0701",
            message,
            loc,
            length=len(name),
            secondary=secondary,
            notes=[
                f"written by {primary.party_desc} here",
            ],
            fixit=(
                f"pin '{name}' and every kernel that touches it to one "
                'switch with _at_("...") to serialize access'
            ),
            rule=self.name,
        )


@register
class UninitReadRule(LintRule):
    name = "uninit-read"
    codes = ("NCL0702",)
    about = "local variable may be read before it is assigned"

    def run(self, ctx: AnalysisContext) -> None:
        if ctx.module is None:
            return
        for fn in ctx.module.functions.values():
            seen = set()
            for slot_name, load in may_uninit_reads(fn):
                key = (slot_name, load.loc)
                if load.loc is None or key in seen:
                    continue
                seen.add(key)
                ctx.sink.warning(
                    "NCL0702",
                    f"'{slot_name}' may be read before it is assigned "
                    f"in '{fn.name}'",
                    load.loc,
                    length=len(slot_name),
                    fixit=f"initialize '{slot_name}' at its declaration",
                    rule=self.name,
                )


@register
class DeadStoreRule(LintRule):
    name = "dead-store"
    codes = ("NCL0703",)
    about = "a stored value is overwritten or discarded before any read"

    def run(self, ctx: AnalysisContext) -> None:
        if ctx.module is None:
            return
        for fn in ctx.module.functions.values():
            seen = set()
            for slot_name, store in dead_stores(fn):
                key = (slot_name, store.loc)
                if store.loc is None or key in seen:
                    continue
                seen.add(key)
                ctx.sink.warning(
                    "NCL0703",
                    f"value stored to '{slot_name}' is never read",
                    store.loc,
                    length=len(slot_name),
                    rule=self.name,
                )


def _stmt_terminates(stmt: ast.Stmt) -> bool:
    """Conservatively: does control definitely not fall out of *stmt*?"""
    if isinstance(stmt, (ast.Return, ast.Break, ast.Continue)):
        return True
    if isinstance(stmt, ast.Block):
        return any(_stmt_terminates(s) for s in stmt.stmts)
    if isinstance(stmt, ast.If):
        return (
            stmt.orelse is not None
            and _stmt_terminates(stmt.then)
            and _stmt_terminates(stmt.orelse)
        )
    return False


@register
class UnreachableCodeRule(LintRule):
    """AST-level, because the lowerer prunes dead blocks before any NIR
    analysis could see them."""

    name = "unreachable-code"
    codes = ("NCL0704",)
    about = "statements that no control path reaches"

    def run(self, ctx: AnalysisContext) -> None:
        for decl in ctx.unit.program.functions:
            if decl.body is None:
                continue
            for node in decl.body.walk():
                if not isinstance(node, ast.Block):
                    continue
                for i, stmt in enumerate(node.stmts[:-1]):
                    if _stmt_terminates(stmt):
                        after = node.stmts[i + 1]
                        ctx.sink.warning(
                            "NCL0704",
                            f"unreachable code in '{decl.name}'",
                            after.loc,
                            secondary=[
                                Span(stmt.loc, 1, "control leaves the block here")
                            ],
                            rule=self.name,
                        )
                        break


def _loop_breaks_out(stmt: ast.Node) -> bool:
    """Does this loop-body subtree leave the *enclosing* loop?"""
    if isinstance(stmt, (ast.Break, ast.Return)):
        return True
    if isinstance(stmt, (ast.While, ast.For)):
        return False  # its breaks bind to the nested loop
    return any(_loop_breaks_out(child) for child in stmt.children())


def _kernel_side_decls(unit: TranslationUnit) -> List[ast.FuncDecl]:
    """Kernels plus every helper transitively called from one."""
    decls = [info.decl for info in unit.kernels.values()]
    reachable: Set[str] = set()
    frontier: List[str] = []
    for decl in decls:
        for node in decl.body.walk() if decl.body else ():
            if isinstance(node, ast.Call) and node.name in unit.functions:
                frontier.append(node.name)
    while frontier:
        name = frontier.pop()
        if name in reachable:
            continue
        helper = unit.functions.get(name)
        if helper is None or helper.body is None:
            continue
        reachable.add(name)
        for node in helper.body.walk():
            if isinstance(node, ast.Call) and node.name in unit.functions:
                frontier.append(node.name)
    decls.extend(unit.functions[n] for n in unit.functions if n in reachable)
    return decls


@register
class UnboundedLoopRule(LintRule):
    name = "unbounded-loop"
    codes = ("NCL0705",)
    about = "kernel loop with no bounded trip count (cannot unroll)"

    def run(self, ctx: AnalysisContext) -> None:
        for decl in _kernel_side_decls(ctx.unit):
            if decl.body is None:
                continue
            for node in decl.body.walk():
                if isinstance(node, ast.While):
                    cond, body = node.cond, node.body
                elif isinstance(node, ast.For):
                    cond, body = node.cond, node.body
                else:
                    continue
                if cond is None:
                    infinite = True
                else:
                    value = const_eval(cond)
                    infinite = value is not None and value != 0
                if infinite and not _loop_breaks_out(body):
                    ctx.sink.warning(
                        "NCL0705",
                        f"loop in '{decl.name}' never terminates and cannot "
                        "be unrolled for the PISA pipeline",
                        node.loc,
                        notes=[
                            "switch-side loops are fully unrolled at compile "
                            "time and need a bounded trip count"
                        ],
                        rule=self.name,
                    )


@register
class DeadBranchRule(LintRule):
    """Range-proved constant branch conditions (proved-only: a branch
    the analysis cannot decide is simply not a finding).

    Literal-constant conditions are skipped -- ``while (1)`` and
    config-macro idioms are deliberate, and unbounded-loop/unreachable-
    code already cover their pathological cases.
    """

    name = "dead-branch"
    codes = ("NCL0706",)
    about = "branch condition proved always true / always false"

    def run(self, ctx: AnalysisContext) -> None:
        sites: Dict[object, List[Optional[bool]]] = {}
        for fn, facts in ctx.absint_functions():
            for block in fn.blocks:
                if block not in facts.reachable:
                    continue
                term = block.terminator
                if not isinstance(term, ir.CondBr):
                    continue
                if isinstance(term.cond, ir.Const):
                    continue
                # branches are synthesized by the lowerer; the condition
                # expression is what carries the source location
                loc = term.loc or getattr(term.cond, "loc", None)
                if loc is None:
                    continue
                sites.setdefault(loc, []).append(
                    facts.branch_decisions.get(term)
                )
        for loc, decisions in sites.items():
            if any(d is None for d in decisions):
                continue  # undecided in at least one context
            if len(set(decisions)) != 1:
                continue  # proved, but in different directions per context
            taken = decisions[0]
            dead = "else" if taken else "then"
            ctx.sink.error(
                "NCL0706",
                f"condition is always {'true' if taken else 'false'}; the "
                f"{dead} branch never executes",
                loc,
                notes=[
                    "proved by interval and known-bits analysis of every "
                    "path reaching this branch"
                ],
                rule=self.name,
                status="proved",
            )


class _RangeGradedRule(LintRule):
    """The loop the range-graded value-flow rules share.

    Every candidate instruction is graded once per analysis context it
    occurs in (``"clean"``/``"proved"``/``"possible"``) from the abstract
    interpreter's facts, or syntactically where the interpreter produced
    none; the grades of one source site collapse with :func:`_grade_site`
    and the site reports as an error when proved, a warning when merely
    possible. The evidence shown is that of the site's first non-clean
    occurrence. Subclasses supply the four parts below.
    """

    def site(self, instr: ir.Instr) -> Optional[Tuple]:
        """When *instr* is a candidate, its site key: the source location
        first, then whatever else tells two findings there apart."""
        raise NotImplementedError

    def grade(self, instr, facts) -> Tuple[str, object]:
        """``(grade, evidence)`` for one occurrence, from absint facts."""
        raise NotImplementedError

    def fallback(self, instr) -> Optional[Tuple[str, object]]:
        """``(grade, evidence)`` from syntax alone, for functions the
        abstract interpreter missed; None = nothing to say."""
        return None

    def finding(self, key: Tuple, status: str, evidence) -> Tuple:
        """``(message, notes, fixit)`` for a site graded *status*."""
        raise NotImplementedError

    def run(self, ctx: AnalysisContext) -> None:
        if ctx.module is None:
            return
        grades: Dict[object, List[str]] = {}
        evidence: Dict[object, object] = {}

        def record(key, graded) -> None:
            if graded is None:
                return
            grades.setdefault(key, []).append(graded[0])
            if graded[0] != "clean" and graded[1] is not None:
                evidence.setdefault(key, graded[1])

        for fn, facts in ctx.absint_functions():
            for instr in fn.instructions():
                if (key := self.site(instr)) is not None:
                    record(key, self.grade(instr, facts))
        for fn in _absint_missed(ctx):
            for instr in fn.instructions():
                if (key := self.site(instr)) is not None:
                    record(key, self.fallback(instr))

        for key, site_grades in grades.items():
            status = _grade_site(site_grades)
            if status is None:
                continue
            message, notes, fixit = self.finding(key, status, evidence.get(key))
            report = ctx.sink.error if status == "proved" else ctx.sink.warning
            report(
                self.codes[0], message, key[0], notes=notes, fixit=fixit,
                rule=self.name, status=status,
            )


def _binop_site(instr: ir.Instr, ops: Tuple[str, ...]):
    """The site key of *instr* when it is a located BinOp with one of
    *ops* and a scalar result width."""
    if (
        isinstance(instr, ir.BinOp)
        and instr.op in ops
        and instr.loc is not None
        and _bits(instr.ty) is not None
    ):
        return (instr.loc,)
    return None


@register
class WidthTruncationRule(_RangeGradedRule):
    name = "width-truncation"
    codes = ("NCL0801",)
    about = "implicit conversion to a narrower integer"

    def site(self, instr):
        if (
            isinstance(instr, ir.Cast)
            and instr.kind == "trunc"
            and not instr.explicit
            and instr.loc is not None
        ):
            from_bits = _bits(instr.operands[0].ty)
            to_bits = _bits(instr.ty)
            if from_bits is not None and to_bits is not None:
                return instr.loc, from_bits, to_bits
        return None

    def grade(self, instr, facts):
        to_bits = _bits(instr.ty)
        val = facts.value_of(instr.operands[0])
        lo, hi = (
            (-(1 << (to_bits - 1)), (1 << (to_bits - 1)) - 1)
            if is_signed(instr.ty)
            else (0, (1 << to_bits) - 1)
        )
        if val is None:
            return "possible", None
        if val.is_bottom or (lo <= val.lo and val.hi <= hi):
            return "clean", None  # unreachable, or the value fits
        if val.hi < lo or val.lo > hi:
            return "proved", val
        return "possible", val if val.informative() else None

    def fallback(self, instr):
        return "possible", None

    def finding(self, key, status, val):
        _loc, from_bits, to_bits = key
        notes = [_range_note("the truncated value", val)] if val else None
        if status == "proved":
            return (
                f"implicit truncation from {from_bits}-bit to "
                f"{to_bits}-bit always loses data: no value in range "
                f"is representable after narrowing",
                notes,
                "mask or range-check the value before narrowing it",
            )
        return (
            f"implicit truncation from {from_bits}-bit to "
            f"{to_bits}-bit value may lose data",
            notes,
            "write an explicit cast if the narrowing is intended",
        )


@register
class ShiftRangeRule(_RangeGradedRule):
    """Shift amounts, graded by the interpreter's trap semantics: a
    negative amount traps, an amount >= the width silently reduces
    modulo the width (almost never what the author meant)."""

    name = "shift-range"
    codes = ("NCL0802",)
    about = "shift amount negative or >= the shifted value's width"

    def site(self, instr):
        return _binop_site(instr, ("shl", "lshr", "ashr"))

    def grade(self, instr, facts):
        status = facts.shift_status.get(instr)
        amount = facts.value_of(instr.rhs)
        if status in ("neg", "oob"):
            grade = "proved"
        elif status == "maybe" and amount is not None and amount.informative():
            grade = "possible"
        else:
            return "clean", None
        return grade, (status, _bits(instr.ty), amount)

    def fallback(self, instr):
        if not isinstance(instr.rhs, ir.Const):
            return None
        bits = _bits(instr.ty)
        amount = instr.rhs.value
        if 0 <= amount < bits:
            return "clean", None
        return "proved", ("neg" if amount < 0 else "oob", bits, None)

    def finding(self, key, graded, details):
        status, bits, amount = details
        notes = [_range_note("the shift amount", amount)] if amount else None
        if graded == "proved" and status == "neg":
            message = "shift amount is always negative, which traps at runtime"
        elif graded == "proved":
            message = (
                f"shift amount is always out of range for a {bits}-bit "
                "value (amounts are reduced modulo the width)"
            )
        else:
            message = f"shift amount may be out of range for a {bits}-bit value"
        return message, notes, None


@register
class OverflowRule(_RangeGradedRule):
    """Wrapping arithmetic, graded against the *unwrapped* result range:
    disjoint from the representable range means every execution wraps
    (proved); an overlap flags only when both operand ranges are
    informative, so full-width unknowns stay quiet.

    No syntactic fallback: const-const arithmetic is exactly what the
    analyzer proves even with top inputs, and anything else was never
    reportable without ranges."""

    name = "overflow"
    codes = ("NCL0803",)
    about = "arithmetic whose result overflows its declared width"

    def site(self, instr):
        return _binop_site(instr, ("add", "sub", "mul"))

    def grade(self, instr, facts):
        a = facts.value_of(instr.lhs)
        b = facts.value_of(instr.rhs)
        exact = exact_range(instr.op, a, b) if a is not None and b is not None else None
        if exact is None:
            return "clean", None
        bits = _bits(instr.ty)
        signed = is_signed(instr.ty)
        lo = -(1 << (bits - 1)) if signed else 0
        hi = (1 << (bits - 1)) - 1 if signed else (1 << bits) - 1
        ex_lo, ex_hi = exact
        if ex_lo > hi or ex_hi < lo:
            grade = "proved"
        elif (ex_lo < lo or ex_hi > hi) and a.informative() and b.informative():
            grade = "possible"
        else:
            return "clean", None
        return grade, (bits, signed, ex_lo, ex_hi)

    def finding(self, key, graded, details):
        bits, signed, ex_lo, ex_hi = details
        kind = "signed" if signed else "unsigned"
        if graded == "proved" and ex_lo == ex_hi:
            message = (
                f"expression always evaluates to {ex_lo}, which "
                f"overflows {bits}-bit {kind} arithmetic"
            )
        elif graded == "proved":
            message = (
                f"arithmetic always overflows: the exact result range "
                f"[{ex_lo}, {ex_hi}] lies entirely outside {bits}-bit "
                f"{kind} range"
            )
        else:
            message = (
                f"arithmetic may overflow {bits}-bit {kind} range: the "
                f"exact result can reach [{ex_lo}, {ex_hi}]"
            )
        notes = ["results wrap modulo the declared width at runtime"]
        return message, notes, None


@register
class DivByZeroRule(_RangeGradedRule):
    name = "div-by-zero"
    codes = ("NCL0805",)
    about = "division or remainder whose divisor can be zero"

    def site(self, instr):
        return _binop_site(instr, ("udiv", "sdiv", "urem", "srem"))

    def grade(self, instr, facts):
        status = facts.div_status.get(instr)
        divisor = facts.value_of(instr.rhs)
        if status == "zero":
            return "proved", divisor
        if status == "maybe" and divisor is not None and divisor.informative():
            return "possible", divisor
        return "clean", None

    def fallback(self, instr):
        const_zero = isinstance(instr.rhs, ir.Const) and instr.rhs.value == 0
        return ("proved" if const_zero else "clean"), None

    def finding(self, key, graded, divisor):
        notes = [_range_note("the divisor", divisor)] if divisor else None
        if graded == "proved":
            return (
                "divisor is always zero; this division traps on every "
                "execution",
                notes,
                None,
            )
        return (
            "divisor may be zero",
            notes,
            "guard the division or prove the divisor nonzero",
        )


@register
class UnusedKernelRule(LintRule):
    """Only meaningful when the program ships its own host driver code;
    examples driven from Python (no host functions) stay silent."""

    name = "unused-kernel"
    codes = ("NCL0901", "NCL0902")
    about = "kernel defined but never launched/registered by host code"

    def run(self, ctx: AnalysisContext) -> None:
        if not _host_functions(ctx):
            return
        used_out: Set[str] = set()
        used_in: Set[str] = set()
        for node in _host_calls(ctx, ("ncl::out", "ncl::in")):
            target = node.args[0] if node.args else None
            if isinstance(target, ast.Ident):
                (used_out if node.name == "ncl::out" else used_in).add(
                    target.name
                )
        for name, info in ctx.unit.out_kernels.items():
            if name not in used_out:
                ctx.sink.warning(
                    "NCL0901",
                    f"outgoing kernel '{name}' is defined but never "
                    "launched with ncl::out",
                    info.decl.loc,
                    length=len(name),
                    rule=self.name,
                )
        for name, info in ctx.unit.in_kernels.items():
            if name not in used_in:
                ctx.sink.warning(
                    "NCL0902",
                    f"incoming kernel '{name}' is defined but never "
                    "registered with ncl::in",
                    info.decl.loc,
                    length=len(name),
                    rule=self.name,
                )


@register
class UnusedWindowFieldRule(LintRule):
    name = "unused-window-field"
    codes = ("NCL0903",)
    about = "window extension field that no kernel reads"

    def run(self, ctx: AnalysisContext) -> None:
        ext = ctx.unit.program.window_ext
        user_fields = ctx.unit.window_fields[3:]  # skip seq/from/last builtins
        if ext is None or not user_fields:
            return
        read: Set[str] = set()
        for decl in ctx.unit.program.functions:
            if decl.body is None:
                continue
            for node in decl.body.walk():
                if (
                    isinstance(node, ast.Member)
                    and isinstance(node.base, ast.Ident)
                    and node.base.name == "window"
                ):
                    read.add(node.field)
        for fname, _fty in user_fields:
            if fname not in read:
                ctx.sink.warning(
                    "NCL0903",
                    f"window extension field '{fname}' is never read by "
                    "any kernel",
                    ext.loc,
                    notes=[
                        "the field still travels in every NCP window header; "
                        "remove it to save PHV bits and wire bytes"
                    ],
                    rule=self.name,
                )


def _longest_block_path(fn: ir.Function) -> int:
    """Blocks on the longest acyclic entry path (a stage-count proxy)."""
    depth: Dict[ir.Block, int] = {}
    on_path: Set[ir.Block] = set()

    def visit(block: ir.Block) -> int:
        if block in depth:
            return depth[block]
        if block in on_path:
            return 0  # back edge: loops are unrolled later, ignore here
        on_path.add(block)
        best = 0
        for succ in block.successors():
            best = max(best, visit(succ))
        on_path.discard(block)
        depth[block] = 1 + best
        return depth[block]

    return visit(fn.entry) if fn.blocks else 0


@register
class PisaResourceRule(LintRule):
    """Early, explained versions of the backend's accept/reject budgets.

    Estimates are made on pre-unroll NIR, so they are lower bounds; the
    P4 backend remains authoritative. The point (paper S5/S6) is telling
    the programmer *which construct* spends the budget instead of a late
    opaque rejection.
    """

    name = "pisa-resources"
    codes = ("NCL0610", "NCL0611", "NCL0612", "NCL0613", "NCL0614")
    about = "stage/table/PHV/register budget estimates vs the chip profile"

    def run(self, ctx: AnalysisContext) -> None:
        if ctx.module is None:
            return
        profile = ctx.profile
        header_bits = sum(
            b for _, ty in ctx.module.window_fields if (b := _bits(ty))
        )
        for fn in ctx.module.kernels(ir.FunctionKind.OUT_KERNEL):
            decl_loc = None
            info = ctx.unit.out_kernels.get(fn.name)
            if info is not None:
                decl_loc = info.decl.loc
            self._check_mul(ctx, fn, profile)
            self._check_register_accesses(ctx, fn, profile)
            self._check_phv(ctx, fn, profile, header_bits, decl_loc)
            self._check_stages_tables(ctx, fn, profile, decl_loc)

    def _check_mul(self, ctx, fn, profile) -> None:
        if profile.supports_mul:
            return
        for instr in fn.instructions():
            if not (isinstance(instr, ir.BinOp) and instr.op == "mul"):
                continue
            if any(
                isinstance(op, ir.Const)
                and op.value > 0
                and op.value & (op.value - 1) == 0
                for op in instr.operands
            ):
                continue  # strength-reduces to a shift
            ctx.sink.warning(
                "NCL0610",
                f"kernel '{fn.name}' multiplies two non-constant values; "
                f"the '{profile.name}' ALU has no general multiply",
                instr.loc,
                notes=[
                    "multiplication by a power-of-two constant is fine "
                    "(it strength-reduces to a shift)"
                ],
                rule=self.name,
            )

    def _check_register_accesses(self, ctx, fn, profile) -> None:
        counts: Dict[str, int] = {}
        first_loc: Dict[str, object] = {}
        for _block, instr, ref, _w in ir.state_accesses(fn):
            if ref.space != "net":
                continue
            counts[ref.name] = counts.get(ref.name, 0) + 1
            if ref.name not in first_loc and instr.loc is not None:
                first_loc[ref.name] = instr.loc
        for name, count in counts.items():
            if count <= profile.max_register_accesses_per_array:
                continue
            ctx.sink.warning(
                "NCL0611",
                f"kernel '{fn.name}' makes {count} accesses per window to "
                f"register array '{name}'; profile '{profile.name}' allows "
                f"{profile.max_register_accesses_per_array}",
                first_loc.get(name),
                length=len(name),
                notes=[
                    "the register-splitting transformation can divide some "
                    "arrays across stages; otherwise restructure the kernel "
                    "to a single read-modify-write per array"
                ],
                rule=self.name,
            )

    def _check_phv(self, ctx, fn, profile, header_bits, decl_loc) -> None:
        data_bits = 0
        for param in fn.params:
            pointee = (
                param.ty.pointee
                if hasattr(param.ty, "pointee") and param.ty.is_pointer
                else param.ty
            )
            data_bits += _bits(pointee) or 0
        est = header_bits + data_bits
        if est > profile.phv_bits:
            ctx.sink.warning(
                "NCL0612",
                f"window for kernel '{fn.name}' needs an estimated {est} "
                f"PHV bits (header {header_bits} + data {data_bits}); "
                f"profile '{profile.name}' provides {profile.phv_bits}",
                decl_loc,
                length=len(fn.name),
                rule=self.name,
            )

    def _check_stages_tables(self, ctx, fn, profile, decl_loc) -> None:
        est_stages = _longest_block_path(fn)
        est_tables = sum(
            1
            for i in fn.instructions()
            if i.has_side_effects and not isinstance(i, (ir.Br, ir.Ret))
        )
        if est_stages > profile.max_stages:
            ctx.sink.warning(
                "NCL0613",
                f"kernel '{fn.name}' spans an estimated {est_stages} pipeline "
                f"stages before unrolling; profile '{profile.name}' has "
                f"{profile.max_stages}",
                decl_loc,
                length=len(fn.name),
                notes=["loop unrolling multiplies this estimate further"],
                rule=self.name,
            )
        if est_tables > profile.max_tables:
            ctx.sink.warning(
                "NCL0614",
                f"kernel '{fn.name}' lowers to an estimated {est_tables} "
                f"table applications; profile '{profile.name}' allows "
                f"{profile.max_tables}",
                decl_loc,
                length=len(fn.name),
                rule=self.name,
            )
