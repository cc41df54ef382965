"""Abstract interpretation over SSA NIR: intervals composed with known-bits.

This is the value-flow analysis backing three consumers (paper S5's
"analysis and optimization" stage):

* lint precision -- the ``overflow`` / ``width-truncation`` /
  ``dead-branch`` / ``shift-range`` / ``div-by-zero`` rules grade their
  findings *proved* (the analysis shows the bad outcome on every
  execution reaching the site) vs *possible* (the computed ranges admit
  it) instead of firing on syntax;
* the ``rangesimplify`` NIR pass (:mod:`repro.nir.passes.rangesimplify`)
  materializes proved-singleton values as constants at -O2;
* the translation validator (:mod:`repro.analysis.transval`) compares
  per-pass invariants under ``nclc build --verify-opt``.

The abstract value (:class:`AbsVal`) tracks, per scalar SSA value:

* an **interval** ``[lo, hi]`` over the *wrapped representative* domain
  the interpreter stores -- ``[0, 2^bits)`` for unsigned types,
  ``[-2^(bits-1), 2^(bits-1))`` for signed ones (NCL arithmetic wraps at
  the declared width, see :mod:`repro.util.intops`);
* **known bits** ``zeros``/``ones`` masks over the low ``bits`` of the
  two's-complement pattern (``zeros & ones == 0``).

The two domains exchange information after every transfer
(:meth:`AbsVal.reduced`): a known sign bit tightens the interval, a
non-negative interval pins leading zero bits, a singleton interval pins
the whole pattern.

The fixed point iterates blocks in reverse postorder with *conditional*
reachability (edges proved infeasible by branch conditions do not feed
phis) and widens unstable interval bounds at loop-carried values after a
few rounds, so loops (host pipelines keep them) terminate quickly.

Everything here is deterministic: no hashing of ids, no iteration over
unordered sets; the :func:`render_module_facts` dump renumbers values in
block order and is byte-stable for golden tests (``nclc --emit absint``).
"""

from __future__ import annotations

from functools import lru_cache
from typing import Dict, Optional, Set, Tuple

from repro.errors import IrError
from repro.ncl.types import BoolType, IntType
from repro.nir import ir
from repro.nir.cfg import reverse_postorder
from repro.util import intops

#: rounds before unstable interval bounds are widened to the type range
WIDEN_AFTER = 3
#: hard cap on fixed-point rounds; a function still moving in the last
#: one raises IrError (widening keeps chains short: never reached)
MAX_ROUNDS = 64


def _scalar_info(ty) -> Optional[Tuple[int, bool]]:
    """(bits, signed) for scalar types, None for everything else."""
    if isinstance(ty, IntType):
        return ty.bits, ty.signed
    if isinstance(ty, BoolType):
        return BoolType.bits, False
    return None


def _type_range(bits: int, signed: bool) -> Tuple[int, int]:
    if signed:
        return -(1 << (bits - 1)), (1 << (bits - 1)) - 1
    return 0, (1 << bits) - 1


class AbsVal:
    """One abstract scalar: interval over representatives + known bits."""

    __slots__ = ("bits", "signed", "lo", "hi", "zeros", "ones")

    def __init__(
        self, bits: int, signed: bool, lo: int, hi: int, zeros: int = 0, ones: int = 0
    ):
        self.bits = bits
        self.signed = signed
        self.lo = lo
        self.hi = hi
        self.zeros = zeros
        self.ones = ones

    # -- constructors --------------------------------------------------

    @staticmethod
    @lru_cache(maxsize=None)  # one per scalar type; AbsVals are never mutated
    def top(bits: int, signed: bool) -> "AbsVal":
        lo, hi = _type_range(bits, signed)
        return AbsVal(bits, signed, lo, hi).reduced()

    @classmethod
    def bottom(cls, bits: int, signed: bool) -> "AbsVal":
        m = intops.mask(bits)
        return cls(bits, signed, 1, 0, m, m)

    @classmethod
    def const(cls, value: int, bits: int, signed: bool) -> "AbsVal":
        rep = intops.wrap(value, bits, signed)
        pat = rep & intops.mask(bits)
        return cls(bits, signed, rep, rep, ~pat & intops.mask(bits), pat)

    # -- predicates ----------------------------------------------------

    @property
    def is_bottom(self) -> bool:
        return self.lo > self.hi

    @property
    def is_singleton(self) -> bool:
        return self.lo == self.hi

    @property
    def singleton(self) -> Optional[int]:
        return self.lo if self.lo == self.hi else None

    def informative(self) -> bool:
        """Did the analysis learn anything beyond the declared width?

        The *possible*-grade lint findings gate on this: a warning about
        a full-width unknown value would fire on half of every program.
        """
        tlo, thi = _type_range(self.bits, self.signed)
        return self.lo > tlo or self.hi < thi

    def contains(self, value: int) -> bool:
        return self.lo <= value <= self.hi

    def proved_nonzero(self) -> bool:
        return self.ones != 0 or self.lo > 0 or self.hi < 0

    def proved_zero(self) -> bool:
        return self.singleton == 0

    # -- lattice operations --------------------------------------------

    def join(self, other: "AbsVal") -> "AbsVal":
        if self.is_bottom:
            return other
        if other.is_bottom:
            return self
        return AbsVal(
            self.bits,
            self.signed,
            min(self.lo, other.lo),
            max(self.hi, other.hi),
            self.zeros & other.zeros,
            self.ones & other.ones,
        ).reduced()

    def widened(self, new: "AbsVal") -> "AbsVal":
        """Jump unstable bounds straight to the type range and drop every
        known bit once the join *new* has lost one (loop headers): a
        known-bits chain would otherwise lose one bit a round."""
        tlo, thi = _type_range(self.bits, self.signed)
        lo = self.lo if new.lo >= self.lo else tlo
        hi = self.hi if new.hi <= self.hi else thi
        lost = new.zeros != self.zeros or new.ones != self.ones
        zeros, ones = (0, 0) if lost else (new.zeros, new.ones)
        return AbsVal(self.bits, self.signed, lo, hi, zeros, ones).reduced()

    def reduced(self) -> "AbsVal":
        """Exchange information between the two domains; clamp to type."""
        bits, signed = self.bits, self.signed
        m = intops.mask(bits)
        tlo, thi = _type_range(bits, signed)
        lo, hi = max(self.lo, tlo), min(self.hi, thi)
        zeros, ones = self.zeros & m, self.ones & m
        if lo > hi or zeros & ones:
            return AbsVal.bottom(bits, signed)
        # interval -> bits: common leading pattern bits of the two bounds
        # (patterns compare only when the range does not straddle zero).
        if lo >= 0 or hi < 0:
            pa, pb = lo & m, hi & m
            diff = pa ^ pb
            keep = m & ~((1 << diff.bit_length()) - 1)
            ones |= pa & keep
            zeros |= ~pa & keep
        if zeros & ones:
            return AbsVal.bottom(bits, signed)
        # bits -> interval: min/max representable patterns
        umin, umax = ones, m & ~zeros
        sign = 1 << (bits - 1)
        if not signed or zeros & sign:
            blo, bhi = umin, umax
            if signed:
                bhi = min(bhi, thi)
        elif ones & sign:
            blo, bhi = umin - (1 << bits), umax - (1 << bits)
        else:
            blo = ((umin | sign) & m) - (1 << bits)
            bhi = umax & ~sign
        lo, hi = max(lo, blo), min(hi, bhi)
        if lo > hi:
            return AbsVal.bottom(bits, signed)
        return AbsVal(bits, signed, lo, hi, zeros, ones)

    # -- views ---------------------------------------------------------

    def unsigned_range(self, width: Optional[int] = None) -> Tuple[int, int]:
        """Range of ``to_unsigned(rep, width)`` (the bit pattern widened)."""
        width = self.bits if width is None else width
        if self.lo >= 0:
            return self.lo, self.hi
        if self.hi < 0:
            off = 1 << width
            return self.lo + off, self.hi + off
        return 0, (1 << width) - 1

    def trailing_known(self) -> int:
        known = self.zeros | self.ones
        t = 0
        while t < self.bits and known & (1 << t):
            t += 1
        return t

    # -- rendering -----------------------------------------------------

    def pattern(self) -> str:
        """The known-bits pattern, MSB first: '0', '1' or 'x' per bit."""
        out = []
        for i in range(self.bits - 1, -1, -1):
            bit = 1 << i
            out.append("1" if self.ones & bit else "0" if self.zeros & bit else "x")
        return "".join(out)

    def render(self) -> str:
        if self.is_bottom:
            return "bottom"
        return f"[{self.lo}, {self.hi}] {self.pattern()}"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, AbsVal) and (
            self.bits, self.signed, self.lo, self.hi, self.zeros, self.ones
        ) == (other.bits, other.signed, other.lo, other.hi, other.zeros, other.ones)

    def __hash__(self) -> int:
        return hash((self.bits, self.lo, self.hi, self.zeros, self.ones))

    def __repr__(self) -> str:
        sign = "i" if self.signed else "u"
        return f"AbsVal({sign}{self.bits} {self.render()})"


# ---------------------------------------------------------------------------
# Transfer functions
# ---------------------------------------------------------------------------


def _wrap_interval(lo: int, hi: int, bits: int, signed: bool) -> Tuple[int, int]:
    """Exact (unbounded) result range -> wrapped representative range."""
    if hi - lo >= (1 << bits):
        return _type_range(bits, signed)
    wl = intops.wrap(lo, bits, signed)
    wh = intops.wrap(hi, bits, signed)
    if wl <= wh:
        return wl, wh
    return _type_range(bits, signed)


def _trailing_bits(op: str, a: AbsVal, b: AbsVal, bits: int) -> Tuple[int, int]:
    """Known low bits of add/sub/mul (exact modulo 2^t on known suffixes)."""
    t = min(a.trailing_known(), b.trailing_known(), bits)
    if t == 0:
        return 0, 0
    low = (1 << t) - 1
    if op == "add":
        v = (a.ones + b.ones) & low
    elif op == "sub":
        v = (a.ones - b.ones) & low
    else:  # mul
        v = (a.ones * b.ones) & low
    return low & ~v, v


def exact_range(op: str, a: AbsVal, b: AbsVal) -> Optional[Tuple[int, int]]:
    """The *unwrapped* result range of add/sub/mul over representatives.

    This is what the overflow lint compares against the representable
    range: disjoint means every execution wraps, overlap means some may.
    """
    if a.is_bottom or b.is_bottom:
        return None
    if op == "add":
        return a.lo + b.lo, a.hi + b.hi
    if op == "sub":
        return a.lo - b.hi, a.hi - b.lo
    if op == "mul":
        corners = [
            a.lo * b.lo, a.lo * b.hi, a.hi * b.lo, a.hi * b.hi,
        ]
        return min(corners), max(corners)
    return None


def _binop_arith(op: str, a: AbsVal, b: AbsVal, bits: int, signed: bool) -> AbsVal:
    m = intops.mask(bits)
    if op in ("add", "sub", "mul"):
        lo, hi = _wrap_interval(*exact_range(op, a, b), bits, signed)
        zeros, ones = _trailing_bits(op, a, b, bits)
        return AbsVal(bits, signed, lo, hi, zeros, ones).reduced()

    if op in ("and", "or", "xor"):
        if op == "and":
            zeros = a.zeros | b.zeros
            ones = a.ones & b.ones
        elif op == "or":
            zeros = a.zeros & b.zeros
            ones = a.ones | b.ones
        else:
            both = (a.zeros | a.ones) & (b.zeros | b.ones)
            val = (a.ones ^ b.ones) & both
            zeros, ones = both & ~val, val
        lo, hi = _type_range(bits, signed)
        if a.lo >= 0 and b.lo >= 0:
            if op == "and":
                lo, hi = 0, min(a.hi, b.hi)
            else:
                width = max(a.hi.bit_length(), b.hi.bit_length())
                cap = min((1 << width) - 1, _type_range(bits, signed)[1])
                lo, hi = (max(a.lo, b.lo), cap) if op == "or" else (0, cap)
        return AbsVal(bits, signed, lo, hi, zeros, ones).reduced()

    if op in ("shl", "lshr", "ashr"):
        return _shift(op, a, b, bits, signed)

    if op in ("udiv", "urem", "sdiv", "srem"):
        return _divide(op, a, b, bits, signed)

    return AbsVal.top(bits, signed)


def _shift(op: str, a: AbsVal, b: AbsVal, bits: int, signed: bool) -> AbsVal:
    # The interpreter's semantics: negative amounts trap, amounts >= bits
    # reduce mod bits. Only in-range amounts [0, bits) yield information.
    if b.lo < 0 or b.hi >= bits:
        return AbsVal.top(bits, signed)
    s = b.singleton
    m = intops.mask(bits)
    if s is None:
        # known trailing zeros for shl by at least b.lo
        if op == "shl" and b.lo > 0:
            return AbsVal(
                bits, signed, *_type_range(bits, signed), (1 << b.lo) - 1, 0
            ).reduced()
        return AbsVal.top(bits, signed)
    if op == "shl":
        lo, hi = _wrap_interval(a.lo << s, a.hi << s, bits, signed)
        zeros = ((a.zeros << s) | ((1 << s) - 1)) & m
        ones = (a.ones << s) & m
        return AbsVal(bits, signed, lo, hi, zeros, ones).reduced()
    if op == "lshr":
        # operates on the unsigned pattern, result wraps at the type
        ulo, uhi = a.unsigned_range()
        lo, hi = _wrap_interval(ulo >> s, uhi >> s, bits, signed)
        zeros = ((a.zeros >> s) | (m & ~(m >> s))) & m
        ones = (a.ones >> s) & m
        return AbsVal(bits, signed, lo, hi, zeros, ones).reduced()
    # ashr: floor-divide the signed representative by 2^s (monotone)
    lo, hi = a.lo >> s, a.hi >> s
    sign = 1 << (bits - 1)
    if a.zeros & sign:  # known non-negative: behaves like lshr
        zeros = ((a.zeros >> s) | (m & ~(m >> s))) & m
        ones = (a.ones >> s) & m
        return AbsVal(bits, signed, lo, hi, zeros, ones).reduced()
    return AbsVal(bits, signed, lo, hi).reduced()


def _divide(op: str, a: AbsVal, b: AbsVal, bits: int, signed: bool) -> AbsVal:
    if b.lo <= 0 <= b.hi:
        # divisor may be zero: the instruction may trap; no result info
        # (recorded separately as the instruction's div status).
        return AbsVal.top(bits, signed)
    if op in ("udiv", "urem") and (a.lo < 0 or b.lo < 0):
        return AbsVal.top(bits, signed)
    if op == "udiv":
        return AbsVal(bits, signed, a.lo // b.hi, a.hi // b.lo).reduced()
    if op == "urem":
        if a.hi < b.lo:
            return AbsVal(bits, signed, a.lo, a.hi, a.zeros, a.ones).reduced()
        return AbsVal(bits, signed, 0, b.hi - 1).reduced()
    if op == "sdiv":
        corners = []
        for x in (a.lo, a.hi):
            for y in (b.lo, b.hi):
                corners.append(intops.checked_sdiv(x, y))
        lo, hi = _wrap_interval(min(corners), max(corners), bits, signed)
        return AbsVal(bits, signed, lo, hi).reduced()
    # srem: sign follows the dividend, magnitude < max |divisor|
    mag = max(abs(b.lo), abs(b.hi)) - 1
    lo = -mag if a.lo < 0 else 0
    hi = mag if a.hi > 0 else 0
    if a.hi < abs(b.lo) and a.lo >= 0 and b.lo > 0 and a.hi < b.lo:
        lo, hi = a.lo, a.hi
    return AbsVal(bits, signed, lo, hi).reduced()


_CMP_NEGATE = {"eq": "ne", "ne": "eq"}


def _compare(op: str, a: AbsVal, b: AbsVal) -> AbsVal:
    """BOOL result of a compare; [0,0]/[1,1] when provable."""
    verdict = compare_verdict(op, a, b)
    if verdict is None:
        return AbsVal(8, False, 0, 1).reduced()
    return AbsVal.const(int(verdict), 8, False)


def compare_verdict(op: str, a: AbsVal, b: AbsVal) -> Optional[bool]:
    """True/False when the compare is decided by the ranges, else None."""
    if a.is_bottom or b.is_bottom:
        return None
    if op in ("eq", "ne"):
        disjoint = a.hi < b.lo or b.hi < a.lo
        if not disjoint and a.bits == b.bits:
            # known-bits disagreement proves inequality
            if (a.ones & b.zeros) or (b.ones & a.zeros):
                disjoint = True
        if disjoint:
            return op == "ne"
        if a.is_singleton and b.is_singleton and a.lo == b.lo:
            return op == "eq"
        return None
    if op.startswith("u"):
        # unsigned compares reinterpret both patterns at 64 bits
        alo, ahi = a.unsigned_range(64)
        blo, bhi = b.unsigned_range(64)
    else:
        alo, ahi, blo, bhi = a.lo, a.hi, b.lo, b.hi
    rel = op[1:]
    if rel == "lt":
        return True if ahi < blo else False if alo >= bhi else None
    if rel == "le":
        return True if ahi <= blo else False if alo > bhi else None
    if rel == "gt":
        return True if alo > bhi else False if ahi <= blo else None
    if rel == "ge":
        return True if alo >= bhi else False if ahi < blo else None
    return None


# ---------------------------------------------------------------------------
# The fixed-point analyzer
# ---------------------------------------------------------------------------


class FunctionFacts:
    """Everything the analysis proved about one function."""

    def __init__(self, fn: ir.Function):
        self.fn = fn
        #: AbsVal per value-producing instruction (by object identity)
        self.values: Dict[ir.Instr, AbsVal] = {}
        #: blocks the analysis could not rule out
        self.reachable: Set[ir.Block] = set()
        #: CFG edges proved never taken ((src, dst) pairs)
        self.infeasible_edges: Set[Tuple[ir.Block, ir.Block]] = set()
        #: CondBr -> the proved direction (True = then, False = else)
        self.branch_decisions: Dict[ir.CondBr, bool] = {}
        #: division/remainder status: 'zero' (divisor proved 0) | 'maybe'
        self.div_status: Dict[ir.BinOp, str] = {}
        #: shift-amount status: 'neg' | 'oob' | 'maybe'
        self.shift_status: Dict[ir.BinOp, str] = {}
        #: join of all reachable return values (None for void/no info)
        self.ret_value: Optional[AbsVal] = None
        self.rounds = 0

    def value_of(self, value: ir.Value) -> Optional[AbsVal]:
        """The abstract value of any operand (Const/Param/Undef/Instr)."""
        if isinstance(value, ir.Instr):
            return self.values.get(value)
        info = _scalar_info(value.ty)
        if info is None:
            return None
        if isinstance(value, ir.Const):
            return AbsVal.const(value.value, *info)
        return AbsVal.top(*info)


class _Analyzer:
    def __init__(
        self,
        fn: ir.Function,
        label_ids: Optional[Dict[str, int]] = None,
        win_ext: Optional[Dict[str, int]] = None,
    ):
        self.fn = fn
        self.label_ids = dict(label_ids or {})
        self.win_ext = dict(win_ext or {})
        self.facts = FunctionFacts(fn)
        #: operand access: Params and Undef carry no information beyond
        #: their width
        self.get = self.facts.value_of
        self.updates: Dict[ir.Instr, int] = {}

    # -- the fixed point -----------------------------------------------

    def run(self) -> FunctionFacts:
        if not self.fn.blocks:
            return self.facts
        rpo = reverse_postorder(self.fn)
        # Evaluate on change.  A non-phi transfer is a pure function of its
        # operands' facts, so while no operand's fact has moved since the
        # instruction was last evaluated its result is the one held in
        # ``seen``; and once ``_update`` has found that result absorbed by
        # the stored fact it will find so again.  Order, reachability and
        # phis are as in plain round-robin, so are the facts.
        tick = 0
        #: instr -> tick at which its stored fact last changed
        moved: Dict[ir.Instr, int] = {}
        #: instr -> (tick evaluated, transfer result, result absorbed)
        seen: Dict[ir.Instr, Tuple[int, Optional[AbsVal], bool]] = {}
        for round_no in range(1, MAX_ROUNDS + 1):
            self.facts.rounds = round_no
            reachable, feasible = self._reachability()
            changed = False
            for block in rpo:
                if block not in reachable:
                    continue
                for instr in block.instrs:
                    tick += 1
                    if isinstance(instr, ir.Phi):
                        new = self._eval_phi(instr, block, reachable, feasible)
                        if new is not None and self._update(instr, new):
                            moved[instr] = tick
                            changed = True
                        continue
                    last = seen.get(instr)
                    if last is None:
                        new = self._transfer(instr)
                    else:
                        at, new, absorbed = last
                        for op in instr.operands:
                            if moved.get(op, 0) > at:
                                new = self._transfer(instr)
                                break
                        else:
                            if absorbed:
                                continue
                    stepped = new is not None and self._update(instr, new)
                    if stepped:
                        moved[instr] = tick
                        changed = True
                    seen[instr] = (tick, new, not stepped)
            if not changed:
                break
        else:
            self._unconverged()
        self._finalize()
        return self.facts

    def _unconverged(self) -> None:
        """A fixed point that still moved in its last allowed round is no
        fixed point: facts read from it would be unsound."""
        raise IrError(
            f"abstract interpretation of '{self.fn.name}' did not converge "
            f"in {MAX_ROUNDS} rounds"
        )

    def _update(self, instr: ir.Instr, new: AbsVal) -> bool:
        old = self.facts.values.get(instr)
        if old is not None:
            new = old.join(new)
            if new == old:
                return False
            self.updates[instr] = self.updates.get(instr, 0) + 1
            if self.updates[instr] > WIDEN_AFTER:
                new = old.widened(new)
                if new == old:
                    return False
        self.facts.values[instr] = new
        return True

    def _reachability(self):
        """Blocks/edges feasible under the current branch proofs."""
        reachable: Set[ir.Block] = set()
        feasible: Set[Tuple[ir.Block, ir.Block]] = set()
        work = [self.fn.entry]
        while work:
            block = work.pop()
            if block in reachable:
                continue
            reachable.add(block)
            term = block.terminator
            if term is None:
                continue
            targets = list(term.successors())
            if isinstance(term, ir.CondBr):
                cond = self.get(term.cond)
                if cond is not None and not cond.is_bottom:
                    if cond.proved_nonzero():
                        targets = [term.then]
                    elif cond.proved_zero():
                        targets = [term.other]
            for succ in targets:
                feasible.add((block, succ))
                work.append(succ)
        return reachable, feasible

    def _eval_phi(self, phi, block, reachable, feasible) -> Optional[AbsVal]:
        info = _scalar_info(phi.ty)
        if info is None:
            return None
        result: Optional[AbsVal] = None
        for value, pred in phi.incoming:
            if pred not in reachable or (pred, block) not in feasible:
                continue
            v = self.get(value)
            if v is None:
                continue
            result = v if result is None else result.join(v)
        return result

    # -- instruction transfer ------------------------------------------

    def _transfer(self, instr: ir.Instr) -> Optional[AbsVal]:
        info = _scalar_info(instr.ty)
        if isinstance(instr, ir.BinOp):
            return self._transfer_binop(instr)
        if info is None:
            return None
        bits, signed = info
        if isinstance(instr, ir.UnOp):
            a = self.get(instr.operands[0])
            if instr.op == "lnot":
                if a is None:
                    return AbsVal(8, False, 0, 1).reduced()
                if a.proved_nonzero():
                    return AbsVal.const(0, 8, False)
                if a.proved_zero():
                    return AbsVal.const(1, 8, False)
                return AbsVal(8, False, 0, 1).reduced()
            if a is None:
                return AbsVal.top(bits, signed)
            if instr.op == "neg":
                lo, hi = _wrap_interval(-a.hi, -a.lo, bits, signed)
                zeros, ones = _trailing_bits(
                    "sub", AbsVal.const(0, bits, signed), a, bits
                )
                return AbsVal(bits, signed, lo, hi, zeros, ones).reduced()
            # bitwise not
            lo, hi = _wrap_interval(-a.hi - 1, -a.lo - 1, bits, signed)
            m = intops.mask(bits)
            return AbsVal(bits, signed, lo, hi, a.ones & m, a.zeros & m).reduced()
        if isinstance(instr, ir.Cast):
            return self._transfer_cast(instr, bits, signed)
        if isinstance(instr, ir.Select):
            cond = self.get(instr.operands[0])
            a = self.get(instr.operands[1])
            b = self.get(instr.operands[2])
            if cond is not None:
                if cond.proved_nonzero():
                    return a
                if cond.proved_zero():
                    return b
            if a is None or b is None:
                return AbsVal.top(bits, signed)
            return a.join(b)
        if isinstance(instr, (ir.MapFound, ir.BloomOp)):
            return AbsVal(8, False, 0, 1).reduced()
        if isinstance(instr, ir.LocLabel):
            if instr.label in self.label_ids:
                return AbsVal.const(self.label_ids[instr.label], bits, signed)
            return AbsVal.top(bits, signed)
        if isinstance(instr, ir.WinField):
            if instr.field in self.win_ext:
                return AbsVal.const(self.win_ext[instr.field], bits, signed)
            return AbsVal.top(bits, signed)
        # Loads, params, ctrl reads, calls, map values, location ids:
        # nothing is known beyond the declared width.
        return AbsVal.top(bits, signed)

    def _transfer_binop(self, instr: ir.BinOp) -> Optional[AbsVal]:
        a = self.get(instr.lhs)
        b = self.get(instr.rhs)
        if instr.op in ir.BinOp.COMPARES:
            if a is None or b is None:
                return AbsVal(8, False, 0, 1).reduced()
            return _compare(instr.op, a, b)
        info = _scalar_info(instr.ty)
        if info is None:
            return None
        bits, signed = info
        if a is None or b is None:
            return AbsVal.top(bits, signed)
        if a.is_bottom or b.is_bottom:
            return AbsVal.bottom(bits, signed)
        # syntactic identities the interval product misses
        if instr.lhs is instr.rhs and isinstance(instr.lhs, ir.Instr):
            if instr.op in ("sub", "xor"):
                return AbsVal.const(0, bits, signed)
            if instr.op in ("and", "or"):
                return a.reduced()
        # record trap facts (consumed by the lint rules)
        if instr.op in ("udiv", "sdiv", "urem", "srem"):
            if b.singleton == 0:
                self.facts.div_status[instr] = "zero"
            elif b.lo <= 0 <= b.hi:
                self.facts.div_status[instr] = "maybe"
            else:
                self.facts.div_status.pop(instr, None)
        if instr.op in ("shl", "lshr", "ashr"):
            if b.hi < 0:
                self.facts.shift_status[instr] = "neg"
            elif b.lo >= bits:
                self.facts.shift_status[instr] = "oob"
            elif b.lo < 0 or b.hi >= bits:
                self.facts.shift_status[instr] = "maybe"
            else:
                self.facts.shift_status.pop(instr, None)
        return _binop_arith(instr.op, a, b, bits, signed)

    def _transfer_cast(self, instr: ir.Cast, bits: int, signed: bool) -> AbsVal:
        a = self.get(instr.operands[0])
        if instr.kind == "bool":
            if a is not None:
                if a.proved_nonzero():
                    return AbsVal.const(1, 8, False)
                if a.proved_zero():
                    return AbsVal.const(0, 8, False)
            return AbsVal(8, False, 0, 1).reduced()
        src_info = _scalar_info(instr.operands[0].ty)
        if a is None or src_info is None:
            return AbsVal.top(bits, signed)
        src_bits, _src_signed = src_info
        msrc = intops.mask(src_bits)
        mdst = intops.mask(bits)
        if instr.kind == "trunc":
            lo, hi = _wrap_interval(a.lo, a.hi, bits, signed)
            return AbsVal(
                bits, signed, lo, hi, a.zeros & mdst, a.ones & mdst
            ).reduced()
        if instr.kind == "zext":
            ulo, uhi = a.unsigned_range()
            lo, hi = _wrap_interval(ulo, uhi, bits, signed)
            zeros = (a.zeros & msrc) | (mdst & ~msrc)
            return AbsVal(bits, signed, lo, hi, zeros, a.ones & msrc).reduced()
        # sext: read the low src_bits as a signed quantity, then wrap
        half = 1 << (src_bits - 1)
        if a.hi < half and a.lo >= -half:
            slo, shi = a.lo, a.hi
        elif a.lo >= half:
            slo, shi = a.lo - (1 << src_bits), a.hi - (1 << src_bits)
        else:
            slo, shi = -half, half - 1
        lo, hi = _wrap_interval(slo, shi, bits, signed)
        sign = half
        zeros, ones = a.zeros & msrc, a.ones & msrc
        if zeros & sign:
            zeros |= mdst & ~msrc
        elif ones & sign:
            ones |= mdst & ~msrc
        return AbsVal(bits, signed, lo, hi, zeros, ones).reduced()

    # -- wrap-up -------------------------------------------------------

    def _finalize(self) -> None:
        reachable, feasible = self._reachability()
        self.facts.reachable = reachable
        ret: Optional[AbsVal] = None
        for block in self.fn.blocks:
            if block not in reachable:
                continue
            term = block.terminator
            if isinstance(term, ir.CondBr):
                for succ in term.successors():
                    if (block, succ) not in feasible:
                        self.facts.infeasible_edges.add((block, succ))
                cond = self.get(term.cond)
                if cond is not None and not cond.is_bottom:
                    if cond.proved_nonzero():
                        self.facts.branch_decisions[term] = True
                    elif cond.proved_zero():
                        self.facts.branch_decisions[term] = False
            elif isinstance(term, ir.Ret) and term.value is not None:
                v = self.get(term.value)
                if v is not None:
                    ret = v if ret is None else ret.join(v)
        self.facts.ret_value = ret


def analyze_function(
    fn: ir.Function,
    label_ids: Optional[Dict[str, int]] = None,
    win_ext: Optional[Dict[str, int]] = None,
) -> FunctionFacts:
    """Run the abstract interpreter to fixed point over one SSA function.

    ``label_ids`` resolves ``_locid("...")`` probes to constants (pass
    the AND's label map); ``win_ext`` pins window-extension fields the
    way window specialization would.
    """
    return _Analyzer(fn, label_ids, win_ext).run()


def analyze_module(
    module: ir.Module,
    label_ids: Optional[Dict[str, int]] = None,
) -> Dict[str, FunctionFacts]:
    """Facts for every function of *module*, keyed and ordered by name."""
    return {
        name: analyze_function(module.functions[name], label_ids)
        for name in sorted(module.functions)
    }


# ---------------------------------------------------------------------------
# Deterministic fact dump (``nclc --emit absint`` and golden tests)
# ---------------------------------------------------------------------------


def render_function_facts(facts: FunctionFacts) -> str:
    """Byte-stable rendering: values renumbered in block order (the raw
    instruction ids come from a process-global counter and would differ
    between compiles of the same source)."""
    fn = facts.fn
    number: Dict[ir.Instr, int] = {}
    for block in fn.blocks:
        for instr in block.instrs:
            number[instr] = len(number)

    def name_of(value: ir.Value) -> str:
        if isinstance(value, ir.Instr):
            return f"%{number.get(value, '?')}"
        return value.short()

    lines = [f"func {fn.name}"]
    for block in fn.blocks:
        mark = "" if block in facts.reachable else "  ; unreachable"
        lines.append(f"  {block.label}:{mark}")
        for instr in block.instrs:
            if isinstance(instr, ir.CondBr):
                decided = facts.branch_decisions.get(instr)
                note = ""
                if decided is not None:
                    note = f"  ; always {'then' if decided else 'else'}"
                lines.append(
                    f"    condbr {name_of(instr.cond)}, {instr.then.label}, "
                    f"{instr.other.label}{note}"
                )
                continue
            if isinstance(instr, ir.Ret):
                if instr.value is not None:
                    lines.append(f"    ret {name_of(instr.value)}")
                else:
                    lines.append("    ret")
                continue
            if isinstance(instr, ir.Br):
                lines.append(f"    br {instr.target.label}")
                continue
            val = facts.values.get(instr)
            if val is None:
                continue
            ops = ", ".join(name_of(op) for op in instr.operands)
            mnem = instr.mnemonic
            if isinstance(instr, ir.BinOp):
                mnem = instr.op
            elif isinstance(instr, ir.UnOp):
                mnem = instr.op
            elif isinstance(instr, ir.Cast):
                mnem = instr.kind
            head = f"%{number[instr]} = {mnem} {ops}".rstrip()
            lines.append(f"    {head} : {val.render()}")
    if facts.ret_value is not None:
        lines.append(f"  ret value: {facts.ret_value.render()}")
    return "\n".join(lines)


def render_module_facts(facts: Dict[str, FunctionFacts]) -> str:
    parts = [render_function_facts(facts[name]) for name in sorted(facts)]
    return "\n\n".join(parts) + "\n"
