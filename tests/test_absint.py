"""Unit + golden tests for the NIR abstract interpreter.

Three layers:

* domain algebra -- AbsVal join/widen/wrap/known-bits laws, checked
  directly and against exhaustive concrete enumeration at small widths;
* whole-function facts -- ranges, proved branches, trap statuses on
  hand-built and compiled kernels;
* golden dump -- ``nclc build --emit absint`` output for
  examples/parity.ncl is byte-stable across compiles and matches
  tests/golden/parity_absint.txt.
"""

import itertools
import random
from pathlib import Path

import pytest

from repro.analysis import absint, lint_source
from repro.analysis.absint import (
    AbsVal,
    analyze_function,
    analyze_module,
    compare_verdict,
    exact_range,
)
from repro.errors import IrError
from repro.nclc import Compiler, WindowConfig
from repro.nir import ir
from repro.nir.interp import DeviceState, run_kernel

REPO = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"


def interval(lo, hi, bits=8, signed=False):
    return AbsVal(bits, signed, lo, hi).reduced()


class TestDomainAlgebra:
    def test_const_is_singleton_with_full_pattern(self):
        v = AbsVal.const(9, 8, False)
        assert v.singleton == 9
        assert v.pattern() == "00001001"

    def test_join_covers_both_operands(self):
        a = interval(1, 3)
        b = interval(10, 12)
        j = a.join(b)
        assert j.lo == 1 and j.hi == 12
        # known bits survive a join only where both sides agree
        assert j.ones & ~(a.ones & b.ones) == 0

    def test_join_with_bottom_is_identity(self):
        a = interval(4, 7)
        bot = AbsVal.bottom(8, False)
        assert a.join(bot).lo == a.lo and a.join(bot).hi == a.hi
        assert bot.join(a).lo == a.lo and bot.join(a).hi == a.hi

    def test_widen_jumps_unstable_bounds_to_type_range(self):
        a = interval(0, 200)
        grown = interval(0, 201)
        w = a.widened(grown)
        assert w.lo == 0 and w.hi == 255  # hi unstable -> type max

    def test_widen_respects_shared_known_bits(self):
        # both sides know the top five bits are zero, so the widened
        # bound lands on 7, not the type max
        assert interval(0, 4).widened(interval(0, 6)).hi == 7
        # once the join has lost a known bit (bit 2: [0, 3] knows it is
        # zero, [0, 5] does not) widening drops every known bit, so the
        # bound goes to the type max: a chain that loses one bit a round
        # cannot take `bits` rounds to settle
        w = interval(0, 3).widened(interval(0, 5))
        assert (w.hi, w.zeros, w.ones) == (255, 0, 0)

    def test_widen_keeps_stable_bounds(self):
        a = interval(2, 10)
        shrunk = interval(3, 10)
        w = a.widened(shrunk)
        assert w.lo == 2 and w.hi == 10

    def test_reduced_exchanges_bounds_and_bits(self):
        # bounds 40..47 share their top five bits -> pattern learns them
        v = interval(40, 47)
        assert v.pattern().startswith("00101")
        # conversely, a known low bit tightens parity-impossible bounds
        forced = AbsVal(8, False, 0, 255, zeros=0, ones=1).reduced()
        assert forced.lo >= 1

    def test_informative_gate(self):
        assert not AbsVal.top(8, False).informative()
        assert interval(0, 200).informative()
        assert AbsVal.top(8, True).informative() is False

    @pytest.mark.parametrize("signed", [False, True])
    def test_unsigned_range_matches_patterns(self, signed):
        v = AbsVal.const(-3 if signed else 250, 8, signed)
        lo, hi = v.unsigned_range()
        assert lo == hi == (253 if signed else 250)


class TestTransferSoundness:
    """Exhaustive 4-bit soundness: every concrete result of an operation
    on members of the abstract inputs lies inside the abstract output."""

    OPS = ["add", "sub", "mul", "and", "or", "xor"]

    @pytest.mark.parametrize("op", OPS)
    @pytest.mark.parametrize("signed", [False, True])
    def test_exhaustive_small_width(self, op, signed):
        from repro.util import intops

        bits = 4
        rng = random.Random(f"{op}:{signed}")
        concrete = {
            "add": lambda a, b: a + b,
            "sub": lambda a, b: a - b,
            "mul": lambda a, b: a * b,
            "and": lambda a, b: (a & intops.mask(bits)) & (b & intops.mask(bits)),
            "or": lambda a, b: (a & intops.mask(bits)) | (b & intops.mask(bits)),
            "xor": lambda a, b: (a & intops.mask(bits)) ^ (b & intops.mask(bits)),
        }[op]
        from repro.analysis.absint import _binop_arith

        tlo, thi = (-8, 7) if signed else (0, 15)
        for _ in range(40):
            alo = rng.randint(tlo, thi)
            ahi = rng.randint(alo, thi)
            blo = rng.randint(tlo, thi)
            bhi = rng.randint(blo, thi)
            a = AbsVal(bits, signed, alo, ahi).reduced()
            b = AbsVal(bits, signed, blo, bhi).reduced()
            out = _binop_arith(op, a, b, bits, signed)
            for ca, cb in itertools.product(
                range(alo, ahi + 1), range(blo, bhi + 1)
            ):
                wrapped = intops.wrap(concrete(ca, cb), bits, signed)
                assert out.contains(wrapped), (
                    f"{op} [{alo},{ahi}] x [{blo},{bhi}]: concrete "
                    f"{ca}?{cb}={wrapped} escapes {out!r}"
                )
                pat = wrapped & intops.mask(bits)
                assert pat & out.zeros == 0 and (~pat) & out.ones == 0

    def test_exact_range_is_unwrapped(self):
        a = interval(200, 255)
        b = interval(200, 255)
        lo, hi = exact_range("add", a, b)
        assert lo == 400 and hi == 510  # deliberately NOT wrapped to 8 bits

    def test_compare_verdicts(self):
        lo = interval(0, 7)
        nine = AbsVal.const(9, 8, False)
        assert compare_verdict("ugt", lo, nine) is False
        assert compare_verdict("ult", lo, nine) is True
        assert compare_verdict("eq", lo, nine) is False
        assert compare_verdict("eq", lo, AbsVal.const(3, 8, False)) is None
        # known-bits contradiction: even vs odd can never be equal
        even = AbsVal(8, False, 0, 255, zeros=1, ones=0).reduced()
        odd = AbsVal(8, False, 0, 255, zeros=0, ones=1).reduced()
        assert compare_verdict("eq", even, odd) is False


def _analyze_example(name, **compile_kw):
    source = (REPO / "examples" / name).read_text()
    program = Compiler(**compile_kw).compile(source, filename=name)
    return program


class TestFunctionFacts:
    def test_parity_tag_proved_constant(self):
        program = _analyze_example("parity.ncl", opt_level=0)
        [(label, module)] = program.switch_modules.items()
        facts = analyze_module(module, label_ids=program.label_ids)
        fn_facts = facts["parity"]
        # the (v | 9) & 1 result is a proved singleton 1
        ands = [
            i for i in fn_facts.fn.instructions()
            if isinstance(i, ir.BinOp) and i.op == "and"
        ]
        assert any(
            fn_facts.values.get(i) is not None
            and fn_facts.values[i].singleton == 1
            for i in ands
        )

    def test_stats_facts_cover_all_reachable_values(self):
        program = _analyze_example("stats.ncl", opt_level=1)
        for label, module in program.switch_modules.items():
            facts = analyze_module(module, label_ids=program.label_ids)
            for name, fn_facts in facts.items():
                assert fn_facts.reachable, name
                assert fn_facts.rounds >= 1


class TestGoldenDump:
    """``--emit absint`` output is byte-deterministic and golden-pinned.

    Regenerate (after an intentional analysis change) with::

        PYTHONPATH=src python -c "
        from pathlib import Path
        from repro.nclc import Compiler
        src = Path('examples/parity.ncl').read_text()
        p = Compiler(opt_level=2).compile(src, filename='examples/parity.ncl')
        Path('tests/golden/parity_absint.txt').write_text(p.render_absint())
        "
    """

    def test_dump_matches_golden(self):
        program = _analyze_example("parity.ncl", opt_level=2)
        expected = (GOLDEN / "parity_absint.txt").read_text()
        assert program.render_absint() == expected

    def test_dump_is_deterministic_across_compiles(self):
        first = _analyze_example("parity.ncl", opt_level=2).render_absint()
        second = _analyze_example("parity.ncl", opt_level=2).render_absint()
        assert first == second


class TestRangeSimplify:
    def test_parity_shrinks_at_o2_via_ranges(self):
        """rangesimplify is what removes the or/and: -O1 (everything but
        rangesimplify) keeps them, -O2 drops them."""

        def count(program):
            return sum(
                sum(1 for _ in fn.instructions())
                for module in program.switch_modules.values()
                for fn in module.functions.values()
            )

        at_o1 = _analyze_example("parity.ncl", opt_level=1)
        at_o2 = _analyze_example("parity.ncl", opt_level=2)
        assert count(at_o2) < count(at_o1)

    def test_simplify_ranges_reports_replacements(self):
        from repro.nir.passes.clone import clone_function
        from repro.nir.passes.rangesimplify import simplify_ranges

        program = _analyze_example("parity.ncl", opt_level=1)
        [(label, module)] = program.switch_modules.items()
        fn = clone_function(module.functions["parity"])
        assert simplify_ranges(fn) > 0


#: ``r``'s loop doubles ``i`` 64 times; its known bits at the loop header
#: lose one bit a round, a chain long enough to reach the round cap
SHIFT_LOOP_SRC = r"""
_net_ _at_("s1") unsigned acc[1] = {0};
_net_ _out_ void k(unsigned *d) { acc[0] += d[0]; }
_net_ _in_ void r(unsigned *d, _ext_ uint64_t *out) {
  uint64_t lim = (uint64_t)window.seq << 40;
  uint64_t big = 0;
  uint64_t i = 1;
  for (unsigned n = 0; n < 64; ++n) {
    if (i < lim) big = i;
    i = i << 1;
  }
  if ((big >> 62) == 2) out[0] = 7;
}
"""

#: ``r`` halves an all-ones word 64 times: one known bit lost a round
SHIFT_RIGHT_SRC = r"""
_net_ _at_("s1") unsigned acc[1] = {0};
_net_ _out_ void k(unsigned *d) { acc[0] += d[0]; }
_net_ _in_ void r(unsigned *d, _ext_ uint64_t *out) {
  uint64_t x = 0;
  x = ~x;
  for (unsigned n = 0; n < 64; ++n) x = x >> 1;
  out[0] = x;
}
"""

STAR = "host w0\nhost w1\nswitch s1\nlink w0 s1\nlink w1 s1"


def _shift_program(source, opt_level):
    return Compiler(opt_level=opt_level).compile(
        source, and_text=STAR, windows={"k": WindowConfig(mask=(1,))}
    )


class TestWideningConverges:
    """Widening that keeps a shrinking known-bits mask lets a loop-carried
    value lose one bit a round; capped at MAX_ROUNDS the analysis used to
    stop short of its fixed point and -O2 folded a live branch away."""

    def test_the_three_levels_agree(self):
        stored = []
        for level in (0, 1, 2):
            module = _shift_program(SHIFT_LOOP_SRC, level).ref_module
            out = [0]
            run_kernel(
                module, "r", DeviceState.from_module(module),
                {"seq": 2**24 - 1}, [[0], out],
            )
            stored.append(out[0])
        assert stored == [7, 7, 7]

    def test_no_false_dead_branch(self):
        result = lint_source(SHIFT_LOOP_SRC, "shift.ncl", and_text=STAR)
        assert [d.code for d in result.sink.sorted()] == []

    def test_a_right_shift_chain_converges_in_six_rounds(self):
        fn = _shift_program(SHIFT_RIGHT_SRC, 1).ref_module.functions["r"]
        assert analyze_function(fn).rounds <= 6

    def test_a_too_small_cap_raises(self, monkeypatch):
        fn = _shift_program(SHIFT_RIGHT_SRC, 1).ref_module.functions["r"]
        monkeypatch.setattr(absint, "MAX_ROUNDS", 2)
        with pytest.raises(IrError, match="'r' did not converge in 2 rounds"):
            analyze_function(fn)
