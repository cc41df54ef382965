"""Fixed-width integer semantics (repro.util.intops)."""

import pytest
from hypothesis import given, strategies as st

from repro.errors import ReproError
from repro.util import intops


class TestMask:
    def test_mask_widths(self):
        assert intops.mask(8) == 0xFF
        assert intops.mask(16) == 0xFFFF
        assert intops.mask(32) == 0xFFFFFFFF
        assert intops.mask(64) == 0xFFFFFFFFFFFFFFFF

    def test_mask_rejects_nonpositive(self):
        with pytest.raises(ReproError):
            intops.mask(0)
        with pytest.raises(ReproError):
            intops.mask(-3)


class TestWrap:
    def test_unsigned_wraps_modulo(self):
        assert intops.wrap_unsigned(256, 8) == 0
        assert intops.wrap_unsigned(257, 8) == 1
        assert intops.wrap_unsigned(-1, 8) == 255

    def test_signed_wraps_twos_complement(self):
        assert intops.wrap_signed(127, 8) == 127
        assert intops.wrap_signed(128, 8) == -128
        assert intops.wrap_signed(255, 8) == -1
        assert intops.wrap_signed(-129, 8) == 127

    def test_wrap_dispatches_on_signedness(self):
        assert intops.wrap(200, 8, signed=True) == -56
        assert intops.wrap(200, 8, signed=False) == 200

    @given(st.integers(), st.sampled_from([8, 16, 32, 64]))
    def test_unsigned_always_in_range(self, value, bits):
        wrapped = intops.wrap_unsigned(value, bits)
        assert 0 <= wrapped < (1 << bits)

    @given(st.integers(), st.sampled_from([8, 16, 32, 64]))
    def test_signed_always_in_range(self, value, bits):
        wrapped = intops.wrap_signed(value, bits)
        assert -(1 << (bits - 1)) <= wrapped < (1 << (bits - 1))

    @given(st.integers(), st.sampled_from([8, 16, 32, 64]))
    def test_signed_unsigned_same_bit_pattern(self, value, bits):
        assert intops.to_unsigned(
            intops.wrap_signed(value, bits), bits
        ) == intops.wrap_unsigned(value, bits)

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_wrap_identity_in_range(self, value):
        assert intops.wrap_unsigned(value, 32) == value


class TestSignExtend:
    def test_extends_negative(self):
        assert intops.sign_extend(0xFF, 8, 16) == 0xFFFF
        assert intops.sign_extend(0x80, 8, 32) == 0xFFFFFF80

    def test_positive_unchanged(self):
        assert intops.sign_extend(0x7F, 8, 32) == 0x7F

    @given(st.integers(min_value=-128, max_value=127))
    def test_roundtrip_through_wider(self, v):
        pattern = intops.to_unsigned(v, 8)
        assert intops.wrap_signed(intops.sign_extend(pattern, 8, 32), 32) == v


class TestDivision:
    def test_udiv(self):
        assert intops.checked_udiv(7, 2) == 3

    def test_sdiv_truncates_toward_zero(self):
        assert intops.checked_sdiv(7, 2) == 3
        assert intops.checked_sdiv(-7, 2) == -3
        assert intops.checked_sdiv(7, -2) == -3
        assert intops.checked_sdiv(-7, -2) == 3

    def test_srem_sign_of_dividend(self):
        assert intops.checked_srem(7, 2) == 1
        assert intops.checked_srem(-7, 2) == -1
        assert intops.checked_srem(7, -2) == 1

    def test_divide_by_zero_raises(self):
        with pytest.raises(ZeroDivisionError):
            intops.checked_udiv(1, 0)
        with pytest.raises(ZeroDivisionError):
            intops.checked_sdiv(1, 0)

    @given(
        st.integers(min_value=-(2**31), max_value=2**31 - 1),
        st.integers(min_value=-(2**31), max_value=2**31 - 1).filter(lambda x: x != 0),
    )
    def test_c_division_identity(self, a, b):
        q = intops.checked_sdiv(a, b)
        r = intops.checked_srem(a, b)
        assert q * b + r == a
        assert abs(r) < abs(b)


class TestShift:
    def test_shift_amount_mod_width(self):
        assert intops.shift_amount(33, 32) == 1
        assert intops.shift_amount(5, 32) == 5

    def test_negative_shift_raises(self):
        with pytest.raises(ReproError):
            intops.shift_amount(-1, 32)


class TestFits:
    def test_unsigned_range(self):
        assert intops.bit_length_fits(255, 8, signed=False)
        assert not intops.bit_length_fits(256, 8, signed=False)
        assert not intops.bit_length_fits(-1, 8, signed=False)

    def test_signed_range(self):
        assert intops.bit_length_fits(-128, 8, signed=True)
        assert intops.bit_length_fits(127, 8, signed=True)
        assert not intops.bit_length_fits(128, 8, signed=True)


class TestSourceEmitters:
    """The source the lowered executors inline must mean what the runtime
    functions mean: eval() of each emitter against its twin, widths 1-64,
    over boundary and far out-of-range inputs."""

    _values = st.one_of(
        st.integers(-(2**70), 2**70),
        st.builds(
            lambda bits, delta, sign: sign * (1 << bits) + delta,
            st.integers(0, 66), st.integers(-2, 2), st.sampled_from([-1, 1]),
        ),
    )
    _bits = st.integers(1, 64)

    @given(_values, _bits, st.booleans())
    def test_wrap_src(self, value, bits, signed):
        src = intops.wrap_src("x", bits, signed)
        assert eval(src, {"x": value}) == intops.wrap(value, bits, signed)
        if signed:
            assert eval(src, {"x": value}) == intops.wrap_signed(value, bits)
        else:
            assert eval(src, {"x": value}) == intops.to_unsigned(value, bits)

    @given(st.integers(0, 66), _bits, st.booleans(), st.data())
    def test_wrap_src_of_a_value_of_known_width(self, width, bits, signed, data):
        """Left unwrapped exactly where that changes no value in range."""
        src = intops.wrap_src("x", bits, signed, width)
        assert (src == "x") == intops.fits(width, bits, signed)
        value = data.draw(st.integers(0, 2**width - 1))
        assert eval(src, {"x": value}) == intops.wrap(value, bits, signed)
        if src == "x":
            assert all(intops.wrap(v, bits, signed) == v for v in (0, 2**width - 1))
        else:
            assert intops.wrap(2**width - 1, bits, signed) != 2**width - 1

    @given(_values, _values, _bits, st.booleans())
    def test_wrap_src_of_a_compound_expression(self, a, b, bits, signed):
        for expr in ("a + b", "a | b", "-a", "a if b else 7", "a < b"):
            want = intops.wrap(eval(expr, {"a": a, "b": b}), bits, signed)
            assert eval(intops.wrap_src(expr, bits, signed), {"a": a, "b": b}) == want

    @given(st.integers(0, 2**70), _bits)
    def test_shift_amount_src(self, amount, bits):
        want = intops.shift_amount(amount, bits)
        env = dict(intops.SRC_ENV, x=amount)
        assert eval(intops.shift_amount_src("x", bits), env) == want
        assert eval(intops.shift_amount_src(str(amount), bits), env) == want  # folded

    @given(st.integers(-(2**70), -1), _bits)
    def test_negative_shift_amount_raises_like_the_runtime(self, amount, bits):
        with pytest.raises(ReproError, match="negative shift amount"):
            eval(intops.shift_amount_src("x", bits), dict(intops.SRC_ENV, x=amount))

    @given(_values, _values, _bits, st.booleans(), st.sampled_from(
        "add sub mul and or xor shl lshr ashr udiv sdiv urem srem".split()))
    def test_arith_src_wrapped_matches_the_runtime_composition(self, a, b, bits, signed, op):
        """arith_src is held to the formulas the reference walkers spell
        out with the runtime functions."""
        a, b = intops.wrap(a, bits, signed), intops.wrap(b, bits, signed)
        ua, ub = intops.to_unsigned(a, bits), intops.to_unsigned(b, bits)
        try:
            want = {
                "add": lambda: a + b, "sub": lambda: a - b, "mul": lambda: a * b,
                "and": lambda: a & b, "or": lambda: a | b, "xor": lambda: a ^ b,
                "shl": lambda: a << intops.shift_amount(ub, bits),
                "lshr": lambda: ua >> intops.shift_amount(ub, bits),
                "ashr": lambda: intops.wrap_signed(a, bits) >> intops.shift_amount(ub, bits),
                "udiv": lambda: intops.checked_udiv(ua, ub),
                "urem": lambda: (intops.checked_udiv(ua, ub), ua % ub)[1],
                "sdiv": lambda: intops.checked_sdiv(a, b),
                "srem": lambda: intops.checked_srem(a, b),
            }[op]()
        except ZeroDivisionError:
            want = ZeroDivisionError
        env = dict(intops.SRC_ENV, a=ua if op == "lshr" else a, b=ub if "sh" in op else b)
        src = intops.wrap_src(intops.arith_src(op, "a", "b", bits), bits, signed)
        if want is ZeroDivisionError:
            with pytest.raises(ZeroDivisionError, match="data-plane"):
                eval(src, env)
        else:
            assert eval(src, env) == intops.wrap(want, bits, signed)
