"""Fixed-width integer semantics.

NCL follows C semantics on fixed-width machine integers, and the PISA data
plane operates on fixed-width PHV fields. Python integers are unbounded, so
every arithmetic result in the IR interpreter and the PISA simulator is
normalized through these helpers.
"""

from __future__ import annotations

from repro.errors import ReproError


def mask(bits: int) -> int:
    """All-ones mask of the given width."""
    if bits <= 0:
        raise ReproError(f"invalid bit width {bits}")
    return (1 << bits) - 1


def wrap_unsigned(value: int, bits: int) -> int:
    """Reduce *value* modulo 2**bits into [0, 2**bits)."""
    return value & mask(bits)


def wrap_signed(value: int, bits: int) -> int:
    """Reduce *value* into two's-complement range [-2**(bits-1), 2**(bits-1))."""
    value &= mask(bits)
    sign_bit = 1 << (bits - 1)
    if value & sign_bit:
        return value - (1 << bits)
    return value


def wrap(value: int, bits: int, signed: bool) -> int:
    """Wrap to width, respecting signedness."""
    return wrap_signed(value, bits) if signed else wrap_unsigned(value, bits)


def to_unsigned(value: int, bits: int) -> int:
    """Reinterpret a possibly-negative value as its unsigned bit pattern."""
    return value & mask(bits)


def sign_extend(value: int, from_bits: int, to_bits: int) -> int:
    """Sign-extend the low *from_bits* of value to *to_bits* (unsigned repr)."""
    v = wrap_signed(value, from_bits)
    return to_unsigned(v, to_bits)


def shift_amount(amount: int, bits: int) -> int:
    """Clamp a shift amount the way hardware barrel shifters do (mod width)."""
    if amount < 0:
        raise ReproError(f"negative shift amount {amount}")
    return amount % bits if amount >= bits else amount


def checked_udiv(a: int, b: int) -> int:
    """Unsigned division; raises on divide-by-zero like a trap would."""
    if b == 0:
        raise ZeroDivisionError("division by zero in data-plane arithmetic")
    return a // b


def checked_sdiv(a: int, b: int) -> int:
    """Signed division with C truncation-toward-zero semantics."""
    if b == 0:
        raise ZeroDivisionError("division by zero in data-plane arithmetic")
    q = abs(a) // abs(b)
    return -q if (a < 0) != (b < 0) else q


def checked_srem(a: int, b: int) -> int:
    """Signed remainder matching C: sign of the dividend."""
    return a - b * checked_sdiv(a, b)


def bit_length_fits(value: int, bits: int, signed: bool) -> bool:
    """True if *value* is representable at the given width/signedness."""
    if signed:
        lo, hi = -(1 << (bits - 1)), (1 << (bits - 1)) - 1
    else:
        lo, hi = 0, (1 << bits) - 1
    return lo <= value <= hi


# -- source emitters ------------------------------------------------------
#
# The executors lower programs to Python source once, at load time
# (``repro.nir.pygen``, ``repro.pisa.pygen``). Each function below returns
# the source of an expression equal to the runtime function it names, with
# the width baked in as a literal, so that a width rule is still spelled
# in this file only. Arguments are the source of int-valued expressions
# (parenthesised where precedence could bite); wrap_src and
# shift_amount_src return a parenthesised expression, a name or a literal
# (wrap_src returns its argument as it is where a known width fits).
# ``tests/test_intops.py`` eval()s every emitter against its runtime twin.

#: Python spelling of the comparison suffixes (``ult`` -> ``lt`` -> ``<``).
COMPARE_SRC = {"eq": "==", "ne": "!=", "lt": "<", "le": "<=", "gt": ">", "ge": ">="}
_INFIX_SRC = {"add": "+", "sub": "-", "mul": "*", "and": "&", "or": "|", "xor": "^"}


def fits(width: int, bits: int, signed: bool) -> bool:
    """True if ``wrap(v, bits, signed)`` is *v* for every v in ``[0, 2**width)``."""
    return width < bits if signed else width <= bits


def wrap_src(expr: str, bits: int, signed: bool, width: int | None = None) -> str:
    """Source of ``wrap(expr, bits, signed)``: *expr* itself where the
    caller knows its value lies in ``[0, 2**width)`` and that
    :func:`fits`; a literal wrapped here."""
    if width is not None and fits(width, bits, signed):
        return expr
    if expr.isdigit():
        value = wrap(int(expr), bits, signed)
        return str(value) if value >= 0 else f"({value})"
    if not expr.isidentifier():
        expr = f"({expr})"
    if signed:
        half = 1 << (bits - 1)
        return f"(({expr} + {half:#x} & {mask(bits):#x}) - {half:#x})"
    return f"({expr} & {mask(bits):#x})"


def shift_amount_src(expr: str, bits: int) -> str:
    """Source of ``shift_amount(expr, bits)``. Uses the scratch name ``_s``
    and calls the runtime function to raise on a negative amount."""
    if expr.isdigit():
        return str(shift_amount(int(expr), bits))
    return f"(_s % {bits} if (_s := {expr}) >= 0 else shift_amount(_s, {bits}))"


def arith_src(op: str, a: str, b: str, bits: int) -> str:
    """Source of the *unwrapped* result of the NIR/P4 arithmetic op *op*
    (add sub mul and or xor shl lshr ashr udiv sdiv urem srem) at width
    *bits*: a bare expression, to be passed through :func:`wrap_src`.
    ``lshr`` shifts *a* as given, so a caller whose values can be negative
    passes its unsigned reinterpretation; the division ops evaluate their
    operands more than once."""
    if op in _INFIX_SRC:
        return f"{a} {_INFIX_SRC[op]} {b}"
    if op == "shl":
        return f"{a} << {shift_amount_src(b, bits)}"
    if op == "lshr":
        return f"{a} >> {shift_amount_src(b, bits)}"
    if op == "ashr":
        return f"{wrap_src(a, bits, True)} >> {shift_amount_src(b, bits)}"
    if op == "sdiv":
        return f"checked_sdiv({a}, {b})"
    if op == "srem":
        return f"checked_srem({a}, {b})"
    ua, ub = wrap_src(a, bits, False), wrap_src(b, bits, False)
    if op == "udiv":
        return f"checked_udiv({ua}, {ub})"
    if op == "urem":
        return f"{ua} - {ub} * checked_udiv({ua}, {ub})"
    raise ReproError(f"unknown arithmetic op {op!r}")


#: the names emitted source calls; generated modules start from a copy
SRC_ENV = {
    "shift_amount": shift_amount,
    "checked_udiv": checked_udiv,
    "checked_sdiv": checked_sdiv,
    "checked_srem": checked_srem,
}
