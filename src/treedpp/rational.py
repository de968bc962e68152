"""Exact rational scalars and small helpers shared across the package.

All core arithmetic is exact; floats never enter any computation that
produces a reported value.  Rat is the stdlib Fraction.
"""

from __future__ import annotations

from fractions import Fraction as Rat

Rational = Rat

ONE = Rat(1)


def as_rational(value) -> Rational:
    """Coerce ints, strings like "p/q", and existing rationals. Floats are rejected."""
    if isinstance(value, float):
        raise ValueError("floats are not exact; pass an int or a 'p/q' string")
    if isinstance(value, bool):
        raise ValueError("booleans are not rational scalars")
    return Rat(value)


# str() of an int, and int() of a str, refuse more digits than
# sys.get_int_max_str_digits() (4,300 by default, 640 at the least); ints up
# to this many bits or digits are always under it.
_STR_BITS = 2000
_STR_DIGITS = 600


def _int_text(value: int) -> str:
    """Decimal digits of an int of any size, split so that no str() call
    exceeds the interpreter's int-to-string digit limit."""
    if abs(value).bit_length() <= _STR_BITS:
        return str(value)
    if value < 0:
        return "-" + _int_text(-value)
    half = value.bit_length() * 3 // 20  # about half of its decimal digits
    high, low = divmod(value, 10**half)
    return _int_text(high) + _int_text(low).rjust(half, "0")


def _text_int(digits: str) -> int:
    """The int of a decimal digit string of any length, split as _int_text
    splits so that no int() call exceeds the interpreter's digit limit."""
    if len(digits) <= _STR_DIGITS:
        return int(digits)
    half = len(digits) // 2
    return _text_int(digits[:-half]) * 10**half + _text_int(digits[-half:])


def format_rational(value) -> str:
    """Render as "p" or "p/q", at any size; jsonio.parse_rational reads it
    back bit-exactly while each part has at most MAX_LITERAL_DIGITS digits."""
    x = as_rational(value)
    if x.denominator == 1:
        return _int_text(x.numerator)
    return f"{_int_text(x.numerator)}/{_int_text(x.denominator)}"


def format_decimal(value, digits: int) -> str:
    """Decimal rendering with round-half-even at the given number of digits
    (nonnegative; the cost grows with it, so callers bound it)."""
    if digits < 0:
        raise ValueError(f"decimal digits must be nonnegative, got {digits}")
    x = as_rational(value)
    num = int(x.numerator)
    den = int(x.denominator)
    sign = "-" if num < 0 else ""
    scaled = abs(num) * 10**digits
    q, r = divmod(scaled, den)
    if 2 * r > den or (2 * r == den and q % 2 == 1):
        q += 1
    text = _int_text(q).rjust(digits + 1, "0")
    if digits == 0:
        return sign + text
    return sign + text[:-digits] + "." + text[-digits:]


def bit_length(value) -> int:
    """Bits needed for the larger of numerator and denominator."""
    x = as_rational(value)
    return max(int(x.numerator).bit_length(), int(x.denominator).bit_length())


_EXP_TERMS = 30


def exp_enclosure(t) -> tuple:
    """Rational lower/upper bounds on e**t for rational |t| < 1.

    The enclosure is tight (relative width well below 1/_EXP_TERMS!), so an
    inner bound can stand in for the irrational e**t in inequalities.
    """
    t = as_rational(t)
    if t < 0:
        lo, hi = exp_enclosure(-t)
        return ONE / hi, ONE / lo
    if t >= 1:
        raise ValueError("exp_enclosure requires |t| < 1")
    total = ONE
    term = ONE
    for k in range(1, _EXP_TERMS + 1):
        term = term * t / k
        total += term
    # Remaining tail is term * (t/(n+1) + ...) < term * t / (1 - t).
    if t == 0:
        return total, total
    tail = term * t / (1 - t)
    return total, total + tail
