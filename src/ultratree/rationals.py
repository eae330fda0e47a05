"""Exact non-negative rational values: coercion, parsing, formatting.

All label and distance arithmetic in this package is exact. Floats are
rejected everywhere so no binary rounding can sneak in. Tokens are read by
str methods: ``str.isdecimal`` accepts exactly the digits ``int`` reads.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import ParseError


def coerce_rational(value) -> Fraction:
    """Turn an int, decimal/fraction string, or Fraction into a Fraction."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        raise TypeError(f"expected an exact rational, got {type(value).__name__}")
    return Fraction(value)


def coerce_nonnegative(value) -> Fraction:
    q = coerce_rational(value)
    if q.numerator < 0:
        raise ValueError(f"expected a non-negative rational, got {q}")
    return q


def parse_rational(raw) -> Fraction:
    """Parse a JSON-level value into a non-negative Fraction.

    Accepts non-negative integers and strings of the form ``"p"`` or
    ``"p/q"``, p and q decimal digits of any script, with surrounding
    whitespace. Anything else (floats, signs, underscores, decimal points,
    integers past Python's digit limit for int conversion) raises
    ParseError so file contents stay exact and canonical.
    """
    if isinstance(raw, bool):
        raise ParseError(f"expected a rational, got {raw!r}")
    if isinstance(raw, int):
        if raw < 0:
            raise ParseError(f"negative value {raw}")
        return Fraction(raw)
    num, slash, den = raw.strip().partition("/") if isinstance(raw, str) else ("",) * 3
    if not (num.isdecimal() and (den.isdecimal() or not slash)):
        raise ParseError(f"expected 'p' or 'p/q' with non-negative integers, got {raw!r}")
    try:
        return Fraction(int(num), int(den)) if slash else Fraction(int(num))
    except ValueError as err:  # past the digit limit; the message omits the digits
        raise ParseError(str(err)) from None
    except ZeroDivisionError:
        raise ParseError(f"zero denominator in {raw!r}") from None


def format_rational(q: Fraction) -> str:
    """Shortest exact form: ``"p"`` for integers, ``"p/q"`` otherwise."""
    return str(q)
