"""Rational parsing/formatting, binomial coefficients, the JSON loader
shared by the document parsers, and the value and pair conversions shared
by the library factories.

The whole deterministic side of the library works in exact rationals
(:class:`fractions.Fraction`); floats appear only in the Monte Carlo module.
Rationals travel through documents and reports as ``"p/q"`` or ``"p"`` text
with decimal integers, never as binary floats.
"""

from __future__ import annotations

import json
import math
import re
from fractions import Fraction

from .errors import ParseError

_RATIONAL_RE = re.compile(r"^(-?\d+)(?:/([1-9]\d*))?$")


def parse_rational(text: str) -> Fraction:
    """Parse ``"p/q"`` or ``"p"`` (decimal integers) into a Fraction."""
    if not isinstance(text, str):
        raise ParseError(f"expected a rational as text, got {type(text).__name__}")
    m = _RATIONAL_RE.match(text)
    if m is None:
        raise ParseError(f"not a rational literal: {text!r}")
    num = _integer(m.group(1))
    den = _integer(m.group(2)) if m.group(2) else 1
    return Fraction(num, den)


def as_rational(value, what: str) -> Fraction:
    """``value`` as an exact ``Fraction``, for the library factories: a value
    that is no rational (text that does not parse, a zero denominator, an
    infinite or NaN float, a non-number) raises ``ParseError`` naming
    ``what``, not the ``ValueError``, ``ZeroDivisionError``,
    ``OverflowError`` or ``TypeError`` of converting it."""
    try:
        return Fraction(value)
    except (TypeError, ValueError, ZeroDivisionError, OverflowError):
        raise ParseError(f"{what} must be a rational, got {value!r}") from None


def rational_pairs(items, what: str) -> tuple[tuple[Fraction, Fraction], ...]:
    """``items`` as a tuple of exact pairs, for the library factories: an
    item that is not a pair of rationals raises ``ParseError`` naming
    ``what``, not the ``ValueError`` or ``TypeError`` of unpacking it."""
    pairs = []
    for item in items:
        try:
            x, y = item
            pairs.append((as_rational(x, what), as_rational(y, what)))
        except (TypeError, ValueError):  # ParseError is a ValueError
            message = f"each {what} must be a pair of rationals, got {item!r}"
            raise ParseError(message) from None
    return tuple(pairs)


def load_json(document: str):
    """The value of a JSON document. Malformed JSON, a number longer than
    the int conversion digit limit, and nesting too deep for the decoder's
    recursion raise ``ParseError``."""
    try:
        return json.loads(document)
    except RecursionError as exc:
        raise ParseError("invalid JSON: nested too deeply") from exc
    except ValueError as exc:
        # json.JSONDecodeError is a ValueError, and so is a number with more
        # digits than sys.get_int_max_str_digits()
        raise ParseError(f"invalid JSON: {exc}") from exc


def format_rational(value: Fraction) -> str:
    """Render a Fraction as ``"p/q"``, or ``"p"`` when the denominator is 1."""
    value = Fraction(value)
    numerator = _decimal(value.numerator)
    if value.denominator == 1:
        return numerator
    return f"{numerator}/{_decimal(value.denominator)}"


# CPython refuses int-to-text conversions longer than
# sys.get_int_max_str_digits() digits (4300 by default) with ValueError.
# Exact layers grow past that (a 3-atom law's components at arity 30), so
# longer numbers are converted half by half, each half under the limit.


def _decimal(value: int) -> str:
    """Decimal text of an int of any length."""
    try:
        return str(value)
    except ValueError:
        pass
    if value < 0:
        return "-" + _decimal(-value)
    # about half of the digits: log10(2) > 3/20
    half = value.bit_length() * 3 // 20
    high, low = divmod(value, 10**half)
    return _decimal(high) + _decimal(low).zfill(half)


def _integer(digits: str) -> int:
    """The int of an optionally signed decimal text of any length."""
    try:
        return int(digits)
    except ValueError:
        pass
    if digits.startswith("-"):
        return -_integer(digits[1:])
    half = len(digits) // 2
    return _integer(digits[:half]) * 10 ** (len(digits) - half) + _integer(digits[half:])


def binom(n: int, k: int) -> int:
    """Binomial coefficient with value 0 outside the support 0 <= k <= n,
    where ``math.comb`` raises on a negative argument."""
    if k < 0 or n < 0 or k > n:
        return 0
    return math.comb(n, k)
