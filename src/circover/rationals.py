"""Exact rational parsing and formatting.

All arithmetic in the package runs on fractions.Fraction (or plain int).
JSON carries rationals as strings "p/q" or "p"; bare JSON integers are
accepted on input too. Floats are rejected everywhere: a float in a point
file is a user error, not something to silently round.

The common spellings, an ASCII "-p/q" or "-p" with plain digits, are read
with `int` (`_plain_parts`); every other string goes through `Fraction(str)`,
so a string is accepted or rejected, with the same value or message, exactly
as `Fraction(value.strip())` would. `parse_scaled_vector` reads a vector
straight to ints (D, D * x), with no Fraction for ints and plain spellings.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .errors import BadParameters


def _plain_parts(value: str) -> tuple[int, int] | None:
    """(p, q) in lowest terms for an ASCII "-p/q" or "-p" with plain digits,
    None for any other spelling; q = 0 is BadParameters."""
    num, slash, den = value.partition("/")
    digits = num[1:] if num[:1] == "-" else num
    if not (value.isascii() and digits.isdigit() and (not slash or den.isdigit())):
        return None
    try:
        p, q = int(num), int(den or 1)
    except ValueError:      # more digits than int() reads: rejected as q = 0 is
        q = 0
    if q == 0:
        raise BadParameters(f"not a rational: {value!r}")
    g = gcd(p, q)
    return p // g, q // g


def parse_rational(value) -> Fraction:
    """Parse an int, or a string like "7/2", "-3", " 5 ", into a Fraction."""
    # exact type tests first: re-checking a checked vector costs one per entry
    if type(value) is Fraction:
        return value
    if type(value) is int:
        return Fraction(value)
    if isinstance(value, bool):
        raise BadParameters(f"not a rational: {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, Fraction):
        return value
    if isinstance(value, str):
        parts = _plain_parts(value)
        if parts is not None:
            return Fraction(*parts)
        try:
            return Fraction(value.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise BadParameters(f"not a rational: {value!r}") from exc
    if isinstance(value, float):
        raise BadParameters(f"not a rational: {value!r} (floats are not accepted)")
    raise BadParameters(f"not a rational: {value!r}")


def format_rational(value) -> str:
    """Canonical string form, "p/q" or "p" for integers."""
    return str(Fraction(value))


def parse_rational_vector(values) -> tuple[Fraction, ...]:
    if not isinstance(values, (list, tuple)):
        raise BadParameters("expected a list of rationals")
    return tuple([parse_rational(v) for v in values])


def parse_scaled_vector(values) -> tuple[int, list[int]]:
    """(D, D * x as ints), D the lcm of x's reduced denominators: the value,
    accepts, rejects and messages of
    `scaled_to_integers(parse_rational_vector(values))`."""
    if not isinstance(values, (list, tuple)):
        raise BadParameters("expected a list of rationals")
    pairs = []
    for v in values:
        parts = _plain_parts(v) if type(v) is str else None
        if parts is None:   # an int or a Fraction has both parts
            v = v if type(v) is int else parse_rational(v)
            parts = v.numerator, v.denominator
        pairs.append(parts)
    scale = lcm(*[q for _, q in pairs])
    return scale, [p * (scale // q) for p, q in pairs]


def scaled_to_integers(values) -> tuple[int, list[int]]:
    """(L, L * values as ints), L the lcm of the values' denominators. Every
    value must be an int or a Fraction: a bool, float, string or anything
    else is BadParameters."""
    types = set(map(type, values))
    if types <= {int}:
        return 1, list(values)
    if not types <= {int, Fraction}:
        bad = next(v for v in values if type(v) not in (int, Fraction))
        raise BadParameters(f"not an int or a Fraction: {bad!r}")
    scale = lcm(*[v.denominator for v in values])
    return scale, [v.numerator * (scale // v.denominator) for v in values]


def format_rational_vector(values) -> list[str]:
    return [format_rational(v) for v in values]
