"""Small exact linear algebra helper.

`exact_rank` is a fraction-free row echelon in Python ints: one row at a
time, each kept row divided by its gcd, stopping once the rank reaches the
column count.
"""

from __future__ import annotations

from collections.abc import Iterable
from itertools import chain
from math import gcd

from .errors import BadParameters
from .rationals import scaled_to_integers


def exact_rank(rows) -> int:
    """Rank of a list of equal-length rational row vectors.

    Each row r is reduced against the kept rows k in turn, as
    k[p]*r - r[p]*k with p the pivot column of k, where the rows kept after
    k are zero: the span stays and column p clears. What is left is zero,
    or it is kept, divided by its gcd, with its first non-zero column as
    pivot. Every row is checked first: rows that are not iterable, a row of
    another length than the first, or an entry that is not an int or a
    Fraction is BadParameters.
    """
    if not isinstance(rows, Iterable):
        raise BadParameters(f"rows must be iterable, got {type(rows).__name__}")
    work = list(rows)
    width = len(work[0]) if work else 0
    if set(map(len, work)) - {width}:
        i = next(i for i, row in enumerate(work) if len(row) != width)
        raise BadParameters(f"row {i} has {len(work[i])} entries, row 0 has {width}")
    if not set(map(type, chain.from_iterable(work))) <= {int}:
        # each row times the lcm of its denominators: a non-zero scale keeps the rank
        work = [row for _, row in map(scaled_to_integers, work)]
    kept = []  # (pivot column, row)
    for row in work:
        for p, pivot_row in kept:
            f = row[p]
            if f:
                pv = pivot_row[p]
                row = [pv * a - f * b for a, b in zip(row, pivot_row)]
        g = gcd(*row)
        if g:
            kept.append((next(filter(row.__getitem__, range(width))), [a // g for a in row]))
            if len(kept) == width:
                break
    return len(kept)
