"""Small exact linear algebra helpers (Fraction Gaussian elimination)."""

from __future__ import annotations

from fractions import Fraction


def exact_rank(rows) -> int:
    """Rank of a list of equal-length rational row vectors."""
    work = [[Fraction(v) for v in row] for row in rows]
    if not work:
        return 0
    ncols = len(work[0])
    rank = 0
    col = 0
    while rank < len(work) and col < ncols:
        pivot = None
        for r in range(rank, len(work)):
            if work[r][col] != 0:
                pivot = r
                break
        if pivot is None:
            col += 1
            continue
        work[rank], work[pivot] = work[pivot], work[rank]
        pv = work[rank][col]
        for r in range(rank + 1, len(work)):
            f = work[r][col]
            if f != 0:
                ratio = f / pv
                work[r] = [a - ratio * b for a, b in zip(work[r], work[rank])]
        rank += 1
        col += 1
    return rank


def invert(matrix):
    """Inverse of a square rational matrix, or None if singular."""
    size = len(matrix)
    work = [[Fraction(v) for v in row] + [Fraction(int(i == j)) for j in range(size)]
            for i, row in enumerate(matrix)]
    for col in range(size):
        pivot = None
        for r in range(col, size):
            if work[r][col] != 0:
                pivot = r
                break
        if pivot is None:
            return None
        work[col], work[pivot] = work[pivot], work[col]
        pv = work[col][col]
        work[col] = [v / pv for v in work[col]]
        for r in range(size):
            if r != col and work[r][col] != 0:
                f = work[r][col]
                work[r] = [a - f * b for a, b in zip(work[r], work[col])]
    return [row[size:] for row in work]
