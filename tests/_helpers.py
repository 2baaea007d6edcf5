"""Helpers used only by the test suites."""

from fractions import Fraction


def incidence_matrix(digraph) -> list[list[int]]:
    """Signed node-arc incidence: -1 at the tail, +1 at the head.

    Columns follow digraph.arcs; for the full digraph that is the block
    order (forward rows, forward shorts, reverse rows, reverse shorts).
    """
    rows = [[0] * len(digraph.arcs) for _ in range(digraph.n)]
    for c, a in enumerate(digraph.arcs):
        rows[a.tail - 1][c] -= 1
        rows[a.head - 1][c] += 1
    return rows


def determinant(matrix) -> Fraction:
    """Determinant via fraction-free-ish elimination (fine at our sizes)."""
    size = len(matrix)
    work = [[Fraction(v) for v in row] for row in matrix]
    det = Fraction(1)
    for col in range(size):
        pivot = None
        for r in range(col, size):
            if work[r][col] != 0:
                pivot = r
                break
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            work[col], work[pivot] = work[pivot], work[col]
            det = -det
        pv = work[col][col]
        det *= pv
        for r in range(col + 1, size):
            if work[r][col] != 0:
                ratio = work[r][col] / pv
                work[r] = [a - ratio * b for a, b in zip(work[r], work[col])]
    return det
