"""Small exact linear algebra helper.

`exact_rank` runs fraction-free integer elimination (Bareiss): rows are
scaled to integers and every step divides exactly by the previous pivot.
"""

from __future__ import annotations

from .rationals import scaled_to_integers


def exact_rank(rows) -> int:
    """Rank of a list of equal-length rational row vectors.

    Bareiss elimination: with pivot pv in the current column, each row
    left becomes (pv*row - row[col]*pivot_row) // prev, prev the pivot
    before. By Sylvester's identity every entry is then a minor of the
    scaled input, so the division is exact whatever the pivot order and
    however many columns were skipped. Rows keep only the columns still to
    eliminate, and a row that falls to zero is dropped.
    """
    # each row times the lcm of its denominators: a non-zero scale keeps the rank
    work = [row for _, row in map(scaled_to_integers, rows) if any(row)]
    rank = 0
    prev = 1
    while work and work[0]:
        for idx, row in enumerate(work):
            if row[0]:
                break
        else:
            work = [row[1:] for row in work]
            continue
        prow = work.pop(idx)
        pv = prow[0]
        tail = prow[1:]
        left = []
        for row in work:
            f = row[0]
            new = [(pv * a - f * b) // prev for a, b in zip(row[1:], tail)]
            if any(new):
                left.append(new)
        work = left
        prev = pv
        rank += 1
    return rank
