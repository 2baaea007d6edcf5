import random
from fractions import Fraction as F

import pytest
from _helpers import fraction_rank

from circover import BadParameters
from circover.linalg import exact_rank


def _random_rows(rng):
    """Integer or rational rows in a random shape, often rank-deficient:
    zero rows, zero columns, duplicates and combinations of other rows.
    Some have width 0, some zero leading columns, and some reach full
    column rank before the last row, with a combination of earlier rows
    and a fresh row after it."""
    m, n = rng.randint(0, 9), 0 if rng.random() < 0.2 else rng.randint(1, 9)
    if rng.random() < 0.5:
        def entry():
            return rng.choice((0, 0, 0, 1, -1, 2, -3, 7))
    else:
        def entry():
            return rng.choice((0, 0, 1, -1, F(rng.randint(-9, 9), rng.randint(1, 8))))
    rows = [[entry() for _ in range(n)] for _ in range(m)]
    if rows and rng.random() < 0.5:
        for _ in range(rng.randint(1, 4)):
            a, b = rng.choice(rows), rng.choice(rows)
            c = rng.choice((1, -2, F(rng.randint(-5, 5), rng.randint(1, 4))))
            rows.append([x + c * y for x, y in zip(a, b)])
    if rows and rng.random() < 0.3:
        rows.append(list(rng.choice(rows)))
    if rng.random() < 0.3:
        rows.append([0] * n)
    if rows and n and rng.random() < 0.3:
        j = rng.randrange(n)
        for row in rows:
            row[j] = 0
    rng.shuffle(rows)
    if n and rng.random() < 0.3:
        block = []
        while fraction_rank(block) < n:
            block = [[entry() for _ in range(n)] for _ in range(n)]
        a, b = rng.sample(block, 2) if n > 1 else (block[0], block[0])
        rows = [*block, *rows, [x - 3 * y for x, y in zip(a, b)], [entry() for _ in range(n)]]
    elif n > 1 and rng.random() < 0.4:
        zeros = rng.randint(1, 2)
        for row in rows:
            row[:zeros] = [0] * zeros
    return rows


def test_exact_rank_matches_fraction_elimination():
    """The integer echelon against Fraction elimination; a reduction that
    does not keep the span, or an exit before the rank reaches the column
    count, would change some rank here."""
    rng = random.Random(1968)
    shapes = dict.fromkeys(("tall", "wide", "deficient", "rational", "zero width",
                            "leading zero column", "full before the last row"), 0)
    for _ in range(800):
        rows = _random_rows(rng)
        rank = exact_rank(rows)
        assert rank == fraction_rank(rows), rows
        if rows:
            width = len(rows[0])
            shapes["tall" if len(rows) > width else "wide"] += 1
            shapes["deficient"] += rank < min(len(rows), width)
            shapes["rational"] += any(type(v) is F for row in rows for v in row)
            shapes["zero width"] += not width
            shapes["leading zero column"] += width > 0 and not any(row[0] for row in rows)
            shapes["full before the last row"] += width > 0 and fraction_rank(rows[:-1]) == width
    assert min(shapes.values()) >= 100, shapes


def test_exact_rank_small_cases():
    assert exact_rank([]) == 0
    assert exact_rank([[0, 0], [0, 0]]) == 0
    assert exact_rank([[F(1, 2), F(1, 3)], [3, 2]]) == 1
    assert exact_rank([[0, 1, 2], [0, 2, 5], [0, 0, 0]]) == 2
    assert exact_rank([[], []]) == 0
    # full column rank after two rows; the rows after it change nothing
    assert exact_rank([[0, 2], [3, 1], [1, 1], [0, 0]]) == 2
    assert exact_rank((row for row in [[2, 4], [1, 2], [0, 0]])) == 1
    # entries grow without the exact division by the previous pivot
    hilbert = [[F(1, i + j + 1) for j in range(8)] for i in range(8)]
    assert exact_rank(hilbert) == 8


@pytest.mark.parametrize("bad", ["1/2", 0.5, True, None], ids=repr)
def test_exact_rank_rejects_what_is_not_an_int_or_a_fraction(bad):
    """Rows are scaled to integers, which takes only ints and Fractions: a
    rational string, a float, a bool or None is BadParameters."""
    with pytest.raises(BadParameters, match="not an int or a Fraction"):
        exact_rank([[bad, 1], [1, 2]])


def test_exact_rank_reads_every_row_before_it_stops():
    """A bad row after the rank has reached the column count is still
    BadParameters, not skipped by the early exit."""
    with pytest.raises(BadParameters, match="not an int or a Fraction: 0.5"):
        exact_rank([[1, 0], [0, 1], [0.5, 1]])


RAGGED_ROWS = {
    "short second row": ([[1, 2], [3]], "^row 1 has 1 entries, row 0 has 2$"),
    "short row after full rank": ([[1, 0], [0, 1], [1]], "^row 2 has 1 entries, row 0 has 2$"),
    "long row after full rank": ([[1, 0], [0, 1], [1, 2, 3]], "^row 2 has 3 entries, row 0 has 2$"),
    "row after zero-width rows": ([[], [], [1]], "^row 2 has 1 entries, row 0 has 0$"),
}


@pytest.mark.parametrize("rows,message", RAGGED_ROWS.values(), ids=RAGGED_ROWS)
def test_exact_rank_rejects_ragged_rows(rows, message):
    with pytest.raises(BadParameters, match=message):
        exact_rank(rows)


class _CountedRow(list):
    """A row that counts how often it is indexed (len and iteration do not count)."""

    def __init__(self, values):
        super().__init__(values)
        self.reads = 0

    def __getitem__(self, k):
        self.reads += 1
        return super().__getitem__(k)


def test_exact_rank_stops_at_full_column_rank():
    """Once the rank reaches the column count no later row is indexed: w
    unit rows, then rows that count their reads. The length and type checks
    read every row by len and iteration only. A counted row before full
    rank is indexed, so the counter does count."""
    for w in (1, 3, 6):
        counted = [_CountedRow(range(1, w + 1)), _CountedRow([0] * w), _CountedRow([5] * w)]
        assert exact_rank([[int(t == j) for t in range(w)] for j in range(w)] + counted) == w
        assert [row.reads for row in counted] == [0, 0, 0]
    first = _CountedRow([1, 0])
    assert exact_rank([first, [0, 1]]) == 2
    assert first.reads > 0
