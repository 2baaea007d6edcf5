import random
from fractions import Fraction as F

import pytest
from _helpers import fraction_rank

from circover import BadParameters
from circover.linalg import exact_rank


def _random_rows(rng):
    """Integer or rational rows in a random shape, often rank-deficient:
    zero rows, zero columns, duplicates and combinations of other rows."""
    m, n = rng.randint(0, 9), rng.randint(1, 9)
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
    if rows and rng.random() < 0.3:
        j = rng.randrange(n)
        for row in rows:
            row[j] = 0
    rng.shuffle(rows)
    return rows


def test_exact_rank_matches_fraction_elimination():
    """Bareiss in integers against the Fraction elimination it replaced; a
    floor division that is not exact would change some rank here."""
    rng = random.Random(1968)
    shapes = {"tall": 0, "wide": 0, "deficient": 0, "rational": 0}
    for _ in range(600):
        rows = _random_rows(rng)
        rank = exact_rank(rows)
        assert rank == fraction_rank(rows), rows
        if rows:
            shapes["tall" if len(rows) > len(rows[0]) else "wide"] += 1
            shapes["deficient"] += rank < min(len(rows), len(rows[0]))
            shapes["rational"] += any(type(v) is F for row in rows for v in row)
    assert min(shapes.values()) >= 100, shapes


def test_exact_rank_small_cases():
    assert exact_rank([]) == 0
    assert exact_rank([[0, 0], [0, 0]]) == 0
    assert exact_rank([[F(1, 2), F(1, 3)], [3, 2]]) == 1
    assert exact_rank([[0, 1, 2], [0, 2, 5], [0, 0, 0]]) == 2
    # entries grow without the exact division by the previous pivot
    hilbert = [[F(1, i + j + 1) for j in range(8)] for i in range(8)]
    assert exact_rank(hilbert) == 8


@pytest.mark.parametrize("bad", ["1/2", 0.5, True, None], ids=repr)
def test_exact_rank_rejects_what_is_not_an_int_or_a_fraction(bad):
    """Rows are scaled to integers, which takes only ints and Fractions: a
    rational string, a float, a bool or None is BadParameters."""
    with pytest.raises(BadParameters, match="not an int or a Fraction"):
        exact_rank([[bad, 1], [1, 2]])
