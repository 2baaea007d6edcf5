import random
from itertools import combinations

import pytest
from _helpers import (
    SupportMatrix,
    frozenset_contract,
    search_circulant_isomorphic,
    walk_circulant_isomorphic,
)

from circover import (
    BadParameters,
    Instance,
    circulant_isomorphic,
    circulant_matrix,
    circular_matrix,
    cover_number,
    domination_solve,
    interval_row,
    neighborhood_matrix,
    norm_col,
    optimize,
    web_neighborhoods,
)


def test_norm_col_wraps_both_ways():
    assert norm_col(0, 7) == 7
    assert norm_col(8, 7) == 1
    assert norm_col(-1, 5) == 4
    assert norm_col(3, 5) == 3


def test_supports_of_the_three_row_example():
    # n=7, rows (1,3), (2,5), (5,5)
    m = circular_matrix(7, [(1, 3), (2, 5), (5, 5)])
    assert m.m == 3
    assert sorted(m.support(1)) == [1, 2, 3]
    assert sorted(m.support(2)) == [2, 3, 4, 5, 6]
    assert sorted(m.support(3)) == [1, 2, 5, 6, 7]
    assert m.row_vector(3) == (1, 1, 0, 0, 1, 1, 1)
    assert m.row_masks[0] == 0b0000111


def test_constructor_validation():
    with pytest.raises(BadParameters, match=r"^need n >= 3 columns, got 2$"):
        circular_matrix(2, [(1, 2)])
    with pytest.raises(BadParameters, match=r"^row start 0 outside 1\.\.5$"):
        circular_matrix(5, [(0, 2)])
    with pytest.raises(BadParameters, match=r"^row length 1 outside \[2, 4\]$"):
        circular_matrix(5, [(1, 1)])
    with pytest.raises(BadParameters, match=r"^row length 5 outside \[2, 4\]$"):
        circular_matrix(5, [(1, 5)])  # full row not allowed
    with pytest.raises(BadParameters, match=r"^row \(2, 3\) appears twice$"):
        circular_matrix(5, [(2, 3), (2, 3)])
    with pytest.raises(BadParameters):
        circular_matrix(5, [])
    # a float, str or bool where an int belongs, not a matrix carrying it
    for n, rows in [(5, [(1.0, 2), (3, 2)]), (5, [(1, 2), (3, 2.0)]), (5.0, [(1, 2)]),
                    (5, [(True, 2)]), (5, [(1, "2")])]:
        with pytest.raises(BadParameters):
            circular_matrix(n, rows)
    for order, window in [(5.0, 2), (5, 2.0)]:
        with pytest.raises(BadParameters):
            circulant_matrix(order, window)


def test_circulant_bounds_and_cover_number():
    with pytest.raises(BadParameters, match=r"^row length 1 outside "):
        circulant_matrix(5, 1)
    with pytest.raises(BadParameters, match=r"^row length 5 outside "):
        circulant_matrix(5, 5)
    assert cover_number(5, 2) == 3
    assert cover_number(6, 3) == 2
    assert cover_number(9, 4) == 3


def test_as_circulant_recognition():
    assert circulant_matrix(6, 2).circulant_window() == 2
    # mixed lengths are not a circulant
    assert circular_matrix(5, [(1, 2), (2, 3), (3, 2), (4, 2), (5, 2)]).circulant_window() is None
    # wrong row count
    assert circular_matrix(5, [(1, 2), (2, 2)]).circulant_window() is None


def test_dominating_rows():
    m = circular_matrix(7, [(1, 3), (2, 5), (5, 5)])
    assert m.dominating_rows() == ()
    m2 = circular_matrix(6, [(1, 2), (1, 3), (4, 2)])
    assert m2.dominating_rows() == (2,)


def _dominating_by_supports(m):
    sups = [m.support(i) for i in range(1, m.m + 1)]
    return tuple(i for i, si in enumerate(sups, 1) if any(sj < si for sj in sups))


def test_dominating_rows_match_the_support_definition():
    """The bitmask answer equals the support-set definition on every
    circulant with n <= 10 and on 300 seeded random circular matrices."""
    cases = [circulant_matrix(n, k) for n in range(3, 11) for k in range(2, n)]
    rng = random.Random(3)
    for _ in range(300):
        n = rng.randint(3, 12)
        pool = [(s, l) for s in range(1, n + 1) for l in range(2, n)]
        cases.append(circular_matrix(n, rng.sample(pool, rng.randint(1, min(len(pool), 2 * n)))))
    dominated = 0
    for m in cases:
        rows = m.dominating_rows()
        assert rows == _dominating_by_supports(m), m
        assert m.dominating_rows() is rows  # computed once
        dominated += bool(rows)
    assert dominated >= 150, dominated


def test_contract_worked_example():
    """Deleting column 3 from the 3-row example keeps {1,2} and {2,4,5,6};
    the restricted row 3 strictly contains restricted row 1 and is dropped.
    The reference contraction says so; two rows of different sizes are no
    circulant."""
    m = circular_matrix(7, [(1, 3), (2, 5), (5, 5)])
    minor = frozenset_contract(m, [3])
    assert minor.columns == (1, 2, 4, 5, 6, 7)
    assert [sorted(s) for s in minor.rows] == [[1, 2], [2, 4, 5, 6]]
    assert minor.row_origins == ((1,), (2,))
    assert circulant_isomorphic(m, [3]) is None


def test_contract_merges_duplicate_supports():
    m = circular_matrix(5, [(1, 3), (5, 4), (3, 2)])
    # deleting column 5 makes rows 1 and 2 the same support {1,2,3}
    minor = frozenset_contract(m, [5])
    assert [sorted(s) for s in minor.rows] == [[3, 4], [1, 2, 3]]
    assert minor.row_origins == ((3,), (1, 2))
    assert circulant_isomorphic(m, [5]) is None


def test_contract_errors():
    """The window check and the reference contraction reject the same
    column sets with the same errors."""
    m = circulant_matrix(5, 2)
    for check in (circulant_isomorphic, frozenset_contract):
        with pytest.raises(BadParameters, match=r"^column 6 outside 1\.\.5$"):
            check(m, [6])
        with pytest.raises(BadParameters, match="^cannot delete every column$"):
            check(m, [1, 2, 3, 4, 5])


def test_circulant_isomorphic_rejects_columns_that_are_not_ints():
    """A removed column must be an int: a float or a bool is BadParameters,
    not read as the column it equals; out of range and deleting every column
    are BadParameters with their own messages, whatever else the list
    holds."""
    m = circulant_matrix(6, 2)
    for removed in ([1.0], [True], [2, False], ["3"], [None]):
        with pytest.raises(BadParameters, match="removed column"):
            circulant_isomorphic(m, removed)
    for removed in ([0], [7], [1, -1], [2, 6, 12]):
        with pytest.raises(BadParameters, match=r"^column -?\d+ outside 1\.\.6$"):
            circulant_isomorphic(m, removed)
    with pytest.raises(BadParameters, match="^cannot delete every column$"):
        circulant_isomorphic(m, [6, 5, 4, 3, 2, 1, 1])
    assert circulant_isomorphic(m, [1, 1, 4]) == circulant_isomorphic(m, [1, 4])


def test_row_masks_are_the_supports():
    rng = random.Random(3)
    for _ in range(200):
        n = rng.randint(3, 12)
        rows = {(rng.randint(1, n), rng.randint(2, n - 1)) for _ in range(rng.randint(1, 8))}
        m = circular_matrix(n, sorted(rows))
        for i, (start, length) in enumerate(m.rows, 1):
            assert {(start - 1 + t) % n + 1 for t in range(length)} == m.support(i)
            assert m.row_vector(i) == tuple([int(j in m.support(i)) for j in range(1, n + 1)])
    assert m.row_masks is m.row_masks  # computed once per matrix


def _reference_outcome(matrix, removed):
    """(order, window) or None by the column walk on the frozenset
    contraction, or the error it raises as (type, message)."""
    try:
        match = walk_circulant_isomorphic(frozenset_contract(matrix, removed))
    except BadParameters as exc:
        return type(exc), str(exc)
    return None if match is None else (match.order, match.window)


def _window_outcome(matrix, removed):
    try:
        return circulant_isomorphic(matrix, removed)
    except BadParameters as exc:
        return type(exc), str(exc)


def test_circulant_isomorphic_matches_the_frozenset_reference():
    """The window check returns the reference's (order, window), None where
    it gives None, or raises the same error: on every column set of every
    circulant of order up to 10, on the worked examples above, and on seeded
    random circular matrices with random column sets, some reaching outside
    1..n."""
    cases = [
        (circular_matrix(7, [(1, 3), (2, 5), (5, 5)]), [3]),
        (circular_matrix(5, [(1, 3), (5, 4), (3, 2)]), [5]),
        (circulant_matrix(5, 2), [6]),
        (circulant_matrix(5, 2), [1, 2, 3, 4, 5]),
    ]
    for n in range(3, 11):
        for k in range(2, n):
            m = circulant_matrix(n, k)
            for size in range(n + 1):
                cases.extend((m, gone) for gone in combinations(range(1, n + 1), size))
    rng = random.Random(11)
    for _ in range(400):
        n = rng.randint(3, 14)
        rows = {(rng.randint(1, n), rng.randint(2, n - 1)) for _ in range(rng.randint(1, 2 * n))}
        m = circular_matrix(n, sorted(rows))
        gone = rng.sample(range(1, n + 1), rng.randint(0, n))
        if rng.random() < 0.1:
            gone.append(rng.choice((0, n + 1, -2)))
            rng.shuffle(gone)
        cases.append((m, gone))
    errors = found = 0
    for m, gone in cases:
        got = _window_outcome(m, gone)
        assert got == _reference_outcome(m, gone), (m, gone)
        errors += isinstance(got, tuple) and isinstance(got[0], type)
        found += isinstance(got, tuple) and isinstance(got[0], int)
    assert errors >= 50 and found >= 2000, (errors, found)


def test_circulant_isomorphic_on_actual_circulants():
    for n, k in [(5, 2), (6, 3), (7, 4), (9, 2)]:
        m = circulant_matrix(n, k)
        assert circulant_isomorphic(m, ()) == (n, k)
        # the reference's witness reproduces the supports window by window
        whole = frozenset_contract(m, ())
        match = walk_circulant_isomorphic(whole)
        assert (match.order, match.window) == (n, k)
        for t, row in enumerate(match.row_order):
            win = {match.column_order[(t + d) % n] for d in range(k)}
            assert win == set(whole.rows[row - 1])


def test_circulant_isomorphic_after_contraction():
    assert circulant_isomorphic(circulant_matrix(8, 3), [1, 5]) == (6, 2)
    # the rows may come in any order, with extra rows that contain a window
    m = circular_matrix(8, [(5, 3), (1, 4), (2, 3), (6, 3), (3, 3), (7, 3), (8, 3), (1, 3), (4, 3)])
    assert circulant_isomorphic(m, (5, 1)) == (6, 2)


def test_circulant_isomorphic_negative():
    assert circulant_isomorphic(circular_matrix(6, [(1, 2), (3, 2), (5, 2)]), ()) is None
    # same column degrees everywhere but an interval pattern that cannot close
    assert circulant_isomorphic(circulant_matrix(7, 2), [4]) is None
    # one window short: (8,3) without row 1, columns 1 and 5 deleted
    rows = [(i, 3) for i in range(2, 9)]
    assert circulant_isomorphic(circular_matrix(8, rows), [1, 5]) is None
    # a row left with one column
    assert circulant_isomorphic(circulant_matrix(5, 3), [1, 2]) is None


def _relabelled_circulant(rng, s, w):
    """The circulant (s, w) with its columns renamed at random and its rows
    listed in random order."""
    labels = rng.sample(range(1, 5 * s), s)
    supports = [frozenset(labels[(i + d) % s] for d in range(w)) for i in range(s)]
    rng.shuffle(supports)
    return SupportMatrix(
        tuple(sorted(labels)), tuple(supports), tuple((r,) for r in range(1, s + 1))
    )


def test_circulant_walk_matches_the_backtracking_reference():
    """The reference walk returns the backtracking search's witness, or None
    where it does, and the window check names the same (order, window): on
    every contraction of every circulant of order up to 10 and on seeded
    near-circulant matrices and their contractions. On relabelled
    circulants, which are no contraction of a circular matrix, the walk and
    the search alone are compared."""
    found = 0
    cases = []
    for n in range(3, 11):
        for k in range(2, n):
            m = circulant_matrix(n, k)
            for size in range(n - 2):
                cases.extend((m, gone) for gone in combinations(range(1, n + 1), size))
    rng = random.Random(7)
    for _ in range(400):
        n = rng.randint(4, 10)
        k = rng.randint(2, n - 2)
        rows = {(i, k) for i in range(1, n + 1)}
        for _ in range(rng.randint(0, 2)):
            rows.discard(rng.choice(sorted(rows)))
            rows.add((rng.randint(1, n), rng.randint(2, n - 1)))
        m = circular_matrix(n, sorted(rows))
        cases.append((m, ()))
        cases.append((m, rng.sample(range(1, n + 1), rng.randint(1, n - 3))))
    for m, gone in cases:
        minor = frozenset_contract(m, gone)
        match = walk_circulant_isomorphic(minor)
        assert match == search_circulant_isomorphic(minor), (m, gone)
        expected = None if match is None else (match.order, match.window)
        assert circulant_isomorphic(m, gone) == expected, (m, gone)
        found += match is not None
    assert found >= 2000, found
    for s in range(3, 10):
        for w in range(2, s):
            for _ in range(5):
                minor = _relabelled_circulant(rng, s, w)
                assert walk_circulant_isomorphic(minor) == search_circulant_isomorphic(minor)


def test_circulant_walk_on_a_relabelled_circulant():
    m = _relabelled_circulant(random.Random(12), 12, 10)
    match = walk_circulant_isomorphic(m)
    assert match is not None
    assert (match.order, match.window) == (12, 10)
    assert sorted(match.column_order) == sorted(m.columns)
    for t, row in enumerate(match.row_order):
        win = {match.column_order[(t + d) % 12] for d in range(10)}
        assert win == m.rows[row - 1]


def test_interval_row():
    assert interval_row([3, 4, 5], 6) == (3, 3)
    assert interval_row([6, 1, 2], 6) == (6, 3)  # wraps
    assert interval_row([5, 6, 1], 6, must_contain=6) == (5, 3)
    with pytest.raises(BadParameters, match="^not a circular interval$"):
        interval_row([1, 3], 6)
    with pytest.raises(BadParameters, match="^the set must contain 4$"):
        interval_row([1, 2], 6, must_contain=4)
    with pytest.raises(BadParameters, match=r"^node 0 outside 1\.\.6$"):
        interval_row([0, 1], 6)
    with pytest.raises(BadParameters, match=r"^set of size 1, need 2\.\.5$"):
        interval_row([2], 6)
    with pytest.raises(BadParameters, match=r"^set of size 6, need 2\.\.5$"):
        interval_row(list(range(1, 7)), 6)
    for nodes, n in [(["1", "2"], 5), ([1, 2], 5.0), ([1, True], 5)]:
        with pytest.raises(BadParameters):
            interval_row(nodes, n)


def test_neighborhood_matrix_and_web():
    nbh = web_neighborhoods(7, 1)
    assert nbh[0] == [7, 1, 2]
    m = neighborhood_matrix(nbh)
    assert m.circulant_window() == 3
    with pytest.raises(BadParameters, match="^web radius 3 does not fit on 6 nodes$"):
        web_neighborhoods(6, 3)
    for n, radius in [(7.0, 1), (7, True), (7, 1.0)]:
        with pytest.raises(BadParameters):
            web_neighborhoods(n, radius)
    with pytest.raises(BadParameters, match="^the set must contain 1$"):
        # vertex 1 missing from its own closed neighborhood
        neighborhood_matrix([[2, 3], [1, 2, 3], [2, 3, 4], [3, 4, 1]])


def test_neighborhood_matrix_gives_twins_one_row():
    """Vertices 1 and 2 have the same closed neighborhood: the matrix has
    one row for both, in first-occurrence order, and its cover number is
    the domination number `domination_solve` finds."""
    nbh = [[6, 1, 2, 3], [6, 1, 2, 3], [1, 2, 3, 4], [3, 4, 5], [4, 5, 6], [5, 6, 1, 2]]
    m = neighborhood_matrix(nbh)
    assert m.n == 6
    assert m.rows == ((6, 4), (1, 4), (3, 3), (4, 3), (5, 4))
    assert optimize(m, [1] * 5, [1] * 6).value == 2
    assert domination_solve(nbh).value == 2


def test_instance_validation():
    m = circulant_matrix(5, 2)
    Instance(m, (1,) * 5, (1,) * 5)
    with pytest.raises(BadParameters):
        Instance(m, (1,) * 4, (1,) * 5)
    with pytest.raises(BadParameters):
        Instance(m, (1,) * 5, (1,) * 4)
    with pytest.raises(BadParameters):
        Instance(m, (1, 1, 1, 1, -1), (1,) * 5)
    with pytest.raises(BadParameters):
        Instance(m, (1, 1, 1, 1, True), (1,) * 5)
