import random
from fractions import Fraction as F
from math import gcd

import pytest
from _helpers import (check_validity, dense_check_facet, fraction_hull_facets, membership,
                      product_minimal_covers)
from test_cli import run_python

from circover import (
    BadParameters,
    BudgetExceeded,
    CertificateError,
    LinearInequality,
    check_facet,
    circulant_matrix,
    circular_matrix,
    cover_number,
    enumerate_candidates_general,
    enumerate_facet_candidates,
    enumerate_minimal_covers,
    hull_facets,
    make_inequality,
)


def test_minimal_covers_4_2():
    m = circulant_matrix(4, 2)
    assert enumerate_minimal_covers(m, [1] * 4) == ((0, 1, 0, 1), (1, 0, 1, 0))


def test_minimal_covers_5_2():
    m = circulant_matrix(5, 2)
    covers = enumerate_minimal_covers(m, [1] * 5)
    assert len(covers) == 5
    assert all(sum(v) == 3 for v in covers)
    assert (1, 0, 1, 1, 0) in covers


def test_minimal_covers_6_3():
    m = circulant_matrix(6, 3)
    covers = enumerate_minimal_covers(m, [1] * 6)
    assert set(covers) == {
        (1, 0, 0, 1, 0, 0), (0, 1, 0, 0, 1, 0), (0, 0, 1, 0, 0, 1),
        (1, 0, 1, 0, 1, 0), (0, 1, 0, 1, 0, 1),
    }
    # lexicographic output order
    assert list(covers) == sorted(covers)


def test_minimal_covers_respect_higher_demands():
    m = circulant_matrix(4, 2)
    covers = enumerate_minimal_covers(m, [2, 2, 2, 2])
    for v in covers:
        assert v[0] + v[1] >= 2 and v[1] + v[2] >= 2
        assert v[2] + v[3] >= 2 and v[3] + v[0] >= 2
    assert (2, 0, 2, 0) in covers
    assert (1, 1, 1, 1) in covers


def test_budget():
    m = circulant_matrix(5, 2)
    with pytest.raises(BudgetExceeded):
        enumerate_minimal_covers(m, [3] * 5, budget=100)
    # (3+1)^5 = 1024 fits in the default budget
    assert enumerate_minimal_covers(m, [3] * 5)


@pytest.mark.parametrize("budget", [0, -3])
def test_budget_below_one_is_bad_parameters(budget):
    m = circulant_matrix(5, 2)
    with pytest.raises(BadParameters, match=f"budget must be at least 1, got {budget}"):
        enumerate_minimal_covers(m, [1] * 5, budget)
    with pytest.raises(BadParameters, match=f"budget must be at least 1, got {budget}"):
        hull_facets(m, [1] * 5, budget)


def test_check_validity():
    m = circulant_matrix(5, 2)
    covers = enumerate_minimal_covers(m, [1] * 5)
    rank = make_inequality([1] * 5, 3, "rank")
    assert check_validity(rank, covers)
    too_strong = make_inequality([1] * 5, 4, "rank")
    assert not check_validity(too_strong, covers)
    with pytest.raises(BadParameters, match="^negative coefficient in "):
        check_validity(make_inequality([1, 1, 1, 1, -1], 0, "x"), covers)


@pytest.mark.parametrize("n,k", [(5, 2), (7, 3), (7, 2), (9, 4), (6, 3), (6, 2), (8, 4), (8, 2)])
def test_rank_facet_iff_window_does_not_divide(n, k):
    m = circulant_matrix(n, k)
    covers = enumerate_minimal_covers(m, [1] * n)
    rank = make_inequality([1] * n, cover_number(n, k), "rank")
    assert check_facet(rank, covers) == (n % k != 0)


def test_check_facet_details():
    m = circulant_matrix(5, 2)
    covers = enumerate_minimal_covers(m, [1] * 5)
    assert check_facet(make_inequality([1, 1, 0, 0, 0], 1, "boolean"), covers)
    # valid but never tight
    assert not check_facet(make_inequality([1, 1, 1, 1, 1], 2, "weak"), covers)
    # invalid
    assert not check_facet(make_inequality([1, 0, 0, 0, 0], 1, "no"), covers)
    # non-negativity bounds of a full-dimensional covering hull are facets
    assert check_facet(make_inequality([1, 0, 0, 0, 0], 0, "nonneg"), covers)
    # valid, tight at two covers only: an edge, not a facet
    assert not check_facet(make_inequality([3, 1, 1, 1, 1], 3, "weak"), covers)


@pytest.mark.parametrize("n,k,b", [(5, 2, 1), (7, 3, 1), (6, 3, 2), (8, 3, 2)])
def test_check_facet_edge_verdicts(n, k, b):
    """An all-zero left side is never a facet: 0 >= 0 is tight at every
    cover, but no rank equals |S| - 1 = -1, and 0 >= -1 is tight nowhere.
    Each x_j >= 0 (one support column, none left after the drop) keeps the
    dense reference's verdict."""
    m = circulant_matrix(n, k)
    covers = enumerate_minimal_covers(m, [b] * n)
    for rhs in (0, -1):
        assert not check_facet(make_inequality([0] * n, rhs, "zero"), covers)
    for j in range(n):
        q = make_inequality([int(t == j) for t in range(n)], 0, "nonneg")
        assert check_facet(q, covers) == dense_check_facet(q, covers, n) is True


def test_check_facet_reads_the_support_less_its_last_column(monkeypatch):
    """One exact rank per tight inequality, on rows one column narrower
    than the support: a_S.d = 0 on every difference d makes the last
    support column a combination of the others."""
    import circover.oracle as oracle

    widths = []
    real = oracle.exact_rank

    def recording(rows):
        widths.append({len(row) for row in rows})
        return real(rows)

    monkeypatch.setattr(oracle, "exact_rank", recording)
    m = circulant_matrix(9, 4)
    covers = enumerate_minimal_covers(m, [1] * 9)
    hull = hull_facets(m, [1] * 9)
    for q in (*hull.facets, *enumerate_facet_candidates(m, [1] * 9).inequalities):
        before = len(widths)
        check_facet(q, covers)
        support = sum(c > 0 for c in q.coeffs)
        assert widths[before:] == [{support - 1}], q


def test_membership():
    m = circulant_matrix(5, 2)
    covers = enumerate_minimal_covers(m, [1] * 5)
    assert membership((1, 0, 1, 1, 0), covers)
    assert membership((1, 1, 1, 1, 1), covers)
    # fractional point sitting on the rank facet, convex combination of covers
    assert membership((F(3, 5),) * 5, covers)
    assert not membership((F(1, 2),) * 5, covers)
    assert not membership((0, 0, 0, 0, 0), covers)


def test_hull_4_2_is_the_relaxation():
    h = hull_facets(circulant_matrix(4, 2), [1] * 4)
    assert h.covers == ((0, 1, 0, 1), (1, 0, 1, 0))
    got = {(q.coeffs, q.rhs) for q in h.facets}
    want = set()
    for j in range(4):
        e = [0] * 4
        e[j] = 1
        want.add((tuple(e), 0))
        r = [0] * 4
        r[j] = r[(j + 1) % 4] = 1
        want.add((tuple(r), 1))
    assert got == want


def test_hull_5_2_adds_the_rank_facet():
    h = hull_facets(circulant_matrix(5, 2), [1] * 5)
    keys = {(q.coeffs, q.rhs) for q in h.facets}
    assert len(keys) == 11
    assert ((1, 1, 1, 1, 1), 3) in keys


def test_hull_6_3_has_no_rank_facet():
    h = hull_facets(circulant_matrix(6, 3), [1] * 6)
    keys = {(q.coeffs, q.rhs) for q in h.facets}
    assert len(keys) == 12
    assert ((1, 1, 1, 1, 1, 1), 2) not in keys
    for q in h.facets:
        assert check_facet(q, h.covers)


def test_hull_facets_are_sorted_and_self_consistent():
    m = circular_matrix(7, [(1, 3), (2, 5), (5, 5)])
    h = hull_facets(m, [1, 1, 1])
    keys = [(q.coeffs, q.rhs) for q in h.facets]
    assert keys == sorted(keys)
    for q in h.facets:
        assert check_facet(q, h.covers)
    # every cover satisfies every facet, some tightly
    for q in h.facets:
        assert check_validity(q, h.covers)


def _assert_covers_match_the_product_scan(m, demands):
    """The same covers in the same order as the reference, and the same
    BudgetExceeded one point below the box (BadParameters when all-zero
    demands leave a one-point box, so that one point below is budget 0)."""
    want = product_minimal_covers(m, demands)
    assert enumerate_minimal_covers(m, demands) == want
    box = (max(demands) + 1) ** m.n
    assert enumerate_minimal_covers(m, demands, box) == want
    below = BudgetExceeded if box > 1 else BadParameters
    with pytest.raises(below) as got:
        enumerate_minimal_covers(m, demands, box - 1)
    with pytest.raises(below) as expected:
        product_minimal_covers(m, demands, box - 1)
    assert str(got.value) == str(expected.value)


def test_hull_ray_with_a_negative_coefficient_raises(monkeypatch):
    """Every ray of the double description is a non-negative combination of
    the start rays, whose coefficients are non-negative, so no hull ray has
    a negative one. A gcd patched to come back negated flips each combined
    ray, and on (5,2) a flipped ray is left at the end: it raises."""
    import circover.oracle as oracle

    monkeypatch.setattr(oracle, "gcd", lambda *values: -gcd(*values))
    with pytest.raises(CertificateError, match=r"^hull ray \(.*\) has a negative coefficient$"):
        hull_facets(circulant_matrix(5, 2), [1] * 5)


def test_hull_ray_with_a_negative_coefficient_raises_under_dash_O():
    script = """
from math import gcd
from circover import CertificateError, circulant_matrix, hull_facets, oracle
assert False, "asserts must be stripped here"
oracle.gcd = lambda *values: -gcd(*values)
try:
    hull_facets(circulant_matrix(5, 2), [1] * 5)
except CertificateError as exc:
    print(exc)
"""
    code, out = run_python("-O", "-c", script)
    assert code == 0
    assert out.startswith("hull ray (") and out.endswith(") has a negative coefficient\n")


def test_minimal_covers_match_the_product_scan():
    """The depth-first cover search against the `itertools.product` scan of
    the whole box: every unit circulant with n <= 12 at b = 1 and n <= 9 at
    b = 2, and random circular matrices with demands 0-3 (zeros and columns
    in no row included)."""
    for n in range(3, 13):
        for k in range(2, n):
            m = circulant_matrix(n, k)
            _assert_covers_match_the_product_scan(m, [1] * n)
            if n <= 9:
                _assert_covers_match_the_product_scan(m, [2] * n)
    rng = random.Random(1753)
    seen_zero = seen_empty_column = 0
    for _ in range(120):
        n = rng.randint(3, 9)
        top = max(d for d in range(4) if (d + 1) ** n <= 4096)
        pool = [(s, l) for s in range(1, n + 1) for l in range(2, n)]
        m = circular_matrix(n, rng.sample(pool, rng.randint(1, min(len(pool), 2 * n))))
        demands = [rng.randint(0, top) for _ in range(m.m)]
        seen_zero += 0 in demands
        seen_empty_column += any(
            all(j not in m.support(i) for i in range(1, m.m + 1)) for j in range(1, n + 1)
        )
        _assert_covers_match_the_product_scan(m, demands)
    assert seen_zero >= 30 and seen_empty_column >= 5, (seen_zero, seen_empty_column)


def test_zero_demands_cover_with_zero_at_any_n():
    """A box of one point fits any budget, so n is unbounded here: the
    search must not recurse per column."""
    m = circulant_matrix(3000, 2)
    assert enumerate_minimal_covers(m, [0] * 3000) == ((0,) * 3000,)


def test_hull_facets_match_the_fraction_construction():
    """The closed-form int start cone and the gcd-reduced int rays against
    the Fraction construction they replaced (inverted base, rays made
    primitive through Fractions, zero sets from dot products): the same
    facets in the same order on every circulant with 5 <= n <= 11 and
    b = 1, and on random circular matrices with demands 0-3 whose box
    fits 4096 points."""
    def key(hull):
        return [(q.coeffs, q.rhs, q.kind) for q in hull.facets]

    for n in range(5, 12):
        for k in range(2, n):
            m = circulant_matrix(n, k)
            assert key(hull_facets(m, [1] * n)) == key(fraction_hull_facets(m, [1] * n))
    rng = random.Random(1996)
    levels = set()
    for _ in range(300):
        n = rng.randint(3, 8)
        top = max(d for d in range(4) if (d + 1) ** n <= 4096)
        pool = [(s, l) for s in range(1, n + 1) for l in range(2, n)]
        m = circular_matrix(n, rng.sample(pool, rng.randint(1, min(len(pool), 2 * n))))
        demands = [rng.randint(0, top) for _ in range(m.m)]
        levels.update(demands)
        assert key(hull_facets(m, demands)) == key(fraction_hull_facets(m, demands))
    assert levels == {0, 1, 2, 3}


def _facet_verdicts(m, demands, candidates, rng):
    """check_facet against the dense reference on the candidates, the hull
    facets and six random inequalities, valid, tight or not (rhs the least
    cover value, one above it or one below); on valid ones also against
    membership in the hull. Returns the number of facets found."""
    hull = hull_facets(m, demands)
    covers = hull.covers
    keys = {q.key() for q in hull.facets}
    ineqs = [*candidates, *hull.facets]
    for _ in range(6):
        coeffs = [rng.choice((0, 0, 1, 2, 3)) for _ in range(m.n)]
        low = min(sum(c * v for c, v in zip(coeffs, cover)) for cover in covers)
        ineqs.append(LinearInequality(tuple(coeffs), low + rng.randint(-1, 1), "random"))
    found = 0
    for q in ineqs:
        got = check_facet(q, covers)
        assert got == dense_check_facet(q, covers, m.n), (q, demands)
        if check_validity(q, covers):
            assert got == (q.normalized().key() in keys), (q, demands)
        found += got
    return found


def test_check_facet_equals_the_dense_rank_test():
    """The rank test on the support against the rank of the tight-cover
    differences plus the unit rays of the zero coefficients: every circulant
    with n <= 9 at demand levels 1 and 2, and 200 random circular matrices
    with demands 0-2."""
    rng = random.Random(1502)
    found = 0
    for n in range(3, 10):
        for k in range(2, n):
            m = circulant_matrix(n, k)
            for b in (1, 2):
                cands = enumerate_facet_candidates(m, [b] * m.m).inequalities
                found += _facet_verdicts(m, [b] * n, cands, rng)
    levels = set()
    for _ in range(200):
        n = rng.randint(3, 7)
        pool = [(s, l) for s in range(1, n + 1) for l in range(2, n)]
        m = circular_matrix(n, rng.sample(pool, rng.randint(1, min(len(pool), 2 * n))))
        demands = [rng.randint(0, 2) for _ in range(m.m)]
        levels.update(demands)
        cands = enumerate_candidates_general(m, demands).inequalities
        found += _facet_verdicts(m, demands, cands, rng)
    assert levels == {0, 1, 2} and found > 1000, found
