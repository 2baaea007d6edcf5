"""Exact optimization over the covering relaxation, plus domination front ends."""

import sys
from fractions import Fraction as F
from itertools import product

import pytest

from circover import (
    BadParameters,
    CertificateError,
    CircularMatrix,
    NegativeWeight,
    NotInterval,
    circulant_matrix,
    domination_solve,
    LPResult,
    optimize,
    solve_lp,
    solve_slice,
    web_neighborhoods,
)


def brute_force_value(matrix, demands, weights):
    """Box search over integer points, the slow reference."""
    top = max(demands)
    rows = [matrix.support(i) for i in range(1, matrix.m + 1)]
    best = None
    for x in product(range(top + 1), repeat=matrix.n):
        if any(sum(x[j - 1] for j in row) < d for row, d in zip(rows, demands)):
            continue
        val = sum(F(w) * v for w, v in zip(weights, x))
        if best is None or val < best:
            best = val
    return best


def test_slice_on_pentagon():
    m = circulant_matrix(5, 2)
    sol = solve_slice(m, [1] * 5, [1] * 5, 3)
    assert sol.beta == 3
    assert sol.value == 3
    assert sum(sol.point) == 3
    assert all(v in (0, 1) for v in sol.point)


def test_slice_below_cover_number_is_infeasible():
    m = circulant_matrix(5, 2)
    assert solve_slice(m, [1] * 5, [1] * 5, 2) is None
    assert solve_slice(m, [1] * 5, [1] * 5, 0) is None


def test_slice_rejects_fractional_sum():
    m = circulant_matrix(5, 2)
    with pytest.raises(BadParameters):
        solve_slice(m, [1] * 5, [1] * 5, F(5, 2))


def test_unit_optimum_is_cover_number():
    # spot grid; the full sweep lives in the acceptance suite
    for n in range(4, 9):
        for k in range(2, n - 1):
            m = circulant_matrix(n, k)
            res = optimize(m, [1] * n, [1] * n)
            assert res.value == -(-n // k), (n, k)
            assert sum(res.point) == res.value
            assert res.beta == res.value


def test_unit_pentagon_details():
    res = optimize(circulant_matrix(5, 2), [1] * 5, [1] * 5)
    assert res.value == 3
    assert res.point == (0, 1, 0, 1, 1)
    assert res.beta == 3
    # the sums the two bisections probed, ascending: 2 is empty, 3 is tau,
    # and g(4) >= g(3), g(5) >= g(4) make 3 the least optimal sum
    assert res.slices == ((2, None), (3, F(3)), (4, F(4)), (5, F(5)))


def test_pentagon_lp_count(monkeypatch):
    """Four slice LPs for the bisections plus one lexmin LP (the full scan
    with one lexmin LP per coordinate made 6 + 4)."""
    module = sys.modules["circover.optimize"]  # the package attribute is the function
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return solve_lp(*args, **kwargs)

    monkeypatch.setattr(module, "solve_lp", counting)
    res = optimize(circulant_matrix(5, 2), [1] * 5, [1] * 5)
    assert (res.value, res.point, res.beta) == (3, (0, 1, 0, 1, 1), 3)
    assert len(calls) == 5


def test_fractional_slice_vertex_raises(monkeypatch):
    """A non-integral LP vertex is a CertificateError, never truncated."""
    module = sys.modules["circover.optimize"]
    half = LPResult("optimal", F(1, 2), (F(1, 2),) * 4)
    monkeypatch.setattr(module, "solve_lp", lambda *args, **kwargs: half)
    with pytest.raises(CertificateError, match="non-integral"):
        solve_slice(circulant_matrix(5, 2), [1] * 5, [1] * 5, 3)
    with pytest.raises(CertificateError):
        optimize(circulant_matrix(5, 2), [1] * 5, [1] * 5)


def test_weighted_pentagon():
    # vertex 5 is expensive, so the optimum dodges it
    res = optimize(circulant_matrix(5, 2), [1] * 5, [1, 1, 1, 1, 2])
    assert res.value == 3
    assert res.point == (1, 0, 1, 1, 0)
    assert res.beta == 3


def test_fractional_weights():
    w = [F(1, 3), F(1, 2), F(2, 7), 1, F(3, 4)]
    res = optimize(circulant_matrix(5, 2), [1] * 5, w)
    assert res.value == F(115, 84)
    assert res.point == (1, 0, 1, 0, 1)


def test_higher_demands():
    m = circulant_matrix(7, 3)
    res = optimize(m, [2] * 7, [1] * 7)
    assert res.value == 5
    assert res.point == (0, 1, 1, 0, 1, 1, 1)
    assert res.value == brute_force_value(m, [2] * 7, [1] * 7)


def test_mixed_demands_against_brute_force():
    m = circulant_matrix(6, 2)
    demands = [2, 1, 1, 2, 1, 1]
    weights = [1, 2, 1, 1, 2, 1]
    res = optimize(m, demands, weights)
    assert res.value == brute_force_value(m, demands, weights)
    assert all(
        sum(res.point[j - 1] for j in m.support(i + 1)) >= d
        for i, d in enumerate(demands)
    )
    assert sum(F(w) * v for w, v in zip(weights, res.point)) == res.value


def test_zero_weight_coordinate():
    res = optimize(circulant_matrix(5, 2), [1] * 5, [0, 1, 1, 1, 1])
    assert res.value == 2
    assert res.point[0] >= 1


def test_point_stays_integral_on_nonfacet_instances():
    m = CircularMatrix(7, [(1, 3), (2, 5), (5, 5)])
    res = optimize(m, [1, 1, 1], [1] * 7)
    assert res.value == 1
    assert res.point == (0, 1, 0, 0, 0, 0, 0)


def test_optimize_rejects_bad_inputs():
    m = circulant_matrix(5, 2)
    with pytest.raises(NegativeWeight):
        optimize(m, [1] * 5, [1, -1, 1, 1, 1])
    with pytest.raises(BadParameters):
        optimize(m, [1] * 5, [1] * 4)
    with pytest.raises(BadParameters):
        optimize(m, [1] * 4, [1] * 5)
    with pytest.raises(BadParameters):
        optimize(m, [True] * 5, [1] * 5)
    with pytest.raises(BadParameters):
        optimize(m, [1, 1, F(3, 2), 1, 1], [1] * 5)


def test_domination_on_webs():
    res = domination_solve(web_neighborhoods(7, 1))
    assert res.value == 3
    res = domination_solve(web_neighborhoods(9, 2))
    assert res.value == 2
    assert res.point == (0, 0, 0, 0, 1, 0, 0, 0, 1)


def test_k_domination_matches_uniform_demand():
    by_variant = domination_solve(web_neighborhoods(7, 1), demands=[2] * 7)
    direct = optimize(circulant_matrix(7, 3), [2] * 7, [1] * 7)
    assert by_variant.value == direct.value == 5
    assert by_variant.point == direct.point


def test_l_domination_with_twin_vertices():
    # vertices 1 and 2 share a closed neighborhood; the tighter demand wins
    res = domination_solve(
        [[1, 2], [1, 2], [3, 4], [3, 4]],
        demands=[1, 2, 1, 1],
    )
    assert res.value == 3
    assert res.point == (0, 2, 0, 1)


def test_weighted_domination():
    res = domination_solve(web_neighborhoods(7, 1), weights=[1, 1, 1, 1, 1, 1, F(1, 2)])
    assert res.value == F(5, 2)
    assert res.point[6] == 1


def test_domination_checks_every_vertex_demand_before_grouping_twins():
    twins = [[1, 2], [1, 2], [3, 4], [3, 4]]
    assert domination_solve(twins, demands=[1, 1, 1, 1]).value == 2
    for demands in ([-1, 1, 1, 1], [0.5, 1, 1, 1], [1, True, 1, 1]):
        with pytest.raises(BadParameters):
            domination_solve(twins, demands=demands)


def test_domination_input_errors():
    with pytest.raises(BadParameters):
        domination_solve(web_neighborhoods(7, 1), demands=[1] * 6)
    with pytest.raises(NotInterval):
        domination_solve([[1, 3], [2, 3], [3, 4], [4, 5], [5, 1]])
