"""Exact optimization over the covering relaxation, plus domination front ends."""

import random
import sys
from fractions import Fraction as F
from itertools import product

import pytest
from _helpers import BROKEN_VERTICES, _slice_system, cold_flow, lp_solve_slice

from circover import (
    BadParameters,
    CertificateError,
    CircularMatrix,
    circulant_matrix,
    domination_solve,
    LPResult,
    optimize,
    solve_lp,
    web_neighborhoods,
)
from circover.optimize import SliceSolution, solve_slice
from circover.rationals import scaled_to_integers


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
    sol = solve_slice(m, [1] * 5, [1] * 5, 3, cold_flow(m, [1] * 5))
    assert sol.beta == 3
    assert sol.value == 3
    assert sum(sol.point) == 3
    assert all(v in (0, 1) for v in sol.point)


def test_slice_below_cover_number_is_infeasible():
    m = circulant_matrix(5, 2)
    assert solve_slice(m, [1] * 5, [1] * 5, 2, cold_flow(m, [1] * 5)) is None
    assert solve_slice(m, [1] * 5, [1] * 5, 0, cold_flow(m, [1] * 5)) is None


def _assert_slice_matches_the_lp(matrix, demands, weights):
    """At every sum 0..top+1, the flow slice and the LP reference agree on
    emptiness and value, and the flow's point covers, sums to the slice's
    sum and is worth the value, all in the int-scaled weights c."""
    top = matrix.n * max(demands, default=0)
    c = scaled_to_integers(weights)[1]
    for beta in range(top + 2):
        got = solve_slice(matrix, demands, c, beta, cold_flow(matrix, c))
        ref = lp_solve_slice(matrix, demands, c, beta)
        assert (got is None) == (ref is None), (matrix, demands, weights, beta)
        if got is None:
            continue
        assert got.value == ref.value, (matrix, demands, weights, beta)
        x = got.point
        assert sum(x) == beta and min(x) >= 0
        assert all(sum(x[j - 1] for j in matrix.support(i)) >= d
                   for i, d in enumerate(demands, 1))
        assert sum(cv * v for cv, v in zip(c, x)) == got.value


def test_slices_equal_the_lp_reference():
    """300 seeded matrices, n 2-8, with rows of every length 1..n (so
    wrapping and full-length rows), demands 0-3, and zero, int and
    rational weights."""
    rng = random.Random(19)
    for _ in range(300):
        n = rng.randint(2, 8)
        rows = tuple((rng.randint(1, n), rng.randint(1, n)) for _ in range(rng.randint(1, n + 2)))
        demands = [rng.randint(0, 3) for _ in rows]
        weights = [rng.choice((0, 0, 1, 2, 7, F(1, 2), F(5, 3), F(2, 7))) for _ in range(n)]
        _assert_slice_matches_the_lp(CircularMatrix(n, rows), demands, weights)
    _assert_slice_matches_the_lp(circulant_matrix(7, 3), [2] * 7, [0] * 7)


class _Captured(Exception):
    """Raised in place of the lexmin LP, carrying its arguments."""


def _capture(*args):
    raise _Captured(*args)


def test_lexmin_lp_rows_are_the_reference_slice_system(monkeypatch):
    """The lexmin LP read off the slice graph has the rows and right-hand
    sides of the support-based reference `_slice_system`, row for row, on
    300 seeded matrices with rows of every length 1..n (so wrapping and
    full-length rows) and demands 0-3, at every sum 0..top."""
    module = sys.modules["circover.optimize"]
    monkeypatch.setattr(module, "solve_lp", _capture)
    rng = random.Random(20)
    wrapping = 0
    for _ in range(300):
        n = rng.randint(2, 8)
        rows = tuple((rng.randint(1, n), rng.randint(1, n)) for _ in range(rng.randint(1, n + 2)))
        wrapping += any(start + length - 1 > n for start, length in rows)
        matrix = CircularMatrix(n, rows)
        demands = [rng.randint(0, 3) for _ in rows]
        costs = [rng.randint(0, 50) for _ in range(n)]
        for beta in range(n * max(demands) + 1):
            with pytest.raises(_Captured) as got:
                module._lexmin_vertex(matrix, demands, costs, beta)
            objective, lp_rows, rhs = got.value.args
            assert (lp_rows, rhs) == _slice_system(matrix, demands, beta), (matrix, demands, beta)
            assert objective == [costs[j] - costs[j + 1] for j in range(n - 1)]
    assert wrapping >= 150, wrapping


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
    """One LP, the lexmin LP: the four slices the bisections probe are
    min-cost flows (LP slices made 4 + 1, the full scan with one lexmin LP
    per coordinate 6 + 4)."""
    module = sys.modules["circover.optimize"]  # the package attribute is the function
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return solve_lp(*args, **kwargs)

    monkeypatch.setattr(module, "solve_lp", counting)
    res = optimize(circulant_matrix(5, 2), [1] * 5, [1] * 5)
    assert (res.value, res.point, res.beta) == (3, (0, 1, 0, 1, 1), 3)
    assert len(calls) == 1


def test_fractional_slice_vertex_raises(monkeypatch):
    """A non-integral lexmin LP vertex is a CertificateError, never truncated."""
    module = sys.modules["circover.optimize"]
    half = LPResult("optimal", F(1, 2), (F(1, 2),) * 4)
    monkeypatch.setattr(module, "solve_lp", lambda *args, **kwargs: half)
    with pytest.raises(CertificateError, match="non-integral"):
        optimize(circulant_matrix(5, 2), [1] * 5, [1] * 5)


@pytest.mark.parametrize("point,message", BROKEN_VERTICES.values(), ids=BROKEN_VERTICES)
def test_integral_slice_vertex_off_an_arc_raises(monkeypatch, point, message):
    """An integral lexmin LP vertex that breaks a slice arc is a
    CertificateError naming that arc: the arc pass is its only check."""
    module = sys.modules["circover.optimize"]
    vertex = LPResult("optimal", F(0), tuple(map(F, point)))
    monkeypatch.setattr(module, "solve_lp", lambda *args, **kwargs: vertex)
    with pytest.raises(CertificateError) as got:
        optimize(circulant_matrix(5, 2), [1] * 5, [1] * 5)
    assert str(got.value) == message


def test_tampered_slice_certificate_raises(monkeypatch):
    """Each flow entry and each potential entry moved by one is refused.
    Every inflow C_j (-w_1, w_j - w_{j+1}, w_n) is nonzero here, so a
    potential moved on one node is infeasible or costs more than the flow."""
    module = sys.modules["circover.optimize"]
    m, b, w = circulant_matrix(5, 2), [1] * 5, [3, 1, 2, 1, 2]
    flow, y = module._slice_flow(module._slice_graph(m, b, 3), w + [0] * 7)
    assert solve_slice(m, b, w, 3, cold_flow(m, w)).value == 4
    for cert in (flow, y):
        for at in range(len(cert)):
            for delta in (1, -1):
                cert[at] += delta
                tampered = (list(flow), list(y))
                cert[at] -= delta
                monkeypatch.setattr(module, "_slice_flow", lambda *args: tampered)
                with pytest.raises(CertificateError):
                    solve_slice(m, b, w, 3, cold_flow(m, w))


@pytest.mark.parametrize("cert, at, delta, message", [
    (0, 1, -1, r"^negative slice flow \[1, -1, 1, 0, 0, 0, 0, 0, 0, 1, 2, 0\]$"),
    (0, 0, 1, r"^slice flow \[2, 0, 1, 0, 0, 0, 0, 0, 0, 1, 2, 0\] does not conserve$"),
    (1, 3, 1, r"^slice flow \[1, 0, 1, 0, 0, 0, 0, 0, 0, 1, 2, 0\] and potential "
              r"\[0, 0, 1, 2, 2, 3\] differ in cost$"),
    (1, 0, 1, r"^slice potential \[1, 0, 1, 1, 2, 3\] does not run from 0 to 3$"),
    (1, 1, 1, r"^slice potential \[0, 1, 1, 1, 2, 3\] violates arc 1 -> 3$"),
], ids=["negative flow", "conservation", "cost", "ends", "arc"])
def test_tampered_slice_certificate_names_its_check(monkeypatch, cert, at, delta, message):
    """One entry of the flow (cert 0) or the potential (cert 1) moved by
    delta is refused by the check the message names."""
    module = sys.modules["circover.optimize"]
    m, b, w = circulant_matrix(5, 2), [1] * 5, [3, 1, 2, 1, 2]
    tampered = module._slice_flow(module._slice_graph(m, b, 3), w + [0] * 7)
    tampered[cert][at] += delta
    monkeypatch.setattr(module, "_slice_flow", lambda *args: tampered)
    with pytest.raises(CertificateError, match=message):
        solve_slice(m, b, w, 3, cold_flow(m, w))


def test_slice_from_a_start_flow():
    """A probe started from another sum's optimal flow has the cold
    probe's value, and the flow it ends on takes no part in equality."""
    m, b, w = circulant_matrix(5, 2), [1] * 5, [3, 1, 2, 1, 2]
    start = solve_slice(m, b, w, 3, cold_flow(m, w)).flow
    assert len(start) == 12 and min(start) >= 0
    for beta in range(3, 11):
        warm = solve_slice(m, b, w, beta, start)
        assert warm.value == solve_slice(m, b, w, beta, cold_flow(m, w)).value, beta
        assert warm.flow is not None
    assert solve_slice(m, b, w, 2, start) is None
    assert SliceSolution(3, 4, (1, 0, 1, 0, 1)) == SliceSolution(3, 4, (1, 0, 1, 0, 1), (1,))


def test_optimize_starts_each_probe_from_the_last_flow(monkeypatch):
    """Every probe goes through the module's `solve_slice`; the first starts
    from the cold flow, each later one from the flow of the last non-empty
    probe."""
    module = sys.modules["circover.optimize"]
    probes = []

    def recording(*args):
        probes.append((args[-1], solve_slice(*args)))
        return probes[-1][1]

    monkeypatch.setattr(module, "solve_slice", recording)
    m, w = circulant_matrix(7, 3), [3, 1, 2, 0, 2, 5, 1]
    res = optimize(m, [2, 1, 2, 1, 2, 1, 1], w)
    assert len(probes) == len(res.slices) >= 4
    assert any(found is None for _, found in probes)
    assert probes[0][0] == cold_flow(m, w)
    last = probes[0][0]
    for start, found in probes:
        assert start is last
        if found is not None:
            last = found.flow


def test_optimize_checks_and_scales_once(monkeypatch):
    """One `optimize` call checks the demands and the weights and scales
    the weights to ints once each, however many sums it probes."""
    module = sys.modules["circover.optimize"]
    calls = {}

    def counting(name, fn):
        def wrapped(*args):
            calls[name] = calls.get(name, 0) + 1
            return fn(*args)
        return wrapped

    for name in ("check_demands", "check_weights", "scaled_to_integers"):
        monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
    res = optimize(circulant_matrix(7, 3), [2, 1, 2, 1, 2, 1, 1],
                   [3, F(1, 2), 2, 0, F(2, 3), 5, 1])
    assert len(res.slices) >= 4
    assert calls == {"check_demands": 1, "check_weights": 1, "scaled_to_integers": 1}


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
    with pytest.raises(BadParameters, match="^negative weight -1$"):
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
    with pytest.raises(BadParameters, match="^not a circular interval$"):
        domination_solve([[1, 3], [2, 3], [3, 4], [4, 5], [5, 1]])
