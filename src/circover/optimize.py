"""Exact optimization over the integer covering hull.

The hull is the convex closure of its slices at fixed coordinate sums, and
each slice is an integral polytope: substituting prefix sums
y_j = x_1 + ... + x_j (so x_j = y_j - y_{j-1}, y_n pinned to the sum) turns
every circular row into a consecutive difference pattern, and the resulting
constraint matrix together with y >= 0 is totally unimodular. So the slice
LPs pivot in integers, and every LP vertex is checked to be integral.

Ties: the smallest optimal sum wins, then the lexicographically smallest
optimal integer point (one more LP, with digit-perturbed costs).
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction

from .errors import BadParameters, CertificateError
from .lp import solve_lp
from .matrices import (
    CircularMatrix,
    check_demands,
    check_weights,
    circular_matrix,
    interval_row,
)
from .rationals import scaled_to_integers


def _slice_system(matrix: CircularMatrix, demands, beta: int):
    """Constraint rows over the n-1 prefix variables, one per stacked row."""
    n = matrix.n
    stacked = [(matrix.support(i), demands[i - 1]) for i in range(1, matrix.m + 1)]
    stacked += [(frozenset([j]), 0) for j in range(1, n + 1)]
    rows = [[int(j in sup) - int(j + 1 in sup) for j in range(1, n)] for sup, _ in stacked]
    rhs = [d - beta * int(n in sup) for sup, d in stacked]
    return rows, rhs


def _slice_vertex(matrix, demands, costs, beta) -> tuple[int, ...] | None:
    """The certified integral LP vertex minimizing costs . x over a slice."""
    n = matrix.n
    rows, rhs = _slice_system(matrix, demands, beta)
    objective = [costs[j] - costs[j + 1] for j in range(n - 1)]
    res = solve_lp(objective, rows, [">="] * len(rows), rhs)
    if res.status == "infeasible":
        return None
    if res.status != "optimal":
        raise CertificateError(f"the slice at sum {beta} is unbounded")
    y = list(res.point) + [Fraction(beta)]
    x = [y[0]] + [y[j] - y[j - 1] for j in range(1, n)]
    if any(v.denominator != 1 or v < 0 for v in x):
        raise CertificateError(f"non-integral slice vertex {x}")
    xi = tuple([int(v) for v in x])
    for i in range(1, matrix.m + 1):
        if sum(xi[j - 1] for j in matrix.support(i)) < demands[i - 1]:
            raise CertificateError(f"slice vertex {xi} leaves row {i} uncovered")
    if sum(xi) != beta:
        raise CertificateError(f"slice vertex {xi} does not sum to {beta}")
    return xi


@dataclass(frozen=True)
class SliceSolution:
    beta: int
    value: Fraction
    point: tuple[int, ...]


def solve_slice(matrix: CircularMatrix, demands, weights, beta: int) -> SliceSolution | None:
    """Exact minimum of weights . x over the slice at coordinate sum beta.

    Returns None when the slice is empty. The witness point is an integral
    vertex (checked, not rounded).
    """
    demands = check_demands(matrix, demands)
    w = check_weights(matrix, weights)
    if not isinstance(beta, int) or isinstance(beta, bool):
        raise BadParameters(f"the coordinate sum must be an int, got {beta!r}")
    # a positive scale keeps every pivot choice, hence the vertex
    xi = _slice_vertex(matrix, demands, scaled_to_integers(w)[1], beta)
    if xi is None:
        return None
    return SliceSolution(beta, sum((wv * v for wv, v in zip(w, xi)), Fraction(0)), xi)


@dataclass(frozen=True)
class OptimizationResult:
    value: Fraction
    point: tuple[int, ...]
    beta: int
    slices: tuple  # (beta, slice value or None) per probed sum, ascending


def optimize(matrix: CircularMatrix, demands, weights) -> OptimizationResult:
    """Exact minimum of weights . x over the integer covering hull.

    Some optimal vertex is a minimal cover, capped by max(demands) per
    coordinate, so the optimal sum lies in 0..top = n*max(demands). Raising a
    coordinate keeps a cover, so the feasible sums are [tau, top], and the
    slice value g(beta), an LP value as a function of its right-hand side, is
    convex. So bisection finds tau, then the least beta with
    g(beta + 1) >= g(beta), which is the least optimal sum.
    """
    demands = check_demands(matrix, demands)
    w = check_weights(matrix, weights)
    top = matrix.n * max(demands, default=0)
    probed: dict[int, SliceSolution | None] = {}

    def g(beta: int) -> SliceSolution | None:
        if beta not in probed:
            probed[beta] = solve_slice(matrix, demands, w, beta)
        return probed[beta]

    # each search returns top when no sum below it qualifies, without probing top
    tau = bisect_left(range(top), True, key=lambda b: g(b) is not None)
    beta = bisect_left(range(top), True, tau, key=lambda b: g(b + 1).value >= g(b).value)
    best = g(beta)  # never None: the all-max vector covers
    # every coordinate is below B = beta + 1, so the costs L*w_j*B^n + B^(n-1-j)
    # rank the slice's integer points by w . x, then lexicographically, with no
    # ties; the slice is integral, so this LP's optimal vertex is the lexmin point
    n, base = matrix.n, beta + 1
    costs = [c * base**n + base ** (n - 1 - j) for j, c in enumerate(scaled_to_integers(w)[1])]
    point = _slice_vertex(matrix, demands, costs, beta)
    if best is None or point is None or best.value != sum(
        (wv * v for wv, v in zip(w, point)), Fraction(0)
    ):
        raise CertificateError(f"no certified lexmin optimum at sum {beta}")
    slices = tuple([(b, s.value if s else None) for b, s in sorted(probed.items())])
    return OptimizationResult(best.value, point, beta, slices)


def domination_solve(neighborhoods, weights=None, demands=None) -> OptimizationResult:
    """Solve a domination problem on a circular-interval neighborhood model.

    Vertex v must be dominated demands[v-1] times: all ones (the default)
    is the minimum weight dominating set, [k] * n is k-domination, and any
    other vector is its l-domination. The fractional relaxation is closed
    to its integer hull.

    Each vertex's demand is checked as a row demand. Twin vertices
    (identical closed neighborhoods) would then duplicate rows, so identical
    neighborhoods are grouped and the group keeps its largest demand.
    """
    n = len(neighborhoods)
    if weights is None:
        weights = (1,) * n
    if demands is None:
        demands = (1,) * n
    rows = [interval_row(neighborhoods[v - 1], n, must_contain=v) for v in range(1, n + 1)]
    # one row per vertex, twins repeated: this matrix only checks the demands
    demands = check_demands(CircularMatrix(n, tuple(rows)), demands)
    grouped: dict[tuple[int, int], int] = {}
    for row, d in zip(rows, demands):
        grouped[row] = max(grouped.get(row, d), d)
    matrix = circular_matrix(n, list(grouped))
    return optimize(matrix, list(grouped.values()), weights)
