"""Exact optimization over the integer covering hull.

The hull is the convex closure of its slices at fixed coordinate sums, and
each slice is an integral polytope: substituting prefix sums
y_j = x_1 + ... + x_j (so x_j = y_j - y_{j-1}, y_n pinned to the sum) turns
every circular row into a consecutive difference pattern, and the resulting
constraint matrix together with y >= 0 is totally unimodular. So one exact
LP per candidate sum, and the best slice wins; the LP vertex is asserted to
be integral every time.

Ties: the smallest feasible sum wins, then the lexicographically smallest
optimal integer point (pinned coordinate by coordinate with further LPs over
the optimal face, which is again integral).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import BadParameters
from .lp import solve_lp
from .matrices import (
    CircularMatrix,
    check_demands,
    check_weights,
    circular_matrix,
    interval_row,
)


def _slice_system(matrix: CircularMatrix, demands, beta: int):
    """Constraint rows over the n-1 prefix variables, one per stacked row."""
    n = matrix.n
    rows = []
    rhs = []
    stacked = [(matrix.support(i), demands[i - 1]) for i in range(1, matrix.m + 1)]
    stacked += [(frozenset([j]), 0) for j in range(1, n + 1)]
    for sup, d in stacked:
        vec = [
            Fraction(int(j in sup) - int(j + 1 in sup)) for j in range(1, n)
        ]
        rows.append(vec)
        rhs.append(Fraction(d - beta * int(n in sup)))
    return rows, rhs


@dataclass(frozen=True)
class SliceSolution:
    beta: int
    value: Fraction
    point: tuple[int, ...]


def solve_slice(matrix: CircularMatrix, demands, weights, beta: int) -> SliceSolution | None:
    """Exact minimum of weights . x over the slice at coordinate sum beta.

    Returns None when the slice is empty. The witness point is an integral
    vertex (asserted, not rounded).
    """
    demands = check_demands(matrix, demands)
    w = check_weights(matrix, weights)
    if not isinstance(beta, int) or isinstance(beta, bool):
        raise BadParameters(f"the coordinate sum must be an int, got {beta!r}")
    n = matrix.n
    rows, rhs = _slice_system(matrix, demands, beta)
    objective = [w[j] - w[j + 1] for j in range(n - 1)]
    res = solve_lp(objective, rows, [">="] * len(rows), rhs)
    if res.status == "infeasible":
        return None
    assert res.status == "optimal", "slices are bounded"
    y = list(res.point) + [Fraction(beta)]
    x = [y[0]] + [y[j] - y[j - 1] for j in range(1, n)]
    for v in x:
        assert v.denominator == 1 and v >= 0, f"non-integral slice vertex {x}"
    xi = tuple(int(v) for v in x)
    for i in range(1, matrix.m + 1):
        assert sum(xi[j - 1] for j in matrix.support(i)) >= demands[i - 1]
    assert sum(xi) == beta
    value = sum((wv * v for wv, v in zip(w, xi)), Fraction(0))
    return SliceSolution(beta, value, xi)


def _lexmin_point(matrix, demands, w, beta, value):
    """Lexicographically smallest optimal integer point of the chosen slice."""
    n = matrix.n
    rows, rhs = _slice_system(matrix, demands, beta)
    senses = [">="] * len(rows)
    objective = [w[j] - w[j + 1] for j in range(n - 1)]
    rows.append(objective)
    senses.append("==")
    rhs.append(value - w[n - 1] * beta)
    fixed = []
    for j in range(n - 1):
        target = [Fraction(0)] * (n - 1)
        target[j] = Fraction(1)
        if j > 0:
            target[j - 1] = Fraction(-1)
        res = solve_lp(target, rows, senses, rhs)
        assert res.status == "optimal"
        assert res.value.denominator == 1, "optimal faces of slices are integral"
        fixed.append(int(res.value))
        rows.append(target)
        senses.append("==")
        rhs.append(res.value)
    x = fixed + [beta - sum(fixed)]
    assert all(v >= 0 for v in x)
    return tuple(x)


@dataclass(frozen=True)
class OptimizationResult:
    value: Fraction
    point: tuple[int, ...]
    beta: int
    slices: tuple  # (beta, slice value or None) per scanned sum


def optimize(matrix: CircularMatrix, demands, weights) -> OptimizationResult:
    """Exact minimum of weights . x over the integer covering hull.

    Scans coordinate sums 0..n*max(demands); some optimal vertex is a
    minimal cover and minimal covers are capped by max(demands) per
    coordinate, so the scan is exhaustive.
    """
    demands = check_demands(matrix, demands)
    w = check_weights(matrix, weights)
    top = matrix.n * max(demands, default=0)
    best: SliceSolution | None = None
    table = []
    for beta in range(top + 1):
        sol = solve_slice(matrix, demands, w, beta)
        table.append((beta, sol.value if sol else None))
        if sol is not None and (best is None or sol.value < best.value):
            best = sol
    assert best is not None, "the all-max vector always covers"
    point = _lexmin_point(matrix, demands, w, best.beta, best.value)
    check = sum((wv * v for wv, v in zip(w, point)), Fraction(0))
    assert check == best.value
    return OptimizationResult(best.value, point, best.beta, tuple(table))


def domination_solve(neighborhoods, weights=None, variant: str = "mwdsp", *,
                     fold: int = 2, demands=None) -> OptimizationResult:
    """Solve a domination problem on a circular-interval neighborhood model.

    variant "mwdsp": every vertex dominated at least once (min weight
    dominating set, fractional relaxation closed to its integer hull).
    variant "k-domination": every vertex dominated at least `fold` times.
    variant "l-domination": per-vertex demands (list, one per vertex).

    Twin vertices (identical closed neighborhoods) would duplicate rows, so
    identical neighborhoods are grouped first and the group keeps its
    largest demand.
    """
    n = len(neighborhoods)
    if weights is None:
        weights = (1,) * n
    if variant == "mwdsp":
        per_vertex = [1] * n
    elif variant == "k-domination":
        if not isinstance(fold, int) or fold < 1:
            raise BadParameters(f"fold must be a positive int, got {fold!r}")
        per_vertex = [fold] * n
    elif variant == "l-domination":
        if demands is None or len(demands) != n:
            raise BadParameters("l-domination needs one demand per vertex")
        per_vertex = list(demands)
    else:
        raise BadParameters(f"unknown variant {variant!r}")
    grouped: dict[tuple[int, int], int] = {}
    order = []
    for v in range(1, n + 1):
        row = interval_row(neighborhoods[v - 1], n, must_contain=v)
        if row not in grouped:
            order.append(row)
            grouped[row] = per_vertex[v - 1]
        else:
            grouped[row] = max(grouped[row], per_vertex[v - 1])
    matrix = circular_matrix(n, order)
    return optimize(matrix, [grouped[row] for row in order], weights)
