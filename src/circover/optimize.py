"""Exact optimization over the integer covering hull.

The hull is the convex closure of its slices at fixed coordinate sums, and
each slice is an integral polytope. Substituting prefix sums
y_j = x_1 + ... + x_j (so x_j = y_j - y_{j-1}, y_0 = 0 and y_n pinned to
the sum beta) turns every circular row into a difference constraint
y_v >= y_u + l: a plain row (start s, end e <= n) gives y_e >= y_{s-1} + b,
a wrapping row y_{e-n} >= y_{s-1} + b - beta, each column y_j >= y_{j-1},
and the pins y_n >= y_0 + beta and y_0 >= y_n - beta. These are the arcs
u -> v of length l of the slice graph on the nodes 0..n.

The slice is empty exactly when that graph has a cycle of positive length,
a negative cycle of the `digraph.bellman_ford` kernel under the costs -l.
Otherwise the minimum of w . x = sum_j C_j y_j, with C_0 = -w_1,
C_j = w_j - w_{j+1} and C_n = w_n, is by LP duality the maximum of
sum_a l_a f_a over the flows f >= 0 with net inflow C_j at every node, an
uncapacitated min-cost flow (Ahuja, Magnanti & Orlin, Network Flows, 1993;
Bartholdi, Orlin & Ratliff, Oper. Res. 1980, for circular ones), solved
in the int-scaled weights by cycle cancelling on the same kernel. Its final
distances d give the primal point y_j = d_0 - d_j, and the answer is
certified in ints: y meets every arc, y_0 = 0, y_n = beta, the flow is
non-negative and conserves, and both sides are equal. No simplex runs for
a slice.

Ties: the smallest optimal sum wins, then the lexicographically smallest
optimal integer point: one LP at that sum, with digit-perturbed costs, over
the slice graph's row and column arcs. That system is totally unimodular,
so the LP pivots in integers, and its vertex passes the flow point's check.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction

from .digraph import bellman_ford
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


@dataclass(frozen=True)
class SliceSolution:
    beta: int
    value: Fraction
    point: tuple[int, ...]


def _slice_graph(matrix: CircularMatrix, demands, beta: int):
    """(tails, heads, lengths) of the slice graph: the column arcs first,
    then one arc per row, then the two pins."""
    n = matrix.n
    tails, heads, lengths = list(range(n)), list(range(1, n + 1)), [0] * n
    for (start, length), b in zip(matrix.rows, demands):
        end = start + length - 1
        tails.append(start - 1)
        if end <= n:
            heads.append(end)
            lengths.append(b)
        else:
            heads.append(end - n)
            lengths.append(b - beta)
    tails += [0, n]
    heads += [n, 0]
    lengths += [beta, -beta]
    return tails, heads, lengths


def _slice_flow(graph, weights) -> tuple[list[int], list[int]] | None:
    """(flow, y) optimal for the int weights, or None if the slice is empty.

    The flow starts as weights[j-1] on column arc j. Each negative cycle of
    its residual graph is cancelled by the least flow among the arcs it runs
    against, and once none is left y is read off the kernel's distances.
    """
    tails, heads, lengths = graph
    n = len(weights)
    costs = [-v for v in lengths]
    if bellman_ford(n + 1, tails, heads, costs)[0] is not None:
        return None
    arcs = len(tails)
    flow = list(weights) + [0] * (arcs - n)
    while True:
        # residual graph: every arc, then the reverse of every arc with flow
        used = [a for a in range(arcs) if flow[a]]
        cycle, dist = bellman_ford(
            n + 1,
            tails + [heads[a] for a in used],
            heads + [tails[a] for a in used],
            costs + [lengths[a] for a in used],
        )
        if cycle is None:
            return flow, [dist[0] - d for d in dist[:n + 1]]
        # the slice is not empty, so the cycle runs against some flow
        delta = min([flow[used[k - arcs]] for k in cycle if k >= arcs])
        for k in cycle:
            if k < arcs:
                flow[k] += delta
            else:
                flow[used[k - arcs]] -= delta


def _slice_point(matrix: CircularMatrix, demands, y, beta: int) -> tuple[int, ...]:
    """The point x_j = y_j - y_{j-1} of the prefix sums y_0..y_n, checked to
    be non-negative and integral, to cover every row and to sum to beta."""
    x = [y[j] - y[j - 1] for j in range(1, len(y))]
    if any(v.denominator != 1 or v < 0 for v in x):
        raise CertificateError(f"non-integral slice vertex {x}")
    xi = tuple([int(v) for v in x])
    for i, b in enumerate(demands, 1):
        if sum([xi[j - 1] for j in matrix.support(i)]) < b:
            raise CertificateError(f"slice point {xi} leaves row {i} uncovered")
    if sum(xi) != beta:
        raise CertificateError(f"slice point {xi} does not sum to {beta}")
    return xi


def solve_slice(matrix: CircularMatrix, demands, weights, beta: int) -> SliceSolution | None:
    """Exact minimum of weights . x over the slice at coordinate sum beta.

    Returns None when the slice is empty. The witness point is an optimal
    integral point, certified by a flow of equal cost.
    """
    demands = check_demands(matrix, demands)
    w = check_weights(matrix, weights)
    if not isinstance(beta, int) or isinstance(beta, bool):
        raise BadParameters(f"the coordinate sum must be an int, got {beta!r}")
    n = matrix.n
    scale, c = scaled_to_integers(w)
    graph = _slice_graph(matrix, demands, beta)
    found = _slice_flow(graph, c)
    if found is None:
        return None
    flow, y = found
    if y[0] != 0 or y[n] != beta:
        raise CertificateError(f"slice potential {y} does not run from 0 to {beta}")
    net = [0] * (n + 1)
    for tail, head, length, f in zip(*graph, flow):
        if y[head] - y[tail] < length:
            raise CertificateError(f"slice potential {y} violates arc {tail} -> {head}")
        if f < 0:
            raise CertificateError(f"negative slice flow on arc {tail} -> {head}")
        net[head] += f
        net[tail] -= f
    inflow = [-c[0]] + [c[j - 1] - c[j] for j in range(1, n)] + [c[n - 1]]
    if net != inflow:
        raise CertificateError(f"slice flow {flow} does not conserve")
    cost = sum([length * f for length, f in zip(graph[2], flow)])
    if sum([s * v for s, v in zip(inflow, y)]) != cost:
        raise CertificateError(f"slice flow {flow} and potential {y} differ in cost")
    xi = _slice_point(matrix, demands, y, beta)
    return SliceSolution(beta, Fraction(sum([cv * v for cv, v in zip(c, xi)]), scale), xi)


def _lexmin_vertex(matrix: CircularMatrix, demands, costs, beta: int) -> tuple[int, ...]:
    """The certified LP vertex minimizing costs . x over the slice at sum beta."""
    n = matrix.n
    tails, heads, lengths = _slice_graph(matrix, demands, beta)
    rows, rhs = [], []
    # the row arcs, then the column arcs: y_v - y_u >= l over y_1..y_{n-1},
    # with y_0 = 0 and y_n = beta moved to the right-hand side
    for a in [*range(n, n + matrix.m), *range(n)]:
        row = [0] * (n + 1)
        row[heads[a]] += 1
        row[tails[a]] -= 1
        rows.append(row[1:n])
        rhs.append(lengths[a] - beta * row[n])
    objective = [costs[j] - costs[j + 1] for j in range(n - 1)]
    res = solve_lp(objective, rows, [">="] * len(rows), rhs)
    if res.status != "optimal":
        raise CertificateError(f"the lexmin LP at sum {beta} came back {res.status}")
    return _slice_point(matrix, demands, [0, *res.point, beta], beta)


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
    point = _lexmin_vertex(matrix, demands, costs, beta)
    if best is None or best.value != sum((wv * v for wv, v in zip(w, point)), Fraction(0)):
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
