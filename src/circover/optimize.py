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
certified in ints: the flow is non-negative and conserves, both sides are
equal, and one arc pass checks that y is integral, runs from 0 to beta and
meets every arc. No simplex runs for a slice.

The kernel runs with `early`: it returns the first cycle of its
predecessor graph, not the one round n + 1 would show, so each cancel
costs a few rounds instead of n + 1. And only the lengths of the wrapping
rows and of the pins depend on beta, not the arcs or the inflows, so an
optimal flow at one sum is a feasible flow at every other. `optimize`
starts each probe from the last non-empty probe's optimal flow
(reoptimization, as in Goldberg & Tarjan, J. ACM 36, 1989, and Ahuja,
Magnanti & Orlin, chapter 9), which is often already optimal or a few
cancels away. Both change which optimal flow and point a probe ends on,
never its value, and `optimize` reads only the values.

Ties: the smallest optimal sum wins, then the lexicographically smallest
optimal integer point: one LP at that sum, with digit-perturbed costs, over
the slice graph's row and column arcs. That system is totally unimodular,
so the LP pivots in integers, and its vertex passes the same arc pass: the
one point certificate, for flows and for the lexmin LP.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from fractions import Fraction

from .digraph import bellman_ford
from .errors import CertificateError
from .lp import solve_lp
from .matrices import (
    CircularMatrix,
    check_demands,
    check_weights,
    neighborhood_rows,
)
from .rationals import scaled_to_integers


@dataclass(frozen=True)
class SliceSolution:
    beta: int
    value: int  # in the int-scaled weights
    point: tuple[int, ...]
    # the optimal flow on the slice graph's arcs that certifies the value:
    # a `start` for another sum of the instance
    flow: tuple[int, ...] | None = field(default=None, compare=False)


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


def _net_inflow(graph, flow, n: int) -> list[int]:
    """Inflow minus outflow of the flow at each node 0..n."""
    net = [0] * (n + 1)
    for tail, head, f in zip(graph[0], graph[1], flow):
        net[head] += f
        net[tail] -= f
    return net


def _slice_flow(graph, flow) -> tuple[list[int], list[int]] | None:
    """(flow, y) optimal for the int weights, or None if the slice is empty.

    Cycle cancelling starts from `flow`, a feasible flow (changed in place).
    Each negative cycle of its residual graph is cancelled by the least flow
    among the arcs it runs against, and once none is left y is read off the
    kernel's distances. Any negative cycle will do, so the kernel returns
    the first one its predecessor graph closes. Distances that leave no
    negative cycle meet every slice arc, so the slice is not empty; before
    the first cancel, a cycle of slice arcs alone, or one of the slice
    graph, shows that it is.
    """
    tails, heads, lengths = graph
    n = tails[-1]  # the last arc is the pin n -> 0
    costs = [-v for v in lengths]
    arcs = len(tails)
    nonempty = False
    while True:
        # residual graph: every arc, then the reverse of every arc with flow
        used = [a for a in range(arcs) if flow[a]]
        cycle, dist = bellman_ford(
            n + 1,
            tails + [heads[a] for a in used],
            heads + [tails[a] for a in used],
            costs + [lengths[a] for a in used],
            early=True,
        )
        if cycle is None:
            return flow, [dist[0] - d for d in dist[:n + 1]]
        if not nonempty:
            if max(cycle) < arcs:
                return None
            if bellman_ford(n + 1, tails, heads, costs, early=True)[0] is not None:
                return None
            nonempty = True
        # the slice is not empty, so the cycle runs against some flow
        delta = min([flow[used[k - arcs]] for k in cycle if k >= arcs])
        for k in cycle:
            if k < arcs:
                flow[k] += delta
            else:
                flow[used[k - arcs]] -= delta


def _slice_point(graph, y, beta: int) -> tuple[int, ...]:
    """The point x_j = y_j - y_{j-1} of the prefix sums y_0..y_n, checked to
    be integral, to run from 0 to beta and to meet every slice arc. This arc
    pass is the one point certificate, for the flow's potential and for the
    lexmin LP's vertex: a column arc says x_j >= 0, a row arc that its row is
    covered, and the pins that x sums to beta."""
    if any(v.denominator != 1 for v in y):
        raise CertificateError(f"non-integral slice vertex {[b - a for a, b in zip(y, y[1:])]}")
    y = [int(v) for v in y]
    if y[0] != 0 or y[-1] != beta:
        raise CertificateError(f"slice potential {y} does not run from 0 to {beta}")
    for tail, head, length in zip(*graph):
        if y[head] - y[tail] < length:
            raise CertificateError(f"slice potential {y} violates arc {tail} -> {head}")
    return tuple([b - a for a, b in zip(y, y[1:])])


def solve_slice(matrix: CircularMatrix, demands, c, beta: int, start) -> SliceSolution | None:
    """Exact minimum of c . x over the slice at coordinate sum beta, in ints.

    The per-probe kernel of `optimize`, which checks the demands, scales
    the weights to the ints c and passes a feasible flow as `start`: c_j on
    column arc j, or the `flow` of a solution at any other sum, since no
    flow constraint depends on the sum. Returns None when the slice is
    empty. The witness point is an optimal integral point, certified by a
    flow of equal cost, which comes back as `flow`.
    """
    n = matrix.n
    graph = _slice_graph(matrix, demands, beta)
    inflow = [-c[0]] + [c[j - 1] - c[j] for j in range(1, n)] + [c[n - 1]]
    found = _slice_flow(graph, list(start))
    if found is None:
        return None
    flow, y = found
    point = _slice_point(graph, y, beta)
    if min(flow) < 0:
        raise CertificateError(f"negative slice flow {flow}")
    if _net_inflow(graph, flow, n) != inflow:
        raise CertificateError(f"slice flow {flow} does not conserve")
    cost = sum([length * f for length, f in zip(graph[2], flow)])
    if sum([s * v for s, v in zip(inflow, y)]) != cost:
        raise CertificateError(f"slice flow {flow} and potential {y} differ in cost")
    # the inflows telescope: sum_j C_j y_j is c . x for x_j = y_j - y_{j-1}
    return SliceSolution(beta, cost, point, tuple(flow))


def _lexmin_vertex(matrix: CircularMatrix, demands, costs, beta: int) -> tuple[int, ...]:
    """The certified LP vertex minimizing costs . x over the slice at sum beta."""
    n = matrix.n
    graph = tails, heads, lengths = _slice_graph(matrix, demands, beta)
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
    res = solve_lp(objective, rows, rhs)
    if res.status != "optimal":
        raise CertificateError(f"the lexmin LP at sum {beta} came back {res.status}")
    return _slice_point(graph, [0, *res.point, beta], beta)


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

    The demands and weights are checked, and the weights scaled to ints,
    once here; each probe is a `solve_slice` on the results.
    """
    demands = check_demands(matrix, demands)
    scale, c = scaled_to_integers(check_weights(matrix, weights))
    top = matrix.n * max(demands, default=0)
    probed: dict[int, SliceSolution | None] = {}
    start = c + [0] * (matrix.m + 2)  # cold: c_j on column arc j

    def g(beta: int) -> SliceSolution | None:
        # the last optimal flow is feasible at every sum: a warm start
        nonlocal start
        if beta not in probed:
            found = probed[beta] = solve_slice(matrix, demands, c, beta, start)
            if found is not None:
                start = found.flow
        return probed[beta]

    # each search returns top when no sum below it qualifies, without probing top
    tau = bisect_left(range(top), True, key=lambda b: g(b) is not None)
    beta = bisect_left(range(top), True, tau, key=lambda b: g(b + 1).value >= g(b).value)
    best = g(beta)  # never None: the all-max vector covers
    # every coordinate is below B = beta + 1, so the costs L*w_j*B^n + B^(n-1-j)
    # rank the slice's integer points by w . x, then lexicographically, with no
    # ties; the slice is integral, so this LP's optimal vertex is the lexmin point
    n, base = matrix.n, beta + 1
    costs = [cv * base**n + base ** (n - 1 - j) for j, cv in enumerate(c)]
    point = _lexmin_vertex(matrix, demands, costs, beta)
    if best is None or best.value != sum([cv * v for cv, v in zip(c, point)]):
        raise CertificateError(f"no certified lexmin optimum at sum {beta}")
    # the probes' values are in the int-scaled weights
    slices = tuple([(b, Fraction(s.value, scale) if s else None)
                    for b, s in sorted(probed.items())])
    return OptimizationResult(Fraction(best.value, scale), point, beta, slices)


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
    rows = neighborhood_rows(neighborhoods)
    n = len(rows)
    if weights is None:
        weights = (1,) * n
    if demands is None:
        demands = (1,) * n
    # one row per vertex, twins repeated: this matrix only checks the demands
    demands = check_demands(CircularMatrix(n, tuple(rows)), demands)
    grouped: dict[tuple[int, int], int] = {}
    for row, d in zip(rows, demands):
        grouped[row] = max(grouped.get(row, d), d)
    matrix = CircularMatrix(n, tuple(grouped))
    return optimize(matrix, list(grouped.values()), weights)
