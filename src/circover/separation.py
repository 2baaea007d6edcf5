"""Exact separation over the integer covering hull.

Given a point of the fractional relaxation, split its slacks into two
non-negative cost vectors keyed by the fractional part of its coordinate
sum: with mu = ceil(sum x) - sum x and v the incidence vector of the last
column in the extended row stack,

    forward cost  = mu * (slack - (1 - mu) * v)
    reverse cost  = (1 - mu) * (slack + mu * v).

The point lies in the hull iff the full auxiliary digraph has no circuit of
negative total cost; any negative circuit converts into a violated circuit
inequality whose slack at the point equals the circuit's cost exactly (this
identity is asserted on every violated answer). Integral coordinate sums
(mu = 0) short-circuit to membership: the point sits in one integral slice.

Detection is Bellman-Ford from a virtual source (all distances start at 0)
with a fixed arc sweep order; the first arc still improving in round n
yields a predecessor cycle, which is negative under exact arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .digraph import Arc, AuxDigraph, ClosedPath, build_digraph
from .errors import BadParameters, InfeasiblePoint, IterationLimit
from .inequalities import LinearInequality, circuit_inequality
from .lp import solve_lp
from .matrices import CircularMatrix, check_demands, check_weights
from .rationals import parse_rational_vector


@dataclass(frozen=True)
class CostAssignment:
    matrix: CircularMatrix
    demands: tuple[int, ...]
    point: tuple[Fraction, ...]
    slack: tuple[Fraction, ...]     # extended stack: rows, then columns
    gap: Fraction                   # distance from sum(point) up to the next integer
    forward: tuple[Fraction, ...]
    reverse: tuple[Fraction, ...]

    def arc_cost(self, arc: Arc) -> Fraction:
        return self.forward[arc.slot] if arc.is_forward else self.reverse[arc.slot]

    def path_cost(self, path: ClosedPath) -> Fraction:
        return sum((self.arc_cost(a) for a in path.arcs), Fraction(0))


def assign_costs(matrix: CircularMatrix, demands, point) -> CostAssignment:
    """Check the point against the fractional constraints and split slacks.

    Raises InfeasiblePoint naming an offending row (or column) if the point
    is outside the fractional relaxation.
    """
    n, m = matrix.n, matrix.m
    demands = check_demands(matrix, demands)
    x = parse_rational_vector(point)
    if len(x) != n:
        raise BadParameters(f"{len(x)} coordinates for {n} columns")
    slack = []
    for i in range(1, m + 1):
        s = sum((x[j - 1] for j in matrix.support(i)), Fraction(0)) - demands[i - 1]
        if s < 0:
            raise InfeasiblePoint(f"row {i} is short by {-s}")
        slack.append(s)
    for j in range(1, n + 1):
        if x[j - 1] < 0:
            raise InfeasiblePoint(f"column {j} is negative: {x[j - 1]}")
        slack.append(x[j - 1])
    total = sum(x)
    mu = -(-total.numerator // total.denominator) - total  # ceil(total) - total
    last = [Fraction(0)] * (m + n)
    for i in range(1, m + 1):
        if n in matrix.support(i):
            last[i - 1] = Fraction(1)
    last[m + n - 1] = Fraction(1)
    forward = tuple(mu * (s - (1 - mu) * v) for s, v in zip(slack, last))
    reverse = tuple((1 - mu) * (s + mu * v) for s, v in zip(slack, last))
    return CostAssignment(matrix, demands, x, tuple(slack), mu, forward, reverse)


def negative_circuit(digraph: AuxDigraph, costs: CostAssignment) -> ClosedPath | None:
    """A simple circuit of negative total cost, or None if none exists.

    Deterministic: fixed sweep order, first improving arc in the final
    round wins, and the extracted circuit starts at its smallest node.
    """
    n = digraph.n
    dist = {v: Fraction(0) for v in range(1, n + 1)}
    pred: dict[int, Arc | None] = {v: None for v in range(1, n + 1)}
    trigger = None
    for rnd in range(n):
        changed = False
        for a in digraph.arcs:
            nd = dist[a.tail] + costs.arc_cost(a)
            if nd < dist[a.head]:
                dist[a.head] = nd
                pred[a.head] = a
                changed = True
                if rnd == n - 1:
                    trigger = a
                    break
        if trigger is not None:
            break
        if not changed:
            return None
    if trigger is None:
        return None
    # walk predecessors from the improved head; a cycle must appear
    seen: dict[int, int] = {}
    node = trigger.head
    chain: list[Arc] = []
    while node not in seen:
        seen[node] = len(chain)
        a = pred[node]
        assert a is not None, "improved nodes always have predecessors"
        chain.append(a)
        node = a.tail
    cyc = chain[seen[node]:]
    cyc.reverse()
    path = ClosedPath(tuple(cyc), n, digraph.slots).canonical()
    assert costs.path_cost(path) < 0
    return path


@dataclass(frozen=True)
class SeparationResult:
    verdict: str                              # "member" | "violated"
    inequality: LinearInequality | None
    circuit: ClosedPath | None
    certificate: Fraction | None              # inequality slack at the point
    costs: CostAssignment


def separate(matrix: CircularMatrix, demands, point, *, digraph=None) -> SeparationResult:
    """Decide hull membership; on violation return a cutting inequality.

    The certificate equals both the inequality's slack at the point and the
    circuit's cost (their equality is asserted, exactly).
    """
    costs = assign_costs(matrix, demands, point)
    if costs.gap == 0:
        return SeparationResult("member", None, None, None, costs)
    if digraph is None:
        digraph = build_digraph(matrix, restricted=False)
    cyc = negative_circuit(digraph, costs)
    if cyc is None:
        return SeparationResult("member", None, None, None, costs)
    ineq = circuit_inequality(matrix, demands, cyc)
    cert = ineq.evaluate(costs.point)
    cost = costs.path_cost(cyc)
    assert cert == cost, "inequality slack must equal the circuit cost"
    assert cert < 0
    return SeparationResult("violated", ineq, cyc, cert, costs)


@dataclass(frozen=True)
class CutLoopStep:
    point: tuple[Fraction, ...]
    value: Fraction
    inequality: LinearInequality | None
    certificate: Fraction | None


@dataclass(frozen=True)
class CutLoopResult:
    value: Fraction
    point: tuple[Fraction, ...]
    steps: tuple[CutLoopStep, ...]


def cut_loop(matrix: CircularMatrix, demands, weights, *, max_rounds: int = 200) -> CutLoopResult:
    """Cutting-plane optimization: LP, separate, add the cut, repeat.

    Terminates when the LP optimum is a hull member. Weights must be
    non-negative. All-zero weights short-circuit: value 0 at any integer
    cover, no LP needed.
    """
    n, m = matrix.n, matrix.m
    demands = check_demands(matrix, demands)
    w = check_weights(matrix, weights)
    if all(v == 0 for v in w):
        top = max(demands, default=0)
        point = tuple(Fraction(top) for _ in range(n))
        return CutLoopResult(Fraction(0), point, ())
    digraph = build_digraph(matrix, restricted=False)
    rows = [[Fraction(v) for v in matrix.row_vector(i)] for i in range(1, m + 1)]
    senses = [">="] * m
    rhs = [Fraction(b) for b in demands]
    steps: list[CutLoopStep] = []
    for _ in range(max_rounds):
        res = solve_lp(w, rows, senses, rhs)
        assert res.status == "optimal", "covering relaxations are feasible and bounded"
        sep = separate(matrix, demands, res.point, digraph=digraph)
        if sep.verdict == "member":
            steps.append(CutLoopStep(res.point, res.value, None, None))
            return CutLoopResult(res.value, res.point, tuple(steps))
        steps.append(CutLoopStep(res.point, res.value, sep.inequality, sep.certificate))
        rows.append([Fraction(c) for c in sep.inequality.coeffs])
        senses.append(">=")
        rhs.append(Fraction(sep.inequality.rhs))
    raise IterationLimit(f"no convergence within {max_rounds} rounds")
