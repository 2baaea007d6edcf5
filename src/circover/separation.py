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
identity is checked on every violated answer, and a mismatch raises
CertificateError). Integral coordinate sums (mu = 0) short-circuit to
membership: the point sits in one integral slice.

All of this runs in integers. With D the lcm of the point's reduced
denominators, D * x is integral, so are D * slack and D * mu, and every cost
above is an integer over D^2. `assign_costs` reads the point straight to
(D, D * x), builds the row slacks from prefix sums of the doubled column
vector D * x and keeps only the costs scaled by D^2; a circuit's Fraction
cost is its scaled sum over D^2. Multiplying every cost by the same
positive integer preserves every comparison the Bellman-Ford kernel of
`digraph` makes, so the circuit it returns is identical, arc for arc, to
the one the same sweep finds over the Fraction costs. The certificate is
checked in ints as well, as D^2 times the cut's slack, and one Fraction is
built for the output.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from operator import mul

from .digraph import AuxDigraph, ClosedPath, bellman_ford, build_digraph
from .errors import BadParameters, BudgetExceeded, CertificateError
from .inequalities import LinearInequality, circuit_inequality
from .lp import solve_lp
from .matrices import CircularMatrix, check_demands, check_positive_int, check_weights
from .rationals import parse_scaled_vector


@dataclass(frozen=True)
class CostAssignment:
    scaled_point: tuple[int, ...]   # D * point
    scale: int                      # D, the lcm of the point's denominators
    gap: Fraction                   # distance from sum(point) up to the next integer
    # forward and reverse costs times D^2, over the extended stack: rows,
    # then columns
    scaled_forward: tuple[int, ...]
    scaled_reverse: tuple[int, ...]

    @property
    def point(self) -> tuple[Fraction, ...]:
        return tuple([Fraction(v, self.scale) for v in self.scaled_point])

    def scaled_cost(self, path: ClosedPath) -> int:
        """The path's cost times D^2."""
        fwd, rev = self.scaled_forward, self.scaled_reverse
        return sum([fwd[a.slot] if a.is_forward else rev[a.slot] for a in path.arcs])

    def path_cost(self, path: ClosedPath) -> Fraction:
        return Fraction(self.scaled_cost(path), self.scale * self.scale)


def assign_costs(matrix: CircularMatrix, demands, point) -> CostAssignment:
    """Check the point against the fractional constraints and split slacks.

    Raises BadParameters naming an offending row (or column) if the point
    is outside the fractional relaxation.
    """
    n = matrix.n
    demands = check_demands(matrix, demands)
    d, dx = parse_scaled_vector(point)
    if len(dx) != n:
        raise BadParameters(f"{len(dx)} coordinates for {n} columns")
    prefix = list(accumulate(dx + dx, initial=0))
    slack = []
    last = []   # whether the extended row covers column n
    for i, (start, length) in enumerate(matrix.rows, 1):
        s = prefix[start - 1 + length] - prefix[start - 1] - d * demands[i - 1]
        if s < 0:
            raise BadParameters(f"row {i} is short by {Fraction(-s, d)}")
        slack.append(s)
        last.append(start + length - 1 >= n)
    for j, v in enumerate(dx, 1):
        if v < 0:
            raise BadParameters(f"column {j} is negative: {Fraction(v, d)}")
    slack += dx
    last += [False] * (n - 1) + [True]
    g = -prefix[n] % d              # D * mu
    h = d - g                       # D * (1 - mu)
    forward = tuple([g * (s - h) if v else g * s for s, v in zip(slack, last)])
    reverse = tuple([h * (s + g) if v else h * s for s, v in zip(slack, last)])
    return CostAssignment(tuple(dx), d, Fraction(g, d), forward, reverse)


def negative_circuit(digraph: AuxDigraph, costs: CostAssignment) -> ClosedPath | None:
    """A simple circuit of negative total cost, or None if none exists.

    The digraph's arcs are the forward slots, then the reverse ones (from
    slot m on when restricted, which drops the reverse row arcs), so the
    scaled costs go to `digraph.bellman_ford` as they are. Scaling by D^2
    keeps the sweep over the Fraction costs: the first arc still improving
    in round n wins, and the circuit starts at its smallest node.
    """
    forward, reverse = costs.scaled_forward, costs.scaled_reverse
    if digraph.restricted:
        reverse = reverse[digraph.matrix.m:]
    cycle, _ = bellman_ford(digraph.n, digraph.tails, digraph.heads, forward + reverse)
    if cycle is None:
        return None
    first = min(range(len(cycle)), key=lambda t: digraph.tails[cycle[t]])
    return ClosedPath([digraph._arc(k) for k in cycle[first:] + cycle[:first]], digraph.n)


@dataclass(frozen=True)
class SeparationResult:
    verdict: str                              # "member" | "violated"
    inequality: LinearInequality | None
    circuit: ClosedPath | None
    certificate: Fraction | None              # inequality slack at the point
    costs: CostAssignment


def separate(matrix: CircularMatrix, demands, point) -> SeparationResult:
    """Decide hull membership; on violation return a cutting inequality.

    The certificate equals both the inequality's slack at the point and the
    circuit's cost; CertificateError is raised unless they agree exactly and
    are negative.
    """
    costs = assign_costs(matrix, demands, point)
    if costs.gap == 0:
        return SeparationResult("member", None, None, None, costs)
    cyc = negative_circuit(build_digraph(matrix, restricted=False), costs)
    if cyc is None:
        return SeparationResult("member", None, None, None, costs)
    ineq = circuit_inequality(matrix, demands, cyc)
    d = costs.scale                 # slack and cost below are both times D^2
    slack = d * (sum(map(mul, ineq.coeffs, costs.scaled_point)) - d * ineq.rhs)
    cert, cost = Fraction(slack, d * d), costs.scaled_cost(cyc)
    if slack != cost:
        raise CertificateError(
            f"inequality slack {cert} differs from the circuit cost {costs.path_cost(cyc)}")
    if slack >= 0:
        raise CertificateError(f"circuit inequality is not violated: slack {cert}")
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
    cover, no LP needed. A max_rounds that is not an int of at least 1
    raises BadParameters.
    """
    check_positive_int(max_rounds, "max_rounds")
    n, m = matrix.n, matrix.m
    demands = check_demands(matrix, demands)
    w = check_weights(matrix, weights)
    if all(v == 0 for v in w):
        top = max(demands, default=0)
        point = tuple([Fraction(top) for _ in range(n)])
        return CutLoopResult(Fraction(0), point, ())
    rows = [matrix.row_vector(i) for i in range(1, m + 1)]
    rhs = list(demands)
    steps: list[CutLoopStep] = []
    for _ in range(max_rounds):
        res = solve_lp(w, rows, rhs)
        if res.status != "optimal":
            raise CertificateError(f"covering relaxation came back {res.status}")
        sep = separate(matrix, demands, res.point)
        if sep.verdict == "member":
            steps.append(CutLoopStep(res.point, res.value, None, None))
            return CutLoopResult(res.value, res.point, tuple(steps))
        steps.append(CutLoopStep(res.point, res.value, sep.inequality, sep.certificate))
        rows.append(sep.inequality.coeffs)
        rhs.append(sep.inequality.rhs)
    raise BudgetExceeded(f"no convergence within {max_rounds} rounds")
