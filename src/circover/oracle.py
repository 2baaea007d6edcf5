"""Ground-truth oracle: brute force over the integer box.

Everything here is deliberately independent of the structural machinery so
it can adjudicate it. Minimal covers come from a full scan of the box
[0, max(b)]^n in the lexicographic order of `itertools.product`, walked as
an odometer that keeps every row sum and the count of short rows up to date
as columns turn (minimality is checked by single decrements at each cover,
which is the same as global minimality because feasibility is monotone in
x). The facet test reads one value a.c per cover for both validity and
tightness, then takes one exact rank on the support of the inequality; the
full hull comes from a plain double description run on the dual cone, and
membership is a phase-1 LP.

The double description runs in Python ints. The base of the n unit
constraints and the first cover's constraint (1, c) has the closed-form
inverse with columns (-c_j, e_j), then (1, 0, ..., 0): these are the start
rays, already primitive. A new ray is a gcd-reduced int combination of two
rays, zero exactly where both are and on the new constraint, since both
weights are positive and both rays meet every earlier constraint with >= 0.

The box scan is guarded by a budget in box points, default (3+1)^9: enough
for every instance with n <= 9 and demands up to 3, the intended desk scale.
The budget counts the whole box, which the odometer still visits point by
point.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .errors import BudgetExceeded, CertificateError, NegativeCoefficient
from .linalg import exact_rank
from .lp import solve_lp
from .matrices import CircularMatrix, check_demands
from .rationals import parse_rational_vector

DEFAULT_BUDGET = 4 ** 9


def enumerate_minimal_covers(
    matrix: CircularMatrix, demands, budget: int | None = None
) -> tuple[tuple[int, ...], ...]:
    """All minimal integer covers, in lexicographic order."""
    demands = check_demands(matrix, demands)
    budget = DEFAULT_BUDGET if budget is None else budget
    n = matrix.n
    maxb = max(demands, default=0)
    if (maxb + 1) ** n > budget:
        raise BudgetExceeded(
            f"box of {(maxb + 1) ** n} points exceeds budget {budget}"
        )
    cols_rows: list[list[int]] = [[] for _ in range(n)]
    for ridx in range(matrix.m):
        for j in matrix.support(ridx + 1):
            cols_rows[j - 1].append(ridx)
    # odometer over the box in `itertools.product` order: the last column
    # turns fastest, and a step touches only the rows of the columns it moves
    x = [0] * n
    sums = [0] * matrix.m
    short = sum(1 for b in demands if b > 0)
    out = []
    while True:
        if not short and all(
            not x[j] or any(sums[r] <= demands[r] for r in cols_rows[j])
            for j in range(n)
        ):
            out.append(tuple(x))
        j = n - 1
        while j >= 0 and x[j] == maxb:
            x[j] = 0
            for r in cols_rows[j]:
                s = sums[r]
                sums[r] = s - maxb
                if s >= demands[r] > s - maxb:
                    short += 1
            j -= 1
        if j < 0:
            return tuple(out)
        x[j] += 1
        for r in cols_rows[j]:
            sums[r] += 1
            if sums[r] == demands[r]:
                short -= 1


def _cover_values(inequality, covers) -> list[int]:
    """a.c for every cover c; NegativeCoefficient if a has a negative entry."""
    coeffs = inequality.coeffs
    if any(c < 0 for c in coeffs):
        raise NegativeCoefficient(f"negative coefficient in {coeffs}")
    return [sum([c * v for c, v in zip(coeffs, cover)]) for cover in covers]


def check_validity(inequality, covers) -> bool:
    """Does every cover satisfy the inequality? (coefficients must be >= 0)"""
    rhs = inequality.rhs
    return all(v >= rhs for v in _cover_values(inequality, covers))


def check_facet(inequality, covers) -> bool:
    """Exact facet test against the cover list.

    The polyhedron conv(covers) + R^n_+ is full-dimensional, so the
    inequality a.x >= a0 defines a facet iff it is valid, tight somewhere,
    and its face has dimension n-1. That face is the convex hull of the
    tight covers plus the cone of the unit rays e_j, j in the zero set Z of
    a. The rays span exactly the Z coordinates, so the face has dimension
    |Z| + rank(D_S), with D_S the differences of the tight covers read on
    the support S of a only: a facet iff rank(D_S) = |S| - 1.
    """
    rhs = inequality.rhs
    values = _cover_values(inequality, covers)
    if any(v < rhs for v in values):
        return False
    tight = [cover for cover, v in zip(covers, values) if v == rhs]
    if not tight:
        return False
    support = [j for j, c in enumerate(inequality.coeffs) if c]
    base = [tight[0][j] for j in support]
    diffs = [[cover[j] - b for j, b in zip(support, base)] for cover in tight[1:]]
    return exact_rank(diffs) == len(support) - 1


def membership(point, covers) -> bool:
    """Is the point in conv(covers) + R^n_+? Phase-1 LP, exact."""
    if not covers:
        return False
    x = parse_rational_vector(point)
    n = len(x)
    k = len(covers)
    rows = [[1] * k]
    senses = ["=="]
    rhs = [1]
    for j in range(n):
        rows.append([cover[j] for cover in covers])
        senses.append("<=")
        rhs.append(x[j])
    res = solve_lp([0] * k, rows, senses, rhs)
    return res.status == "optimal"


@dataclass(frozen=True)
class HullDescription:
    facets: tuple            # LinearInequality tuple, sorted
    covers: tuple
    n: int


def hull_facets(matrix: CircularMatrix, demands, budget: int | None = None) -> HullDescription:
    """Complete facet list of the integer covering hull, by double description.

    Runs on the dual cone in R^{n+1}: a valid inequality a.x >= a0 with
    a >= 0 corresponds to a ray (-a0, a) of the cone cut out by the unit
    constraints and one constraint (1, cover) per minimal cover. Extreme
    rays of that cone are exactly the facets of the hull plus the trivial
    ray (1, 0) (the inequality 0 >= -1), which is dropped.

    With c the first cover, start ray j < n is (-c_j, e_j), zero on every
    unit constraint but j and on the cover; start ray n is (1, 0, ..., 0),
    zero on every unit constraint. Rays stay primitive int vectors, and a
    ray's zero set is kept as a bitmask over the constraints added so far:
    the ray combined from an adjacent pair across constraint t is zero on
    the pair's common zero set and on t, nowhere else.
    """
    from .inequalities import make_inequality  # local import, no cycle

    covers = enumerate_minimal_covers(matrix, demands, budget)
    n = matrix.n
    first = covers[0]
    rays = [(-c,) + tuple([int(t == j) for t in range(n)]) for j, c in enumerate(first)]
    rays.append((1,) + (0,) * n)
    units = (1 << n) - 1
    masks = [units & ~(1 << j) | 1 << n for j in range(n)]
    masks.append(units)

    for t, cover in enumerate(covers[1:], n + 1):
        h = (1, *cover)
        vals = [sum(a * b for a, b in zip(h, r)) for r in rays]
        if all(v >= 0 for v in vals):
            masks = [
                m | ((v == 0) << t) for m, v in zip(masks, vals)
            ]
            continue
        keep_rays = []
        keep_masks = []
        pos = []
        neg = []
        for r, v, m in zip(rays, vals, masks):
            if v > 0:
                pos.append((r, v, m))
                keep_rays.append(r)
                keep_masks.append(m)
            elif v == 0:
                keep_rays.append(r)
                keep_masks.append(m | (1 << t))
            else:
                neg.append((r, v, m))
        for rp, vp, mp in pos:
            for rn, vn, mn in neg:
                common = mp & mn
                adjacent = True
                for r2, m2 in zip(rays, masks):
                    if r2 is rp or r2 is rn:
                        continue
                    if common & m2 == common:
                        adjacent = False
                        break
                if not adjacent:
                    continue
                combo = [vp * b - vn * a for a, b in zip(rp, rn)]
                g = gcd(*combo)
                keep_rays.append(tuple([v // g for v in combo]))
                keep_masks.append(common | 1 << t)
        rays = keep_rays
        masks = keep_masks

    facets = []
    for vec in rays:
        a0, coeffs = vec[0], vec[1:]
        if all(c == 0 for c in coeffs):
            continue  # the trivial ray (1, 0, ..., 0)
        if any(c < 0 for c in coeffs):
            raise CertificateError(f"hull ray {vec} has a negative coefficient")
        facets.append(make_inequality(coeffs, -a0, kind="hull"))
    facets.sort(key=lambda q: (q.coeffs, q.rhs))
    return HullDescription(tuple(facets), covers, n)
