"""Ground-truth oracle: minimal covers by search, hull by double description.

Everything here reads only the row supports, independent of the structural
machinery, so that it can adjudicate it. Minimal covers come from a
depth-first search of the box [0, max(b)]^n, columns in order and values
increasing, so they come out in lexicographic order. Each row keeps its sum
and its count of unassigned columns. A branch is cut when a row can no
longer reach its demand with max(b) on its unassigned columns, or when a
positive column has every row above demand (sums only grow, so no extension
is minimal). Every leaf is then minimal: single decrements decide it, since
feasibility is monotone in x. The facet test reads one value a.c per cover
for validity and tightness, then one exact rank on the inequality's
support less its last column, which the tight covers make redundant.

The hull is a double description on the dual cone, in Python ints. The base
of the n unit constraints and the first cover's constraint (1, c) has the
closed-form inverse with columns (-c_j, e_j), then (1, 0, ..., 0): these
are the start rays, already primitive. A new ray is a gcd-reduced int
combination of two rays, zero exactly where both are and on the new
constraint, since both weights are positive and both rays meet every
earlier constraint with >= 0. Rays stay primitive, so each facet is its ray as is.

The search is guarded by a budget in box points, default (3+1)^9: every
instance with n <= 9 and demands up to 3, the intended desk scale. It
counts the whole box, though the search visits a few nodes per cover.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from operator import itemgetter, mul

from .errors import BadParameters, BudgetExceeded, CertificateError
from .inequalities import LinearInequality
from .linalg import exact_rank
from .matrices import CircularMatrix, check_demands, check_positive_int

DEFAULT_BUDGET = 4 ** 9


def enumerate_minimal_covers(
    matrix: CircularMatrix, demands, budget: int | None = None
) -> tuple[tuple[int, ...], ...]:
    """All minimal integer covers, in lexicographic order.

    A budget that is not an int of at least 1 raises BadParameters.
    """
    demands = check_demands(matrix, demands)
    budget = DEFAULT_BUDGET if budget is None else check_positive_int(budget, "budget")
    n = matrix.n
    maxb = max(demands, default=0)
    if (maxb + 1) ** n > budget:
        raise BudgetExceeded(f"box of {(maxb + 1) ** n} points exceeds budget {budget}")
    row_cols = [sorted([j - 1 for j in matrix.support(i)]) for i in range(1, matrix.m + 1)]
    # per column j, each of its rows r with the least sum that still lets r
    # reach its demand, max(b) going on each of r's columns after j
    reach: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for r, cols in enumerate(row_cols):
        for later, j in enumerate(reversed(cols)):
            reach[j].append((r, demands[r] - later * maxb))
    sums = [0] * matrix.m
    open_rows = [len(rows) for rows in reach]  # rows with sum <= demand
    x = [0] * n
    out = []

    def shift(j, delta):
        """x_j += delta; True if a positive column has no open row left."""
        x[j] += delta
        redundant = False
        for r, _ in reach[j]:
            s = sums[r]
            t = sums[r] = s + delta
            d = demands[r]
            if (s <= d) != (t <= d):
                step = 1 if t <= d else -1
                for c in row_cols[r]:
                    open_rows[c] += step
                    if not open_rows[c] and x[c]:
                        redundant = True
        return redundant

    j, descend = 0, True  # a loop, not recursion: all-zero demands allow any n
    while True:
        if descend:
            if j == n:
                out.append(tuple(x))
                j, descend = j - 1, False
                continue
            need = 0  # the least x_j that leaves each row of j reachable
            for r, t in reach[j]:
                if t - sums[r] > need:
                    need = t - sums[r]
            if not need or need <= maxb and open_rows[j] and not shift(j, need):
                j += 1
                continue
        elif x[j] < maxb and open_rows[j] and not shift(j, 1):
            j, descend = j + 1, True
            continue
        shift(j, -x[j])  # column j has no value left: clear it, go on in j - 1
        if not j:
            return tuple(out)
        j, descend = j - 1, False


def _cover_values(inequality, covers) -> list[int]:
    """a.c for every cover c; BadParameters for an argument of the wrong type,
    a cover of the wrong length or a negative entry of a."""
    if not isinstance(inequality, LinearInequality):
        raise BadParameters(
            f"inequality must be a LinearInequality, got {type(inequality).__name__}")
    if not isinstance(covers, (list, tuple)):
        raise BadParameters(f"covers must be a list, got {type(covers).__name__}")
    coeffs = inequality.coeffs
    if set(map(len, covers)) - {len(coeffs)}:
        k = next(k for k, cover in enumerate(covers) if len(cover) != len(coeffs))
        raise BadParameters(f"cover {k} has {len(covers[k])} entries, the inequality {len(coeffs)}")
    if min(coeffs, default=0) < 0:
        raise BadParameters(f"negative coefficient in {coeffs}")
    return [sum(map(mul, coeffs, cover)) for cover in covers]


def check_facet(inequality, covers) -> bool:
    """Exact facet test against the cover list.

    The polyhedron conv(covers) + R^n_+ is full-dimensional, so the
    inequality a.x >= a0 defines a facet iff it is valid, tight somewhere,
    and its face has dimension n-1. That face is the convex hull of the
    tight covers plus the cone of the unit rays e_j, j in the zero set Z of
    a. The rays span exactly the Z coordinates, so the face has dimension
    |Z| + rank(D_S), with D_S the differences of the tight covers read on
    the support S of a only: a facet iff rank(D_S) = |S| - 1. Every row d
    of D_S has a_S.d = 0 and every a_j, j in S, is non-zero, so the last
    column of D_S is a combination of the others. Dropping it keeps the
    rank: a facet is a D_S less that column of full column rank, and
    `exact_rank` stops there, after about |S| - 1 rows.
    """
    values = _cover_values(inequality, covers)
    rhs = inequality.rhs
    if min(values, default=rhs) < rhs:
        return False
    tight = [cover for cover, v in zip(covers, values) if v == rhs]
    if not tight:
        return False
    support = [j for j, c in enumerate(inequality.coeffs) if c]
    columns = support[:-1]
    base = [tight[0][j] for j in columns]
    diffs = [[cover[j] - b for j, b in zip(columns, base)] for cover in tight[1:]]
    return exact_rank(diffs) == len(support) - 1  # never for an empty support


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
    the pair's common zero set and on t, nowhere else. Extreme rays of the
    (n+1)-dimensional cone are adjacent only if they share n - 1 zeros, so
    a pair with fewer is skipped before the scan for a third ray (Fukuda &
    Prodon, "Double description method revisited", 1996).
    """
    covers = enumerate_minimal_covers(matrix, demands, budget)
    n = matrix.n
    first = covers[0]
    rays = [(-c,) + tuple([int(t == j) for t in range(n)]) for j, c in enumerate(first)]
    rays.append((1,) + (0,) * n)
    units = (1 << n) - 1
    masks = [units & ~(1 << j) | 1 << n for j in range(n)]
    masks.append(units)

    for t, cover in enumerate(covers[1:], n + 1):
        # (1, cover).r on slot 0 and the cover's support (slot 0 keeps the read a tuple)
        read = itemgetter(0, *[j for j, c in enumerate(cover, 1) if c])
        weights = (1, *[c for c in cover if c])
        vals = ([sum(read(r)) for r in rays] if max(cover) == 1
                else [sum(map(mul, weights, read(r))) for r in rays])
        keep_rays, keep_masks, pos, neg = [], [], [], []
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
                if common.bit_count() < n - 1:
                    continue  # too few common zeros to span a 2-face: not adjacent
                for r2, m2 in zip(rays, masks):
                    if common & m2 == common and r2 is not rp and r2 is not rn:
                        break  # a third ray is zero wherever both are: not adjacent
                else:
                    combo = [vp * b - vn * a for a, b in zip(rp, rn)]
                    g = gcd(*combo)
                    keep_rays.append(tuple([v // g for v in combo]))
                    keep_masks.append(common | 1 << t)
        rays, masks = keep_rays, keep_masks

    facets = []
    for vec in rays:
        a0, coeffs = vec[0], vec[1:]
        if all(c == 0 for c in coeffs):
            continue  # the trivial ray (1, 0, ..., 0)
        if any(c < 0 for c in coeffs):
            raise CertificateError(f"hull ray {vec} has a negative coefficient")
        facets.append(LinearInequality(coeffs, -a0, "hull"))
    facets.sort(key=lambda q: (q.coeffs, q.rhs))
    return HullDescription(tuple(facets), covers, n)
