"""Helpers used only by the test suites."""

import re
from dataclasses import dataclass
from fractions import Fraction

from circover import BadParameters, CircoverError, CircularMatrix, LinearInequality


# the whole messages of the two failures a test loop skips on purpose: a point
# outside the fractional relaxation (`assign_costs`), and a circuit without an
# essential plain node (`block_decomposition`)
INFEASIBLE_POINT = re.compile(r"row \d+ is short by \d+(/\d+)?|column \d+ is negative: -\d+(/\d+)?")
NO_ESSENTIAL_NODE = re.compile(r"the circuit has no essential plain node")


def reraise_unless(exc, message):
    """Return when `exc` is a BadParameters whose whole message matches the
    pattern `message`, so that the caller may skip that case; raise `exc`
    otherwise, so that no other error is skipped with it."""
    if not (isinstance(exc, BadParameters) and message.fullmatch(str(exc))):
        raise exc


def incidence_matrix(digraph) -> list[list[int]]:
    """Signed node-arc incidence: -1 at the tail, +1 at the head.

    Columns follow digraph.arcs; for the full digraph that is the block
    order (forward rows, forward shorts, reverse rows, reverse shorts).
    """
    rows = [[0] * len(digraph.arcs) for _ in range(digraph.n)]
    for c, a in enumerate(digraph.arcs):
        rows[a.tail - 1][c] -= 1
        rows[a.head - 1][c] += 1
    return rows


def eager_digraph(matrix, restricted):
    """Reference of `digraph.AuxDigraph`: every `Arc` built up front from
    the row supports, in the global order (forward rows, forward shorts,
    reverse rows unless restricted, reverse shorts), and the flat views
    (tails, heads) read off those arcs."""
    from circover import (FORWARD_ROW, FORWARD_SHORT, REVERSE_ROW, REVERSE_SHORT,
                          Arc, norm_col)

    n, m = matrix.n, matrix.m
    arcs = []
    for i in range(1, m + 1):
        start, length = matrix.rows[i - 1]
        mask = sum(1 << (j - 1) for j in matrix.support(i))
        arcs.append(Arc(FORWARD_ROW, i, norm_col(start - 1, n),
                        norm_col(start + length - 1, n), length, i - 1, mask))
    for j in range(1, n + 1):
        arcs.append(Arc(FORWARD_SHORT, j, norm_col(j - 1, n), j, 1,
                        m + j - 1, 1 << (j - 1)))
    if not restricted:
        for fwd in arcs[:m]:
            arcs.append(Arc(REVERSE_ROW, fwd.index, fwd.head, fwd.tail,
                            -fwd.length, fwd.slot, fwd.jump_mask))
    for j in range(1, n + 1):
        arcs.append(Arc(REVERSE_SHORT, j, j, norm_col(j - 1, n), -1,
                        m + j - 1, 1 << (j - 1)))
    tails = [a.tail for a in arcs]
    heads = [a.head for a in arcs]
    return tuple(arcs), tails, heads


def find_arc(digraph, kind: str, index: int):
    """The arc of the given kind for row or column `index`."""
    return next(a for a in digraph.arcs if a.kind == kind and a.index == index)


def determinant(matrix) -> Fraction:
    """Determinant via fraction-free-ish elimination (fine at our sizes)."""
    size = len(matrix)
    work = [[Fraction(v) for v in row] for row in matrix]
    det = Fraction(1)
    for col in range(size):
        pivot = None
        for r in range(col, size):
            if work[r][col] != 0:
                pivot = r
                break
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            work[col], work[pivot] = work[pivot], work[col]
            det = -det
        pv = work[col][col]
        det *= pv
        for r in range(col + 1, size):
            if work[r][col] != 0:
                ratio = work[r][col] / pv
                work[r] = [a - ratio * b for a, b in zip(work[r], work[col])]
    return det


def fraction_costs(matrix, demands, point):
    """Reference cost split of `separation.assign_costs`, in Fractions.

    Returns (slack, gap, forward, reverse) straight from the definition:
    row slacks summed over each row's support, mu = ceil(sum x) - sum x,
    v the incidence vector of the last column in the extended row stack.
    Raises BadParameters exactly as `assign_costs` does.
    """
    n, m = matrix.n, matrix.m
    x = [Fraction(v) for v in point]
    slack = []
    for i in range(1, m + 1):
        s = sum((x[j - 1] for j in matrix.support(i)), Fraction(0)) - demands[i - 1]
        if s < 0:
            raise BadParameters(f"row {i} is short by {-s}")
        slack.append(s)
    for j in range(1, n + 1):
        if x[j - 1] < 0:
            raise BadParameters(f"column {j} is negative: {x[j - 1]}")
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
    return tuple(slack), mu, forward, reverse


def fraction_negative_circuit(digraph, forward, reverse):
    """Reference Bellman-Ford over Fraction costs, the sweep the integer
    kernel `separation.negative_circuit` must reproduce arc for arc.

    Every node starts at distance 0, arcs are relaxed in `digraph.arcs`
    order with in-place updates, the first round without a change ends the
    search, and the first arc still improving in round n yields the
    predecessor cycle, rotated to start at its smallest node.
    """
    from circover import ClosedPath

    def arc_cost(a):
        return forward[a.slot] if a.is_forward else reverse[a.slot]

    n = digraph.n
    dist = {v: Fraction(0) for v in range(1, n + 1)}
    pred = {v: None for v in range(1, n + 1)}
    trigger = None
    for rnd in range(n):
        changed = False
        for a in digraph.arcs:
            nd = dist[a.tail] + arc_cost(a)
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
    seen = {}
    node = trigger.head
    chain = []
    while node not in seen:
        seen[node] = len(chain)
        a = pred[node]
        if a is None:
            raise AssertionError("improved nodes always have predecessors")
        chain.append(a)
        node = a.tail
    cyc = chain[seen[node]:]
    cyc.reverse()
    path = ClosedPath(tuple(cyc), n).canonical()
    if sum((arc_cost(a) for a in path.arcs), Fraction(0)) >= 0:
        raise AssertionError(f"the predecessor cycle {path.descriptor()} is not negative")
    return path


def fraction_rank(rows) -> int:
    """Reference of `linalg.exact_rank`: Gaussian elimination over Fractions."""
    work = [[Fraction(v) for v in row] for row in rows]
    if not work:
        return 0
    ncols = len(work[0])
    rank = 0
    col = 0
    while rank < len(work) and col < ncols:
        pivot = None
        for r in range(rank, len(work)):
            if work[r][col] != 0:
                pivot = r
                break
        if pivot is None:
            col += 1
            continue
        work[rank], work[pivot] = work[pivot], work[rank]
        pv = work[rank][col]
        for r in range(rank + 1, len(work)):
            f = work[r][col]
            if f != 0:
                ratio = f / pv
                work[r] = [a - ratio * b for a, b in zip(work[r], work[rank])]
        rank += 1
        col += 1
    return rank


def product_minimal_covers(matrix, demands, budget=None):
    """Reference of `oracle.enumerate_minimal_covers`: every box point from
    `itertools.product`, every row sum recomputed at each point."""
    from itertools import product

    from circover import BadParameters, BudgetExceeded
    from circover.matrices import check_demands
    from circover.oracle import DEFAULT_BUDGET

    demands = check_demands(matrix, demands)
    budget = DEFAULT_BUDGET if budget is None else budget
    if budget < 1:
        raise BadParameters(f"budget must be at least 1, got {budget}")
    n = matrix.n
    maxb = max(demands, default=0)
    if (maxb + 1) ** n > budget:
        raise BudgetExceeded(
            f"box of {(maxb + 1) ** n} points exceeds budget {budget}"
        )
    supports = [sorted(matrix.support(i)) for i in range(1, matrix.m + 1)]
    cols_rows = [[] for _ in range(n + 1)]
    for ridx, sup in enumerate(supports):
        for j in sup:
            cols_rows[j].append(ridx)
    out = []
    for x in product(range(maxb + 1), repeat=n):
        sums = [sum(x[j - 1] for j in sup) for sup in supports]
        if any(s < b for s, b in zip(sums, demands)):
            continue
        minimal = True
        for j in range(1, n + 1):
            if x[j - 1] == 0:
                continue
            if all(sums[r] - demands[r] >= 1 for r in cols_rows[j]):
                minimal = False
                break
        if minimal:
            out.append(x)
    return tuple(out)


def dense_check_facet(inequality, covers, n):
    """Reference of `oracle.check_facet`: validity and tightness each from
    their own pass, then the rank of every tight-cover difference, n long,
    together with one unit row per zero coefficient, against n - 1, by
    `fraction_rank` so that it does not share `exact_rank` with the test
    it checks."""
    if not covers:
        return False
    if not check_validity(inequality, covers):
        return False
    tight = [
        cover for cover in covers
        if sum(c * v for c, v in zip(inequality.coeffs, cover)) == inequality.rhs
    ]
    if not tight:
        return False
    base = tight[0]
    vectors = [[a - b for a, b in zip(cover, base)] for cover in tight[1:]]
    for j, c in enumerate(inequality.coeffs):
        if c == 0:
            vectors.append([int(t == j) for t in range(n)])
    return fraction_rank(vectors) == n - 1


def jsonable(value):
    """Reference of the witness conversion `inequality_json` once made:
    Fractions to strings, tuples to lists, frozensets to sorted lists."""
    from circover.rationals import format_rational

    if isinstance(value, Fraction):
        return format_rational(value)
    if isinstance(value, dict):
        return {k: jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    if isinstance(value, frozenset):
        return sorted(value)
    return value


def search_circuit_cover(nodes, n, k):
    """Reference of `rotation_cover`: a backtracking search over bijections
    of `nodes` onto itself along step arcs (i to i+k or i+k+1, mod n) whose
    cycles all share one (#short, #long) profile; returns (#cycles,
    per-cycle winding) or None."""
    from circover.matrices import norm_col

    node_set = set(nodes)
    order = sorted(nodes)
    options = {}
    for i in order:
        opts = [t for t in (norm_col(i + k, n), norm_col(i + k + 1, n)) if t in node_set]
        if not opts:
            return None
        options[i] = opts
    assign = {}
    used = set()

    def profile_if_uniform():
        seen = set()
        prof = None
        cycles = 0
        for i in order:
            if i in seen:
                continue
            cycles += 1
            short = long_ = 0
            cur = i
            while cur not in seen:
                seen.add(cur)
                nxt = assign[cur]
                if nxt == norm_col(cur + k, n):
                    short += 1
                else:
                    long_ += 1
                cur = nxt
            if prof is None:
                prof = (short, long_)
            elif prof != (short, long_):
                return None
        total = prof[0] * k + prof[1] * (k + 1)
        if total % n:
            raise AssertionError(f"a cycle of steps sums to {total}, not a multiple of {n}")
        return cycles, total // n

    def search(idx):
        if idx == len(order):
            return profile_if_uniform()
        i = order[idx]
        for t in options[i]:
            if t in used:
                continue
            assign[i] = t
            used.add(t)
            got = search(idx + 1)
            used.discard(t)
            del assign[i]
            if got is not None:
                return got
        return None

    return search(0)


@dataclass(frozen=True)
class SupportMatrix:
    """A minor: surviving columns plus minimal distinct row supports.

    row_origins[r] lists the 1-based rows of the parent matrix whose
    restricted support equals rows[r].
    """

    columns: tuple[int, ...]
    rows: tuple[frozenset[int], ...]
    row_origins: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class CirculantMatch:
    """Witness that a support matrix is a circulant up to permutations.

    column_order is a cyclic arrangement of the columns; window i (0-based,
    wrapping) of length `window` equals the support of row row_order[i].
    Both permutations use the caller's labels (original column names,
    1-based row positions of the support matrix).
    """

    order: int
    window: int
    column_order: tuple[int, ...]
    row_order: tuple[int, ...]


def walk_circulant_isomorphic(m):
    """Reference of `matrices.circulant_isomorphic` on a SupportMatrix (for
    example `frozenset_contract(matrix, removed)`): a CirculantMatch with
    the permutation witness, or None.

    In the circulant (s, window) with window <= s-2, two columns share
    window-1 rows exactly when they are cyclically adjacent. So the walk
    starts at the smallest column and keeps appending the smallest unused
    column sharing window-1 rows with the last one placed, and m is a
    circulant exactly when the s windows of that order are its supports.
    The order is the least arrangement that works (for window = s-1, where
    any order does, the sorted one), so the witness is deterministic.
    """
    columns, supports = m.columns, m.rows
    s = len(supports)
    if s != len(columns) or s < 3:
        return None
    sizes = {len(sup) for sup in supports}
    if len(sizes) != 1:
        return None
    window = sizes.pop()
    if not 2 <= window <= s - 1:
        return None
    support_set = set(supports)
    if len(support_set) != s:
        return None
    # each column must lie in exactly `window` rows; bit r of rows_at[c]
    # is set when row r contains column c
    rows_at = dict.fromkeys(columns, 0)
    for r, sup in enumerate(supports):
        for c in sup:
            if c not in rows_at:
                return None
            rows_at[c] |= 1 << r
    if any(mask.bit_count() != window for mask in rows_at.values()):
        return None

    unused = sorted(columns)
    order = [unused.pop(0)]
    while unused:
        last = rows_at[order[-1]]
        nxt = next(
            (c for c in unused if (rows_at[c] & last).bit_count() == window - 1), None
        )
        if nxt is None:
            return None
        order.append(nxt)
        unused.remove(nxt)
    windows = [frozenset(order[(t + d) % s] for d in range(window)) for t in range(s)]
    if set(windows) != support_set:
        return None
    row_of = {sup: idx + 1 for idx, sup in enumerate(supports)}
    return CirculantMatch(s, window, tuple(order), tuple(row_of[w] for w in windows))


def search_circulant_isomorphic(m):
    """Reference of `walk_circulant_isomorphic`: the same pre-checks, then a
    backtracking search that anchors the smallest column and tries
    extensions in ascending column order, so its witness is the least
    arrangement whose windows are the supports."""
    columns, supports = m.columns, m.rows
    s = len(supports)
    if s != len(columns) or s < 3:
        return None
    sizes = {len(sup) for sup in supports}
    if len(sizes) != 1:
        return None
    window = sizes.pop()
    if not 2 <= window <= s - 1:
        return None
    support_set = set(supports)
    if len(support_set) != s:
        return None
    for c in columns:
        if sum(c in sup for sup in supports) != window:
            return None

    cols_sorted = sorted(columns)
    order = [cols_sorted[0]]
    used_cols = {cols_sorted[0]}
    used_windows = set()

    def window_at(pos):
        return frozenset(order[(pos + t) % s] for t in range(window))

    def place(pos):
        if pos == s:
            extra = []
            for t in range(s - window + 1, s):
                w = window_at(t)
                if w in used_windows or w not in support_set:
                    for e in extra:
                        used_windows.discard(e)
                    return False
                used_windows.add(w)
                extra.append(w)
            return True
        for c in cols_sorted:
            if c in used_cols:
                continue
            order.append(c)
            used_cols.add(c)
            w = None
            ok = True
            if pos >= window - 1:
                w = window_at(pos - window + 1)
                ok = w in support_set and w not in used_windows
                if ok:
                    used_windows.add(w)
            if ok and place(pos + 1):
                return True
            if w is not None and ok:
                used_windows.discard(w)
            order.pop()
            used_cols.discard(c)
        return False

    if not place(1):
        return None
    row_of = {sup: idx + 1 for idx, sup in enumerate(supports)}
    row_order = tuple(row_of[window_at(t)] for t in range(s))
    return CirculantMatch(s, window, tuple(order), row_order)


def frozenset_contract(matrix, removed):
    """The minor left by deleting the columns in `removed`, on frozensets:
    each row's support minus the removed columns, duplicates merged, every
    support with a strict subset among the others dropped, the rest listed
    by size and then by their sorted columns. Raises BadParameters for a
    column outside 1..n or every column deleted, with the messages of
    `matrices.circulant_isomorphic`, but takes a column of any numeric
    type."""
    gone = set()
    for j in removed:
        if not 1 <= j <= matrix.n:
            raise BadParameters(f"column {j} outside 1..{matrix.n}")
        gone.add(j)
    if len(gone) == matrix.n:
        raise BadParameters("cannot delete every column")
    kept = tuple(j for j in range(1, matrix.n + 1) if j not in gone)

    by_support = {}
    for i in range(1, matrix.m + 1):
        sup = frozenset(matrix.support(i) - gone)
        by_support.setdefault(sup, []).append(i)

    supports = list(by_support)
    minimal = [s for s in supports if not any(t < s for t in supports)]
    minimal.sort(key=lambda s: (len(s), sorted(s)))
    return SupportMatrix(
        columns=kept,
        rows=tuple(minimal),
        row_origins=tuple(tuple(by_support[s]) for s in minimal),
    )


def rotation_cover(nodes, n, k):
    """Disjoint simple circuits in the step digraph covering `nodes` exactly.

    Arcs go from i to i+k or i+k+1 (mod n); returns (#cycles, per-cycle
    winding) of such a cover, or None. With the sorted nodes s_0 < ... <
    s_{m-1} lifted to L(t + m) = L(t) + n, a bijection of the nodes along
    step arcs keeps their cyclic order, so it is the shift t -> t + r of L
    for one r in 1..m, and it exists exactly when k <= L(t + r) - L(t) <=
    k + 1 for every t. Its cycles then all have m/gcd(r, m) nodes and
    winding r/gcd(r, m).
    """
    from math import gcd

    lifted = sorted(nodes)
    m = len(lifted)
    lifted += [j + n for j in lifted]
    for r in range(1, m + 1):
        if all(k <= lifted[t + r] - lifted[t] <= k + 1 for t in range(m)):
            d = gcd(r, m)
            return d, r // d
    return None


def _certified_witness(parent, nodes, window):
    """The exact MinorWitness for deleting `nodes`, after checking with the
    reference contraction that the minor is the circulant promised."""
    from circover import MinorWitness

    n = parent.n
    match = walk_circulant_isomorphic(frozenset_contract(parent, nodes))
    if match is None or (match.order, match.window) != (n - len(nodes), window):
        raise AssertionError(
            f"deleting {nodes} from {parent} leaves {match}, "
            f"not the circulant ({n - len(nodes)}, {window})"
        )
    return MinorWitness(tuple(nodes), n - len(nodes), window, (), True)


def scanned_circulant_minors(parent, max_count=None):
    """Reference of `inequalities.enumerate_circulant_minors`: every column
    subset, by size and then lexicographically, through a bitmask test that
    each node has a step successor and predecessor in the set, then the
    rotation test `rotation_cover`."""
    from itertools import combinations

    from circover import MinorEnumeration

    n, k = parent.n, parent.circulant_window()
    bits = [1 << j for j in range(n)]
    witnesses = []
    for size in range(1, n - 2):
        for combo in combinations(bits, size):
            mask = sum(combo)
            # in the doubled mask, bit j of `twice >> s` is node j + s (mod n)
            twice = mask | mask << n
            succ = twice >> k | twice >> (k + 1)
            pred = twice >> (n - k) | twice >> (n - k - 1)
            if mask & ~(succ & pred):
                continue
            nodes = tuple(j + 1 for j in range(n) if mask >> j & 1)
            got = rotation_cover(nodes, n, k)
            if got is None:
                continue
            d, q = got
            if k - d * q < 2:
                continue
            witnesses.append(_certified_witness(parent, nodes, k - d * q))
            if max_count is not None and len(witnesses) >= max_count:
                return MinorEnumeration(tuple(witnesses), False)
    return MinorEnumeration(tuple(witnesses), True)


def unfiltered_circulant_minors(parent, max_count=None):
    """Reference of `inequalities.enumerate_circulant_minors`: the
    backtracking cover search on every column subset, with no closure
    pre-filter."""
    from itertools import combinations

    from circover import MinorEnumeration

    n, k = parent.n, parent.circulant_window()
    witnesses = []
    for size in range(1, n - 2):
        for nodes in combinations(range(1, n + 1), size):
            got = search_circuit_cover(nodes, n, k)
            if got is None:
                continue
            d, q = got
            if k - d * q < 2:
                continue
            witnesses.append(_certified_witness(parent, nodes, k - d * q))
            if max_count is not None and len(witnesses) >= max_count:
                return MinorEnumeration(tuple(witnesses), False)
    return MinorEnumeration(tuple(witnesses), True)


def fraction_invert(matrix):
    """Inverse of a square rational matrix by Gauss-Jordan elimination over
    Fractions, or None if it is singular."""
    size = len(matrix)
    work = [[Fraction(v) for v in row] + [Fraction(int(i == j)) for j in range(size)]
            for i, row in enumerate(matrix)]
    for col in range(size):
        pivot = None
        for r in range(col, size):
            if work[r][col] != 0:
                pivot = r
                break
        if pivot is None:
            return None
        work[col], work[pivot] = work[pivot], work[col]
        pv = work[col][col]
        work[col] = [v / pv for v in work[col]]
        for r in range(size):
            if r != col and work[r][col] != 0:
                f = work[r][col]
                work[r] = [a - f * b for a, b in zip(work[r], work[col])]
    return [row[size:] for row in work]


def _fraction_primitive(vec) -> tuple[int, ...]:
    """The rational vector scaled by the lcm of its denominators, then
    divided by the gcd of the resulting ints."""
    from math import gcd

    denom = 1
    for v in vec:
        denom = denom * v.denominator // gcd(denom, v.denominator)
    ints = [int(v * denom) for v in vec]
    g = 0
    for v in ints:
        g = gcd(g, abs(v))
    if g > 1:
        ints = [v // g for v in ints]
    return tuple(ints)


def fraction_hull_facets(matrix, demands, budget=None):
    """Reference of `oracle.hull_facets`: the start cone from the Fraction
    inverse of the base (the unit rows and the first cover row), every new
    ray made primitive through Fractions, and zero sets recomputed by dot
    products against every constraint so far."""
    from circover import make_inequality
    from circover.oracle import HullDescription, enumerate_minimal_covers

    covers = enumerate_minimal_covers(matrix, demands, budget)
    n = matrix.n
    cons = [tuple(int(t == j + 1) for t in range(n + 1)) for j in range(n)]
    cons += [(1,) + tuple(cover) for cover in covers]
    binv = fraction_invert([list(map(Fraction, cons[t])) for t in range(n + 1)])
    rays = [_fraction_primitive([binv[i][j] for i in range(n + 1)]) for j in range(n + 1)]

    def dot(c, r):
        return sum(a * b for a, b in zip(c, r))

    def zmask(vec, upto):
        return sum(1 << t for t in range(upto) if dot(cons[t], vec) == 0)

    masks = [zmask(r, n + 1) for r in rays]
    for t in range(n + 1, len(cons)):
        vals = [dot(cons[t], r) for r in rays]
        keep = [(r, m | ((v == 0) << t)) for r, v, m in zip(rays, vals, masks) if v >= 0]
        pos = [(r, v, m) for r, v, m in zip(rays, vals, masks) if v > 0]
        neg = [(r, v, m) for r, v, m in zip(rays, vals, masks) if v < 0]
        for rp, vp, mp in pos:
            for rn, vn, mn in neg:
                common = mp & mn
                if any(
                    common & m2 == common
                    for r2, m2 in zip(rays, masks)
                    if r2 is not rp and r2 is not rn
                ):
                    continue
                vec = _fraction_primitive(
                    [Fraction(vp * b - vn * a) for a, b in zip(rp, rn)])
                keep.append((vec, zmask(vec, t + 1)))
        rays = [r for r, _ in keep]
        masks = [m for _, m in keep]

    facets = []
    for vec in rays:
        if any(vec[1:]):
            facets.append(make_inequality(vec[1:], -vec[0], kind="hull"))
    facets.sort(key=lambda q: (q.coeffs, q.rhs))
    return HullDescription(tuple(facets), covers, n)


def _fraction_eliminate(row, f, pairs, fzero):
    """row - f * pivot row, in place, touching only the pivot row's nonzero
    columns `pairs`; elsewhere a - f * 0 keeps a, except that an int a
    becomes Fraction(a) where f or that zero (a column of `fzero`) is a
    Fraction, just as the full update's type rules give."""
    if type(f) is not int:
        if int in map(type, row):
            row[:] = [Fraction(a) if type(a) is int else a for a in row]
    else:
        for j in fzero:
            if type(row[j]) is int:
                row[j] = Fraction(row[j])
    for j, b in pairs:
        row[j] -= f * b


def _fraction_pivot(tab, cost, basis, prow, pcol):
    pr = tab[prow]
    pv = pr[pcol]
    if pv == -1:
        for j, v in enumerate(pr):
            if v:
                pr[j] = -v
    elif pv != 1:
        pv = Fraction(pv)
        pr[:] = [v / pv if v else Fraction(0) for v in pr]
    pairs, fzero = [], []
    for j, v in enumerate(pr):
        if v:
            pairs.append((j, v))
        elif type(v) is not int:
            fzero.append(j)
    for r, row in enumerate(tab):
        if r != prow and row[pcol]:
            _fraction_eliminate(row, row[pcol], pairs, fzero)
    if cost[pcol]:
        _fraction_eliminate(cost, cost[pcol], pairs, fzero)
    basis[prow] = pcol


def _fraction_reduced_costs(tab, basis, c):
    cost = list(c) + [0]
    for row, b in zip(tab, basis):
        cb = c[b]
        if cb != 0:
            cost = [a - cb * v for a, v in zip(cost, row)]
    return cost


def _fraction_simplex(tab, cost, basis, log):
    ncols = len(tab[0]) - 1 if tab else len(cost) - 1
    while True:
        enter = None
        for j in range(ncols):
            if cost[j] < 0:
                enter = j
                break
        if enter is None:
            return "optimal"
        leave = None
        for r, row in enumerate(tab):
            a = row[enter]
            if a > 0:
                if leave is not None:
                    lhs, rhs = row[-1] * den, num * a
                    if lhs > rhs or (lhs == rhs and basis[r] > basis[leave]):
                        continue
                leave, num, den = r, row[-1], a
        if leave is None:
            return "unbounded"
        _fraction_pivot_logged(tab, cost, basis, leave, enter, log)


def _fraction_pivot_logged(tab, cost, basis, prow, pcol, log):
    _fraction_pivot(tab, cost, basis, prow, pcol)
    if log is not None:
        log.append((prow, pcol, [list(row) for row in [*tab, cost]]))


def fraction_solve_lp(objective, rows, senses, rhs, log=None):
    """Reference for `lp.solve_lp`: the same two-phase Bland simplex on a
    tableau of ints and Fractions, entries divided out at every non-unit
    pivot. With a list `log`, appends (prow, pcol, tableau rows then the
    cost row) after every pivot."""
    from circover import CertificateError, LPResult

    def exact(v):
        v = v if type(v) is int else Fraction(v)
        return v.numerator if v.denominator == 1 else v

    nvars = len(objective)
    obj = [exact(v) for v in objective]
    work = []
    for row, s, b in zip(rows, senses, rhs):
        coeffs = [exact(v) for v in row]
        b = exact(b)
        if b < 0:
            coeffs = [-v for v in coeffs]
            b = -b
            s = {"<=": ">=", ">=": "<=", "==": "=="}[s]
        work.append((coeffs, s, b))

    nslack = sum(1 for _, s, _ in work if s != "==")
    art_base = nvars + nslack
    nart = sum(1 for _, s, _ in work if s != "<=")
    total = art_base + nart
    tab, basis = [], []
    si, ai = nvars, art_base
    for coeffs, s, b in work:
        row = coeffs + [0] * (total - nvars) + [b]
        if s != "==":
            row[si] = 1 if s == "<=" else -1
            si += 1
        if s == "<=":
            basis.append(si - 1)
        else:
            row[ai] = 1
            basis.append(ai)
            ai += 1
        tab.append(row)

    if nart:
        cost = _fraction_reduced_costs(tab, basis, [0] * art_base + [1] * nart)
        if _fraction_simplex(tab, cost, basis, log) != "optimal":
            raise CertificateError("phase 1 came back unbounded")
        if cost[-1] != 0:
            return LPResult("infeasible", None, None)
        keep = []
        for r in range(len(tab)):
            if basis[r] < art_base:
                keep.append(r)
                continue
            pcol = next((j for j in range(art_base) if tab[r][j] != 0), None)
            if pcol is None:
                continue
            _fraction_pivot_logged(tab, cost, basis, r, pcol, log)
            keep.append(r)
        tab = [tab[r][:art_base] + [tab[r][-1]] for r in keep]
        basis = [basis[r] for r in keep]
    else:
        tab = [row[:art_base] + [row[-1]] for row in tab]

    cost = _fraction_reduced_costs(tab, basis, obj + [0] * nslack)
    if _fraction_simplex(tab, cost, basis, log) == "unbounded":
        return LPResult("unbounded", None, None)
    x = [Fraction(0)] * nvars
    for r, b in enumerate(basis):
        if b < nvars:
            x[b] = Fraction(tab[r][-1])
    value = sum((o * v for o, v in zip(obj, x)), Fraction(0))
    return LPResult("optimal", value, tuple(x))


def recording(log, implicit=None):
    """A stand-in for `lp._pivot` that pivots and then appends (prow, the
    entering variable, tableau rows then the cost row, every entry divided
    by the new common denominator) to log. In phase 1 the rows and the cost
    row are rebuilt in the layout of `fraction_solve_lp`, one column per
    artificial: a row's artificial is its negated surplus column, with
    reduced cost d minus the surplus's. With a list `implicit`, appends each
    artificial that enters."""
    from circover import lp

    pivot = lp._pivot

    def record(tab, cost, basis, prow, enter, d, arts):
        if implicit is not None and enter in arts:
            implicit.append(enter)
        d = pivot(tab, cost, basis, prow, enter, d, arts)
        base = next(iter(arts), len(cost) - 1)  # the first artificial label
        rows = [[*row[:base], *(-row[j] for j in arts.values()), row[-1]] for row in tab]
        costs = [*cost[:base], *(d - cost[j] for j in arts.values()), cost[-1]]
        log.append((prow, enter, [[Fraction(v, d) for v in row] for row in [*rows, costs]]))
        return d
    return record


def _slice_system(matrix, demands, beta):
    """Reference encoding of a slice LP: one >= row over the prefix sums
    y_1..y_{n-1} per stacked row (the matrix rows, then one unit row per
    column), read off the row supports, with y_0 = 0 and y_n = beta on the
    right-hand side. The lexmin LP of `optimize` must have these rows."""
    n = matrix.n
    stacked = [(matrix.support(i), demands[i - 1]) for i in range(1, matrix.m + 1)]
    stacked += [(frozenset([j]), 0) for j in range(1, n + 1)]
    rows = [[int(j in sup) - int(j + 1 in sup) for j in range(1, n)] for sup, _ in stacked]
    rhs = [d - beta * int(n in sup) for sup, d in stacked]
    return rows, rhs


# integral lexmin vertices y_1..y_4 of the pentagon at its optimal sum 3:
# x = (2, -1, 1, 0, 1) breaks the column arc 1 -> 2, and x = (0, 0, 1, 1, 1)
# leaves row 1 = {1, 2} uncovered, so it breaks that row's arc 0 -> 2
BROKEN_VERTICES = {
    "column arc": ((2, 1, 2, 2), "slice potential [0, 2, 1, 2, 2, 3] violates arc 1 -> 2"),
    "row arc": ((0, 0, 1, 2), "slice potential [0, 0, 0, 1, 2, 3] violates arc 0 -> 2"),
}


def cold_flow(matrix, c):
    """The start flow of `optimize`'s first probe: c_j on column arc j,
    nothing on the row arcs and the two pins."""
    return list(c) + [0] * (matrix.m + 2)


def lp_solve_slice(matrix, demands, c, beta):
    """Reference of `optimize.solve_slice` on the same arguments but the
    start: the certified integral vertex of the slice LP of `_slice_system`,
    from `solve_lp`, with its value c . x, or None when the slice is
    empty."""
    from circover import solve_lp
    from circover.optimize import SliceSolution, _slice_graph, _slice_point

    rows, rhs = _slice_system(matrix, demands, beta)
    objective = [c[j] - c[j + 1] for j in range(matrix.n - 1)]
    res = solve_lp(objective, rows, rhs)
    if res.status == "infeasible":
        return None
    if res.status != "optimal":
        raise AssertionError(f"the slice LP at sum {beta} came back {res.status}")
    xi = _slice_point(_slice_graph(matrix, demands, beta), [0, *res.point, beta], beta)
    return SliceSolution(beta, sum(cv * v for cv, v in zip(c, xi)), xi)


def cold_optimize(matrix, demands, weights):
    """Reference of `optimize` with cold probes: the same two bisections,
    but every probe is a `solve_slice` from `cold_flow`, so each cancels
    cycles from w_j on column arc j; then the same lexmin LP."""
    from bisect import bisect_left

    from circover import OptimizationResult
    from circover.matrices import check_demands, check_weights
    from circover.optimize import _lexmin_vertex, solve_slice
    from circover.rationals import scaled_to_integers

    demands = check_demands(matrix, demands)
    scale, c = scaled_to_integers(check_weights(matrix, weights))
    top = matrix.n * max(demands, default=0)
    probed = {}

    def g(beta):
        if beta not in probed:
            probed[beta] = solve_slice(matrix, demands, c, beta, cold_flow(matrix, c))
        return probed[beta]

    tau = bisect_left(range(top), True, key=lambda b: g(b) is not None)
    beta = bisect_left(range(top), True, tau, key=lambda b: g(b + 1).value >= g(b).value)
    value = Fraction(g(beta).value, scale)
    n, base = matrix.n, beta + 1
    costs = [cv * base**n + base ** (n - 1 - j) for j, cv in enumerate(c)]
    point = _lexmin_vertex(matrix, demands, costs, beta)
    slices = tuple((b, Fraction(s.value, scale) if s else None) for b, s in sorted(probed.items()))
    return OptimizationResult(value, point, beta, slices)


# ---------------------------------------------------------------------------
# library-only builders and brute-force references: no verb calls them


def check_validity(inequality, covers) -> bool:
    """Does every cover satisfy the inequality? (coefficients must be >= 0)
    Each a.c is its own sum here, so that `dense_check_facet` shares no
    cover-value pass with `oracle.check_facet`, the code it checks."""
    coeffs = inequality.coeffs
    if any(c < 0 for c in coeffs):
        raise BadParameters(f"negative coefficient in {coeffs}")
    return all(sum(c * v for c, v in zip(coeffs, cover)) >= inequality.rhs for cover in covers)


def membership(point, covers) -> bool:
    """Is the point in conv(covers) + R^n_+? Phase-1 LP, exact."""
    from circover import BadParameters, solve_lp
    from circover.rationals import parse_rational_vector

    if not covers:
        return False
    x = parse_rational_vector(point)
    if len(x) != len(covers[0]):
        raise BadParameters(f"{len(x)} entries for covers of {len(covers[0])} columns")
    # sum lambda = 1 as a pair of >= rows, cover_j . lambda <= x_j negated
    rows = [[1] * len(covers), [-1] * len(covers)]
    rows += [[-v for v in column] for column in zip(*covers)]
    res = solve_lp([0] * len(covers), rows, [1, -1, *[-v for v in x]])
    return res.status == "optimal"


def two_valued_inequality(matrix: CircularMatrix, path, alpha: int) -> LinearInequality | None:
    """Reference closed form of `circuit_inequality` at demand alpha per row
    on a reverse-row-free circuit of winding p with s forward row arcs:
    r+1 on crosses, r elsewhere, right-hand side r*ceil(alpha*s/p), with
    r = alpha*s mod p. None when p < 2 or r = 0 (never a facet)."""
    from circover import classify_nodes, cover_number

    crosses = classify_nodes(path, matrix.n).crosses
    p = path.winding
    s = len(path.row_indices(forward=True))
    r = alpha * s % p if p >= 2 else 0
    if r == 0:
        return None
    coeffs = [r + 1 if j in crosses else r for j in range(1, matrix.n + 1)]
    return LinearInequality(tuple(coeffs), r * cover_number(alpha * s, p), "circuit")


class NotCirculantMinor(CircoverError):
    """The claimed column set does not leave a circulant minor."""


def minor_inequalities(matrix: CircularMatrix, removed, mode: str = "plain") -> LinearInequality:
    """Inequality attached to a circulant minor of a circulant matrix.

    removed may be a MinorWitness or an iterable of columns. Doubled
    coefficients go to the removed columns whose predecessor at distance
    window+1 was removed too. mode "plain": 2/1 coefficients, right-hand
    side ceil(order/window), facet condition order mod window == 1. mode
    "rfi": r+1 / r with r = order - window*floor(order/window) and
    right-hand side r*ceil(order/window).
    """
    # circulant_isomorphic is read from circover.inequalities at call time,
    # so a test that patches it there reaches this check too
    from circover import BadParameters, CertificateError, MinorWitness
    from circover.inequalities import circulant_isomorphic
    from circover.matrices import cover_number, norm_col

    k = matrix.circulant_window()
    if k is None:
        raise NotCirculantMinor("the parent matrix is not a circulant")
    if isinstance(removed, MinorWitness):
        removed = removed.removed_columns
    removed_set = set()
    for j in removed:
        if not 1 <= j <= matrix.n:
            raise BadParameters(f"column {j} outside 1..{matrix.n}")
        removed_set.add(j)
    match = circulant_isomorphic(matrix, removed_set)
    if match is None:
        raise NotCirculantMinor(f"deleting {sorted(removed_set)} leaves no circulant")
    nprime, kprime = match
    if nprime != matrix.n - len(removed_set):
        raise CertificateError(
            f"deleting {len(removed_set)} of {matrix.n} columns left a circulant "
            f"of order {nprime}"
        )
    doubled = {
        j for j in removed_set if norm_col(j - (k + 1), matrix.n) in removed_set
    }
    lower = cover_number(nprime, kprime)
    r = nprime - kprime * (nprime // kprime)
    witness = {
        "removed": sorted(removed_set),
        "order": nprime,
        "window": kprime,
        "doubled": sorted(doubled),
        "remainder": r,
    }
    if mode == "plain":
        coeffs = [2 if j in doubled else 1 for j in range(1, matrix.n + 1)]
        witness["facet_condition"] = (r == 1)
        return LinearInequality(tuple(coeffs), lower, "minor", witness)
    if mode == "rfi":
        coeffs = [r + 1 if j in doubled else r for j in range(1, matrix.n + 1)]
        witness["redundant"] = (r == 0)
        return LinearInequality(tuple(coeffs), r * lower, "minor-rfi", witness)
    raise BadParameters(f"unknown mode {mode!r}")


@dataclass(frozen=True)
class RowFamilyResult:
    inequality: LinearInequality
    valid: bool | None    # True / False per condition check, None if unchecked


def _family_multiplicities(matrix: CircularMatrix, rows) -> tuple[list[int], list[int]]:
    """The family's distinct rows, sorted, and per column j (index j, 1..n)
    the number of its rows that meet j.

    BadParameters for a row outside 1..m or a family of fewer than two rows.
    """
    from circover import BadParameters

    family = sorted(set(rows))
    for i in family:
        if not 1 <= i <= matrix.m:
            raise BadParameters(f"row {i} outside 1..{matrix.m}")
    if len(family) < 2:
        raise BadParameters("a row family needs at least two rows")
    colsum = [0] * (matrix.n + 1)
    for i in family:
        for j in matrix.support(i):
            colsum[j] += 1
    return family, colsum


def default_family_winding(matrix: CircularMatrix, rows) -> int:
    """The always-valid parameter: max column multiplicity of the family, minus 1.

    BadParameters for a row outside 1..m or a family of fewer than two rows.
    """
    _, colsum = _family_multiplicities(matrix, rows)
    return max(colsum[1:]) - 1


def row_family_inequality(
    matrix: CircularMatrix, rows, p: int | None = None, covers=None
) -> RowFamilyResult:
    """Row family inequality of a family F and parameter p.

    Columns met by at most p rows of F get coefficient r, columns met by
    exactly p+1 get r+1, heavier columns get 0, with r = s - p*floor(s/p)
    and right-hand side r*ceil(s/p), s = |F|.

    p defaults to the always-valid choice (max column multiplicity - 1).
    Validity: checked against `covers` when given (the sufficient counting
    condition, reported as the result's `valid`); trusted (True) at the
    default p; otherwise None. BadParameters when p is out of range or s is
    a multiple of a non-default p; at the default p with p | s the r = 0
    degenerate inequality is returned flagged redundant.
    """
    from circover import BadParameters
    from circover.matrices import cover_number

    family, colsum = _family_multiplicities(matrix, rows)
    s = len(family)
    pstar = max(colsum[1:]) - 1
    if p is None:
        p = pstar
    if not 1 <= p <= s - 1:
        raise BadParameters(f"parameter {p} outside [1, {s - 1}]")
    if s % p == 0 and p != pstar:
        raise BadParameters(f"{p} divides the family size {s}")
    r = s - p * (s // p)
    inner = [j for j in range(1, matrix.n + 1) if colsum[j] <= p]
    outer = [j for j in range(1, matrix.n + 1) if colsum[j] == p + 1]
    coeffs = [0] * matrix.n
    for j in inner:
        coeffs[j - 1] = r
    for j in outer:
        coeffs[j - 1] = r + 1
    witness = {
        "rows": family,
        "winding": p,
        "remainder": r,
        "inner": inner,
        "outer": outer,
        "redundant": r == 0,
    }
    ineq = LinearInequality(tuple(coeffs), r * cover_number(s, p), "rfi", witness)
    if covers is not None:
        inner_set = set(inner)
        outer_set = set(outer)
        valid = True
        for cover in covers:
            chosen = {j for j in range(1, matrix.n + 1) if cover[j - 1] > 0}
            if p * len(chosen & inner_set) + (p + 1) * len(chosen & outer_set) < s:
                valid = False
                break
    elif p == pstar:
        valid = True
    else:
        valid = None
    return RowFamilyResult(ineq, valid)
