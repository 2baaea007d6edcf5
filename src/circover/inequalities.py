"""Valid inequalities for integer covering over circular matrices.

Closed paths of the auxiliary digraph with positive winding induce valid
inequalities for the integer hull. For a closed path with winding p > 0,
net demand t (forward row demands minus reverse row demands), quotient
beta = floor(t/p) and remainder r = t - beta*p, the inequality reads

    sum_j (reverse_jumps(j) + r) * x_j  >=  r*(beta+1) + reverse_row_demand.

With homogeneous demands alpha per row the reverse-row-free digraph
suffices, and there `circuit_inequality` takes two values. A circuit with
s forward row arcs and no reverse row arc has t = alpha*s, and its only
reverse arcs are the backward short arcs of its crosses, so the
coefficients are r+1 on crosses and r elsewhere, with right-hand side
r*(floor(alpha*s/p) + 1) = r*ceil(alpha*s/p) when r > 0.
`enumerate_facet_candidates` takes any demand vector: one level alpha >= 1
on a matrix without dominating rows gets that two-valued family, every
other instance the circuit inequalities of the full digraph.

The block structure of a circuit (runs of circles or crosses hanging off
each essential plain node) certifies a circulant minor of order s and window
p; rows too short to jump p essential plain nodes ("bad rows") are exactly
what can spoil the minor being the full contraction.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from fractions import Fraction
from itertools import combinations
from math import gcd

from .digraph import (
    FORWARD_ROW,
    FORWARD_SHORT,
    REVERSE_ROW,
    REVERSE_SHORT,
    ClosedPath,
    build_digraph,
    enumerate_circuits,
)
from .errors import BadParameters, CertificateError
from .matrices import (
    CircularMatrix,
    check_demands,
    check_positive_int,
    circulant_isomorphic,
    cover_number,
    norm_col,
)
from .optimize import optimize
from .rationals import parse_rational_vector


@dataclass(frozen=True)
class LinearInequality:
    """coeffs . x >= rhs with non-negative int coefficients, stored as given
    (outside input goes through `make_inequality`, which checks and normalizes).

    Circuit inequalities keep their coefficients, common factors included,
    for the slack-equals-cost certificate: normalize one before comparing it
    against a facet list. Every other inequality built here is primitive. A
    witness holds JSON values only (ints, bools, strings, lists and dicts),
    so `inequality_json` writes it out as built.
    """

    coeffs: tuple[int, ...]
    rhs: int
    kind: str
    witness: object = field(default=None, compare=False, repr=False)

    def evaluate(self, x) -> Fraction:
        """Slack of the inequality at x (negative means violated)."""
        x = parse_rational_vector(x)
        if len(x) != len(self.coeffs):
            raise BadParameters(f"{len(x)} coordinates for {len(self.coeffs)} coefficients")
        return sum((c * v for c, v in zip(self.coeffs, x)), Fraction(0)) - self.rhs

    def key(self) -> tuple:
        return (self.coeffs, self.rhs)

    def normalized(self) -> "LinearInequality":
        """The same halfspace with the coefficient gcd divided out."""
        g = gcd(*self.coeffs, self.rhs)
        if g <= 1:
            return self
        return replace(self, coeffs=tuple([c // g for c in self.coeffs]), rhs=self.rhs // g)


def make_inequality(coeffs, rhs, kind, witness=None) -> LinearInequality:
    """Checked constructor for outside input: ints or integral Fractions, gcd divided out."""
    if not isinstance(coeffs, (list, tuple)):
        raise BadParameters(f"coeffs must be a list, got {type(coeffs).__name__}")
    out = tuple([_integer(c, "coefficient") for c in coeffs])
    return LinearInequality(out, _integer(rhs, "right-hand side"), kind, witness).normalized()


def _integer(value, what: str) -> int:
    """An int, or an integral Fraction as its int; BadParameters otherwise."""
    if isinstance(value, Fraction) and value.denominator != 1:
        raise BadParameters(f"non-integer {what} {value}")
    if isinstance(value, bool) or not isinstance(value, (int, Fraction)):
        raise BadParameters(f"{what} must be an int or an integral Fraction, got {value!r}")
    return int(value)


def nonnegativity(n: int) -> list[LinearInequality]:
    """x_j >= 0 for each of n columns; BadParameters unless n is an int >= 1."""
    check_positive_int(n, "n")
    return [LinearInequality(tuple([int(t == j) for t in range(n)]), 0, "nonneg") for j in range(n)]


def row_inequalities(matrix: CircularMatrix, demands) -> list[LinearInequality]:
    """One inequality per row: its support summed to at least its demand."""
    return [LinearInequality(matrix.row_vector(i), b, "boolean", {"row": i})
            for i, b in enumerate(check_demands(matrix, demands), 1)]


# ---------------------------------------------------------------------------
# circuit inequalities


def circuit_inequality(matrix: CircularMatrix, demands, path: ClosedPath) -> LinearInequality:
    """The inequality induced by a closed path with positive winding."""
    demands = check_demands(matrix, demands)
    if not isinstance(path, ClosedPath):
        raise BadParameters(f"path must be a ClosedPath, got {type(path).__name__}")
    p = path.winding
    if p <= 0:
        raise BadParameters(f"winding {p}, need >= 1")
    t_plus = sum(demands[a.index - 1] for a in path.arcs if a.kind == FORWARD_ROW)
    t_minus = sum(demands[a.index - 1] for a in path.arcs if a.kind == REVERSE_ROW)
    t = t_plus - t_minus
    beta = t // p
    r = t - beta * p
    coeffs = [r] * matrix.n
    for a in path.arcs:
        mask = 0 if a.is_forward else a.jump_mask
        while mask:  # one step per column the reverse arc jumps
            coeffs[(mask & -mask).bit_length() - 1] += 1
            mask &= mask - 1
    rhs = r * (beta + 1) + t_minus
    witness = {
        "winding": p,
        "net_demand": t,
        "quotient": beta,
        "remainder": r,
        "redundant": r == 0,
        "circuit": path.descriptor(),
    }
    return LinearInequality(tuple(coeffs), rhs, "circuit", witness)


@dataclass(frozen=True)
class NodeClasses:
    """Column classes of a reverse-row-free closed path."""

    circles: frozenset[int]   # j with the forward short arc (j-1, j) on the path
    crosses: frozenset[int]   # j with the backward short arc (j, j-1) on the path
    bullets: frozenset[int]   # everything else
    essential: frozenset[int]  # bullets that are nodes of the path


def classify_nodes(path: ClosedPath, n: int) -> NodeClasses:
    circles = set()
    crosses = set()
    for a in path.arcs:
        if a.kind == REVERSE_ROW:
            raise BadParameters("node classes need a reverse-row-free path")
        if a.kind == FORWARD_SHORT:
            circles.add(a.index)
        elif a.kind == REVERSE_SHORT:
            crosses.add(a.index)
    both = circles & crosses
    if both:
        # on a circuit only the winding-0 two-cycle of one column mixes them
        raise BadParameters(f"column {min(both)} is both a circle and a cross "
                            f"on a path of winding {path.winding}")
    bullets = frozenset(range(1, n + 1)) - circles - crosses
    return NodeClasses(frozenset(circles), frozenset(crosses), bullets, bullets & path.nodes)


# ---------------------------------------------------------------------------
# block structure, bad rows, minors


@dataclass(frozen=True)
class Block:
    start: int                 # the essential plain node owning the block
    end: int                   # last node of the attached run (start if none)
    kind: str                  # "circle" | "cross" | "plain"
    entry: int                 # where a row arc of the circuit enters
    exit: int                  # where a row arc of the circuit leaves
    members: tuple[int, ...]


@dataclass(frozen=True)
class BlockStructure:
    blocks: tuple[Block, ...]
    winding: int
    essential: tuple[int, ...]


def block_decomposition(matrix: CircularMatrix, path: ClosedPath) -> BlockStructure:
    """Split the circuit's nodes into blocks anchored at essential plain nodes.

    Verifies on the way (for a circuit with winding p and s essential plain
    nodes): the circuit has exactly s row arcs, each jumping exactly p
    essential plain nodes, gcd(s, p) = 1, blocks partition the node set, and
    the row arcs connect each block's exit to the entry of the block p
    places further. A failed check raises CertificateError.
    """
    if matrix.dominating_rows():
        raise BadParameters("block structure needs a matrix without dominating rows")
    n = matrix.n
    p = path.winding
    if p < 1:
        raise BadParameters(f"winding {p} < 1")
    classes = classify_nodes(path, n)
    ess = sorted(classes.essential)
    if not ess:
        raise BadParameters("the circuit has no essential plain node")
    s = len(ess)

    blocks = []
    for b in ess:
        # the run after b, if any: a circle run enters at b, a cross run leaves there
        circle = norm_col(b + 1, n) in classes.circles
        run = classes.circles if circle else classes.crosses
        members = [b]
        while norm_col(members[-1] + 1, n) in run:
            members.append(norm_col(members[-1] + 1, n))
        v = members[-1]
        kind = "plain" if v == b else "circle" if circle else "cross"
        entry, exit_ = (v, b) if kind == "cross" else (b, v)
        blocks.append(Block(b, v, kind, entry, exit_, tuple(members)))

    seen: set[int] = set()
    for blk in blocks:
        overlap = seen.intersection(blk.members)
        if overlap:
            raise CertificateError(f"blocks overlap at column {min(overlap)}")
        seen.update(blk.members)
    if seen != path.nodes:
        raise CertificateError(
            f"blocks cover columns {sorted(seen)}, the circuit visits {sorted(path.nodes)}")

    row_arcs = [a for a in path.arcs if a.kind == FORWARD_ROW]
    if len(row_arcs) != s:
        raise CertificateError(
            f"{len(row_arcs)} row arcs for {s} essential plain nodes")
    if gcd(s, p) != 1:
        raise CertificateError(
            f"{s} essential plain nodes and winding {p} are not coprime")
    expected = {
        (blocks[i].exit, blocks[(i + p) % s].entry) for i in range(s)
    }
    if {(a.tail, a.head) for a in row_arcs} != expected:
        raise CertificateError(
            f"the row arcs do not join each block's exit to the entry "
            f"of the block {p} places further")
    ess_mask = sum([1 << (j - 1) for j in ess])
    for a in row_arcs:
        cnt = (a.jump_mask & ess_mask).bit_count()
        if cnt != p:
            raise CertificateError(
                f"row arc {a.index} jumps {cnt} essential plain nodes at winding {p}")
    return BlockStructure(tuple(blocks), p, tuple(ess))


def bad_arcs(
    matrix: CircularMatrix, path: ClosedPath, blocks: BlockStructure | None = None
) -> tuple[int, ...]:
    """Rows jumping fewer than winding-many essential plain nodes.

    Every row jumps p-1, p, or p+1 of them; the p-1 ones (the bad rows) are
    exactly the rows whose arc starts inside a circle block and ends on a
    circle or off the circuit. Both facts are checked, and CertificateError
    is raised when either fails.
    """
    if blocks is None:
        blocks = block_decomposition(matrix, path)
    p = blocks.winding
    ess = set(blocks.essential)
    classes = classify_nodes(path, matrix.n)
    circle_nodes = {j for blk in blocks.blocks if blk.kind == "circle" for j in blk.members}
    nodes = path.nodes
    n = matrix.n
    bad = []
    for i in range(1, matrix.m + 1):
        start, length = matrix.rows[i - 1]
        tail = norm_col(start - 1, n)
        head = norm_col(start + length - 1, n)
        cnt = len(matrix.support(i) & ess)
        if not p - 1 <= cnt <= p + 1:
            raise CertificateError(f"row {i} jumps {cnt} essential nodes at winding {p}")
        expect_bad = tail in circle_nodes and (
            head in classes.circles or head not in nodes
        )
        if (cnt == p - 1) != expect_bad:
            raise CertificateError(f"bad-row criterion failed on row {i}")
        if cnt == p - 1:
            bad.append(i)
    return tuple(bad)


@dataclass(frozen=True)
class MinorWitness:
    """A certified circulant minor: delete removed_columns, get (order, window)."""

    removed_columns: tuple[int, ...]
    order: int
    window: int
    rows: tuple[int, ...]   # parent rows involved (circuit rows), may be empty
    exact: bool             # True when the contraction is the minor on the nose


def extract_minor(matrix: CircularMatrix, path: ClosedPath) -> MinorWitness:
    """Read the circulant minor certified by a circuit (winding >= 2).

    The circuit's s rows restricted to its s essential plain nodes always
    form the circulant (s, p), one row per window; the witness is exact when
    no bad row exists, and then the minor of the whole matrix is that
    circulant too. Either match failing raises CertificateError.
    """
    blocks = block_decomposition(matrix, path)
    p = blocks.winding
    if p < 2:
        raise BadParameters(f"winding {p} < 2 certifies no proper circulant minor")
    ess = blocks.essential
    ess_set = set(ess)
    s = len(ess)
    rows = tuple(sorted(path.row_indices(forward=True)))
    removed = tuple([j for j in range(1, matrix.n + 1) if j not in ess_set])
    # s rows whose restrictions include all s windows give one row per window
    if len(rows) != s or circulant_isomorphic(
        CircularMatrix(matrix.n, tuple([matrix.rows[i - 1] for i in rows])), removed
    ) != (s, p):
        raise CertificateError(
            f"the circuit's rows on its {s} essential columns are not the "
            f"circulant ({s}, {p})"
        )
    bad = bad_arcs(matrix, path, blocks)
    exact = not bad
    if exact and circulant_isomorphic(matrix, removed) != (s, p):
        raise CertificateError(
            f"deleting columns {list(removed)} does not leave the circulant "
            f"({s}, {p}) the circuit promises"
        )
    return MinorWitness(removed, s, p, rows, exact)


# ---------------------------------------------------------------------------
# circulant minors by direct search


@dataclass(frozen=True)
class MinorEnumeration:
    witnesses: tuple[MinorWitness, ...]
    complete: bool


def _rotation_sets(n: int, k: int, m: int, r: int) -> list[tuple[int, ...]]:
    """The m-sets of columns 1..n whose every r-th gap is k or k+1, in lex order.

    With the sorted nodes s_0 < ... < s_{m-1} lifted to L(t + m) = L(t) + n,
    a set qualifies when k <= L(t + r) - L(t) <= k + 1 for every t. So
    s_1..s_{r-1} lie within k of s_0, and each later s_t is s_{t-r} + k or
    s_{t-r} + k + 1. The a = (m - 1 - t) // r further steps from t land on
    L(u + m) = s_u + n with u = t + (a + 1)r - m < r, which bounds s_t to
    s_u + n - (a + 1)(k + 1) .. s_u + n - (a + 1)k. Once the first r nodes
    are placed every node is tried only inside its range; for the last r
    nodes (a = 0) that range is the wrap-around gap itself.
    """
    ranges = []
    for t in range(m):
        a = (m - 1 - t) // r
        ranges.append((t + (a + 1) * r - m, n - (a + 1) * (k + 1), n - (a + 1) * k))
    sets = []
    for first in range(1, n + 1):
        for rest in combinations(range(first + 1, min(first + k, n) + 1), r - 1):
            head = (first, *rest)
            if all(
                head[u] + lo <= head[t] <= head[u] + hi
                for t, (u, lo, hi) in enumerate(ranges[:r])
            ):
                sets.append(head)
    # each level extends its sets in order, by increasing values: lex order holds
    for t in range(r, m):
        u, lo, hi = ranges[t]
        sets = [
            s + (v,)
            for s in sets
            for v in range(
                max(s[-1] + 1, s[t - r] + k, s[u] + lo),
                min(n, s[t - r] + k + 1, s[u] + hi) + 1,
            )
        ]
    return sets


def enumerate_circulant_minors(
    matrix: CircularMatrix, *, max_count: int | None = None
) -> MinorEnumeration:
    """Column sets whose deletion leaves a circulant minor (window >= 2).

    On a circulant (n, k) the list is every such set, generated directly
    (see below). Any other matrix, which must have no dominating rows
    (BadParameters otherwise), gets the minors its restricted circuits of
    winding >= 2 certify through `extract_minor` (`_circuit_minors`).

    A set qualifies when its nodes split into disjoint circuits of the step
    digraph (arcs i to i+k and i+k+1, mod n) sharing one (short, long)
    profile, the classical characterization of circulant minors. Such a
    bijection of the sorted nodes, lifted to L(t + m) = L(t) + n, keeps
    their cyclic order, so it is the shift by r places for one r: every
    r-th gap L(t + r) - L(t) is k or k+1. The cover then has d = gcd(r, m)
    circuits of winding q = r/d, and the minor is the circulant
    (n - m, k - d*q) = (n - m, k - r). So only r <= k - 2 counts, and as
    the m r-th gaps add up to r*n, only m*k <= r*n <= m*(k+1).

    The sets are generated rather than searched: for each size m and each
    such r, `_rotation_sets` places the least node, the next r - 1 nodes
    within k of it, every later node k or k+1 past the node r places back,
    and closes with the wrap-around gaps. Output order: by size, then
    lexicographic in the sorted removed columns; max_count cuts that list.
    Every witness is certified by `circulant_isomorphic` on `matrix`: the
    columns' deletion must leave the promised circulant, and a mismatch
    raises CertificateError.

    A max_count that is not an int of at least 1 raises BadParameters.
    """
    if max_count is not None:
        check_positive_int(max_count, "max_count")
    k = matrix.circulant_window()
    if k is None:
        return _circuit_minors(matrix, max_count)
    n = matrix.n
    witnesses = []
    for size in range(1, n - 2):
        found = []
        for r in range(1, k - 1):
            if size * k <= r * n <= size * (k + 1):
                found.extend((nodes, k - r) for nodes in _rotation_sets(n, k, size, r))
        found.sort()
        for nodes, window in found:
            if circulant_isomorphic(matrix, nodes) != (n - size, window):
                raise CertificateError(
                    f"deleting columns {list(nodes)} does not leave the circulant "
                    f"({n - size}, {window}) its step cover promises"
                )
            witnesses.append(MinorWitness(nodes, n - size, window, (), True))
            if max_count is not None and len(witnesses) >= max_count:
                return MinorEnumeration(tuple(witnesses), False)
    return MinorEnumeration(tuple(witnesses), True)


def _circuit_minors(matrix: CircularMatrix, max_count: int | None) -> MinorEnumeration:
    """The minors certified by the restricted circuits of winding >= 2.

    Each such circuit has an essential plain node, so `extract_minor`
    takes every one. Winding >= 2 needs a row arc. Its head is a bullet
    unless a reverse short leaves it, and the next row arc's tail is one
    unless a forward short enters it; the short arcs between the two run
    one way on a simple circuit, so one of these nodes is a bullet.

    Each removed set is listed once, by size and then by its columns, with
    an exact witness when some circuit gives one. max_count caps the
    circuits, and the enumeration is complete when the cap was not hit.
    """
    if matrix.dominating_rows():
        raise BadParameters("minors need a matrix without dominating rows")
    enum = enumerate_circuits(
        build_digraph(matrix, restricted=True), min_winding=2, max_count=max_count
    )
    seen: dict[tuple[int, ...], MinorWitness] = {}
    for path in enum.circuits:
        w = extract_minor(matrix, path)
        prev = seen.get(w.removed_columns)
        if prev is None or (w.exact and not prev.exact):
            seen[w.removed_columns] = w
    witnesses = sorted(
        seen.values(), key=lambda w: (len(w.removed_columns), w.removed_columns)
    )
    return MinorEnumeration(tuple(witnesses), enum.complete)


# ---------------------------------------------------------------------------
# facet candidates


@dataclass(frozen=True)
class CandidateEnumeration:
    inequalities: tuple[LinearInequality, ...]
    complete: bool
    circuits_seen: int


def _candidates(matrix, demands, tau, enum, rule) -> CandidateEnumeration:
    """Non-negativity, the rows, the full-support inequality at tau, then
    rule(path) for every enumerated circuit (None drops it); the first
    inequality of each (coeffs, rhs) key stays."""
    cands = [
        *nonnegativity(matrix.n),
        *row_inequalities(matrix, demands),
        LinearInequality((1,) * matrix.n, tau, "rank"),
    ]
    for path in enum.circuits:
        ineq = rule(path)
        if ineq is not None:
            cands.append(ineq)
    out = {}
    for q in cands:
        out.setdefault(q.key(), q)
    return CandidateEnumeration(tuple(out.values()), enum.complete, len(enum.circuits))


def enumerate_facet_candidates(
    matrix: CircularMatrix, demands, *, max_circuits: int | None = None
) -> CandidateEnumeration:
    """Candidate facet list of the covering polyhedron for any demand vector.

    Non-negativity and row inequalities, the full-support inequality at the
    exact cover number, and circuit inequalities. When every row demands
    the same alpha >= 1 and no row dominates another, the circuits come
    from the reverse-row-free digraph, where `circuit_inequality` is
    two-valued: on circulants, circuits without forward short arcs; on
    general matrices, bad-row-free circuits for alpha = 1 and all circuits
    for alpha >= 2. Cross-free circuits only reproduce (scaled, weaker)
    full-support inequalities, so they are dropped in favor of the exact
    one, and so are redundant ones (remainder 0). Every other demand vector
    or matrix gets `enumerate_candidates_general`.
    """
    demands = check_demands(matrix, demands)
    if max_circuits is not None:
        check_positive_int(max_circuits, "max_circuits")
    alpha = min(demands, default=0)
    if alpha < 1 or demands.count(alpha) != matrix.m or matrix.dominating_rows():
        return enumerate_candidates_general(matrix, demands, max_circuits=max_circuits)
    window = matrix.circulant_window()
    forbid = frozenset({FORWARD_SHORT}) if window else frozenset()
    enum = enumerate_circuits(
        build_digraph(matrix, restricted=True),
        min_winding=2, forbid_kinds=forbid, max_count=max_circuits,
    )
    tau = (cover_number(matrix.n, window) if window and alpha == 1
           else optimize(matrix, demands, (1,) * matrix.n).beta)

    def rule(path):
        if not any(a.kind == REVERSE_SHORT for a in path.arcs):
            return None
        ineq = circuit_inequality(matrix, demands, path)
        if ineq.witness["redundant"]:
            return None
        if alpha == 1 and window is None and bad_arcs(matrix, path):
            return None
        return ineq

    return _candidates(matrix, demands, tau, enum, rule)


def enumerate_candidates_general(
    matrix: CircularMatrix, demands, *, max_circuits: int | None = None
) -> CandidateEnumeration:
    """Candidates for arbitrary demands: circuits of the full digraph.

    Keeps circuits passing the facet-necessary filter (winding p >= 2,
    p not dividing the net demand t, p <= t-1) plus the polyhedron rows,
    non-negativity, and the exact full-support inequality.
    """
    demands = check_demands(matrix, demands)
    if max_circuits is not None:
        check_positive_int(max_circuits, "max_circuits")
    enum = enumerate_circuits(
        build_digraph(matrix, restricted=False), min_winding=2, max_count=max_circuits
    )
    tau = optimize(matrix, demands, (1,) * matrix.n).beta

    def rule(path):
        ineq = circuit_inequality(matrix, demands, path)
        w = ineq.witness
        if w["redundant"] or not 2 <= w["winding"] <= w["net_demand"] - 1:
            return None
        return ineq

    return _candidates(matrix, demands, tau, enum, rule)
