"""Circular 0/1 matrices and their column-deletion minors.

Conventions used everywhere in the package:

  * columns (= ground set elements, = nodes later on) are 1-based, 1..n,
    and arithmetic on them is circular: node 0 means node n;
  * a row is the incidence vector of a circular interval and is stored as a
    pair (start, length) with 1 <= start <= n and 2 <= length <= n-1, so the
    support is {start, start+1, ..., start+length-1} taken modulo n;
  * rows are 1-based in every public index (row i of an m-row matrix,
    i in 1..m).

The square matrix whose row i covers the window {i, ..., i+k-1} is called a
circulant here and identified by (order, window) = (n, k).

Column deletion plus the removal of dominated structure gives minors: after
deleting a column set the surviving structure is the set of minimal distinct
row supports (each support remembered once, together with every original row
that carried it). Keeping only minimal supports is what makes the minor a
clutter again; deleting "all rows that dominate another one" literally would
erase both copies of a duplicated support.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Sequence

from .errors import (
    BadParameters,
    BoundViolation,
    DuplicateRow,
    EmptyColumnSet,
    NegativeWeight,
    NotInterval,
)
from .rationals import parse_rational_vector


def norm_col(j: int, n: int) -> int:
    """Map any integer onto the circular column range 1..n."""
    return (j - 1) % n + 1


def cover_number(order: int, window: int) -> int:
    """Minimum cover size of the circulant (order, window): ceil(order/window)."""
    return -(-order // window)


@dataclass(frozen=True)
class CircularMatrix:
    """An m x n circular 0/1 matrix, rows stored as (start, length) pairs."""

    n: int
    rows: tuple[tuple[int, int], ...]

    @property
    def m(self) -> int:
        return len(self.rows)

    def support(self, i: int) -> frozenset[int]:
        """Column support of row i (1-based)."""
        return self.row_supports[i - 1]

    @cached_property
    def row_supports(self) -> tuple[frozenset[int], ...]:
        """Row supports as column sets, in row order, computed once per matrix."""
        n = self.n
        return tuple([
            frozenset([(start - 1 + t) % n + 1 for t in range(length)])
            for start, length in self.rows
        ])

    @cached_property
    def row_masks(self) -> tuple[int, ...]:
        """Row supports as bitmasks (bit j-1 set for column j), in row order,
        computed once per matrix."""
        n = self.n
        full = (1 << n) - 1
        out = []
        for start, length in self.rows:
            run = ((1 << length) - 1) << (start - 1)
            out.append((run | run >> n) & full)  # fold the wrap-around bits
        return tuple(out)

    def row_vector(self, i: int) -> tuple[int, ...]:
        mask = self.row_masks[i - 1]
        return tuple([mask >> j & 1 for j in range(self.n)])

    def circulant_window(self) -> int | None:
        """The window k if the rows are exactly the circulant (n, k), else None."""
        if self.m != self.n:
            return None
        lengths = {k for _, k in self.rows}
        if len(lengths) != 1:
            return None
        if sorted(start for start, _ in self.rows) != list(range(1, self.n + 1)):
            return None
        return lengths.pop()

    @cached_property
    def _dominating(self) -> tuple[int, ...]:
        masks = self.row_masks
        return tuple([
            i for i, mi in enumerate(masks, 1)
            if any(mj & mi == mj != mi for mj in masks)
        ])

    def dominating_rows(self) -> tuple[int, ...]:
        """Rows whose support strictly contains another row's support,
        computed once per matrix."""
        return self._dominating


def _check_int(value, what: str) -> None:
    """BadParameters unless value is exactly an int, so not a bool."""
    if type(value) is not int:
        raise BadParameters(f"{what} must be an integer, got {value!r}")


def circular_matrix(n: int, rows: Sequence[tuple[int, int]]) -> CircularMatrix:
    """Validated constructor.

    Raises BoundViolation for n < 3, a start outside 1..n, or a length
    outside [2, n-1]; DuplicateRow when two rows coincide; BadParameters for
    an empty row list, or an n, start or length that is not an int.
    """
    _check_int(n, "n")
    if n < 3:
        raise BoundViolation(f"need n >= 3 columns, got {n}")
    if not rows:
        raise BadParameters("a circular matrix needs at least one row")
    seen = set()
    normed = []
    for start, length in rows:
        if type(start) is not int or type(length) is not int:
            raise BadParameters(f"a row must be two integers, got {(start, length)!r}")
        if not 1 <= start <= n:
            raise BoundViolation(f"row start {start} outside 1..{n}")
        if not 2 <= length <= n - 1:
            raise BoundViolation(f"row length {length} outside [2, {n - 1}]")
        key = (start, length)
        if key in seen:
            raise DuplicateRow(f"row {key} appears twice")
        seen.add(key)
        normed.append(key)
    return CircularMatrix(n, tuple(normed))


def circulant_matrix(order: int, window: int) -> CircularMatrix:
    """The circulant (order, window); `circular_matrix` checks the bounds."""
    _check_int(order, "n")
    return circular_matrix(order, [(i, window) for i in range(1, order + 1)])


@dataclass(frozen=True)
class SupportMatrix:
    """A minor: surviving columns plus minimal distinct row supports.

    row_origins[r] lists the 1-based rows of the parent matrix whose
    restricted support equals rows[r].
    """

    columns: tuple[int, ...]
    rows: tuple[frozenset[int], ...]
    row_origins: tuple[tuple[int, ...], ...]


def contract(matrix: CircularMatrix, removed: Iterable[int]) -> SupportMatrix:
    """Delete the columns in `removed`, keep minimal distinct supports.

    removed may be empty (then only dominated/duplicated supports go away).
    Raises EmptyColumnSet if every column would be deleted, BoundViolation
    for a column outside 1..n.

    The supports are compared as bitmasks of `matrix.row_masks`; frozensets
    are built only for the minimal ones returned, listed by size and then by
    their sorted columns.
    """
    n = matrix.n
    gone = 0
    for j in removed:
        if not 1 <= j <= n:
            raise BoundViolation(f"column {j} outside 1..{n}")
        gone |= 1 << (j - 1)
    if gone == (1 << n) - 1:
        raise EmptyColumnSet("cannot delete every column")
    kept = tuple([j for j in range(1, n + 1) if not gone >> (j - 1) & 1])

    by_support: dict[int, list[int]] = {}
    for i, mask in enumerate(matrix.row_masks, 1):
        by_support.setdefault(mask & ~gone, []).append(i)

    # a strict subset has fewer columns, so in size order each support
    # need only be tested against the minimal ones of smaller size
    minimal: list[int] = []
    smaller: tuple[int, ...] = ()
    size = 0
    for sup in sorted(by_support, key=int.bit_count):
        if sup.bit_count() != size:
            size = sup.bit_count()
            smaller = tuple(minimal)
        for sub in smaller:
            if sub & sup == sub:
                break
        else:
            minimal.append(sup)
    # lists, not tuple(generator): that tuple is over-allocated, then
    # resized, and the churn raised peak RSS across many contractions
    keyed = []
    for sup in minimal:
        cols = [j for j in kept if sup >> (j - 1) & 1]
        keyed.append((len(cols), cols, sup))
    keyed.sort()
    return SupportMatrix(
        columns=kept,
        rows=tuple([frozenset(cols) for _, cols, _ in keyed]),
        row_origins=tuple([tuple(by_support[sup]) for _, _, sup in keyed]),
    )


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


def circulant_isomorphic(m: SupportMatrix) -> CirculantMatch | None:
    """Decide whether row/column permutations turn m into a circulant.

    m is a SupportMatrix, typically a contraction (`contract(matrix, ())`
    for a whole circular matrix). Returns a CirculantMatch with the
    permutation witness, or None.

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
    return CirculantMatch(s, window, tuple(order), tuple([row_of[w] for w in windows]))


def interval_row(nodes: Iterable[int], n: int, must_contain: int | None = None) -> tuple[int, int]:
    """Validate a node set as a circular interval, return (start, length).

    Raises BoundViolation for nodes outside 1..n or a size outside [2, n-1],
    NotInterval when the set is not contiguous on the cycle or misses
    `must_contain`, BadParameters for an n or a node that is not an int.
    """
    _check_int(n, "n")
    found = set()
    for j in nodes:
        _check_int(j, "a node")
        if not 1 <= j <= n:
            raise BoundViolation(f"node {j} outside 1..{n}")
        found.add(j)
    if must_contain is not None and must_contain not in found:
        raise NotInterval(f"the set must contain {must_contain}")
    if not 2 <= len(found) <= n - 1:
        raise BoundViolation(f"set of size {len(found)}, need 2..{n - 1}")
    # a proper subset of the cycle is a circular interval iff exactly one
    # member has its successor outside the set
    ends = [j for j in found if norm_col(j + 1, n) not in found]
    if len(ends) != 1:
        raise NotInterval("not a circular interval")
    starts = [j for j in found if norm_col(j - 1, n) not in found]
    return starts[0], len(found)


def neighborhood_matrix(neighborhoods: Sequence[Iterable[int]]) -> CircularMatrix:
    """Build the closed-neighborhood matrix of a circular interval layout.

    neighborhoods[v-1] must be a circular interval of 1..n containing v,
    with 2 <= size <= n-1 (NotInterval / BoundViolation otherwise). Row v of
    the result is that interval, so covering it with multiplicities solves
    domination problems on the underlying graph.
    """
    n = len(neighborhoods)
    if n < 3:
        raise BoundViolation(f"need at least 3 nodes, got {n}")
    rows = [
        interval_row(neighborhoods[v - 1], n, must_contain=v)
        for v in range(1, n + 1)
    ]
    return circular_matrix(n, rows)


def web_neighborhoods(n: int, radius: int) -> list[list[int]]:
    """Closed neighborhoods of the web graph on n nodes (distance <= radius);
    BadParameters for an n or radius that is not an int."""
    _check_int(n, "n")
    _check_int(radius, "the web radius")
    if radius < 1 or 2 * radius + 1 > n - 1:
        raise BoundViolation(f"web radius {radius} does not fit on {n} nodes")
    return [
        [norm_col(v + d, n) for d in range(-radius, radius + 1)]
        for v in range(1, n + 1)
    ]


def check_demands(matrix: CircularMatrix, demands) -> tuple[int, ...]:
    """One non-negative int demand per row (bools and Fractions are rejected)."""
    if len(demands) != matrix.m:
        raise BadParameters(f"{len(demands)} demands for {matrix.m} rows")
    for b in demands:
        if not isinstance(b, int) or isinstance(b, bool) or b < 0:
            raise BadParameters(f"demands must be non-negative ints, got {b!r}")
    return tuple(demands)


def check_weights(matrix: CircularMatrix, weights) -> tuple[Fraction, ...]:
    """One non-negative rational weight per column; floats and bools are rejected."""
    w = parse_rational_vector(weights)
    if len(w) != matrix.n:
        raise BadParameters(f"{len(w)} weights for {matrix.n} columns")
    for v in w:
        if v.numerator < 0:
            raise NegativeWeight(f"negative weight {v}")
    return w


@dataclass(frozen=True)
class Instance:
    """A covering instance: circular matrix, integer demands, rational weights.

    Construction validates and normalizes both vectors, so every Instance is valid.
    """

    matrix: CircularMatrix
    demands: tuple[int, ...]
    weights: tuple[Fraction, ...]

    def __post_init__(self):
        object.__setattr__(self, "demands", check_demands(self.matrix, self.demands))
        object.__setattr__(self, "weights", check_weights(self.matrix, self.weights))
