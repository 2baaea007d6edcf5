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
row supports, each support counted once. Keeping only minimal supports is
what makes the minor a clutter again; deleting "all rows that dominate
another one" literally would erase both copies of a duplicated support.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Sequence

from .errors import BadParameters
from .rationals import parse_rational_vector


def norm_col(j: int, n: int) -> int:
    """Map any integer onto the circular column range 1..n."""
    return (j - 1) % n + 1


def cover_number(order: int, window: int) -> int:
    """Minimum cover size of the circulant (order, window): ceil(order/window).
    BadParameters unless order is an int and window an int of at least 1."""
    check_int(order, "order")
    check_positive_int(window, "window")
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
        """Column support of row i (1-based), read off its bitmask."""
        mask = self.row_masks[i - 1]
        return frozenset([j for j in range(1, self.n + 1) if mask >> (j - 1) & 1])

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


def check_int(value, what: str) -> None:
    """BadParameters unless value is exactly an int, so not a bool."""
    if type(value) is not int:
        raise BadParameters(f"{what} must be an integer, got {value!r}")


def circular_matrix(n: int, rows: Sequence[tuple[int, int]]) -> CircularMatrix:
    """Validated constructor.

    Raises BadParameters for n < 3, a start outside 1..n, a length outside
    [2, n-1], two rows that coincide, an empty row list, a row that is not
    a pair (tuple or list), or an n, start or length that is not an int.
    """
    check_int(n, "n")
    if n < 3:
        raise BadParameters(f"need n >= 3 columns, got {n}")
    if not rows:
        raise BadParameters("a circular matrix needs at least one row")
    seen = set()
    normed = []
    for row in rows:
        if (not isinstance(row, (tuple, list)) or len(row) != 2
                or type(row[0]) is not int or type(row[1]) is not int):
            raise BadParameters(f"a row must be two integers, got {row!r}")
        start, length = row
        if not 1 <= start <= n:
            raise BadParameters(f"row start {start} outside 1..{n}")
        if not 2 <= length <= n - 1:
            raise BadParameters(f"row length {length} outside [2, {n - 1}]")
        key = (start, length)
        if key in seen:
            raise BadParameters(f"row {key} appears twice")
        seen.add(key)
        normed.append(key)
    return CircularMatrix(n, tuple(normed))


def circulant_matrix(order: int, window: int) -> CircularMatrix:
    """The circulant (order, window); `circular_matrix` checks the bounds."""
    check_int(order, "n")
    return circular_matrix(order, [(i, window) for i in range(1, order + 1)])


def circulant_isomorphic(matrix: CircularMatrix, removed: Iterable[int]) -> tuple[int, int] | None:
    """(order, window) when deleting the columns in `removed` leaves a
    circulant minor of `matrix` (its minimal distinct row supports, up to
    row and column permutations), else None.

    Deleting columns keeps the s survivors in cyclic order, and each row
    restricted to them is a cyclic interval of survivors. Let p be the least
    size of a restricted row. Every restricted row then contains a window
    of p consecutive survivors, and every restricted row of size p is one;
    so the minor is the circulant (s, p) exactly when 2 <= p <= s-1 and
    the restricted rows of size p are s distinct sets, that is all s
    windows. The check runs on the bitmasks of `matrix.row_masks`.

    removed may be empty. Raises BadParameters for a column that is not an
    int or outside 1..n, a `removed` that is not iterable, or when every
    column would be deleted.
    """
    if not isinstance(removed, Iterable):
        raise BadParameters(f"removed must be iterable, got {type(removed).__name__}")
    n = matrix.n
    gone = 0
    for j in removed:
        check_int(j, "a removed column")
        if not 1 <= j <= n:
            raise BadParameters(f"column {j} outside 1..{n}")
        gone |= 1 << (j - 1)
    if gone == (1 << n) - 1:
        raise BadParameters("cannot delete every column")
    s = n - gone.bit_count()
    sizes = [sup.bit_count() for sup in {row & ~gone for row in matrix.row_masks}]
    p = min(sizes)
    if not 2 <= p <= s - 1 or sizes.count(p) != s:
        return None
    return s, p


def interval_row(nodes: Iterable[int], n: int, must_contain: int | None = None) -> tuple[int, int]:
    """Validate a node set as a circular interval, return (start, length).

    Raises BadParameters for nodes outside 1..n, a size outside [2, n-1],
    a set that is not contiguous on the cycle or misses `must_contain`, an
    n or a node that is not an int, or nodes that are not iterable.
    """
    check_int(n, "n")
    if not isinstance(nodes, Iterable):
        raise BadParameters(f"nodes must be iterable, got {type(nodes).__name__}")
    found = set()
    for j in nodes:
        check_int(j, "a node")
        if not 1 <= j <= n:
            raise BadParameters(f"node {j} outside 1..{n}")
        found.add(j)
    if must_contain is not None and must_contain not in found:
        raise BadParameters(f"the set must contain {must_contain}")
    if not 2 <= len(found) <= n - 1:
        raise BadParameters(f"set of size {len(found)}, need 2..{n - 1}")
    # a proper subset of the cycle is a circular interval iff exactly one
    # member has its successor outside the set
    ends = [j for j in found if norm_col(j + 1, n) not in found]
    if len(ends) != 1:
        raise BadParameters("not a circular interval")
    starts = [j for j in found if norm_col(j - 1, n) not in found]
    return starts[0], len(found)


def neighborhood_rows(neighborhoods: Sequence[Iterable[int]]) -> list[tuple[int, int]]:
    """Row v of a circular interval layout: neighborhoods[v-1] as a
    circular interval of 1..n containing v, with 2 <= size <= n-1
    (BadParameters otherwise, see `interval_row`), as is a layout that is
    not a list or tuple or has fewer than 3 nodes."""
    if not isinstance(neighborhoods, (list, tuple)):
        raise BadParameters(f"neighborhoods must be a list, got {type(neighborhoods).__name__}")
    n = len(neighborhoods)
    if n < 3:
        raise BadParameters(f"need at least 3 nodes, got {n}")
    return [interval_row(neighborhoods[v - 1], n, must_contain=v) for v in range(1, n + 1)]


def neighborhood_matrix(neighborhoods: Sequence[Iterable[int]]) -> CircularMatrix:
    """The closed-neighborhood matrix of a circular interval layout: row v
    is `neighborhood_rows`' row v, so covering it with multiplicities
    solves domination problems on the underlying graph."""
    rows = neighborhood_rows(neighborhoods)
    return circular_matrix(len(rows), rows)


def web_neighborhoods(n: int, radius: int) -> list[list[int]]:
    """Closed neighborhoods of the web graph on n nodes (distance <= radius);
    BadParameters for an n or radius that is not an int."""
    check_int(n, "n")
    check_int(radius, "the web radius")
    if radius < 1 or 2 * radius + 1 > n - 1:
        raise BadParameters(f"web radius {radius} does not fit on {n} nodes")
    return [
        [norm_col(v + d, n) for d in range(-radius, radius + 1)]
        for v in range(1, n + 1)
    ]


def check_demands(matrix: CircularMatrix, demands) -> tuple[int, ...]:
    """A list or tuple of one non-negative int demand per row (bools and
    Fractions are rejected)."""
    if not isinstance(demands, (list, tuple)):
        raise BadParameters(f"demands must be a list, got {type(demands).__name__}")
    if len(demands) != matrix.m:
        raise BadParameters(f"{len(demands)} demands for {matrix.m} rows")
    for b in demands:
        if not isinstance(b, int) or isinstance(b, bool) or b < 0:
            raise BadParameters(f"demands must be non-negative ints, got {b!r}")
    return tuple(demands)


def check_positive_int(value, what: str) -> int:
    """A cap, budget or demand level: an int, not a bool, of at least 1."""
    check_int(value, what)
    if value < 1:
        raise BadParameters(f"{what} must be at least 1, got {value}")
    return value


def check_weights(matrix: CircularMatrix, weights) -> tuple[Fraction, ...]:
    """One non-negative rational weight per column; floats and bools are rejected."""
    w = parse_rational_vector(weights)
    if len(w) != matrix.n:
        raise BadParameters(f"{len(w)} weights for {matrix.n} columns")
    for v in w:
        if v.numerator < 0:
            raise BadParameters(f"negative weight {v}")
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
