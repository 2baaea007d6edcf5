"""The auxiliary node digraph of a circular matrix.

Nodes are the columns 1..n. Every row i = (start, length) contributes a
forward arc from node start-1 to node start+length-1 (both mod n): walking
it "jumps over" exactly the columns of the row's support. Every column j
contributes a forward short arc (j-1, j) jumping {j}. The full digraph also
carries the antiparallel reverse arcs (kind "reverse-row" / "reverse-short"),
which jump the same columns but count negatively toward the winding number.
The restricted digraph drops the reverse row arcs and keeps everything else.

Arc indexing matches the extended matrix stack (rows first, then one unit
row per column): a row arc with index i sits at slot i-1, a short arc for
column j at slot m+j-1. Forward and reverse arcs of the same slot are
antiparallel twins.

`AuxDigraph` holds the tails and heads of every arc as two flat int lists
built straight from the matrix rows, in the global order: the forward
arcs by slot, then the reverse arcs by slot (from slot m when
restricted), so the arc costs are the slot costs concatenated. `Arc`
objects are built on read: `arcs` builds all of them, for circuit
enumeration and the polyhedra callers, and `separation.negative_circuit`
only those of the circuit the kernel returns. A membership query builds
none.

A closed path is a chained arc sequence returning to its start; arcs may
repeat (closed walks are legal inputs to winding computations). A circuit is a
closed path visiting each node at most once. Circuit enumeration is
deterministic: each circuit is reported exactly once, anchored and starting
at its smallest node, with DFS branches explored in the fixed global arc
order (forward rows, forward shorts, reverse rows, reverse shorts, each by
index). `enumerate_circuits` builds that adjacency when it runs and walks it
in one loop with an explicit stack, so the search runs at any depth.

The package has one integer Bellman-Ford kernel, `bellman_ford`, on flat
int lists: a node bound n, the tails, the heads and the costs of the arcs.
Every node starts at distance 0 (a virtual source), and each round relaxes
the arcs in index order, updating distances in place. The kernel stops at
the first round that changes nothing and returns the distances, a
potential that proves there is no negative cycle. Otherwise the first arc
that still improves in round n triggers a walk back along the predecessor
arcs. That walk must close a cycle of the predecessor graph, whose cost is
negative; its arc indices come back in path order. Costs are plain ints.
With `early` set, the kernel also walks the whole predecessor graph after
every round that changed something and returns its first cycle at once,
usually after a few rounds instead of n (Cherkassky & Goldberg,
"Negative-cycle detection algorithms", Math. Programming 85, 1999).
Both modes read their cycle through one predecessor walk, and the
cycle's cost is summed and checked to be negative.

It has two callers. `separation.negative_circuit` runs it on this digraph
in the fixed global arc order, with n the number of columns, and returns
the circuit as `Arc`s rotated to start at its smallest node. It keeps the
round-n trigger: that circuit becomes the cut, an early cycle may be
another one, and the Fraction reference pins the circuit arc for arc.
Callers with rational costs multiply them by a common denominator first;
scaling every cost by one positive integer keeps every comparison of path
costs, so the sweep and the returned circuit are the same as over the
rational costs. `optimize` runs it with `early` on the difference graph of
a slice, nodes 0..n, to decide whether the slice is empty and to cancel
the negative cycles of its min-cost flow: any negative cycle serves there.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass
from functools import cached_property

from .errors import BadParameters, CertificateError
from .matrices import CircularMatrix, check_int, check_positive_int

FORWARD_ROW = "forward-row"
FORWARD_SHORT = "forward-short"
REVERSE_ROW = "reverse-row"
REVERSE_SHORT = "reverse-short"

ARC_KINDS = (FORWARD_ROW, FORWARD_SHORT, REVERSE_ROW, REVERSE_SHORT)


@dataclass(frozen=True)
class Arc:
    kind: str
    index: int      # row index for row arcs, column index for short arcs
    tail: int
    head: int
    length: int     # signed circular step, positive forward
    slot: int       # position in the extended row stack, 0-based
    jump_mask: int  # bit j-1 set iff the arc jumps column j

    @property
    def is_forward(self) -> bool:
        return self.length > 0

    def descriptor(self) -> dict:
        return {"kind": self.kind, "index": self.index,
                "tail": self.tail, "head": self.head}


class AuxDigraph:
    """The digraph as flat int views in the fixed global arc order: arc k
    runs from tails[k] to heads[k]. The views come straight from the matrix
    rows; `Arc` objects are built on read."""

    def __init__(self, matrix: CircularMatrix, restricted: bool):
        self.matrix = matrix
        self.restricted = restricted
        n = matrix.n
        row_tails, row_heads = map(list, matrix.row_ends)
        cols = list(range(1, n + 1))
        prev = [n] + cols[:-1]      # column j-1, with 0 read as n
        if restricted:
            self.tails = row_tails + prev + cols
            self.heads = row_heads + cols + prev
        else:
            self.tails = row_tails + prev + row_heads + cols
            self.heads = row_heads + cols + row_tails + prev

    @property
    def n(self) -> int:
        return self.matrix.n

    def _arc(self, k: int) -> Arc:
        """Arc k of the global order, read back from the flat views."""
        n, m = self.matrix.n, self.matrix.m
        forward = k < m + n
        slot = k if forward else k - n if self.restricted else k - m - n
        if slot < m:
            kind = FORWARD_ROW if forward else REVERSE_ROW
            index = slot + 1
            length = self.matrix.rows[slot][1]
            mask = self.matrix.row_masks[slot]
        else:
            kind = FORWARD_SHORT if forward else REVERSE_SHORT
            index = slot - m + 1
            length = 1
            mask = 1 << (index - 1)
        return Arc(kind, index, self.tails[k], self.heads[k],
                   length if forward else -length, slot, mask)

    @cached_property
    def arcs(self) -> tuple[Arc, ...]:
        """Every arc in the global order, built on first read."""
        return tuple([self._arc(k) for k in range(len(self.tails))])


def build_digraph(matrix: CircularMatrix, *, restricted: bool = False) -> AuxDigraph:
    return AuxDigraph(matrix, restricted)


class ClosedPath:
    """A chained closed arc sequence (arcs may repeat)."""

    def __init__(self, arcs, n: int):
        check_positive_int(n, "n")
        if not isinstance(arcs, Iterable):
            raise BadParameters(f"arcs must be a sequence of Arc objects, got {arcs!r}")
        arcs = tuple(arcs)
        if not arcs:
            raise BadParameters("empty arc sequence")
        for a in arcs:
            if not isinstance(a, Arc):
                raise BadParameters(f"arcs must be Arc objects, got {a!r}")
        for a, b in zip(arcs, arcs[1:]):
            if a.head != b.tail:
                raise BadParameters(
                    f"arc into {a.head} followed by arc out of {b.tail}"
                )
        if arcs[-1].head != arcs[0].tail:
            raise BadParameters(
                f"path ends at {arcs[-1].head} but started at {arcs[0].tail}"
            )
        self.arcs = arcs
        self.n = n
        total = sum(a.length for a in arcs)
        if total % n:
            raise BadParameters(f"arc lengths sum to {total}, not a multiple of {n}")
        self.winding = total // n

    def __len__(self):
        return len(self.arcs)

    def __eq__(self, other):
        return isinstance(other, ClosedPath) and self.arcs == other.arcs

    def __hash__(self):
        return hash(self.arcs)

    @cached_property
    def nodes(self) -> frozenset[int]:
        return frozenset([a.tail for a in self.arcs])

    def row_indices(self, *, forward: bool) -> tuple[int, ...]:
        kind = FORWARD_ROW if forward else REVERSE_ROW
        return tuple([a.index for a in self.arcs if a.kind == kind])

    def descriptor(self) -> list[dict]:
        return [a.descriptor() for a in self.arcs]


def bellman_ford(n: int, tails, heads, costs, *,
                 early: bool = False) -> tuple[list[int] | None, list[int]]:
    """(negative cycle, distances) of the digraph whose arc k runs from
    tails[k] to heads[k] at integer cost costs[k].

    Nodes are labelled in 0..n and at most n labels carry arcs, so n rounds
    decide. Every node starts at distance 0 and the arcs are relaxed in
    index order, in place. The first round without a change returns
    (None, distances), a potential with dist[head] <= dist[tail] + cost on
    every arc. Otherwise the first arc still improving in round n triggers
    a walk back along the predecessor arcs from its head, and the cycle it
    closes comes back as its arc indices in path order, with the distances
    of that moment.

    With `early`, every round that changed something is followed by one
    walk over the predecessor graph from every node (one mark per node),
    and its first cycle comes back at once. Both modes read their cycle
    through the one walk `_predecessor_cycle`. A cycle of the predecessor
    graph is negative (Cherkassky & Goldberg, Math. Programming 85, 1999),
    so a digraph with a negative cycle usually returns after a few rounds,
    not n; one without returns the same distances either way, after the
    same rounds. Which cycle comes back may differ, so only a caller that
    accepts any negative cycle sets it: `optimize._slice_flow` does, for
    emptiness and cycle cancelling. `separation.negative_circuit` does not,
    because its circuit is the cut it returns, pinned arc for arc by the
    Fraction reference of the round-n sweep.
    """
    sweep = list(zip(range(len(costs)), tails, heads, costs))
    dist = [0] * (n + 1)
    pred = [-1] * (n + 1)
    last = n - 1
    trigger = -1
    for rnd in range(n):
        changed = False
        for k, tail, head, c in sweep:
            nd = dist[tail] + c
            if nd < dist[head]:
                dist[head] = nd
                pred[head] = k
                changed = True
                if rnd == last:
                    trigger = k
                    break
        if not changed:
            return None, dist
        if early and rnd < last:
            cycle = _predecessor_cycle(pred, tails, range(len(pred)))
            if cycle is not None:
                return _negative(cycle, costs), dist
    # the walk back from the improved head must close a cycle
    cycle = _predecessor_cycle(pred, tails, (heads[trigger],))
    if cycle is None:
        raise CertificateError(f"the walk back from node {heads[trigger]} closed no cycle")
    return _negative(cycle, costs), dist


def _predecessor_cycle(pred, tails, roots) -> list[int] | None:
    """The arcs of the first cycle of the predecessor graph, in the order
    walked back (each arc's tail is the next one's head), walking from each
    root in turn, or None. Each walk marks its nodes with its root and
    stops at a node without a predecessor arc or marked before, so no node
    is walked twice; a node marked by the current walk closes a cycle,
    whose arcs come back from that node on."""
    mark = [-1] * len(pred)
    for root in roots:
        node = root
        while mark[node] < 0:
            mark[node] = root
            k = pred[node]
            if k < 0:
                break
            node = tails[k]
        else:
            if mark[node] == root:
                start, chain = node, []
                while True:
                    k = pred[node]
                    chain.append(k)
                    node = tails[k]
                    if node == start:
                        return chain
    return None


def _negative(chain: list[int], costs) -> list[int]:
    """The predecessor chain, walked backwards, in path order: checked to
    be a negative cycle, since a cycle of relaxed arcs is one."""
    if sum([costs[k] for k in chain]) >= 0:
        raise CertificateError("the predecessor circuit is not negative")
    chain.reverse()
    return chain


@dataclass(frozen=True)
class CircuitEnumeration:
    circuits: tuple[ClosedPath, ...]
    complete: bool


def enumerate_circuits(
    digraph: AuxDigraph,
    *,
    min_winding: int | None = None,
    forbid_kinds: frozenset = frozenset(),
    max_count: int | None = None,
) -> CircuitEnumeration:
    """All simple circuits, canonical, deterministic order.

    One loop walks a stack of arc iterators over a per-node adjacency built
    here from `digraph.arcs`, in the global arc order. A walk that closes
    is kept, as a `ClosedPath`, when its length sum reaches n * min_winding.
    A walk from a path of L arcs and length sum `total` out of `start` into
    a node h is cut when total + length + (n - start - L) * top falls short
    of that, top being the longest arc length left, clamped at 0. Proof:
    the rest of a circuit through h visits only nodes above start and off
    the path, so it has at most n - start - L arcs, each at most top long;
    the clamp keeps that sound when every arc is negative, since the rest
    has an arc. So the output is the unpruned search's. A min_winding that
    is not None or an int raises BadParameters; forbid_kinds, a collection
    of arc kinds (a string or an unknown kind is BadParameters), drops whole
    arc kinds from the adjacency. Hitting max_count returns at once, flagged
    incomplete; a max_count that is not an int >= 1 raises BadParameters.
    """
    if max_count is not None:
        check_positive_int(max_count, "max_count")
    if min_winding is not None:
        check_int(min_winding, "min_winding")
    if isinstance(forbid_kinds, str) or not isinstance(forbid_kinds, Iterable):
        raise BadParameters(f"forbid_kinds must be a set of arc kinds, got {forbid_kinds!r}")
    for k in forbid_kinds:
        if k not in ARC_KINDS:
            raise BadParameters(f"unknown arc kind {k!r}")
    found: list[ClosedPath] = []
    n = digraph.n
    out: list[list[Arc]] = [[] for _ in range(n + 1)]
    for a in digraph.arcs:
        if a.kind not in forbid_kinds:
            out[a.tail].append(a)
    top = max([0] + [a.length for arcs in out for a in arcs])
    target = float("-inf") if min_winding is None else n * min_winding
    on_path = [False] * (n + 1)
    path: list[Arc] = []
    total = 0
    for start in range(1, n + 1):
        stack = [iter(out[start])]
        while stack:
            for a in stack[-1]:
                h = a.head
                if h == start:
                    if total + a.length >= target:
                        found.append(ClosedPath((*path, a), n))
                        if max_count is not None and len(found) >= max_count:
                            return CircuitEnumeration(tuple(found), False)
                elif (h > start and not on_path[h]
                      and total + a.length + (n - start - len(path)) * top >= target):
                    path.append(a)
                    on_path[h] = True
                    total += a.length
                    stack.append(iter(out[h]))
                    break
            else:
                stack.pop()
                if path:
                    a = path.pop()
                    on_path[a.head] = False
                    total -= a.length
    return CircuitEnumeration(tuple(found), True)
