import random
from dataclasses import replace

import networkx as nx
import pytest

from circover import (
    FORWARD_ROW,
    FORWARD_SHORT,
    REVERSE_ROW,
    REVERSE_SHORT,
    BadParameters,
    CertificateError,
    ClosedPath,
    build_digraph,
    circular_matrix,
    circulant_matrix,
    enumerate_circuits,
)
from _helpers import determinant, eager_digraph, find_arc, incidence_matrix
from test_cli import run_python

from circover import digraph
from circover.digraph import bellman_ford


def three_row_matrix():
    return circular_matrix(7, [(1, 3), (2, 5), (5, 5)])


def test_row_arcs_of_the_three_row_example():
    d = build_digraph(three_row_matrix())
    a1 = find_arc(d, FORWARD_ROW, 1)
    a2 = find_arc(d, FORWARD_ROW, 2)
    a3 = find_arc(d, FORWARD_ROW, 3)
    assert (a1.tail, a1.head, a1.length) == (7, 3, 3)
    assert (a2.tail, a2.head, a2.length) == (1, 6, 5)
    assert (a3.tail, a3.head, a3.length) == (4, 2, 5)
    # row arc i jumps exactly the support of row i
    m = three_row_matrix()
    for i in (1, 2, 3):
        a = find_arc(d, FORWARD_ROW, i)
        assert {j for j in range(1, 8) if a.jump_mask >> (j - 1) & 1} == set(m.support(i))


def test_short_arcs_and_slots():
    m = three_row_matrix()
    d = build_digraph(m)
    s4 = find_arc(d, FORWARD_SHORT, 4)
    assert (s4.tail, s4.head, s4.length, s4.slot) == (3, 4, 1, m.m + 3)
    assert {j for j in range(1, 8) if s4.jump_mask >> (j - 1) & 1} == {4}
    s1 = find_arc(d, FORWARD_SHORT, 1)
    assert (s1.tail, s1.head) == (7, 1)
    r2 = find_arc(d, REVERSE_ROW, 2)
    f2 = find_arc(d, FORWARD_ROW, 2)
    assert (r2.tail, r2.head) == (f2.head, f2.tail)
    assert r2.length == -f2.length
    assert r2.slot == f2.slot
    b4 = find_arc(d, REVERSE_SHORT, 4)
    assert (b4.tail, b4.head, b4.length, b4.slot) == (4, 3, -1, s4.slot)


def test_restricted_digraph_drops_reverse_rows_only():
    d = build_digraph(three_row_matrix(), restricted=True)
    kinds = {a.kind for a in d.arcs}
    assert kinds == {FORWARD_ROW, FORWARD_SHORT, REVERSE_SHORT}
    assert len(d.arcs) == 3 + 7 + 7


def _random_circular_matrices(count, seed):
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(3, 16)
        pool = [(s, length) for s in range(1, n + 1) for length in range(2, n)]
        yield circular_matrix(n, rng.sample(pool, rng.randint(1, min(len(pool), 2 * n))))


def test_flat_views_and_arcs_match_the_eager_construction():
    """tails, heads and every Arc field agree with the eager
    reference on every circulant with 3 <= n <= 16 and on 300 seeded random
    circular matrices, for the full and the restricted digraph."""
    circulants = [circulant_matrix(n, k) for n in range(3, 17) for k in range(2, n)]
    for m in circulants + list(_random_circular_matrices(300, 14)):
        for restricted in (False, True):
            d = build_digraph(m, restricted=restricted)
            arcs, tails, heads = eager_digraph(m, restricted)
            assert (d.tails, d.heads) == (tails, heads)
            assert "arcs" not in d.__dict__
            assert d.arcs == arcs
            assert [d._arc(k) for k in range(len(arcs))] == list(arcs)


def test_incidence_matrix_columns():
    d = build_digraph(three_row_matrix())
    inc = incidence_matrix(d)
    assert len(inc) == 7 and len(inc[0]) == len(d.arcs)
    for c, a in enumerate(d.arcs):
        col = [inc[v][c] for v in range(7)]
        assert col[a.tail - 1] == -1
        assert col[a.head - 1] == 1
        assert sum(col) == 0


def test_incidence_spot_check_total_unimodularity():
    """Network matrices are totally unimodular; a sample of square
    submatrices must have determinant in {-1, 0, 1}."""
    d = build_digraph(circulant_matrix(6, 2))
    inc = incidence_matrix(d)
    from itertools import combinations, islice
    cols = len(inc[0])
    samples = islice(combinations(range(cols), 4), 60)
    for pick in samples:
        sub = [[inc[r][c] for c in pick] for r in (0, 2, 3, 5)]
        assert determinant(sub) in (-1, 0, 1)


def test_closed_path_winding_and_errors():
    m = circulant_matrix(5, 2)
    d = build_digraph(m)
    rows = [find_arc(d, FORWARD_ROW, i) for i in (2, 4, 1, 3, 5)]
    path = ClosedPath(rows, d.n)
    assert path.winding == 2
    assert path.is_simple
    assert sorted(path.nodes) == [1, 2, 3, 4, 5]
    assert path.row_indices(forward=True) == (2, 4, 1, 3, 5)
    with pytest.raises(BadParameters, match="^path ends at "):
        ClosedPath(rows[:3], d.n)
    with pytest.raises(BadParameters, match="^arc into "):
        ClosedPath([rows[0], rows[0]], d.n)
    with pytest.raises(BadParameters, match="^empty arc sequence$"):
        ClosedPath([], d.n)
    # chained, yet its lengths do not wind a whole number of times
    with pytest.raises(BadParameters, match="not a multiple of 5"):
        ClosedPath([replace(rows[0], length=3)] + rows[1:], d.n)


def test_closed_path_counts_and_canonical():
    m = circulant_matrix(5, 2)
    d = build_digraph(m)
    arcs = [find_arc(d, FORWARD_ROW, i) for i in (2, 4, 1, 3, 5)]
    path = ClosedPath(arcs, d.n)
    canon = path.canonical()
    assert canon.arcs[0].tail == 1
    assert set(canon.arcs) == set(path.arcs)
    assert canon.winding == 2


def test_walks_may_repeat_arcs():
    # forward short then reverse short is a legal winding-0 closed walk
    d = build_digraph(circulant_matrix(5, 2))
    f = find_arc(d, FORWARD_SHORT, 3)
    b = find_arc(d, REVERSE_SHORT, 3)
    w = ClosedPath([f, b, f, b], d.n)
    assert w.winding == 0
    assert not w.is_simple


def _nx_circuit_count(digraph):
    """Independent count: subdivide every arc so parallel/antiparallel pairs
    survive in a plain DiGraph, then count simple cycles."""
    g = nx.DiGraph()
    for t, a in enumerate(digraph.arcs):
        mid = ("arc", t)
        g.add_edge(a.tail, mid)
        g.add_edge(mid, a.head)
    return sum(1 for _ in nx.simple_cycles(g))


@pytest.mark.parametrize("build", [
    lambda: build_digraph(circulant_matrix(5, 2)),
    lambda: build_digraph(circulant_matrix(5, 2), restricted=True),
    lambda: build_digraph(three_row_matrix(), restricted=True),
    lambda: build_digraph(circular_matrix(6, [(1, 3), (3, 2), (5, 3), (2, 4)])),
])
def test_circuit_counts_match_networkx(build):
    d = build()
    enum = enumerate_circuits(d)
    assert enum.complete
    assert len(set(enum.circuits)) == len(enum.circuits)
    assert len(enum.circuits) == _nx_circuit_count(d)
    for c in enum.circuits:
        assert c.is_simple
        # canonical anchor: starts at its smallest node
        assert c.arcs[0].tail == min(c.nodes)


def test_enumeration_is_deterministic():
    d = build_digraph(circulant_matrix(6, 3))
    a = enumerate_circuits(d, min_winding=1)
    b = enumerate_circuits(d, min_winding=1)
    assert a == b
    assert all(c.winding >= 1 for c in a.circuits)


def test_enumeration_cap_flags_incomplete():
    d = build_digraph(circulant_matrix(6, 2))
    full = enumerate_circuits(d)
    capped = enumerate_circuits(d, max_count=3)
    assert not capped.complete
    assert len(capped.circuits) == 3
    assert capped.circuits == full.circuits[:3]


def test_enumeration_cap_below_one_raises():
    d = build_digraph(circulant_matrix(6, 2))
    for cap in (0, -1):
        with pytest.raises(BadParameters, match="max_count"):
            enumerate_circuits(d, max_count=cap)
    assert len(enumerate_circuits(d, max_count=1).circuits) == 1


def test_forbid_kinds():
    d = build_digraph(circulant_matrix(5, 2))
    enum = enumerate_circuits(d, forbid_kinds=frozenset({REVERSE_ROW, REVERSE_SHORT}))
    assert all(a.is_forward for c in enum.circuits for a in c.arcs)
    with pytest.raises(BadParameters):
        enumerate_circuits(d, forbid_kinds=frozenset({"sideways"}))


# the cycle 0 -> 1 -> 2 -> 0 at cost -3 on the nodes 0..3
TRIANGLE = (3, [0, 1, 2], [1, 2, 0], [-1, -1, -1])


def test_early_kernel_returns_after_the_first_round_with_a_cycle():
    """Round one closes the predecessor cycle, so the early kernel returns
    it, walked from node 0, with the distances of that round; the round-n
    kernel finds it in round three, walking back from arc 0's head."""
    assert bellman_ford(*TRIANGLE, early=True) == ([0, 1, 2], [-3, -1, -2, 0])
    assert bellman_ford(*TRIANGLE) == ([1, 2, 0], [-6, -7, -5, 0])


class _Tampered(list):
    """Costs whose reads by index, the cycle check's, all come back 0,
    while the relaxation sweep iterates the true costs."""

    def __getitem__(self, k):
        return 0


def test_tampered_predecessor_cycle_raises():
    n, tails, heads, costs = TRIANGLE
    for early in (False, True):
        with pytest.raises(CertificateError, match="predecessor circuit is not negative"):
            bellman_ford(n, tails, heads, _Tampered(costs), early=early)


def test_tampered_predecessor_cycle_raises_under_dash_O():
    script = """
from circover import CertificateError
from circover.digraph import bellman_ford
assert False, "asserts must be stripped here"

class Tampered(list):
    def __getitem__(self, k):
        return 0

for early in (False, True):
    try:
        bellman_ford(3, [0, 1, 2], [1, 2, 0], Tampered([-1, -1, -1]), early=early)
    except CertificateError as exc:
        print(exc)
"""
    assert run_python("-O", "-c", script) == (0, "the predecessor circuit is not negative\n" * 2)


def test_walk_back_that_closes_no_cycle_raises(monkeypatch):
    """An arc still improving in round n means a negative cycle, and the walk
    back from its head must close one: a walk that closes none (the walk
    patched to return None) raises in both modes, the early mode after the
    walks of its earlier rounds came back empty too."""
    monkeypatch.setattr(digraph, "_predecessor_cycle", lambda *args: None)
    for early in (False, True):
        with pytest.raises(CertificateError, match=r"^the walk back from node 1 closed no cycle$"):
            bellman_ford(*TRIANGLE, early=early)


def test_walk_back_that_closes_no_cycle_raises_under_dash_O():
    script = """
from circover import CertificateError, digraph
assert False, "asserts must be stripped here"
digraph._predecessor_cycle = lambda *args: None
for early in (False, True):
    try:
        digraph.bellman_ford(3, [0, 1, 2], [1, 2, 0], [-1, -1, -1], early=early)
    except CertificateError as exc:
        print(exc)
"""
    assert run_python("-O", "-c", script) == (0, "the walk back from node 1 closed no cycle\n" * 2)
