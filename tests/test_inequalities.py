import json
import os
import random
import re
from dataclasses import replace
from fractions import Fraction as F

import pytest
from _helpers import (
    NO_ESSENTIAL_NODE,
    NotCirculantMinor,
    check_validity,
    default_family_winding,
    find_arc,
    frozenset_contract,
    jsonable,
    lexicographic_rotation_sets,
    minor_inequalities,
    reraise_unless,
    row_family_inequality,
    scanned_circulant_minors,
    sorted_circulant_minors,
    two_valued_inequality,
    unfiltered_circulant_minors,
    walk_circulant_isomorphic,
)
from test_cli import run_python

from circover import (
    FORWARD_ROW,
    REVERSE_SHORT,
    BadParameters,
    CertificateError,
    ClosedPath,
    LinearInequality,
    bad_arcs,
    block_decomposition,
    build_digraph,
    check_facet,
    circuit_inequality,
    circulant_matrix,
    circular_matrix,
    classify_nodes,
    circulant_isomorphic,
    enumerate_circuits,
    enumerate_circulant_minors,
    enumerate_facet_candidates,
    enumerate_candidates_general,
    enumerate_minimal_covers,
    extract_minor,
    hull_facets,
    make_inequality,
    nonnegativity,
    row_inequalities,
)
from circover import inequalities
from circover.jsonio import inequality_json


def all_row_circuit(matrix, order):
    d = build_digraph(matrix)
    arcs = [find_arc(d, FORWARD_ROW, i) for i in order]
    return ClosedPath(arcs, d.n)


def test_make_inequality_normalizes():
    q = make_inequality([2, 4, 6], 8, "x")
    assert q.coeffs == (1, 2, 3) and q.rhs == 4
    q2 = make_inequality([F(3), F(6)], F(9), "x")
    assert q2.coeffs == (1, 2) and q2.rhs == 3


def test_make_inequality_rejects_non_integers():
    # raised, not asserted: `python -O` once truncated this to (0, 1) >= 1
    with pytest.raises(BadParameters, match="coefficient"):
        make_inequality([F(1, 2), 1], F(3, 2), "x")
    with pytest.raises(BadParameters, match="right-hand side"):
        make_inequality([1, 1], F(3, 2), "x")


@pytest.mark.parametrize("coeffs,rhs,message", [
    ([None], 1, "coefficient must be an int or an integral Fraction, got None"),
    ([1], None, "right-hand side must be an int or an integral Fraction, got None"),
    (["x"], 1, "coefficient must be an int or an integral Fraction, got 'x'"),
    (["2"], 2, "coefficient must be an int or an integral Fraction, got '2'"),
    ([2.0], 2, "coefficient must be an int or an integral Fraction, got 2.0"),
    ([True], 1, "coefficient must be an int or an integral Fraction, got True"),
    ([1], 1.0, "right-hand side must be an int or an integral Fraction, got 1.0"),
])
def test_make_inequality_names_a_malformed_entry(coeffs, rhs, message):
    """BadParameters naming the entry, strings quoted: never the TypeError
    or ValueError of int(), and never a float or bool taken for an int."""
    with pytest.raises(BadParameters) as got:
        make_inequality(coeffs, rhs, "x")
    assert str(got.value) == message


def test_evaluate_rejects_a_point_of_the_wrong_length():
    """zip would stop at the shorter side: [1, 1] once read as slack -1."""
    q = make_inequality([1] * 5, 3, "t")
    assert q.evaluate([1] * 5) == 2
    with pytest.raises(BadParameters, match="2 coordinates for 5 coefficients"):
        q.evaluate([1, 1])
    with pytest.raises(BadParameters, match="6 coordinates for 5 coefficients"):
        q.evaluate([1] * 6)


def test_nonnegativity_and_rows():
    m = circulant_matrix(4, 2)
    nn = nonnegativity(4)
    assert [q.coeffs for q in nn] == [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)]
    ri = row_inequalities(m, [1, 2, 1, 3])
    assert ri[1].coeffs == (0, 1, 1, 0) and ri[1].rhs == 2
    assert ri[3].coeffs == (1, 0, 0, 1) and ri[3].rhs == 3
    assert ri[0].witness == {"row": 1}


def test_row_inequalities_reject_short_demands():
    with pytest.raises(BadParameters, match="1 demands for 5 rows"):
        row_inequalities(circulant_matrix(5, 2), [1])


def test_circuit_inequality_rejects_short_demands():
    m = circulant_matrix(5, 2)
    path = all_row_circuit(m, (2, 4, 1, 3, 5))
    with pytest.raises(BadParameters, match="1 demands for 5 rows"):
        circuit_inequality(m, [1], path)


def test_circuit_inequality_all_rows_5_2():
    m = circulant_matrix(5, 2)
    path = all_row_circuit(m, (2, 4, 1, 3, 5))
    q = circuit_inequality(m, [1] * 5, path)
    assert q.coeffs == (1, 1, 1, 1, 1)
    assert q.rhs == 3
    w = q.witness
    assert (w["winding"], w["net_demand"], w["quotient"], w["remainder"]) == (2, 5, 2, 1)
    assert not w["redundant"]


def test_circuit_inequality_with_demands():
    m = circulant_matrix(5, 2)
    path = all_row_circuit(m, (2, 4, 1, 3, 5))
    # t = 7, p = 2: beta = 3, r = 1, so sum x >= 4
    q = circuit_inequality(m, [1, 1, 2, 2, 1], path)
    assert q.coeffs == (1, 1, 1, 1, 1) and q.rhs == 4
    covers = enumerate_minimal_covers(m, [1, 1, 2, 2, 1])
    assert check_validity(q, covers)


def test_circuit_inequality_rejects_nonpositive_winding():
    m = circulant_matrix(5, 2)
    d = build_digraph(m)
    f = find_arc(d, "forward-short", 3)
    b = find_arc(d, "reverse-short", 3)
    walk = ClosedPath([f, b], d.n)
    with pytest.raises(BadParameters, match="^winding 0, need >= 1$"):
        circuit_inequality(m, [1] * 5, walk)


def test_circuit_inequality_on_circuits_with_reverse_rows():
    """Positive-winding circuits using reverse row arcs still give valid
    inequalities (the window-3 circulant on 7 columns has 14 of them)."""
    m = circulant_matrix(7, 3)
    d = build_digraph(m)
    enum = enumerate_circuits(d, min_winding=1)
    covers = enumerate_minimal_covers(m, [1] * 7)
    seen_reverse = 0
    for path in enum.circuits:
        if path.row_indices(forward=False):
            seen_reverse += 1
            q = circuit_inequality(m, [1] * 7, path)
            assert check_validity(q, covers)
    assert seen_reverse == 14


def test_classify_nodes():
    m = circulant_matrix(7, 3)
    d = build_digraph(m, restricted=True)
    # rows 3 and 6 plus forward short 3 and backward short 3: hand-built
    arcs = [
        find_arc(d, FORWARD_ROW, 3),        # 2 -> 5
        find_arc(d, FORWARD_ROW, 6),        # 5 -> 1
        find_arc(d, "forward-short", 2),    # 1 -> 2
    ]
    path = ClosedPath(arcs, d.n)
    assert path.winding == 1
    cls = classify_nodes(path, 7)
    assert sorted(cls.circles) == [2]
    assert cls.crosses == frozenset()
    assert sorted(cls.bullets) == [1, 3, 4, 5, 6, 7]
    assert sorted(cls.essential) == [1, 5]
    full = build_digraph(m)
    rev = ClosedPath([
        find_arc(full, FORWARD_ROW, 3),
        find_arc(full, "reverse-row", 3),
    ], full.n)
    with pytest.raises(BadParameters, match="^node classes need a reverse-row-free path$"):
        classify_nodes(rev, 7)


def test_classify_nodes_rejects_the_winding_0_two_cycle():
    """[forward-short 3, reverse-short 3] is a valid closed path of winding
    0 whose column 3 would be both a circle and a cross."""
    m = circulant_matrix(5, 2)
    d = build_digraph(m, restricted=True)
    walk = ClosedPath([find_arc(d, "forward-short", 3), find_arc(d, REVERSE_SHORT, 3)], d.n)
    assert walk.winding == 0
    with pytest.raises(BadParameters, match="column 3 is both a circle and a cross"):
        classify_nodes(walk, 5)


def test_classify_nodes_rejects_the_two_cycle_under_dash_O():
    script = """
from circover import BadParameters, ClosedPath, build_digraph, circulant_matrix, classify_nodes
assert False, "asserts must be stripped here"
m = circulant_matrix(5, 2)
d = build_digraph(m, restricted=True)
walk = ClosedPath([a for a in d.arcs if a.index == 3 and a.kind.endswith("short")], d.n)
try:
    print(classify_nodes(walk, 5))
except BadParameters as exc:
    print(exc)
"""
    code, out = run_python("-O", "-c", script)
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 1, out
    assert "column 3 is both a circle and a cross" in lines[0], out


def test_homogeneous_matches_the_general_form():
    """On reverse-row-free circuits with homogeneous demands
    `circuit_inequality` is the two-valued closed form, and it is redundant
    exactly where the closed form has remainder 0."""
    compared = 0
    for n, k in [(5, 2), (7, 3), (8, 3)]:
        m = circulant_matrix(n, k)
        d = build_digraph(m, restricted=True)
        enum = enumerate_circuits(d, min_winding=2)
        for alpha in (1, 2):
            for path in enum.circuits:
                ref = two_valued_inequality(m, path, alpha)
                gen = circuit_inequality(m, (alpha,) * m.m, path)
                assert gen.witness["redundant"] == (ref is None)
                if ref is not None:
                    assert gen.key() == ref.key()
                    compared += 1
    assert compared > 0


def test_homogeneous_redundant_cases():
    """Winding 1, and a winding dividing the total demand, give remainder
    0; the uniform-demand candidates drop such circuits."""
    m = circulant_matrix(6, 2)
    path = all_row_circuit(m, (2, 4, 6))  # 1 -> 3 -> 5 -> 1
    assert path.winding == 1
    assert circuit_inequality(m, [1] * 6, path).witness["redundant"]
    m5 = circulant_matrix(5, 2)
    path5 = all_row_circuit(m5, (2, 4, 1, 3, 5))
    assert circuit_inequality(m5, [2] * 5, path5).witness["redundant"]  # alpha*s = 10, p = 2
    for matrix, alpha, dropped in [(m, 1, path), (m5, 2, path5)]:
        kept = enumerate_facet_candidates(matrix, [alpha] * matrix.m).inequalities
        assert dropped.descriptor() not in [q.witness["circuit"] for q in kept if q.kind == "circuit"]
    # circuits with a cross and remainder 0 pass the cross test and stop at
    # the remainder test: at alpha = 2, (7,3) has 7 and (8,6) 16 of them
    for (n, k), count in [((7, 3), 7), ((8, 6), 16)]:
        matrix = circulant_matrix(n, k)
        circuits = enumerate_circuits(build_digraph(matrix, restricted=True), min_winding=2,
                                      forbid_kinds={"forward-short"}).circuits
        redundant = [path.descriptor() for path in circuits
                     if any(a.kind == REVERSE_SHORT for a in path.arcs)
                     and circuit_inequality(matrix, [2] * n, path).witness["redundant"]]
        assert len(redundant) == count
        kept = [q.witness for q in enumerate_facet_candidates(matrix, [2] * n).inequalities
                if q.kind == "circuit"]
        assert not [w for w in kept if w["redundant"] or w["circuit"] in redundant]


def test_block_structure_all_plain():
    m = circulant_matrix(5, 2)
    path = all_row_circuit(m, (2, 4, 1, 3, 5))
    blocks = block_decomposition(m, path)
    assert blocks.winding == 2
    assert blocks.essential == (1, 2, 3, 4, 5)
    assert all(b.kind == "plain" and b.members == (b.start,) for b in blocks.blocks)


def test_block_structure_with_runs():
    """Frozen example on the circulant (8,3): a winding-2 circuit using two
    forward shorts and one backward short. Blocks: circle run {2,3}, plain
    {4}, cross run {5,6}, plain {7}, circle run {8,1}."""
    m = circulant_matrix(8, 3)
    d = build_digraph(m, restricted=True)
    arcs = [
        find_arc(d, FORWARD_ROW, 2),       # 1 -> 4
        find_arc(d, FORWARD_ROW, 5),       # 4 -> 7
        find_arc(d, FORWARD_ROW, 8),       # 7 -> 2
        find_arc(d, "forward-short", 3),   # 2 -> 3
        find_arc(d, FORWARD_ROW, 4),       # 3 -> 6
        find_arc(d, REVERSE_SHORT, 6),     # 6 -> 5
        find_arc(d, FORWARD_ROW, 6),       # 5 -> 8
        find_arc(d, "forward-short", 1),   # 8 -> 1
    ]
    path = ClosedPath(arcs, d.n)
    assert path.winding == 2
    blocks = block_decomposition(m, path)
    assert blocks.essential == (2, 4, 5, 7, 8)
    got = [(b.kind, b.start, b.members, b.entry, b.exit) for b in blocks.blocks]
    assert got == [
        ("circle", 2, (2, 3), 2, 3),
        ("plain", 4, (4,), 4, 4),
        ("cross", 5, (5, 6), 6, 5),
        ("plain", 7, (7,), 7, 7),
        ("circle", 8, (8, 1), 8, 1),
    ]
    assert bad_arcs(m, path, blocks) == (1,)
    w = extract_minor(m, path)
    assert w.removed_columns == (1, 3, 6)
    assert (w.order, w.window) == (5, 2)
    assert not w.exact  # row 1 is bad, the contraction is strictly bigger


def test_block_structure_rejects_dominating_rows():
    m = circular_matrix(6, [(1, 2), (1, 3), (4, 2)])
    d = build_digraph(m, restricted=True)
    path = ClosedPath([
        find_arc(d, FORWARD_ROW, 1),
        find_arc(d, "forward-short", 3),
        find_arc(d, FORWARD_ROW, 3),
        find_arc(d, "forward-short", 6),
    ], d.n)
    with pytest.raises(BadParameters, match="^block structure needs a matrix without dominating"):
        block_decomposition(m, path)


def test_no_essential_bullets():
    # circles everywhere: rows 1..4 of the circulant (4 is too small), use 6/4
    m = circulant_matrix(6, 4)
    d = build_digraph(m, restricted=True)
    # 1 -> 5 -> 3 -> 1 with shorts covering everything else would need all
    # other nodes on shorts; build 6 shorts + no rows => winding 1, no rows
    arcs = [find_arc(d, "forward-short", j) for j in (2, 3, 4, 5, 6, 1)]
    path = ClosedPath(arcs, d.n)
    with pytest.raises(BadParameters, match="^the circuit has no essential plain node$"):
        block_decomposition(m, path)


def test_extract_minor_exact_cases_on_7_3():
    m = circulant_matrix(7, 3)
    d = build_digraph(m, restricted=True)
    enum = enumerate_circuits(d, min_winding=2)
    assert len(enum.circuits) == 8
    results = {}
    for path in enum.circuits:
        w = extract_minor(m, path)
        assert w.exact
        results[w.removed_columns] = (w.order, w.window)
    assert results[()] == (7, 3)
    pairs = {k for k in results if k}
    assert pairs == {(2, 5), (2, 6), (3, 6), (3, 7), (4, 7), (1, 4), (1, 5)}
    assert all(results[k] == (5, 2) for k in pairs)


def test_extract_minor_needs_winding_two():
    m = circulant_matrix(7, 3)
    d = build_digraph(m, restricted=True)
    path = ClosedPath([
        find_arc(d, FORWARD_ROW, 3),
        find_arc(d, FORWARD_ROW, 6),
        find_arc(d, "forward-short", 2),
    ], d.n)
    with pytest.raises(BadParameters):
        extract_minor(m, path)


def test_minor_inequality_7_3():
    m = circulant_matrix(7, 3)
    q = minor_inequalities(m, [1, 4])
    assert q.coeffs == (2, 1, 1, 1, 1, 1, 1)
    assert q.rhs == 3
    assert q.witness["doubled"] == [1]
    # the flag records the classical remainder-1 condition ...
    assert q.witness["facet_condition"] is True
    covers = enumerate_minimal_covers(m, [1] * 7)
    assert check_validity(q, covers)
    # ... but here the inequality is the rank facet plus x_1 >= 0, a sum of
    # two valid inequalities, so the oracle rightly denies facethood
    assert not check_facet(q, covers)
    # remainder 1 makes the rfi flavor coincide
    q2 = minor_inequalities(m, [1, 4], mode="rfi")
    assert q2.key() == q.key()
    assert q2.witness["redundant"] is False


def test_minor_inequality_can_be_a_real_facet():
    # deleting {1,4,7} from the circulant (9,6) leaves (6,4); no column is
    # doubled, the inequality is sum x >= 2 over a tighter minor, and the
    # oracle confirms a genuine facet even though the remainder is 2
    m = circulant_matrix(9, 6)
    q = minor_inequalities(m, [1, 4, 7])
    assert q.witness["facet_condition"] is False
    covers = enumerate_minimal_covers(m, [1] * 9)
    assert check_facet(q, covers)


def test_minor_inequality_10_4():
    """Deleting {1,6} from the circulant (10,4) leaves (8,3); both removed
    columns are doubled and the remainder is 2, so the two modes differ."""
    m = circulant_matrix(10, 4)
    plain = minor_inequalities(m, [1, 6])
    assert plain.coeffs == (2, 1, 1, 1, 1, 2, 1, 1, 1, 1)
    assert plain.rhs == 3
    assert plain.witness["facet_condition"] is False
    rfi = minor_inequalities(m, [1, 6], mode="rfi")
    assert rfi.coeffs == (3, 2, 2, 2, 2, 3, 2, 2, 2, 2)
    assert rfi.rhs == 6
    covers = enumerate_minimal_covers(m, [1] * 10)
    assert check_validity(plain, covers)
    assert check_validity(rfi, covers)


def test_minor_inequality_errors():
    notcirc = circular_matrix(7, [(1, 3), (2, 5), (5, 5)])
    with pytest.raises(NotCirculantMinor):
        minor_inequalities(notcirc, [1])
    m = circulant_matrix(7, 2)
    with pytest.raises(NotCirculantMinor):
        minor_inequalities(m, [4])
    with pytest.raises(BadParameters):
        minor_inequalities(m, [9])
    with pytest.raises(BadParameters):
        minor_inequalities(circulant_matrix(7, 3), [1, 4], mode="fancy")


def test_row_family_inequality_5_2():
    m = circulant_matrix(5, 2)
    covers = enumerate_minimal_covers(m, [1] * 5)
    assert default_family_winding(m, range(1, 6)) == 1
    res = row_family_inequality(m, range(1, 6), p=2, covers=covers)
    assert res.inequality.coeffs == (1, 1, 1, 1, 1)
    assert res.inequality.rhs == 3
    assert res.valid is True
    # a non-default parameter without covers to check against stays None
    res_unchecked = row_family_inequality(m, range(1, 6), p=2)
    assert res_unchecked.valid is None
    # default p = p* = 1 divides s = 5: degenerate but allowed
    res_default = row_family_inequality(m, range(1, 6))
    assert res_default.valid is True
    assert res_default.inequality.witness["redundant"] is True
    assert res_default.inequality.rhs == 0


def test_row_family_parameter_errors():
    m = circulant_matrix(5, 2)
    with pytest.raises(BadParameters):
        row_family_inequality(m, range(1, 6), p=5)
    with pytest.raises(BadParameters):
        row_family_inequality(m, range(1, 6), p=0)
    with pytest.raises(BadParameters):
        row_family_inequality(m, [1, 2, 3, 4], p=2)  # 2 | 4 and p* = 1
    with pytest.raises(BadParameters):
        row_family_inequality(m, [3], p=1)
    with pytest.raises(BadParameters):
        row_family_inequality(m, [1, 9], p=1)
    # the default parameter validates the family the same way: row 0 is not
    # the last row, and a row past m is no IndexError
    with pytest.raises(BadParameters, match="row 0 outside"):
        default_family_winding(m, [0, 1])
    three_rows = circular_matrix(7, [(1, 3), (2, 5), (5, 5)])
    with pytest.raises(BadParameters, match="row 7 outside"):
        default_family_winding(three_rows, [1, 7])
    with pytest.raises(BadParameters, match="row 7 outside"):
        row_family_inequality(three_rows, [1, 7])


def test_row_family_heavy_columns_get_zero():
    # family of 4 rows on the circulant (6,3): max colsum 2 at columns 2..6?
    m = circulant_matrix(6, 3)
    fam = [1, 2, 4, 5]
    # colsums: col1 1, col2 2, col3 2, col4 2, col5 2, col6 2  -> p* = 1
    res = row_family_inequality(m, fam, p=3)
    # r = 1, inner = cols with colsum <= 3 (all), outer empty
    assert res.inequality.coeffs == (1, 1, 1, 1, 1, 1)
    assert res.inequality.rhs == 2
    res2 = row_family_inequality(m, [1, 2, 3, 4, 5], p=2)
    # colsums 2,3,3,3,3,1: inner {1,6}... recompute: rows 1..5 of (6,3)
    # col1: rows 1,5 plus row 6 absent -> counts from supports
    ineq = res2.inequality
    assert ineq.witness["winding"] == 2
    assert all(c in (0, ineq.witness["remainder"], ineq.witness["remainder"] + 1)
               for c in ineq.coeffs)
    covers = enumerate_minimal_covers(m, [1] * 6)
    if res2.valid is None:
        res2 = row_family_inequality(m, [1, 2, 3, 4, 5], p=2, covers=covers)
    if res2.valid:
        assert check_validity(ineq, covers)


def test_enumerate_circulant_minors_8_3():
    enum = enumerate_circulant_minors(circulant_matrix(8, 3))
    assert enum.complete
    got = {(w.removed_columns, w.order, w.window) for w in enum.witnesses}
    assert got == {
        ((1, 5), 6, 2), ((2, 6), 6, 2), ((3, 7), 6, 2), ((4, 8), 6, 2),
    }
    assert all(w.exact for w in enum.witnesses)


def test_enumerate_circulant_minors_10_4_contains_deeper_ones():
    enum = enumerate_circulant_minors(circulant_matrix(10, 4))
    assert enum.complete
    got = {(w.removed_columns, w.order, w.window) for w in enum.witnesses}
    assert ((1, 6), 8, 3) in got
    # every reported witness survives the reference contraction and walk
    m = circulant_matrix(10, 4)
    for w in enum.witnesses:
        match = walk_circulant_isomorphic(frozenset_contract(m, w.removed_columns))
        assert match is not None and (match.order, match.window) == (w.order, w.window)


def test_enumerate_circulant_minors_none_for_7_2():
    enum = enumerate_circulant_minors(circulant_matrix(7, 2))
    assert enum.complete
    assert enum.witnesses == ()


def test_enumerate_circulant_minors_cap():
    enum = enumerate_circulant_minors(circulant_matrix(10, 4), max_count=2)
    assert not enum.complete
    assert len(enum.witnesses) == 2


def test_enumerate_circulant_minors_cap_below_one_raises():
    for cap in (0, -1):
        with pytest.raises(BadParameters, match="max_count"):
            enumerate_circulant_minors(circulant_matrix(10, 4), max_count=cap)
    assert len(enumerate_circulant_minors(circulant_matrix(10, 4), max_count=1).witnesses) == 1


def _antichain_matrices(seed, count):
    """Seeded non-circulant circular matrices without dominating rows, n
    6-10: a circulant with one or two rows dropped and up to two rows of
    any length added."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        n = rng.randint(6, 10)
        k = rng.randint(2, n - 2)
        rows = {(i, k) for i in range(1, n + 1)}
        for _ in range(rng.randint(1, 2)):
            rows.discard(rng.choice(sorted(rows)))
        for _ in range(rng.randint(0, 2)):
            rows.add((rng.randint(1, n), rng.randint(2, n - 1)))
        m = circular_matrix(n, sorted(rows))
        if not m.dominating_rows() and m.circulant_window() is None:
            out.append(m)
    return out


def _minor_circuits(m):
    return enumerate_circuits(build_digraph(m, restricted=True), min_winding=2).circuits


def test_restricted_circuits_of_winding_two_have_an_essential_node():
    """`_circuit_minors` hands every restricted circuit of winding >= 2 to
    `extract_minor`, which needs an essential plain node: every such
    circuit has one, on the circulants of order 4 to 9 and on seeded
    random circular matrices, dominating rows included."""
    rng = random.Random(3232)
    matrices = [circulant_matrix(n, k) for n in range(4, 10) for k in range(2, n - 1)]
    for _ in range(400):
        n = rng.randint(4, 8)
        rows = {(rng.randint(1, n), rng.randint(2, n - 1)) for _ in range(rng.randint(1, 2 * n))}
        matrices.append(circular_matrix(n, sorted(rows)))
    seen = 0
    for m in matrices:
        for path in _minor_circuits(m):
            assert classify_nodes(path, m.n).essential, (m.rows, path.descriptor())
            seen += 1
    assert seen >= 2000, seen


def test_minors_of_other_matrices_are_those_their_circuits_certify():
    """Off the circulants, each removed set that some restricted circuit of
    winding >= 2 certifies is listed once, in (size, columns) order, exact
    when any of its circuits is; every exact witness contracts to the
    circulant it promises by the reference contraction and walk."""
    listed = exact = 0
    for m in _antichain_matrices(1717, 40):
        certified = {}
        for path in _minor_circuits(m):
            try:
                w = extract_minor(m, path)
            except BadParameters as exc:
                reraise_unless(exc, NO_ESSENTIAL_NODE)
                continue
            certified[w.removed_columns] = certified.get(w.removed_columns, False) or w.exact
        enum = enumerate_circulant_minors(m)
        assert enum.complete
        removed = [w.removed_columns for w in enum.witnesses]
        assert removed == sorted(certified, key=lambda r: (len(r), r)), m
        for w in enum.witnesses:
            assert w.exact == certified[w.removed_columns]
            if w.exact:
                match = walk_circulant_isomorphic(frozenset_contract(m, w.removed_columns))
                assert match is not None and (match.order, match.window) == (w.order, w.window)
        listed += len(removed)
        exact += sum(w.exact for w in enum.witnesses)
    assert listed >= 500 and exact >= 200, (listed, exact)


def test_minors_of_other_matrices_are_incomplete_exactly_at_the_circuit_cap():
    capped = 0
    for m in _antichain_matrices(1718, 15):
        total = len(_minor_circuits(m))
        full = {w.removed_columns for w in enumerate_circulant_minors(m).witnesses}
        for cap in sorted({1, 2, total, total + 1} - {0}):
            enum = enumerate_circulant_minors(m, max_count=cap)
            assert enum.complete == (total < cap), (m, cap)
            assert {w.removed_columns for w in enum.witnesses} <= full
            capped += not enum.complete
    assert capped >= 30, capped


def test_minor_circuits_are_built_and_classified_once(monkeypatch):
    """On the unit circulant (16,7) less its row 2, `enumerate_circuits`
    builds one ClosedPath per circuit it returns, `classify_nodes` runs once
    per circuit handed to `extract_minor` (`bad_arcs` reads the classes off
    the blocks), and no row support is built as a set."""
    from circover.matrices import CircularMatrix

    counts = dict.fromkeys(["built", "returned", "extracted", "classified", "supports"], 0)

    def counting(key, call, size=lambda result: 1):
        def wrapper(*args, **kwargs):
            result = call(*args, **kwargs)
            counts[key] += size(result)
            return result
        return wrapper

    monkeypatch.setattr(ClosedPath, "__init__", counting("built", ClosedPath.__init__))
    monkeypatch.setattr(inequalities, "enumerate_circuits",
                        counting("returned", inequalities.enumerate_circuits,
                                 lambda enum: len(enum.circuits)))
    monkeypatch.setattr(inequalities, "extract_minor",
                        counting("extracted", inequalities.extract_minor))
    monkeypatch.setattr(inequalities, "classify_nodes",
                        counting("classified", inequalities.classify_nodes))
    monkeypatch.setattr(CircularMatrix, "support", counting("supports", CircularMatrix.support))
    m = circular_matrix(16, [(i, 7) for i in range(1, 17) if i != 2])
    assert len(enumerate_circulant_minors(m).witnesses) == 724
    assert counts["built"] == counts["returned"] == counts["extracted"] > 0, counts
    assert counts["classified"] == counts["extracted"], counts
    assert counts["supports"] == 0, counts


def test_minors_reject_dominating_rows():
    m = circular_matrix(6, [(1, 2), (1, 3), (3, 2), (4, 3), (5, 2)])
    for cap in (None, 1):
        with pytest.raises(BadParameters, match="minors need a matrix without dominating rows"):
            enumerate_circulant_minors(m, max_count=cap)


def test_facet_candidates_5_2_equal_the_hull():
    m = circulant_matrix(5, 2)
    enum = enumerate_facet_candidates(m, [1] * m.m)
    assert enum.complete
    hull = hull_facets(m, [1] * 5)
    assert {q.key() for q in enum.inequalities} == {q.key() for q in hull.facets}


def test_facet_candidates_alpha_two():
    m = circulant_matrix(5, 2)
    enum = enumerate_facet_candidates(m, [2] * m.m)
    assert enum.complete
    covers = enumerate_minimal_covers(m, [2] * 5)
    for q in enum.inequalities:
        assert check_validity(q, covers)
    keys = {q.key() for q in enum.inequalities}
    assert ((1, 1, 1, 1, 1), 5) in keys  # exact cover number at demand 2


def test_facet_candidates_with_dominating_rows_are_the_general_enumeration():
    # row (1, 3) contains row (1, 2): the two-valued circuit family does not
    # apply, so uniform demands get the full-digraph enumeration
    m = circular_matrix(6, [(1, 2), (1, 3), (4, 2)])
    for alpha in (1, 2):
        demands = [alpha] * m.m
        enum = enumerate_facet_candidates(m, demands)
        general = enumerate_candidates_general(m, demands)
        assert enum.complete and enum.circuits_seen == general.circuits_seen
        assert [(q.key(), q.kind, q.witness) for q in enum.inequalities] == [
            (q.key(), q.kind, q.witness) for q in general.inequalities
        ]


def test_general_candidates_cover_the_hull_of_mixed_demands():
    m = circulant_matrix(5, 2)
    demands = (2, 1, 1, 1, 1)
    enum = enumerate_candidates_general(m, demands)
    assert enum.complete
    hull = hull_facets(m, demands)
    keys = {q.key() for q in enum.inequalities}
    missing = [q for q in hull.facets if q.key() not in keys]
    assert not missing
    covers = enumerate_minimal_covers(m, demands)
    for q in enum.inequalities:
        assert check_validity(q, covers)


def _assert_minors_match(reference, orders, *, uncapped_window_n_minus_1=True):
    """Generated witnesses equal `reference`'s, in the same order, for every
    circulant of the given orders cut off by max_count 1, 3 and 10, and
    uncapped (for window n - 1 only if asked); returns the number of
    uncapped witnesses compared."""
    found = 0
    for n in orders:
        for k in range(2, n):
            circ = circulant_matrix(n, k)
            full = None
            if k < n - 1 or uncapped_window_n_minus_1:
                full = reference(circ)
                assert enumerate_circulant_minors(circ) == full, (n, k)
                found += len(full.witnesses)
            for cap in (1, 3, 10):
                # below the cap the reference runs the same full search
                if full is not None and len(full.witnesses) < cap:
                    want = full
                else:
                    want = reference(circ, max_count=cap)
                assert enumerate_circulant_minors(circ, max_count=cap) == want, (n, k, cap)
    return found


def test_circulant_minors_match_the_unfiltered_search():
    """The generated sets are exactly those the backtracking cover search
    accepts among all subsets, in the same order, for every circulant of
    order 5-13, also when cut off by max_count."""
    found = _assert_minors_match(unfiltered_circulant_minors, range(5, 14))
    assert found >= 500, found


def test_circulant_minors_match_the_subset_scan_at_orders_14_to_16():
    """Past order 13 the reference is the closure-filtered subset scan with
    the rotation test, which the generator replaced. The window n - 1, where
    every set of up to n - 3 columns qualifies, is compared only under the
    caps here: its 114,321 witnesses over the three orders, each certified
    on both sides, would take several times the rest of the test. It is
    compared uncapped up to order 13 above."""
    found = _assert_minors_match(
        scanned_circulant_minors, range(14, 17), uncapped_window_n_minus_1=False
    )
    assert found >= 10000, found


def test_translated_rotation_sets_equal_the_search_from_every_least_node():
    """The sets with least node 1, translated, against the level-wise search
    run from every least node: the same list in the same order for every
    (n, k, m, r) `enumerate_circulant_minors` asks for with n <= 18."""
    cases = 0
    for n in range(3, 19):
        for k in range(2, n):
            for m in range(1, n - 2):
                for r in range(1, k - 1):
                    if m * k <= r * n <= m * (k + 1):
                        want = lexicographic_rotation_sets(n, k, m, r)
                        assert inequalities._rotation_sets(n, k, m, r) == want, (n, k, m, r)
                        cases += 1
    assert cases == 555


def test_circulant_minors_are_listed_as_generated():
    """One r per size, certified in `_rotation_sets` order: the same
    witnesses in the same order as merging the rotation sets of every
    qualifying r and sorting them per size, for every circulant with
    n <= 18, uncapped and cut off by max_count 1, 7 and 50."""
    found = 0
    for n in range(3, 19):
        for k in range(2, n):
            circ = circulant_matrix(n, k)
            full = sorted_circulant_minors(circ)
            assert enumerate_circulant_minors(circ) == full, (n, k)
            found += len(full.witnesses)
            for cap in (1, 7, 50):
                want = sorted_circulant_minors(circ, max_count=cap)
                assert enumerate_circulant_minors(circ, max_count=cap) == want, (n, k, cap)
    assert found == 563058, found


def _wrong_match(matrix, removed):
    match = circulant_isomorphic(matrix, removed)
    return None if match is None else (match[0], match[1] + 1)


def test_minor_cross_check_raises(monkeypatch):
    monkeypatch.setattr(inequalities, "circulant_isomorphic", _wrong_match)
    with pytest.raises(CertificateError, match="does not leave the circulant"):
        enumerate_circulant_minors(circulant_matrix(8, 3))


def _wrong_from_call(k):
    """circulant_isomorphic whose k-th and later answers name a window one
    too large."""
    calls = []

    def fake(matrix, removed):
        calls.append(matrix)
        if len(calls) < k:
            return circulant_isomorphic(matrix, removed)
        return _wrong_match(matrix, removed)
    return fake


def _wrong_order(matrix, removed):
    match = circulant_isomorphic(matrix, removed)
    return None if match is None else (match[0] + 1, match[1])


def _order_5_circuit_of_7_3():
    m = circulant_matrix(7, 3)
    circuits = enumerate_circuits(build_digraph(m, restricted=True), min_winding=2).circuits
    return m, next(p for p in circuits if extract_minor(m, p).order == 5)


@pytest.mark.parametrize("fake, call, message", [
    (lambda: _wrong_from_call(1), extract_minor, "are not the circulant (5, 2)"),
    (lambda: _wrong_from_call(2), extract_minor, "does not leave the circulant (5, 2)"),
    (lambda: _wrong_order, lambda m, path: minor_inequalities(m, [1, 4]),
     "2 of 7 columns left a circulant of order 6"),
], ids=["essential rows", "full contraction", "minor order"])
def test_minor_checks_raise(monkeypatch, fake, call, message):
    m, path = _order_5_circuit_of_7_3()
    monkeypatch.setattr(inequalities, "circulant_isomorphic", fake())
    with pytest.raises(CertificateError) as info:
        call(m, path)
    assert message in str(info.value)


def test_minor_checks_survive_dash_O():
    script = """
import sys
sys.path.insert(0, sys.argv[1])  # the tests directory, for _helpers
from _helpers import minor_inequalities
from circover import (CertificateError, build_digraph, circulant_matrix,
                      enumerate_circuits, extract_minor)
assert False, "asserts must be stripped here"
module = sys.modules["circover.inequalities"]
true_match = module.circulant_isomorphic
m = circulant_matrix(7, 3)
circuits = enumerate_circuits(build_digraph(m, restricted=True), min_winding=2).circuits
path = next(p for p in circuits if extract_minor(m, p).order == 5)

def wrong_from_call(k):
    calls = []
    def fake(matrix, removed):
        calls.append(matrix)
        order, window = true_match(matrix, removed)
        return (order, window) if len(calls) < k else (order, window + 1)
    return fake

def wrong_order(matrix, removed):
    order, window = true_match(matrix, removed)
    return order + 1, window

for fake, call in [
    (wrong_from_call(1), lambda: extract_minor(m, path)),
    (wrong_from_call(2), lambda: extract_minor(m, path)),
    (wrong_order, lambda: minor_inequalities(m, [1, 4])),
]:
    module.circulant_isomorphic = fake
    try:
        call()
    except CertificateError as exc:
        print(exc)
"""
    code, out = run_python("-O", "-c", script, os.path.dirname(os.path.abspath(__file__)))
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 3, out
    assert "are not the circulant (5, 2)" in lines[0]
    assert "does not leave the circulant (5, 2)" in lines[1]
    assert "2 of 7 columns left a circulant of order 6" in lines[2]


def test_minor_certificate_survives_dash_O():
    script = """
import sys
from circover import CertificateError, circulant_matrix, enumerate_circulant_minors
assert False, "asserts must be stripped here"
module = sys.modules["circover.inequalities"]
module.circulant_isomorphic = lambda matrix, removed: None
try:
    enumerate_circulant_minors(circulant_matrix(8, 3))
except CertificateError as exc:
    print(exc)
"""
    code, out = run_python("-O", "-c", script)
    assert code == 0
    assert "does not leave the circulant (6, 2)" in out


def _tampered_block_structures():
    """A winding-2 circuit of the circulant (8,3) whose row 1 is bad, with
    its block structure tampered two ways: the winding raised by 2 (rows
    then jump too few essential nodes), and its circle block relabelled
    plain (row 1 stays bad where the criterion says good)."""
    m = circulant_matrix(8, 3)
    path = enumerate_circuits(build_digraph(m, restricted=True), min_winding=2).circuits[1]
    blocks = block_decomposition(m, path)
    assert bad_arcs(m, path, blocks) == (1,)
    plain = tuple(replace(b, kind="plain") for b in blocks.blocks)
    return m, path, [replace(blocks, winding=4), replace(blocks, blocks=plain)]


@pytest.mark.parametrize("case, message", [
    (0, "essential nodes at winding 4"),
    (1, "bad-row criterion failed on row 1"),
], ids=["jump count", "bad-row criterion"])
def test_bad_arcs_certificates_raise(case, message):
    m, path, tampered = _tampered_block_structures()
    with pytest.raises(CertificateError, match=message):
        bad_arcs(m, path, tampered[case])


def test_bad_arcs_certificates_survive_dash_O():
    script = """
from dataclasses import replace
from circover import (CertificateError, bad_arcs, block_decomposition, build_digraph,
                      circulant_matrix, enumerate_circuits)
assert False, "asserts must be stripped here"
m = circulant_matrix(8, 3)
path = enumerate_circuits(build_digraph(m, restricted=True), min_winding=2).circuits[1]
blocks = block_decomposition(m, path)
plain = tuple(replace(b, kind="plain") for b in blocks.blocks)
for tampered in [replace(blocks, winding=4), replace(blocks, blocks=plain)]:
    try:
        bad_arcs(m, path, tampered)
    except CertificateError as exc:
        print(exc)
"""
    code, out = run_python("-O", "-c", script)
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 2, out
    assert "essential nodes at winding 4" in lines[0]
    assert "bad-row criterion failed on row 1" in lines[1]


# Tamperings of a winding-2 circuit of the circulant (8,3): five forward row
# arcs and the forward short arc into column 1, so column 1 is a circle and
# the essential plain nodes are 2, 4, 5, 7 and 8. Each case sets the path's
# winding and, unless None, the (circles, crosses, essential) that
# classify_nodes hands to block_decomposition, and names the check that fails.
_BLOCK_TAMPERINGS = [
    (2, ({1, 2}, set(), {2, 4, 5, 7, 8}), "blocks overlap at column 2"),
    (2, (set(), set(), {2, 4, 5, 7, 8}),
     r"blocks cover columns \[2, 4, 5, 7, 8\], the circuit visits \[1, 2, 4, 5, 7, 8\]"),
    (2, (set(), set(), {1, 2, 4, 5, 7, 8}), "5 row arcs for 6 essential plain nodes"),
    (5, None, "5 essential plain nodes and winding 5 are not coprime"),
    (2, (set(), {1}, {2, 4, 5, 7, 8}),
     "the row arcs do not join each block's exit to the entry of the block 2 places"),
    (7, None, "row arc 2 jumps 2 essential plain nodes at winding 7"),
]


def _winding_2_circuit_of_8_3():
    m = circulant_matrix(8, 3)
    path = enumerate_circuits(build_digraph(m, restricted=True), min_winding=2).circuits[1]
    assert classify_nodes(path, 8).essential == {2, 4, 5, 7, 8}
    return m, path


@pytest.mark.parametrize("winding, classes, message", _BLOCK_TAMPERINGS,
                         ids=["overlap", "cover", "row arc count", "coprime",
                              "row arc ends", "jump count"])
def test_block_decomposition_certificates_raise(monkeypatch, winding, classes, message):
    from circover import inequalities
    from circover.inequalities import NodeClasses

    m, path = _winding_2_circuit_of_8_3()
    block_decomposition(m, path)
    path.winding = winding
    if classes is not None:
        circles, crosses, essential = map(frozenset, classes)
        tampered = NodeClasses(circles, crosses, frozenset(), essential)
        monkeypatch.setattr(inequalities, "classify_nodes", lambda p, n: tampered)
    with pytest.raises(CertificateError, match=message):
        block_decomposition(m, path)


def test_block_decomposition_certificates_survive_dash_O():
    script = f"""
import circover.inequalities as ineq
from circover import CertificateError, build_digraph, circulant_matrix, enumerate_circuits
from circover.inequalities import NodeClasses
assert False, "asserts must be stripped here"
m = circulant_matrix(8, 3)
path = enumerate_circuits(build_digraph(m, restricted=True), min_winding=2).circuits[1]
honest = ineq.classify_nodes
for winding, classes, _ in {_BLOCK_TAMPERINGS!r}:
    path.winding = winding
    ineq.classify_nodes = honest
    if classes is not None:
        circles, crosses, essential = map(frozenset, classes)
        tampered = NodeClasses(circles, crosses, frozenset(), essential)
        ineq.classify_nodes = lambda p, n: tampered
    try:
        ineq.block_decomposition(m, path)
    except CertificateError as exc:
        print(exc)
"""
    code, out = run_python("-O", "-c", script)
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == len(_BLOCK_TAMPERINGS), out
    for line, (_, _, message) in zip(lines, _BLOCK_TAMPERINGS):
        assert re.search(message, line), (message, line)


def _json_values_only(value) -> bool:
    if type(value) is dict:
        return all(type(k) is str and _json_values_only(v) for k, v in value.items())
    if type(value) is list:
        return all(_json_values_only(v) for v in value)
    return type(value) in (int, bool, str)


def test_witnesses_hold_json_values_and_are_written_as_built():
    """Every witness the library builds holds only ints, bools, strings,
    lists and dicts, so `inequality_json` writes it unconverted and equals
    what it wrote when it converted each witness (`_helpers.jsonable`):
    candidates of both enumerators on circulants and random matrices, every
    circuit inequality of the full digraph, minor inequalities in both modes
    and row family inequalities."""
    rng = random.Random(1115)
    ineqs = []
    for n in range(5, 10):
        for k in range(2, n):
            m = circulant_matrix(n, k)
            for alpha in (1, 2):
                ineqs += enumerate_facet_candidates(m, [alpha] * m.m).inequalities
            for w in enumerate_circulant_minors(m, max_count=12).witnesses:
                ineqs += [minor_inequalities(m, w), minor_inequalities(m, w, mode="rfi")]
            family = range(1, rng.randint(3, n + 1))    # consecutive rows overlap
            covers = enumerate_minimal_covers(m, [1] * n)
            ineqs.append(row_family_inequality(m, family, covers=covers).inequality)
    for _ in range(40):
        n = rng.randint(4, 7)
        pool = [(s, l) for s in range(1, n + 1) for l in range(2, n)]
        m = circular_matrix(n, rng.sample(pool, rng.randint(2, n)))
        demands = [rng.randint(0, 2) for _ in range(m.m)]
        ineqs += enumerate_candidates_general(m, demands).inequalities
        for path in enumerate_circuits(build_digraph(m), max_count=60).circuits:
            if path.winding >= 1:
                ineqs.append(circuit_inequality(m, demands, path))
        if not m.dominating_rows():
            ineqs += enumerate_facet_candidates(m, [rng.randint(1, 2)] * m.m).inequalities
    kinds = set()
    for q in ineqs:
        if q.witness is None:
            continue
        kinds.add(q.kind)
        assert _json_values_only(q.witness), (q.kind, q.witness)
        want = {"coeffs": list(q.coeffs), "rhs": q.rhs, "kind": q.kind,
                "witness": jsonable(q.witness)}
        got = inequality_json(q)
        assert got == want and json.dumps(got) == json.dumps(want)
    assert kinds == {"boolean", "circuit", "minor", "minor-rfi", "rfi"}, kinds


def test_inequality_json_writes_the_stored_ints_and_refuses_anything_else():
    """Coefficients and right-hand side are written as stored; a Fraction,
    integral or not, a bool or a float is BadParameters, never truncated."""
    q = LinearInequality((2, 0, 1), 3, "x")
    assert inequality_json(q) == {"coeffs": [2, 0, 1], "rhs": 3, "kind": "x"}
    for coeffs, rhs in [((F(1, 2), F(3, 2)), F(5, 2)), ((1, 1), F(2)), ((1, True), 1),
                        ((1, 1.0), 1), ((1, 1), 1.5)]:
        with pytest.raises(BadParameters, match="must be ints"):
            inequality_json(LinearInequality(coeffs, rhs, "x"))


def test_built_inequalities_are_already_normalized():
    """Non-negativity, the rows, the candidate lists' rank row and the hull
    facets are built without a gcd division, so each must already be
    primitive: `cli._cmd_verify` compares hull facets by their own keys.
    Every unit circulant with 4 <= n <= 9, and 60 seeded random circular
    matrices with n 4-9 and demands 0-3. A hull ray left undivided by its
    gcd shows here."""
    rng = random.Random(3030)
    instances = [(circulant_matrix(n, k), [1] * n) for n in range(4, 10) for k in range(2, n)]
    for _ in range(60):
        n = rng.randint(4, 9)
        pool = [(s, l) for s in range(1, n + 1) for l in range(2, n)]
        m = circular_matrix(n, rng.sample(pool, rng.randint(2, n)))
        instances.append((m, [rng.randint(0, 3) for _ in range(m.m)]))
    kinds = set()
    for m, demands in instances:
        ineqs = [*nonnegativity(m.n), *row_inequalities(m, demands)]
        ineqs += hull_facets(m, demands).facets
        for enum in (enumerate_facet_candidates, enumerate_candidates_general):
            cands = enum(m, demands, max_circuits=200).inequalities
            ineqs += [q for q in cands if q.kind == "rank"]
        for q in ineqs:
            kinds.add(q.kind)
            assert q.normalized().key() == q.key(), (q, demands)
    assert kinds == {"nonneg", "boolean", "rank", "hull"}
