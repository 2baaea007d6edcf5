"""Acceptance suite: nine end-to-end criteria, one verdict line each.

Everything here runs in exact rational arithmetic against the built-in
brute-force oracle; there are no tolerances anywhere. The small grid of
circulants (orders 4 through 9, all window sizes) is fully enumerable at
desk scale, which is what makes oracle-backed acceptance possible.
"""

import random
import time
from fractions import Fraction as F
from itertools import combinations, product

from _helpers import (check_validity, frozenset_contract, membership, two_valued_inequality,
                      walk_circulant_isomorphic)

from circover import (
    InfeasiblePoint,
    NoEssentialBullets,
    bad_arcs,
    block_decomposition,
    build_digraph,
    check_facet,
    circuit_inequality,
    circulant_matrix,
    circular_matrix,
    classify_nodes,
    cover_number,
    enumerate_circuits,
    enumerate_circulant_minors,
    enumerate_facet_candidates,
    enumerate_minimal_covers,
    extract_minor,
    hull_facets,
    make_inequality,
    nonnegativity,
    optimize,
    row_inequalities,
    separate,
    solve_lp,
)
from circover.digraph import FORWARD_ROW, REVERSE_ROW
from circover.separation import assign_costs

GRID = [(n, k) for n in range(4, 10) for k in range(2, n - 1)]


def grid_matrix(n, k):
    return circulant_matrix(n, k)


# --- 1: the full outer description, reproduced from circuits ---------------


def test_acceptance_1_complete_description(acceptance):
    t0 = time.time()
    mismatches = []
    circuit_facets = 0
    for n, k in GRID:
        m = grid_matrix(n, k)
        ones = [1] * n
        hull = {q.normalized().key() for q in hull_facets(m, ones).facets}
        union = {q.key() for q in nonnegativity(n)}
        union |= {q.key() for q in row_inequalities(m, ones)}
        covers = enumerate_minimal_covers(m, ones)
        dig = build_digraph(m, restricted=True)
        for path in enumerate_circuits(dig, min_winding=1).circuits:
            ineq = circuit_inequality(m, ones, path)
            if ineq.witness["redundant"]:
                continue
            ref = two_valued_inequality(m, path, 1)
            if ref is None or ineq.key() != ref.key():
                mismatches.append((n, k, "two-valued form", path.descriptor()))
            try:
                if any(bad_arcs(m, path)):
                    continue
            except NoEssentialBullets:
                continue
            if check_facet(ineq, covers):
                union.add(ineq.normalized().key())
                circuit_facets += 1
        if hull != union:
            mismatches.append((n, k, sorted(hull ^ union)))
    elapsed = time.time() - t0
    ok = not mismatches and elapsed < 300
    acceptance(
        f"ACCEPTANCE 1 (complete outer description): {'PASS' if ok else 'FAIL'} "
        f"- {len(GRID)} instances, {circuit_facets} circuit-derived facets, "
        f"0 tolerance, {elapsed:.1f}s"
    )
    assert not mismatches, mismatches[:3]
    assert elapsed < 300


# --- 2: uniform demands above one ------------------------------------------


def test_acceptance_2_uniform_demand_hulls(acceptance):
    t0 = time.time()
    missing = []
    pairs = 0
    for n in range(4, 8):
        for k in range(2, n - 1):
            m = grid_matrix(n, k)
            for alpha in (2, 3):
                pairs += 1
                hull = {q.normalized().key() for q in hull_facets(m, [alpha] * n).facets}
                cand = enumerate_facet_candidates(m, [alpha] * m.m)
                assert cand.complete
                have = {q.normalized().key() for q in cand.inequalities}
                gap = hull - have
                if gap:
                    missing.append((n, k, alpha, sorted(gap)))
    elapsed = time.time() - t0
    ok = not missing
    acceptance(
        f"ACCEPTANCE 2 (demand-2 and demand-3 hull coverage): {'PASS' if ok else 'FAIL'} "
        f"- {pairs} instance/demand pairs, every hull facet matched, {elapsed:.1f}s"
    )
    assert not missing, missing[:3]


# --- 3: the covering number formula ----------------------------------------


def test_acceptance_3_cover_number_formula(acceptance):
    t0 = time.time()
    wrong = []
    for n, k in GRID:
        res = optimize(grid_matrix(n, k), [1] * n, [1] * n)
        if res.value != -(-n // k):
            wrong.append((n, k, res.value))
    elapsed = time.time() - t0
    ok = not wrong
    acceptance(
        f"ACCEPTANCE 3 (cover number equals ceil(n/k)): {'PASS' if ok else 'FAIL'} "
        f"- {len(GRID)} grid values, exact, {elapsed:.1f}s"
    )
    assert not wrong, wrong


# --- 4: when the rank inequality is a facet ---------------------------------


def test_acceptance_4_rank_facet_condition(acceptance):
    t0 = time.time()
    wrong = []
    for n, k in GRID:
        m = grid_matrix(n, k)
        covers = enumerate_minimal_covers(m, [1] * n)
        rank = make_inequality([1] * n, cover_number(n, k), "rank")
        if check_facet(rank, covers) != (n % k != 0):
            wrong.append((n, k))
    elapsed = time.time() - t0
    ok = not wrong
    acceptance(
        f"ACCEPTANCE 4 (rank facet iff n mod k nonzero): {'PASS' if ok else 'FAIL'} "
        f"- {len(GRID)} grid instances, {elapsed:.1f}s"
    )
    assert not wrong, wrong


# --- 5: separation agrees with the oracle -----------------------------------


def _sampler(matrix, demands):
    """Random rational points of the fractional relaxation.

    Cover combinations drifted toward fractional vertices; some samples
    leave the relaxation and are simply discarded by the caller.
    """
    rows = [matrix.row_vector(i) for i in range(1, matrix.m + 1)]
    base = solve_lp([1] * matrix.n, rows, demands).point

    def sample(rng, covers):
        n = matrix.n
        picks = rng.sample(range(len(covers)), rng.randint(1, min(3, len(covers))))
        weights = [F(rng.randint(1, 6)) for _ in picks]
        tot = sum(weights)
        x = [
            sum(weights[t] * covers[picks[t]][j] for t in range(len(picks))) / tot
            for j in range(n)
        ]
        move = rng.random()
        if move < 0.25:
            scale = F(rng.randint(5, 9), 10)
            x = [v * scale for v in x]
        elif move < 0.5:
            j = rng.randrange(n)
            x[j] = x[j] + F(rng.randint(1, 3), 4)
        elif move < 0.75:
            lam = F(rng.randint(1, 4), 4)
            x = [lam * v + (1 - lam) * u for v, u in zip(base, x)]
        elif move < 0.95:
            obj = [rng.randint(1, 9) for _ in range(n)]
            vert = solve_lp(obj, rows, demands).point
            lam = F(rng.randint(1, 4), 4)
            x = [lam * v + (1 - lam) * u for v, u in zip(vert, x)]
        return x

    return sample


def test_acceptance_5_separation_oracle_agreement(acceptance):
    cases = [
        (circulant_matrix(5, 2), [1] * 5),
        (circulant_matrix(7, 3), [1] * 7),
        (circulant_matrix(8, 3), [1] * 8),
        (circulant_matrix(9, 4), [1] * 9),
        (circulant_matrix(7, 3), [2] * 7),
        (circular_matrix(7, [(1, 3), (2, 5), (5, 5)]), [1, 1, 1]),
        (circulant_matrix(6, 2), [2] * 6),  # integral hull: every query is a member
    ]
    t0 = time.time()
    failures = []
    queries = cuts = 0
    for m, b in cases:
        covers = enumerate_minimal_covers(m, b)
        sample = _sampler(m, b)
        rng = random.Random(411)
        checked = 0
        while checked < 100:
            x = sample(rng, covers)
            try:
                res = separate(m, b, x)
            except InfeasiblePoint:
                continue
            checked += 1
            queries += 1
            inside = membership(x, covers)
            if (res.verdict == "member") != inside:
                failures.append(("verdict", m.rows, tuple(x)))
            if res.verdict == "violated":
                cuts += 1
                if not check_validity(res.inequality, covers):
                    failures.append(("invalid cut", m.rows, tuple(x)))
                slack = res.inequality.evaluate(x)
                if not (slack < 0 and slack == res.certificate):
                    failures.append(("certificate", m.rows, tuple(x), slack, res.certificate))
    elapsed = time.time() - t0
    ok = not failures and cuts > 0
    acceptance(
        f"ACCEPTANCE 5 (separation vs oracle, slack==cost): {'PASS' if ok else 'FAIL'} "
        f"- {queries} queries over {len(cases)} instances, {cuts} violated, "
        f"all certificates exact, {elapsed:.1f}s"
    )
    assert not failures, failures[:3]
    assert cuts > 0


# --- 6: the worked micro-instance -------------------------------------------


def test_acceptance_6_half_point_micro_instance(acceptance):
    m = circulant_matrix(5, 2)
    res = separate(m, [1] * 5, [F(1, 2)] * 5)
    ok = (
        res.verdict == "violated"
        and res.inequality.coeffs == (1, 1, 1, 1, 1)
        and res.inequality.rhs == 3
        and res.certificate == F(-1, 2)
    )
    acceptance(
        f"ACCEPTANCE 6 (pentagon half point): {'PASS' if ok else 'FAIL'} "
        f"- cut sum(x) >= 3, certificate {res.certificate}"
    )
    assert ok, (res.verdict, res.inequality, res.certificate)


# --- 7: optimizer equals brute force ----------------------------------------


def _random_instance(rng):
    n = rng.randint(3, 8)
    pool = [(s, l) for s in range(1, n + 1) for l in range(2, n)]
    rows = rng.sample(pool, rng.randint(2, n))
    m = circular_matrix(n, rows)
    b = [rng.randint(1, 3) for _ in rows]
    w = [F(rng.randint(0, 8), rng.randint(1, 4)) for _ in range(n)]
    return m, b, w


def _brute_force_key(matrix, demands, weights):
    """The least (value, coordinate sum, point) over all integer covers."""
    n = matrix.n
    supports = [matrix.support(i) for i in range(1, matrix.m + 1)]
    # a coordinate never needs to exceed the largest demand of a row using it
    tops = [
        max([d for s, d in zip(supports, demands) if j in s], default=0)
        for j in range(1, n + 1)
    ]
    # lowering a coordinate above its top keeps the cover and shrinks the
    # sum at no extra cost, so the least key lies inside the box
    best = None
    for x in product(*[range(t + 1) for t in tops]):
        if any(sum(x[j - 1] for j in s) < d for s, d in zip(supports, demands)):
            continue
        key = (sum(w * t for w, t in zip(weights, x)), sum(x), x)
        if best is None or key < best:
            best = key
    return best


def test_acceptance_7_optimizer_equals_brute_force(acceptance):
    t0 = time.time()
    rng = random.Random(20260822)
    mismatches = []
    for _ in range(50):
        m, b, w = _random_instance(rng)
        res = optimize(m, b, w)
        got = (res.value, res.beta, res.point)
        ref = _brute_force_key(m, b, w)
        if got != ref:
            mismatches.append((m.rows, b, w, got, ref))
    elapsed = time.time() - t0
    ok = not mismatches and elapsed < 120
    acceptance(
        f"ACCEPTANCE 7 (optimize vs box enumeration): {'PASS' if ok else 'FAIL'} "
        f"- 50 seeded instances, n<=8, demands<=3, exact value, sum and lexmin "
        f"point, {elapsed:.1f}s"
    )
    assert not mismatches, mismatches[:2]
    assert elapsed < 120


# --- 8: structural invariants, exhaustively ----------------------------------


def test_acceptance_8_structural_invariants(acceptance):
    t0 = time.time()
    rng = random.Random(5)
    violations = []
    circuits_checked = 0
    minors_checked = 0
    points_checked = 0

    for n, k in GRID:
        m = grid_matrix(n, k)
        b = [1] * n
        dig_full = build_digraph(m, restricted=False)
        dig_rest = build_digraph(m, restricted=True)
        full = enumerate_circuits(dig_full).circuits
        rest = enumerate_circuits(dig_rest, min_winding=1).circuits

        # net jump count at every column equals the winding number
        for path in full:
            circuits_checked += 1
            p = path.winding
            if sum(a.length for a in path.arcs) != p * n:
                violations.append(("winding", n, k, path))
            for j in range(1, n + 1):
                net = sum(
                    (1 if a.is_forward else -1)
                    for a in path.arcs
                    if a.jump_mask >> (j - 1) & 1
                )
                if net != p:
                    violations.append(("jumps", n, k, j, path))
                    break

        # slack splits into complementary forward/reverse costs, and the
        # restricted digraph finds exactly the negative minima of the full one
        covers = enumerate_minimal_covers(m, b)
        rows = [m.row_vector(i) for i in range(1, m.m + 1)]
        vert = solve_lp([1] * n, rows, b).point
        pts = [[F(1, 2)] * n, list(vert)]
        for _ in range(2):
            cv = covers[rng.randrange(len(covers))]
            lam = F(rng.randint(1, 3), 4)
            pts.append([lam * v + (1 - lam) * u for v, u in zip(vert, cv)])
        for x in pts:
            try:
                costs = assign_costs(m, b, x)
            except InfeasiblePoint:
                continue
            points_checked += 1
            dd = costs.scale * costs.scale
            slack = [sum(c * v for c, v in zip(r, x)) - bi for r, bi in zip(rows, b)] + x
            for slot in range(m.m + n):
                if costs.scaled_forward[slot] + costs.scaled_reverse[slot] != dd * slack[slot]:
                    violations.append(("cost split", n, k, slot, tuple(x)))
                    break
            if costs.gap == 0:
                continue
            min_full = min(costs.path_cost(pp) for pp in full)
            min_rest = min(
                (costs.path_cost(pp) for pp in enumerate_circuits(dig_rest).circuits),
            )
            if (min_full < 0) != (min_rest < 0):
                violations.append(("elimination sign", n, k, tuple(x)))
            if min_full < 0 and min_full != min_rest:
                violations.append(("elimination value", n, k, min_full, min_rest))

        # circuit anatomy in the reverse-row-free digraph: node classes,
        # blocks, bad arc counts, extracted minors, and the collapsed
        # two-coefficient form (library internals assert the fine detail)
        for path in rest:
            p = path.winding
            classes = classify_nodes(path, n)
            s = sum(1 for a in path.arcs if a.kind == FORWARD_ROW)
            try:
                blocks = block_decomposition(m, path)
            except NoEssentialBullets:
                blocks = None
            if blocks is not None:
                bad = bad_arcs(m, path, blocks)
                if p >= 2:
                    witness = extract_minor(m, path)
                    minors_checked += 1
                    if witness.exact != (not bad):
                        violations.append(("minor exactness", n, k, path))
                    if witness.order != s or witness.window != p:
                        violations.append(("minor shape", n, k, path))
                    if witness.exact:
                        match = walk_circulant_isomorphic(
                            frozenset_contract(m, witness.removed_columns)
                        )
                        if match is None or (match.order, match.window) != (s, p):
                            violations.append(("minor contraction", n, k, path))
            for alpha in (1, 2):
                ref = two_valued_inequality(m, path, alpha)
                gen = circuit_inequality(m, [alpha] * n, path)
                if gen.witness["redundant"] != (ref is None) or (
                        ref is not None and ref.key() != gen.key()):
                    violations.append(("two-coefficient form", n, k, alpha, path))

    elapsed = time.time() - t0
    ok = not violations
    acceptance(
        f"ACCEPTANCE 8 (structural invariants): {'PASS' if ok else 'FAIL'} "
        f"- {circuits_checked} circuits, {minors_checked} minors, "
        f"{points_checked} cost splits, 0 violations required, {elapsed:.1f}s"
    )
    assert not violations, violations[:3]


# --- 9: minor enumeration matches exhaustive search --------------------------


def test_acceptance_9_minor_enumeration(acceptance):
    t0 = time.time()
    disagreements = []
    instances = 0
    witnesses = 0
    for n in range(4, 11):
        for k in range(2, n - 1):
            instances += 1
            circ = circulant_matrix(n, k)
            enum = enumerate_circulant_minors(circ)
            assert enum.complete
            got = {(w.removed_columns, w.order, w.window) for w in enum.witnesses}
            witnesses += len(got)
            expected = set()
            for size in range(1, n - 2):
                for N in combinations(range(1, n + 1), size):
                    match = walk_circulant_isomorphic(frozenset_contract(circ, N))
                    if match is not None:
                        expected.add((tuple(N), match.order, match.window))
            if got != expected:
                disagreements.append((n, k, sorted(got ^ expected)[:4]))
    elapsed = time.time() - t0
    ok = not disagreements
    acceptance(
        f"ACCEPTANCE 9 (circulant minor enumeration): {'PASS' if ok else 'FAIL'} "
        f"- {instances} instances to order 10, {witnesses} witnesses, "
        f"set equality with exhaustive search, {elapsed:.1f}s"
    )
    assert not disagreements, disagreements[:3]
