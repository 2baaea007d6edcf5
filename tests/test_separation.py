import math
import random
import sys
from dataclasses import replace
from fractions import Fraction as F

import pytest

from _helpers import (
    INFEASIBLE_POINT,
    check_validity,
    fraction_costs,
    fraction_negative_circuit,
    fraction_solve_lp,
    membership,
    path_cost,
    recording,
    reraise_unless,
)
from test_cli import run_python

from circover import (
    BadParameters,
    BudgetExceeded,
    CertificateError,
    ClosedPath,
    LPResult,
    assign_costs,
    build_digraph,
    circulant_matrix,
    circular_matrix,
    cut_loop,
    enumerate_minimal_covers,
    load_instance,
    negative_circuit,
    parse_rational_vector,
    separate,
)
from circover import lp, separation
from circover.rationals import parse_scaled_vector, scaled_to_integers

HALF5 = (F(1, 2),) * 5


def test_cost_split_on_the_half_point():
    """Every number here is worked out by hand for the 5-cycle window-2
    instance at x = (1/2,...,1/2): all row slacks vanish, column slacks are
    1/2, the fractional gap is 1/2, and rows 4 and 5 are the ones whose
    support contains the last column."""
    m = circulant_matrix(5, 2)
    costs = assign_costs(m, [1] * 5, HALF5)
    assert costs.gap == F(1, 2)
    assert costs.scale == 2
    # forward costs (0, 0, 0, -1/4, -1/4, 1/4, 1/4, 1/4, 1/4, 0), reverse
    # costs (0, 0, 0, 1/4, 1/4, 1/4, 1/4, 1/4, 1/4, 1/2), each times D^2 = 4
    assert costs.scaled_forward == (0, 0, 0, -1, -1, 1, 1, 1, 1, 0)
    assert costs.scaled_reverse == (0, 0, 0, 1, 1, 1, 1, 1, 1, 2)
    # their sum is the slack (0, 0, 0, 0, 0, 1/2, 1/2, 1/2, 1/2, 1/2) times 4
    split = [f + r for f, r in zip(costs.scaled_forward, costs.scaled_reverse)]
    assert split == [0, 0, 0, 0, 0, 2, 2, 2, 2, 2]


def test_negative_circuit_on_the_half_point():
    m = circulant_matrix(5, 2)
    d = build_digraph(m)
    costs = assign_costs(m, [1] * 5, HALF5)
    cyc = negative_circuit(d, costs)
    assert cyc is not None
    assert path_cost(costs, cyc) == F(-1, 2)
    # pure row circuit winding twice around
    assert all(a.kind == "forward-row" for a in cyc.arcs)
    assert cyc.winding == 2


def test_separate_half_point():
    m = circulant_matrix(5, 2)
    res = separate(m, [1] * 5, HALF5)
    assert res.verdict == "violated"
    assert res.inequality.coeffs == (1, 1, 1, 1, 1)
    assert res.inequality.rhs == 3
    assert res.certificate == F(-1, 2)
    # certificate = inequality slack = circuit cost, all three exactly
    assert res.inequality.evaluate(HALF5) == F(-1, 2)
    assert path_cost(res.costs, res.circuit) == F(-1, 2)


def test_separate_third_point_of_7_3():
    x = (F(1, 3),) * 7
    m = circulant_matrix(7, 3)
    res = separate(m, [1] * 7, x)
    assert res.verdict == "violated"
    assert res.certificate == F(-2, 3)
    assert res.inequality.coeffs == (1,) * 7 and res.inequality.rhs == 3


def test_integral_sum_short_circuits_to_member():
    m = circulant_matrix(5, 2)
    x = (F(1, 2), F(1, 2), F(1, 2), F(1, 2), F(1))  # sums to 3
    res = separate(m, [1] * 5, x)
    assert res.verdict == "member"
    assert res.costs.gap == 0
    covers = enumerate_minimal_covers(m, [1] * 5)
    assert membership(x, covers)


def test_member_with_fractional_sum():
    m = circulant_matrix(5, 2)
    x = (F(7, 10), F(7, 10), F(7, 10), F(7, 10), F(7, 10))  # above the rank facet
    res = separate(m, [1] * 5, x)
    assert res.verdict == "member"
    d = build_digraph(m)
    assert negative_circuit(d, assign_costs(m, [1] * 5, x)) is None


def test_infeasible_points_are_rejected():
    m = circulant_matrix(5, 2)
    with pytest.raises(BadParameters, match="^row 1 is short by "):
        separate(m, [1] * 5, (0, 0, 1, 1, 1))
    with pytest.raises(BadParameters, match="^column 2 is negative: "):
        # rows all covered, column 2 dips below zero
        separate(m, [1] * 5, (2, F(-1, 4), 2, 1, 1))
    # a short row is reported before a negative column
    with pytest.raises(BadParameters, match=r"^row 1 is short by 1/3$"):
        separate(m, [1] * 5, (F(-1, 3), 1, 0, 1, 1))
    with pytest.raises(BadParameters, match=r"^column 1 is negative: -1/3$"):
        separate(m, [1] * 5, (F(-1, 3), F(4, 3), 0, 1, F(4, 3)))


def _random_relaxation_point(rng, covers, n):
    picks = rng.sample(range(len(covers)), rng.randint(1, min(3, len(covers))))
    weights = [F(rng.randint(1, 6)) for _ in picks]
    tot = sum(weights)
    x = [
        sum(weights[t] * covers[picks[t]][j] for t in range(len(picks))) / tot
        for j in range(n)
    ]
    move = rng.random()
    if move < 0.4:
        scale = F(rng.randint(5, 9), 10)
        x = [v * scale for v in x]
    elif move < 0.7:
        j = rng.randrange(n)
        x[j] = x[j] + F(rng.randint(1, 3), 4)
    return x


@pytest.mark.parametrize("mk", [
    lambda: circulant_matrix(5, 2),
    lambda: circulant_matrix(7, 3),
    lambda: circular_matrix(7, [(1, 3), (2, 5), (5, 5)]),
])
def test_verdicts_agree_with_the_oracle(mk):
    m = mk()
    demands = [1] * m.m
    covers = enumerate_minimal_covers(m, demands)
    rng = random.Random(77)
    checked = 0
    while checked < 40:
        x = _random_relaxation_point(rng, covers, m.n)
        try:
            res = separate(m, demands, x)
        except BadParameters as exc:
            reraise_unless(exc, INFEASIBLE_POINT)
            continue
        checked += 1
        inside = membership(x, covers)
        assert (res.verdict == "member") == inside
        if res.verdict == "violated":
            assert check_validity(res.inequality, covers)
            assert res.inequality.evaluate(x) < 0
            assert res.inequality.evaluate(x) == res.certificate


def test_cut_loop_reaches_the_integer_optimum():
    m = circulant_matrix(5, 2)
    res = cut_loop(m, [1] * 5, [1] * 5)
    assert res.value == 3
    assert len(res.steps) == 2
    assert res.steps[0].value == F(5, 2)  # plain relaxation optimum
    assert res.steps[0].inequality.rhs == 3
    assert res.steps[-1].inequality is None


def test_cut_loop_weighted():
    m = circulant_matrix(5, 2)
    res = cut_loop(m, [1] * 5, [1, 1, 1, 1, 2])
    assert res.value == 3
    m73 = circulant_matrix(7, 3)
    assert cut_loop(m73, [1] * 7, [1] * 7).value == 3


def test_cut_loop_guards():
    m = circulant_matrix(5, 2)
    with pytest.raises(BadParameters, match="^negative weight -1$"):
        cut_loop(m, [1] * 5, [1, 1, 1, 1, -1])
    zero = cut_loop(m, [1] * 5, [0] * 5)
    assert zero.value == 0 and zero.steps == ()
    with pytest.raises(BudgetExceeded, match="^no convergence within 1 rounds$"):
        cut_loop(m, [1] * 5, [1] * 5, max_rounds=1)


def test_cut_loop_rounds_below_one_raise():
    m = circulant_matrix(5, 2)
    for rounds in (0, -1):
        with pytest.raises(BadParameters, match="max_rounds"):
            cut_loop(m, [1] * 5, [1] * 5, max_rounds=rounds)


def _random_matrix(rng, n, rows):
    pool = [(s, l) for s in range(1, n + 1) for l in range(2, n)]
    return circular_matrix(n, rng.sample(pool, rows))


def _cut_loop_cases(rng):
    """(matrix, demands, weights): circulants (n, k), k not dividing n, with
    unit or rational weights, and random circular matrices with n rows of
    length 2-5, n 5-20."""
    weights = (1, 2, 3, F(1, 2), F(3, 2), F(5, 3))
    pairs = [(n, k) for n in range(5, 21) for k in range(2, n - 1) if n % k]
    for n, k in rng.sample(pairs, 12):
        w = [rng.choice(weights) for _ in range(n)] if rng.random() < 0.5 else [1] * n
        yield circulant_matrix(n, k), [1] * n, w
    for _ in range(12):
        n = rng.randint(5, 20)
        pool = [(s, l) for s in range(1, n + 1) for l in range(2, min(5, n - 2) + 1)]
        m = circular_matrix(n, rng.sample(pool, n))
        yield m, [rng.randint(1, 2) for _ in range(n)], [rng.choice(weights) for _ in range(n)]


def test_cut_loop_replays_the_fraction_simplex(monkeypatch):
    """Every cut_loop step (point, value, cut, certificate) equals the one
    cut_loop takes on the Fraction reference simplex, after the same pivots;
    the cut rows are ints, so after every pivot each tableau entry over the
    common denominator equals the reference's (the cost row, scaled by the
    weights' lcm, is compared in test_lp)."""
    rounds = 0
    for m, b, w in _cut_loop_cases(random.Random(5)):
        log, ref_log = [], []
        with monkeypatch.context() as patch:
            patch.setattr(lp, "_pivot", recording(log))
            result = cut_loop(m, b, w)
        with monkeypatch.context() as patch:
            patch.setattr(separation, "solve_lp", lambda w, rows, rhs: fraction_solve_lp(
                w, rows, [">="] * len(rows), rhs, log=ref_log))
            ref = cut_loop(m, b, w)
        assert result == ref, (m, b, w)
        assert [(r, c, tab[:-1]) for r, c, tab in log] == \
            [(r, c, tab[:-1]) for r, c, tab in ref_log], (m, b, w)
        rounds += len(result.steps)
    assert rounds >= 30, rounds


def _random_cover(rng, m, demands):
    """An integer point covering every row of m at its demand."""
    x = [rng.choice((0, 0, 1, 2)) for _ in range(m.n)]
    for i in range(1, m.m + 1):
        cols = sorted(m.support(i))
        while sum(x[j - 1] for j in cols) < demands[i - 1]:
            x[rng.choice(cols) - 1] += 1
    return x


def _replay_cases(rng, count):
    """(matrix, demands, point) triples: violated circulant points 1/k, k not
    dividing n, with bumps below the rank gap, and convex combinations of
    integer covers of random circular matrices, which are members."""
    cases = []
    while len(cases) < count:
        n = rng.randint(5, 40)
        if len(cases) % 2 == 0:
            k = rng.choice([k for k in range(2, n) if n % k])
            x = [F(1, k)] * n
            room = F(-(-n // k)) - F(n, k)
            for _ in range(rng.randint(0, 3)):
                bump = room * F(rng.randint(1, 5), 7 * rng.randint(2, 9))
                x[rng.randrange(n)] += bump
                room -= bump
            cases.append((circulant_matrix(n, k), [1] * n, x))
        else:
            m = _random_matrix(rng, n, rng.randint(3, 2 * n))
            demands = [rng.randint(1, 2) for _ in range(m.m)]
            covers = [_random_cover(rng, m, demands) for _ in range(rng.randint(2, 3))]
            lam = [rng.randint(1, 9) for _ in covers]
            x = [F(sum(t * c[j] for t, c in zip(lam, covers)), sum(lam)) for j in range(n)]
            cases.append((m, demands, x))
    return cases


def test_kernel_replays_the_fraction_sweep():
    """The integer kernel returns the very circuit (or None) of the Fraction
    Bellman-Ford it replaced, on a fixed stream of 240 queries."""
    rng = random.Random(2008)
    verdicts = {"violated": 0, "member": 0}
    for m, demands, x in _replay_cases(rng, 240):
        costs = assign_costs(m, demands, x)
        _, _, forward, reverse = fraction_costs(m, demands, x)
        d = build_digraph(m)
        got = negative_circuit(d, costs)
        assert got == fraction_negative_circuit(d, forward, reverse), (m, x)
        verdicts["member" if got is None else "violated"] += 1
    assert verdicts["violated"] >= 100 and verdicts["member"] >= 60, verdicts


def test_restricted_digraph_replays_the_fraction_sweep():
    """On the restricted digraph, whose costs skip the reverse row slots,
    the integer kernel also returns the circuit (or None) of the Fraction
    Bellman-Ford, at the 150 violated points of seeded circulants in a
    stream of `_replay_cases`."""
    rng = random.Random(20)
    violated = 0
    for m, demands, x in _replay_cases(rng, 300)[::2]:
        costs = assign_costs(m, demands, x)
        _, _, forward, reverse = fraction_costs(m, demands, x)
        d = build_digraph(m, restricted=True)
        got = negative_circuit(d, costs)
        assert got == fraction_negative_circuit(d, forward, reverse), (m, x)
        violated += got is not None
    assert violated == 150, violated


def test_assign_costs_matches_the_fraction_definition():
    """Field by field against the Fraction definition, on random matrices
    (rows wrapping past column n included) and points that are sometimes
    infeasible, where the infeasible-point message must be the same."""
    rng = random.Random(1980)
    wrapped = errors = 0
    for _ in range(300):
        n = rng.randint(3, 25)
        m = _random_matrix(rng, n, rng.randint(1, min(2 * n, n * (n - 2))))
        wrapped += any(start + length - 1 > n for start, length in m.rows)
        demands = [rng.randint(0, 3) for _ in range(m.m)]
        x = [F(rng.randint(-2, 30), rng.randint(1, 12)) for _ in range(n)]
        try:
            ref = fraction_costs(m, demands, x)
        except BadParameters as exc:
            reraise_unless(exc, INFEASIBLE_POINT)
            errors += 1
            with pytest.raises(BadParameters) as got:
                assign_costs(m, demands, x)
            assert str(got.value) == str(exc)
            continue
        costs = assign_costs(m, demands, x)
        slack, gap, forward, reverse = ref
        d = math.lcm(*(v.denominator for v in x))
        assert costs.scale == d
        assert costs.gap == gap
        assert tuple(F(c, d * d) for c in costs.scaled_forward) == forward
        assert tuple(F(c, d * d) for c in costs.scaled_reverse) == reverse
        assert tuple(F(f + r, d * d) for f, r in zip(costs.scaled_forward,
                                                     costs.scaled_reverse)) == slack
    assert wrapped > 100 and 30 < errors < 270, (wrapped, errors)


def test_certificate_mismatch_raises(monkeypatch):
    """A circuit inequality whose slack differs from the circuit cost is a
    CertificateError, never a reported cut."""
    module = sys.modules["circover.separation"]
    real = module.circuit_inequality
    monkeypatch.setattr(module, "circuit_inequality",
                        lambda *args: replace(real(*args), rhs=real(*args).rhs + 1))
    with pytest.raises(CertificateError, match="differs from the circuit cost"):
        separate(circulant_matrix(5, 2), [1] * 5, HALF5)


def test_separation_certificates_survive_dash_O():
    script = """
import sys
from dataclasses import replace
from fractions import Fraction
from circover import CertificateError, circulant_matrix, separate
assert False, "asserts must be stripped here"
module = sys.modules["circover.separation"]
real = module.circuit_inequality
module.circuit_inequality = lambda *args: replace(real(*args), rhs=real(*args).rhs + 1)
try:
    separate(circulant_matrix(5, 2), [1] * 5, [Fraction(1, 2)] * 5)
except CertificateError as exc:
    print(exc)
"""
    code, out = run_python("-O", "-c", script)
    assert code == 0
    assert "differs from the circuit cost" in out


def test_separate_builds_no_arc_objects_for_a_member(monkeypatch):
    """A member with a fractional coordinate sum runs the full Bellman-Ford
    kernel and builds no Arc; a violated point builds only its circuit's
    arcs, equal to those of the full arc list."""
    module = sys.modules["circover.separation"]
    built = []

    def capture(*args, **kwargs):
        built.append(build_digraph(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(module, "build_digraph", capture)
    m = circulant_matrix(5, 2)
    res = separate(m, [1] * 5, ["1", "1", "1", "1", "1/2"])
    assert res.verdict == "member" and res.costs.gap != 0
    res = separate(m, [1] * 5, HALF5)
    assert res.verdict == "violated"
    assert len(built) == 2 and not any("arcs" in d.__dict__ for d in built)
    assert all(a in built[1].arcs for a in res.circuit.arcs)


def test_a_violated_point_builds_one_closed_path(monkeypatch):
    """`negative_circuit` rotates the cycle's arc indices to the least tail
    before it builds the circuit, so a violated point of the unit circulant
    (8,3) builds one ClosedPath, which starts at its smallest node."""
    built = []
    init = ClosedPath.__init__

    def counting(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(ClosedPath, "__init__", counting)
    res = separate(circulant_matrix(8, 3), [1] * 8, [F(1, 3)] * 8)
    assert res.verdict == "violated"
    assert len(built) == 1 and built[0] is res.circuit
    assert res.circuit.arcs[0].tail == min(res.circuit.nodes)


def _zero_cost_circuit(digraph, costs):
    """The (5,2) circuit forward-row 2, forward-row 4, forward-short 1: at
    HALF5 its cost and its inequality's slack are both 0."""
    arcs = {(a.kind, a.index): a for a in digraph.arcs}
    return ClosedPath([arcs["forward-row", 2], arcs["forward-row", 4],
                       arcs["forward-short", 1]], digraph.n)


def test_unviolated_circuit_raises(monkeypatch):
    """A circuit whose cost equals its inequality's slack but is not
    negative is a CertificateError, never a reported cut."""
    monkeypatch.setattr(separation, "negative_circuit", _zero_cost_circuit)
    with pytest.raises(CertificateError, match=r"^circuit inequality is not violated: slack 0$"):
        separate(circulant_matrix(5, 2), [1] * 5, HALF5)


def test_cut_loop_rejects_an_infeasible_relaxation(monkeypatch):
    monkeypatch.setattr(separation, "solve_lp", lambda *args: LPResult("infeasible", None, None))
    with pytest.raises(CertificateError, match=r"^covering relaxation came back infeasible$"):
        cut_loop(circulant_matrix(5, 2), [1] * 5, [1] * 5)


def test_unviolated_circuit_and_infeasible_relaxation_survive_dash_O():
    script = """
from fractions import Fraction
from circover import CertificateError, ClosedPath, LPResult, circulant_matrix, cut_loop, separate
from circover import separation
assert False, "asserts must be stripped here"
def zero_cost_circuit(digraph, costs):
    arcs = {(a.kind, a.index): a for a in digraph.arcs}
    return ClosedPath([arcs["forward-row", 2], arcs["forward-row", 4],
                       arcs["forward-short", 1]], digraph.n)
separation.negative_circuit = zero_cost_circuit
separation.solve_lp = lambda *args: LPResult("infeasible", None, None)
m = circulant_matrix(5, 2)
for call in (lambda: separate(m, [1] * 5, [Fraction(1, 2)] * 5),
             lambda: cut_loop(m, [1] * 5, [1] * 5)):
    try:
        call()
    except CertificateError as exc:
        print(exc)
"""
    code, out = run_python("-O", "-c", script)
    assert code == 0
    assert out.splitlines() == ["circuit inequality is not violated: slack 0",
                                "covering relaxation came back infeasible"]


def _outcome(read, values):
    try:
        return read(values)
    except Exception as exc:
        return type(exc), str(exc)


def test_scaled_reader_matches_the_fraction_reader():
    """`parse_scaled_vector` gives the value, accepts, rejects and messages of
    `scaled_to_integers(parse_rational_vector(...))` on a seeded stream of
    vectors mixing plain, unreduced and loose spellings with values that
    every reader rejects."""
    good = ["2/4", "-6/8", "007/014", "-0", " 1/2", "+1", "1.5", "1_000", "\u0661\u0662",
            "3", "-5/7", 0, 4, -9, F(5, 6), F(-7, 4), "1" + "0" * 29 + "/3", 10 ** 30]
    bad = ["1/0", "0/0", "1/-2", "-", "1/", "\u00b2", True, False, 1.5, None]
    rng = random.Random(2017)
    accepted = rejected = 0
    for _ in range(3000):
        values = [rng.choice(good if rng.random() < 0.93 else bad)
                  for _ in range(rng.randint(0, 6))]
        if rng.random() < 0.1:
            values = tuple(values) if rng.random() < 0.5 else rng.choice(["1/2", None, {}])
        want = _outcome(lambda v: scaled_to_integers(parse_rational_vector(v)), values)
        got = _outcome(parse_scaled_vector, values)
        assert got == want, values
        if type(got[0]) is int:
            accepted += 1
            assert all(type(v) is int for v in got[1])
        else:
            rejected += 1
    assert accepted > 1500 and rejected > 500, (accepted, rejected)


def _spelled(rng, v):
    """v as a Fraction, an int, or a string over an unreduced denominator,
    sometimes padded so that it takes the Fraction(str) fallback."""
    k = rng.randint(1, 3)
    text = f"{v.numerator * k}/{v.denominator * k}"
    return rng.choice([v, text, f" {text}", v.numerator if v.denominator == 1 else text])


def test_int_certificate_equals_the_fraction_slack():
    """The certificate, checked in ints, equals LinearInequality.evaluate at
    the point and the circuit's Fraction cost: at seeded circulant points
    spelled several ways, and at points b/k plus bumps of seeded random
    circular matrices with rows of length k to k + 2."""
    rng = random.Random(31)
    cases = _replay_cases(rng, 120)
    for _ in range(300):
        n = rng.randint(5, 30)
        k = rng.randint(2, max(2, n // 2))
        pool = [(s, l) for s in range(1, n + 1) for l in range(k, min(k + 2, n - 1) + 1)]
        m = circular_matrix(n, rng.sample(pool, rng.randint(n // 2, min(len(pool), 2 * n))))
        b = rng.randint(1, 2)
        cases.append((m, [b] * m.m, [F(b, k) + F(rng.choice((0, 0, 0, 1)), 3 * k)
                                     for _ in range(n)]))
    violated = 0
    for m, demands, x in cases:
        res = separate(m, demands, [_spelled(rng, v) for v in x])
        assert res.costs.point == tuple(x)
        if res.verdict == "violated":
            violated += 1
            assert res.certificate == res.inequality.evaluate(x) < 0
            assert res.certificate == path_cost(res.costs, res.circuit)
    assert violated >= 90, violated


def _count_fractions(monkeypatch, call):
    """(call(), the number of Fractions built while it ran)."""
    real, built = F.__new__, []

    def counting(cls, *args, **kwargs):
        built.append(args)
        return real(cls, *args, **kwargs)

    monkeypatch.setattr(F, "__new__", counting)
    try:
        return call(), len(built)
    finally:
        monkeypatch.undo()


def test_separate_builds_no_fraction_per_coordinate(monkeypatch):
    """On a plain-spelling point, a member builds one Fraction (the gap) and
    a violated point two (the gap and the certificate), whatever n is."""
    n = 60
    m = circulant_matrix(n, 7)
    for point, verdict, most in ((["1/7"] * n, "violated", 2), (["2/7"] * n, "member", 1),
                                 ([1] * n, "member", 1)):
        res, built = _count_fractions(monkeypatch, lambda: separate(m, [1] * n, point))
        assert res.verdict == verdict and built <= most, (point[0], built)


def test_default_weights_build_one_fraction(monkeypatch):
    n = 60
    doc = {"n": n, "rows": [[i, 7] for i in range(1, n + 1)]}
    inst, built = _count_fractions(monkeypatch, lambda: load_instance(doc))
    assert built == 1
    assert inst.weights == (1,) * n and all(type(w) is F for w in inst.weights)
