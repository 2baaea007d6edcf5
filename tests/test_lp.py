import random
from collections import Counter
from fractions import Fraction as F
from math import lcm

import pytest
from _helpers import fraction_solve_lp, recording

from circover import BadParameters, lp, solve_lp


def test_tiny_minimization():
    # min x + y s.t. x + 2y >= 4, 3x + y >= 3, x,y >= 0
    res = solve_lp([F(1), F(1)], [[F(1), F(2)], [F(3), F(1)]], [F(4), F(3)])
    assert res.status == "optimal"
    assert res.value == F(11, 5)
    assert res.point == (F(2, 5), F(9, 5))


def test_maximization_via_negated_objective():
    # max 3x + 2y s.t. x + y <= 4, x <= 2, as min -3x - 2y with the two
    # rows negated: -x - y >= -4, -x >= -2
    res = solve_lp(
        [F(-3), F(-2)],
        [[F(-1), F(-1)], [F(-1), F(0)]],
        [F(-4), F(-2)],
    )
    assert res.status == "optimal"
    assert res.value == F(-10)
    assert res.point == (F(2), F(2))


def test_equality_rows_as_pairs():
    # x + y + z = 3 and x - z = 1, each as a >= row and its negation
    res = solve_lp(
        [F(1), F(2), F(0)],
        [[F(1), F(1), F(1)], [F(-1), F(-1), F(-1)], [F(1), F(0), F(-1)], [F(-1), F(0), F(1)]],
        [F(3), F(-3), F(1), F(-1)],
    )
    assert res.status == "optimal"
    # x = 1 + z, y = 2 - 2z, objective 5 - 3z on z in [0, 1]
    assert res.value == F(2)
    x = res.point
    assert x[0] + x[1] + x[2] == 3 and x[0] - x[2] == 1


def test_infeasible():
    # x <= 1 as -x >= -1, and x >= 2
    res = solve_lp([F(1)], [[F(-1)], [F(1)]], [F(-1), F(2)])
    assert res.status == "infeasible"
    good = solve_lp([F(0)], [[F(-1)], [F(1)]], [F(-1), F(1)])
    assert good.point == (F(1),)


def test_unbounded():
    # min -x s.t. x - y <= 1, as -x + y >= -1
    res = solve_lp([F(-1), F(0)], [[F(-1), F(1)]], [F(-1)])
    assert res.status == "unbounded"


def test_negative_rhs_is_normalized():
    # x - y >= -2 with min x at y free-ish; feasible at origin
    res = solve_lp([F(1), F(1)], [[F(1), F(-1)]], [F(-2)])
    assert res.status == "optimal"
    assert res.value == 0


def test_degenerate_cycling_guard():
    """Beale's degenerate instance, its <= rows negated; Bland's rule must
    terminate. The two rows with right-hand side 0 take phase-1
    artificials, so both phases start degenerate."""
    rows = [
        [F(-1, 4), F(8), F(1), F(-9)],
        [F(-1, 2), F(12), F(1, 2), F(-3)],
        [F(0), F(0), F(-1), F(0)],
    ]
    res = solve_lp([F(-3, 4), F(20), F(-1, 2), F(6)], rows, [F(0), F(0), F(-1)])
    assert res.status == "optimal"
    assert res.value == F(-5, 4)


def test_redundant_equalities_survive_phase_one(monkeypatch):
    """x + y = 2 twice and 2x + 2y = 4, each as a >= row and its negation:
    phase 1 ends with artificials basic at zero, and each is pivoted out
    onto a stored column before phase 2 starts."""
    events = []
    run, pivot = lp._run_simplex, lp._pivot

    def ran(*args):
        events.append("simplex")
        try:
            return run(*args)
        finally:
            events.append("simplex")

    def pivoted(tab, cost, basis, prow, enter, d, arts):
        events.append((basis[prow], enter))
        return pivot(tab, cost, basis, prow, enter, d, arts)

    monkeypatch.setattr(lp, "_run_simplex", ran)
    monkeypatch.setattr(lp, "_pivot", pivoted)
    res = solve_lp(
        [F(1), F(1)],
        [[F(1), F(1)], [F(-1), F(-1)], [F(1), F(1)], [F(-1), F(-1)], [F(2), F(2)],
         [F(-2), F(-2)]],
        [F(2), F(-2), F(2), F(-2), F(4), F(-4)],
    )
    assert res.status == "optimal"
    assert res.value == F(2)
    # between the end of phase 1 and the start of phase 2 the artificials of
    # rows 0, 2 and 4 (labels 8, 9, 10) leave onto slack columns 2, 3, 4
    _, end1, start2, _ = [i for i, e in enumerate(events) if e == "simplex"]
    assert events[end1 + 1:start2] == [(8, 2), (9, 3), (10, 4)]


def test_exactness_with_awkward_fractions():
    res = solve_lp(
        [F(1, 3), F(1, 7)],
        [[F(2, 5), F(3, 11)], [F(1, 9), F(5, 2)]],
        [F(7, 13), F(3, 4)],
    )
    assert res.status == "optimal"
    # the optimum sits on the first constraint with x2 picking up the second
    x = res.point
    assert F(2, 5) * x[0] + F(3, 11) * x[1] >= F(7, 13)
    assert F(1, 9) * x[0] + F(5, 2) * x[1] >= F(3, 4)
    assert res.value == F(1, 3) * x[0] + F(1, 7) * x[1]


@pytest.mark.parametrize("bad", [1.5, True, "abc", "1/2", None], ids=repr)
@pytest.mark.parametrize("where", ["objective", "row", "rhs"])
def test_non_rationals_are_bad_parameters(where, bad):
    """Every entry must be an int or a Fraction: a float is not rounded, a
    bool is not 1, a string is not parsed, and none of them escapes as a
    bare ValueError or TypeError."""
    args = {"objective": [1, 1], "row": [[1, 2], [3, 1]], "rhs": [4, 3]}
    if where == "row":
        args["row"][1][0] = bad
    else:
        args[where][0] = bad
    with pytest.raises(BadParameters, match="not an int or a Fraction"):
        solve_lp(args["objective"], args["row"], args["rhs"])


SHAPES = {
    "int rhs": ([1], [[1]], 5),
    "bare int row": ([1], [1], [1]),
    "None objective": (None, [[1]], [1]),
    "string rows": ([1], "1", [1]),
    "dict rhs": ([1], [[1]], {0: 1}),
    "set row": ([1, 2], [{1, 2}], [1]),
    "short row": ([1, 2], [[1]], [1]),
    "short rhs": ([1], [[1], [2]], [1]),
}


@pytest.mark.parametrize("args", SHAPES.values(), ids=SHAPES)
def test_malformed_shapes_are_bad_parameters(args):
    """The objective, the rows, the right-hand sides and each row must be
    lists or tuples of matching lengths; nothing escapes as a bare
    TypeError."""
    with pytest.raises(BadParameters):
        solve_lp(*args)


def all_fractions(res):
    return type(res.value) is F and all(type(v) is F for v in res.point)


def test_unit_pivots_stay_in_ints(monkeypatch):
    """Consecutive-ones rows are totally unimodular: every pivot is +-1 and
    the common denominator stays 1."""
    states = []
    pivot = lp._pivot

    def checked(tab, cost, basis, prow, enter, d, arts):
        col = arts.get(enter, enter)
        states.append(d == 1 and abs(tab[prow][col]) == 1)
        d = pivot(tab, cost, basis, prow, enter, d, arts)
        states.append(d == 1)
        return d

    monkeypatch.setattr(lp, "_pivot", checked)
    rows = [[1, 1, 0, 0], [0, 1, 1, 0], [0, 0, 1, 1], [1, 1, 1, 0]]
    res = solve_lp([2, 3, 1, 2], rows, [1, 2, 1, 2])
    assert states and all(states)
    assert res.status == "optimal" and res.value == 4
    assert all_fractions(res)
    assert all(v.denominator == 1 for v in res.point)


def test_non_unit_pivots_grow_the_common_denominator(monkeypatch):
    """The denominator after a pivot is |pivot|, the basis determinant: 2,
    then det [[2, 1], [1, 3]] = 5."""
    dens = []
    pivot = lp._pivot

    def logged(*args):
        dens.append(pivot(*args))
        return dens[-1]

    monkeypatch.setattr(lp, "_pivot", logged)
    # max x + y s.t. 2x + y <= 4, x + 3y <= 6, given as plain ints, as min
    # -x - y with the rows negated
    res = solve_lp([-1, -1], [[-2, -1], [-1, -3]], [-4, -6])
    assert dens == [2, 5]
    assert res.status == "optimal"
    assert res.value == F(-14, 5)
    assert res.point == (F(6, 5), F(8, 5))
    assert all_fractions(res)


def _random_lp(rng):
    """A small LP of >= rows of any status, right-hand sides of either sign;
    about half carry Fraction entries."""
    fractions = rng.random() < 0.5

    def entry():
        if fractions and rng.random() < 0.3:
            return F(rng.randint(-9, 9), rng.randint(2, 6))
        return rng.choice((0, 0, 0, 1, 1, -1, 2, -2, 3))

    nvars, nrows = rng.randint(1, 6), rng.randint(1, 6)
    rows = [[entry() for _ in range(nvars)] for _ in range(nrows)]
    return [entry() for _ in range(nvars)], rows, [entry() for _ in range(nrows)]


def _scaled_lp(objective, rows, senses, rhs):
    """The reference's LP as `solve_lp` scales it: rows and right-hand sides
    by one lcm of their denominators, the objective by the lcm of its own."""
    def times(values, scale):
        return [F(v) * scale for v in values]

    obj_scale = lcm(*[F(v).denominator for v in objective])
    scale = lcm(*[F(v).denominator for row in [*rows, rhs] for v in row])
    return (times(objective, obj_scale), [times(row, scale) for row in rows],
            senses, times(rhs, scale))


def _replay(monkeypatch, args, ref_args, implicit=None):
    """Run `solve_lp(*args)` against `fraction_solve_lp(*ref_args)`: the
    same (status, value, point), Fraction elements included, after the same
    (row, entering variable) pivots, and after every pivot each entry over
    the common denominator equal to the reference's entry on the LP scaled
    as `solve_lp` scales it, the artificial columns rebuilt in phase 1 (see
    `recording`). Returns the result."""
    plain, scaled, log = [], [], []
    ref = fraction_solve_lp(*ref_args, log=plain)
    fraction_solve_lp(*_scaled_lp(*ref_args), log=scaled)
    record = recording(log, implicit)

    def bounded(*pivot_args):
        # a pivot past the reference's last fails here, not in an endless loop
        if len(log) >= len(scaled):
            raise AssertionError(f"more pivots than the reference on {args}")
        return record(*pivot_args)

    with monkeypatch.context() as patch:
        patch.setattr(lp, "_pivot", bounded)
        res = solve_lp(*args)
    assert (res.status, res.value, res.point) == (ref.status, ref.value, ref.point), args
    if res.status == "optimal":
        assert all_fractions(res)
    assert [step[:2] for step in log] == [step[:2] for step in plain], args
    assert log == scaled, args
    return res, log


def test_integer_tableau_replays_the_fraction_simplex(monkeypatch):
    """On 900 seeded LPs of >= rows, right-hand sides of either sign, the
    integer tableau replays the Fraction reference (see `_replay`). An
    artificial enters at least once."""
    rng = random.Random(11)
    seen = Counter()
    implicit = []
    for _ in range(900):
        objective, rows, rhs = args = _random_lp(rng)
        res, log = _replay(monkeypatch, args, (objective, rows, [">="] * len(rows), rhs),
                           implicit)
        seen[res.status] += 1
        seen["fraction entries"] += any(type(v) is F for row in rows for v in row)
        seen["non-unit pivots"] += any(v.denominator != 1 for _, _, tab in log
                                       for row in tab for v in row)
    assert min(seen.values()) >= 100, seen
    assert implicit


def test_negated_rows_replay_the_less_or_equal_reference(monkeypatch):
    """On 600 seeded LPs whose rows are drawn "<=" or ">=", `solve_lp` on
    each "<=" row negated into a >= row replays the reference on the "<="
    form (see `_replay`): a "<=" row with b > 0 keeps its slack basic, one
    with b < 0 turns into -a . x >= -b > 0 in both. A "<=" row with b = 0
    would start with a basic slack in the reference but takes an artificial
    as -a . x >= 0, so such rows are drawn with b = +-1 instead."""
    rng = random.Random(12)
    seen = Counter()
    for _ in range(600):
        objective, rows, rhs = _random_lp(rng)
        senses = [rng.choice(("<=", ">=")) for _ in rows]
        rhs = [b or rng.choice((1, -1)) if s == "<=" else b for s, b in zip(senses, rhs)]
        flip = [-1 if s == "<=" else 1 for s in senses]
        args = (objective, [[f * v for v in row] for f, row in zip(flip, rows)],
                [f * b for f, b in zip(flip, rhs)])
        res, _ = _replay(monkeypatch, args, (objective, rows, senses, rhs))
        seen[res.status] += 1
        seen["<= rows, b > 0"] += sum(s == "<=" and b > 0 for s, b in zip(senses, rhs))
        seen["<= rows, b < 0"] += sum(s == "<=" and b < 0 for s, b in zip(senses, rhs))
    assert min(seen.values()) >= 100, seen
