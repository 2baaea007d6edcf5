import random
from collections import Counter
from fractions import Fraction as F
from math import lcm

import pytest
from _helpers import fraction_solve_lp, recording

from circover import BadParameters, lp, solve_lp


def test_tiny_minimization():
    # min x + y s.t. x + 2y >= 4, 3x + y >= 3, x,y >= 0
    res = solve_lp([F(1), F(1)], [[F(1), F(2)], [F(3), F(1)]], [">=", ">="], [F(4), F(3)])
    assert res.status == "optimal"
    assert res.value == F(11, 5)
    assert res.point == (F(2, 5), F(9, 5))


def test_maximization_via_negated_objective():
    # max 3x + 2y s.t. x + y <= 4, x <= 2, as min -3x - 2y
    res = solve_lp(
        [F(-3), F(-2)],
        [[F(1), F(1)], [F(1), F(0)]],
        ["<=", "<="],
        [F(4), F(2)],
    )
    assert res.status == "optimal"
    assert res.value == F(-10)
    assert res.point == (F(2), F(2))


def test_equality_rows():
    res = solve_lp(
        [F(1), F(2), F(0)],
        [[F(1), F(1), F(1)], [F(1), F(0), F(-1)]],
        ["==", "=="],
        [F(3), F(1)],
    )
    assert res.status == "optimal"
    # x = 1 + z, y = 2 - 2z, objective 5 - 3z on z in [0, 1]
    assert res.value == F(2)
    x = res.point
    assert x[0] + x[1] + x[2] == 3 and x[0] - x[2] == 1


def test_infeasible():
    res = solve_lp([F(1)], [[F(1)], [F(1)]], ["<=", ">="], [F(1), F(2)])
    assert res.status == "infeasible"
    good = solve_lp([F(0)], [[F(1)], [F(1)]], ["<=", ">="], [F(1), F(1)])
    assert good.point == (F(1),)


def test_unbounded():
    res = solve_lp([F(-1), F(0)], [[F(1), F(-1)]], ["<="], [F(1)])
    assert res.status == "unbounded"


def test_negative_rhs_is_normalized():
    # x - y >= -2 with min x at y free-ish; feasible at origin
    res = solve_lp([F(1), F(1)], [[F(1), F(-1)]], [">="], [F(-2)])
    assert res.status == "optimal"
    assert res.value == 0


def test_degenerate_cycling_guard():
    """Classic degenerate instance; Bland's rule must terminate."""
    rows = [
        [F(1, 4), F(-8), F(-1), F(9)],
        [F(1, 2), F(-12), F(-1, 2), F(3)],
        [F(0), F(0), F(1), F(0)],
    ]
    res = solve_lp([F(-3, 4), F(20), F(-1, 2), F(6)], rows, ["<=", "<=", "<="],
                   [F(0), F(0), F(1)])
    assert res.status == "optimal"
    assert res.value == F(-5, 4)


def test_redundant_equalities_survive_phase_one():
    # the same equality twice forces an artificial to stay basic at zero
    res = solve_lp(
        [F(1), F(1)],
        [[F(1), F(1)], [F(1), F(1)], [F(2), F(2)]],
        ["==", "==", "=="],
        [F(2), F(2), F(4)],
    )
    assert res.status == "optimal"
    assert res.value == F(2)


def test_exactness_with_awkward_fractions():
    res = solve_lp(
        [F(1, 3), F(1, 7)],
        [[F(2, 5), F(3, 11)], [F(1, 9), F(5, 2)]],
        [">=", ">="],
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
        solve_lp(args["objective"], args["row"], [">=", ">="], args["rhs"])


def all_fractions(res):
    return type(res.value) is F and all(type(v) is F for v in res.point)


def test_unit_pivots_stay_in_ints(monkeypatch):
    """Consecutive-ones rows are totally unimodular: every pivot is +-1 and
    the common denominator stays 1."""
    states = []
    pivot = lp._pivot

    def checked(tab, cost, basis, prow, enter, d, arts):
        col, _ = arts.get(enter, (enter, 1))
        states.append(d == 1 and abs(tab[prow][col]) == 1)
        d = pivot(tab, cost, basis, prow, enter, d, arts)
        states.append(d == 1)
        return d

    monkeypatch.setattr(lp, "_pivot", checked)
    rows = [[1, 1, 0, 0], [0, 1, 1, 0], [0, 0, 1, 1], [1, 1, 1, 0]]
    res = solve_lp([2, 3, 1, 2], rows, [">="] * 4, [1, 2, 1, 2])
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
    # max x + y s.t. 2x + y <= 4, x + 3y <= 6, given as plain ints, as min -x - y
    res = solve_lp([-1, -1], [[2, 1], [1, 3]], ["<=", "<="], [4, 6])
    assert dens == [2, 5]
    assert res.status == "optimal"
    assert res.value == F(-14, 5)
    assert res.point == (F(6, 5), F(8, 5))
    assert all_fractions(res)


def _random_lp(rng):
    """A small LP of any status; about half carry Fraction entries."""
    fractions = rng.random() < 0.5

    def entry():
        if fractions and rng.random() < 0.3:
            return F(rng.randint(-9, 9), rng.randint(2, 6))
        return rng.choice((0, 0, 0, 1, 1, -1, 2, -2, 3))

    nvars, nrows = rng.randint(1, 6), rng.randint(1, 6)
    rows = [[entry() for _ in range(nvars)] for _ in range(nrows)]
    senses = [rng.choice(lp.SENSES) for _ in range(nrows)]
    return [entry() for _ in range(nvars)], rows, senses, [entry() for _ in range(nrows)]


def _scaled_lp(objective, rows, senses, rhs):
    """The LP as `solve_lp` scales it: rows and right-hand sides by one lcm
    of their denominators, the objective by the lcm of its own."""
    def times(values, scale):
        return [F(v) * scale for v in values]

    obj_scale = lcm(*[F(v).denominator for v in objective])
    scale = lcm(*[F(v).denominator for row in [*rows, rhs] for v in row])
    return (times(objective, obj_scale), [times(row, scale) for row in rows],
            senses, times(rhs, scale))


def test_integer_tableau_replays_the_fraction_simplex(monkeypatch):
    """On 900 seeded LPs the integer tableau returns the Fraction
    reference's (status, value, point), Fraction elements included, after
    the same Bland pivots; after every pivot each entry over the common
    denominator equals the reference's entry on the LP scaled as `solve_lp`
    scales it, the implicit artificial columns of ">=" rows rebuilt in
    phase 1. Such an artificial enters at least once."""
    rng = random.Random(11)
    seen = Counter()
    log, implicit = [], []
    record = recording(log, implicit)

    def bounded(*pivot_args):
        # a pivot past the reference's last fails here, not in an endless loop
        if len(log) >= len(scaled):
            raise AssertionError(f"more pivots than the reference on {args}")
        return record(*pivot_args)

    monkeypatch.setattr(lp, "_pivot", bounded)
    for _ in range(900):
        args = _random_lp(rng)
        plain, scaled = [], []
        ref = fraction_solve_lp(*args, log=plain)
        fraction_solve_lp(*_scaled_lp(*args), log=scaled)
        log.clear()
        res = solve_lp(*args)
        assert (res.status, res.value, res.point) == (ref.status, ref.value, ref.point), args
        if res.status == "optimal":
            assert all_fractions(res)
        assert [step[:2] for step in log] == [step[:2] for step in plain], args
        assert log == scaled, args
        seen[res.status] += 1
        seen["fraction entries"] += any(type(v) is F for row in args[1] for v in row)
        seen["non-unit pivots"] += any(v.denominator != 1 for _, _, tab in log
                                       for row in tab for v in row)
    assert min(seen.values()) >= 100, seen
    assert implicit
