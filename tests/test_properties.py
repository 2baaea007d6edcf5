"""Property tests on drawn inputs. Each runs a fixed, derandomized set of
examples, so the suite stays deterministic."""

from fractions import Fraction as F

import pytest

pytest.importorskip("hypothesis")

from _helpers import fraction_solve_lp
from hypothesis import given, settings
from hypothesis import strategies as st

from circover import circular_matrix, cut_loop, optimize, solve_lp
from circover.lp import SENSES

fixed = settings(derandomize=True, database=None, deadline=None, max_examples=100)


@st.composite
def covering_instances(draw):
    """(matrix, demands, weights): a circular matrix with n 3-8 and 1-n
    distinct rows, demands 0-2 and non-negative weights, zeros included."""
    n = draw(st.integers(3, 8))
    pool = [(s, length) for s in range(1, n + 1) for length in range(2, n)]
    rows = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=n, unique=True))
    demands = draw(st.lists(st.integers(0, 2), min_size=len(rows), max_size=len(rows)))
    weights = draw(st.lists(st.sampled_from((0, 0, 1, 2, 3, F(1, 2), F(5, 3))),
                            min_size=n, max_size=n))
    return circular_matrix(n, rows), demands, weights


@fixed
@given(covering_instances())
def test_cut_loop_value_equals_the_optimum(instance):
    assert cut_loop(*instance).value == optimize(*instance).value


entries = st.one_of(st.sampled_from((0, 0, 1, -1, 2, -3)),
                    st.fractions(min_value=-9, max_value=9, max_denominator=6))


@st.composite
def linear_programs(draw):
    """(objective, rows, senses, rhs) with up to 5 variables and 5 rows."""
    nvars = draw(st.integers(1, 5))
    nrows = draw(st.integers(1, 5))
    row = st.lists(entries, min_size=nvars, max_size=nvars)
    return (draw(row), draw(st.lists(row, min_size=nrows, max_size=nrows)),
            draw(st.lists(st.sampled_from(SENSES), min_size=nrows, max_size=nrows)),
            draw(st.lists(entries, min_size=nrows, max_size=nrows)))


@fixed
@given(linear_programs())
def test_solve_lp_equals_the_fraction_simplex(lp):
    res, ref = solve_lp(*lp), fraction_solve_lp(*lp)
    assert (res.status, res.value, res.point) == (ref.status, ref.value, ref.point)
