"""Property tests on drawn inputs. Each runs a fixed, derandomized set of
examples, so the suite stays deterministic."""

import io
import json
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction as F

import pytest

pytest.importorskip("hypothesis")

from _helpers import (INFEASIBLE_POINT, check_validity, cold_optimize, frozenset_contract,
                      fraction_solve_lp, membership, path_cost, reraise_unless,
                      walk_circulant_isomorphic)
from test_acceptance import _brute_force_key
from test_optimize import _assert_slice_matches_the_lp
from test_oracle import _assert_covers_match_the_product_scan
from hypothesis import given, settings
from hypothesis import strategies as st

from circover import (
    BadParameters,
    CircularMatrix,
    build_digraph,
    circulant_isomorphic,
    circulant_matrix,
    circular_matrix,
    cut_loop,
    enumerate_circuits,
    enumerate_minimal_covers,
    optimize,
    parse_rational,
    separate,
    solve_lp,
)
from circover import cli
from circover.jsonio import _dumps_indented
from circover.digraph import bellman_ford
from circover.optimize import _slice_graph

fixed = settings(derandomize=True, database=None, deadline=None, max_examples=100)


@st.composite
def covering_instances(draw, max_n=8):
    """(matrix, demands, weights): a circular matrix with n 3-max_n and 1-n
    distinct rows, demands 0-2 and non-negative weights, zeros included."""
    n = draw(st.integers(3, max_n))
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


@fixed
@given(covering_instances(max_n=6))
def test_optimize_equals_box_enumeration(instance):
    """The optimal value, the smallest optimal coordinate sum and the
    lexmin optimal point equal acceptance 7's brute-force reference."""
    res = optimize(*instance)
    assert (res.value, res.beta, res.point) == _brute_force_key(*instance)


entries = st.one_of(st.sampled_from((0, 0, 1, -1, 2, -3)),
                    st.fractions(min_value=-9, max_value=9, max_denominator=6))


@st.composite
def linear_programs(draw):
    """(objective, rows, rhs) of >= rows, with up to 5 variables and 5 rows;
    right-hand sides of either sign."""
    nvars = draw(st.integers(1, 5))
    nrows = draw(st.integers(1, 5))
    row = st.lists(entries, min_size=nvars, max_size=nvars)
    return (draw(row), draw(st.lists(row, min_size=nrows, max_size=nrows)),
            draw(st.lists(entries, min_size=nrows, max_size=nrows)))


@fixed
@given(linear_programs())
def test_solve_lp_equals_the_fraction_simplex(lp):
    objective, rows, rhs = lp
    res, ref = solve_lp(*lp), fraction_solve_lp(objective, rows, [">="] * len(rows), rhs)
    assert (res.status, res.value, res.point) == (ref.status, ref.value, ref.point)


@st.composite
def separation_queries(draw):
    """(matrix, demands, point) with n 3-7. Either a circular matrix of 1-n
    distinct rows, demands 0-2 per row and a point drawn freely from
    [0, 2]^n with denominators dividing 12; or a circulant of window 2 to
    n-1 at one demand level 1-2 and its least uniform relaxation point,
    raised by 0 or 1/12 per coordinate. That uniform point is cut off
    wherever the window does not divide n times the demand."""
    n = draw(st.integers(3, 7))
    if draw(st.booleans()):
        pool = [(s, length) for s in range(1, n + 1) for length in range(2, n)]
        rows = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=n, unique=True))
        demands = draw(st.lists(st.integers(0, 2), min_size=len(rows), max_size=len(rows)))
        point = draw(st.lists(st.integers(0, 24).map(lambda k: F(k, 12)),
                              min_size=n, max_size=n))
        return circular_matrix(n, rows), demands, point
    window = draw(st.integers(2, n - 1))
    level = draw(st.integers(1, 2))
    steps = draw(st.lists(st.sampled_from((0, 0, 0, F(1, 12))), min_size=n, max_size=n))
    point = [F(level, window) + step for step in steps]
    return circulant_matrix(n, window), [level] * n, point


@fixed
@given(separation_queries())
def test_separate_agrees_with_the_hull_oracle(query):
    """"member" exactly on hull points, the infeasible-point error only off
    the hull, and every cut a valid inequality whose certificate is both the
    circuit cost and the slack at the point, and negative."""
    m, demands, x = query
    covers = enumerate_minimal_covers(m, demands)
    inside = membership(x, covers)
    try:
        res = separate(m, demands, x)
    except BadParameters as exc:
        reraise_unless(exc, INFEASIBLE_POINT)
        assert not inside
        return
    assert (res.verdict == "member") == inside
    if res.verdict == "violated":
        assert res.certificate == path_cost(res.costs, res.circuit)
        assert res.certificate == res.inequality.evaluate(x) < 0
        assert check_validity(res.inequality, covers)


@st.composite
def circular_matrices(draw):
    """A circular matrix with n 3-7 and 1-n distinct rows."""
    n = draw(st.integers(3, 7))
    pool = [(s, length) for s in range(1, n + 1) for length in range(2, n)]
    return circular_matrix(n, draw(st.lists(st.sampled_from(pool), min_size=1, max_size=n,
                                            unique=True)))


@fixed
@given(circular_matrices())
def test_circuit_counts_equal_networkx(m):
    """On both digraphs of the matrix, enumerate_circuits lists as many
    distinct circuits as networkx.simple_cycles finds once every arc is
    subdivided, so parallel and antiparallel arcs count apart."""
    pytest.importorskip("networkx")
    from test_digraph import _nx_circuit_count

    for restricted in (False, True):
        d = build_digraph(m, restricted=restricted)
        enum = enumerate_circuits(d)
        assert enum.complete
        assert len(set(enum.circuits)) == len(enum.circuits) == _nx_circuit_count(d)


@st.composite
def column_deletions(draw):
    """(matrix, removed): n 3-12, either the circulant (n, k) with up to two
    rows swapped for rows of any length, or 1-2n distinct random rows, and
    0 to n-1 distinct columns to delete, in any order."""
    n = draw(st.integers(3, 12))
    pool = [(s, length) for s in range(1, n + 1) for length in range(2, n)]
    if draw(st.booleans()):
        k = draw(st.integers(2, n - 1))
        rows = [(i, k) for i in range(1, n + 1)]
        for _ in range(draw(st.integers(0, 2))):
            rows.pop(draw(st.integers(0, len(rows) - 1)))
            rows.append(draw(st.sampled_from(pool)))
        rows = sorted(set(rows))
    else:
        rows = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=2 * n, unique=True))
    removed = draw(st.lists(st.integers(1, n), max_size=n - 1, unique=True))
    return circular_matrix(n, rows), removed


@settings(fixed, max_examples=500)
@given(column_deletions())
def test_circulant_isomorphic_equals_the_walk_on_the_contraction(case):
    """The window check names the (order, window) of the reference walk on
    the frozenset contraction, or None where the walk finds no circulant."""
    m, removed = case
    match = walk_circulant_isomorphic(frozenset_contract(m, removed))
    assert circulant_isomorphic(m, removed) == (
        None if match is None else (match.order, match.window))


# digits, signs, slashes, dots, underscores, exponents, spaces and the
# Arabic-Indic digit three, loose and in the shape "p" or "p/q"
rational_spellings = st.one_of(
    st.text(alphabet="0123456789-+/._e \u0663", max_size=10),
    st.from_regex(r"\A ?[-+]?[0-9_\u0663]{1,4}(/[0-9_\u0663]{1,4})? ?\Z"),
)


@settings(fixed, max_examples=500)
@given(rational_spellings)
def test_parse_rational_equals_the_fraction_parser(text):
    """Every string parses to the value of Fraction(text.strip()), or is
    rejected with the same message wherever that raises."""
    try:
        expected = F(text.strip())
    except (ValueError, ZeroDivisionError):
        with pytest.raises(BadParameters) as info:
            parse_rational(text)
        assert str(info.value) == f"not a rational: {text!r}"
    else:
        got = parse_rational(text)
        assert type(got) is F and got == expected


@pytest.fixture(scope="module")
def pentagon_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("pentagon") / "pentagon.json"
    path.write_text(json.dumps({"n": 5, "rows": [[s, 2] for s in range(1, 6)]}))
    return str(path)


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6)
    | st.sampled_from(("0", "1", "1/2", "2/3", "-1", "1/0", " 1 ")),
    lambda inner: st.lists(inner, max_size=6) | st.dictionaries(st.text(max_size=3), inner,
                                                                max_size=3),
    max_leaves=12,
)
five_rationals = st.lists(st.sampled_from((0, 1, 2, "0", "1", "1/2", "2/3", "3/4", " 1/3 ")),
                          min_size=5, max_size=5)


@fixed
@given(st.one_of(json_values.map(json.dumps), five_rationals.map(json.dumps),
                 st.text(max_size=12)))
def test_separate_point_is_an_answer_or_one_error_line(pentagon_file, text):
    """Any --point text, JSON or not, ends in an answer with exit 0 or in
    one `error:` line with exit 1, and never in a traceback."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(["separate", pentagon_file, "--point", text])
    if code == 0:
        assert err.getvalue() == ""
        assert json.loads(out.getvalue())["verdict"] in ("member", "violated")
    else:
        assert code == 1 and out.getvalue() == ""
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1


# values an instance field may hold instead of a well-formed one
odd_values = st.sampled_from((None, True, False, 0, -1, 2.0, "3", "1/2", [], {}, [[]]))


@st.composite
def instance_objects(draw):
    """The JSON of an instance file: one time in eight arbitrary JSON, else
    an object shaped like an instance. Each of its fields is well formed
    three times in four (n 3-7, distinct rows [start, length] of length 2
    to n-1, demands 0-3, rational weights, lengths matching) and malformed
    otherwise, and one time in ten a key is left out."""
    if draw(st.sampled_from(range(8))) == 7:
        return draw(json_values)
    good = st.sampled_from((True, True, True, False))
    n = draw(st.integers(3, 7) if draw(good) else odd_values)
    size = n if type(n) is int and n > 0 else 3
    pool = [(s, length) for s in range(1, size + 1) for length in range(2, size)]
    rows = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=size, unique=True)
                .map(lambda rs: [list(r) for r in rs]) if draw(good) else
                st.lists(st.lists(st.integers(-1, 8), max_size=3) | odd_values, max_size=4)
                | odd_values)
    obj = {"n": n, "rows": rows}
    m = len(rows) if type(rows) is list else 3
    if draw(st.booleans()):
        obj["b"] = draw(st.lists(st.integers(0, 3), min_size=m, max_size=m) if draw(good)
                        else st.lists(st.integers(-1, 3) | odd_values, max_size=m + 1)
                        | odd_values)
    if draw(st.booleans()):
        weight = st.sampled_from((0, 1, 2, "0", "1/2", "3/2", "-1", " 2 ", "x"))
        obj["w"] = draw(st.lists(weight, min_size=size, max_size=size) if draw(good)
                        else st.lists(weight | odd_values, max_size=size + 1) | odd_values)
    if draw(st.sampled_from(range(10))) == 9:
        del obj[draw(st.sampled_from(sorted(obj)))]
    return obj


# every verb, the enumerating ones capped so each run stays small
INSTANCE_VERBS = {
    "solve": [],
    "separate": None,       # the point is built from the drawn n
    "cut-loop": [],
    "facets": ["--max-circuits", "30", "--budget", "729"],
    "facets --alpha 2": ["--alpha", "2", "--max-circuits", "30", "--budget", "729"],
    "verify": ["--max-circuits", "30", "--budget", "729"],
    "verify --alpha 2": ["--alpha", "2", "--max-circuits", "30", "--budget", "729"],
    "minors": ["--max-circuits", "30"],
}


@pytest.fixture(scope="module")
def instance_file(tmp_path_factory):
    return tmp_path_factory.mktemp("instance") / "instance.json"


@pytest.mark.parametrize("verb", INSTANCE_VERBS)
@fixed
@given(data=instance_objects())
def test_any_instance_file_is_an_answer_or_one_error_line(instance_file, verb, data):
    """Any JSON as the instance file of any verb exits 0 or 2 with a JSON
    answer and nothing on stderr, or 1 with one `error:` line and nothing
    on stdout; it never ends in a traceback."""
    instance_file.write_text(json.dumps(data))
    args = INSTANCE_VERBS[verb]
    if args is None:
        n = data.get("n") if type(data) is dict else None
        args = ["--point", json.dumps(["1/2"] * (n if type(n) is int and n > 0 else 3))]
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main([verb.split()[0], str(instance_file), *args])
    if code == 1:
        assert out.getvalue() == ""
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1
    else:
        assert code in (0, 2) and err.getvalue() == ""
        assert isinstance(json.loads(out.getvalue()), dict)


@st.composite
def cover_instances(draw):
    """(matrix, demands): n 3-9, 1-2n distinct rows, demands 0-3 with the
    box (max b + 1)^n at most 4096 points."""
    n = draw(st.integers(3, 9))
    top = max(d for d in range(4) if (d + 1) ** n <= 4096)
    pool = [(s, length) for s in range(1, n + 1) for length in range(2, n)]
    rows = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=2 * n, unique=True))
    demands = draw(st.lists(st.integers(0, top), min_size=len(rows), max_size=len(rows)))
    return circular_matrix(n, rows), demands


@fixed
@given(cover_instances())
def test_cover_search_equals_the_product_scan(instance):
    _assert_covers_match_the_product_scan(*instance)


@st.composite
def slice_instances(draw):
    """(matrix, demands, weights): n 2-7 and 1-(n+2) rows of any start and
    any length 1..n, so wrapping and full-length rows too, demands 0-3,
    and zero, int and rational weights."""
    n = draw(st.integers(2, 7))
    row = st.tuples(st.integers(1, n), st.integers(1, n))
    rows = draw(st.lists(row, min_size=1, max_size=n + 2))
    demands = draw(st.lists(st.integers(0, 3), min_size=len(rows), max_size=len(rows)))
    weights = draw(st.lists(st.sampled_from((0, 0, 1, 4, F(1, 2), F(7, 3))),
                            min_size=n, max_size=n))
    return CircularMatrix(n, tuple(rows)), demands, weights


@fixed
@given(slice_instances())
def test_slices_equal_the_lp_slices(instance):
    _assert_slice_matches_the_lp(*instance)


@st.composite
def slice_graphs(draw):
    """(n, tails, heads, costs): the slice graph of a drawn slice instance
    at a sum 0..top+1, under the costs -l, plus the reverses of a drawn
    subset of its arcs at cost +l, as in a residual graph; empty and
    non-empty slices, with and without negative cycles."""
    matrix, demands, _ = draw(slice_instances())
    beta = draw(st.integers(0, matrix.n * max(demands) + 1))
    tails, heads, lengths = _slice_graph(matrix, demands, beta)
    back = draw(st.lists(st.integers(0, len(tails) - 1), max_size=len(tails), unique=True))
    return (matrix.n + 1, tails + [heads[a] for a in back], heads + [tails[a] for a in back],
            [-v for v in lengths] + [lengths[a] for a in back])


@fixed
@given(slice_graphs())
def test_early_kernel_agrees_with_the_round_n_kernel(graph):
    """Both kernels find a negative cycle or neither does, and without one
    they return the same distances; an early cycle is a simple cycle of the
    given arcs, chained head to tail, of negative cost."""
    n, tails, heads, costs = graph
    cycle, dist = bellman_ford(*graph, early=True)
    ref_cycle, ref_dist = bellman_ford(*graph)
    assert (cycle is None) == (ref_cycle is None)
    if cycle is None:
        assert dist == ref_dist
        return
    assert all(heads[a] == tails[b] for a, b in zip(cycle, cycle[1:] + cycle[:1]))
    assert len({tails[k] for k in cycle}) == len(cycle)
    assert sum(costs[k] for k in cycle) < 0


@st.composite
def optimize_instances(draw):
    """(matrix, demands, weights): a circular matrix with n 4-12 and 1-n
    distinct rows, demands 0-3 and int weights 0-9, zeros drawn often."""
    n = draw(st.integers(4, 12))
    pool = [(s, length) for s in range(1, n + 1) for length in range(2, n)]
    rows = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=n, unique=True))
    demands = draw(st.lists(st.integers(0, 3), min_size=len(rows), max_size=len(rows)))
    weights = draw(st.lists(st.just(0) | st.integers(0, 9), min_size=n, max_size=n))
    return circular_matrix(n, rows), demands, weights


@fixed
@given(optimize_instances())
def test_warm_probes_equal_cold_probes(instance):
    """Starting each probe from the last optimal flow changes nothing of
    `optimize`: the same value, point, sum and probed slices."""
    assert optimize(*instance) == cold_optimize(*instance)


# any string: control characters and lone surrogates included
any_text = st.text(st.characters() | st.characters(categories=["Cs"]), max_size=6)
float_free_json = st.recursive(
    st.none() | st.booleans() | st.integers() | any_text
    | st.sampled_from((10 ** 40, -(10 ** 40) - 1, 2 ** 64, -(2 ** 63))),
    lambda inner: st.lists(inner, max_size=5) | st.lists(inner, max_size=5).map(tuple)
    | st.dictionaries(any_text, inner, max_size=4),
    max_leaves=20,
)


@settings(fixed, max_examples=500)
@given(float_free_json)
def test_indented_writer_equals_json_dumps(value):
    assert _dumps_indented(value) == json.dumps(value, indent=2)
