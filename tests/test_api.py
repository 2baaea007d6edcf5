"""Package surface: one validation rule behind every entry point, clean exports."""

import ast
import random
import re
from fractions import Fraction as F
from pathlib import Path
from types import ModuleType

import pytest
from _helpers import find_arc

import circover
from circover import (
    FORWARD_ROW,
    REVERSE_SHORT,
    BadParameters,
    CircoverError,
    ClosedPath,
    Instance,
    assign_costs,
    bad_arcs,
    block_decomposition,
    build_digraph,
    check_facet,
    circuit_inequality,
    circulant_isomorphic,
    circulant_matrix,
    circular_matrix,
    classify_nodes,
    cover_number,
    cut_loop,
    domination_solve,
    enumerate_candidates_general,
    enumerate_circuits,
    enumerate_circulant_minors,
    enumerate_facet_candidates,
    enumerate_minimal_covers,
    extract_minor,
    hull_facets,
    interval_row,
    make_inequality,
    neighborhood_matrix,
    nonnegativity,
    optimize,
    row_inequalities,
    separate,
    solve_lp,
)
from circover.linalg import exact_rank
from circover.matrices import neighborhood_rows
from circover.rationals import parse_rational

PENTAGON = circulant_matrix(5, 2)
# a circuit of winding 2 through the pentagon's five rows
CIRCUIT = enumerate_circuits(build_digraph(PENTAGON, restricted=True), min_winding=2).circuits[0]
# vertices 1, 2 and 3, 4 are twins, which domination_solve groups
TWINS = [[1, 2], [1, 2], [3, 4], [3, 4]]
PENTAGON_ROWS = [PENTAGON.row_vector(i) for i in range(1, 6)]
COVERS = enumerate_minimal_covers(PENTAGON, [1] * 5)
# a: the coefficients of an inequality a.x >= 2 read against the covers
GOOD = {"b": [1] * 5, "w": [1] * 5, "x": [F(1, 2)] * 5, "a": [1] * 5}


def _drop_last(values):
    return values[:-1] if isinstance(values, list) else values


# entry point -> (the inputs it reads, the call)
ENTRY_POINTS = {
    "Instance": ("bw", lambda b, w, x, a: Instance(PENTAGON, b, w)),
    "optimize": ("bw", lambda b, w, x, a: optimize(PENTAGON, b, w)),
    "cut_loop": ("bw", lambda b, w, x, a: cut_loop(PENTAGON, b, w)),
    "separate": ("bx", lambda b, w, x, a: separate(PENTAGON, b, x)),
    "assign_costs": ("bx", lambda b, w, x, a: assign_costs(PENTAGON, b, x)),
    "enumerate_minimal_covers": ("b", lambda b, w, x, a: enumerate_minimal_covers(PENTAGON, b)),
    "enumerate_facet_candidates": ("b", lambda b, w, x, a: enumerate_facet_candidates(PENTAGON, b)),
    "enumerate_candidates_general":
        ("b", lambda b, w, x, a: enumerate_candidates_general(PENTAGON, b)),
    "row_inequalities": ("b", lambda b, w, x, a: row_inequalities(PENTAGON, b)),
    "circuit_inequality": ("b", lambda b, w, x, a: circuit_inequality(PENTAGON, b, CIRCUIT)),
    # four vertices: each list loses its last entry, so a bad entry lands
    # on a twin and a short list stays short
    "domination_solve":
        ("bw", lambda b, w, x, a: domination_solve(TWINS, _drop_last(w), _drop_last(b))),
    "check_facet": ("a", lambda b, w, x, a: check_facet(make_inequality(a, 2, "test"), COVERS)),
    # the weights as the objective of the covering LP
    "solve_lp": ("w", lambda b, w, x, a: solve_lp(w, PENTAGON_ROWS, [1] * 5)),
}

BAD_INPUTS = {
    "float weight": ("w", [1, 1, 0.5, 1, 1]),
    "bool weight": ("w", [1, 1, True, 1, 1]),
    "string weight": ("w", [1, 1, "abc", 1, 1]),
    "None weight": ("w", [1, 1, None, 1, 1]),
    "bool demand": ("b", [1, True, 1, 1, 1]),
    "negative demand": ("b", [1, 1, -1, 1, 1]),
    "Fraction demand": ("b", [1, 1, F(3, 2), 1, 1]),
    "dict demands": ("b", {0: 1, 1: 1, 2: 1, 3: 1, 4: 1}),
    "None demands": ("b", None),
    "short demands": ("b", [1] * 4),
    "short weights": ("w", [1] * 4),
    "short point": ("x", [F(1, 2)] * 4),
    "one-entry point": ("x", ["1"]),
    "long point": ("x", [F(1, 2)] * 6),
    "short coefficients": ("a", [1] * 4),
    "long coefficients": ("a", [1] * 6),
    "None coefficient": ("a", [1, 1, None, 1, 1]),
    "string coefficient": ("a", [1, 1, "2", 1, 1]),
    "float coefficient": ("a", [1, 1, 2.0, 1, 1]),
    "bool coefficient": ("a", [1, 1, True, 1, 1]),
    "float point coordinate": ("x", [0.5] * 5),
}

# (entry point, case) pairs where the input is good there
NOT_BAD = {("domination_solve", "None demands"): "None asks for the default demands, all ones"}

CASES = [
    pytest.param(entry, case, id=f"{entry}-{case}")
    for entry, (reads, _) in ENTRY_POINTS.items()
    for case, (field, _) in BAD_INPUTS.items()
    if field in reads and (entry, case) not in NOT_BAD
]


@pytest.mark.parametrize("entry,case", CASES)
def test_every_entry_point_rejects_bad_input(entry, case):
    _, call = ENTRY_POINTS[entry]
    field, value = BAD_INPUTS[case]
    args = dict(GOOD, **{field: value})
    with pytest.raises(CircoverError):
        call(**args)


# ragged input, which a zip would silently truncate: (call, message)
RAGGED = {
    "check_facet short cover": (
        lambda: check_facet(make_inequality([1, 1], 1, "x"), ((1, 0), (0, 1), (1,))),
        "^cover 2 has 1 entries, the inequality 2$"),
    "check_facet long cover": (
        lambda: check_facet(make_inequality([1, 1], 1, "x"), ((1, 0), (0, 1, 5))),
        "^cover 1 has 3 entries, the inequality 2$"),
    "exact_rank short row": (lambda: exact_rank([[1, 2], [3]]), "^row 1 has 1 entries, row 0 has 2$"),
}


@pytest.mark.parametrize("call,message", RAGGED.values(), ids=RAGGED)
def test_ragged_input_is_bad_parameters(call, message):
    """Every cover and every row is measured, not only the first."""
    with pytest.raises(BadParameters, match=message):
        call()


# caps and budgets: (argument name, whether None is
# allowed, the call); every one must be an int, not a bool, at least 1
POSITIVE_INTS = {
    "cut_loop": ("max_rounds", False,
                 lambda v: cut_loop(PENTAGON, [1] * 5, [1] * 5, max_rounds=v)),
    "enumerate_circulant_minors": ("max_count", True,
                                   lambda v: enumerate_circulant_minors(PENTAGON, max_count=v)),
    "enumerate_circuits": ("max_count", True,
                           lambda v: enumerate_circuits(build_digraph(PENTAGON), max_count=v)),
    "enumerate_facet_candidates": ("max_circuits", True,
                                   lambda v: enumerate_facet_candidates(PENTAGON, [1] * 5,
                                                                        max_circuits=v)),
    "enumerate_candidates_general": ("max_circuits", True,
                                     lambda v: enumerate_candidates_general(PENTAGON, [1] * 5,
                                                                            max_circuits=v)),
    "enumerate_minimal_covers": ("budget", True,
                                 lambda v: enumerate_minimal_covers(PENTAGON, [1] * 5, budget=v)),
    "hull_facets": ("budget", True, lambda v: hull_facets(PENTAGON, [1] * 5, budget=v)),
}

BAD_POSITIVE_INTS = {"string": "3", "None": None, "float": 1.5, "bool": True, "zero": 0,
                     "negative": -2}


@pytest.mark.parametrize("entry,case", [
    pytest.param(entry, case, id=f"{entry}-{case}")
    for entry, (_, none_ok, _) in POSITIVE_INTS.items()
    for case in BAD_POSITIVE_INTS
    if not (none_ok and case == "None")
])
def test_every_cap_rejects_a_value_that_is_not_a_positive_int(entry, case):
    name, _, call = POSITIVE_INTS[entry]
    with pytest.raises(BadParameters, match=f"^{name} must be"):
        call(BAD_POSITIVE_INTS[case])


MALFORMED_ROWS = {
    "three-entry row": [(1, 2, 3)],
    "bare int row": [1, 2],
    "one-entry row": [(1, 2), [3]],
    "string row": ["12"],
    "dict row": [{1: 2, 3: 4}],
    "float start": [(1.0, 2)],
}


@pytest.mark.parametrize("rows", MALFORMED_ROWS.values(), ids=MALFORMED_ROWS)
def test_circular_matrix_rejects_a_malformed_row(rows):
    """A row that is not a pair of ints is BadParameters, whatever its
    shape, never the ValueError or TypeError of unpacking it."""
    with pytest.raises(BadParameters, match="a row must be two integers"):
        circular_matrix(5, rows)


# helpers outside the entry points: (call, the name the message starts with)
HELPER_ARGUMENTS = {
    "cover_number zero window": (lambda: cover_number(5, 0), "window"),
    "cover_number string order": (lambda: cover_number("5", 2), "order"),
    "nonnegativity string": (lambda: nonnegativity("5"), "n"),
    "neighborhood_matrix None": (lambda: neighborhood_matrix(None), "neighborhoods"),
    "neighborhood_matrix int neighborhood": (lambda: neighborhood_matrix([1, 2, 3]), "nodes"),
    "interval_row int nodes": (lambda: interval_row(5, 5), "nodes"),
    "domination_solve None": (lambda: domination_solve(None), "neighborhoods"),
    "make_inequality None": (lambda: make_inequality(None, 1, "x"), "coeffs"),
    "min_winding string": (lambda: enumerate_circuits(build_digraph(PENTAGON), min_winding="2"),
                           "min_winding"),
    "min_winding float": (lambda: enumerate_circuits(build_digraph(PENTAGON), min_winding=1.5),
                          "min_winding"),
    "min_winding bool": (lambda: enumerate_circuits(build_digraph(PENTAGON), min_winding=True),
                         "min_winding"),
    "forbid_kinds None": (lambda: enumerate_circuits(build_digraph(PENTAGON), forbid_kinds=None),
                          "forbid_kinds"),
    # a string is a collection of letters, not of arc kinds
    "forbid_kinds string": (
        lambda: enumerate_circuits(build_digraph(PENTAGON), forbid_kinds="forward-row"),
        "forbid_kinds"),
    "circulant_isomorphic None": (lambda: circulant_isomorphic(PENTAGON, None), "removed"),
    "check_facet None covers": (lambda: check_facet(make_inequality([1] * 5, 2, "x"), None),
                                "covers"),
    "check_facet None inequality": (lambda: check_facet(None, COVERS), "inequality"),
    "exact_rank None": (lambda: exact_rank(None), "rows"),
    "ClosedPath int arcs": (lambda: ClosedPath([1, 2], 5), "arcs"),
    "ClosedPath None arcs": (lambda: ClosedPath(None, 8), "arcs"),
    "ClosedPath zero n": (lambda: ClosedPath(CIRCUIT.arcs, 0), "n"),
    "circuit_inequality None path": (lambda: circuit_inequality(PENTAGON, [1] * 5, None), "path"),
    "classify_nodes None path": (lambda: classify_nodes(None, 8), "path"),
    "block_decomposition None path": (lambda: block_decomposition(PENTAGON, None), "path"),
    "bad_arcs None path": (lambda: bad_arcs(PENTAGON, None), "path"),
    "bad_arcs string blocks": (lambda: bad_arcs(PENTAGON, CIRCUIT, "x"), "blocks"),
    "extract_minor None path": (lambda: extract_minor(PENTAGON, None), "path"),
}


@pytest.mark.parametrize("call,name", HELPER_ARGUMENTS.values(), ids=HELPER_ARGUMENTS)
def test_helpers_reject_a_malformed_argument(call, name):
    """BadParameters, never the ZeroDivisionError or TypeError of using the
    argument, and never a float or bool taken for an int."""
    with pytest.raises(BadParameters, match=f"^{name} must be"):
        call()


def _winding_zero_path():
    """Row arc 1 of the unit circulant (8,3), 8 -> 3, back by the reverse
    shorts 3, 2 and 1: a closed path of winding 0."""
    digraph = build_digraph(circulant_matrix(8, 3))
    arcs = [find_arc(digraph, FORWARD_ROW, 1),
            *[find_arc(digraph, REVERSE_SHORT, j) for j in (3, 2, 1)]]
    return ClosedPath(arcs, 8)


LONG_DENOMINATOR = "1/" + "1" * 5000

# input checks with their whole messages
EXACT_MESSAGES = {
    "block_decomposition winding 0": (
        lambda: block_decomposition(circulant_matrix(8, 3), _winding_zero_path()),
        "winding 0 < 1"),
    "neighborhood_rows two nodes": (
        lambda: neighborhood_rows([[1, 2], [2, 1]]), "need at least 3 nodes, got 2"),
    "check_facet negative coefficient": (
        lambda: check_facet(make_inequality([1, -1, 1, 1, 1], 2, "x"), COVERS),
        "negative coefficient in (1, -1, 1, 1, 1)"),
    # more digits than int() reads: rejected as Fraction(str) rejects it
    "parse_rational long denominator": (
        lambda: parse_rational(LONG_DENOMINATOR), f"not a rational: {LONG_DENOMINATOR!r}"),
}


@pytest.mark.parametrize("call,message", EXACT_MESSAGES.values(), ids=EXACT_MESSAGES)
def test_input_checks_name_the_fault(call, message):
    with pytest.raises(BadParameters) as info:
        call()
    assert str(info.value) == message


def test_parse_rational_reads_int_and_fraction_subclasses():
    """A subclass of int or Fraction (a bool aside) is read by value."""

    class Count(int):
        pass

    class Ratio(F):
        pass

    got = parse_rational(Count(7))
    assert got == 7 and type(got) is F
    ratio = Ratio(7, 2)
    assert parse_rational(ratio) is ratio


def test_a_circuit_of_another_order_is_bad_input():
    """A winding-2 circuit of the circulant (8,3) handed to a helper with a
    matrix on 9 or 7 columns is BadParameters, not an inequality on the
    wrong columns, an IndexError or a failed certificate."""
    path = enumerate_circuits(build_digraph(circulant_matrix(8, 3), restricted=True),
                              min_winding=2).circuits[0]
    for m in (circulant_matrix(9, 3), circulant_matrix(7, 3)):
        calls = [lambda: circuit_inequality(m, [1] * m.n, path),
                 lambda: classify_nodes(path, m.n),
                 lambda: block_decomposition(m, path),
                 lambda: bad_arcs(m, path),
                 lambda: extract_minor(m, path)]
        for call in calls:
            with pytest.raises(BadParameters,
                               match=f"^path must be a circuit on {m.n} nodes, got one on 8$"):
                call()


def _random_matrices(count, seed):
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(4, 9)
        rows = {(rng.randint(1, n), rng.randint(2, n - 1)) for _ in range(rng.randint(1, n))}
        yield circular_matrix(n, sorted(rows))


def test_min_winding_none_filters_nothing():
    """None keeps every winding; any int, negative or zero too, filters."""
    digraph = build_digraph(PENTAGON)
    everything = enumerate_circuits(digraph, min_winding=None).circuits
    assert everything == enumerate_circuits(digraph).circuits
    assert {c.winding for c in everything} == {-2, -1, 0, 1, 2}
    kept = enumerate_circuits(digraph, min_winding=0).circuits
    assert kept == tuple([c for c in everything if c.winding >= 0])
    # the search filters on its running length sum: on seeded random
    # matrices and both digraphs, each min_winding keeps exactly the
    # unfiltered circuits of that winding or more, in order, and a cap cuts
    # that list, flagged incomplete once it is reached
    windings = set()
    for m in _random_matrices(60, 3311):
        for restricted in (False, True):
            digraph = build_digraph(m, restricted=restricted)
            everything = enumerate_circuits(digraph).circuits
            windings.update(c.winding for c in everything)
            for min_winding in (0, 1, 2, 3):
                kept = tuple([c for c in everything if c.winding >= min_winding])
                enum = enumerate_circuits(digraph, min_winding=min_winding)
                assert (enum.circuits, enum.complete) == (kept, True)
                for cap in {1, 3, len(kept), len(kept) + 1} - {0}:
                    enum = enumerate_circuits(digraph, min_winding=min_winding, max_count=cap)
                    assert (enum.circuits, enum.complete) == (kept[:cap], len(kept) < cap)
    assert windings >= {-3, -2, -1, 0, 1, 2, 3}, windings


def test_every_entry_point_accepts_good_input():
    for _, call in ENTRY_POINTS.values():
        call(**GOOD)


def test_star_import_binds_no_module_and_all_resolves():
    namespace = {}
    exec("from circover import *", namespace)
    namespace.pop("__builtins__")
    assert sorted(namespace) == sorted(circover.__all__)
    assert not [k for k, v in namespace.items() if isinstance(v, ModuleType)]
    for name in circover.__all__:
        assert getattr(circover, name) is namespace[name]


def test_every_export_is_used_by_the_package_or_documented():
    """A name in `__all__` is read by some module of the package other than
    `__init__.py`, or the README's Library section names it: an export that
    only tests call belongs in `tests/_helpers.py`."""
    read = set()
    for path in Path(circover.__file__).parent.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    readme = Path(__file__).resolve().parents[1] / "README.md"
    library = readme.read_text().split("## Library", 1)[1].split("\n## ", 1)[0]
    documented = set(re.findall(r"\w+", library))
    assert [name for name in circover.__all__ if name not in read | documented] == []


def _unused_imports(path: Path) -> list[str]:
    """Names a module imports (`__future__` aside) and never reads."""
    tree = ast.parse(path.read_text())
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{path.name}:{line} {name}" for name, line in imported.items() if name not in used]


def test_no_module_imports_a_name_it_never_uses():
    """`__init__.py` is skipped: its imports are the package's re-exports."""
    modules = sorted(Path(circover.__file__).parent.glob("*.py"))
    assert len(modules) > 10
    unused = [hit for path in modules if path.name != "__init__.py"
              for hit in _unused_imports(path)]
    assert unused == []


def _generator_tuples(path: Path) -> list[str]:
    """Calls `tuple(<generator>)` and calls with a `*<generator>` argument."""
    hits = []
    for node in ast.walk(ast.parse(path.read_text())):
        if not isinstance(node, ast.Call):
            continue
        args = node.args
        if (isinstance(node.func, ast.Name) and node.func.id == "tuple"
                and args and isinstance(args[0], ast.GeneratorExp)) or any(
                isinstance(a, ast.Starred) and isinstance(a.value, ast.GeneratorExp)
                for a in args):
            hits.append(f"{path.name}:{node.lineno}")
    return hits


def test_no_tuple_is_built_from_a_generator():
    """A tuple built from a generator is allocated small and resized as it
    grows, and short-lived ones of that kind keep refilling CPython's tuple
    free lists, so a long-running process's peak RSS creeps up with its job
    count: column tuples built that way for circulant-minor witnesses once
    lifted it by about 1 MiB over a dozen `minors` calls. Build such tuples
    from lists."""
    modules = sorted(Path(circover.__file__).parent.glob("*.py"))
    assert len(modules) > 10
    assert [hit for path in modules for hit in _generator_tuples(path)] == []


def test_no_module_holds_an_assert_statement():
    """`python -O` strips assert statements, and the `-O` run of the suite
    sees only those that some test reaches; every check in the package
    raises a CircoverError subclass instead (see `errors`)."""
    modules = sorted(Path(circover.__file__).parent.glob("*.py"))
    assert len(modules) > 10
    hits = [f"{path.name}:{node.lineno}" for path in modules
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Assert)]
    assert hits == []
