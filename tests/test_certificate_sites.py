"""Every `raise CertificateError` site in `src/` fires in a test, and stays so.

The sites are read statically: `ast` finds each `raise CertificateError(...)`
and reads its message as a template, literal text with `{}` for each
f-string placeholder. `SITES` maps every site to a test and to the message
that test makes it raise. The message must be an instance of the template,
and one `pytest.raises(CertificateError, match=...)` in that test must find
it; a match given by a parameter name is read from the test's parametrize
marks, and `re.escape` of either is applied. A new site fails the guard
until it has a test, and a site that is gone fails it until its entry goes.
"""

import ast
import importlib
import inspect
import pathlib
import re
import textwrap

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "circover"

# (file, message template): (test module::test function, the message it raises)
SITES = {
    ("digraph.py", "the walk back from node {} closed no cycle"): (
        "test_digraph::test_walk_back_that_closes_no_cycle_raises",
        "the walk back from node 1 closed no cycle"),
    ("digraph.py", "the predecessor circuit is not negative"): (
        "test_digraph::test_tampered_predecessor_cycle_raises",
        "the predecessor circuit is not negative"),
    ("inequalities.py", "blocks overlap at column {}"): (
        "test_inequalities::test_block_decomposition_certificates_raise",
        "blocks overlap at column 2"),
    ("inequalities.py", "blocks cover columns {}, the circuit visits {}"): (
        "test_inequalities::test_block_decomposition_certificates_raise",
        "blocks cover columns [2, 4, 5, 7, 8], the circuit visits [1, 2, 4, 5, 7, 8]"),
    ("inequalities.py", "{} row arcs for {} essential plain nodes"): (
        "test_inequalities::test_block_decomposition_certificates_raise",
        "5 row arcs for 6 essential plain nodes"),
    ("inequalities.py", "{} essential plain nodes and winding {} are not coprime"): (
        "test_inequalities::test_block_decomposition_certificates_raise",
        "5 essential plain nodes and winding 5 are not coprime"),
    ("inequalities.py",
     "the row arcs do not join each block's exit to the entry of the block {} places further"): (
        "test_inequalities::test_block_decomposition_certificates_raise",
        "the row arcs do not join each block's exit to the entry of the block 2 places further"),
    ("inequalities.py", "row arc {} jumps {} essential plain nodes at winding {}"): (
        "test_inequalities::test_block_decomposition_certificates_raise",
        "row arc 2 jumps 2 essential plain nodes at winding 7"),
    ("inequalities.py", "row {} jumps {} essential nodes at winding {}"): (
        "test_inequalities::test_bad_arcs_certificates_raise",
        "row 1 jumps 1 essential nodes at winding 4"),
    ("inequalities.py", "bad-row criterion failed on row {}"): (
        "test_inequalities::test_bad_arcs_certificates_raise",
        "bad-row criterion failed on row 1"),
    ("inequalities.py",
     "the circuit's rows on its {} essential columns are not the circulant ({}, {})"): (
        "test_inequalities::test_minor_checks_raise",
        "the circuit's rows on its 5 essential columns are not the circulant (5, 2)"),
    ("inequalities.py",
     "deleting columns {} does not leave the circulant ({}, {}) the circuit promises"): (
        "test_inequalities::test_minor_checks_raise",
        "deleting columns [2, 5] does not leave the circulant (5, 2) the circuit promises"),
    ("inequalities.py",
     "deleting columns {} does not leave the circulant ({}, {}) its step cover promises"): (
        "test_inequalities::test_minor_cross_check_raises",
        "deleting columns [1, 5] does not leave the circulant (6, 2) its step cover promises"),
    ("lp.py", "phase 1 came back unbounded"): (
        "test_lp::test_unbounded_phase_one_raises",
        "phase 1 came back unbounded"),
    ("optimize.py", "non-integral slice vertex {}"): (
        "test_optimize::test_fractional_slice_vertex_raises",
        "non-integral slice vertex [Fraction(1, 2), Fraction(0, 1), Fraction(0, 1), "
        "Fraction(0, 1), Fraction(5, 2)]"),
    ("optimize.py", "slice potential {} does not run from 0 to {}"): (
        "test_optimize::test_tampered_slice_certificate_names_its_check",
        "slice potential [1, 0, 1, 1, 2, 3] does not run from 0 to 3"),
    ("optimize.py", "slice potential {} violates arc {} -> {}"): (
        "test_optimize::test_tampered_slice_certificate_names_its_check",
        "slice potential [0, 1, 1, 1, 2, 3] violates arc 1 -> 3"),
    ("optimize.py", "negative slice flow {}"): (
        "test_optimize::test_tampered_slice_certificate_names_its_check",
        "negative slice flow [1, -1, 1, 0, 0, 0, 0, 0, 0, 1, 2, 0]"),
    ("optimize.py", "slice flow {} does not conserve"): (
        "test_optimize::test_tampered_slice_certificate_names_its_check",
        "slice flow [2, 0, 1, 0, 0, 0, 0, 0, 0, 1, 2, 0] does not conserve"),
    ("optimize.py", "slice flow {} and potential {} differ in cost"): (
        "test_optimize::test_tampered_slice_certificate_names_its_check",
        "slice flow [1, 0, 1, 0, 0, 0, 0, 0, 0, 1, 2, 0] and potential [0, 0, 1, 2, 2, 3] "
        "differ in cost"),
    ("oracle.py", "hull ray {} has a negative coefficient"): (
        "test_oracle::test_hull_ray_with_a_negative_coefficient_raises",
        "hull ray (1, 0, -1, -1, 0, 0) has a negative coefficient"),
    ("separation.py", "inequality slack {} differs from the circuit cost {}"): (
        "test_separation::test_certificate_mismatch_raises",
        "inequality slack -3/2 differs from the circuit cost -1/2"),
    ("separation.py", "circuit inequality is not violated: slack {}"): (
        "test_separation::test_unviolated_circuit_raises",
        "circuit inequality is not violated: slack 0"),
    ("separation.py", "covering relaxation came back {}"): (
        "test_separation::test_cut_loop_rejects_an_infeasible_relaxation",
        "covering relaxation came back infeasible"),
}

# the two checks of the lexmin LP in `optimize`, which no test reaches: they
# leave with that LP once the slice flow's point is certified in its place
KNOWN_UNREACHED = {
    ("optimize.py", "the lexmin LP at sum {} came back {}"),
    ("optimize.py", "no certified lexmin optimum at sum {}"),
}


def _template(node) -> str:
    """The message of a raise, literal text with {} for each placeholder."""
    if isinstance(node, ast.Constant):
        return node.value
    return "".join(
        part.value if isinstance(part, ast.Constant) else "{}" for part in node.values
    )


def _sites() -> list[tuple[str, str]]:
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call)
                    and getattr(node.exc.func, "id", None) == "CertificateError"):
                found.append((path.name, _template(node.exc.args[0])))
    return found


def _patterns(func, arg) -> list[str]:
    """The patterns a `match=` argument takes: a string, a parameter of the
    test's parametrize marks, or `re.escape` of either."""
    if isinstance(arg, ast.Constant):
        return [arg.value]
    if isinstance(arg, ast.Call) and ast.unparse(arg.func) == "re.escape":
        return [re.escape(p) for p in _patterns(func, arg.args[0])]
    if isinstance(arg, ast.Name):
        out = []
        for mark in getattr(func, "pytestmark", []):
            if mark.name != "parametrize":
                continue
            names = mark.args[0]
            names = [s.strip() for s in names.split(",")] if isinstance(names, str) else names
            if arg.id in names:
                at = names.index(arg.id)
                out += [v if len(names) == 1 else v[at] for v in mark.args[1]]
        return out
    raise AssertionError(f"cannot read the match pattern {ast.unparse(arg)}")


def _match_patterns(func) -> list[str]:
    """Every pattern of a `pytest.raises(CertificateError, match=...)` in func."""
    tree = ast.parse(textwrap.dedent(inspect.getsource(func)))
    out = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and ast.unparse(node.func) == "pytest.raises"
                and node.args and ast.unparse(node.args[0]) == "CertificateError"):
            for kw in node.keywords:
                if kw.arg == "match":
                    out += _patterns(func, kw.value)
    return out


def test_every_certificate_site_is_mapped_to_a_test():
    sites = _sites()
    assert len(sites) == len(set(sites)) == 26, sites
    assert not set(SITES) & KNOWN_UNREACHED
    assert set(sites) == set(SITES) | KNOWN_UNREACHED, set(sites) ^ (set(SITES) | KNOWN_UNREACHED)


@pytest.mark.parametrize("site", sorted(SITES), ids=lambda site: f"{site[0]}: {site[1]}")
def test_each_certificate_site_has_a_matching_test(site):
    test, message = SITES[site]
    literal = [re.escape(part) for part in site[1].split("{}")]
    assert re.fullmatch(".+".join(literal), message), (site, message)
    module, name = test.split("::")
    func = getattr(importlib.import_module(module), name)
    patterns = _match_patterns(func)
    assert any(re.search(p, message) for p in patterns), (test, message, patterns)
