"""End-to-end command line coverage, driving cli.main directly."""

import io
import json
import os
import random
import subprocess
import sys
from enum import IntEnum
from pathlib import Path

import pytest
from _helpers import BROKEN_VERTICES

import circover
from circover import circular_matrix, cli
from circover.jsonio import _dumps_indented


PENTAGON = {"n": 5, "rows": [[1, 2], [2, 2], [3, 2], [4, 2], [5, 2]]}


@pytest.fixture
def pentagon_file(tmp_path):
    path = tmp_path / "pentagon.json"
    path.write_text(json.dumps(PENTAGON))
    return str(path)


def run(capsys, args):
    code = cli.main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_solve(pentagon_file, capsys):
    code, out, err = run(capsys, ["solve", pentagon_file])
    assert code == 0
    data = json.loads(out)
    assert data["value"] == "3"
    assert data["x"] == [0, 1, 0, 1, 1]
    assert data["beta"] == 3
    assert data["slices"] == [
        {"beta": 2, "value": "infeasible"},
        {"beta": 3, "value": "3"},
        {"beta": 4, "value": "4"},
        {"beta": 5, "value": "5"},
    ]


def test_solve_reads_stdin(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(PENTAGON)))
    code, out, _ = run(capsys, ["solve", "-"])
    assert code == 0
    assert json.loads(out)["value"] == "3"


def test_solve_with_weights(tmp_path, capsys):
    inst = dict(PENTAGON, w=["1", "1", "1", "1", "2"])
    path = tmp_path / "weighted.json"
    path.write_text(json.dumps(inst))
    code, out, _ = run(capsys, ["solve", str(path)])
    assert code == 0
    data = json.loads(out)
    assert data["value"] == "3"
    assert data["x"] == [1, 0, 1, 1, 0]


def test_separate_violated(pentagon_file, capsys):
    point = '["1/2","1/2","1/2","1/2","1/2"]'
    code, out, _ = run(capsys, ["separate", pentagon_file, "--point", point])
    assert code == 0
    data = json.loads(out)
    assert data["verdict"] == "violated"
    assert data["certificate"] == "-1/2"
    assert data["inequality"]["coeffs"] == [1, 1, 1, 1, 1]
    assert data["inequality"]["rhs"] == 3
    assert data["inequality"]["kind"] == "circuit"
    assert len(data["circuit"]) == 5
    assert all(arc["kind"] == "forward-row" for arc in data["circuit"])


def test_separate_member(pentagon_file, capsys):
    code, out, _ = run(capsys, ["separate", pentagon_file, "--point", '["1","1","0","1","0"]'])
    assert code == 0
    assert json.loads(out) == {"verdict": "member"}


def test_facets(pentagon_file, capsys):
    code, out, _ = run(capsys, ["facets", pentagon_file])
    assert code == 0
    data = json.loads(out)
    assert data["complete"] is True
    assert data["b"] == [1, 1, 1, 1, 1]
    assert len(data["inequalities"]) == 11
    assert all(entry["facet"] is True for entry in data["inequalities"])
    kinds = {entry["kind"] for entry in data["inequalities"]}
    assert kinds == {"nonneg", "boolean", "rank"}


def test_facets_alpha_scaling(pentagon_file, capsys):
    code, out, _ = run(capsys, ["facets", pentagon_file, "--alpha", "2"])
    assert code == 0
    data = json.loads(out)
    assert data["b"] == [2, 2, 2, 2, 2]
    assert data["complete"] is True


def test_facets_circuit_cap(pentagon_file, capsys):
    code, out, _ = run(capsys, ["facets", pentagon_file, "--max-circuits", "1"])
    assert code == 2
    assert json.loads(out)["complete"] is False


def test_facets_budget_leaves_flags_unknown(pentagon_file, capsys):
    code, out, _ = run(capsys, ["facets", pentagon_file, "--budget", "1"])
    assert code == 0
    data = json.loads(out)
    assert {entry["facet"] for entry in data["inequalities"]} == {"unknown"}


def test_verify(pentagon_file, capsys):
    code, out, _ = run(capsys, ["verify", pentagon_file])
    assert code == 0
    data = json.loads(out)
    assert data["ok"] is True
    assert data["matched"] == 11
    assert data["missing"] == []
    assert data["extra_nonfacets"] == []


def test_verify_budget_exhaustion(pentagon_file, capsys):
    code, out, _ = run(capsys, ["verify", pentagon_file, "--budget", "1"])
    assert code == 2
    data = json.loads(out)
    assert "error" in data
    assert "candidates" in data


# circulant (8,3) without row 7: a non-circulant matrix with no dominating rows
NON_CIRCULANT = {"n": 8, "rows": [[1, 3], [2, 3], [3, 3], [4, 3], [5, 3], [6, 3], [8, 3]],
                 "w": ["1", "2", "1", "1", "3/2", "1", "1", "2"]}


@pytest.mark.parametrize("verb", ["solve", "separate", "facets", "verify", "minors", "cut-loop"])
@pytest.mark.parametrize("instance", [PENTAGON, NON_CIRCULANT], ids=["pentagon", "non-circulant"])
def test_stdout_is_what_json_dumps_writes(verb, instance, tmp_path, capsys):
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(instance))
    args = [verb, str(path)]
    if verb == "separate":
        args += ["--point", json.dumps(["1/2"] * instance["n"])]
    code, out, err = run(capsys, args)
    assert code == 0 and err == ""
    assert out == json.dumps(json.loads(out), indent=2) + "\n"


@pytest.mark.parametrize("value", [0.5, [1, 2.0], {"a": {"b": float("nan")}}, {1: "a"},
                                   {None: 1}, [{"a": {(1,): 2}}]])
def test_indented_writer_rejects_floats_and_non_str_keys(value):
    with pytest.raises(TypeError):
        _dumps_indented(value)


class _Text(str):
    pass


class _Count(int):
    pass


class _Items(list):
    pass


class _Pair(tuple):
    pass


class _Record(dict):
    pass


class _Level(IntEnum):
    LOW = 1
    HIGH = -(10 ** 30)


@pytest.mark.parametrize("value", [
    _Text("caf\u00e9 \"q\""), _Count(7), _Level.HIGH, _Items(), _Pair(), _Record(),
    _Items([_Count(3), _Level.LOW, _Pair((_Text("x"), None, True)), _Record()]),
    _Record({_Text("k\u00e9y"): _Items([_Level.HIGH, False]), "b": _Pair((1, _Count(-2))),
             "c": _Record({"d": _Text("")}), "e": [_Level.LOW, {"f": _Pair()}]}),
], ids=["str", "int", "int-enum", "empty-list", "empty-tuple", "empty-dict", "list", "dict"])
def test_indented_writer_matches_json_dumps_on_subclasses(value):
    assert _dumps_indented(value) == json.dumps(value, indent=2)


def test_minors_circulant(tmp_path, capsys):
    path = tmp_path / "oct.json"
    path.write_text(json.dumps({"n": 8, "rows": [[i, 3] for i in range(1, 9)]}))
    code, out, _ = run(capsys, ["minors", str(path)])
    assert code == 0
    data = json.loads(out)
    assert data["complete"] is True
    assert [m["removed"] for m in data["minors"]] == [[1, 5], [2, 6], [3, 7], [4, 8]]
    assert all(m["order"] == 6 and m["window"] == 2 and m["exact"] for m in data["minors"])


def test_minors_general_matrix(tmp_path, capsys):
    path = tmp_path / "mixed.json"
    path.write_text(json.dumps({"n": 7, "rows": [[1, 3], [2, 5], [5, 5]]}))
    code, out, _ = run(capsys, ["minors", str(path)])
    assert code == 0
    data = json.loads(out)
    assert data["minors"] == [
        {"removed": [2, 4, 5, 7], "order": 3, "window": 2, "rows": [1, 2, 3], "exact": True}
    ]


def test_minors_rejects_dominating_rows(tmp_path, capsys):
    # circulant (9,4) plus the row {1..5}, which strictly contains row 1
    rows = [[i, 4] for i in range(1, 10)] + [[1, 5]]
    path = tmp_path / "dominated.json"
    path.write_text(json.dumps({"n": 9, "rows": rows}))
    code, out, err = run(capsys, ["minors", str(path)])
    assert code == 1
    assert out == ""
    assert err == "error: minors need a matrix without dominating rows\n"


def test_facets_and_verify_accept_dominating_rows(tmp_path, capsys):
    # row [1, 3] contains row [1, 2], and row [4, 3] contains row [5, 2]
    path = tmp_path / "dominated.json"
    path.write_text(json.dumps({"n": 6, "rows": [[1, 2], [1, 3], [3, 2], [4, 3], [5, 2]]}))
    code, out, err = run(capsys, ["facets", str(path)])
    assert (code, err) == (0, "")
    assert json.loads(out)["complete"] is True
    code, out, err = run(capsys, ["verify", str(path)])
    assert (code, err) == (0, "")
    assert json.loads(out)["ok"] is True


def test_verify_on_random_matrices_with_dominating_rows(tmp_path, capsys):
    """60 seeded circular matrices with n 5-8, some row containing another,
    and one demand level 1 or 2 on every row: each candidate list holds
    every hull facet."""
    rng = random.Random(1606)
    path = tmp_path / "dominated.json"
    checked = 0
    while checked < 60:
        n = rng.randint(5, 8)
        pool = [(s, length) for s in range(1, n + 1) for length in range(2, n)]
        rows = rng.sample(pool, rng.randint(3, n))
        if not circular_matrix(n, rows).dominating_rows():
            continue
        doc = {"n": n, "rows": [list(r) for r in rows], "b": [rng.randint(1, 2)] * len(rows)}
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, ["verify", str(path)])
        assert (code, err) == (0, ""), doc
        assert json.loads(out)["ok"] is True, doc
        checked += 1


def test_cut_loop(pentagon_file, capsys):
    code, out, _ = run(capsys, ["cut-loop", pentagon_file])
    assert code == 0
    data = json.loads(out)
    assert data["value"] == "3"
    assert data["rounds"] == 2
    assert data["steps"][0]["value"] == "5/2"
    assert data["steps"][0]["point"] == ["1/2"] * 5
    assert data["steps"][0]["cut"]["rhs"] == 3


def test_cut_loop_round_cap(pentagon_file, capsys):
    code, out, err = run(capsys, ["cut-loop", pentagon_file, "--max-rounds", "1"])
    assert (code, err) == (2, "")
    data = json.loads(out)
    assert list(data) == ["instance", "error"]
    assert data["error"] == "no convergence within 1 rounds"


def test_caps_below_one_rejected(pentagon_file, tmp_path, capsys):
    mixed = tmp_path / "mixed.json"
    mixed.write_text(json.dumps({"n": 7, "rows": [[1, 3], [2, 5], [5, 5]]}))
    for args in (["facets", pentagon_file, "--max-circuits", "0"],
                 ["verify", pentagon_file, "--max-circuits", "-1"],
                 ["minors", pentagon_file, "--max-circuits", "0"],
                 ["minors", str(mixed), "--max-circuits", "0"],
                 ["cut-loop", pentagon_file, "--max-rounds", "0"],
                 ["facets", pentagon_file, "--budget", "0"],
                 ["verify", pentagon_file, "--budget", "-3"]):
        code, out, err = run(capsys, args)
        assert code == 1, args
        assert out == "", args
        assert err.startswith("error:") and len(err.splitlines()) == 1, args
        # the message names the flag typed, not the library argument
        assert err == f"error: {args[2]} must be at least 1, got {args[3]}\n", args


def test_negative_alpha_rejected(pentagon_file, capsys):
    for verb in ("facets", "verify"):
        code, out, err = run(capsys, [verb, pentagon_file, "--alpha", "-1"])
        assert (code, out, err) == (1, "", "error: --alpha must be non-negative\n"), verb


@pytest.mark.parametrize("args", [
    ["solve", "PENTAGON", "--bogus"],
    ["facets", "PENTAGON", "--alpha", "x"],
    ["minors", "PENTAGON", "--max-circuits", "1.5"],
    ["separate", "PENTAGON"],
    [],
], ids=["unknown-flag", "alpha-not-int", "cap-not-int", "no-point", "no-verb"])
def test_usage_errors_are_one_line_exit_1(args, pentagon_file, capsys):
    args = [pentagon_file if a == "PENTAGON" else a for a in args]
    code, out, err = run(capsys, args)
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and len(err.splitlines()) == 1


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--help"])
    assert exc.value.code == 0
    assert "usage:" in capsys.readouterr().out


def test_output_flag_writes_file(pentagon_file, tmp_path, capsys):
    target = tmp_path / "out.json"
    code, out, _ = run(capsys, ["solve", pentagon_file, "--output", str(target)])
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text())["value"] == "3"


@pytest.mark.parametrize("target", ["nope/x.json", "."], ids=["missing-directory", "directory"])
def test_unwritable_output_is_one_line_exit_1(target, pentagon_file, tmp_path, capsys):
    code, out, err = run(capsys, ["solve", pentagon_file, "--output", str(tmp_path / target)])
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and len(err.splitlines()) == 1


def test_options_of_one_call_do_not_leak_into_the_next(pentagon_file, tmp_path, capsys):
    """`main` reuses one parser per process; options given to one call must
    not reach a later call that leaves them out."""
    plain = {verb: run(capsys, [verb, pentagon_file]) for verb in ("facets", "verify", "minors")}
    target = tmp_path / "out.json"
    for verb, extra in (
        ("facets", ["--alpha", "2", "--max-circuits", "1", "--output", str(target)]),
        ("verify", ["--alpha", "2", "--max-circuits", "1"]),
        ("minors", ["--max-circuits", "1", "--output", str(target)]),
    ):
        assert run(capsys, [verb, pentagon_file] + extra) != plain[verb]
        assert run(capsys, [verb, pentagon_file]) == plain[verb]
        assert plain[verb][0] == 0 and plain[verb][1]
    assert cli._build_parser() is cli._build_parser()


def test_seed_flag_is_accepted(pentagon_file, capsys):
    code, out, _ = run(capsys, ["solve", pentagon_file, "--seed", "7"])
    assert code == 0
    assert json.loads(out)["value"] == "3"


def test_missing_file(capsys):
    code, out, err = run(capsys, ["solve", "/nonexistent/instance.json"])
    assert code == 1
    assert err.startswith("error:")


def test_non_utf8_file_rejected(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_bytes(b"\xff\xfe{}")
    code, out, err = run(capsys, ["solve", str(path)])
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and len(err.splitlines()) == 1


def test_non_utf8_stdin_rejected(capsys, monkeypatch):
    stdin = io.TextIOWrapper(io.BytesIO(b"\xff\xfe{}"), encoding="utf-8")
    monkeypatch.setattr("sys.stdin", stdin)
    code, out, err = run(capsys, ["solve", "-"])
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and len(err.splitlines()) == 1


def test_duplicate_row_rejected(capsys, monkeypatch):
    bad = json.dumps({"n": 5, "rows": [[1, 2], [1, 2]]})
    monkeypatch.setattr("sys.stdin", io.StringIO(bad))
    code, out, err = run(capsys, ["solve", "-"])
    assert (code, out, err) == (1, "", "error: row (1, 2) appears twice\n")


def test_row_start_out_of_range_rejected(capsys, monkeypatch):
    bad = json.dumps({"n": 3, "rows": [[4, 1]]})
    monkeypatch.setattr("sys.stdin", io.StringIO(bad))
    code, out, err = run(capsys, ["solve", "-"])
    assert (code, out, err) == (1, "", "error: row start 4 outside 1..3\n")


def test_float_point_rejected(pentagon_file, capsys):
    code, _, err = run(capsys, ["separate", pentagon_file, "--point", "[0.5,0.5,0.5,0.5,0.5]"])
    assert code == 1
    assert "float" in err


@pytest.mark.parametrize("entry, shown", [
    ("null", "None"), ("[1]", "[1]"), ('{"a": 1}', "{'a': 1}"),
], ids=["null", "list", "dict"])
def test_non_rational_point_entry_rejected(pentagon_file, capsys, entry, shown):
    """Only a float is told that floats are not accepted."""
    point = f"[{entry},1,1,1,1]"
    code, out, err = run(capsys, ["separate", pentagon_file, "--point", point])
    assert (code, out) == (1, "")
    assert err == f"error: not a rational: {shown}\n"


@pytest.mark.parametrize("text, message", [
    ("1" * 5000, "Exceeds the limit (4300 digits)"),
    ("[" * 100000, "maximum recursion depth exceeded"),
], ids=["long integer", "deep nesting"])
def test_undecodable_json_is_one_error_line(tmp_path, pentagon_file, capsys, text, message):
    code, out, err = run(capsys, ["separate", pentagon_file, "--point", text])
    assert (code, out) == (1, "")
    assert err.startswith("error: --point is not valid JSON: ") and message in err
    assert err.count("\n") == 1
    path = tmp_path / "bad.json"
    path.write_text(text)
    code, out, err = run(capsys, ["solve", str(path)])
    assert (code, out) == (1, "")
    assert err.startswith(f"error: invalid JSON in {path}: ") and message in err
    assert err.count("\n") == 1


def test_point_outside_relaxation(pentagon_file, capsys):
    code, out, err = run(capsys, ["separate", pentagon_file, "--point", '["0","0","1","1","1"]'])
    assert (code, out, err) == (1, "", "error: row 1 is short by 1\n")


def test_point_bad_json(pentagon_file, capsys):
    code, _, err = run(capsys, ["separate", pentagon_file, "--point", "not json"])
    assert code == 1
    assert "JSON" in err


@pytest.mark.parametrize("n", ["5", 5.0, True])
def test_non_integer_n_rejected(n, capsys, monkeypatch):
    bad = json.dumps(dict(PENTAGON, n=n))
    monkeypatch.setattr("sys.stdin", io.StringIO(bad))
    code, out, err = run(capsys, ["solve", "-"])
    assert code == 1
    assert out == ""
    assert err == f"error: n must be an integer, got {n!r}\n"


@pytest.mark.parametrize("row", [[1, 2, 3], 5, ["1", 2], [1.0, 2], [True, 2], {"1": 2}],
                         ids=["three entries", "bare int", "string", "float", "bool", "object"])
def test_malformed_row_rejected(row, capsys, monkeypatch):
    """`circular_matrix` checks the rows of an instance file, so the message
    is the library's."""
    bad = json.dumps({"n": 5, "rows": [[1, 2], row]})
    monkeypatch.setattr("sys.stdin", io.StringIO(bad))
    code, out, err = run(capsys, ["solve", "-"])
    assert (code, out) == (1, "")
    assert err == f"error: a row must be two integers, got {row!r}\n"


def test_negative_weight_rejected_by_every_verb(tmp_path, capsys):
    path = tmp_path / "negative.json"
    path.write_text(json.dumps(dict(PENTAGON, w=["1", "1", "-1", "1", "1"])))
    for verb in (["solve"], ["separate", "--point", '["1","1","1","1","1"]'],
                 ["facets"], ["verify"], ["minors"], ["cut-loop"]):
        code, out, err = run(capsys, [verb[0], str(path)] + verb[1:])
        assert (code, out, err) == (1, "", "error: negative weight -1\n"), verb


def run_python(*args):
    """Run a fresh interpreter on this checkout's circover; (exit code, stdout)."""
    src = str(Path(circover.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=path), timeout=120)
    return proc.returncode, proc.stdout


def test_solve_output_is_the_same_under_dash_O(pentagon_file):
    plain = run_python("-m", "circover.cli", "solve", pentagon_file)
    assert plain[0] == 0 and json.loads(plain[1])["value"] == "3"
    assert run_python("-O", "-m", "circover.cli", "solve", pentagon_file) == plain


def test_certificates_survive_dash_O():
    script = """
import sys
from fractions import Fraction
from circover import CertificateError, LPResult, circulant_matrix, optimize
assert False, "asserts must be stripped here"
half = LPResult("optimal", Fraction(1, 2), (Fraction(1, 2),) * 4)
sys.modules["circover.optimize"].solve_lp = lambda *args, **kwargs: half
try:
    optimize(circulant_matrix(5, 2), [1] * 5, [1] * 5)
except CertificateError as exc:
    print(exc)
"""
    code, out = run_python("-O", "-c", script)
    assert code == 0
    assert out.startswith("non-integral slice vertex")


def test_integral_slice_vertex_checks_survive_dash_O():
    """The vertices of `test_integral_slice_vertex_off_an_arc_raises`, one
    off a column arc and one off a row arc, under -O."""
    script = f"""
import sys
from fractions import Fraction
from circover import CertificateError, LPResult, circulant_matrix, optimize
assert False, "asserts must be stripped here"
for point, _ in {list(BROKEN_VERTICES.values())!r}:
    vertex = LPResult("optimal", Fraction(0), tuple(map(Fraction, point)))
    sys.modules["circover.optimize"].solve_lp = lambda *args, **kwargs: vertex
    try:
        optimize(circulant_matrix(5, 2), [1] * 5, [1] * 5)
    except CertificateError as exc:
        print(exc)
"""
    expected = "".join(f"{message}\n" for _, message in BROKEN_VERTICES.values())
    assert run_python("-O", "-c", script) == (0, expected)


def test_slice_certificates_survive_dash_O():
    """The flow certificate of `test_tampered_slice_certificate_raises`,
    each flow and potential entry moved by one, under -O."""
    script = """
import sys
from circover import CertificateError, circulant_matrix
assert False, "asserts must be stripped here"
module = sys.modules["circover.optimize"]
m, b, w = circulant_matrix(5, 2), [1] * 5, [3, 1, 2, 1, 2]
flow, y = module._slice_flow(module._slice_graph(m, b, 3), w + [0] * 7)
refused = 0
for cert in (flow, y):
    for at in range(len(cert)):
        for delta in (1, -1):
            cert[at] += delta
            tampered = (list(flow), list(y))
            cert[at] -= delta
            module._slice_flow = lambda *args: tampered
            try:
                module.solve_slice(m, b, w, 3, w + [0] * 7)
            except CertificateError:
                refused += 1
print(refused)
"""
    assert run_python("-O", "-c", script) == (0, "36\n")
