"""Tests of the benchmark itself: generator, checks, statistics, tracer.

Run with `python3 -m pytest perfbench/tests` from the repository root.
"""

import io
import json
import re
from contextlib import redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest

import checks
import stats
import tracing
import workloads
from circover import cli

ROOT = Path(__file__).resolve().parents[2]


def _files(directory: Path) -> dict:
    return {p.relative_to(directory): p.read_bytes()
            for p in sorted(directory.rglob("*")) if p.is_file()}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_bytes_other_seed_other_bytes(tmp_path, workload):
    workloads.write_inputs(tmp_path / "a", workload, 5)
    workloads.write_inputs(tmp_path / "b", workload, 5)
    workloads.write_inputs(tmp_path / "c", workload, 6)
    a, b, c = (_files(tmp_path / d) for d in "abc")
    assert a == b
    assert a != c
    # a round made during a run is the one the same seed would write up front
    manifest = json.loads((tmp_path / "a" / "manifest.json").read_text())
    r = manifest["rounds"]
    later = workloads.write_round(tmp_path / "d", workload, 5, r)
    assert later == workloads.make_round(workload, 5, r)[1]
    ids = [job["id"] for job in manifest["jobs"] + later]
    assert len(set(ids)) == len(ids)


def test_separate_stream_never_repeats_a_query():
    seen = set()
    for r in range(40):
        instances, jobs = workloads.make_round("separate-stream", 3, r)
        for job in jobs:
            doc = instances[job["instance"]]
            key = json.dumps([doc["n"], sorted(zip(map(tuple, doc["rows"]), doc.get("b", []))),
                              job["args"]])
            assert key not in seen
            seen.add(key)


def _answer(tmp_path, verb, doc, *extra):
    path = tmp_path / f"{verb}.json"
    path.write_text(json.dumps(doc))
    buf = io.StringIO()
    with redirect_stdout(buf):
        assert cli.main([verb, str(path), *extra]) == 0
    job = {"id": verb, "verb": verb, "instance": verb, "args": list(extra)}
    return checks.Checker(tmp_path), job, json.loads(buf.getvalue())


def _check(checker, job, out):
    return checker.check(job, 0, json.dumps(out))


def test_checker_rejects_flipped_x(tmp_path):
    doc = {"n": 7, "rows": [[i, 3] for i in range(1, 8)],
           "w": ["1", "1/2", "2", "1", "3/4", "1", "5/3"]}
    checker, job, out = _answer(tmp_path, "solve", doc)
    assert _check(checker, job, out) is None
    for j in range(7):
        bad = dict(out, x=list(out["x"]))
        bad["x"][j] = 1 - bad["x"][j]
        assert _check(checker, job, bad) is not None


def test_checker_rejects_certificate_off_by_a_seventh(tmp_path):
    doc = {"n": 8, "rows": [[i, 3] for i in range(1, 9)]}
    checker, job, out = _answer(
        tmp_path, "separate", doc, "--point", json.dumps(["1/3"] * 8))
    job["expect"] = "violated"
    assert out["verdict"] == "violated"
    assert _check(checker, job, out) is None
    cert = Fraction(out["certificate"]) + Fraction(1, 7)
    assert "certificate" in _check(checker, job, dict(out, certificate=str(cert)))


def test_checker_rejects_member_called_violated(tmp_path):
    doc = {"n": 8, "rows": [[i, 3] for i in range(1, 9)]}
    checker, job, out = _answer(
        tmp_path, "separate", doc, "--point", json.dumps(["1/3"] * 8))
    job["expect"] = "member"
    assert _check(checker, job, out) is not None


def test_checker_rejects_dropped_facet(tmp_path):
    doc = {"n": 8, "rows": [[i, 3] for i in range(1, 9)]}
    checker, job, out = _answer(tmp_path, "facets", doc)
    assert _check(checker, job, out) is None
    items = out["inequalities"]
    first = next(i for i, q in enumerate(items) if q["facet"] is True)
    dropped = dict(out, inequalities=items[:first] + items[first + 1:])
    assert "facets" in _check(checker, job, dropped)


def test_checker_counts_crash_and_exit_codes(tmp_path):
    checker = checks.Checker(tmp_path)
    job = {"id": "x", "verb": "solve", "instance": "x", "args": []}
    assert "traceback" in checker.check(job, None, "", "Traceback\nTypeError: boom")
    assert "exit code 1" in checker.check(job, 1, "", "error: bad")
    assert "malformed" in checker.check(job, 0, "not json")


def test_percentile_needs_ten_samples_beyond():
    assert stats.samples_needed(0.9) == 100
    assert stats.percentile(list(range(100)), 0.9) == 89
    with pytest.raises(ValueError):
        stats.percentile(list(range(99)), 0.9)
    assert stats.percentile(list(range(200)), 0.9) == 179


def test_self_time_on_hand_built_tree():
    # main [0, 10] -> solve_lp [1, 4], optimize [5, 9] -> solve_lp [6, 8]
    spans = [
        ["cli.main", 0.0, 10.0, -1, 0, None],
        ["lp.solve_lp", 1.0, 4.0, 0, 0, (6, False)],
        ["optimize.optimize", 5.0, 9.0, 0, 0, None],
        ["lp.solve_lp", 6.0, 8.0, 2, 0, (4, True)],
    ]
    assert tracing.self_times(spans) == [3.0, 3.0, 2.0, 2.0]
    m = tracing.layer_metrics(spans, {"matrices.support": 7})
    assert m["cli.main.self_ms"] == 3000.0
    assert m["lp.solve_lp.self_ms"] == 5000.0
    assert m["lp.solve_lp.calls"] == 2
    assert m["lp.cells"] == 10
    assert m["lp.infeasible_ratio"] == 0.5
    assert m["optimize.lexmin_lps"] == 1
    assert m["optimize.optimize.self_ms"] == 2000.0
    assert m["matrices.support.calls"] == 7
    shares = tracing.span_shares(spans)
    assert shares == {"cli.main": 0.3, "lp.solve_lp": 0.5, "optimize.optimize": 0.2}


def test_tracer_wraps_every_import_and_keeps_answers(tmp_path):
    import circover.optimize  # noqa: F401
    import sys
    circ = {"n": 8, "rows": [[i, 3] for i in range(1, 9)]}
    member = json.dumps(["1/2"] * 8)
    runs = [
        ("solve", {"n": 5, "rows": [[i, 2] for i in range(1, 6)]}, []),
        ("separate", circ, ["--point", json.dumps(["1/3"] * 8)]),
        ("separate", circ, ["--point", member]),
        ("cut-loop", circ, []),
        ("facets", circ, []),
        ("verify", circ, []),
        ("minors", {"n": 10, "rows": [[i, 4] for i in range(1, 11)]}, []),
    ]
    argvs = []
    for k, (verb, doc, extra) in enumerate(runs):
        path = tmp_path / f"{k}.json"
        path.write_text(json.dumps(doc))
        argvs.append([verb, str(path), *extra])

    def answers():
        out = []
        for argv in argvs:
            buf = io.StringIO()
            with redirect_stdout(buf):
                sys.modules["circover.cli"].main(argv)
            out.append(buf.getvalue())
        return out

    plain = answers()
    original = sys.modules["circover.lp"].solve_lp
    with tracing.Tracer() as tracer:
        assert sys.modules["circover.optimize"].solve_lp is not original
        assert sys.modules["circover.separation"].solve_lp is not original
        traced = answers()
    assert sys.modules["circover.optimize"].solve_lp is original
    assert traced == plain
    assert tracing.misfired_names(tracer.fired()) == []
    assert tracer.counts["matrices.support"] > 0
    metrics = tracing.layer_metrics(tracer.spans, tracer.counts)
    assert metrics["separation.shortcut_ratio"] > 0
    assert metrics["optimize.lexmin_lps"] > 0


def test_benchmark_json_lists_what_the_run_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert all(w["why"] == workloads.WHY[w["name"]] for w in spec["workloads"])
    per_layer = {m["name"] for m in spec["per_layer"]}
    assert per_layer == set(tracing.layer_metrics([], {})) | {"trace.overhead"}
    e2e = {m["name"] for m in spec["end_to_end"]}
    assert e2e == {"job_p50_ms", "job_p90_ms", "jobs_per_s", "setup_s", "peak_rss_mb"}
    name = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    for m in spec["end_to_end"] + spec["per_layer"]:
        assert name.match(m["name"]) and m["better"] in ("higher", "lower")
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
