"""Answer checks for every CLI verb the workloads run.

Each check recomputes what it can from the instance file and the query
itself (row coverage, slacks, closed circuits) and compares the optimum with
an independent algorithm: `solve` against `cut_loop`, small `cut-loop` runs
against `optimize`. Checks run outside the timed region.
"""

from __future__ import annotations

import hashlib
import io
import json
from contextlib import redirect_stdout
from fractions import Fraction
from pathlib import Path

from workloads import support

# cut-loop answers on instances this small are also compared with optimize
SMALL_N = 8


def _rational(text) -> Fraction:
    if isinstance(text, bool) or not isinstance(text, (int, str)):
        raise ValueError(f"not a rational: {text!r}")
    return Fraction(text)


def _slack(coeffs, rhs, point) -> Fraction:
    return sum((Fraction(c) * p for c, p in zip(coeffs, point)), Fraction(0)) - rhs


def _point_arg(args) -> list[Fraction]:
    return [_rational(v) for v in json.loads(args[args.index("--point") + 1])]


class Checker:
    """Checks answers of one workload's jobs; caches reference values per instance.

    Instance files are read again for every check, so a long run's peak
    memory does not grow with the number of instances it has seen.
    """

    def __init__(self, instance_dir: Path):
        self.instance_dir = Path(instance_dir)
        self._optimum: dict[tuple[str, str], Fraction] = {}
        self._matched: dict[str, int] = {}

    def path(self, stem: str) -> Path:
        return self.instance_dir / f"{stem}.json"

    def doc(self, stem: str) -> dict:
        return json.loads(self.path(stem).read_text())

    def check(self, job: dict, rc, text: str, err: str = "") -> str | None:
        """None if the answer is right, else the reason it is not."""
        if rc is None:
            return "traceback: " + err.strip().splitlines()[-1] if err.strip() else "traceback"
        if rc != 0:
            return f"exit code {rc}: {err.strip()[:200]}"
        if err:
            return f"unexpected stderr: {err.strip()[:200]}"
        try:
            out = json.loads(text)
            return getattr(self, "_" + job["verb"].replace("-", "_"))(job, out)
        except (KeyError, IndexError, TypeError, ValueError, ZeroDivisionError) as exc:
            return f"malformed answer: {type(exc).__name__}: {exc}"

    # -- per verb -----------------------------------------------------------

    def _instance(self, stem):
        doc = self.doc(stem)
        n = doc["n"]
        rows = [tuple(r) for r in doc["rows"]]
        b = doc.get("b", [1] * len(rows))
        w = [_rational(v) for v in doc.get("w", [1] * n)]
        return n, rows, b, w

    def _solve(self, job, out):
        n, rows, b, w = self._instance(job["instance"])
        x = out["x"]
        if len(x) != n or any(type(v) is not int or v < 0 for v in x):
            return f"x is not {n} non-negative ints: {x}"
        for i, ((start, length), need) in enumerate(zip(rows, b), 1):
            if sum(x[j - 1] for j in support(n, start, length)) < need:
                return f"x misses row {i}"
        value = _rational(out["value"])
        if sum((wj * xj for wj, xj in zip(w, x)), Fraction(0)) != value:
            return f"w.x differs from value {value}"
        if sum(x) != out["beta"]:
            return f"sum(x)={sum(x)} but beta={out['beta']}"
        ref = self.optimum(job["instance"], "cut-loop")
        if value != ref:
            return f"value {value} but cut_loop finds {ref}"
        return None

    def _separate(self, job, out):
        verdict = out["verdict"]
        expect = job["expect"]
        if verdict not in ("member", "violated"):
            return f"unknown verdict {verdict!r}"
        if expect != "any" and verdict != expect:
            return f"verdict {verdict}, constructed as {expect}"
        if verdict == "member":
            return None
        point = _point_arg(job["args"])
        ineq = out["inequality"]
        slack = _slack(ineq["coeffs"], ineq["rhs"], point)
        cert = _rational(out["certificate"])
        if cert != slack:
            return f"certificate {cert} but the slack is {slack}"
        if slack >= 0:
            return f"the cut is not violated: slack {slack}"
        return _closed(out["circuit"])

    def _cut_loop(self, job, out):
        steps = out["steps"]
        if not steps or out["rounds"] != len(steps):
            return "rounds do not match the steps"
        values = [_rational(s["value"]) for s in steps]
        if any(a > b for a, b in zip(values, values[1:])):
            return "LP values decrease"
        for k, step in enumerate(steps):
            if "cut" not in step:
                if k != len(steps) - 1:
                    return f"step {k} has no cut but is not last"
                continue
            point = [_rational(v) for v in step["point"]]
            slack = _slack(step["cut"]["coeffs"], step["cut"]["rhs"], point)
            if _rational(step["certificate"]) != slack:
                return f"step {k}: certificate is not the slack {slack}"
        value = _rational(out["value"])
        if value != values[-1]:
            return "value is not the last LP value"
        if self.doc(job["instance"])["n"] <= SMALL_N:
            ref = self.optimum(job["instance"], "solve")
            if value != ref:
                return f"value {value} but solve finds {ref}"
        return None

    def _verify(self, job, out):
        if out["ok"] is not True or out["complete"] is not True or out["missing"]:
            return "verify reports missing facets or an incomplete run"
        self._matched[job["instance"]] = out["matched"]
        return None

    def _facets(self, job, out):
        flagged = sum(1 for q in out["inequalities"] if q.get("facet") is True)
        matched = self.verify_matched(job["instance"])
        if flagged != matched:
            return f"{flagged} candidates flagged as facets, verify matched {matched}"
        return None

    def _minors(self, job, out):
        if out["complete"] is not True:
            return "minor enumeration incomplete"
        if not all(w["exact"] is True for w in out["minors"]):
            return "a minor witness is not exact"
        return None

    # -- reference values, computed outside the timed region -----------------

    def optimum(self, stem: str, algorithm: str) -> Fraction:
        """The optimum of `stem` by `cut_loop` or by `optimize`."""
        doc = self.doc(stem)
        # row order does not change the optimum; rounds repeat unit circulants
        rows = [tuple(r) for r in doc["rows"]]
        demands = doc.get("b", [1] * len(rows))
        key = (json.dumps([doc["n"], sorted(zip(rows, demands)), doc.get("w")]), algorithm)
        if key not in self._optimum:
            from circover.jsonio import load_instance
            from circover.optimize import optimize
            from circover.separation import cut_loop

            inst = load_instance(doc)
            solver = cut_loop if algorithm == "cut-loop" else optimize
            self._optimum[key] = solver(inst.matrix, inst.demands, inst.weights).value
        return self._optimum[key]

    def verify_matched(self, stem: str) -> int:
        """verify's matched count, from a checked verify answer or a fresh run."""
        if stem not in self._matched:
            from circover.cli import main

            buf = io.StringIO()
            with redirect_stdout(buf):
                rc = main(["verify", str(self.path(stem))])
            out = json.loads(buf.getvalue())
            if rc != 0 or not out.get("ok"):
                raise ValueError(f"verify fails on {stem}")
            self._matched[stem] = out["matched"]
        return self._matched[stem]


def _closed(circuit) -> str | None:
    if not circuit:
        return "empty circuit"
    for a, b in zip(circuit, circuit[1:] + circuit[:1]):
        if a["head"] != b["tail"]:
            return f"circuit is not closed at node {a['head']}"
    return None


def _facet_keys(items):
    return sorted([q["coeffs"], q["rhs"], q.get("facet")] for q in items)


def invariant(verb: str, out: dict):
    """The answer fields later versions must reproduce exactly.

    Diagnostic fields (solve's per-slice table, cut-loop's intermediate LP
    vertices, listing order) are left out.
    """
    if verb == "solve":
        return [out["value"], out["x"], out["beta"]]
    if verb == "separate":
        keep = ("verdict", "inequality", "certificate", "circuit")
        return {k: out[k] for k in keep if k in out}
    if verb == "cut-loop":
        return out["value"]
    if verb == "verify":
        return [out["ok"], out["complete"], out["matched"], _facet_keys(out["missing"])]
    if verb == "facets":
        return _facet_keys(out["inequalities"])
    if verb == "minors":
        return sorted(
            [w["removed"], w["order"], w["window"], w["exact"]] for w in out["minors"]
        )
    raise ValueError(f"unknown verb {verb!r}")


def digest(verb: str, text: str) -> str:
    blob = json.dumps(invariant(verb, json.loads(text)), sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]
