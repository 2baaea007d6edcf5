"""Command line front end.

Verbs:
  solve      minimize the weight over the integer covering hull
  separate   decide hull membership of a point, producing a cut if outside
  facets     enumerate candidate facet inequalities, flagging real facets
  verify     compare the candidate list against the brute-force hull
  minors     enumerate certified circulant minors
  cut-loop   cutting-plane run from the plain relaxation

Instances are JSON objects {"n": ..., "rows": [[start, length], ...]} with
optional "b" (one integer demand per row, default all 1) and "w" (one
rational weight per column, default all 1). Points are JSON arrays of
rationals written as strings or integers.

Exit codes: 0 success, 1 bad input (including usage errors and points
outside the covering polyhedron), 2 a cap or budget was hit and the JSON
emitted is partial.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

from .errors import BadParameters, BudgetExceeded, CircoverError
from .inequalities import enumerate_circulant_minors, enumerate_facet_candidates
from .jsonio import (
    _dumps_indented,
    inequality_json,
    load_instance,
    optimization_json,
    separation_json,
)
from .matrices import check_positive_int
from .oracle import check_facet, enumerate_minimal_covers, hull_facets
from .optimize import optimize
from .rationals import format_rational, format_rational_vector
from .separation import cut_loop, separate


def _read_json(path: str):
    try:
        text = sys.stdin.read() if path == "-" else Path(path).read_text()
    except UnicodeDecodeError as exc:
        raise BadParameters(f"cannot decode {path}: {exc}") from None
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        # ValueError covers JSONDecodeError and an integer past the digit
        # limit of int(); RecursionError a nesting too deep to decode
        raise BadParameters(f"invalid JSON in {path}: {exc}") from None


def _instance_json(inst) -> dict:
    return {
        "n": inst.matrix.n,
        "rows": [list(row) for row in inst.matrix.rows],
        "b": list(inst.demands),
        "w": format_rational_vector(inst.weights),
    }


def _pick_demands(inst, alpha):
    if alpha is None:
        return inst.demands
    if alpha < 0:
        raise BadParameters("--alpha must be non-negative")
    return (alpha,) * inst.matrix.m


def _cap(value, flag):
    """A cap option, which must be at least 1 when given; the error names
    the flag, not the library argument it feeds."""
    return value if value is None else check_positive_int(value, flag)


def _cmd_solve(inst, args) -> tuple[dict, int]:
    return optimization_json(optimize(inst.matrix, inst.demands, inst.weights)), 0


def _cmd_separate(inst, args) -> tuple[dict, int]:
    try:
        point = json.loads(args.point)
    except (ValueError, RecursionError) as exc:
        raise BadParameters(f"--point is not valid JSON: {exc}") from None
    return separation_json(separate(inst.matrix, inst.demands, point)), 0


def _cmd_facets(inst, args) -> tuple[dict, int]:
    matrix = inst.matrix
    demands = _pick_demands(inst, args.alpha)
    budget = _cap(args.budget, "--budget")
    enum = enumerate_facet_candidates(
        matrix, demands, max_circuits=_cap(args.max_circuits, "--max-circuits")
    )
    try:
        covers = enumerate_minimal_covers(matrix, demands, budget)
    except BudgetExceeded:
        covers = None
    items = []
    for ineq in enum.inequalities:
        flag = "unknown" if covers is None else check_facet(ineq, covers)
        items.append(inequality_json(ineq, facet=flag))
    payload = {
        "instance": _instance_json(inst),
        "b": list(demands),
        "inequalities": items,
        "circuits_seen": enum.circuits_seen,
        "complete": enum.complete,
    }
    return payload, 0 if enum.complete else 2


def _cmd_verify(inst, args) -> tuple[dict, int]:
    matrix = inst.matrix
    demands = _pick_demands(inst, args.alpha)
    budget = _cap(args.budget, "--budget")
    enum = enumerate_facet_candidates(
        matrix, demands, max_circuits=_cap(args.max_circuits, "--max-circuits")
    )
    cand_items = [inequality_json(q) for q in enum.inequalities]
    try:
        hull = hull_facets(matrix, demands, budget)
    except BudgetExceeded as exc:
        payload = {
            "instance": _instance_json(inst),
            "error": str(exc),
            "candidates": cand_items,
        }
        return payload, 2
    # candidates carry their construction scale; compare normalized. Hull
    # facets are built normalized, so their own keys serve.
    cand_keys = [q.normalized().key() for q in enum.inequalities]
    proposed = set(cand_keys)
    facet_keys = {q.key() for q in hull.facets}
    missing = [q for q in hull.facets if q.key() not in proposed]
    payload = {
        "instance": _instance_json(inst),
        "b": list(demands),
        "hull_facets": [inequality_json(q, facet=True) for q in hull.facets],
        "candidates": cand_items,
        "matched": len(hull.facets) - len(missing),
        "missing": [inequality_json(q) for q in missing],
        "extra_nonfacets": [
            item for item, key in zip(cand_items, cand_keys) if key not in facet_keys
        ],
        "ok": not missing,
        "complete": enum.complete,
    }
    return payload, 0 if enum.complete else 2


def _witness_json(w) -> dict:
    return {
        "removed": list(w.removed_columns),
        "order": w.order,
        "window": w.window,
        "rows": list(w.rows),
        "exact": w.exact,
    }


def _cmd_minors(inst, args) -> tuple[dict, int]:
    enum = enumerate_circulant_minors(
        inst.matrix, max_count=_cap(args.max_circuits, "--max-circuits")
    )
    payload = {
        "instance": _instance_json(inst),
        "minors": [_witness_json(w) for w in enum.witnesses],
        "complete": enum.complete,
    }
    return payload, 0 if enum.complete else 2


def _cmd_cut_loop(inst, args) -> tuple[dict, int]:
    try:
        res = cut_loop(
            inst.matrix, inst.demands, inst.weights,
            max_rounds=_cap(args.max_rounds, "--max-rounds"),
        )
    except BudgetExceeded as exc:
        return {"instance": _instance_json(inst), "error": str(exc)}, 2
    steps = []
    for step in res.steps:
        entry = {
            "point": format_rational_vector(step.point),
            "value": format_rational(step.value),
        }
        if step.inequality is not None:
            entry["cut"] = inequality_json(step.inequality)
            entry["certificate"] = format_rational(step.certificate)
        steps.append(entry)
    payload = {
        "value": format_rational(res.value),
        "point": format_rational_vector(res.point),
        "rounds": len(res.steps),
        "steps": steps,
    }
    return payload, 0


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as BadParameters, so `main` prints it as one
    `error:` line and exits 1; `--help` still exits 0."""

    def error(self, message):
        raise BadParameters(message)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The one parser of the process, built on first use (parsing does not
    change it, so repeated `main` calls share it)."""
    parser = _Parser(
        prog="circover",
        description="exact covering polyhedra of circular 0/1 matrices",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    def common(p):
        p.add_argument("instance", help="instance JSON file, or - for stdin")
        p.add_argument("--output", help="write the JSON result here instead of stdout")
        p.add_argument(
            "--seed",
            type=int,
            default=None,
            help="reserved for reproducibility; every verb is deterministic, "
            "so this is accepted and ignored",
        )

    p = sub.add_parser("solve", help="minimize the weights over the hull")
    common(p)

    p = sub.add_parser("separate", help="membership / cutting plane for a point")
    common(p)
    p.add_argument("--point", required=True, help="JSON array of rationals")

    for name in ("facets", "verify"):
        p = sub.add_parser(name)
        common(p)
        p.add_argument("--alpha", type=int, default=None,
                       help="override every demand with this level")
        p.add_argument("--max-circuits", type=int, default=None)
        p.add_argument("--budget", type=int, default=None,
                       help="point budget for the brute-force oracle")

    p = sub.add_parser("minors", help="certified circulant minors")
    common(p)
    p.add_argument("--max-circuits", type=int, default=None)

    p = sub.add_parser("cut-loop", help="cutting-plane optimization")
    common(p)
    p.add_argument("--max-rounds", type=int, default=200)

    return parser


_HANDLERS = {
    "solve": _cmd_solve,
    "separate": _cmd_separate,
    "facets": _cmd_facets,
    "verify": _cmd_verify,
    "minors": _cmd_minors,
    "cut-loop": _cmd_cut_loop,
}


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        inst = load_instance(_read_json(args.instance))
        payload, code = _HANDLERS[args.verb](inst, args)
        text = _dumps_indented(payload)
        if args.output:
            Path(args.output).write_text(text + "\n")
        else:
            print(text)
    except (CircoverError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
