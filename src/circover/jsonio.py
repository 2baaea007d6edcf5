"""JSON encodings for instances and results.

Rationals travel as strings ("3/4", "2"); integers may also appear as bare
JSON numbers on input. Floats are rejected everywhere, since the whole
library promises exact arithmetic.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import BadParameters
from .matrices import Instance, circular_matrix
from .rationals import format_rational


def _dumps_indented(payload) -> str:
    """`json.dumps(payload, indent=2)` for str, int, bool, None, lists,
    tuples and dicts with str keys, without the pure-Python encoder that
    `indent` selects. Floats and other keys raise TypeError (the C string
    encoder rejects a key that is not a str)."""
    # imported here so that `import circover` does not load json
    from json.encoder import encode_basestring_ascii as quote

    # by exact type, so that True is no int and a subclass goes to `write`
    scalars = {str: quote, int: int.__repr__, bool: {True: "true", False: "false"}.get,
               type(None): lambda _: "null"}.get
    keys = {}  # quote(key) + ": ", once per key

    def write(value, indent: str) -> str:  # `indent` opens the value's line
        inner = indent + "  "
        if isinstance(value, (list, tuple)):
            items = [f(v) if (f := scalars(type(v))) else write(v, inner) for v in value]
            brackets = "[]"
        elif isinstance(value, dict):
            items = []
            for key, v in value.items():
                k = keys.get(key) or keys.setdefault(key, quote(key) + ": ")
                items.append(k + (f(v) if (f := scalars(type(v))) else write(v, inner)))
            brackets = "{}"
        elif isinstance(value, (str, int)):  # a subclass (an IntEnum): its str or int
            return quote(value) if isinstance(value, str) else int.__repr__(value)
        else:
            raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")
        if not items:
            return brackets
        return brackets[0] + inner + ("," + inner).join(items) + indent + brackets[1]

    f = scalars(type(payload))
    return f(payload) if f else write(payload, "\n")


def load_instance(data) -> Instance:
    """Decode an instance object; `circular_matrix` validates n and the
    rows, Instance b and w."""
    if not isinstance(data, dict):
        raise BadParameters("instance must be a JSON object")
    try:
        n = data["n"]
        raw_rows = data["rows"]
    except KeyError as exc:
        raise BadParameters(f"instance is missing {exc.args[0]!r}") from None
    if not isinstance(raw_rows, list) or not raw_rows:
        raise BadParameters("rows must be a non-empty array")
    matrix = circular_matrix(n, raw_rows)
    demands = data.get("b")
    if demands is None:
        demands = [1] * matrix.m
    if not isinstance(demands, list):
        raise BadParameters("b must be an array of demands")
    weights = data.get("w")
    if weights is None:     # one shared Fraction: check_weights passes it through
        weights = [Fraction(1)] * matrix.n
    if not isinstance(weights, list):
        raise BadParameters("w must be an array of weights")
    return Instance(matrix, demands, weights)


def inequality_json(ineq, facet=None) -> dict:
    """The stored ints as they are; any other value is BadParameters."""
    if not set(map(type, (*ineq.coeffs, ineq.rhs))) <= {int}:
        raise BadParameters(f"inequality values must be ints, got {ineq.coeffs} >= {ineq.rhs!r}")
    out = {"coeffs": list(ineq.coeffs), "rhs": ineq.rhs, "kind": ineq.kind}
    if facet is not None:
        out["facet"] = facet
    if ineq.witness:
        out["witness"] = ineq.witness
    return out


def separation_json(result) -> dict:
    out = {"verdict": result.verdict}
    if result.verdict == "violated":
        out["inequality"] = inequality_json(result.inequality)
        out["circuit"] = result.circuit.descriptor()
        out["certificate"] = format_rational(result.certificate)
    return out


def optimization_json(result) -> dict:
    return {
        "value": format_rational(result.value),
        "x": list(result.point),
        "beta": result.beta,
        "slices": [
            {"beta": b, "value": "infeasible" if v is None else format_rational(v)}
            for b, v in result.slices
        ],
    }
