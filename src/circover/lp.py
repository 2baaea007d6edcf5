"""Linear minimization by a two-phase tableau simplex over exact rationals.

Small, deterministic, and boring on purpose: Bland's rule everywhere (lowest
eligible column enters; ratio ties leave by lowest basic variable index), so
the solver cannot cycle and always returns the same vertex for the same
input. A caller that maximizes negates the objective. All variables are
implicitly >= 0; senses are per-row strings "<=", ">=", "==".

The tableau is fraction-free (Edmonds 1967, Bareiss 1968). Every row, and
the cost row, holds Python ints over one common positive denominator d. The
constraints and their right-hand sides are scaled by the lcm of all their
denominators, the objective by the lcm of its own, and d starts at 1. A
pivot on p at (r, c) negates row r if p < 0. Every other row, f its entry
in column c and b the pivot row's, becomes (|p|*a - f*b) // d at the pivot
row's nonzero columns and |p|*a // d elsewhere, and d becomes |p|. By
Sylvester's identity each entry is then, up to sign, a minor of the scaled
input, and d the absolute determinant of the basis, so every division is
exact. When |p| = d, a row with f = 0 is left as it is. A totally
unimodular system, such as an optimizer slice, keeps d = 1 and every pivot
+-1, and runs as plain int elimination.

Bland's rule reads only signs (of reduced costs and pivot-column entries)
and ratio comparisons, made by cross-multiplication; one positive
denominator shared by every row changes neither. Scaling every constraint
row by the same positive factor multiplies each slack and artificial
variable by it, which scales whole tableau columns and rows by positive
factors and again changes no sign and no ratio order. So the pivots and the
vertex are those of the same simplex run over Fractions on the unscaled
input (the reference in `tests/_helpers.py`).

A pivot is sparse: it lists the pivot row's nonzero columns once and updates
the other rows, and the cost row, only there, besides the rescale by |p|/d.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import BadParameters, CertificateError
from .rationals import scaled_to_integers

SENSES = ("<=", ">=", "==")


@dataclass
class LPResult:
    status: str                      # "optimal" | "infeasible" | "unbounded"
    value: Fraction | None
    point: tuple[Fraction, ...] | None


def _eliminate(row, f, p, pairs, d):
    """Carry `row`, f its entry in the pivot column, from denominator d to
    the pivot p > 0: (p*a - f*b) // d at the pivot row's nonzero (column,
    b) `pairs`, p*a // d elsewhere."""
    if p == d:
        for j, b in pairs:
            row[j] -= f * b // d
        return
    new = [(j, (p * row[j] - f * b) // d) for j, b in pairs] if f else []
    row[:] = [a * p // d for a in row]
    for j, v in new:
        row[j] = v


def _pivot(tab, cost, basis, prow, pcol, d):
    """Pivot on (prow, pcol) of a tableau over denominator d; returns the
    new denominator."""
    pr = tab[prow]
    p = pr[pcol]
    if p < 0:
        p = -p
        for j, v in enumerate(pr):
            if v:
                pr[j] = -v
    pairs = [(j, v) for j, v in enumerate(pr) if v]
    # with p == d a row with f == 0 keeps every entry
    for r, row in enumerate(tab):
        f = row[pcol]
        if r != prow and (f or p != d):
            _eliminate(row, f, p, pairs, d)
    f = cost[pcol]
    if f or p != d:
        _eliminate(cost, f, p, pairs, d)
    basis[prow] = pcol
    return p


def _reduced_costs(tab, basis, c, d):
    # d * (c - c_B B^{-1} A), with d times -(the running objective value) in
    # the last slot; the tableau rows are d * B^{-1} A
    cost = [d * v for v in c] + [0]
    for row, b in zip(tab, basis):
        cb = c[b]
        if cb != 0:
            cost = [a - cb * v for a, v in zip(cost, row)]
    return cost


def _run_simplex(tab, cost, basis, d):
    """Bland pivots until optimal or unbounded; returns (status, d)."""
    ncols = len(tab[0]) - 1 if tab else len(cost) - 1
    while True:
        enter = None
        for j in range(ncols):
            if cost[j] < 0:
                enter = j
                break
        if enter is None:
            return "optimal", d
        leave = None
        for r, row in enumerate(tab):
            a = row[enter]
            if a > 0:
                # row[-1] / a against the best ratio num / den, cross-multiplied
                if leave is not None:
                    lhs, rhs = row[-1] * den, num * a
                    if lhs > rhs or (lhs == rhs and basis[r] > basis[leave]):
                        continue
                leave, num, den = r, row[-1], a
        if leave is None:
            return "unbounded", d
        d = _pivot(tab, cost, basis, leave, enter, d)


def solve_lp(objective, rows, senses, rhs) -> LPResult:
    """Minimize objective . x subject to rows[i] . x (sense_i) rhs_i, x >= 0."""
    nvars = len(objective)
    if not (len(rows) == len(senses) == len(rhs)):
        raise BadParameters("rows, senses, rhs must have equal length")
    for s in senses:
        if s not in SENSES:
            raise BadParameters(f"unknown sense {s!r}")
    for row in rows:
        if len(row) != nvars:
            raise BadParameters("constraint row of wrong length")
    obj_scale, obj = scaled_to_integers(objective)
    # one scale for every row and right-hand side keeps Bland's choices
    flat = [v for row in rows for v in row] + list(rhs)
    flat = scaled_to_integers(flat)[1]

    work = []
    for i, s in enumerate(senses):
        coeffs = flat[i * nvars:(i + 1) * nvars]
        b = flat[len(rows) * nvars + i]
        if b < 0:
            coeffs = [-v for v in coeffs]
            b = -b
            s = {"<=": ">=", ">=": "<=", "==": "=="}[s]
        work.append((coeffs, s, b))

    nslack = sum(1 for _, s, _ in work if s != "==")
    art_base = nvars + nslack
    nart = sum(1 for _, s, _ in work if s != "<=")
    total = art_base + nart

    tab, basis = [], []
    si, ai = nvars, art_base  # next slack and artificial columns
    for coeffs, s, b in work:
        row = coeffs + [0] * (total - nvars) + [b]
        if s != "==":
            row[si] = 1 if s == "<=" else -1
            si += 1
        if s == "<=":
            basis.append(si - 1)
        else:
            row[ai] = 1
            basis.append(ai)
            ai += 1
        tab.append(row)

    d = 1
    if nart:
        c1 = [0] * art_base + [1] * nart
        cost = _reduced_costs(tab, basis, c1, d)
        status, d = _run_simplex(tab, cost, basis, d)
        if status != "optimal":
            raise CertificateError("phase 1 came back unbounded")
        if cost[-1] != 0:  # cost[-1] holds -d * (current value)
            return LPResult("infeasible", None, None)
        # pivot artificials out of the basis, dropping redundant rows
        keep = []
        for r in range(len(tab)):
            if basis[r] < art_base:
                keep.append(r)
                continue
            pcol = next(
                (j for j in range(art_base) if tab[r][j] != 0), None
            )
            if pcol is None:
                continue  # zero row, redundant constraint
            d = _pivot(tab, cost, basis, r, pcol, d)
            keep.append(r)
        tab = [tab[r][:art_base] + [tab[r][-1]] for r in keep]
        basis = [basis[r] for r in keep]
    else:
        tab = [row[:art_base] + [row[-1]] for row in tab]

    cost = _reduced_costs(tab, basis, obj + [0] * nslack, d)
    status, d = _run_simplex(tab, cost, basis, d)
    if status == "unbounded":
        return LPResult("unbounded", None, None)
    x = [Fraction(0)] * nvars
    total = 0
    for r, b in enumerate(basis):
        if b < nvars:
            x[b] = Fraction(tab[r][-1], d)
            total += obj[b] * tab[r][-1]
    return LPResult("optimal", Fraction(total, d * obj_scale), tuple(x))
