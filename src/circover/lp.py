"""Linear minimization by a two-phase tableau simplex over exact rationals.

Small, deterministic, and boring on purpose: Bland's rule everywhere (lowest
eligible column enters; ratio ties leave by lowest basic variable index), so
the solver cannot cycle and always returns the same vertex for the same
input. A caller that maximizes negates the objective. All variables are
implicitly >= 0; senses are per-row strings "<=", ">=", "==". Every entry
is an int or a Fraction; anything else is BadParameters.

The tableau is fraction-free (Edmonds 1967, Bareiss 1968). Every row, and
the cost row, holds Python ints over one common positive denominator d. The
constraints and their right-hand sides are scaled by the lcm of all their
denominators, the objective by the lcm of its own, and d starts at 1. A
pivot on p at (r, c) negates row r if p < 0. Every other row, f its entry
in column c and b the pivot row's, becomes (|p|*a - f*b) // d entry by
entry, and d becomes |p|. By Sylvester's identity each entry is then, up
to sign, a minor of the scaled input, and d the absolute determinant of the
basis, so every division is exact. When |p| = d, only the pivot row's
nonzero columns change, and a row with f = 0 is left as it is. A totally
unimodular system keeps d = 1 and every pivot +-1, and runs as plain int
elimination.

Phase 1 gives each ">=" and "==" row an artificial variable, numbered
after the structural and slack variables in row order, but stores a column
only for the "==" rows. A ">=" row's artificial has the unit column e_i
and its surplus -e_i, so in every basis d B^-1 A_art = -d B^-1 A_surplus:
the artificial's column is the negated surplus column. Its phase-1 cost is
1 and the surplus's 0, so its reduced cost is d - (the surplus's reduced
cost). Both identities hold in every basis, so no pivot breaks them (after
a pivot on p the two cost entries sum to p, the new d). The entering scan
reads the stored columns, then the artificials in order with their derived
costs; when a ">=" artificial enters, the ratio test and the pivot read the
negated surplus column, and the basis records the artificial's number.
Every sign, ratio and tie-break is then that of the tableau with all
artificial columns stored, so Bland's rule makes the same pivots and
returns the same vertex, on n + m columns instead of n + 2m when every row
is ">=".

Bland's rule reads only signs (of reduced costs and pivot-column entries)
and ratio comparisons, made by cross-multiplication; one positive
denominator shared by every row changes neither. Scaling every constraint
row by the same positive factor multiplies each slack and artificial
variable by it, which scales whole tableau columns and rows by positive
factors and again changes no sign and no ratio order. So the pivots and the
vertex are those of the same simplex run over Fractions on the unscaled
input (the reference in `tests/_helpers.py`).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import mul

from .errors import BadParameters, CertificateError
from .rationals import scaled_to_integers

SENSES = ("<=", ">=", "==")


@dataclass
class LPResult:
    status: str                      # "optimal" | "infeasible" | "unbounded"
    value: Fraction | None
    point: tuple[Fraction, ...] | None


def _eliminate(row, f, p, pr, pairs, d):
    """Carry `row`, f its entry in the pivot column, from denominator d to
    the pivot p > 0 of row pr: each entry a becomes (p*a - f*b) // d, b the
    entry of pr in the same column. With p == d only the pivot row's
    nonzero (column, b) `pairs` change."""
    if p == d:
        for j, b in pairs:
            row[j] -= f * b // d
    elif f:
        row[:] = [(p * a - f * b) // d for a, b in zip(row, pr)]
    else:
        row[:] = [p * a // d for a in row]


def _pivot(tab, cost, basis, prow, enter, d, arts):
    """Pivot variable `enter` into row prow of a tableau over denominator d;
    returns the new denominator. `arts` maps each phase-1 artificial label
    to its (stored column, sign); every other label is its own column."""
    col, sign = arts.get(enter, (enter, 1))
    pr = tab[prow]
    if sign * pr[col] < 0:
        for j, v in enumerate(pr):
            if v:
                pr[j] = -v
    p = sign * pr[col]
    pairs = [(j, v) for j, v in enumerate(pr) if v] if p == d else None
    # with p == d a row with f == 0 keeps every entry
    for r, row in enumerate(tab):
        f = sign * row[col]
        if r != prow and (f or p != d):
            _eliminate(row, f, p, pr, pairs, d)
    f = cost[col] if sign > 0 else d - cost[col]
    if f or p != d:
        _eliminate(cost, f, p, pr, pairs, d)
    basis[prow] = enter
    return p


def _reduced_costs(tab, basic, c, d):
    # d * (c - c_B B^{-1} A), c_B the cost of each row's basic variable, with
    # d times -(the running objective value) in the last slot; the tableau
    # rows are d * B^{-1} A. One pass down the columns of the rows with a
    # nonzero basic cost; phase 1's are all 1, so each column is one sum
    picked = [(row, cb) for row, cb in zip(tab, basic) if cb]
    if not picked:
        return [d * v for v in c] + [0]
    rows, cbs = zip(*picked)
    if all(cb == 1 for cb in cbs):
        sums = map(sum, zip(*rows))
    else:
        sums = [sum(map(mul, cbs, col)) for col in zip(*rows)]
    return [d * v - s for v, s in zip([*c, 0], sums)]


def _run_simplex(tab, cost, basis, d, ncols, arts):
    """Bland pivots until optimal or unbounded; returns (status, d). The
    entering scan reads the stored columns below ncols, then the labels of
    `arts` in order, each with its phase-1 reduced cost."""
    while True:
        for enter in range(ncols):
            if cost[enter] < 0:
                col, sign = enter, 1
                break
        else:
            for enter, (col, sign) in arts.items():
                if (cost[col] if sign > 0 else d - cost[col]) < 0:
                    break
            else:
                return "optimal", d
        leave = None
        for r, row in enumerate(tab):
            a = row[col] if sign > 0 else -row[col]
            if a > 0:
                # row[-1] / a against the best ratio num / den, cross-multiplied
                if leave is not None:
                    lhs, rhs = row[-1] * den, num * a
                    if lhs > rhs or (lhs == rhs and basis[r] > basis[leave]):
                        continue
                leave, num, den = r, row[-1], a
        if leave is None:
            return "unbounded", d
        d = _pivot(tab, cost, basis, leave, enter, d, arts)


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
    width = art_base + sum(1 for _, s, _ in work if s == "==")

    # the artificial of the i-th row without "<=" is variable art_base + i:
    # a ">=" row's column is its negated surplus column, an "==" row's is
    # stored past art_base
    tab, basis, arts = [], [], {}
    si, ei = nvars, art_base  # next slack and stored artificial columns
    for coeffs, s, b in work:
        row = coeffs + [0] * (width - nvars) + [b]
        if s == "<=":
            row[si] = 1
            basis.append(si)
            si += 1
        else:
            label = art_base + len(arts)
            if s == ">=":
                row[si] = -1
                arts[label] = (si, -1)
                si += 1
            else:
                row[ei] = 1
                arts[label] = (ei, 1)
                ei += 1
            basis.append(label)
        tab.append(row)

    d = 1
    if arts:
        # phase-1 costs: 1 on each artificial, 0 on every other variable
        c1 = [0] * art_base + [1] * (width - art_base)
        cost = _reduced_costs(tab, [int(b >= art_base) for b in basis], c1, d)
        status, d = _run_simplex(tab, cost, basis, d, art_base, arts)
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
            d = _pivot(tab, cost, basis, r, pcol, d, arts)
            keep.append(r)
        tab = [tab[r][:art_base] + [tab[r][-1]] for r in keep]
        basis = [basis[r] for r in keep]

    c = obj + [0] * nslack
    cost = _reduced_costs(tab, [c[b] for b in basis], c, d)
    status, d = _run_simplex(tab, cost, basis, d, art_base, {})
    if status == "unbounded":
        return LPResult("unbounded", None, None)
    x = [Fraction(0)] * nvars
    total = 0
    for r, b in enumerate(basis):
        if b < nvars:
            x[b] = Fraction(tab[r][-1], d)
            total += obj[b] * tab[r][-1]
    return LPResult("optimal", Fraction(total, d * obj_scale), tuple(x))
