"""Linear minimization by a two-phase tableau simplex over exact rationals.

`solve_lp(objective, rows, rhs)` minimizes objective . x subject to
rows . x >= rhs and x >= 0, the covering shape of every LP in the package.
A caller that maximizes negates the objective; an upper bound a . x <= b
is the row -a . x >= -b. Every entry is an int or a Fraction; anything
else is BadParameters. Bland's rule runs everywhere (lowest eligible column
enters; ratio ties leave by lowest basic variable index), so the solver
cannot cycle and always returns the same vertex for the same input.

Row i has slack column nvars + i, in one of two shapes. A row with a
negative right-hand side is negated; its slack enters with +1 and starts
basic. Every other row gets a surplus -1 and a phase-1 artificial, numbered
after the nvars + m stored columns in row order. The stored columns [A', D]
(D diagonal, +-1) have full row rank, so an artificial left basic at zero
after phase 1 always has a nonzero stored column in its row to leave on.

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

No artificial column is stored. A row's artificial has the unit column e_i
and its surplus -e_i, so in every basis its tableau column is the negated
surplus column; with phase-1 costs 1 and 0 its reduced cost is d minus the
surplus's (after a pivot on p the two sum to p, the new d). The entering
scan reads the stored columns, then the artificials in row order with those
derived costs; an entering artificial's ratio test and pivot read the
negated surplus column. Every sign, ratio and tie-break is that of the
tableau with the artificial columns stored, so Bland's rule makes the same
pivots on n + m columns instead of n + 2m.

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
    to its row's surplus column, which the artificial's column negates;
    every other label is its own column."""
    col, sign = (arts[enter], -1) if enter in arts else (enter, 1)
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
            for enter, col in arts.items():
                if d - cost[col] < 0:
                    sign = -1
                    break
            else:
                return "optimal", d
        leave = None
        for r, row in enumerate(tab):
            a = sign * row[col]
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


def solve_lp(objective, rows, rhs) -> LPResult:
    """Minimize objective . x subject to rows[i] . x >= rhs[i], x >= 0."""
    if not all(isinstance(v, (list, tuple)) for v in (objective, rows, rhs)):
        raise BadParameters("objective, rows and rhs must be lists or tuples")
    nvars, nrows = len(objective), len(rows)
    if len(rhs) != nrows or not all(
            isinstance(row, (list, tuple)) and len(row) == nvars for row in rows):
        raise BadParameters(f"need {nrows} right-hand sides and rows as lists of {nvars} entries")
    obj_scale, obj = scaled_to_integers(objective)
    # one scale for every row and right-hand side keeps Bland's choices
    flat = scaled_to_integers([v for row in rows for v in row] + list(rhs))[1]

    # row i: slack nvars + i, basic if negated, else a surplus under an artificial
    art_base = nvars + nrows
    tab, basis, arts = [], [], {}
    for i in range(nrows):
        row = flat[i * nvars:(i + 1) * nvars] + [0] * nrows + [flat[nrows * nvars + i]]
        if row[-1] < 0:
            row = [-v for v in row]
            row[nvars + i] = 1
            basis.append(nvars + i)
        else:
            row[nvars + i] = -1
            basis.append(art_base + len(arts))
            arts[basis[-1]] = nvars + i
        tab.append(row)

    d = 1
    if arts:
        # phase-1 costs: 1 on each artificial, 0 on every stored column
        cost = _reduced_costs(tab, [int(b >= art_base) for b in basis], [0] * art_base, d)
        status, d = _run_simplex(tab, cost, basis, d, art_base, arts)
        if status != "optimal":
            raise CertificateError("phase 1 came back unbounded")
        if cost[-1] != 0:  # cost[-1] holds -d * (current value)
            return LPResult("infeasible", None, None)
        # full row rank: an artificial basic at zero has a stored column to leave on
        for r, row in enumerate(tab):
            if basis[r] >= art_base:
                pcol = next(j for j in range(art_base) if row[j])
                d = _pivot(tab, cost, basis, r, pcol, d, arts)

    c = obj + [0] * nrows
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
