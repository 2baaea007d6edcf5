"""Linear minimization by a two-phase tableau simplex over exact rationals.

Small, deterministic, and boring on purpose: Bland's rule everywhere (lowest
eligible column enters; ratio ties leave by lowest basic variable index), so
the solver cannot cycle and always returns the same vertex for the same
input. A caller that maximizes negates the objective. All variables are
implicitly >= 0; senses are per-row strings "<=", ">=", "==". Entries stay
Python ints while every pivot is +-1 (a totally unimodular system, such as
an optimizer slice, never leaves ints); another pivot divides its row into
Fractions, and ratios are compared by cross-multiplication, so no int is
ever divided by an int.

The tableau is stored dense, but a pivot is sparse: it lists the pivot
row's nonzero columns once and updates every other row, and the cost row,
only there. Most entries are zeros of the slack and artificial columns, and
a - f * 0 leaves them as they are, save that an int becomes the equal
Fraction where the full update would have made one; so every entry keeps
the value and type the full update gives, and the pivots and results are
unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import BadParameters, CertificateError

SENSES = ("<=", ">=", "==")
_ZERO = Fraction(0)


@dataclass
class LPResult:
    status: str                      # "optimal" | "infeasible" | "unbounded"
    value: Fraction | None
    point: tuple[Fraction, ...] | None


def _exact(v):
    """v as an int when it is integral, else as a Fraction."""
    v = v if type(v) is int else Fraction(v)
    return v.numerator if v.denominator == 1 else v


def _eliminate(row, f, pairs, fzero):
    """row - f * pivot row, in place, touching only the pivot row's nonzero
    columns `pairs`; elsewhere a - f * 0 keeps a, except that an int a
    becomes Fraction(a) where f or that zero (a column of `fzero`) is a
    Fraction, just as the full update's type rules give."""
    if type(f) is not int:
        if int in map(type, row):
            row[:] = [Fraction(a) if type(a) is int else a for a in row]
    else:
        for j in fzero:
            if type(row[j]) is int:
                row[j] = Fraction(row[j])
    for j, b in pairs:
        row[j] -= f * b


def _pivot(tab, cost, basis, prow, pcol):
    pr = tab[prow]
    pv = pr[pcol]
    if pv == -1:
        for j, v in enumerate(pr):
            if v:
                pr[j] = -v
    elif pv != 1:
        pv = Fraction(pv)
        pr[:] = [v / pv if v else _ZERO for v in pr]
    pairs, fzero = [], []
    for j, v in enumerate(pr):
        if v:
            pairs.append((j, v))
        elif type(v) is not int:
            fzero.append(j)
    for r, row in enumerate(tab):
        if r != prow and row[pcol]:
            _eliminate(row, row[pcol], pairs, fzero)
    if cost[pcol]:
        _eliminate(cost, cost[pcol], pairs, fzero)
    basis[prow] = pcol


def _reduced_costs(tab, basis, c):
    # c - c_B B^{-1} A, with the running objective value in the last slot
    cost = list(c) + [0]
    for row, b in zip(tab, basis):
        cb = c[b]
        if cb != 0:
            cost = [a - cb * v for a, v in zip(cost, row)]
    return cost


def _run_simplex(tab, cost, basis):
    ncols = len(tab[0]) - 1 if tab else len(cost) - 1
    while True:
        enter = None
        for j in range(ncols):
            if cost[j] < 0:
                enter = j
                break
        if enter is None:
            return "optimal"
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
            return "unbounded"
        _pivot(tab, cost, basis, leave, enter)


def solve_lp(objective, rows, senses, rhs) -> LPResult:
    """Minimize objective . x subject to rows[i] . x (sense_i) rhs_i, x >= 0."""
    nvars = len(objective)
    if not (len(rows) == len(senses) == len(rhs)):
        raise BadParameters("rows, senses, rhs must have equal length")
    for s in senses:
        if s not in SENSES:
            raise BadParameters(f"unknown sense {s!r}")
    obj = [_exact(v) for v in objective]

    work = []
    for row, s, b in zip(rows, senses, rhs):
        if len(row) != nvars:
            raise BadParameters("constraint row of wrong length")
        coeffs = [_exact(v) for v in row]
        b = _exact(b)
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

    if nart:
        c1 = [0] * art_base + [1] * nart
        cost = _reduced_costs(tab, basis, c1)
        if _run_simplex(tab, cost, basis) != "optimal":
            raise CertificateError("phase 1 came back unbounded")
        if -cost[-1] != 0:  # cost[-1] holds -(current value)
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
            _pivot(tab, cost, basis, r, pcol)
            keep.append(r)
        tab = [tab[r][:art_base] + [tab[r][-1]] for r in keep]
        basis = [basis[r] for r in keep]
    else:
        tab = [row[:art_base] + [row[-1]] for row in tab]

    cost = _reduced_costs(tab, basis, obj + [0] * nslack)
    if _run_simplex(tab, cost, basis) == "unbounded":
        return LPResult("unbounded", None, None)
    x = [Fraction(0)] * nvars
    for r, b in enumerate(basis):
        if b < nvars:
            x[b] = Fraction(tab[r][-1])
    value = sum((o * v for o, v in zip(obj, x)), Fraction(0))
    return LPResult("optimal", value, tuple(x))

