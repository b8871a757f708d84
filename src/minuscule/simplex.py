"""Exact two-phase simplex over the rationals.

Solves  min/max c.x  subject to  A x = b, x >= 0  with a dense Fraction
tableau.  The entering column is chosen by most negative reduced cost
until a degenerate stall is detected, after which pivoting switches
permanently to Bland's rule (smallest eligible entering index; ratio
ties broken by smallest basic variable).  Any cycle would consist of
degenerate pivots, so every run ends under a rule that provably
terminates.  Redundant equality rows are detected and dropped at the
end of phase one.

The down-degree certificate (``cde.lp_certificate``) calls it only for
objectives that are not constant on the toggle polytope, where no dual
witness exists; the tests also use it as an oracle.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .errors import InternalCheckError

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"


class LpResult(NamedTuple):
    status: str
    objective: Fraction | None
    solution: tuple[Fraction, ...] | None
    basis: tuple[int, ...] | None


def _pivot(tableau: list[list[Fraction]], row: int, col: int) -> None:
    pivot_row = tableau[row]
    pv = pivot_row[col]
    tableau[row] = pivot_row = [v / pv for v in pivot_row]
    for r, other in enumerate(tableau):
        if r == row:
            continue
        f = other[col]
        if f != 0:
            tableau[r] = [v - f * w for v, w in zip(other, pivot_row)]


def _run_simplex(
    tableau: list[list[Fraction]], basis: list[int], ncols: int
) -> str:
    """Minimize; the objective row sits last and only columns < ncols
    may enter."""
    stall = 0
    bland = False
    while True:
        zrow = tableau[-1]
        if bland:
            entering = next((j for j in range(ncols) if zrow[j] < 0), None)
        else:
            entering = None
            worst = Fraction(0)
            for j in range(ncols):
                if zrow[j] < worst:
                    worst = zrow[j]
                    entering = j
        if entering is None:
            return OPTIMAL
        leaving = None
        best: Fraction | None = None
        for r in range(len(tableau) - 1):
            a = tableau[r][entering]
            if a > 0:
                ratio = tableau[r][-1] / a
                if best is None or ratio < best or (ratio == best and basis[r] < basis[leaving]):
                    best = ratio
                    leaving = r
        if leaving is None:
            return UNBOUNDED
        if not bland:
            stall = stall + 1 if best == 0 else 0
            if stall > len(tableau) + ncols:
                bland = True
        _pivot(tableau, leaving, entering)
        basis[leaving] = entering


def solve_lp(
    objective: list[Fraction],
    rows: list[list[Fraction]],
    rhs: list[Fraction],
    maximize: bool = False,
) -> LpResult:
    n = len(objective)
    m = len(rows)
    if any(len(r) != n for r in rows) or len(rhs) != m:
        raise InternalCheckError("inconsistent LP dimensions")

    body = [[Fraction(v) for v in row] for row in rows]
    b = [Fraction(v) for v in rhs]
    for r in range(m):
        if b[r] < 0:
            body[r] = [-v for v in body[r]]
            b[r] = -b[r]

    # Phase one: artificial variables n..n+m-1 with unit cost.
    tableau = [
        body[r] + [Fraction(int(r == k)) for k in range(m)] + [b[r]] for r in range(m)
    ]
    zrow = [Fraction(0)] * (n + m + 1)
    for r in range(m):
        for j in range(n):
            zrow[j] -= tableau[r][j]
        zrow[-1] -= tableau[r][-1]
    tableau.append(zrow)
    basis = [n + r for r in range(m)]
    status = _run_simplex(tableau, basis, n)
    if status != OPTIMAL:
        raise InternalCheckError("phase one cannot be unbounded")
    if -tableau[-1][-1] != 0:
        return LpResult(INFEASIBLE, None, None, None)

    # Drive leftover zero-value artificials out; fully zero rows are redundant.
    drop = []
    for r in range(m):
        if basis[r] >= n:
            col = next((j for j in range(n) if tableau[r][j] != 0), None)
            if col is None:
                drop.append(r)
            else:
                _pivot(tableau, r, col)
                basis[r] = col
    for r in reversed(drop):
        del tableau[r]
        del basis[r]

    # Phase two on the original columns only.
    cost = [-c if maximize else Fraction(c) for c in objective]
    reduced = list(cost) + [Fraction(0)]
    for r, var in enumerate(basis):
        f = cost[var]
        if f != 0:
            row = tableau[r]
            for j in range(n):
                reduced[j] -= f * row[j]
            reduced[-1] -= f * row[-1]
    tableau = [row[:n] + [row[-1]] for row in tableau[:-1]]
    tableau.append(reduced)
    status = _run_simplex(tableau, basis, n)
    if status != OPTIMAL:
        return LpResult(UNBOUNDED, None, None, None)

    x = [Fraction(0)] * n
    for r, var in enumerate(basis):
        x[var] = tableau[r][-1]
    value = -tableau[-1][-1]
    if maximize:
        value = -value
    return LpResult(OPTIMAL, value, tuple(x), tuple(sorted(basis)))
