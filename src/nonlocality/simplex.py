"""Exact-rational simplex over equality constraints.

Solves  max c.x  s.t.  A x = rhs, x >= 0  in Fraction arithmetic with
Bland's rule (no cycling). Phase 1 introduces one artificial variable per
row; if the problem is infeasible the phase-1 duals give a Farkas
certificate y with y.rhs > 0 and y.A <= 0 componentwise.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

ZERO = Fraction(0)
ONE = Fraction(1)


@dataclass
class LPResult:
    status: str  # "optimal" | "infeasible" | "unbounded"
    objective: Fraction | None = None
    solution: list | None = None  # values of the original variables
    certificate: list | None = None  # Farkas vector when infeasible


def _pivot(tab, basis, row, col):
    """Make column col a unit vector with its 1 in row, in place. Only the
    pivot row's nonzero columns change in the other rows."""
    prow = tab[row]
    piv = prow[col]
    nz = [j for j, v in enumerate(prow) if v]
    if piv != ONE:
        inv = ONE / piv
        for j in nz:
            prow[j] *= inv
    for r, trow in enumerate(tab):
        f = trow[col]
        if f and r != row:
            for j in nz:
                trow[j] -= f * prow[j]
    basis[row] = col


def _run_simplex(tab, basis, ncols):
    """Bland's rule on a tableau whose last row is the (maximization)
    objective in reduced-cost form and last column is the rhs."""
    obj = len(tab) - 1
    while True:
        col = next(
            (j for j in range(ncols) if tab[obj][j] > ZERO),
            None,
        )
        if col is None:
            return "optimal"
        row = None
        best = None
        for r in range(obj):
            if tab[r][col] > ZERO:
                ratio = tab[r][-1] / tab[r][col]
                if best is None or ratio < best or (
                    ratio == best and basis[r] < basis[row]
                ):
                    best = ratio
                    row = r
        if row is None:
            return "unbounded"
        _pivot(tab, basis, row, col)


def solve_lp(A, rhs, c) -> LPResult:
    """Maximize c.x subject to A x = rhs, x >= 0 (all entries rational)."""
    m = len(A)
    n = len(c)
    A = [[Fraction(v) for v in row] for row in A]
    rhs = [Fraction(v) for v in rhs]
    c = [Fraction(v) for v in c]
    if any(len(row) != n for row in A) or len(rhs) != m:
        raise ValueError("inconsistent LP dimensions")

    # normalize to rhs >= 0 so artificials start feasible
    flipped = [False] * m
    for i in range(m):
        if rhs[i] < ZERO:
            A[i] = [-v for v in A[i]]
            rhs[i] = -rhs[i]
            flipped[i] = True

    # phase 1: minimize sum of artificials == maximize -sum
    width = n + m + 1
    tab = []
    for i in range(m):
        row = A[i] + [ONE if j == i else ZERO for j in range(m)] + [rhs[i]]
        tab.append(row)
    objrow = [ZERO] * width
    for row in tab:
        for j, v in enumerate(row):
            if v:
                objrow[j] += v
    for i in range(m):
        objrow[n + i] = ZERO  # artificials have zero reduced cost once basic
    tab.append(objrow)
    basis = [n + i for i in range(m)]
    _run_simplex(tab, basis, n + m)

    if tab[-1][-1] != ZERO:
        # infeasible: Farkas vector (y.A <= 0, y.rhs > 0) from the phase-1
        # reduced costs of the artificial columns
        y = [ONE + tab[-1][n + i] for i in range(m)]
        y = [-v if f else v for v, f in zip(y, flipped)]
        return LPResult(status="infeasible", certificate=y)

    # drive artificials out of the basis where possible
    for r in range(m):
        if basis[r] >= n:
            col = next((j for j in range(n) if tab[r][j] != ZERO), None)
            if col is not None:
                _pivot(tab, basis, r, col)

    # drop rows still pegged to artificials (redundant constraints)
    keep = [r for r in range(m) if basis[r] < n]
    tab = [
        [tab[r][j] for j in range(n)] + [tab[r][-1]] for r in keep
    ]
    basis = [basis[r] for r in keep]

    # phase 2 objective in reduced-cost form
    objrow = list(c) + [ZERO]
    for r, bv in enumerate(basis):
        f = objrow[bv]
        if f:
            objrow = [v - f * t for v, t in zip(objrow, tab[r])]
    tab.append(objrow)
    status = _run_simplex(tab, basis, n)
    if status == "unbounded":
        return LPResult(status="unbounded")

    x = [ZERO] * n
    for r, bv in enumerate(basis):
        x[bv] = tab[r][-1]
    value = sum(ci * xi for ci, xi in zip(c, x))
    return LPResult(status="optimal", objective=value, solution=x)


def feasible_point(A, rhs) -> LPResult:
    """Find any x >= 0 with A x = rhs, or a Farkas certificate."""
    n = len(A[0]) if A else 0
    return solve_lp(A, rhs, [ZERO] * n)
