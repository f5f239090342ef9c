"""Exact-rational simplex over equality constraints.

Solves  max c.x  s.t.  A x = rhs, x >= 0  exactly with Bland's rule (no
cycling). Phase 1 introduces one artificial variable per row; if the
problem is infeasible the phase-1 duals give a Farkas certificate y with
y.rhs > 0 and y.A <= 0 componentwise.

The tableau holds Python ints (fraction-free elimination, after Bareiss,
Math. Comp. 1968). Every row stands for the rational row it equals after
division by a positive factor:

- a constraint row's factor is its own entry in its basic column;
- the objective row's factor is the tableau's explicit ``scale``.

Positive factors change no sign and cancel from every ratio, so each
entering column and each ratio test is decided exactly as in a Fraction
tableau, and the pivots are the same. Fractions are built only for the
result, and reduce to the same values.
"""
from __future__ import annotations

import numbers
from fractions import Fraction
from itertools import compress
from math import gcd, lcm

from .strings import Record


class LPResult(Record):
    status: str  # "optimal" | "infeasible" | "unbounded"
    objective: Fraction | None = None
    solution: list | None = None  # values of the original variables
    certificate: list | None = None  # Farkas vector when infeasible
    pivots: int = 0  # over both phases, driving artificials out included


def _fraction(v) -> Fraction:
    """v as a Fraction of Python ints. Fraction(v) would keep the parts of a
    fixed-width integer, such as numpy's, whose products wrap."""
    if isinstance(v, numbers.Rational):
        return Fraction(int(v.numerator), int(v.denominator))
    try:
        return Fraction(v)
    except (OverflowError, ValueError) as e:  # inf, nan, unparsable text
        raise ValueError(f"LP entry {v!r} is not a finite rational") from e


def _scaled(values) -> tuple[list, int]:
    """The values times the lcm of their denominators, as ints, and that lcm.

    A row of ints is returned as it is, with lcm 1. In a row of ints and
    Fractions only the Fractions have a denominator to take, so one pass
    finds them and one pass scales the row, an int multiplied as an int.
    Anything else (floats, strings, fixed-width ints, bools) sends the whole
    row through Fraction once."""
    odd = [v for v in values if type(v) is not int]
    if not odd:
        return values, 1
    if any(type(v) is not Fraction for v in odd):
        values = odd = [_fraction(v) for v in values]
    den = lcm(*[v.denominator for v in odd])
    return [
        v * den if type(v) is int else v.numerator * (den // v.denominator) for v in values
    ], den


def _eliminate(t, p, pc, f, nz, scale=0):
    """t * pc - f * p, divided by its gcd, with the pivot row p nonzero only
    on the columns nz. The gcd also covers a nonzero scale, which is divided
    with the row; returns the row and the scale (0 stays 0)."""
    g = gcd(pc, f)
    a, b = pc // g, f // g
    if a != 1:
        t = [v * a for v in t]
        scale *= a
    for j in nz:
        t[j] -= b * p[j]
    g = gcd(scale, *t)
    if g > 1:
        t = [v // g for v in t]
        scale //= g
    return t, scale


class _Tableau:
    """Constraint rows with a basis, and an objective row in reduced-cost
    form over a positive scale; the last column is the rhs."""

    def __init__(self, rows, basis, obj, scale):
        self.rows = rows
        self.basis = basis
        self.obj = obj
        self.scale = scale
        self.pivots = 0

    def set_objective(self, obj, scale):
        """Take a new objective row and bring it to reduced-cost form."""
        for t, bv in zip(self.rows, self.basis):
            if obj[bv]:
                nz = list(compress(range(len(t)), t))
                obj, scale = _eliminate(obj, t, t[bv], obj[bv], nz, scale)
        self.obj, self.scale = obj, scale

    def pivot(self, row, col):
        """Make col basic in row. Only rows with a nonzero entry in col
        change."""
        rows = self.rows
        p = rows[row]
        pc = p[col]
        if pc < 0:  # only when driving an artificial out of the basis
            p = rows[row] = [-v for v in p]
            pc = -pc
        nz = list(compress(range(len(p)), p))
        for r, t in enumerate(rows):
            f = t[col]
            if f and r != row:
                rows[r] = _eliminate(t, p, pc, f, nz)[0]
        f = self.obj[col]
        if f:
            self.obj, self.scale = _eliminate(self.obj, p, pc, f, nz, self.scale)
        self.basis[row] = col
        self.pivots += 1

    def run(self, ncols) -> str:
        """Bland's rule: the first improving column, and the row of the
        least ratio rhs / entry, ties to the least basic index."""
        rows, basis = self.rows, self.basis
        while True:
            obj = self.obj
            col = next((j for j in range(ncols) if obj[j] > 0), None)
            if col is None:
                return "optimal"
            row = None
            for r, t in enumerate(rows):
                e = t[col]
                if e > 0:
                    if row is None:
                        row, num, den = r, t[-1], e
                        continue
                    # t[-1] / e against num / den, both denominators positive
                    lhs, rhs = t[-1] * den, num * e
                    if lhs < rhs or (lhs == rhs and basis[r] < basis[row]):
                        row, num, den = r, t[-1], e
            if row is None:
                return "unbounded"
            self.pivot(row, col)


def solve_lp(A, rhs, c) -> LPResult:
    """Maximize c.x subject to A x = rhs, x >= 0 (all entries rational)."""
    m = len(A)
    n = len(c)
    if len(rhs) != m or any(len(row) != n for row in A):
        raise ValueError("inconsistent LP dimensions")

    # phase 1: one artificial per row, rows scaled to ints and normalized
    # to rhs >= 0 so the artificials start feasible
    rows, dens, flipped = [], [], []
    for i, (a_row, b) in enumerate(zip(A, rhs)):
        nums, den = _scaled([*a_row, b])
        flip = nums[-1] < 0
        if flip:
            nums = [-v for v in nums]
        row = nums[:n] + [0] * (m + 1)
        row[n + i] = den  # the artificial's entry: the row's factor
        row[-1] = nums[-1]
        rows.append(row)
        dens.append(den)
        flipped.append(flip)
    # minimize the sum of artificials == maximize -sum: the objective row is
    # the sum of the rows, zero on the artificials
    scale = lcm(*dens)
    if m:
        weighted = [t if d == scale else [v * (scale // d) for v in t] for t, d in zip(rows, dens)]
        obj = list(map(sum, zip(*weighted)))
        obj[n:n + m] = [0] * m
    else:
        obj = [0] * (n + 1)
    tab = _Tableau(rows, [n + i for i in range(m)], obj, scale)
    tab.run(n + m)

    if tab.obj[-1]:
        # infeasible: Farkas vector (y.A <= 0, y.rhs > 0) from the phase-1
        # reduced costs of the artificial columns: y_i = 1 + obj_i / scale
        scale = tab.scale
        y = [Fraction(scale + tab.obj[n + i], scale) for i in range(m)]
        y = [-v if f else v for v, f in zip(y, flipped)]
        return LPResult(status="infeasible", certificate=y, pivots=tab.pivots)

    # drive artificials out of the basis where possible
    for r in range(m):
        if tab.basis[r] >= n:
            col = next(compress(range(n), tab.rows[r]), None)
            if col is not None:
                tab.pivot(r, col)

    # drop rows still pegged to artificials (redundant constraints)
    keep = [r for r in range(m) if tab.basis[r] < n]
    tab.rows = [tab.rows[r][:n] + [tab.rows[r][-1]] for r in keep]
    tab.basis = [tab.basis[r] for r in keep]

    # phase 2
    obj, scale = _scaled(c)
    tab.set_objective([*obj, 0], scale)
    if tab.run(n) == "unbounded":
        return LPResult(status="unbounded", pivots=tab.pivots)

    x = [Fraction(0)] * n
    for t, bv in zip(tab.rows, tab.basis):
        if t[-1]:  # a basic variable at 0 keeps the shared zero
            x[bv] = Fraction(t[-1], t[bv])
    # the objective row's rhs is minus the objective value
    value = Fraction(-tab.obj[-1], tab.scale)
    return LPResult(status="optimal", objective=value, solution=x, pivots=tab.pivots)


def feasible_point(A, rhs) -> LPResult:
    """Find any x >= 0 with A x = rhs, or a Farkas certificate."""
    n = len(A[0]) if A else 0
    return solve_lp(A, rhs, [0] * n)
