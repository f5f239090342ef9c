import random
from fractions import Fraction as F
from math import lcm

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from nonlocality.simplex import LPResult, _scaled, feasible_point, solve_lp


def _check_farkas(A, rhs, y):
    m = len(A)
    n = len(A[0])
    assert sum(y[i] * rhs[i] for i in range(m)) > 0
    for j in range(n):
        assert sum(y[i] * A[i][j] for i in range(m)) <= 0


def test_simple_max():
    r = solve_lp([[1, 1, 1]], [1], [1, 1, 0])
    assert r.status == "optimal" and r.objective == 1


def test_infeasible_gives_farkas_certificate():
    A = [[1, 1], [1, 1]]
    rhs = [1, 2]
    r = feasible_point(A, rhs)
    assert r.status == "infeasible"
    _check_farkas(A, rhs, r.certificate)


def test_negative_rhs_normalization():
    r = solve_lp([[-1, -1]], [-1], [1, 0])
    assert r.status == "optimal" and r.objective == 1
    r = feasible_point([[1, 1]], [-1])
    assert r.status == "infeasible"
    _check_farkas([[1, 1]], [F(-1)], r.certificate)


def test_unbounded_detected():
    r = solve_lp([[1, -1]], [0], [1, 0])
    assert r.status == "unbounded"


def test_redundant_constraints_handled():
    r = solve_lp([[1, 1], [1, 1]], [1, 1], [2, 3])
    assert r.status == "optimal" and r.objective == 3


def test_exact_rational_objective():
    # max x subject to 3x + 2y = 1
    r = solve_lp([[3, 2]], [1], [1, 0])
    assert r.objective == F(1, 3)
    assert isinstance(r.objective, F)


def test_fuzz_feasible_by_construction():
    rng = random.Random(10)
    for _ in range(150):
        m, n = rng.randint(1, 4), rng.randint(1, 6)
        A = [[F(rng.randint(-3, 3)) for _ in range(n)] for _ in range(m)]
        x0 = [F(rng.randint(0, 3)) for _ in range(n)]
        rhs = [sum(A[i][j] * x0[j] for j in range(n)) for i in range(m)]
        r = feasible_point(A, rhs)
        assert r.status == "optimal"
        for i in range(m):
            assert sum(A[i][j] * r.solution[j] for j in range(n)) == rhs[i]
        assert all(v >= 0 for v in r.solution)


def test_fuzz_mixed_always_certified():
    rng = random.Random(11)
    infeasible = 0
    for _ in range(150):
        m, n = rng.randint(1, 4), rng.randint(1, 6)
        A = [[F(rng.randint(-3, 3)) for _ in range(n)] for _ in range(m)]
        rhs = [F(rng.randint(-5, 5)) for _ in range(m)]
        r = feasible_point(A, rhs)
        if r.status == "infeasible":
            infeasible += 1
            _check_farkas(A, rhs, r.certificate)
        else:
            for i in range(m):
                assert sum(A[i][j] * r.solution[j] for j in range(n)) == rhs[i]
    assert infeasible > 0  # the fuzz actually exercises both branches


# --- the Fraction tableau, as the reference -----------------------------------
#
# solve_lp as it was written over Fractions, with the dense pivot it first
# had, counting its pivots. The integer tableau must make the same pivots and
# return the same reduced Fractions.


def _dense_pivot(tab, basis, row, col):
    """The pivot as first written: every row rebuilt over every column."""
    piv = tab[row][col]
    inv = F(1) / piv
    tab[row] = [v * inv for v in tab[row]]
    prow = tab[row]
    for r in range(len(tab)):
        if r == row:
            continue
        f = tab[r][col]
        if f:
            tab[r] = [v - f * p for v, p in zip(tab[r], prow)]
    basis[row] = col


def _reference_run_simplex(tab, basis, ncols, count):
    obj = len(tab) - 1
    while True:
        col = next((j for j in range(ncols) if tab[obj][j] > 0), None)
        if col is None:
            return "optimal"
        row = None
        best = None
        for r in range(obj):
            if tab[r][col] > 0:
                ratio = tab[r][-1] / tab[r][col]
                if best is None or ratio < best or (ratio == best and basis[r] < basis[row]):
                    best = ratio
                    row = r
        if row is None:
            return "unbounded"
        _dense_pivot(tab, basis, row, col)
        count[0] += 1


def _reference_solve_lp(A, rhs, c) -> LPResult:
    m = len(A)
    n = len(c)
    A = [[F(v) for v in row] for row in A]
    rhs = [F(v) for v in rhs]
    c = [F(v) for v in c]
    count = [0]
    flipped = [False] * m
    for i in range(m):
        if rhs[i] < 0:
            A[i] = [-v for v in A[i]]
            rhs[i] = -rhs[i]
            flipped[i] = True
    tab = [A[i] + [F(int(j == i)) for j in range(m)] + [rhs[i]] for i in range(m)]
    objrow = [sum((row[j] for row in tab), F(0)) for j in range(n + m + 1)]
    for i in range(m):
        objrow[n + i] = F(0)
    tab.append(objrow)
    basis = [n + i for i in range(m)]
    _reference_run_simplex(tab, basis, n + m, count)
    if tab[-1][-1] != 0:
        y = [1 + tab[-1][n + i] for i in range(m)]
        y = [-v if f else v for v, f in zip(y, flipped)]
        return LPResult(status="infeasible", certificate=y, pivots=count[0])
    for r in range(m):
        if basis[r] >= n:
            col = next((j for j in range(n) if tab[r][j] != 0), None)
            if col is not None:
                _dense_pivot(tab, basis, r, col)
                count[0] += 1
    keep = [r for r in range(m) if basis[r] < n]
    tab = [[tab[r][j] for j in range(n)] + [tab[r][-1]] for r in keep]
    basis = [basis[r] for r in keep]
    objrow = list(c) + [F(0)]
    for r, bv in enumerate(basis):
        f = objrow[bv]
        if f:
            objrow = [v - f * t for v, t in zip(objrow, tab[r])]
    tab.append(objrow)
    if _reference_run_simplex(tab, basis, n, count) == "unbounded":
        return LPResult(status="unbounded", pivots=count[0])
    x = [F(0)] * n
    for r, bv in enumerate(basis):
        x[bv] = tab[r][-1]
    value = sum(ci * xi for ci, xi in zip(c, x))
    return LPResult(status="optimal", objective=value, solution=x, pivots=count[0])


# mostly zeros, as in the membership tableaux, plus small signed rationals
_entry = st.one_of(
    st.just(F(0)), st.just(F(0)), st.fractions(min_value=-3, max_value=3, max_denominator=4)
)


@st.composite
def _lps(draw):
    m, n = draw(st.integers(1, 4)), draw(st.integers(1, 6))
    A = [[draw(_entry) for _ in range(n)] for _ in range(m)]
    if draw(st.booleans()):  # feasible by construction
        x0 = [draw(st.integers(0, 3)) for _ in range(n)]
        rhs = [sum(A[i][j] * x0[j] for j in range(n)) for i in range(m)]
    else:
        rhs = [draw(_entry) for _ in range(m)]
    c = [draw(_entry) for _ in range(n)]
    return A, rhs, c


def _same_as_reference(A, rhs, c):
    # status, objective, solution, certificate and pivot count
    got = solve_lp(A, rhs, c)
    assert got == _reference_solve_lp(A, rhs, c)
    return got


# The seed derandomize=True derived from this property's source when it
# patched the dense pivot into solve_lp; pinned so it draws the same 100 LPs.
_PROPERTY_SEED = int(
    "fe884217940077184774b2726b3da4193699090661c2814d"
    "4d953c7771d8312c90ce16b342c66a3eea913d580df9a11e",
    16,
)


@seed(_PROPERTY_SEED)
@settings(max_examples=100, derandomize=True, deadline=None)
@given(_lps())
def test_sparse_pivot_matches_dense_reference(lp):
    _same_as_reference(*lp)


def test_negative_entry_drive_out_matches_reference():
    # feasible only at x = 0: phase 1 ends with an artificial basic at 0,
    # driven out on the entry -1
    A = [[-1, 1], [1, -1]]
    r = _same_as_reference(A, [0, 0], [1, 1])
    assert r.status == "unbounded"
    r = _same_as_reference(A, [0, 0], [-1, -1])
    assert r.status == "optimal" and r.objective == 0


def test_dropped_redundant_row_matches_reference():
    # the second row is twice the first: its artificial stays basic at 0 with
    # no nonzero entry to drive it out on, and the row is dropped
    r = _same_as_reference([[1, 1, 0], [2, 2, 0], [0, 1, 1]], [1, 2, 1], [1, 2, 3])
    assert r.status == "optimal" and r.objective == 4 and r.solution == [1, 0, 1]


def test_mixed_denominators_match_reference():
    A = [[F(1, 3), F(2, 7), 1], [F(2, 7), 0, F(1, 3)]]
    r = _same_as_reference(A, [F(1, 3), F(2, 7)], [F(1, 3), F(2, 7), F(-1, 21)])
    assert r.status == "optimal"
    assert [sum(a * x for a, x in zip(row, r.solution)) for row in A] == [F(1, 3), F(2, 7)]


def test_negative_rhs_row_matches_reference():
    r = _same_as_reference([[1, -2, 1], [-1, -1, 0]], [2, -3], [0, 1, -1])
    assert r.status == "optimal"
    r = _same_as_reference([[1, 1], [1, 0]], [-1, 0], [0, 0])
    assert r.status == "infeasible"


def test_no_rows_matches_reference():
    assert _same_as_reference([], [], [1, 0]).status == "unbounded"
    r = _same_as_reference([], [], [-1, 0])
    assert r.status == "optimal" and r.objective == 0 and r.solution == [0, 0]


def test_dimensions_checked_before_entries():
    # a short row is a dimension error even when an entry would not convert
    with pytest.raises(ValueError, match="dimensions"):
        solve_lp([[float("inf")], [1, 2]], [1, 1], [1, 1])
    with pytest.raises(ValueError, match="dimensions"):
        solve_lp([[1, 1]], [1, 2], [1, 1])


@pytest.mark.parametrize("bad", [float("inf"), float("-inf"), float("nan"), "inf", "1/0x"])
def test_non_finite_entry_is_a_value_error(bad):
    with pytest.raises(ValueError, match="finite rational"):
        solve_lp([[bad]], [1], [1])
    with pytest.raises(ValueError, match="finite rational"):
        solve_lp([[1]], [bad], [1])
    with pytest.raises(ValueError, match="finite rational"):
        solve_lp([[1]], [1], [bad])


def test_finite_floats_and_strings_are_read_exactly():
    r = solve_lp([[0.5, "1/4"]], ["3/4"], [1.0, 0])
    assert r.status == "optimal" and r.objective == F(3, 2)
    assert r == solve_lp([[F(1, 2), F(1, 4)]], [F(3, 4)], [1, 0])


def test_fixed_width_ints_are_read_as_python_ints():
    # numpy ints have numerator/denominator too, but their products wrap
    np = pytest.importorskip("numpy")
    big = 2**40 + 1
    A = [[big, 3, 1], [7, big, 2]]
    rhs = [big, big + 5]
    c = [1, 1, 0]
    want = solve_lp(A, rhs, c)
    assert want.status == "optimal"
    got = solve_lp(
        [[np.int64(v) for v in row] for row in A], [np.int64(v) for v in rhs], [np.int64(v) for v in c]
    )
    assert got == want


_INTS = st.integers(-(2**70), 2**70)


@settings(max_examples=600, derandomize=True, deadline=None)
@given(
    st.lists(
        _INTS
        | st.booleans()
        | st.fractions(max_denominator=10**6)
        | st.integers(-5, 5).map(F),  # a Fraction whose denominator is 1
        max_size=12,
    )
    # rows of ints only, and of ints with Fractions whose denominator is 1
    | st.lists(_INTS, max_size=12)
    | st.lists(_INTS | _INTS.map(F), max_size=12)
)
def test_scaled_row_matches_the_all_fraction_formula(values):
    # what _scaled computed before it multiplied ints as ints: every entry
    # as a Fraction, times the lcm of every denominator
    fracs = [F(v) for v in values]
    den = lcm(*[v.denominator for v in fracs])
    nums, got_den = _scaled(values)
    assert (nums, got_den) == ([(v * den).numerator for v in fracs], den)
    assert all(type(v) is int for v in nums) and type(got_den) is int
