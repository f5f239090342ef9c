import random
from fractions import Fraction as F
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from nonlocality import simplex
from nonlocality.simplex import feasible_point, solve_lp


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


def _outcome(r):
    return (r.status, r.objective, r.solution, r.certificate)


@settings(max_examples=100, derandomize=True, deadline=None)
@given(_lps())
def test_sparse_pivot_matches_dense_reference(lp):
    A, rhs, c = lp
    got = solve_lp(A, rhs, c)
    with mock.patch.object(simplex, "_pivot", _dense_pivot):
        want = solve_lp(A, rhs, c)
    assert _outcome(got) == _outcome(want)
