from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oracles import fourier_motzkin_feasible, pivot_rows, vertex_lp_max
from seedwing import lp
from seedwing.lp import solve_lp


def leq_rows(A, rel, b):
    """The rows a.x {<=, >=, =} b in the simplex's one form: a >= row as its
    negation, an = row as a <= row and its negation. Returns (A, rel, b)."""
    A, b = np.asarray(A, dtype=float), np.asarray(b, dtype=float)
    le = [i for i, kind in enumerate(rel) if kind != ">="]
    ge = [i for i, kind in enumerate(rel) if kind != "<="]
    A_le = np.vstack([A[le], -A[ge]])
    return A_le, ["<="] * len(A_le), np.concatenate([b[le], -b[ge]])


class TestBasics:
    def test_contradiction_infeasible(self):
        # x >= 1, written as -x <= -1, and x <= 0
        sol = solve_lp([[-1.0], [1.0]], ["<=", "<="], [-1.0, 0.0], [-5], [5])
        assert not sol.feasible

    @pytest.mark.parametrize("kind", [">=", "="])
    def test_only_leq_rows(self, kind):
        with pytest.raises(ValueError, match=repr(kind)):
            solve_lp([[1.0], [1.0]], ["<=", kind], [1.0, 0.0], [-5], [5])

    def test_simplex_corner(self):
        sol = solve_lp([[1.0, 1.0]], ["<="], [1.0], [0, 0], [10, 10])
        assert sol.feasible
        x, y = sol.x
        assert x >= -1e-9 and y >= -1e-9 and x + y <= 1 + 1e-9

    def test_feasible_point_satisfies_all_rows(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            n = int(rng.integers(1, 5))
            m = int(rng.integers(1, 8))
            A = rng.normal(size=(m, n))
            b = rng.normal(size=m)
            rel = [["<=", ">=", "="][i] for i in rng.integers(0, 3, size=m)]
            lo, hi = -2 * np.ones(n), 2 * np.ones(n)
            sol = solve_lp(*leq_rows(A, rel, b), lo, hi)
            if not sol.feasible:
                continue
            x = sol.x
            assert np.all(x >= lo - 1e-9) and np.all(x <= hi + 1e-9)
            for i in range(m):
                r = A[i] @ x - b[i]
                if rel[i] == "<=":
                    assert r <= 1e-9
                elif rel[i] == ">=":
                    assert r >= -1e-9
                else:
                    assert abs(r) <= 1e-9

    def test_empty_constraint_system(self):
        sol = solve_lp(np.zeros((0, 2)), [], np.zeros(0), [0, 0], [1, 1],
                       objective=[1.0, 1.0])
        assert sol.feasible and sol.objective == pytest.approx(2.0)

    def test_inverted_bounds_infeasible(self):
        sol = solve_lp(np.zeros((0, 1)), [], np.zeros(0), [1.0], [0.0])
        assert not sol.feasible


class TestFourierMotzkinOracle:
    def test_verdicts_match_exact_arithmetic(self):
        rng = np.random.default_rng(1)
        n_checked = 0
        for trial in range(50):
            n = int(rng.integers(1, 4))
            m = int(rng.integers(1, 6))
            A = rng.integers(-3, 4, size=(m, n)).astype(float)
            b = rng.integers(-4, 5, size=m).astype(float)
            lo, hi = -2 * np.ones(n), 2 * np.ones(n)
            mine = solve_lp(A, ["<="] * m, b, lo, hi)
            exact = fourier_motzkin_feasible(
                [(A[i], b[i]) for i in range(m)], lo, hi)
            assert mine.feasible == exact, f"trial {trial}"
            n_checked += 1
        assert n_checked == 50


class TestPhaseTwo:
    def test_optimum_matches_vertex_enumeration(self):
        rng = np.random.default_rng(2)
        for trial in range(60):
            n = int(rng.integers(2, 4))
            m = int(rng.integers(1, 5))
            A = rng.normal(size=(m, n)).round(2)
            b = rng.uniform(-1, 2, size=m).round(2)
            c = rng.normal(size=n).round(2)
            lo, hi = -1.5 * np.ones(n), 1.5 * np.ones(n)
            mine = solve_lp(A, ["<="] * m, b, lo, hi, objective=c)
            ref = vertex_lp_max(A, b, lo, hi, c)
            if ref is None:
                assert not mine.feasible, f"trial {trial}"
            else:
                assert mine.feasible, f"trial {trial}"
                assert mine.objective == pytest.approx(ref, abs=1e-7), f"trial {trial}"

    def test_equality_constrained_optimum(self):
        # x + y = 1 as two <= rows
        sol = solve_lp([[1.0, 1.0], [-1.0, -1.0]], ["<=", "<="], [1.0, -1.0],
                       [0, 0], [1, 1], objective=[2.0, 1.0])
        assert sol.feasible
        assert sol.objective == pytest.approx(2.0)
        assert sol.x[0] == pytest.approx(1.0)


# tableau entries: signed zeros and small integers (exact ties) as often as
# general floats
ENTRY = st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.0, -0.5]) | st.floats(-1e3, 1e3)
PIVOT = st.floats(1e-2, 1e2) | st.floats(-1e2, -1e-2)


@st.composite
def tableaus(draw):
    """A tableau, a pivot position with a nonzero entry, and a basis; some
    rows get a zero (of either sign) in the pivot column."""
    m = draw(st.integers(1, 8))
    ncols = draw(st.integers(1, 10))
    T = np.array([[draw(ENTRY) for _ in range(ncols + 1)] for _ in range(m)])
    row = draw(st.integers(0, m - 1))
    col = draw(st.integers(0, ncols - 1))
    for i in range(m):
        if draw(st.booleans()):
            T[i, col] = draw(st.sampled_from([0.0, -0.0]))
    T[row, col] = draw(PIVOT)
    basis = draw(st.lists(st.integers(0, ncols - 1), min_size=m, max_size=m))
    return T, basis, row, col


class TestPivot:
    def test_untouched_rows_keep_negative_zeros(self):
        # an unmasked update would subtract 0 * -0.0 = -0.0 from row 1's
        # last entry and turn its -0.0 into +0.0
        T = np.array([[2.0, 1.0, -0.0], [0.0, 3.0, -0.0]])
        lp._pivot(T, [0, 1], 0, 0)
        assert np.signbit(T[1, 2])

    @settings(max_examples=400, deadline=None)
    @given(tableaus())
    def test_pivot_matches_row_loop_bit_for_bit(self, case):
        T, basis, row, col = case
        T_ref, basis_ref = T.copy(), list(basis)
        lp._pivot(T, basis, row, col)
        pivot_rows(T_ref, basis_ref, row, col)
        assert T.tobytes() == T_ref.tobytes()
        assert basis == basis_ref


# LP data: small integer coefficients, and right-hand sides met exactly at a
# corner or the centre of the box, make degenerate ties common; offsets of
# either sign make infeasible systems common
COEF = st.sampled_from([-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0]) | st.floats(-3.0, 3.0)
OFFSET = st.sampled_from([0.0, 0.0, 0.5, -0.5]) | st.floats(-1.0, 1.0)


@st.composite
def box_lps(draw):
    n = draw(st.integers(1, 4))
    m = draw(st.integers(0, 6))
    A = np.array([[draw(COEF) for _ in range(n)] for _ in range(m)]).reshape(m, n)
    kinds = [draw(st.sampled_from(["<=", ">=", "="])) for _ in range(m)]
    lo = np.array([draw(st.sampled_from([-2.0, -1.0, 0.0]) | st.floats(-2.0, 0.0))
                   for _ in range(n)])
    width = np.array([draw(st.sampled_from([0.0, 1.0, 2.0]) | st.floats(0.0, 3.0))
                      for _ in range(n)])
    x0 = lo + width * np.array([draw(st.sampled_from([0.0, 0.5, 1.0])) for _ in range(n)])
    b = A @ x0 + np.array([draw(OFFSET) for _ in range(m)])
    objective = draw(st.none() | st.lists(COEF, min_size=n, max_size=n).map(np.array))
    return (*leq_rows(A, kinds, b), lo, lo + width, objective)


def _outcome(A, rel, b, lo, hi, objective):
    sol = solve_lp(A, rel, b, lo, hi, objective=objective)
    x = None if sol.x is None else sol.x.tobytes()
    obj = None if sol.objective is None else np.float64(sol.objective).tobytes()
    return sol.feasible, x, obj


class TestSolveWithRowLoopPivot:
    @settings(max_examples=400, deadline=None)
    @given(box_lps())
    def test_same_solution_as_row_loop_pivot(self, case):
        mine = _outcome(*case)
        with mock.patch.object(lp, "_pivot", pivot_rows):
            ref = _outcome(*case)
        assert mine == ref


def highs(c, A_ub, b_ub, bounds):
    """SciPy's HiGHS (test-only oracle) on min c.x; its OptimizeResult.
    Presolve is off: it can call a system whose feasible set has zero width
    (rows met with equality at the box's edge) infeasible. The primal and
    dual tolerances are 1e-10, below the simplex's: at HiGHS's default 1e-7
    a cost under 1e-7 counts as zero and the optimum misses by its size."""
    linprog = pytest.importorskip("scipy.optimize").linprog
    ref = linprog(c, A_ub=A_ub, b_ub=b_ub, bounds=bounds, method="highs",
                  options={"presolve": False, "primal_feasibility_tolerance": 1e-10,
                           "dual_feasibility_tolerance": 1e-10})
    assert ref.status in (0, 2), ref.message
    return ref


def decided(A, b, lo, hi):
    """Whether the rows are feasible or infeasible beyond both solvers'
    tolerances: HiGHS's point of least worst-row violation violates no row
    by more than 1e-12, or the least worst-row violation exceeds 1e-6."""
    n = len(lo)
    c = np.zeros(n + 1)
    c[-1] = 1.0
    ref = highs(c, np.hstack([A, -np.ones((len(b), 1))]), b,
                list(zip(lo, hi)) + [(None, None)])
    x = np.clip(ref.x[:n], lo, hi)
    return np.max(A @ x - b) <= 1e-12 or ref.fun > 1e-6


def flush_tiny(a):
    """Entries under 1e-6 in magnitude set to 0: HiGHS drops matrix entries
    under 1e-9 and prices small costs against tolerances of its own."""
    return None if a is None else np.where(np.abs(a) < 1e-6, 0.0, a)


class TestHighsOracle:
    """Feasibility and optimum against HiGHS, on box_lps with tiny
    coefficients and costs flushed to 0 for both solvers. Systems whose
    worst row sits between the two solvers' feasibility tolerances of its
    bound (the simplex's FEAS_TOL 1e-9 on the summed phase-1 residual,
    HiGHS's per row) have no single answer and are left out."""

    @settings(max_examples=300, deadline=None)
    @given(box_lps())
    def test_agrees_with_highs(self, case):
        A, rel, b, lo, hi, objective = case
        A, objective = flush_tiny(A), flush_tiny(objective)
        if len(b):
            assume(decided(A, b, lo, hi))
        mine = solve_lp(A, rel, b, lo, hi, objective=objective)
        c = np.zeros(len(lo)) if objective is None else -objective
        ref = highs(c, A if len(b) else None, b if len(b) else None, list(zip(lo, hi)))
        assert mine.feasible == (ref.status == 0)
        if mine.feasible and objective is not None:
            assert abs(mine.objective + ref.fun) <= 1e-7 * (1.0 + abs(ref.fun))
