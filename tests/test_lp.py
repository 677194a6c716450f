import numpy as np
import pytest

from oracles import fourier_motzkin_feasible, vertex_lp_max
from seedwing.lp import solve_lp


class TestBasics:
    def test_contradiction_infeasible(self):
        sol = solve_lp([[1.0], [1.0]], [">=", "<="], [1.0, 0.0], [-5], [5])
        assert not sol.feasible

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
            sol = solve_lp(A, rel, b, lo, hi)
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
        sol = solve_lp([[1.0, 1.0]], ["="], [1.0], [0, 0], [1, 1],
                       objective=[2.0, 1.0])
        assert sol.feasible
        assert sol.objective == pytest.approx(2.0)
        assert sol.x[0] == pytest.approx(1.0)
