import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from seedwing.zono import (Zonotope, zono_contains_point, zono_hull,
                           zono_max_linear, zono_reduce)

from set_helpers import point_zonotope, zono_sample


def rand_zono(rng, n=3, g=6):
    return Zonotope(rng.normal(size=n), rng.normal(scale=0.5, size=(n, g)))


class TestOps:
    def test_box_hull_exact(self):
        Z = Zonotope([1.0, 3.0], np.diag([2.0, 1.0]))
        lo, hi = zono_hull(Z)
        assert np.allclose(lo, [-1, 2]) and np.allclose(hi, [3, 4])

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="row count must match dimension"):
            Zonotope(np.zeros(2), np.zeros((3, 1)))


class TestReduce:
    def test_noop_below_cap(self):
        rng = np.random.default_rng(3)
        Z = rand_zono(rng, n=3, g=5)
        assert zono_reduce(Z, 2.0) is Z

    def test_reduction_keeps_sampled_members(self):
        rng = np.random.default_rng(4)
        for _ in range(5):
            Z = rand_zono(rng, n=3, g=24)
            R = zono_reduce(Z, 3.0)
            assert R.n_gen <= 9
            for x in zono_sample(Z, 200, rng):
                assert zono_contains_point(R, x, tol=1e-7)

    def test_hull_never_shrinks(self):
        rng = np.random.default_rng(5)
        Z = rand_zono(rng, n=4, g=30)
        R = zono_reduce(Z, 2.0)
        lo, hi = zono_hull(Z)
        rlo, rhi = zono_hull(R)
        assert np.all(rlo <= lo + 1e-12) and np.all(rhi >= hi - 1e-12)

    @settings(max_examples=300, deadline=None)
    @given(n=st.integers(1, 6), g=st.integers(0, 60), max_order=st.floats(1.0, 12.0),
           seed=st.integers(0, 2 ** 16))
    def test_cap_and_hull_for_any_order_from_one(self, n, g, max_order, seed):
        # from max_order 1 on, the cap int(max_order * dim) holds the dim
        # box generators that reduction adds (ReachConfig rejects less)
        rng = np.random.default_rng(seed)
        Z = Zonotope(rng.normal(size=n), rng.normal(scale=0.5, size=(n, g)))
        R = zono_reduce(Z, max_order)
        assert R.n_gen <= int(max_order * n)
        lo, hi = zono_hull(Z)
        rlo, rhi = zono_hull(R)
        tol = 1e-12 * (1.0 + np.abs(Z.G).sum(axis=1))
        assert np.all(rlo <= lo + tol) and np.all(rhi >= hi - tol)


class TestLinearFunctional:
    def test_exact_maximum_vs_sampling(self):
        rng = np.random.default_rng(6)
        Z = rand_zono(rng, n=4, g=10)
        w = rng.normal(size=4)
        exact = zono_max_linear(Z, w)
        samples = zono_sample(Z, 100000, rng) @ w
        assert samples.max() <= exact + 1e-9
        # the maximum is attained at the sign-matched vertex
        xi = np.sign(w @ Z.G)
        attained = w @ (Z.c + Z.G @ xi)
        assert attained == pytest.approx(exact, rel=1e-12)


class TestMembershipAndSplit:
    def test_point_membership_via_lp(self):
        rng = np.random.default_rng(7)
        Z = rand_zono(rng, n=3, g=5)
        for x in zono_sample(Z, 50, rng):
            assert zono_contains_point(Z, x)
        lo, hi = zono_hull(Z)
        assert not zono_contains_point(Z, hi + 1.0)

    def test_degenerate_point(self):
        Z = point_zonotope([1.0, 2.0])
        assert zono_contains_point(Z, [1.0, 2.0])
        assert not zono_contains_point(Z, [1.1, 2.0])
        lo, hi = zono_hull(Z)
        assert np.array_equal(lo, hi)


XI = st.sampled_from([-1.0, 0.0, 1.0]) | st.floats(-1.0, 1.0)


@st.composite
def zono_points(draw):
    """A zonotope, a point and whether it is known to lie inside: c + G xi
    (inside), the same scaled by s >= 1 about c, or the hull's upper corner
    moved out by d in one coordinate."""
    n = draw(st.integers(1, 3))
    g = draw(st.integers(1, 5))
    seed = draw(st.integers(0, 2 ** 16))
    rng = np.random.default_rng(seed)
    Z = Zonotope(rng.normal(size=n), rng.normal(scale=0.5, size=(n, g)))
    xi = np.array([draw(XI) for _ in range(g)])
    kind = draw(st.sampled_from(["inside", "scaled", "beyond"]))
    if kind == "inside":
        x = Z.c + Z.G @ xi
    elif kind == "scaled":
        x = Z.c + draw(st.floats(1.0, 3.0)) * (Z.G @ xi)
    else:
        x = zono_hull(Z)[1].copy()
        x[draw(st.integers(0, n - 1))] += draw(st.floats(1e-3, 2.0))
    return Z, x, kind == "inside"


def highs_membership(Z, x, tol):
    """linprog (HiGHS, test-only) on the equality form G xi = x - c,
    xi in [-1 - tol, 1 + tol]^g; also the least inf-norm of such xi (None
    when G xi = x - c has no solution)."""
    linprog = pytest.importorskip("scipy.optimize").linprog
    g = Z.n_gen
    member = linprog(np.zeros(g), A_eq=Z.G, b_eq=x - Z.c,
                     bounds=[(-1.0 - tol, 1.0 + tol)] * g, method="highs")
    assert member.status in (0, 2), member.message
    # min t subject to G xi = x - c and -t <= xi_i <= t
    c = np.zeros(g + 1)
    c[-1] = 1.0
    eye = np.eye(g)
    ones = np.ones((g, 1))
    norm = linprog(c, A_ub=np.block([[eye, -ones], [-eye, -ones]]), b_ub=np.zeros(2 * g),
                   A_eq=np.hstack([Z.G, np.zeros((Z.dim, 1))]), b_eq=x - Z.c,
                   bounds=[(None, None)] * g + [(0.0, None)], method="highs")
    return member.status == 0, (norm.fun if norm.status == 0 else None)


class TestMembershipOracle:
    """zono_contains_point (two <= blocks) against HiGHS's equality-form
    membership LP. Points not known to lie inside whose least inf-norm xi
    lies between the two solvers' tolerances of the bound 1 + tol have no
    single answer and are left out."""

    @settings(max_examples=300, deadline=None)
    @given(zono_points())
    def test_agrees_with_highs(self, case):
        Z, x, inside = case
        tol = 1e-9
        member, least = highs_membership(Z, x, tol)
        if inside:
            assert member
        else:
            assume(least is None or not 1.0 - 1e-6 < least < 1.0 + 1e-6)
        assert zono_contains_point(Z, x, tol) == member
