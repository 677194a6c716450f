import numpy as np
import pytest

from seedwing.zono import (Zonotope, zono_contains_point, zono_hull,
                           zono_max_linear, zono_reduce, zono_sample)


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
        Z = Zonotope.point([1.0, 2.0])
        assert zono_contains_point(Z, [1.0, 2.0])
        assert not zono_contains_point(Z, [1.1, 2.0])
        lo, hi = zono_hull(Z)
        assert np.array_equal(lo, hi)
