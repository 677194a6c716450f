import itertools
import math
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oracles import (TWO_PASS_KERNELS, TWO_PASS_OPERATORS, MPDual, interval_propagation,
                     remainder_intervals)
from set_helpers import contains, point_zonotope, zono_sample
from seedwing import intervals as iv
from seedwing import reach
from seedwing.aeromodel import State, rk4_step, _deriv_raw, _derivative_core
from seedwing.intervals import Dual, Interval
from seedwing.mlp import Layer, Network, embed_normalization, forward
from seedwing.reach import (BranchFailure, ReachConfig, ReachDomainError,
                            goal_check, initial_zonotope, interval_derivative,
                            interval_jacobian, nn_output_set, point_jacobian,
                            reach_control_cycle, reach_full, reach_step,
                            reach_to_csv, x6_cells)
from seedwing.zono import Zonotope, zono_hull, zono_max_linear


def constant_net(value, n_in=6):
    return Network((Layer(np.zeros((1, n_in)), np.array([float(value)]), "id"),))


def interval_output(net, Z):
    """Clamped output interval of plain interval propagation over Z's hull."""
    lo, hi = zono_hull(Z)
    p_lo, p_hi = interval_propagation(net, tuple(zip(lo, hi)))["pre"][-1]
    return Interval(min(max(float(p_lo[0]), 0.181), 0.193),
                    min(max(float(p_hi[0]), 0.181), 0.193))


def fine_flow(x, u, p, dt, n_sub=100):
    """Reference solution over one dt window via sub-stepped RK4."""
    s = State(*x)
    for _ in range(n_sub):
        s = rk4_step(s, u, p, dt / n_sub)
    return np.array(s.as_tuple())


def linear_core(A, B):
    """Linear dynamics dx = A x + B u for generic scalars, reading all six
    state entries; tests patch it in as `reach._derivative_core`."""
    def core(x, u, p):
        out = []
        for i in range(6):
            acc = A[i][0] * x[0]
            for j in range(1, 6):
                acc = acc + A[i][j] * x[j]
            acc = acc + B[i] * u
            out.append(acc)
        return out
    core.reads = tuple(range(6))
    return core


def step_internals(Z, u, p, cfg):
    """reach_step's next zonotope, and the (arguments, return value) of its
    calls to reach._apriori_box, interval_jacobian and _remainder."""
    calls = {}

    def recorder(name):
        fn = getattr(reach, name)

        def call(*args):
            calls[name] = args, fn(*args)
            return calls[name][1]
        return call

    names = ("_apriori_box", "interval_jacobian", "_remainder")
    with mock.patch.multiple(reach, **{n: recorder(n) for n in names}):
        Z_next = reach_step(Z, u, p, cfg)
    return Z_next, calls


class TestJacobians:
    def test_point_jacobian_matches_fd(self, params):
        x = (0.8, -0.12, 0.3, -0.5, 0.1, 2.0)
        u = 0.187
        J = point_jacobian(x, u, params)
        h = 1e-6
        for j in range(6):
            xp, xm = list(x), list(x)
            xp[j] += h
            xm[j] -= h
            fd = (np.array(_deriv_raw(tuple(xp), u, params))
                  - np.array(_deriv_raw(tuple(xm), u, params))) / (2 * h)
            rel = np.abs(fd - J[:, j]) / np.maximum(np.abs(fd), 1e-5)
            assert rel.max() < 1e-5
        fd_u = (np.array(_deriv_raw(x, u + h, params))
                - np.array(_deriv_raw(x, u - h, params))) / (2 * h)
        rel = np.abs(fd_u - J[:, 6]) / np.maximum(np.abs(fd_u), 1e-5)
        assert rel.max() < 1e-4

    def test_pitch_row_is_unit_x3(self, params):
        J = point_jacobian((0.9, -0.1, 0.5, -0.3, 0, 0), 0.185, params)
        assert np.allclose(J[3], [0, 0, 1, 0, 0, 0, 0])
        lo = [0.7, -0.2, 0.1, -0.5, 0.0, 1.0]
        hi = [0.9, -0.05, 0.4, -0.2, 0.2, 2.0]
        Jint = interval_jacobian([Interval(a, b) for a, b in zip(lo, hi)],
                                 Interval(0.183, 0.19), params)
        row = Jint[3]
        assert row[2].lo == row[2].hi == 1.0
        for j in (0, 1, 3, 4, 5, 6):
            assert row[j].lo == row[j].hi == 0.0

    def test_interval_jacobian_contains_sampled_point_jacobians(self, params):
        rng = np.random.default_rng(0)
        lo = np.array([0.7, -0.2, 0.1, -0.6, 0.0, 1.5])
        hi = np.array([0.9, -0.05, 0.4, -0.4, 0.2, 2.5])
        Jint = interval_jacobian([Interval(a, b) for a, b in zip(lo, hi)],
                                 Interval(0.183, 0.19), params)
        for _ in range(100):
            xs = rng.uniform(lo, hi)
            us = rng.uniform(0.183, 0.19)
            Jp = point_jacobian(tuple(xs), us, params)
            for i in range(6):
                for j in range(7):
                    assert contains(Jint[i][j], Jp[i, j], tol=1e-9)

    def test_degenerate_set_matches_point(self, params):
        x = (0.85, -0.1, 0.2, -0.4, 0.0, 1.0)
        Jint = interval_jacobian([Interval(v) for v in x], Interval(0.187), params)
        Jp = point_jacobian(x, 0.187, params)
        for i in range(6):
            for j in range(7):
                assert contains(Jint[i][j], Jp[i, j], tol=1e-9)
                assert Jint[i][j].width < 1e-5 * max(1.0, abs(Jp[i, j]))

    def test_velocity_origin_raises_domain_error(self, params):
        box = [Interval(-0.5, 0.5), Interval(-0.5, 0.5), Interval(0.0),
               Interval(0.0), Interval(0.0), Interval(0.0)]
        with pytest.raises(ReachDomainError):
            interval_jacobian(box, Interval(0.187), params)


def plate_all_lanes(x, u, p):
    """The plate core declaring all six state entries read: every entry
    seeded."""
    return _deriv_raw(x, u, p)


plate_all_lanes.reads = tuple(range(6))


def _bits(x):
    return (x.lo.hex(), x.hi.hex()) if isinstance(x, Interval) else float(x).hex()


class TestJacobianLanes:
    BOX = [Interval(0.7, 0.9), Interval(-0.2, -0.05), Interval(0.1, 0.4),
           Interval(-0.6, -0.4), Interval(0.0, 0.2), Interval(1.5, 2.5)]
    U = Interval(0.183, 0.19)

    def test_plate_position_columns_are_exact_zeros(self, params):
        Jint = interval_jacobian(self.BOX, self.U, params)
        Jp = point_jacobian([b.mid for b in self.BOX], self.U.mid, params)
        for i in range(6):
            for j in (4, 5):
                assert _bits(Jint[i][j]) == _bits(Interval(0.0))
                assert _bits(Jp[i, j]) == _bits(0.0)

    def test_read_columns_equal_all_lanes_bit_for_bit(self, params):
        x = [b.mid for b in self.BOX]
        Jint = interval_jacobian(self.BOX, self.U, params)
        Jp = point_jacobian(x, self.U.mid, params)
        with mock.patch.object(reach, "_derivative_core", plate_all_lanes):
            ref = interval_jacobian(self.BOX, self.U, params)
            Jp_ref = point_jacobian(x, self.U.mid, params)
        for i in range(6):
            for j in (0, 1, 2, 3, 6):
                assert _bits(Jint[i][j]) == _bits(ref[i][j])
                assert _bits(Jp[i, j]) == _bits(Jp_ref[i, j])

    def test_declared_position_lanes_keep_their_columns(self, params, monkeypatch):
        A = np.zeros((6, 6))
        A[0][4] = 0.75
        A[1][5] = -2.0
        monkeypatch.setattr(reach, "_derivative_core", linear_core(A, np.zeros(6)))
        Jint = interval_jacobian(self.BOX, self.U, params)
        Jp = point_jacobian([b.mid for b in self.BOX], self.U.mid, params)
        assert contains(Jint[0][4], 0.75) and Jint[0][4].width < 1e-12
        assert contains(Jint[1][5], -2.0) and Jint[1][5].width < 1e-12
        assert Jp[0, 4] == 0.75 and Jp[1, 5] == -2.0

    def test_remainder_equals_interval_reference(self, params, heavy_params,
                                                 heavy_settled):
        G = np.zeros((6, 2))
        G[5, 0] = 0.05
        G[1, 1] = 0.002
        cases = [(Zonotope(heavy_settled, G), Interval(0.186, 0.188), heavy_params,
                  ReachConfig(dt=1e-3)),
                 (initial_zonotope(1.43, 1.60875), Interval(0.19027, 0.19113), params,
                  ReachConfig(dt=1e-4))]
        for Z, u, p, cfg in cases:
            _, calls = step_internals(Z, u, p, cfg)
            B = calls["_apriori_box"][1][0]
            J_c = calls["_remainder"][0][4]
            lo, hi = (h.tolist() for h in zono_hull(Z))
            fB = [iv.as_interval(v) for v in interval_derivative(B, u, p)]
            want = remainder_intervals(lo, hi, Z.c.tolist(), calls["interval_jacobian"][1],
                                       J_c, u, fB, cfg.dt)
            assert [_bits(Interval(a, b)) for a, b in zip(*calls["_remainder"][1])] == \
                [_bits(Interval(a, b)) for a, b in zip(*want)]


# x1..x6 spans of the random plate boxes, away from zero relative flow: x1
# keeps one sign with x1² >= 0.36, above the 0.3 that vy*vy can fall below
# zero when vy = x2 - x3*l_cm straddles it (the enclosure of the speed's
# square is x1*x1 + vy*vy)
PLATE_SPANS = [(0.6, 3.0), (-0.5, 0.5), (-3.0, 3.0), (-2.0, 1.0), (-1.0, 1.0), (0.0, 5.0)]


@st.composite
def plate_boxes(draw):
    """A state box, about half of its sides thin, and an actuation interval."""
    box = []
    for lo, hi in PLATE_SPANS:
        a, b = sorted((draw(st.floats(lo, hi)), draw(st.floats(lo, hi))))
        if draw(st.booleans()):
            b = a + 1e-3 * (b - a)
        box.append(Interval(a, b))
    if draw(st.booleans()):
        box[0] = -box[0]
    u = sorted((draw(st.floats(0.181, 0.193)), draw(st.floats(0.181, 0.193))))
    return box, Interval(*u)


# the plate's structural zeros: partials of expressions that never read the
# variable (positions x5, x6 nowhere; dx4 = x3 reads x3 only; dx3 does not
# read the pitch x4; dx5, dx6 read neither x3 nor the actuation)
STRUCTURAL_ZEROS = ([(i, j) for i in range(6) for j in (4, 5)]
                    + [(3, j) for j in (0, 1, 3, 6)] + [(2, 3)]
                    + [(i, j) for i in (4, 5) for j in (2, 6)])


class TestStructuralZeros:
    @settings(max_examples=200, deadline=None)
    @given(plate_boxes())
    def test_interval_jacobian_keeps_structural_zeros_exact(self, params, box_u):
        box, u = box_u
        J = interval_jacobian(box, u, params)
        for i, j in STRUCTURAL_ZEROS:
            assert J[i][j].lo == 0.0 and J[i][j].hi == 0.0, (i, j, J[i][j])
        assert J[3][2].lo == J[3][2].hi == 1.0


# -- the plate core against its own formulas in mpmath at 200 bits ------------
# seedwing.intervals' generic functions patched with mpmath's evaluate the
# very core the enclosures evaluate, at points and, through MPDual, with
# point partials; a kink of |.| at exactly 0 takes the slope +1

def _mp_chain(fn, slope):
    def generic(x):
        if isinstance(x, MPDual):
            return MPDual(fn(x.val), [slope(x.val) * d for d in x.der])
        return fn(x)
    return generic


def _mp_atan2(y, x):
    if not isinstance(y, MPDual):       # the core passes two Duals or two numbers
        return mpmath.atan2(y, x)
    denom = x.val * x.val + y.val * y.val
    return MPDual(mpmath.atan2(y.val, x.val),
                  [(x.val * dy - y.val * dx) / denom for dy, dx in zip(y.der, x.der)])


MP_GENERIC = {
    "sin": _mp_chain(mpmath.sin, mpmath.cos),
    "cos": _mp_chain(mpmath.cos, lambda v: -mpmath.sin(v)),
    "tanh": _mp_chain(mpmath.tanh, lambda v: 1 - mpmath.tanh(v) ** 2),
    "sqrt": _mp_chain(mpmath.sqrt, lambda v: 1 / (2 * mpmath.sqrt(v))),
    "absval": _mp_chain(abs, lambda v: 1 if v >= 0 else -1),
    "atan2": _mp_atan2,
}


def _inside(out, v):
    return mpmath.mpf(out.lo) <= v <= mpmath.mpf(out.hi)


class TestCoreAgainstMpmath:
    @settings(max_examples=100, deadline=None)
    @given(plate_boxes())
    def test_enclosures_contain_core_at_corners_and_centre(self, params, box_u):
        """interval_derivative contains the core's value, and interval_jacobian
        its partials, at every corner and the centre of the box (x1..x4 and
        u; x5 and x6 are not read)."""
        box, u = box_u
        f_box = interval_derivative(box, u, params)
        J = interval_jacobian(box, u, params)
        ends = [(b.lo, b.hi) for b in box[:4]] + [(u.lo, u.hi)]
        points = list(itertools.product(*ends)) + [tuple(0.5 * (a + b) for a, b in ends)]
        with mpmath.workprec(200), mock.patch.multiple(iv, **MP_GENERIC):
            for *x, e_x in points:
                x = [mpmath.mpf(v) for v in x] + [mpmath.mpf(box[4].lo), mpmath.mpf(box[5].lo)]
                e_x = mpmath.mpf(e_x)
                for i, v in enumerate(_derivative_core(x, e_x, params)):
                    assert _inside(f_box[i], v), ("value", i, x, e_x)
                if x[1] == x[2] * (e_x * params.ell):
                    continue        # vy = 0: |vy| has no derivative here
                seeds = [MPDual(v, [int(k == j) for k in range(7)])
                         for j, v in enumerate(x + [e_x])]
                for i, d in enumerate(_derivative_core(seeds[:6], seeds[6], params)):
                    for j in range(7):
                        assert _inside(J[i][j], d.der[j]), ("partial", i, j, x, e_x)


class TestStepWithReferenceArithmetic:
    def test_300_steps_same_bytes(self, params):
        """The reach-paper start: 300 steps at dt 1e-4 give the same zonotope
        bytes with the two-pass Dual operators, the Interval-object remainder
        and all seven Jacobian lanes patched in."""
        cfg = ReachConfig(dt=1e-4)
        u = Interval(0.19027, 0.19113)
        Z = Z_ref = initial_zonotope(1.43, 1.60875)
        for _ in range(300):
            Z = reach_step(Z, u, params, cfg)
            with mock.patch.multiple(Dual, **TWO_PASS_OPERATORS), \
                    mock.patch.multiple(iv, **TWO_PASS_KERNELS), \
                    mock.patch.object(reach, "_remainder", remainder_intervals), \
                    mock.patch.object(reach, "_derivative_core", plate_all_lanes):
                Z_ref = reach_step(Z_ref, u, params, cfg)
            assert Z.c.tobytes() == Z_ref.c.tobytes()
            assert Z.G.tobytes() == Z_ref.G.tobytes()


@pytest.mark.parametrize("field", ["dt", "dt_control", "t_end"])
@pytest.mark.parametrize("value", [0.0, -0.01])
def test_config_rejects_nonpositive_times(field, value):
    with pytest.raises(ValueError, match=f"ReachConfig.{field} must be > 0"):
        ReachConfig(**{field: value})


@pytest.mark.parametrize("field", ["dt", "dt_control", "t_end"])
@pytest.mark.parametrize("value", [math.inf, math.nan])
def test_config_rejects_non_finite_times(field, value):
    # dt=inf once passed with steps_per_cycle 0
    with pytest.raises(ValueError,
                       match=rf"ReachConfig\.{field} must be > 0 and finite, got {value}"):
        ReachConfig(**{field: value})


def test_config_rejects_simplified_angle_of_attack():
    with pytest.raises(ValueError, match="simplified angle of attack was removed"):
        ReachConfig(exact_alpha=False)


def test_config_rejects_interval_relu_mode():
    with pytest.raises(ValueError, match="only the zonotope ReLU enclosure remains"):
        ReachConfig(relu_mode="interval")
    with pytest.raises(ValueError, match="only the zonotope ReLU enclosure remains"):
        nn_output_set(constant_net(0.187), point_zonotope(np.zeros(6)), "interval")


@pytest.mark.parametrize("kw, text", [
    (dict(t_end=0.1), r"t_end 0\.1 is not a multiple of dt_control 0\.5"),
    (dict(dt=0.3), r"dt_control 0\.5 is not a multiple of dt 0\.3"),
])
def test_config_divisibility_errors_name_the_values(kw, text):
    with pytest.raises(ValueError, match=text):
        ReachConfig(**kw)


class TestReachStep:
    def test_linear_dynamics_zero_linearization_remainder(self, params, monkeypatch):
        A = np.diag([-1.0, -0.5, -2.0, 0.0, 0.0, 0.0])
        A[3, 2] = 1.0
        B = np.zeros(6)
        monkeypatch.setattr(reach, "_derivative_core", linear_core(A, B))
        cfg = ReachConfig(dt=0.01)
        Z = Zonotope(np.array([1.0, 1, 1, 0, 0, 0]),
                     np.diag([0.1, 0.1, 0.1, 0.1, 0.1, 0.1]))
        Z2, calls = step_internals(Z, Interval(0.187), params, cfg)
        rem_lo, rem_hi = calls["_remainder"][1]
        # the interval Jacobian of a linear system is a point, so the
        # mean-value remainder width comes from the truncation term alone:
        # dt^2/2 * A (A x) over the a-priori box
        hull_abs = np.abs(Z.c) + np.abs(Z.G).sum(axis=1) + 0.1
        trunc_cap = 0.51 * cfg.dt ** 2 * (np.abs(A) @ (np.abs(A) @ hull_abs))
        for i in range(6):
            assert (rem_hi[i] - rem_lo[i]) / 2 <= trunc_cap[i] + 1e-12
        # center advances by the second-order Taylor map, up to the midpoint
        # asymmetry of the truncation interval over the a-priori box
        want = Z.c + cfg.dt * (A @ Z.c) + 0.5 * cfg.dt ** 2 * (A @ (A @ Z.c))
        assert np.max(np.abs(Z2.c - want)) <= 1e-5

    def test_zero_width_step_contains_flow(self, params):
        cfg = ReachConfig(dt=1e-3)
        for x in [(1.0, 0, 0, 0, 0, 2.0), (0.8, -0.12, 0.3, -0.5, 0.1, 2.0)]:
            Z = reach_step(point_zonotope(np.array(x)), Interval(0.187),
                           params, cfg)
            lo, hi = zono_hull(Z)
            v = fine_flow(x, 0.187, params, cfg.dt)
            assert np.all(v >= lo - 1e-12) and np.all(v <= hi + 1e-12)

    def test_zero_width_step_contains_one_rk4_step(self, params):
        # at the standard start the step is well resolved, so the plain
        # RK4 point lands inside the hull
        cfg = ReachConfig(dt=1e-3)
        x = (1.0, 0, 0, 0, 0, 2.0)
        Z = reach_step(point_zonotope(np.array(x)), Interval(0.187), params, cfg)
        srk = rk4_step(State(*x), 0.187, params, cfg.dt)
        lo, hi = zono_hull(Z)
        v = np.array(srk.as_tuple())
        assert np.all(v >= lo - 1e-12) and np.all(v <= hi + 1e-12)

    def test_step_contains_propagated_samples(self, heavy_params, heavy_settled):
        rng = np.random.default_rng(1)
        cfg = ReachConfig(dt=1e-3)
        G = np.zeros((6, 2))
        G[5, 0] = 0.05
        G[1, 1] = 0.002
        Z = Zonotope(heavy_settled, G)
        Z2 = reach_step(Z, Interval(0.186, 0.188), heavy_params, cfg)
        lo, hi = zono_hull(Z2)
        for x in zono_sample(Z, 1000, rng):
            u = rng.uniform(0.186, 0.188)
            s = rk4_step(State(*x), u, heavy_params, cfg.dt)
            v = np.array(s.as_tuple())
            assert np.all(v >= lo - 1e-10) and np.all(v <= hi + 1e-10)

    def test_blowup_guard(self, params, monkeypatch):
        monkeypatch.setattr(reach, "BLOWUP_WIDTH", 1e-6)
        cfg = ReachConfig(dt=1e-3)
        Z = Zonotope(np.array([1.0, 0, 0, 0, 0, 2.0]), np.zeros((6, 0)))
        with pytest.raises(BranchFailure):
            reach_step(Z, Interval(0.187), params, cfg)


def _nominal_states(p, x0, dt, n_steps, every):
    """Every `every`-th state of the point trajectory from x0 under u = 0.19."""
    s = State(*x0)
    out = []
    for k in range(n_steps + 1):
        if k % every == 0:
            out.append(np.array(s.as_tuple()))
        s = rk4_step(s, 0.19, p, dt)
    return out


@pytest.fixture(scope="module")
def run_states(params, heavy_params, heavy_settled):
    """(plate, dt, state) triples along the two reach workloads' nominal runs:
    the paper's plate from the criterion-7 start up to t = 0.4 s at dt 1e-4,
    and the heavy plate along its settled glide at dt 1e-3."""
    paper = _nominal_states(params, (1.0, 0, 0, 0, 0, 1.5), 1e-4, 4000, 500)
    glide = _nominal_states(heavy_params, heavy_settled, 1e-3, 300, 50)
    return ([(params, 1e-4, x) for x in paper]
            + [(heavy_params, 1e-3, x) for x in glide])


class TestMidpointStep:
    """The step linearizes about the interval Jacobian's midpoint and builds
    its a-priori box from the hull, so it evaluates the plate core four times:
    the float centre, about two interval derivatives and one interval
    Jacobian, and never the point Jacobian."""

    def test_reach_paper_calls_per_step(self, params):
        cfg = ReachConfig(dt=1e-4)
        u = Interval(0.19027, 0.19113)
        Z = initial_zonotope(1.43, 1.60875)
        with mock.patch.object(reach, "interval_derivative",
                               wraps=reach.interval_derivative) as derivs, \
                mock.patch.object(reach, "point_jacobian",
                                  wraps=reach.point_jacobian) as points:
            for _ in range(200):
                Z = reach_step(Z, u, params, cfg)
        assert derivs.call_count <= 2.1 * 200
        assert points.call_count == 0

    def test_linearization_matrix_is_jacobian_midpoint(self, params, heavy_params,
                                                       heavy_settled):
        G = np.zeros((6, 2))
        G[5, 0] = 0.05
        G[1, 1] = 0.002
        for Z, u, p, cfg in [(Zonotope(heavy_settled, G), Interval(0.186, 0.188),
                              heavy_params, ReachConfig(dt=1e-3)),
                             (initial_zonotope(1.43, 1.60875), Interval(0.19027, 0.19113),
                              params, ReachConfig(dt=1e-4))]:
            _, calls = step_internals(Z, u, p, cfg)
            J_c, J_int = calls["_remainder"][0][4], calls["interval_jacobian"][1]
            for i in range(6):
                for j in range(7):
                    J = J_int[i][j]
                    assert _bits(J_c[i][j]) == _bits(0.5 * J.lo + 0.5 * J.hi)
                for j in (4, 5):
                    assert _bits(J_c[i][j]) == _bits(0.0)

    @settings(max_examples=40, deadline=None)
    @given(data=st.data(),
           log_half=st.lists(st.floats(-5.0, -2.0), min_size=6, max_size=6),
           u_ends=st.tuples(st.floats(0.181, 0.193), st.floats(0.181, 0.193)),
           seed=st.integers(0, 2 ** 16))
    def test_step_contains_fine_rk4_from_sampled_points(self, run_states, data,
                                                        log_half, u_ends, seed):
        p, dt, x = data.draw(st.sampled_from(run_states))
        half = 10.0 ** np.array(log_half)
        u_set = Interval(min(u_ends), max(u_ends))
        try:
            Z = reach_step(Zonotope(x, np.diag(half)), u_set, p, ReachConfig(dt=dt))
        except BranchFailure:
            assume(False)     # a step may refuse a box, soundly; not too often
        lo, hi = zono_hull(Z)
        rng = np.random.default_rng(seed)
        corners = x + half * rng.choice([-1.0, 1.0], size=(8, 6))
        interior = x + half * rng.uniform(-1.0, 1.0, size=(4, 6))
        u = rng.uniform(u_set.lo, u_set.hi)
        for x0 in np.vstack([corners, interior]):
            v = fine_flow(x0, u, p, dt, n_sub=50)
            assert np.all(v >= lo - 1e-12) and np.all(v <= hi + 1e-12)


class TestNnOutputSet:
    def test_point_zonotope_exact(self, naive_net, norm_spec):
        emb = embed_normalization(naive_net)
        rng = np.random.default_rng(2)
        for _ in range(20):
            x = rng.uniform(norm_spec.in_min, norm_spec.in_max)
            out = nn_output_set(emb, point_zonotope(x))
            want = min(max(forward(emb, x), 0.181), 0.193)
            assert out.lo == pytest.approx(want, abs=1e-9)
            assert out.hi == pytest.approx(want, abs=1e-9)

    def test_contains_sampled_outputs(self, naive_net, norm_spec):
        emb = embed_normalization(naive_net)
        rng = np.random.default_rng(3)
        lo = np.array(norm_spec.in_min)
        hi = np.array(norm_spec.in_max)
        c = 0.5 * (lo + hi)
        Z = Zonotope(c, np.diag(0.1 * (hi - lo)))
        for out in (nn_output_set(emb, Z), interval_output(emb, Z)):
            for x in zono_sample(Z, 3000, rng):
                y = min(max(forward(emb, x), 0.181), 0.193)
                assert out.lo - 1e-9 <= y <= out.hi + 1e-9

    def test_zonotope_mode_tighter_than_interval(self, naive_net, norm_spec):
        emb = embed_normalization(naive_net)
        rng = np.random.default_rng(4)
        lo = np.array(norm_spec.in_min)
        hi = np.array(norm_spec.in_max)
        for _ in range(20):
            c = rng.uniform(lo, hi)
            Z = Zonotope(c, np.diag(0.15 * (hi - lo)))
            zi = nn_output_set(emb, Z, "zonotope")
            ii = interval_output(emb, Z)
            assert zi.lo >= ii.lo - 1e-12 and zi.hi <= ii.hi + 1e-12

    def test_clamp_image(self):
        net = constant_net(0.5)
        out = nn_output_set(net, point_zonotope(np.zeros(6)))
        assert out.lo == out.hi == 0.193
        net2 = constant_net(0.0)
        out2 = nn_output_set(net2, point_zonotope(np.zeros(6)))
        assert out2.lo == out2.hi == 0.181


class TestControlCycle:
    def test_constant_net_equals_override(self, heavy_params, heavy_settled):
        cfg = ReachConfig(dt=1e-3)
        G = np.zeros((6, 1))
        G[5, 0] = 0.02
        Z = Zonotope(heavy_settled, G)
        a = reach_control_cycle(Z, constant_net(0.187), heavy_params, cfg)
        b = Z
        for _ in range(cfg.steps_per_cycle):
            b = reach_step(b, Interval(0.187, 0.187), heavy_params, cfg)
        assert np.allclose(a.c, b.c) and np.allclose(a.G, b.G)

    def test_zero_width_cycle_contains_point_simulation(self, heavy_params,
                                                        heavy_settled):
        cfg = ReachConfig(dt=1e-3)
        Z = point_zonotope(heavy_settled)
        out = reach_control_cycle(Z, constant_net(0.187), heavy_params, cfg)
        s = State(*heavy_settled)
        for _ in range(50):
            s = rk4_step(s, 0.187, heavy_params, 0.01)
        lo, hi = zono_hull(out)
        v = np.array(s.as_tuple())
        assert np.all(v >= lo - 1e-9) and np.all(v <= hi + 1e-9)

    def test_refinement_contains_simulations_in_both(self, heavy_params,
                                                     heavy_settled, naive_net):
        rng = np.random.default_rng(5)
        cfg = ReachConfig(dt=1e-3)
        G = np.zeros((6, 1))
        G[5, 0] = 0.04
        Z = Zonotope(heavy_settled, G)
        emb = embed_normalization(naive_net)
        whole = reach_control_cycle(Z, emb, heavy_params, cfg)
        Z1 = Zonotope(heavy_settled - np.array([0, 0, 0, 0, 0, 0.02]), G * 0.5)
        Z2 = Zonotope(heavy_settled + np.array([0, 0, 0, 0, 0, 0.02]), G * 0.5)
        halves = [reach_control_cycle(Zi, emb, heavy_params, cfg) for Zi in (Z1, Z2)]
        los = [zono_hull(h)[0] for h in halves]
        his = [zono_hull(h)[1] for h in halves]
        wlo, whi = zono_hull(whole)
        for _ in range(100):
            x0 = heavy_settled.copy()
            x0[5] += rng.uniform(-0.04, 0.04)
            u = float(min(max(forward(emb, x0), 0.181), 0.193))
            s = State(*x0)
            for _ in range(50):
                s = rk4_step(s, u, heavy_params, 0.01)
            v = np.array(s.as_tuple())
            assert np.all(v >= wlo - 1e-9) and np.all(v <= whi + 1e-9)
            in_half = any(np.all(v >= l - 1e-9) and np.all(v <= h + 1e-9)
                          for l, h in zip(los, his))
            assert in_half


class TestReachFull:
    def test_zero_width_initial_degenerates_to_point_simulation(
            self, heavy_params, heavy_settled):
        cfg = ReachConfig(dt=1e-3, t_end=1.0, n_splits=1)
        net = constant_net(0.187)
        x6 = heavy_settled[5]
        result = reach_full((x6, x6), net, heavy_params, cfg,
                            base_state=heavy_settled)
        assert not result.inconclusive
        br = result.branches[0]
        assert len(br.checkpoints) == cfg.n_cycles + 1
        s = State(*heavy_settled)
        for k, Z in enumerate(br.checkpoints):
            lo, hi = zono_hull(Z)
            v = np.array(s.as_tuple())
            assert np.all(v >= lo - 1e-9) and np.all(v <= hi + 1e-9)
            if k < cfg.n_cycles:
                for _ in range(50):
                    s = rk4_step(s, 0.187, heavy_params, 0.01)

    def test_split_cells_partition_interval(self, heavy_params, heavy_settled):
        cfg = ReachConfig(dt=1e-3, t_end=0.5, n_splits=4)
        x6 = heavy_settled[5]
        result = reach_full((x6 - 0.08, x6 + 0.08), constant_net(0.187),
                            heavy_params, cfg, base_state=heavy_settled)
        cells = [b.x6_cell for b in result.branches]
        assert len(cells) == 4
        assert cells[0][0] == pytest.approx(x6 - 0.08)
        assert cells[-1][1] == pytest.approx(x6 + 0.08)
        for a, b in zip(cells, cells[1:]):
            assert a[1] == pytest.approx(b[0])

    def test_sampled_trajectories_inside_matching_branch(
            self, heavy_params, heavy_settled, naive_net):
        rng = np.random.default_rng(6)
        cfg = ReachConfig(dt=1e-3, t_end=1.0, n_splits=2)
        emb = embed_normalization(naive_net)
        x6 = heavy_settled[5]
        result = reach_full((x6 - 0.04, x6 + 0.04), emb, heavy_params, cfg,
                            base_state=heavy_settled)
        assert not result.inconclusive
        for _ in range(40):
            x0 = heavy_settled.copy()
            x0[5] = rng.uniform(x6 - 0.04, x6 + 0.04)
            br = next(b for b in result.branches
                      if b.x6_cell[0] - 1e-12 <= x0[5] <= b.x6_cell[1] + 1e-12)
            s = State(*x0)
            for k in range(cfg.n_cycles):
                u = float(min(max(forward(emb, np.array(s.as_tuple())), 0.181), 0.193))
                for _ in range(50):
                    s = rk4_step(s, u, heavy_params, 0.01)
                lo, hi = zono_hull(br.checkpoints[k + 1])
                v = np.array(s.as_tuple())
                assert np.all(v >= lo - 1e-9) and np.all(v <= hi + 1e-9)

    def test_default_plate_branches_fail_inconclusively(self, params, naive_net):
        # the spec-default parameter set passes within 6e-3 of the zero-speed
        # singularity along its own trajectories; branches must fail with a
        # diagnostic rather than return an unsound hull (README limitations)
        cfg = ReachConfig(n_splits=2, t_end=20.0)
        emb = embed_normalization(naive_net)
        result = reach_full((1.43, 4.29), emb, params, cfg)
        assert result.inconclusive
        assert all(b.failed for b in result.branches)
        assert all(b.fail_reason for b in result.branches)
        assert goal_check(result).status == "unknown"

    def test_fail_step_counts_steps_of_failing_cycle(self, heavy_params, heavy_settled,
                                                     monkeypatch):
        cfg = ReachConfig(dt=1e-3, dt_control=0.1, t_end=0.3, n_splits=1)
        x6 = heavy_settled[5]
        cell = (x6 - 0.02, x6 + 0.02)
        net = constant_net(0.187)
        # hull widths step by step; a blow-up bound just under the widest
        # hull after step 150 makes the branch fail there or later
        Z = initial_zonotope(*cell, heavy_settled)
        widths = []
        for k in range(cfg.n_cycles * cfg.steps_per_cycle):
            if k % cfg.steps_per_cycle == 0:
                u = nn_output_set(net, Z)
            Z = reach_step(Z, u, heavy_params, cfg)
            lo, hi = zono_hull(Z)
            widths.append(np.max(hi - lo))
        bound = max(widths[:150])
        k_fail = next(k for k, w in enumerate(widths) if w > bound)
        monkeypatch.setattr(reach, "BLOWUP_WIDTH", bound)
        br = reach_full(cell, net, heavy_params, cfg, base_state=heavy_settled).branches[0]
        assert br.failed and "blow-up" in br.fail_reason
        assert (br.fail_cycle, br.fail_step) == divmod(k_fail, cfg.steps_per_cycle)
        assert len(br.checkpoints) == br.fail_cycle + 1

    def test_jobs_match_serial_bit_for_bit(self, heavy_params, heavy_settled, naive_net):
        # one 0.1 s cycle at dt 1e-3, so both cells' sets propagate and the
        # controller's enclosure runs in the worker processes
        cfg = ReachConfig(dt=1e-3, dt_control=0.1, t_end=0.1, n_splits=2)
        emb = embed_normalization(naive_net)
        x6 = heavy_settled[5]
        serial, pooled = (reach_full((x6 - 0.04, x6 + 0.04), emb, heavy_params, cfg,
                                     base_state=heavy_settled, jobs=jobs).branches
                          for jobs in (1, 2))
        assert [len(b.checkpoints) for b in serial] == [2, 2]
        for a, b in zip(serial, pooled, strict=True):
            assert (a.index, a.x6_cell) == (b.index, b.x6_cell)
            assert (a.failed, a.fail_reason, a.fail_cycle, a.fail_step) == \
                (b.failed, b.fail_reason, b.fail_cycle, b.fail_step)
            assert len(a.checkpoints) == len(b.checkpoints)
            for Za, Zb in zip(a.checkpoints, b.checkpoints):
                assert Za.c.tobytes() == Zb.c.tobytes()
                assert Za.G.shape == Zb.G.shape and Za.G.tobytes() == Zb.G.tobytes()

    def test_zero_jobs_rejected(self, heavy_params):
        with pytest.raises(ValueError, match="jobs must be >= 1, got 0"):
            reach_full((2.0, 2.1), constant_net(0.187), heavy_params, jobs=0)

    def test_csv_export(self, tmp_path, heavy_params, heavy_settled):
        cfg = ReachConfig(dt=1e-3, t_end=0.5, n_splits=2)
        x6 = heavy_settled[5]
        result = reach_full((x6 - 0.02, x6 + 0.02), constant_net(0.187),
                            heavy_params, cfg, base_state=heavy_settled)
        path = tmp_path / "reach.csv"
        reach_to_csv(result, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "branch,t,dim,lo,hi"
        assert len(lines) == 1 + 2 * 2 * 6   # branches x checkpoints x dims


class TestInitialSet:
    @pytest.mark.parametrize("lo, hi", [(3.0, 2.0), (2.0, 1.9999999999), (-1.0, -2.5)])
    def test_reversed_x6_interval_rejected(self, lo, hi):
        text = rf"x6 interval \[{lo}, {hi}\] needs lo <= hi"
        with pytest.raises(ValueError, match=text):
            x6_cells((lo, hi), 16)
        with pytest.raises(ValueError, match=text):
            initial_zonotope(lo, hi)

    def test_point_x6_interval_allowed(self):
        assert x6_cells((2.0, 2.0), 4) == [(2.0, 2.0)] * 4
        Z = initial_zonotope(2.0, 2.0)
        assert Z.n_gen == 0 and Z.c[5] == 2.0


class TestGoalCheck:
    def test_point_on_line_succeeds(self):
        Z = point_zonotope(np.array([0, 0, 0, 0, 3.0, -3.0]))
        res = _result_with([Z])
        assert goal_check(res, 0.5).status == "success"

    def test_band_functional_closed_form_vs_sampling(self):
        rng = np.random.default_rng(7)
        Z = Zonotope(rng.normal(size=6), rng.normal(scale=0.4, size=(6, 8)))
        w = np.array([0, 0, 0, 0, 1.0, 1.0])
        exact = zono_max_linear(Z, w)
        vals = zono_sample(Z, 100000, rng) @ w
        assert vals.max() <= exact + 1e-9
        # the closed form is attained at the sign-matched vertex
        xi = np.sign(w @ Z.G)
        assert w @ (Z.c + Z.G @ xi) == pytest.approx(exact, rel=1e-12)

    def test_zero_band_fails_for_wide_set(self):
        Z = Zonotope(np.array([0, 0, 0, 0, 1.0, -1.0]),
                     np.array([[0], [0], [0], [0], [0.2], [0.0]]))
        res = _result_with([Z])
        assert goal_check(res, 0.0).status == "failure"

    def test_unknown_on_inconclusive(self):
        from seedwing.reach import Branch, ReachResult
        br = Branch(0, (1.0, 2.0), [point_zonotope(np.zeros(6))],
                    failed=True, fail_reason="x", fail_cycle=1)
        res = ReachResult([br], ReachConfig())
        assert res.inconclusive
        assert goal_check(res).status == "unknown"

    def test_band_bounds_reported(self):
        Z = Zonotope(np.array([0, 0, 0, 0, 1.0, 0.5]),
                     np.array([[0], [0], [0], [0], [0.0], [0.25]]))
        res = _result_with([Z])
        v = goal_check(res, 2.0)
        assert v.status == "success"
        assert v.band_max == pytest.approx(1.75)
        assert v.band_min == pytest.approx(1.25)


def _result_with(zonos):
    from seedwing.reach import Branch, ReachResult
    branches = [Branch(i, (0.0, 1.0), [Z]) for i, Z in enumerate(zonos)]
    return ReachResult(branches, ReachConfig())
