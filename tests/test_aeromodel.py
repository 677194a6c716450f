import math
from collections import namedtuple
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seedwing import aeromodel
from seedwing.aeromodel import (EX_MAX, EX_MIN, AlphaRegionError,
                                IntegrationDivergedError, PlateParams, State,
                                _aero_terms, _coeffs_abs, _deriv_raw,
                                angle_of_attack, mean_glide_slope, rk4_step,
                                selection_fraction)
from seedwing.closedloop import simulate_open_loop
from oracles import plate_forces_oracle, rk4_step_loops

DEG = math.pi / 180.0


def coefficients(alpha, p):
    """(c_lift, c_drag, l_cp[m]) at the angle of attack alpha."""
    return _coeffs_abs(abs(alpha), p)[1:]


def breakdown(s, e_x, p, l_cp=None):
    """The core's intermediate quantities at state s: the coefficients of
    _coeffs_abs at |alpha| and the forces and torques of _aero_terms, with
    l_cp (metres) replacing the coefficient's when given."""
    vy = s.x2 - s.x3 * (e_x * p.ell)
    f, c_lift, c_drag, lcp = _coeffs_abs(math.atan2(abs(vy), s.x1), p)
    if l_cp is not None:
        lcp = l_cp
    lift_t, lift_r, drag, tau_t, tau_r = _aero_terms(s.x1, vy, s.x3, e_x, c_lift,
                                                     c_drag, lcp, p)
    return SimpleNamespace(f_sel=f, c_lift=c_lift, c_drag=c_drag, l_cp=lcp,
                           lift_t=lift_t, lift_r=lift_r, drag=drag,
                           tau_t=tau_t, tau_r=tau_r)


Derivative = namedtuple("Derivative", "dx1 dx2 dx3 dx4 dx5 dx6")


def derivative(s, e_x, p):
    """The float-path core's six derivatives at state s."""
    return Derivative(*_deriv_raw(s.as_tuple(), e_x, p))


def rand_state(rng, wild=False):
    if wild:
        return State(rng.uniform(0.1, 1.2), rng.uniform(-0.5, 0.3),
                     rng.uniform(-8, 8), rng.uniform(-2.5, 0.6),
                     rng.uniform(-2, 2), rng.uniform(-4, 5))
    return State(rng.uniform(0.3, 1.1), rng.uniform(-0.4, 0.05),
                 rng.uniform(-2, 2), rng.uniform(-1.2, 0.0),
                 rng.uniform(-2, 2), rng.uniform(-4, 5))


class TestPlateParams:
    def test_defaults_match_tabulated_constants(self):
        p = PlateParams()
        assert p.ell == 0.07 and p.mass == 3.175e-4 and p.rho_f == 1.225
        assert p.alpha0 == pytest.approx(14 * DEG) and p.delta_s == pytest.approx(6 * DEG)
        assert (p.cl1, p.cl2) == (0.23857, 2.8529)
        assert (p.cd0, p.cd1, p.cd90) == (0.36893, 5.1822, 0.80751)
        assert (p.ccp0, p.ccp1, p.ccp2) == (0.10598, 4.9368, 1.4996)
        assert p.cr == 1.73 and (p.a_semi, p.b_semi) == (0.03375, 5e-4)
        assert p.g == 9.81

    def test_m_eff_buoyancy_corrected(self):
        p = PlateParams()
        assert p.m_eff == pytest.approx(p.mass - p.rho_f * math.pi * p.a_semi * p.b_semi)

    def test_inertia_formula(self):
        p = PlateParams()
        e = 0.187
        expect = p.mass * (p.a_semi ** 2 + p.b_semi ** 2) \
            + p.rho_f * p.ell ** 4 * (1 / 32 + e * e)
        assert p.inertia(e) == pytest.approx(expect)

    def test_invariants_rejected(self):
        with pytest.raises(ValueError):
            PlateParams(ell=-1.0)
        with pytest.raises(ValueError):
            PlateParams(cd0=0.0)

    def test_state_finite(self):
        with pytest.raises(ValueError):
            State(float("inf"), 0, 0, 0, 0, 0)


class TestAngleOfAttack:
    def test_zero_transverse(self, params):
        assert angle_of_attack(State(1, 0, 0, 0, 0, 0), 0.187, params) == 0.0

    def test_symmetric_quarter(self, params):
        a = angle_of_attack(State(1, -1, 0, 0, 0, 0), 0.187, params)
        assert a == pytest.approx(-math.pi / 4)

    def test_exact_vs_simplified_frozen(self, params):
        # oracle value atan2(-0.3 - 0.5*0.19*0.07, 1): the pitch rate's
        # y'-velocity at the centre of mass counts, so the angle is not
        # the simplified atan2(x2, x1) = atan2(-0.3, 1)
        s = State(1.0, -0.3, 0.5, 0, 0, 0)
        assert angle_of_attack(s, 0.19, params) == pytest.approx(
            -0.297546490672487, abs=1e-15)
        assert angle_of_attack(s, 0.19, params) != pytest.approx(
            -0.2914567944778671, abs=1e-3)

    def test_degenerate_flow_convention(self, params):
        assert angle_of_attack(State(0, 0, 0, 0.3, 0, 0), 0.187, params) == 0.0


class TestCoefficients:
    def test_selection_half_at_stall(self, params):
        assert selection_fraction(params.alpha0, params) == pytest.approx(0.5)

    def test_selection_limits(self, params):
        assert selection_fraction(50.0, params) == pytest.approx(0.0, abs=1e-12)
        assert selection_fraction(-50.0, params) == pytest.approx(1.0, abs=1e-12)

    def test_selection_frozen_at_zero(self, params):
        assert selection_fraction(0.0, params) == pytest.approx(
            0.9906840406549333, abs=1e-15)

    def test_selection_open_unit_and_decreasing(self, params):
        xs = np.linspace(-1.5, 1.5, 200)
        fs = [selection_fraction(x, params) for x in xs]
        assert all(0.0 < f < 1.0 for f in fs)
        assert all(a > b for a, b in zip(fs, fs[1:]))

    def test_lift_zero_at_zero(self, params):
        cl, _, _ = coefficients(0.0, params)
        assert cl == 0.0

    def test_drag_frozen_at_zero(self, params):
        _, cd, _ = coefficients(0.0, params)
        assert cd == pytest.approx(0.3654930631188245, abs=1e-15)

    def test_drag_positive_on_region(self, params):
        for a in np.linspace(-math.pi / 2, 0.0, 100):
            _, cd, _ = coefficients(a, params)
            assert cd > 0.0

    def test_cp_third_term_vanishes_at_ninety(self, params):
        _, _, lcp = coefficients(-math.pi / 2, params)
        f = selection_fraction(math.pi / 2, params)
        expect = params.ell * f * (params.ccp0 - params.ccp1 * (math.pi / 2) ** 2)
        assert lcp == pytest.approx(expect, abs=1e-15)


class TestForcesAndTorques:
    def test_zero_flow_zero_forces(self, params):
        b = breakdown(State(0, 0, 0, 0, 0, 0), 0.187, params)
        assert b.lift_t == (0.0, 0.0) and b.lift_r == (0.0, 0.0) and b.drag == (0.0, 0.0)

    def test_rotational_lift_proportional_to_spin(self, params):
        b = breakdown(State(1.0, -0.3, 0.0, 0, 0, 0), 0.187, params)
        assert b.lift_r == (0.0, 0.0)

    def test_tau_r_zero_without_spin(self, params):
        s = State(0.8, -0.2, 0.0, -0.4, 0, 0)
        assert breakdown(s, 0.187, params, l_cp=0.02).tau_r == 0.0

    def test_tau_t_zero_lever(self, params):
        s = State(0.8, -0.2, 1.3, -0.4, 0, 0)
        tau_t = breakdown(s, 0.19, params, l_cp=0.19 * params.ell).tau_t
        assert tau_t == pytest.approx(0.0, abs=1e-18)

    def test_second_transcription_oracle(self, params):
        rng = np.random.default_rng(11)
        for _ in range(60):
            s = rand_state(rng, wild=True)
            e_x = rng.uniform(0.181, 0.193)
            ref = plate_forces_oracle(s.as_tuple(), e_x, params)
            b = breakdown(s, e_x, params)
            assert angle_of_attack(s, e_x, params) == pytest.approx(ref["alpha"], abs=1e-14)
            assert b.f_sel == pytest.approx(ref["f_sel"], rel=1e-13)
            assert b.c_lift == pytest.approx(ref["c_lift"], rel=1e-12, abs=1e-15)
            assert b.c_drag == pytest.approx(ref["c_drag"], rel=1e-12)
            assert b.l_cp == pytest.approx(ref["l_cp"], rel=1e-12, abs=1e-16)
            for got, want in ((b.lift_t, ref["lift_t"]), (b.lift_r, ref["lift_r"]),
                              (b.drag, ref["drag"])):
                assert got[0] == pytest.approx(want[0], rel=1e-12, abs=1e-18)
                assert got[1] == pytest.approx(want[1], rel=1e-12, abs=1e-18)
            assert b.tau_t == pytest.approx(ref["tau_t"], rel=1e-12, abs=1e-20)
            assert b.tau_r == pytest.approx(ref["tau_r"], rel=1e-12, abs=1e-20)

    def test_breakdown_invariants(self, params):
        rng = np.random.default_rng(12)
        for _ in range(40):
            b = breakdown(rand_state(rng), rng.uniform(0.181, 0.193), params)
            assert 0.0 < b.f_sel < 1.0
            assert b.c_drag > 0.0


class TestStateDerivative:
    def test_rest_state_gravity_only(self, params):
        d = derivative(State(0, 0, 0, 0, 0, 0), 0.187, params)
        ma = params.added_mass
        assert d.dx1 == 0.0
        assert d.dx2 == pytest.approx(-params.m_eff * params.g / (params.mass + ma))
        assert d.dx3 == d.dx4 == d.dx5 == d.dx6 == 0.0

    def test_rotation_identity(self, params):
        rng = np.random.default_rng(13)
        for _ in range(500):
            s = rand_state(rng, wild=True)
            d = derivative(s, 0.187, params)
            assert d.dx5 ** 2 + d.dx6 ** 2 == pytest.approx(
                s.x1 ** 2 + s.x2 ** 2, rel=1e-12, abs=1e-12)

    def test_derivative_matches_oracle(self, params):
        rng = np.random.default_rng(14)
        for _ in range(60):
            s = rand_state(rng, wild=True)
            e_x = rng.uniform(0.181, 0.193)
            want = plate_forces_oracle(s.as_tuple(), e_x, params)["deriv"]
            got = derivative(s, e_x, params)
            for g, w in zip(got, want):
                assert g == pytest.approx(w, rel=1e-11, abs=1e-13)

    def test_x3dot_feeds_x2dot(self, params, monkeypatch):
        # inflating the inertia kills dx3 and must change dx2 accordingly
        s = State(0.9, -0.25, 3.0, -0.5, 0, 0)
        d1 = derivative(s, 0.187, params)
        monkeypatch.setattr(PlateParams, "inertia", lambda p, e_x: 1e12)
        d2 = derivative(s, 0.187, params)
        assert d2.dx3 == pytest.approx(0.0, abs=1e-9)
        ma = params.added_mass
        coupling = ma * d1.dx3 * 0.187 * params.ell / (params.mass + ma)
        assert d1.dx2 - d2.dx2 == pytest.approx(coupling, rel=1e-9)


class TestRk4:
    def test_linear_system_fourth_order(self, params, monkeypatch):
        def lin(x, e_x, p):
            return tuple(-v for v in x)

        monkeypatch.setattr(aeromodel, "_deriv_raw", lin)
        s = rk4_step(State(1, 1, 1, 1, 1, 1), 0.187, params, 0.1)
        taylor = 1 - 0.1 + 0.1 ** 2 / 2 - 0.1 ** 3 / 6 + 0.1 ** 4 / 24
        assert s.x1 == pytest.approx(taylor, abs=1e-8)
        # one-step distance to the true flow is the dt^5/120 Taylor tail
        assert abs(s.x1 - math.exp(-0.1)) < 1e-7

    def test_zero_dt_identity(self, params):
        s0 = State(0.9, -0.2, 1.0, -0.4, 0.3, 2.0)
        assert rk4_step(s0, 0.187, params, 0.0) == s0

    def test_one_step_error_halving_ratio(self, params):
        # reference at dt=1e-6 over one coarse step of 2e-3
        s0 = State(0.9, -0.2, 1.0, -0.4, 0.3, 2.0)

        def run(dt, n):
            s = s0
            for k in range(n):
                s = rk4_step(s, 0.187, params, dt)
            return np.array(s.as_tuple())

        ref = run(1e-6, 2000)
        e1 = np.linalg.norm(run(2e-3, 1) - ref)
        e2 = np.linalg.norm(run(1e-3, 2) - ref)
        assert 10.0 <= e1 / e2 <= 22.0

    @pytest.mark.parametrize("p", [PlateParams(), PlateParams(mass=0.02)],
                             ids=["paper", "heavy"])
    @settings(max_examples=300, deadline=None)
    @given(st.tuples(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0), st.floats(-30.0, 30.0),
                     st.floats(-4.0, 4.0), st.floats(-50.0, 50.0), st.floats(-50.0, 50.0)),
           st.floats(EX_MIN, EX_MAX), st.floats(1e-4, 0.05))
    def test_bit_identical_to_loop_form(self, p, x, u, dt):
        s = rk4_step(State(*x), u, p, dt)
        ref = rk4_step_loops(State(*x), u, p, dt)
        assert [v.hex() for v in s.as_tuple()] == [v.hex() for v in ref]

    def test_divergence_error_carries_time(self, params, monkeypatch):
        def blow(x, e_x, p):
            return (1e308, 1e308, 0, 0, 0, 0)

        monkeypatch.setattr(aeromodel, "_deriv_raw", blow)
        with pytest.raises(IntegrationDivergedError) as exc:
            rk4_step(State(1, 0, 0, 0, 0, 0), 0.187, params, 0.5, t=3.25)
        assert exc.value.t == pytest.approx(3.75)


class TestSimulateOpenLoop:
    def test_single_step_equivalence(self, params):
        s0 = State(1, 0, 0, 0, 0, 0)
        tr = simulate_open_loop(s0, 0.187, params, t_end=0.01, dt=0.01)
        assert len(tr) == 2
        assert tr.states[1] == rk4_step(s0, 0.187, params, 0.01)

    def test_extreme_offsets_change_slope(self, params):
        s0 = State(1, 0, 0, 0, 0, 0)
        slopes = []
        for e_x in (0.181, 0.193):
            tr = simulate_open_loop(s0, e_x, params, 20.0, 0.01)
            slopes.append(mean_glide_slope(tr, 10.0))
        rel_diff = abs(slopes[0] - slopes[1]) / max(abs(slopes[0]), abs(slopes[1]))
        assert rel_diff >= 0.10

    def test_fine_step_convergence_in_resolved_regime(self, params):
        # dt=1e-3 against dt=1e-4: the stall transitions are stiff
        # (|lambda| ~ 3e3 1/s), so the standard 0.01 s model step is not in
        # the convergent regime for this parameter set; see README.
        s0 = State(1, 0, 0, 0, 0, 0)
        a = simulate_open_loop(s0, 0.19, params, 20.0, 1e-3)
        b = simulate_open_loop(s0, 0.19, params, 20.0, 1e-4)
        Xa = np.array([s.as_tuple() for s in a.states])
        Xb = np.array([s.as_tuple() for s in b.states])[::10]
        rel = np.abs(Xa - Xb) / np.maximum(np.abs(Xb), 1.0)
        assert rel.max() < 5e-3

    def test_trim_run_terminal_rate_frozen(self, params):
        # frozen from the fine-step oracle (dt=1e-4): terminal x3 = 2.3161178;
        # the dt=0.01 figure is deterministic and recorded here.
        tr = simulate_open_loop(State(1, 0, 0, 0, 0, 0), 0.19, params, 20.0, 0.01)
        assert tr.states[-1].x3 == pytest.approx(2.3225599955957974, abs=1e-9)
        assert abs(tr.states[-1].x3 - 2.316117803681273) < 0.05

    def test_determinism_bit_identical(self, params):
        s0 = State(1, 0, 0, 0, 0, 2.0)
        t1 = simulate_open_loop(s0, 0.187, params, 2.0, 0.01)
        t2 = simulate_open_loop(s0, 0.187, params, 2.0, 0.01)
        assert all(a == b for a, b in zip(t1.states, t2.states))

    def test_strict_mode_raises_on_region_exit(self, params):
        with pytest.raises(AlphaRegionError):
            simulate_open_loop(State(1, 0, 0, 0, 0, 0), 0.187, params, 5.0,
                               0.01, strict=True)

    def test_csv_round_trip(self, tmp_path, params):
        tr = simulate_open_loop(State(1, 0, 0, 0, 0, 1.0), 0.185, params, 0.2, 0.01)
        path = tmp_path / "trace.csv"
        tr.to_csv(path)
        header = path.read_text().splitlines()[0]
        assert header == "t,x1,x2,x3,x4,x5,x6,e_x"
        back = np.loadtxt(path, delimiter=",", skiprows=1)
        assert back[:, 0].tolist() == tr.times
        assert [State(*row) for row in back[:, 1:7]] == tr.states
        assert back[:, 7].tolist() == tr.e_x


class TestRk4GlobalOrder:
    def test_fourth_order_scaling_over_one_second(self, params):
        # global error against a dt=1e-5 reference over 1 s; halving the step
        # inside the resolved regime shrinks it by ~2^4 (wider dt pairs sit in
        # the stiff stall transition and drop out of the asymptotic regime)
        s0 = State(1, 0, 0, 0, 0, 2.0)
        ref = simulate_open_loop(s0, 0.187, params, 1.0, 1e-5).states[-1]
        ref = np.array(ref.as_tuple())
        errs = []
        for dt in (2e-3, 1e-3):
            end = simulate_open_loop(s0, 0.187, params, 1.0, dt).states[-1]
            errs.append(np.linalg.norm(np.array(end.as_tuple()) - ref))
        ratio = errs[0] / errs[1]
        assert 10.0 <= ratio <= 22.0


class TestBreakdownMatchesDerivative:
    """The derivative core builds dx1..dx3 from _aero_terms' forces and torques."""

    def _check(self, s, e_x, p):
        b = breakdown(s, e_x, p)
        d = derivative(s, e_x, p)
        m, ma, mp_g = p.mass, p.added_mass, p.m_eff * p.g
        l_cm = e_x * p.ell
        dx3 = (b.tau_t + b.tau_r) / p.inertia(e_x)
        dx2 = (-m * s.x3 * s.x1 + ma * dx3 * l_cm + b.lift_t[1] + b.lift_r[1]
               + b.drag[1] - mp_g * math.cos(s.x4)) / (m + ma)
        dx1 = ((m + ma) * s.x3 * s.x2 - ma * s.x3 * s.x3 * l_cm + b.lift_t[0]
               + b.lift_r[0] + b.drag[0] - mp_g * math.sin(s.x4)) / m
        assert dx3 == pytest.approx(d.dx3, rel=1e-12, abs=1e-300)
        assert dx2 == pytest.approx(d.dx2, rel=1e-12, abs=1e-300)
        assert dx1 == pytest.approx(d.dx1, rel=1e-12, abs=1e-300)

    def test_random_states(self, params):
        rng = np.random.default_rng(21)
        for _ in range(200):
            self._check(rand_state(rng, wild=True), rng.uniform(0.181, 0.193), params)

    @pytest.mark.parametrize("x1", [0.0, -0.0])
    def test_zero_flow(self, params, x1):
        for x4 in (0.0, -0.4, 0.9):
            s = State(x1, 0.0, 0.0, x4, 0.3, 2.0)
            self._check(s, 0.187, params)
            d = derivative(s, 0.187, params)
            assert d.dx3 == 0.0
            assert d.dx1 == pytest.approx(-params.m_eff * params.g * math.sin(x4) / params.mass,
                                          rel=1e-15, abs=1e-300)
