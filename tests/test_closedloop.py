import json
import math

import numpy as np
import pytest

from seedwing.aeromodel import EX_MAX, EX_MIN, State
from seedwing.closedloop import (DEFAULT_GAINS, DataRow,
                                 DegenerateRangeError, NetworkController,
                                 NormSpec, PidController, PidGains, PidState,
                                 SimConfig, dataset_from_csv, dataset_to_csv,
                                 fit_norm, generate_dataset, normalize,
                                 normalize_out, pid_step, rows_to_arrays,
                                 simulate_closed_loop, simulate_open_loop,
                                 target_error)
from seedwing.mlp import embed_normalization, forward


class TestTargetError:
    def test_on_line(self):
        assert target_error(State(0, 0, 0, 0, 0, 0)) == 0.0
        assert target_error(State(0, 0, 0, 0, 3, -3)) == 0.0

    def test_above_line(self):
        assert target_error(State(0, 0, 0, 0, 1, 1)) == 2.0

    def test_custom_line(self):
        # x6 + x5 off the axes: above and below the line x6 = -x5
        assert target_error(State(0, 0, 0, 0, 2.0, 1.0)) == 3.0
        assert target_error(State(0, 0, 0, 0, 2.0, -5.0)) == -3.0


class TestPid:
    def test_zero_error_bias(self):
        u = pid_step(0.0, PidState(), PidGains(kp=0.01), 0.5)
        assert u == 0.187

    def test_always_clamped(self):
        rng = np.random.default_rng(0)
        st = PidState()
        g = PidGains(kp=0.5, ki=0.1, kd=0.2)
        for _ in range(200):
            u = pid_step(rng.uniform(-10, 10), st, g, 0.5)
            assert 0.181 <= u <= 0.193

    def test_recursion_matches_hand_computation(self):
        # small gains so the clamp never engages; rectangle integral and
        # backward-difference derivative are recursed by hand
        g = PidGains(kp=1e-4, ki=5e-5, kd=2e-5)
        st = PidState()
        errs = [1.0, 2.0, -0.5, 0.0, 3.0]
        integ = 0.0
        prev = None
        for e in errs:
            integ += e * 0.5
            d = 0.0 if prev is None else (e - prev) / 0.5
            expect = 0.187 + g.kp * e + g.ki * integ + g.kd * d
            got = pid_step(e, st, g, 0.5)
            assert got == pytest.approx(expect, abs=1e-15)
            prev = e

    def test_anti_windup_freezes_integral(self):
        g = PidGains(kp=0.0, ki=1.0, kd=0.0)
        st = PidState()
        pid_step(10.0, st, g, 0.5)          # saturates immediately
        assert st.integral == 0.0           # frozen
        pid_step(1e-4, st, g, 0.5)          # inside the clamp
        assert st.integral == pytest.approx(5e-5)


class TestSimConfig:
    def test_defaults(self):
        cfg = SimConfig()
        assert cfg.steps_per_control == 50
        assert len(cfg.x6_starts) == 9
        assert cfg.x6_starts[0] == pytest.approx(1.43)
        assert cfg.x6_starts[-1] == pytest.approx(4.29)

    def test_validation(self):
        with pytest.raises(ValueError):
            SimConfig(dt_control=0.503)
        with pytest.raises(ValueError):
            SimConfig(t_end=20.3)
        with pytest.raises(ValueError):
            SimConfig(record_skip=40)

    def test_errors_name_the_values(self):
        with pytest.raises(ValueError, match=r"dt_control 0\.503 is not a multiple "
                                             r"of dt_model 0\.01"):
            SimConfig(dt_control=0.503)
        with pytest.raises(ValueError, match=r"t_end 20\.3 is not a multiple "
                                             r"of dt_control 0\.5"):
            SimConfig(t_end=20.3)
        with pytest.raises(ValueError, match=r"record_skip 40 is outside \[0, 40\)"):
            SimConfig(record_skip=40)

    def test_one_start_runs_one_simulation(self):
        assert SimConfig(x6_starts=(1.0,)).x6_starts == (1.0,)

    @pytest.mark.parametrize("field", ["t_end", "dt_model", "dt_control"])
    @pytest.mark.parametrize("value", [0.0, -1.0])
    def test_nonpositive_times_name_the_field(self, field, value):
        with pytest.raises(ValueError, match=f"SimConfig.{field} must be > 0"):
            SimConfig(**{field: value})

    @pytest.mark.parametrize("field", ["t_end", "dt_model", "dt_control"])
    @pytest.mark.parametrize("value", [math.inf, math.nan])
    def test_non_finite_times_name_the_field_and_value(self, field, value):
        with pytest.raises(ValueError,
                           match=rf"SimConfig\.{field} must be > 0 and finite, got {value}"):
            SimConfig(**{field: value})

    def test_infinite_control_period_and_horizon_rejected(self):
        # both infinite once reached the multiple check, which overflowed
        with pytest.raises(ValueError, match="SimConfig.t_end must be > 0 and finite"):
            SimConfig(dt_control=math.inf, t_end=math.inf)


class TestClosedLoop:
    def test_constant_network_equals_open_loop(self, params):
        s0 = State(1, 0, 0, 0, 0, 2.0)
        cfg = SimConfig(t_end=2.0, x6_starts=(2.0,), record_skip=0)
        # zero gains command exactly the trim U_CENTER = 0.187 at every query
        ctrl = PidController(PidGains(kp=0.0), cfg.dt_control)
        closed = simulate_closed_loop(s0, ctrl, cfg, params)
        opened = simulate_open_loop(s0, 0.187, params, 2.0, 0.01)
        assert all(a == b for a, b in zip(closed.states, opened.states))

    def test_error_decreases_from_every_start(self, params):
        # the teacher always reduces the signed error; the spec's stronger
        # |err(20)| <= |err(0)| band claim is covered (and red) in acceptance
        cfg = SimConfig()
        for x6_0 in cfg.x6_starts:
            tr = simulate_closed_loop(State(1, 0, 0, 0, 0, x6_0),
                                      PidController(DEFAULT_GAINS, 0.5), cfg, params)
            assert target_error(tr.states[-1]) < target_error(tr.states[0])

    def test_divergence_tagged_with_control_index(self, params):
        class Bad:
            def __call__(self, s):
                return float("nan")

        cfg = SimConfig(t_end=1.0, x6_starts=(2.0,), record_skip=0)
        with pytest.raises(Exception) as exc:
            simulate_closed_loop(State(1, 0, 0, 0, 0, 2.0), Bad(), cfg, params)
        assert "control step 0" in str(exc.value)


class TestDataset:
    def test_row_counting_minimal(self, params):
        cfg = SimConfig(t_end=1.0, x6_starts=(2.0,), record_skip=0)
        rows = generate_dataset(cfg, DEFAULT_GAINS, params)
        assert len(rows) == 2

    def test_default_yields_216_rows(self, dataset):
        assert len(dataset) == 216

    def test_row_count_formula(self, params):
        cfg = SimConfig(x6_starts=(1.5, 3.0), record_skip=10)
        rows = generate_dataset(cfg, DEFAULT_GAINS, params)
        assert len(rows) == 2 * (40 - 10)

    def test_actuations_clamped_and_states_finite(self, dataset):
        for r in dataset:
            assert 0.181 <= r.actuation <= 0.193
            assert all(map(math.isfinite, r.state.as_tuple()))

    def test_determinism_bit_identical(self, params, dataset):
        again = generate_dataset(SimConfig(), DEFAULT_GAINS, params)
        assert len(again) == len(dataset)
        for a, b in zip(again, dataset):
            assert a.state == b.state and a.err == b.err and a.actuation == b.actuation

    def test_datarow_clamp_invariant(self):
        with pytest.raises(ValueError):
            DataRow(State(0, 0, 0, 0, 0, 0), 0.0, 0.5)

    def test_csv_round_trip(self, tmp_path, dataset):
        path = tmp_path / "rows.csv"
        dataset_to_csv(dataset, path)
        assert path.read_text().splitlines()[0] == "x1,x2,x3,x4,x5,x6,err,e_x_cmd"
        back = dataset_from_csv(path)
        assert len(back) == len(dataset)
        for a, b in zip(back, dataset):
            assert a.state == b.state and a.actuation == b.actuation


class TestNormalization:
    def test_endpoints_map_to_unit_box(self, norm_spec):
        lo = normalize(np.array(norm_spec.in_min), norm_spec)
        hi = normalize(np.array(norm_spec.in_max), norm_spec)
        assert np.allclose(lo, 0.0) and np.allclose(hi, 1.0)
        assert normalize_out(norm_spec.out_min, norm_spec) == 0.0
        assert normalize_out(norm_spec.out_max, norm_spec) == 1.0

    def test_round_trip_identity(self, norm_spec):
        rng = np.random.default_rng(5)
        for _ in range(50):
            v = rng.uniform(norm_spec.in_min, norm_spec.in_max)
            lo, hi = np.array(norm_spec.in_min), np.array(norm_spec.in_max)
            back = normalize(v, norm_spec) * (hi - lo) + lo
            assert np.max(np.abs(back - v) / np.maximum(np.abs(v), 1e-9)) < 1e-12
            y = rng.uniform(norm_spec.out_min, norm_spec.out_max)
            out_range = norm_spec.out_max - norm_spec.out_min
            assert normalize_out(y, norm_spec) * out_range + norm_spec.out_min == \
                pytest.approx(y, rel=1e-12)

    def test_dataset_maps_into_unit_box(self, dataset, norm_spec):
        X, Y = rows_to_arrays(dataset, norm_spec)
        assert X.min() >= -1e-12 and X.max() <= 1.0 + 1e-12
        assert Y.min() >= -1e-12 and Y.max() <= 1.0 + 1e-12

    def test_degenerate_range_rejected(self, params):
        s = State(1, 0, 0, 0, 0, 2.0)
        rows = [DataRow(s, 0.0, 0.185), DataRow(s, 0.0, 0.19)]
        with pytest.raises(DegenerateRangeError):
            fit_norm(rows)

    def test_minimum_rows(self):
        with pytest.raises(ValueError):
            fit_norm([DataRow(State(1, 0, 0, 0, 0, 0), 0.0, 0.187)])

    def test_json_schema_exact_keys(self, norm_spec):
        doc = json.loads(norm_spec.to_json())
        assert set(doc) == {"in_min", "in_max", "out_min", "out_max"}
        back = NormSpec(tuple(doc["in_min"]), tuple(doc["in_max"]),
                        doc["out_min"], doc["out_max"])
        assert back == norm_spec


class TestNetworkController:
    def test_clone_tracks_teacher_sign(self, params, naive_net):
        # cloned controller follows the teacher's error sign at >= 80% of
        # control steps (it is near-identical here)
        cfg = SimConfig()
        for x6_0 in (1.43, 2.86, 4.29):
            s0 = State(1, 0, 0, 0, 0, x6_0)
            tp = simulate_closed_loop(s0, PidController(DEFAULT_GAINS, 0.5),
                                      cfg, params)
            tn = simulate_closed_loop(s0, NetworkController(naive_net), cfg, params)
            steps = range(0, len(tp.states), cfg.steps_per_control)
            agree = np.mean([np.sign(target_error(tp.states[k]))
                             == np.sign(target_error(tn.states[k]))
                             for k in steps])
            assert agree >= 0.80

    def test_flies_the_embedded_network(self, params, naive_net):
        # every actuation is the clamped output of the network the verifier
        # and reach check, bit for bit
        emb = embed_normalization(naive_net)
        queried = []
        simulate_closed_loop(State(1, 0, 0, 0, 0, 2.86), NetworkController(naive_net),
                             SimConfig(), params,
                             record=lambda k, s, err, u: queried.append((s, u)))
        assert len(queried) == 40
        for s, u in queried:
            assert u == min(max(forward(emb, s.as_tuple()), EX_MIN), EX_MAX)

    def test_network_controller_clamps(self, naive_net):
        ctrl = NetworkController(naive_net)
        rng = np.random.default_rng(17)
        for _ in range(50):
            s = State(*rng.uniform(-10, 10, size=6))
            u = ctrl(s)
            assert 0.181 <= u <= 0.193
