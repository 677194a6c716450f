import json
import math
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oracles import double_network, forward_preacts, train_per_layer
from seedwing import mlp
from seedwing.closedloop import NormSpec, denormalize_out, normalize
from seedwing.mlp import (Layer, Network, NetworkFormatError,
                          TrainingCollapsedError, TrainingDivergedError,
                          embed_normalization, forward, forward_batch,
                          gradient, init_network, input_gradient, load, save,
                          train)


def scalar_forward_oracle(net, x):
    """Independent per-neuron loop evaluation."""
    a = list(map(float, x))
    for layer in net.layers:
        out = []
        for j in range(layer.w.shape[0]):
            z = layer.b[j]
            for i in range(layer.w.shape[1]):
                z += layer.w[j, i] * a[i]
            out.append(max(z, 0.0) if layer.act == "relu" else z)
        a = out
    return a[0] if len(a) == 1 else np.array(a)


def fd_gradient(net, X, Y, h=1e-6):
    """Central differences of the batch MSE, as one flat vector in the
    layout of mlp.gradient."""
    g = np.zeros(net._param_layout[-1][1])
    views = mlp._views(g, net._param_layout)

    def loss_at(layers):
        return mlp.mse(Network(layers, norm=net.norm), X, Y)

    for li, layer in enumerate(net.layers):
        for idx in np.ndindex(layer.w.shape):
            for sign in (1, -1):
                w = layer.w.copy()
                w[idx] += sign * h
                layers = list(net.layers)
                layers[li] = Layer(w, layer.b, layer.act)
                views[2 * li][idx] += sign * loss_at(tuple(layers)) / (2 * h)
        for j in range(layer.b.shape[0]):
            for sign in (1, -1):
                b = layer.b.copy()
                b[j] += sign * h
                layers = list(net.layers)
                layers[li] = Layer(layer.w, b, layer.act)
                views[2 * li + 1][j] += sign * loss_at(tuple(layers)) / (2 * h)
    return g


class TestForward:
    def test_constant_network(self):
        net = Network((Layer(np.zeros((3, 2)), np.zeros(3), "relu"),
                       Layer(np.zeros((1, 3)), np.array([0.7]), "id")))
        for x in ([0, 0], [5, -3], [1e3, 1e3]):
            assert forward(net, x) == 0.7

    def test_single_relu(self):
        net = Network((Layer(np.array([[1.0]]), np.array([0.0]), "relu"),
                       Layer(np.array([[1.0]]), np.array([0.0]), "id")))
        assert forward(net, [-1.0]) == 0.0
        assert forward(net, [2.0]) == 2.0

    def test_matches_scalar_loop_oracle(self):
        rng = np.random.default_rng(0)
        net = init_network(seed=3)
        for _ in range(100):
            x = rng.uniform(-1, 2, size=6)
            assert forward(net, x) == pytest.approx(scalar_forward_oracle(net, x),
                                                    abs=1e-12)

    def test_batch_matches_single(self):
        net = init_network(seed=4)
        rng = np.random.default_rng(1)
        X = rng.uniform(0, 1, size=(20, 6))
        Y = forward_batch(net, X)
        for i in range(20):
            assert Y[i] == pytest.approx(forward(net, X[i]), abs=1e-14)

    def test_preacts_consistent_with_forward(self):
        net = init_network(seed=5)
        rng = np.random.default_rng(2)
        for _ in range(20):
            x = rng.uniform(-1, 1, size=6)
            pres = forward_preacts(net, x)
            assert len(pres) == len(net.layers)
            out = pres[-1]
            a = x
            for layer, z in zip(net.layers, pres):
                assert np.allclose(z, layer.w @ a + layer.b, atol=1e-12)
                a = np.maximum(z, 0) if layer.act == "relu" else z
            assert forward(net, x) == pytest.approx(float(out[0]), abs=1e-12)

    def test_widths_and_relu_count(self):
        net = init_network()
        assert net.widths == (6, 6, 4, 1, 1)
        assert net.n_relu == 11

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2 ** 16),
           x=st.lists(st.floats(-2.0, 3.0), min_size=6, max_size=6),
           use_norm=st.booleans())
    def test_single_row_is_one_row_batch(self, seed, x, use_norm):
        spec = NormSpec((-1.0,) * 6, (2.0,) * 6, 0.1, 0.3)
        net = init_network(seed=seed, norm=spec)
        x = np.array(x)
        one = forward(net, x, use_norm=use_norm)
        assert isinstance(one, float)
        assert one == forward_batch(net, x[None], use_norm=use_norm)[0]


    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2 ** 16), m=st.integers(1, 40))
    def test_one_row_slices_match_single_rows(self, seed, m):
        # a 2-D batch may differ from forward in the last bit; (m, 1, d) may not
        net = init_network(seed=seed)
        X = np.random.default_rng(seed).uniform(-1.0, 2.0, size=(m, 6))
        got = forward_batch(net, X[:, None, :])[:, 0]
        assert got.tobytes() == np.array([forward(net, x) for x in X]).tobytes()


def stacked_problem(draw):
    """A random net, a stack X of R (n, d) slices, n targets and an output
    gradient per slice, from one hypothesis draw."""
    widths = (draw(st.integers(1, 12)),) + tuple(
        draw(st.lists(st.integers(1, 12), min_size=1, max_size=3))) + (1,)
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 16)))
    R, n = draw(st.integers(1, 4)), draw(st.integers(1, 64))
    X = rng.uniform(-1.0, 2.0, size=(R, n, widths[0]))
    net = init_network(widths, seed=draw(st.integers(0, 2 ** 16)))
    return net, X, rng.uniform(size=n), rng.normal(size=(R, n, 1))


class TestStackedTrace:
    """Every trace on an (R, n, d) stack against R separate 2-D calls, bit
    for bit: lock-step PGD and the stacked training traces rest on it."""

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_stack_matches_per_slice_calls(self, data):
        net, X, Y, dL_dy = stacked_problem(data.draw)
        acts, pres = mlp._forward_trace(net, X)
        g, f = input_gradient(net, X, Y)
        back = mlp._backprop_from_output(net, acts, pres, dL_dy)
        grad = gradient(net, X, Y)
        assert back.shape == grad.shape == (X.shape[0], net._param_layout[-1][1])
        for r, X_r in enumerate(X):
            acts_r, pres_r = mlp._forward_trace(net, X_r)
            for a, a_r in zip(acts + pres, acts_r + pres_r):
                assert a[r].tobytes() == a_r.tobytes()
            g_r, f_r = input_gradient(net, X_r, Y)
            assert g[r].tobytes() == g_r.tobytes() and f[r].tobytes() == f_r.tobytes()
            back_r = mlp._backprop_from_output(net, acts_r, pres_r, dL_dy[r])
            assert back[r].tobytes() == back_r.tobytes()
            assert grad[r].tobytes() == gradient(net, X_r, Y).tobytes()


class TestGradient:
    def test_zero_at_perfect_fit(self):
        net = init_network(seed=6)
        rng = np.random.default_rng(3)
        X = rng.uniform(0, 1, size=(10, 6))
        Y = forward_batch(net, X)
        assert np.abs(gradient(net, X, Y)).max() == pytest.approx(0.0, abs=1e-14)

    def test_matches_finite_differences(self):
        net = init_network(seed=7)
        rng = np.random.default_rng(4)
        X = rng.uniform(0.05, 0.95, size=(12, 6))
        Y = rng.uniform(0, 1, size=12)
        g = gradient(net, X, Y)
        ref = fd_gradient(net, X, Y)
        assert g.shape == ref.shape
        assert np.max(np.abs(g - ref) / np.maximum(np.abs(ref), 1e-4)) < 1e-4

    def test_target_scaling_scales_last_bias_gradient(self):
        net = init_network(seed=8)
        rng = np.random.default_rng(5)
        X = rng.uniform(0, 1, size=(8, 6))
        g1 = gradient(net, X, np.zeros(8))
        g2 = gradient(net, X, np.zeros(8))
        pred = forward_batch(net, X)
        # residual linear in y: doubling targets y=f(x)-r vs y=f(x)-2r
        Ya = pred - 1.0
        Yb = pred - 2.0
        def last_bias(g):
            return mlp._views(g, net._param_layout)[-1][0]
        ga = gradient(net, X, Ya)
        gb = gradient(net, X, Yb)
        assert last_bias(gb) == pytest.approx(2.0 * last_bias(ga), rel=1e-12)
        assert last_bias(g1) == last_bias(g2)

    def test_input_gradient_matches_fd(self):
        net = init_network(seed=9)
        rng = np.random.default_rng(6)
        X = rng.uniform(0.1, 0.9, size=(5, 6))
        Y = rng.uniform(0, 1, size=5)
        g = input_gradient(net, X, Y)[0]
        h = 1e-6
        for k in range(5):
            for d in range(6):
                xp, xm = X[k].copy(), X[k].copy()
                xp[d] += h
                xm[d] -= h
                fd = ((forward(net, xp) - Y[k]) ** 2
                      - (forward(net, xm) - Y[k]) ** 2) / (2 * h)
                assert g[k, d] == pytest.approx(fd, rel=1e-4, abs=1e-8)


class TestTrain:
    def test_memorizes_single_point(self):
        net = init_network(seed=0)
        X = np.array([[0.2, 0.4, 0.6, 0.8, 0.5, 0.3]])
        Y = np.array([0.7])
        out = train(net, X, Y, epochs=400, lr=0.05, seed=0, batch_size=1)
        assert out.meta["train_rmse"] <= 1e-3

    def test_deterministic_given_seed(self, data_arrays):
        X, Y = data_arrays
        a = train(init_network(seed=1), X[:64], Y[:64], epochs=30, lr=0.02, seed=9)
        b = train(init_network(seed=1), X[:64], Y[:64], epochs=30, lr=0.02, seed=9)
        for la, lb in zip(a.layers, b.layers):
            assert np.array_equal(la.w, lb.w) and np.array_equal(la.b, lb.b)

    def test_divergence_reports_epoch(self):
        net = init_network(seed=2)
        X = np.ones((4, 6))
        Y = np.ones(4)
        with pytest.raises(TrainingDivergedError) as exc:
            train(net, X, Y, epochs=50, lr=1e12, seed=0)
        assert exc.value.epoch >= 0

    def test_overflowing_forward_pass_diverges(self):
        # finite weights whose pre-activations overflow: the first step's
        # gradient is not finite, so the step names epoch 0
        layers = (Layer(np.full((2, 2), 1e200), np.zeros(2), "relu"),
                  Layer(np.full((1, 2), 1e200), np.zeros(1), "id"))
        X = np.ones((4, 2))
        assert not np.isfinite(forward_batch(Network(layers), X)).any()
        with pytest.raises(TrainingDivergedError) as exc:
            train(Network(layers), X, np.ones(4), epochs=3, lr=1e-3, seed=0)
        assert exc.value.epoch == 0

    def test_overflowing_step_names_its_epoch(self):
        X = np.random.default_rng(0).uniform(size=(40, 6))
        with pytest.raises(TrainingDivergedError) as exc:
            train(init_network(seed=0), X, X[:, 0], epochs=3, lr=1e300, seed=0)
        assert exc.value.epoch == 0

    @pytest.mark.parametrize("setting, text", [
        ({"epochs": 0}, "epochs must be >= 1, got 0"),
        ({"epochs": -3}, "epochs must be >= 1, got -3"),
        ({"batch_size": 0}, "batch_size must be >= 1, got 0"),
        ({"batch_size": -4}, "batch_size must be >= 1, got -4"),
        ({"lr": -0.5}, "lr must be finite and > 0, got -0.5"),
        ({"lr": 0.0}, "lr must be finite and > 0, got 0.0"),
        ({"lr": math.inf}, "lr must be finite and > 0, got inf"),
        ({"lr": math.nan}, "lr must be finite and > 0, got nan"),
    ])
    def test_bad_settings_name_the_value(self, setting, text):
        X = np.random.default_rng(0).uniform(size=(8, 6))
        with pytest.raises(ValueError, match=re.escape(text)):
            train(init_network(seed=0), X, X[:, 0], **setting)

    def test_constant_network_rejected(self):
        net = init_network(seed=2)
        first = net.layers[0]
        dead = Layer(first.w, np.full_like(first.b, -1e3), first.act)
        net = Network((dead,) + net.layers[1:])
        X = np.random.default_rng(0).uniform(size=(8, 6))
        with pytest.raises(TrainingCollapsedError):
            train(net, X, np.linspace(0.0, 1.0, 8), epochs=2, lr=0.02, seed=0)

    def test_session_net_quality(self, naive_net):
        assert naive_net.meta["train_rmse"] <= 0.05


def small_problem(draw, inputs=4, width=5, rows=12):
    """A random net and dataset from one hypothesis draw: at most `inputs`
    inputs, hidden layers at most `width` wide, at most `rows` rows."""
    widths = (draw(st.integers(1, inputs)),) + tuple(
        draw(st.lists(st.integers(1, width), min_size=1, max_size=3))) + (1,)
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 16)))
    n = draw(st.integers(1, rows))
    X = rng.uniform(0.0, 1.0, size=(n, widths[0]))
    return init_network(widths, seed=draw(st.integers(0, 2 ** 16))), X, rng.uniform(size=n)


def outcome(run):
    """The network a run returns, or the type and text of what it raised."""
    try:
        return run()
    except (ValueError, RuntimeError) as exc:
        return type(exc).__name__, str(exc)


def assert_same_net(a, b):
    assert len(a.layers) == len(b.layers)
    for la, lb in zip(a.layers, b.layers):
        assert la.w.tobytes() == lb.w.tobytes() and la.b.tobytes() == lb.b.tobytes()
    assert a.meta == b.meta and a.norm == b.norm


def assert_same_outcome(got, ref):
    """Two outcomes: the same network bit for bit, or the same error."""
    if isinstance(ref, tuple):
        assert got == ref
    else:
        assert_same_net(got, ref)


class TestTrainingKernel:
    """The flat-buffer kernel against the per-layer one, bit for bit."""

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), epochs=st.integers(1, 4), seed=st.integers(0, 2 ** 16),
           batch_size=st.integers(1, 8), lr=st.sampled_from([0.01, 0.05, 0.2]))
    def test_train_matches_per_layer_oracle(self, data, epochs, seed, batch_size, lr):
        net, X, Y = small_problem(data.draw)
        ref = outcome(lambda: train_per_layer(net, X, Y, epochs, lr, seed, batch_size))
        # the per-layer kernel meets a non-finite step as a layer format error
        assume(not (isinstance(ref, tuple) and ref[0] == "NetworkFormatError"))
        assert_same_outcome(outcome(lambda: train(net, X, Y, epochs=epochs, lr=lr, seed=seed,
                                                  batch_size=batch_size)), ref)

    def test_partial_last_batch_matches_per_layer_oracle(self, data_arrays):
        X, Y = data_arrays
        assert X[:45].shape[0] % 16
        net = init_network(seed=3)
        assert_same_net(train(net, X[:45], Y[:45], epochs=20, seed=5, batch_size=16),
                        train_per_layer(net, X[:45], Y[:45], 20, mlp.LR, 5, 16))


class TestPiecewiseLinearity:
    def test_interpolation_on_fixed_pattern(self):
        net = init_network(seed=10)
        rng = np.random.default_rng(7)
        found = 0
        while found < 20:
            x0 = rng.uniform(0, 1, size=6)
            x1 = x0 + rng.uniform(-0.02, 0.02, size=6)
            pat0 = [tuple(z > 0) for z in forward_preacts(net, x0)[:-1]]
            pat1 = [tuple(z > 0) for z in forward_preacts(net, x1)[:-1]]
            if pat0 != pat1:
                continue
            found += 1
            lam = rng.uniform(0, 1)
            xm = lam * x0 + (1 - lam) * x1
            patm = [tuple(z > 0) for z in forward_preacts(net, xm)[:-1]]
            if patm != pat0:
                continue
            fm = forward(net, xm)
            assert abs(fm - (lam * forward(net, x0) + (1 - lam) * forward(net, x1))) <= 1e-10


class TestEmbedNormalization:
    def test_identity_spec_fuses_trivially(self):
        spec = NormSpec((0.0,) * 6, (1.0,) * 6, 0.0, 1.0)
        net = init_network(seed=11, norm=spec)
        emb = embed_normalization(net)
        for a, b in zip(net.layers, emb.layers):
            assert np.allclose(a.w, b.w, atol=1e-15) and np.allclose(a.b, b.b, atol=1e-15)

    def test_equivalence_sweep(self, naive_net, norm_spec):
        emb = embed_normalization(naive_net)
        rng = np.random.default_rng(8)
        for _ in range(100):
            x = rng.uniform(norm_spec.in_min, norm_spec.in_max)
            want = forward(naive_net, x, use_norm=True)
            got = forward(emb, x)
            assert abs(got - want) <= 1e-9

    def test_embedded_box_is_raw_data_box(self, naive_net, norm_spec):
        emb = embed_normalization(naive_net)
        lo = np.array(norm_spec.in_min)
        hi = np.array(norm_spec.in_max)
        # normalized corners map onto raw corners exactly under the fusion
        assert forward(emb, lo) == pytest.approx(
            denormalize_out(forward(naive_net, np.zeros(6)), norm_spec), abs=1e-9)
        assert forward(emb, hi) == pytest.approx(
            denormalize_out(forward(naive_net, np.ones(6)), norm_spec), abs=1e-9)

    def test_missing_norm_rejected(self):
        with pytest.raises(ValueError):
            embed_normalization(init_network(seed=12))


class TestDoubleNetwork:
    def test_identical_halves(self, naive_net):
        d = double_network(naive_net)
        rng = np.random.default_rng(9)
        for _ in range(20):
            x = rng.uniform(0, 1, size=6)
            out = forward(d, np.concatenate([x, x]))
            assert out[0] == pytest.approx(out[1], abs=1e-12)
            assert out[0] == pytest.approx(forward(naive_net, x), abs=1e-12)

    def test_independent_halves(self, naive_net):
        d = double_network(naive_net)
        rng = np.random.default_rng(10)
        for _ in range(20):
            x = rng.uniform(0, 1, size=6)
            x2 = rng.uniform(0, 1, size=6)
            out = forward(d, np.concatenate([x, x2]))
            assert out[0] == pytest.approx(forward(naive_net, x), abs=1e-12)
            assert out[1] == pytest.approx(forward(naive_net, x2), abs=1e-12)

    def test_structure(self, naive_net):
        d = double_network(naive_net)
        assert len(d.layers) == len(naive_net.layers)
        assert d.widths == tuple(2 * w for w in naive_net.widths)


class TestSaveLoad:
    def test_round_trip_bit_exact(self, tmp_path, naive_net):
        path = tmp_path / "net.json"
        save(naive_net, path)
        back = load(path)
        rng = np.random.default_rng(11)
        for _ in range(50):
            x = rng.uniform(-0.5, 1.5, size=6)
            assert forward(back, x) == forward(naive_net, x)
        assert back.norm == naive_net.norm

    def test_truncated_file_names_missing_field(self, tmp_path, naive_net):
        path = tmp_path / "net.json"
        save(naive_net, path)
        doc = json.loads(path.read_text())
        del doc["layers"][1]["b"]
        path.write_text(json.dumps(doc))
        with pytest.raises(NetworkFormatError) as exc:
            load(path)
        assert "layers[1].b" in str(exc.value)

    def test_missing_top_level_field(self, tmp_path):
        path = tmp_path / "net.json"
        path.write_text(json.dumps({"widths": [1, 1]}))
        with pytest.raises(NetworkFormatError) as exc:
            load(path)
        assert "layers" in str(exc.value)

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "net.json"
        path.write_text("{not json")
        with pytest.raises(NetworkFormatError):
            load(path)

    def test_hand_written_single_layer(self, tmp_path):
        doc = {"widths": [2, 1],
               "layers": [{"w": [[2.0, -1.0]], "b": [0.25], "act": "id"}],
               "norm": None, "meta": {}}
        path = tmp_path / "tiny.json"
        path.write_text(json.dumps(doc))
        net = load(path)
        assert forward(net, [1.0, 1.0]) == pytest.approx(1.25)
        assert forward(net, [0.0, 2.0]) == pytest.approx(-1.75)

    def test_declared_widths_checked(self, tmp_path):
        doc = {"widths": [3, 1],
               "layers": [{"w": [[2.0, -1.0]], "b": [0.25], "act": "id"}]}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(NetworkFormatError):
            load(path)
