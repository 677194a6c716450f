import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import pgd_two_pass, train_adversarial_two_pass
from test_mlp import assert_same_net, assert_same_outcome, outcome, small_problem
from seedwing import mlp
from seedwing.mlp import Layer, Network, forward, forward_batch, init_network, train
from seedwing.robust import (AttackConfig, RobustTrainConfig,
                             empirical_lipschitz, max_lipschitz_quotient,
                             pgd_attack_batch, train_adversarial)

UNIT6 = (np.zeros(6), np.ones(6))


def attack_problem(draw, **sizes):
    """small_problem plus an attack box: the data's own or the unit box."""
    net, X, Y = small_problem(draw, **sizes)
    box = (X.min(axis=0), X.max(axis=0)) if draw(st.booleans()) else \
        (np.zeros(X.shape[1]), np.ones(X.shape[1]))
    return net, X, Y, box


attacks = st.builds(AttackConfig, epsilon=st.sampled_from([0.01, 0.1, 0.3]),
                    steps=st.integers(1, 4), restarts=st.integers(1, 4),
                    step_size=st.sampled_from([None, 0.05, 0.5]))


def pgd_one(net, x, y, cfg, box, seed=0):
    """PGD on one row: the worst case in the epsilon-ball around x."""
    return pgd_attack_batch(net, x[None, :], np.array([y]), cfg, box,
                            np.random.default_rng(seed))[0]


def affine_net(slope, bias=0.0, n_in=1):
    w = np.zeros((1, n_in))
    w[0, 0] = slope
    return Network((Layer(w, np.array([bias]), "id"),))


class TestPgdAttack:
    def test_clean_point_always_candidate(self):
        # zero target error and a flat network: no iterate can beat delta=0
        net = affine_net(0.0, bias=0.3)
        x = np.array([0.5])
        adv = pgd_one(net, x, 0.3, AttackConfig(epsilon=0.1), ((0.0,), (1.0,)))
        assert forward(net, adv) == 0.3

    def test_affine_worst_case_on_ball_boundary(self):
        net = affine_net(2.0)
        cfg = AttackConfig(epsilon=0.05, steps=10, restarts=2)
        x = np.array([0.5])
        y = forward(net, x)
        adv = pgd_one(net, x, y, cfg, ((0.0,), (1.0,)))
        assert abs(abs(adv[0] - 0.5) - 0.05) < 1e-12
        assert abs(forward(net, adv) - y) == pytest.approx(2 * 0.05, rel=1e-12)

    def test_ball_and_box_respected(self, naive_net, data_arrays):
        X, Y = data_arrays
        cfg = AttackConfig(epsilon=0.03, steps=8, restarts=2)
        rng = np.random.default_rng(0)
        adv = pgd_attack_batch(naive_net, X[:50], Y[:50], cfg, UNIT6, rng)
        assert np.max(np.abs(adv - X[:50])) <= cfg.epsilon + 1e-12
        assert adv.min() >= -1e-12 and adv.max() <= 1 + 1e-12

    def test_attack_monotonicity(self, naive_net, data_arrays):
        X, Y = data_arrays
        cfg = AttackConfig(epsilon=0.02)
        rng = np.random.default_rng(1)
        adv = pgd_attack_batch(naive_net, X[:80], Y[:80], cfg, UNIT6, rng)
        clean = (forward_batch(naive_net, X[:80]) - Y[:80]) ** 2
        attacked = (forward_batch(naive_net, adv) - Y[:80]) ** 2
        assert np.all(attacked >= clean - 1e-15)

    def test_random_start_is_not_a_candidate(self):
        # f(x) = -|x - 0.5| against y = -1: the loss peaks at 0.5, and steps
        # of 0.5 jump from any start onto the ball's ends 0.4 and 0.8, where
        # the loss is at most the clean point's. Only a random start nearer
        # the peak than 0.6 beats it.
        net = Network((Layer(np.array([[1.0], [-1.0]]), np.array([-0.5, 0.5]), "relu"),
                       Layer(np.array([[-1.0, -1.0]]), np.array([0.0]), "id")))
        X = np.full((20, 1), 0.6)
        cfg = AttackConfig(epsilon=0.2, steps=3, step_size=0.5, restarts=3)
        adv = pgd_attack_batch(net, X, np.full(20, -1.0), cfg, ((0.0,), (1.0,)),
                               np.random.default_rng(0))
        assert np.array_equal(adv, X)

    def test_beats_grid_search_oracle(self):
        rng = np.random.default_rng(2)
        for seed in range(5):
            net = init_network((2, 3, 2, 1), seed=seed)
            x = rng.uniform(0.2, 0.8, size=2)
            y = forward(net, x) + rng.uniform(-0.3, 0.3)
            eps = 0.15
            box = ((0.0, 0.0), (1.0, 1.0))
            cfg = AttackConfig(epsilon=eps, steps=30, step_size=eps / 8, restarts=4)
            adv = pgd_one(net, x, y, cfg, box, seed=seed)
            pgd_loss = (forward(net, adv) - y) ** 2
            # dense grid over the ball (10^4 samples)
            g = np.linspace(-eps, eps, 100)
            gx, gy = np.meshgrid(g, g)
            pts = np.clip(x + np.stack([gx.ravel(), gy.ravel()], axis=1), 0.0, 1.0)
            grid_loss = ((forward_batch(net, pts) - y) ** 2).max()
            assert pgd_loss >= 0.95 * grid_loss


class TestOneTracePerIterate:
    """PGD and adversarial training against their two-pass forms, bit for bit."""

    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), cfg=attacks, seed=st.integers(0, 2 ** 16))
    def test_pgd_matches_two_pass_oracle(self, data, cfg, seed):
        # drawn at stacked_problem's sizes (test_mlp), not small_problem's
        net, X, Y, box = attack_problem(data.draw, inputs=12, width=12, rows=64)
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        got = pgd_attack_batch(net, X, Y, cfg, box, rng)
        assert got.tobytes() == pgd_two_pass(net, X, Y, cfg, box, ref_rng).tobytes()
        assert rng.bit_generator.state == ref_rng.bit_generator.state

    @pytest.mark.parametrize("rows", [32, 24])
    def test_pgd_on_clone_shapes_matches_two_pass_oracle(self, naive_net, data_arrays,
                                                          rows):
        # a full and a partial training batch of the 6-6-4-1-1 clone
        X, Y = data_arrays[0][:rows], data_arrays[1][:rows]
        for net in (init_network(seed=0), naive_net):
            rng, ref_rng = np.random.default_rng(rows), np.random.default_rng(rows)
            got = pgd_attack_batch(net, X, Y, AttackConfig(), UNIT6, rng)
            ref = pgd_two_pass(net, X, Y, AttackConfig(), UNIT6, ref_rng)
            assert got.tobytes() == ref.tobytes()
            assert rng.bit_generator.state == ref_rng.bit_generator.state

    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), attack=attacks, seed=st.integers(0, 2 ** 16),
           epochs=st.integers(1, 3), batch_size=st.integers(1, 8),
           lambda_lip=st.sampled_from([0.0, 0.01, 0.5]))
    def test_training_matches_two_pass_oracle(self, data, attack, seed, epochs,
                                              batch_size, lambda_lip):
        net, X, Y, box = attack_problem(data.draw)
        cfg = RobustTrainConfig(attack=attack, lambda_lip=lambda_lip, epochs=epochs,
                                seed=seed, batch_size=batch_size)
        assert_same_outcome(outcome(lambda: train_adversarial(net, X, Y, cfg, box=box)),
                            outcome(lambda: train_adversarial_two_pass(net, X, Y, cfg, box)))

    def test_training_with_penalty_partial_batch_matches_oracle(self, data_arrays):
        X, Y = data_arrays[0][:45], data_arrays[1][:45]
        cfg = RobustTrainConfig(epochs=3, seed=4, batch_size=16, lambda_lip=0.5)
        assert_same_net(train_adversarial(init_network(seed=1), X, Y, cfg, box=UNIT6),
                        train_adversarial_two_pass(init_network(seed=1), X, Y, cfg, UNIT6))

    def test_bad_settings_name_the_value(self):
        X = np.random.default_rng(0).uniform(size=(8, 6))
        with pytest.raises(ValueError, match="batch_size must be >= 1, got 0"):
            train_adversarial(init_network(seed=0), X, X[:, 0],
                              RobustTrainConfig(batch_size=0), box=UNIT6)


class TestLipschitzPenalty:
    def test_constant_network_zero(self):
        net = affine_net(0.0, bias=0.5)
        assert max_lipschitz_quotient(net, np.array([[0.1]]), np.array([[0.4]])) == (0.0, 0)

    def test_affine_exact_constant(self):
        net = affine_net(3.0)
        rng = np.random.default_rng(3)
        for _ in range(10):
            a, b = rng.uniform(0, 1, size=2)
            if a == b:
                continue
            q, _ = max_lipschitz_quotient(net, np.array([[a]]), np.array([[b]]))
            assert q == pytest.approx(3.0, rel=1e-12)

    def test_matches_direct_quotient(self, naive_net, data_arrays):
        X, _ = data_arrays
        rng = np.random.default_rng(4)
        Xa = np.clip(X[:20] + rng.uniform(-0.01, 0.01, size=(20, 6)), 0, 1)
        got, k = max_lipschitz_quotient(naive_net, X[:20], Xa)
        quotients = [abs(forward(naive_net, x) - forward(naive_net, xa))
                     / np.max(np.abs(x - xa)) for x, xa in zip(X[:20], Xa)]
        assert got == pytest.approx(max(quotients), rel=1e-12)
        assert got == pytest.approx(quotients[k], rel=1e-12)
        assert got >= 0.0

    def test_coincident_pair_skipped(self):
        net = affine_net(2.0, n_in=2)
        X = np.array([[0.5, 0.5], [0.2, 0.7]])
        Xa = np.array([[0.5, 0.5], [0.3, 0.7]])
        q, k = max_lipschitz_quotient(net, X, Xa)
        assert k == 1 and q == pytest.approx(2.0, rel=1e-12)
        assert max_lipschitz_quotient(net, X[:1], Xa[:1]) == (0.0, None)


class TestTrainAdversarial:
    def test_degenerate_config_reduces_to_plain_training(self, data_arrays):
        X, Y = data_arrays
        cfg = RobustTrainConfig(
            attack=AttackConfig(epsilon=1e-12, steps=2, restarts=1),
            lambda_lip=0.0, epochs=40, lr=0.02, seed=0)
        a = train(init_network(seed=1), X, Y, epochs=40, lr=0.02, seed=0)
        b = train_adversarial(init_network(seed=1), X, Y, cfg, box=UNIT6)
        worst = max(np.max(np.abs(la.w - lb.w)) for la, lb in zip(a.layers, b.layers))
        assert worst <= 1e-6

    def test_robustness_and_accuracy_tradeoff(self, naive_net, adv_net, data_arrays):
        X, Y = data_arrays
        probe = AttackConfig(epsilon=1e-2)
        lip_naive = empirical_lipschitz(naive_net, X, probe, UNIT6, seed=7)
        lip_adv = empirical_lipschitz(adv_net, X, probe, UNIT6, seed=7)
        assert lip_adv <= lip_naive
        assert mlp.rmse(adv_net, X, Y) >= mlp.rmse(naive_net, X, Y)

    def test_meta_tags(self, adv_net):
        assert adv_net.meta["kind"] == "adversarial"
        assert adv_net.meta["epsilon"] == 0.01
        assert adv_net.meta["lambda_lip"] == 0.01

    def test_deterministic(self, data_arrays):
        X, Y = data_arrays
        cfg = RobustTrainConfig(epochs=5, lr=0.02, seed=3)
        a = train_adversarial(init_network(seed=2), X[:64], Y[:64], cfg, box=UNIT6)
        b = train_adversarial(init_network(seed=2), X[:64], Y[:64], cfg, box=UNIT6)
        for la, lb in zip(a.layers, b.layers):
            assert np.array_equal(la.w, lb.w)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            AttackConfig(epsilon=0.0)
        with pytest.raises(ValueError):
            AttackConfig(steps=0)
        for restarts in (0, -2):
            with pytest.raises(ValueError, match=f"restarts must be >= 1, got {restarts}"):
                AttackConfig(restarts=restarts)
        with pytest.raises(ValueError):
            RobustTrainConfig(lambda_lip=-1.0)
