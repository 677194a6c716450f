"""PGD adversarial training for regression with a Lipschitz penalty.

The attack maximizes the squared-error loss inside an inf-norm ball clipped
to the data box; the penalty is the largest empirical Lipschitz quotient
|f(x) - f(x*)| / ||x - x*||_inf over the attacked batch, added to the clean
and adversarial MSE terms.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import mlp
from .mlp import Network


@dataclass(frozen=True)
class AttackConfig:
    epsilon: float = 0.01
    steps: int = 10
    step_size: float | None = None       # defaults to epsilon / 4
    restarts: int = 2

    def __post_init__(self):
        if self.epsilon <= 0:
            raise ValueError("epsilon must be > 0")
        if self.steps < 1:
            raise ValueError("steps must be >= 1")
        if self.restarts < 1:
            raise ValueError(f"restarts must be >= 1, got {self.restarts}")

    @property
    def step(self) -> float:
        return self.epsilon / 4.0 if self.step_size is None else self.step_size


@dataclass(frozen=True)
class RobustTrainConfig:
    attack: AttackConfig = field(default_factory=AttackConfig)
    lambda_lip: float = 0.01
    epochs: int = mlp.EPOCHS
    lr: float = mlp.LR
    seed: int = 0
    batch_size: int = mlp.BATCH_SIZE

    def __post_init__(self):
        if self.lambda_lip < 0:
            raise ValueError("lambda_lip must be >= 0")


def _project(X_adv, X0, eps, box_lo, box_hi):
    X_adv = np.minimum(np.maximum(X_adv, X0 - eps), X0 + eps)
    return np.minimum(np.maximum(X_adv, box_lo), box_hi)


def pgd_attack_batch(net: Network, X: np.ndarray, Y: np.ndarray,
                     cfg: AttackConfig, box, rng: np.random.Generator) -> np.ndarray:
    """Best-iterate PGD per row; the unperturbed point is always a candidate,
    a restart's random start is not. The restarts advance in lock-step as
    one (restarts, n, d) stack, so one forward trace per step gives every
    restart's loss and the input gradient of its next step. Each restart
    keeps its own best from the clean point on; a later restart takes a row
    only with a strictly larger loss, so the result is the first iterate of
    the largest loss in restart order."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    Y = np.asarray(Y, dtype=float).reshape(-1)
    box_lo = np.asarray(box[0], dtype=float)
    box_hi = np.asarray(box[1], dtype=float)

    cur = np.empty((cfg.restarts,) + X.shape)
    cur[0] = X
    cur[1:] = _project(X + rng.uniform(-cfg.epsilon, cfg.epsilon, size=cur[1:].shape),
                       X, cfg.epsilon, box_lo, box_hi)
    g, f = mlp.input_gradient(net, cur, Y)
    best_X = np.broadcast_to(X, cur.shape).copy()
    best_loss = np.broadcast_to((f[0] - Y) ** 2, f.shape).copy()
    for _ in range(cfg.steps):
        cur = _project(cur + cfg.step * np.sign(g), X, cfg.epsilon, box_lo, box_hi)
        g, f = mlp.input_gradient(net, cur, Y)
        loss = (f - Y) ** 2
        better = loss > best_loss
        np.copyto(best_X, cur, where=better[..., None])
        np.copyto(best_loss, loss, where=better)

    out, out_loss = best_X[0], best_loss[0]
    for X_r, loss_r in zip(best_X[1:], best_loss[1:]):
        better = loss_r > out_loss
        np.copyto(out, X_r, where=better[:, None])
        np.copyto(out_loss, loss_r, where=better)
    return out


def max_lipschitz_quotient(net: Network, X: np.ndarray, X_adv: np.ndarray):
    """Largest |f(x) - f(x*)| / ||x - x*||_inf over the row pairs of
    (X, X_adv), and the row attaining it. Coincident pairs are skipped;
    (0.0, None) when every pair coincides."""
    d = np.max(np.abs(X - X_adv), axis=1)
    live = np.flatnonzero(d > 0)
    if not live.size:
        return 0.0, None
    f = mlp.forward_batch(net, np.stack((X[live], X_adv[live])))
    q = np.abs(f[0] - f[1]) / d[live]
    k = int(np.argmax(q))
    return float(q[k]), int(live[k])


def empirical_lipschitz(net: Network, X: np.ndarray, cfg: AttackConfig, box,
                        seed: int = 0) -> float:
    """Fresh-PGD Lipschitz quotient maximized over the dataset."""
    rng = np.random.default_rng(seed)
    Y = mlp.forward_batch(net, X)
    return max_lipschitz_quotient(net, X, pgd_attack_batch(net, X, Y, cfg, box, rng))[0]


def _lipschitz_term_gradient(net: Network, x, x_adv) -> np.ndarray:
    """Flat parameter gradient of |f(x) - f(x*)| / ||x - x*||_inf for one
    pair, from one trace of the two 1-row slices."""
    d = float(np.max(np.abs(x - x_adv)))
    acts, pres = mlp._forward_trace(net, np.stack((x, x_adv))[:, None, :])
    sign = 1.0 if acts[-1][0, 0, 0] >= acts[-1][1, 0, 0] else -1.0
    dL_dy = np.array([sign / d, -sign / d]).reshape(2, 1, 1)
    g = mlp._backprop_from_output(net, acts, pres, dL_dy)
    return g[0] + g[1]


def train_adversarial(net0: Network, X: np.ndarray, Y: np.ndarray,
                      cfg: RobustTrainConfig) -> Network:
    """Min-max training: every batch is attacked with PGD inside the data's
    box, and the loss is the mean of clean and adversarial MSE plus
    lambda_lip times the batch Lipschitz quotient (so epsilon -> 0,
    lambda = 0 is plain training)."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    Y = np.asarray(Y, dtype=float).reshape(-1)
    box = (X.min(axis=0), X.max(axis=0))
    attack_rng = np.random.default_rng(cfg.seed + 1)

    def batch_gradient(cur, Xb, Yb):
        Xa = pgd_attack_batch(cur, Xb, Yb, cfg.attack, box, attack_rng)
        # equal-weight average of clean and adversarial terms, so the
        # epsilon->0 limit reproduces plain training exactly
        g_clean, g_adv = mlp.gradient(cur, np.stack((Xb, Xa)), Yb)
        g = g_clean * 0.5
        g += 0.5 * g_adv
        if cfg.lambda_lip > 0:
            k = max_lipschitz_quotient(cur, Xb, Xa)[1]
            if k is not None:
                g += cfg.lambda_lip * _lipschitz_term_gradient(cur, Xb[k], Xa[k])
        return g

    meta = {"kind": "adversarial", "epochs": cfg.epochs, "lr": cfg.lr,
            "seed": cfg.seed, "batch_size": cfg.batch_size,
            "epsilon": cfg.attack.epsilon, "pgd_steps": cfg.attack.steps,
            "restarts": cfg.attack.restarts, "lambda_lip": cfg.lambda_lip}
    return mlp._descend(net0, X, Y, batch_gradient, cfg.epochs, cfg.lr, cfg.seed,
                        cfg.batch_size, meta)
