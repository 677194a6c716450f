"""Zonotope set arithmetic: Z = {c + G xi : ||xi||_inf <= 1}.

Order reduction boxes the smallest generators (Girard), which always
over-approximates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import lp as lpmod


@dataclass(frozen=True)
class Zonotope:
    c: np.ndarray          # (n,)
    G: np.ndarray          # (n, g)

    def __post_init__(self):
        object.__setattr__(self, "c", np.asarray(self.c, dtype=float).reshape(-1))
        G = np.asarray(self.G, dtype=float)
        if G.ndim != 2:
            G = G.reshape(self.c.shape[0], -1)
        object.__setattr__(self, "G", G)
        if self.G.shape[0] != self.c.shape[0]:
            raise ValueError("generator row count must match dimension")
        if not (np.isfinite(self.c).all() and np.isfinite(self.G).all()):
            raise ValueError("non-finite zonotope data")

    @property
    def dim(self) -> int:
        return self.c.shape[0]

    @property
    def n_gen(self) -> int:
        return self.G.shape[1]


def zono_hull(Z: Zonotope):
    """Tight axis-aligned interval hull (lo, hi)."""
    r = np.abs(Z.G).sum(axis=1)
    return Z.c - r, Z.c + r


def zono_reduce(Z: Zonotope, max_order: float) -> Zonotope:
    """Girard order reduction: box the smallest generators. Containment holds."""
    max_gen = int(max_order * Z.dim)
    if Z.n_gen <= max_gen:
        return Z
    n_keep = max(max_gen - Z.dim, 0)
    A = np.abs(Z.G)
    score = A.sum(axis=0) - A.max(axis=0)
    idx = np.argsort(score, kind="stable")
    drop = idx[:Z.n_gen - n_keep]
    keep = idx[Z.n_gen - n_keep:]
    box = np.diag(A[:, drop].sum(axis=1))
    return Zonotope(Z.c, np.hstack([Z.G[:, keep], box]))


def zono_max_linear(Z: Zonotope, w) -> float:
    """Exact max of w.x over Z: w.c + sum |w.g_i|."""
    w = np.asarray(w, dtype=float)
    return float(w @ Z.c + np.abs(w @ Z.G).sum())


def zono_contains_point(Z: Zonotope, x, tol: float = 1e-9) -> bool:
    """Membership via LP feasibility of G xi = x - c, xi in [-1, 1]^g, as the
    two <= blocks G xi <= x - c and -G xi <= c - x."""
    x = np.asarray(x, dtype=float)
    if Z.n_gen == 0:
        return bool(np.max(np.abs(x - Z.c)) <= tol)
    g = Z.n_gen
    sol = lpmod.solve_lp(np.vstack([Z.G, -Z.G]), ["<="] * (2 * Z.dim),
                         np.concatenate([x - Z.c, Z.c - x]),
                         lo=-np.ones(g) - tol, hi=np.ones(g) + tol)
    return sol.feasible
