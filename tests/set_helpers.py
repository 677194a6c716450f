"""Set helpers the tests use to state containment: membership of a number in
an Interval, a zonotope holding one point, and uniform samples of a zonotope."""

import numpy as np

from seedwing.intervals import Interval
from seedwing.zono import Zonotope


def contains(x: Interval, v: float, tol: float = 0.0) -> bool:
    """Whether v lies in x, widened by tol on each side."""
    return x.lo - tol <= v <= x.hi + tol


def point_zonotope(x) -> Zonotope:
    """The zonotope {x}: centre x, no generators."""
    x = np.asarray(x, dtype=float)
    return Zonotope(x, np.zeros((x.shape[0], 0)))


def zono_sample(Z: Zonotope, n: int, rng: np.random.Generator) -> np.ndarray:
    """n points of Z, from uniform generator weights in [-1, 1]."""
    xi = rng.uniform(-1.0, 1.0, size=(n, Z.n_gen))
    return Z.c[None, :] + xi @ Z.G.T
