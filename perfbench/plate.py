"""A second transcription of the falling-plate model, vectorised over states.

It is written from the model equations, not from ``seedwing.aeromodel``, so
the correctness checks can re-integrate trajectories apart from the program.
All angles are in radians; ``exact`` alpha (relative flow at the centre of
mass) is the only mode, as the simulator and the dataset use it.
"""

from __future__ import annotations

import math

import numpy as np

# tabulated plate constants (SI units)
ELL = 0.07
MASS = 3.175e-4
RHO = 1.225
ALPHA0 = math.radians(14.0)
DELTA_S = math.radians(6.0)
CL1, CL2 = 0.23857, 2.8529
CD0, CD1, CD90 = 0.36893, 5.1822, 0.80751
CCP0, CCP1, CCP2 = 0.10598, 4.9368, 1.4996
CR = 1.73
A_SEMI, B_SEMI = 0.03375, 5e-4
GRAV = 9.81

U_MIN, U_MAX, U_CENTER, KP = 0.181, 0.193, 0.187, 0.005


def derivative(X, e, mass=MASS):
    """d/dt of states X (n, 6) under centre-of-mass offsets e (n,) or scalar."""
    X = np.asarray(X, dtype=float)
    x1, x2, x3, x4 = X[:, 0], X[:, 1], X[:, 2], X[:, 3]
    e = np.broadcast_to(np.asarray(e, dtype=float), x1.shape)
    lcm = e * ELL
    wy = x2 - x3 * lcm
    aa = np.abs(np.arctan2(wy, x1))
    sel = 0.5 * (1.0 - np.tanh((aa - ALPHA0) / DELTA_S))
    s = np.sin(aa)
    cl = -(sel * CL1 * s + (1.0 - sel) * CL2 * np.sin(2.0 * aa))
    cd = sel * (CD0 + CD1 * s * s) + (1.0 - sel) * CD90 * s * s
    lcp = ELL * (sel * (CCP0 - CCP1 * aa * aa)
                 + CCP2 * (1.0 - sel) * (1.0 - aa / (0.5 * math.pi)))
    v = np.sqrt(x1 * x1 + wy * wy)
    k = 0.5 * RHO * ELL
    kr = 0.5 * RHO * ELL ** 2 * CR
    fx = k * cl * v * wy - kr * x3 * wy - k * cd * v * x1
    fy = -k * cl * v * x1 + kr * x3 * x1 - k * cd * v * wy
    tau_t = -k * v * (cl * x1 + cd * wy) * (lcp - lcm)
    tau_r = -RHO * ELL ** 4 * CD90 * x3 * np.abs(x3) / 128.0 \
        * ((2.0 * e + 1.0) ** 4 + (2.0 * e - 1.0) ** 4)
    inertia = mass * (A_SEMI ** 2 + B_SEMI ** 2) + RHO * ELL ** 4 * (1.0 / 32.0 + e * e)
    m_added = math.pi * RHO * ELL ** 2 / 4.0
    weight = (mass - RHO * math.pi * A_SEMI * B_SEMI) * GRAV
    d3 = (tau_t + tau_r) / inertia
    d2 = (-mass * x3 * x1 + m_added * d3 * lcm + fy - weight * np.cos(x4)) / (mass + m_added)
    d1 = ((mass + m_added) * x3 * x2 - m_added * x3 * x3 * lcm + fx
          - weight * np.sin(x4)) / mass
    c4, s4 = np.cos(x4), np.sin(x4)
    return np.stack([d1, d2, d3, x3, x1 * c4 - x2 * s4, x1 * s4 + x2 * c4], axis=1)


def rk4(X, e, dt, steps, mass=MASS):
    """`steps` classical RK4 steps of size dt with the offsets e held."""
    X = np.array(X, dtype=float)
    for _ in range(steps):
        k1 = derivative(X, e, mass)
        k2 = derivative(X + 0.5 * dt * k1, e, mass)
        k3 = derivative(X + 0.5 * dt * k2, e, mass)
        k4 = derivative(X + dt * k3, e, mass)
        X = X + dt * (k1 + 2.0 * k2 + 2.0 * k3 + k4) / 6.0
    return X


def teacher(X):
    """The proportional teacher: clamp(0.187 + 0.005 (x6 + x5))."""
    X = np.atleast_2d(X)
    return np.clip(U_CENTER + KP * (X[:, 5] + X[:, 4]), U_MIN, U_MAX)
