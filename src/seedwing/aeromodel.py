"""2D quasi-steady falling-plate dynamics with a displaced centre of mass.

Plate-frame velocities (x1, x2), angular rate x3, pitch x4 and world position
(x5, x6). The centre-of-mass offset e_x = l_CM/l is the single actuation
variable. The derivative core is generic over the scalar types in
:mod:`seedwing.intervals`, so the same formulas serve simulation, interval
enclosures and Jacobians. Trajectories step rk4_step in the one loop of
:func:`seedwing.closedloop.simulate_closed_loop`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from functools import cached_property

from . import intervals as iv

DEG = math.pi / 180.0

# actuation clamp for the centre-of-mass offset, and the trim actuation
# between its ends
EX_MIN = 0.181
EX_MAX = 0.193
U_CENTER = 0.187

# assumed angle-of-attack validity region, and the rounding slack of its check
ALPHA_LO = -math.pi / 2
ALPHA_HI = 0.0
ALPHA_MARGIN = 1e-9

_HALF_PI = math.pi / 2

# the paper's 20 s horizon, integrated at 0.01 s
T_END = 20.0
DT = 0.01


class IntegrationDivergedError(RuntimeError):
    def __init__(self, t: float, detail: str = ""):
        self.t = t
        super().__init__(f"integration diverged at t={t:.6g}s {detail}".rstrip())


class AlphaRegionError(RuntimeError):
    """Angle of attack left the assumed region while strict mode was on."""


@dataclass(frozen=True)
class PlateParams:
    """Mechanical and aerodynamic constants of the glider.

    Angles alpha0 / delta_s are stored in radians (defaults converted from
    the tabulated degrees). The constant factors of the core's formulas are
    computed once per instance, each in the order of operations of the
    formula it stands in.
    """

    ell: float = 0.07
    mass: float = 3.175e-4
    rho_f: float = 1.225
    alpha0: float = 14.0 * DEG
    delta_s: float = 6.0 * DEG
    cl1: float = 0.23857
    cl2: float = 2.8529
    cd0: float = 0.36893
    cd1: float = 5.1822
    cd90: float = 0.80751
    ccp0: float = 0.10598
    ccp1: float = 4.9368
    ccp2: float = 1.4996
    cr: float = 1.73
    a_semi: float = 0.03375
    b_semi: float = 5e-4
    g: float = 9.81

    def __post_init__(self):
        for name in ("ell", "mass", "rho_f", "delta_s"):
            if getattr(self, name) <= 0:
                raise ValueError(f"PlateParams.{name} must be > 0")
        for name in ("cl1", "cl2", "cd0", "cd1", "cd90", "ccp0", "ccp1", "ccp2", "cr"):
            if getattr(self, name) <= 0:
                raise ValueError(f"PlateParams.{name} must be > 0")

    @cached_property
    def m_eff(self) -> float:
        """Effective gravitational mass m': the buoyancy-corrected mass of
        the elliptical section."""
        return self.mass - self.rho_f * math.pi * self.a_semi * self.b_semi

    @cached_property
    def added_mass(self) -> float:
        return math.pi * self.rho_f * self.ell ** 2 / 4.0

    @cached_property
    def _weight(self) -> float:
        """m' g, the buoyancy-corrected weight."""
        return self.m_eff * self.g

    @cached_property
    def _mass_total(self) -> float:
        """m + m_a, the mass with the added mass."""
        return self.mass + self.added_mass

    @cached_property
    def _inertia_mass(self) -> float:
        return self.mass * (self.a_semi ** 2 + self.b_semi ** 2)

    @cached_property
    def _rho_l4(self) -> float:
        return self.rho_f * self.ell ** 4

    @cached_property
    def _half_rho_l(self) -> float:
        return 0.5 * self.rho_f * self.ell

    @cached_property
    def _rot_lift_x(self) -> float:
        """-rho l^2 c_r / 2, the x' rotational-lift factor of x3 * vy."""
        return -0.5 * self.rho_f * self.ell ** 2 * self.cr

    @cached_property
    def _rot_lift_y(self) -> float:
        """rho l^2 c_r / 2, the y' rotational-lift factor of x3 * x1."""
        return 0.5 * self.rho_f * self.ell ** 2 * self.cr

    @cached_property
    def _damping(self) -> float:
        """-rho l^4 c_d90 / 128, the rotational damping factor."""
        return -(1.0 / 128.0) * self.rho_f * self.ell ** 4 * self.cd90

    def inertia(self, e_x):
        # dimensional reading of the dimensionless appendix formula: I* * rho*l^4
        return self._inertia_mass + self._rho_l4 * (1.0 / 32.0 + e_x * e_x)


@dataclass(frozen=True)
class State:
    """The six system variables."""

    x1: float  # plate-frame x' velocity
    x2: float  # plate-frame y' velocity
    x3: float  # angular velocity
    x4: float  # pitch angle
    x5: float  # world x position
    x6: float  # world y position

    def __post_init__(self):
        if not all(map(math.isfinite, self.as_tuple())):
            bad = next(f.name for f in fields(self)
                       if not math.isfinite(getattr(self, f.name)))
            raise ValueError(f"State.{bad} is not finite")

    def as_tuple(self):
        return (self.x1, self.x2, self.x3, self.x4, self.x5, self.x6)


# ---------------------------------------------------------------------------
# generic scalar core

def selection_fraction(alpha, p: PlateParams):
    """Smooth pre/post-stall blending factor in (0, 1), decreasing in alpha."""
    return (1.0 - iv.tanh((alpha - p.alpha0) / p.delta_s)) * 0.5


def _coeffs_abs(aa, p: PlateParams):
    """Coefficients from |alpha|; every aerodynamic term is even in alpha."""
    f = selection_fraction(aa, p)
    g = 1.0 - f
    sin_aa = iv.sin(aa)
    c_lift = -(f * p.cl1 * sin_aa + g * p.cl2 * iv.sin(2.0 * aa))
    s2 = sin_aa ** 2
    c_drag = f * (p.cd0 + p.cd1 * s2) + g * p.cd90 * s2
    l_cp = p.ell * (f * (p.ccp0 - p.ccp1 * aa ** 2)
                    + p.ccp2 * g * (1.0 - aa / _HALF_PI))
    return f, c_lift, c_drag, l_cp


def _aero_terms(x1, vy, x3, e_x, c_lift, c_drag, l_cp, p: PlateParams):
    """Plate-frame (x', y') forces lift_t, lift_r, drag and torques tau_t,
    tau_r for generic scalars; vy is the y' flow at the centre of mass."""
    l_cm = e_x * p.ell
    spd = iv.sqrt(x1 * x1 + vy * vy)
    half_rho_l = p._half_rho_l
    # lift carries -x1 in the y' slot so that tau_t below is exactly the
    # lever arm times the y' aerodynamic force (and the lift is the
    # perpendicular Kutta force for c_lift < 0)
    k_lift = half_rho_l * c_lift * spd
    k_drag = -half_rho_l * c_drag * spd
    lift_t = (k_lift * vy, -k_lift * x1)
    lift_r = (p._rot_lift_x * x3 * vy, p._rot_lift_y * x3 * x1)
    drag = (k_drag * x1, k_drag * vy)
    tau_t = -half_rho_l * spd * (c_lift * x1 + c_drag * vy) * (l_cp - l_cm)
    bracket = (2.0 * e_x + 1.0) ** 4 + (2.0 * e_x - 1.0) ** 4
    tau_r = p._damping * x3 * iv.absval(x3) * bracket
    return lift_t, lift_r, drag, tau_t, tau_r


def _derivative_core(x, e_x, p: PlateParams):
    """Six derivatives for generic scalars. x is a 6-sequence, e_x a scalar.

    The angle of attack enters only through |alpha| = atan2(|vy|, x1), which
    keeps the enclosure defined for any flow direction short of a velocity
    box containing the origin. At zero relative flow every aerodynamic term
    vanishes and only gravity remains.
    """
    x1, x2, x3, x4 = x[0], x[1], x[2], x[3]
    l_cm = e_x * p.ell
    vy = x2 - x3 * l_cm
    aa = iv.atan2(iv.absval(vy), x1)
    _, c_lift, c_drag, l_cp = _coeffs_abs(aa, p)
    (lt_x, lt_y), (lr_x, lr_y), (d_x, d_y), tau_t, tau_r = \
        _aero_terms(x1, vy, x3, e_x, c_lift, c_drag, l_cp, p)

    m, ma, m_tot, mp_g = p.mass, p.added_mass, p._mass_total, p._weight
    c4, s4 = iv.cos(x4), iv.sin(x4)
    dx3 = (tau_t + tau_r) / p.inertia(e_x)
    dx2 = (-m * x3 * x1 + ma * dx3 * l_cm + lt_y + lr_y + d_y
           - mp_g * c4) / m_tot
    dx1 = (m_tot * x3 * x2 - ma * x3 * x3 * l_cm + lt_x + lr_x + d_x
           - mp_g * s4) / m
    return (dx1, dx2, dx3, x3, x1 * c4 - x2 * s4, x1 * s4 + x2 * c4)


# the state entries the core reads: positions x5, x6 never enter f, so
# Jacobians seed dual lanes for x1..x4 and u only
_derivative_core.reads = (0, 1, 2, 3)

# float-path name of the core, looked up by rk4_step at each call, so that
# the integrator order tests can patch other dynamics in under this name
_deriv_raw = _derivative_core


# ---------------------------------------------------------------------------
# public float-path operations

def angle_of_attack(s: State, u, p: PlateParams) -> float:
    """atan2(x2 - x3*e_x*l, x1): the flow at the centre of mass.

    Zero relative flow returns 0 by convention.
    """
    e_x = float(u)
    vy = s.x2 - s.x3 * e_x * p.ell
    if s.x1 == 0.0 and vy == 0.0:
        return 0.0
    return math.atan2(vy, s.x1)


def rk4_step(s: State, u, p: PlateParams, dt: float, t: float = 0.0) -> State:
    """One classical 4th-order Runge-Kutta step with the control held fixed."""
    if dt < 0:
        raise ValueError("dt must be >= 0")
    f = _deriv_raw
    e_x = float(u)
    x = x1, x2, x3, x4, x5, x6 = s.x1, s.x2, s.x3, s.x4, s.x5, s.x6
    h = 0.5 * dt
    # written out over the six entries for speed; each entry keeps the
    # operation order of x + h * k and x + dt * (k1 + 2 k2 + 2 k3 + k4) / 6,
    # so the step equals the loop form bit for bit (tests/oracles.py)
    try:
        # a stage at an infinite state fails in a math function (cos(inf))
        # or overflows in a power, and State rejects a non-finite entry
        a1, a2, a3, a4, a5, a6 = f(x, e_x, p)
        b1, b2, b3, b4, b5, b6 = f((x1 + h * a1, x2 + h * a2, x3 + h * a3,
                                    x4 + h * a4, x5 + h * a5, x6 + h * a6), e_x, p)
        c1, c2, c3, c4, c5, c6 = f((x1 + h * b1, x2 + h * b2, x3 + h * b3,
                                    x4 + h * b4, x5 + h * b5, x6 + h * b6), e_x, p)
        d1, d2, d3, d4, d5, d6 = f((x1 + dt * c1, x2 + dt * c2, x3 + dt * c3,
                                    x4 + dt * c4, x5 + dt * c5, x6 + dt * c6), e_x, p)
        return State(x1 + dt * (a1 + 2.0 * b1 + 2.0 * c1 + d1) / 6.0,
                     x2 + dt * (a2 + 2.0 * b2 + 2.0 * c2 + d2) / 6.0,
                     x3 + dt * (a3 + 2.0 * b3 + 2.0 * c3 + d3) / 6.0,
                     x4 + dt * (a4 + 2.0 * b4 + 2.0 * c4 + d4) / 6.0,
                     x5 + dt * (a5 + 2.0 * b5 + 2.0 * c5 + d5) / 6.0,
                     x6 + dt * (a6 + 2.0 * b6 + 2.0 * c6 + d6) / 6.0)
    except (ValueError, OverflowError):
        raise IntegrationDivergedError(t + dt) from None


@dataclass
class Trace:
    """Time-indexed sequence of states with the actuation applied at each sample."""

    times: list = field(default_factory=list)
    states: list = field(default_factory=list)
    e_x: list = field(default_factory=list)

    def append(self, t: float, s: State, e_x: float):
        self.times.append(t)
        self.states.append(s)
        self.e_x.append(e_x)

    def __len__(self):
        return len(self.times)

    def to_csv(self, path):
        with open(path, "w") as fh:
            fh.write("t,x1,x2,x3,x4,x5,x6,e_x\n")
            for t, s, u in zip(self.times, self.states, self.e_x):
                vals = (t,) + s.as_tuple() + (u,)
                fh.write(",".join(format(v, ".17g") for v in vals) + "\n")


def check_alpha_region(s: State, u, p: PlateParams, t: float):
    """AlphaRegionError unless the angle of attack at s lies in the assumed
    region [-pi/2, 0], up to the check's rounding slack."""
    a = angle_of_attack(s, u, p)
    if not ALPHA_LO - ALPHA_MARGIN <= a <= ALPHA_HI + ALPHA_MARGIN:
        raise AlphaRegionError(f"alpha={a:.4f} outside [-pi/2, 0] at t={t:.3f}s")


def mean_glide_slope(tr: Trace, t_from: float) -> float:
    """dx6/dx5 between the first sample at/after t_from and the last sample."""
    i0 = next(i for i, t in enumerate(tr.times) if t >= t_from)
    dx5 = tr.states[-1].x5 - tr.states[i0].x5
    dx6 = tr.states[-1].x6 - tr.states[i0].x6
    if dx5 == 0.0:
        return math.inf if dx6 > 0 else -math.inf
    return dx6 / dx5
