"""Finite-horizon reachability of the closed loop with zonotopes.

One integration step is a conservative linearization of the dynamics: the
set is mapped through x+ = x + dt*(f(c) + J_c (x - c)) exactly, and a
remainder zonotope bounds (a) the mean-value linearization error via an
interval Jacobian J_int, (b) the actuation interval held over the step, and
(c) the explicit-Euler truncation error via a validated a-priori enclosure B
of the step trajectories. J_int is taken over B, and J_c is its entrywise
midpoint, so the linearization error per entry is rad(J_int)·|x - c|; any
J_c would be sound, since the remainder absorbs J_int - J_c. Every 0.5 s the
controller's output range over the current set is enclosed and held as the
actuation interval.
"""

from __future__ import annotations

import concurrent.futures
import functools
import multiprocessing
from dataclasses import dataclass, field

import numpy as np

from . import intervals as iv
from .aeromodel import DT, EX_MAX, EX_MIN, T_END, PlateParams, _derivative_core
from .closedloop import DT_CONTROL, check_multiple, check_times
from .intervals import Dual, Interval, _pad, _product, _scale
from .mlp import Network, propagate_bounds
from .zono import Zonotope, zono_hull, zono_max_linear, zono_reduce


class BranchFailure(RuntimeError):
    """A reachability branch cannot be continued soundly."""

    step = 0      # integration steps its control cycle completed before it


class ReachDomainError(BranchFailure):
    """Set left the domain where the dynamics enclosure is defined."""


# goal band half-width: success means |x6 + x5| <= GOAL_YSTAR at the horizon
GOAL_YSTAR = 2.0
# a step whose hull is wider than this in any coordinate ends the branch
BLOWUP_WIDTH = 1e3


@dataclass(frozen=True)
class ReachConfig:
    dt: float = DT
    t_end: float = T_END
    dt_control: float = DT_CONTROL
    n_splits: int = 16
    max_order: float = 20.0
    # relu_mode must stay "zonotope" and exact_alpha True: the interval ReLU
    # mode and the simplified angle of attack were removed; both fields are
    # kept so that configurations naming them still construct
    relu_mode: str = "zonotope"
    exact_alpha: bool = True

    def __post_init__(self):
        if not self.exact_alpha:
            raise ValueError("ReachConfig.exact_alpha=False: the simplified "
                             "angle of attack was removed; reach encloses the "
                             "exact flow only")
        check_times(self, "dt", "dt_control", "t_end")
        check_multiple(self, "dt_control", "dt")
        check_multiple(self, "t_end", "dt_control")
        if self.relu_mode != "zonotope":
            raise ValueError(f"ReachConfig.relu_mode={self.relu_mode!r}: only the "
                             "zonotope ReLU enclosure remains")
        if self.n_splits < 1:
            raise ValueError(f"n_splits must be >= 1, got {self.n_splits}")
        if self.max_order < 1:
            raise ValueError(f"max_order must be >= 1, got {self.max_order}")

    @property
    def steps_per_cycle(self) -> int:
        return round(self.dt_control / self.dt)

    @property
    def n_cycles(self) -> int:
        return round(self.t_end / self.dt_control)


def _boxes_to_intervals(lo, hi):
    return [Interval(float(a), float(b)) for a, b in zip(lo, hi)]


# The functions below call the dynamics by the module name `_derivative_core`
# and read its `reads` tuple (the state entries seeded as dual lanes, with u)
# at call time, never binding either earlier: that name is the one seam
# through which tests patch in other generic dynamics.

def interval_derivative(x_ivs, u_iv: Interval, p: PlateParams):
    """Interval enclosure of the six derivatives over a state box x input set."""
    try:
        return _derivative_core(list(x_ivs), u_iv, p)
    except iv.IntervalDomainError as exc:
        raise ReachDomainError(str(exc)) from exc


def _seeded(x, u, lanes, kind):
    """x with the read entries replaced by Duals seeded over lanes + u, and
    the seeded u."""
    seeds = Dual.seed([x[j] for j in lanes] + [u], kind=kind)
    x = list(x)
    for j, s in zip(lanes, seeds):
        x[j] = s
    return x, seeds[-1]


def point_jacobian(x, u: float, p: PlateParams):
    """6x7 Jacobian d f / d(x1..x6, u) at a point, via dual numbers. Columns
    of entries the core does not read are exact zeros. The reach step does
    not call it (it linearizes about mid(J_int)); it is the tests' oracle."""
    lanes = _derivative_core.reads
    out = _derivative_core(*_seeded([float(v) for v in x], float(u), lanes, float), p)
    cols = list(lanes) + [6]
    J = np.zeros((6, 7))
    for i, d in enumerate(out):
        if isinstance(d, Dual):
            J[i, cols] = d.lo
    return J


def interval_jacobian(x_ivs, u_iv: Interval, p: PlateParams):
    """6x7 matrix of Interval partials of f over the box x_ivs x u_iv.
    Columns of entries the core does not read are exact zeros.

    Raises ReachDomainError when the set leaves the enclosure domain.
    """
    lanes = _derivative_core.reads
    try:
        out = _derivative_core(*_seeded(x_ivs, u_iv, lanes, Interval), p)
    except iv.IntervalDomainError as exc:
        raise ReachDomainError(str(exc)) from exc
    cols = lanes + (6,)
    zero = Interval(0.0)
    J = [[zero] * 7 for _ in range(6)]
    for i, d in enumerate(out):
        if isinstance(d, Dual):
            row = J[i]
            for k, v in zip(cols, d.der):
                row[k] = v
        # constant rows (no Dual) keep zero partials
    return J


def _apriori_box(lo, hi, u_iv: Interval, p: PlateParams, cfg: ReachConfig):
    """Validated enclosure B of all step trajectories: hull + [0,dt]*f(B) in B.

    The first candidate is the hull itself. Each side of B that falls short
    of its need, dt*f(B) outward, grows to 1.2x that need, and the test
    repeats until the Picard condition holds; the multiplicative growth also
    copes with transiently stiff steps where additive inflation stalls.
    """
    dt = cfg.dt
    x_ivs = _boxes_to_intervals(lo, hi)
    # one-sided extensions along the flow; grown per side only where deficient
    m_lo = [0.0] * 6
    m_hi = [0.0] * 6
    for _ in range(40):
        B = [Interval(l.lo - a, l.hi + b) for l, a, b in zip(x_ivs, m_lo, m_hi)]
        fB = [iv.as_interval(v) for v in interval_derivative(B, u_iv, p)]
        need_lo = [max(0.0, -dt * f.lo) + 1e-15 for f in fB]
        need_hi = [max(0.0, dt * f.hi) + 1e-15 for f in fB]
        if all(m >= n for m, n in zip(m_lo + m_hi, need_lo + need_hi)):
            return B, fB
        m_lo = [m if m >= n else 1.2 * n for m, n in zip(m_lo, need_lo)]
        m_hi = [m if m >= n else 1.2 * n for m, n in zip(m_hi, need_hi)]
        if max(m_lo + m_hi) > 1e6:
            break
    raise BranchFailure("a-priori step enclosure did not converge")


def _remainder(lo, hi, c, J_int, J_c, u_set: Interval, fB, dt):
    """Bounds (lo, hi lists) of the step remainder per state row: the
    linearization error (J_int - J_c)·dx over the hull [lo, hi] about the
    centre c, the held actuation J_u·du, and the Euler truncation
    J_int·fB·dt²/2 over the a-priori box's derivative enclosure fB.

    The arithmetic is that of Interval objects on float endpoint pairs:
    _product's sign cases, _iv's padding and the same summation order, so
    the bounds are the Interval expression's bit for bit. An entry of J_int
    that is exactly [0, 0], with J_c 0 there (a structural zero), adds no
    term: its linearization, actuation and truncation terms are exact zeros.
    """
    u_c = u_set.mid
    du_lo, du_hi = _pad(u_set.lo - u_c, u_set.hi - u_c)
    # the hull about the linearization point, shared by every row
    dx = [(l - m, h - m) for l, h, m in zip(lo, hi, c)]
    fB = [(f.lo, f.hi) for f in fB]
    half_dt2 = 0.5 * dt * dt
    rem_lo, rem_hi = [], []
    for J_row, Jc_row in zip(J_int, J_c):
        al = ah = 0.0           # (J_int - J_c)·dx
        tl = th = 0.0           # J_int·fB
        for J, jc, (xl, xh), (fl, fh) in zip(J_row, Jc_row, dx, fB):
            if not (J.lo or J.hi or jc):
                continue        # an exact [0, 0] entry about 0 adds no term
            dl, dh = _pad(J.lo - jc, J.hi - jc)
            pl, ph = _pad(*_product(dl, dh, xl, xh))
            al, ah = _pad(al + pl, ah + ph)
            pl, ph = _pad(*_product(J.lo, J.hi, fl, fh))
            tl, th = _pad(tl + pl, th + ph)
        al, ah = _scale(al, ah, dt)
        J = J_row[6]
        if J.lo or J.hi:
            pl, ph = _scale(*_pad(*_product(J.lo, J.hi, du_lo, du_hi)), dt)
            al, ah = _pad(al + pl, ah + ph)
        pl, ph = _scale(tl, th, half_dt2)
        al, ah = _pad(al + pl, ah + ph)
        rem_lo.append(al)
        rem_hi.append(ah)
    return rem_lo, rem_hi


def reach_step(Z: Zonotope, u_set: Interval, p: PlateParams,
               cfg: ReachConfig = ReachConfig()) -> Zonotope:
    """One dt step of the conservative linearization."""
    dt = cfg.dt
    lo, hi = (h.tolist() for h in zono_hull(Z))
    B, fB = _apriori_box(lo, hi, u_set, p, cfg)
    J_int = interval_jacobian(B, u_set, p)

    u_c = u_set.mid
    c = Z.c.tolist()
    f_c = np.array([float(v) for v in _derivative_core(c, u_c, p)])
    # linearize about the interval Jacobian's midpoint, so that the remainder
    # pays rad(J_int)·|dx| per entry; unread columns stay exact zeros
    J_mid = [[0.5 * J.lo + 0.5 * J.hi for J in row] for row in J_int]
    J_c = np.array(J_mid)

    A = np.eye(6) + dt * J_c[:, :6]
    center = Z.c + dt * f_c
    G_lin = A @ Z.G

    rem_lo, rem_hi = _remainder(lo, hi, c, J_int, J_mid, u_set, fB, dt)
    rem_mid = 0.5 * (np.array(rem_lo) + np.array(rem_hi))
    rem_rad = 0.5 * (np.array(rem_hi) - np.array(rem_lo))
    Z_next = Zonotope(center + rem_mid, np.hstack([G_lin, np.diag(rem_rad)]))
    Z_next = zono_reduce(Z_next, cfg.max_order)
    lo_next, hi_next = zono_hull(Z_next)
    w = np.max(hi_next - lo_next)
    if w > BLOWUP_WIDTH:
        raise BranchFailure(f"set blow-up: hull width {w:.3g}")
    return Z_next


def nn_output_set(net: Network, Z: Zonotope, mode: str = "zonotope") -> Interval:
    """Sound enclosure of the clamped controller output over Z (raw-input
    network, normalization embedded): the output's running interval from
    mlp.propagate_bounds, the verifier's propagator, which already
    intersects the output zonotope's hull with interval propagation. `mode`
    must be "zonotope", the one enclosure left.
    """
    if mode != "zonotope":
        raise ValueError(f"mode {mode!r}: only the zonotope ReLU enclosure remains")
    out_lo, out_hi = (float(b[0]) for b in propagate_bounds(net, Z)["out_box"])
    if out_lo > out_hi:   # float dust when the two bounds coincide
        out_lo = out_hi = 0.5 * (out_lo + out_hi)
    # image of the actuation clamp
    return Interval(min(max(out_lo, EX_MIN), EX_MAX),
                    min(max(out_hi, EX_MIN), EX_MAX))


def reach_control_cycle(Z: Zonotope, net: Network, p: PlateParams,
                        cfg: ReachConfig = ReachConfig()) -> Zonotope:
    """One control period: controller range held over steps_per_cycle
    integration steps (state-actuation correlation dropped)."""
    u_set = nn_output_set(net, Z, cfg.relu_mode)
    for k in range(cfg.steps_per_cycle):
        try:
            Z = reach_step(Z, u_set, p, cfg)
        except BranchFailure as exc:
            exc.step = k
            raise
    return Z


@dataclass
class Branch:
    index: int
    x6_cell: tuple
    checkpoints: list = field(default_factory=list)   # Zonotope after each cycle
    failed: bool = False
    fail_reason: str = ""
    fail_cycle: int | None = None
    fail_step: int | None = None     # steps completed in the failing cycle


@dataclass
class ReachResult:
    branches: list
    cfg: ReachConfig

    @property
    def inconclusive(self) -> bool:
        return any(b.failed for b in self.branches)

    def surviving(self):
        return [b for b in self.branches if not b.failed]


def _check_x6(x6_lo, x6_hi):
    """ValueError naming both ends unless x6_lo <= x6_hi (equal ends, a
    point, are allowed)."""
    if not x6_lo <= x6_hi:
        raise ValueError(f"x6 interval [{x6_lo}, {x6_hi}] needs lo <= hi")


def initial_zonotope(x6_lo: float, x6_hi: float, base_state=None) -> Zonotope:
    _check_x6(x6_lo, x6_hi)
    if base_state is None:
        c = np.array([1.0, 0.0, 0.0, 0.0, 0.0, 0.5 * (x6_lo + x6_hi)])
    else:
        c = np.asarray(base_state, dtype=float).copy()
        c[5] = 0.5 * (x6_lo + x6_hi)
    if x6_hi > x6_lo:
        G = np.zeros((6, 1))
        G[5, 0] = 0.5 * (x6_hi - x6_lo)
    else:
        G = np.zeros((6, 0))
    return Zonotope(c, G)


def x6_cells(x6_interval, n_splits: int) -> list:
    """The initial x6 interval split into n_splits equal cells."""
    _check_x6(*x6_interval)
    edges = np.linspace(float(x6_interval[0]), float(x6_interval[1]), n_splits + 1)
    return [(float(edges[i]), float(edges[i + 1])) for i in range(n_splits)]


def reach_branch(index: int, x6_cell, net: Network, p: PlateParams,
                 cfg: ReachConfig = ReachConfig(), base_state=None) -> Branch:
    """One cell's branch over n_cycles control periods, or up to the cycle
    in which it cannot be continued soundly."""
    Z = initial_zonotope(*x6_cell, base_state)
    br = Branch(index, x6_cell, [Z])
    try:
        for _ in range(cfg.n_cycles):
            Z = reach_control_cycle(Z, net, p, cfg)
            br.checkpoints.append(Z)
    except BranchFailure as exc:
        br.failed = True
        br.fail_reason = str(exc)
        br.fail_cycle = len(br.checkpoints) - 1
        br.fail_step = exc.step
    return br


def _ordered_map(fn, jobs: int, *iterables) -> list:
    """list(map(fn, *iterables)), spread over `jobs` spawned processes when
    jobs > 1."""
    if jobs <= 1:
        return list(map(fn, *iterables))
    with concurrent.futures.ProcessPoolExecutor(
            max_workers=jobs, mp_context=multiprocessing.get_context("spawn")) as pool:
        return list(pool.map(fn, *iterables))


def reach_full(x6_interval, net: Network, p: PlateParams,
               cfg: ReachConfig = ReachConfig(), base_state=None, *,
               jobs: int = 1) -> ReachResult:
    """Reachable tube from the standard initial set over the full horizon.

    The initial x6 interval is split into n_splits equal cells, one branch
    each. base_state overrides the non-x6 components of the standard start.
    With jobs > 1 the cells' branches run in that many processes; the
    branches and their order are those of jobs=1, which runs them in this
    process.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    cells = x6_cells(x6_interval, cfg.n_splits)
    run = functools.partial(reach_branch, net=net, p=p, cfg=cfg, base_state=base_state)
    return ReachResult(_ordered_map(run, jobs, range(len(cells)), cells), cfg)


BAND_FUNCTIONAL = np.array([0.0, 0.0, 0.0, 0.0, 1.0, 1.0])   # x5 + x6


@dataclass
class GoalVerdict:
    status: str           # "success" | "failure" | "unknown"
    band_max: float | None
    band_min: float | None


def goal_check(result: ReachResult, ystar: float = GOAL_YSTAR) -> GoalVerdict:
    """Exact test of |x6 + x5| <= ystar on the final reachable sets."""
    surv = result.surviving()
    if result.inconclusive or not surv:
        return GoalVerdict("unknown", None, None)
    band_max = max(zono_max_linear(b.checkpoints[-1], BAND_FUNCTIONAL) for b in surv)
    band_min = min(-zono_max_linear(b.checkpoints[-1], -BAND_FUNCTIONAL) for b in surv)
    ok = band_max <= ystar and band_min >= -ystar
    return GoalVerdict("success" if ok else "failure", band_max, band_min)


def reach_to_csv(result: ReachResult, path):
    """Per-checkpoint hulls: branch,t,dim,lo,hi."""
    with open(path, "w") as fh:
        fh.write("branch,t,dim,lo,hi\n")
        for b in result.branches:
            for k, Z in enumerate(b.checkpoints):
                lo, hi = zono_hull(Z)
                t = k * result.cfg.dt_control
                for d in range(6):
                    fh.write(f"{b.index},{format(t, '.17g')},{d + 1},"
                             f"{format(lo[d], '.17g')},{format(hi[d], '.17g')}\n")
