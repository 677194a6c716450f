"""Independent oracles used by the test suite.

Each lives apart from the implementation it checks: a clean-room scalar
transcription of the plate aerodynamics, the RK4 step as a loop over the
state (one tuple per stage, one generator per sum), an exact-rational
Fourier-Motzkin feasibility decision, a vertex-enumeration LP optimizer,
a row-by-row simplex pivot, an exhaustive activation-pattern verification oracle,
branch and bound with a node LP for every pending conclusion row,
plain interval bound propagation, per-row pre-activations, the network on
its normalized input with its output denormalized, the doubled-network
form of the robustness query,
a forward-mode Dual that keeps one Interval object per partial, another in
mpmath's arithmetic, the two-pass Dual[Interval] operators (a product as
two passes of padded products), the reach step's remainder with one
Interval object per operation (in each, a constant's partials and an
exact-zero partial form no term), and the training kernel
with per-layer gradient lists, a rebuilt network per descent step and two
forward passes per PGD iterate.
"""

import itertools
import math
import time
from fractions import Fraction

import numpy as np

from seedwing import aeromodel
from seedwing import intervals as iv
from seedwing import mlp, robust, verifier
from seedwing.closedloop import normalize
from seedwing.intervals import Interval, IntervalDomainError
from seedwing.mlp import Layer, Network
from seedwing.verifier import (LP_MARGIN, REPLAY_TOL, LinConstraint,
                               PropertySpec, constraint_violation,
                               premise_holds)
from seedwing import lp as lpmod


# ---------------------------------------------------------------------------
# clean-room transcription of the plate model

def plate_forces_oracle(state, e_x, p):
    """Second transcription of the aerodynamic breakdown and derivatives."""
    x1, x2, x3, x4, x5, x6 = state
    lcm = e_x * p.ell
    wy = x2 - x3 * lcm
    aa = abs(math.atan2(wy, x1))
    sel = 0.5 * (1.0 - math.tanh((aa - p.alpha0) / p.delta_s))
    cl = -(sel * p.cl1 * math.sin(aa) + (1.0 - sel) * p.cl2 * math.sin(2 * aa))
    cd = sel * (p.cd0 + p.cd1 * math.sin(aa) ** 2) \
        + (1.0 - sel) * p.cd90 * math.sin(aa) ** 2
    lcp = p.ell * (sel * (p.ccp0 - p.ccp1 * aa * aa)
                   + p.ccp2 * (1.0 - sel) * (1.0 - aa / (0.5 * math.pi)))
    v = math.sqrt(x1 * x1 + wy * wy)
    k = 0.5 * p.rho_f * p.ell
    lift_t = (k * cl * v * wy, -k * cl * v * x1)
    lift_r = (-0.5 * p.rho_f * p.ell ** 2 * p.cr * x3 * wy,
              0.5 * p.rho_f * p.ell ** 2 * p.cr * x3 * x1)
    drag = (-k * cd * v * x1, -k * cd * v * wy)
    tau_t = -k * v * (cl * x1 + cd * wy) * (lcp - lcm)
    tau_r = -p.rho_f * p.ell ** 4 * p.cd90 * x3 * abs(x3) / 128.0 \
        * ((2 * e_x + 1) ** 4 + (2 * e_x - 1) ** 4)

    m = p.mass
    ma = math.pi * p.rho_f * p.ell ** 2 / 4.0
    mg = p.m_eff * p.g
    inertia = p.inertia(e_x)
    d3 = (tau_t + tau_r) / inertia
    d2 = (-m * x3 * x1 + ma * d3 * lcm + lift_t[1] + lift_r[1] + drag[1]
          - mg * math.cos(x4)) / (m + ma)
    d1 = ((m + ma) * x3 * x2 - ma * x3 * x3 * lcm + lift_t[0] + lift_r[0]
          + drag[0] - mg * math.sin(x4)) / m
    d5 = x1 * math.cos(x4) - x2 * math.sin(x4)
    d6 = x1 * math.sin(x4) + x2 * math.cos(x4)
    return {
        "alpha": math.atan2(wy, x1), "f_sel": sel, "c_lift": cl, "c_drag": cd,
        "l_cp": lcp, "lift_t": lift_t, "lift_r": lift_r, "drag": drag,
        "tau_t": tau_t, "tau_r": tau_r,
        "deriv": (d1, d2, d3, x3, d5, d6),
    }


def rk4_step_loops(s, u, p, dt):
    """One classical RK4 step of the plate core as a loop over the six
    entries: each stage one tuple, each weighted sum one generator. Returns
    the next state's entries as a tuple."""
    f = aeromodel._derivative_core
    e_x = float(u)
    x = s.as_tuple()
    h = 0.5 * dt
    k1 = f(x, e_x, p)
    k2 = f(tuple(a + h * k for a, k in zip(x, k1)), e_x, p)
    k3 = f(tuple(a + h * k for a, k in zip(x, k2)), e_x, p)
    k4 = f(tuple(a + dt * k for a, k in zip(x, k3)), e_x, p)
    return tuple(a + dt * (b1 + 2.0 * b2 + 2.0 * b3 + b4) / 6.0
                 for a, b1, b2, b3, b4 in zip(x, k1, k2, k3, k4))


# ---------------------------------------------------------------------------
# exact-rational Fourier-Motzkin feasibility

def fourier_motzkin_feasible(rows, lo, hi) -> bool:
    """rows: (coeffs, rhs) meaning coeffs . x <= rhs; bounds folded in.

    Exact Fraction arithmetic; exponential, keep systems tiny.
    """
    n = len(lo)
    sys_rows = []
    for coef, rhs in rows:
        sys_rows.append(([Fraction(c).limit_denominator(10 ** 9) for c in coef],
                         Fraction(rhs).limit_denominator(10 ** 9)))
    for j in range(n):
        e = [Fraction(0)] * n
        e[j] = Fraction(1)
        sys_rows.append((list(e), Fraction(hi[j]).limit_denominator(10 ** 9)))
        e2 = [Fraction(0)] * n
        e2[j] = Fraction(-1)
        sys_rows.append((e2, -Fraction(lo[j]).limit_denominator(10 ** 9)))

    for j in range(n):
        pos, neg, rest = [], [], []
        for coef, rhs in sys_rows:
            if coef[j] > 0:
                pos.append((coef, rhs))
            elif coef[j] < 0:
                neg.append((coef, rhs))
            else:
                rest.append((coef, rhs))
        new_rows = rest
        for cp, rp in pos:
            for cn, rn in neg:
                # eliminate x_j: cp[j] * (cn-row) - cn[j] * (cp-row)
                scale_p, scale_n = cp[j], -cn[j]
                coef = [scale_p * cn[k] + scale_n * cp[k] for k in range(n)]
                rhs = scale_p * rn + scale_n * rp
                new_rows.append((coef, rhs))
        sys_rows = new_rows
    return all(rhs >= 0 for _, rhs in sys_rows)


# ---------------------------------------------------------------------------
# vertex-enumeration optimum for tiny LPs

def vertex_lp_max(A, b, lo, hi, c, tol=1e-9):
    """Max of c.x over {A x <= b} intersect box, by enumerating candidate
    vertices (intersections of n active constraints). None if infeasible."""
    A = np.atleast_2d(np.asarray(A, dtype=float))
    b = np.asarray(b, dtype=float)
    n = len(lo)
    rows = [(A[i], b[i]) for i in range(len(b))]
    for j in range(n):
        e = np.zeros(n)
        e[j] = 1.0
        rows.append((e.copy(), hi[j]))
        rows.append((-e, -lo[j]))
    best = None
    for combo in itertools.combinations(range(len(rows)), n):
        M = np.array([rows[i][0] for i in combo])
        r = np.array([rows[i][1] for i in combo])
        if abs(np.linalg.det(M)) < 1e-12:
            continue
        x = np.linalg.solve(M, r)
        if all(a @ x <= rv + tol for a, rv in rows):
            v = float(np.dot(c, x))
            if best is None or v > best:
                best = v
    return best


# ---------------------------------------------------------------------------
# row-by-row simplex pivot (the reference for lp._pivot)

def pivot_rows(T, basis, row, col):
    """Gauss-Jordan pivot one row at a time: normalise `row`, then subtract
    its multiple from each other row whose entry in `col` is nonzero."""
    T[row, :] /= T[row, col]
    for i in range(T.shape[0]):
        if i != row and T[i, col] != 0.0:
            T[i, :] -= T[i, col] * T[row, :]
    basis[row] = col


# ---------------------------------------------------------------------------
# exhaustive activation-pattern verification oracle

def _pattern_rows(net, pattern, nv):
    """<= rows fixing every ReLU to the given on/off pattern; returns
    (rows_a, rows_b, out_coefs, out_consts)."""
    coefs = np.zeros((net.n_in, nv))
    consts = np.zeros(net.n_in)
    for i in range(net.n_in):
        coefs[i, i] = 1.0
    rows_a, rows_b = [], []
    k = 0
    for layer in net.layers:
        p_coefs = layer.w @ coefs
        p_consts = layer.w @ consts + layer.b
        if layer.act == "id":
            coefs, consts = p_coefs, p_consts
            continue
        n_coefs = np.zeros_like(p_coefs)
        n_consts = np.zeros(p_consts.shape[0])
        for j in range(p_consts.shape[0]):
            if pattern[k]:
                # on: pre-activation >= 0, written as its negation
                rows_a.append(-p_coefs[j]); rows_b.append(p_consts[j])
                n_coefs[j] = p_coefs[j]
                n_consts[j] = p_consts[j]
            else:
                rows_a.append(p_coefs[j]); rows_b.append(-p_consts[j])
            k += 1
        coefs, consts = n_coefs, n_consts
    return rows_a, rows_b, coefs, consts


def _solve_leq(rows_a, rows_b, n, lo, hi, objective=None):
    A = np.array(rows_a, dtype=float).reshape(len(rows_a), n)
    return lpmod.solve_lp(A, ["<="] * len(rows_b), np.array(rows_b, dtype=float),
                          lo, hi, objective=objective)


def enumerate_verify(net, spec):
    """2^R pattern enumeration with one violation-maximizing LP per pattern
    and negated conclusion; same tolerance conventions as the verifier."""
    n_in = net.n_in
    lo = np.array([b[0] for b in spec.input_box])
    hi = np.array([b[1] for b in spec.input_box])

    prem_a, prem_b = [], []
    for c in spec.premise:
        for ic, _, rhs in c.as_leq():
            prem_a.append(np.asarray(ic, dtype=float)); prem_b.append(rhs)
    if not _solve_leq(prem_a, prem_b, n_in, lo, hi).feasible:
        return "verified", None

    conclusions = []
    for c in spec.conclusion:
        if c.rel == "=":
            conclusions.append(LinConstraint(c.in_coef, c.out_coef, "<=", c.rhs))
            conclusions.append(LinConstraint(c.in_coef, c.out_coef, ">=", c.rhs))
        else:
            conclusions.append(c)

    n_relu = net.n_relu
    for bits in itertools.product((0, 1), repeat=n_relu):
        rows_a, rows_b, out_c, out_k = _pattern_rows(net, bits, n_in)
        rows_a = rows_a + prem_a
        rows_b = rows_b + prem_b
        for c in conclusions:
            vec = np.zeros(n_in)
            vec += np.asarray(c.in_coef)
            vec = vec + np.asarray(c.out_coef) @ out_c
            const = float(np.asarray(c.out_coef) @ out_k)
            # the negated conclusion row, in <= form
            if c.rel == "<=":
                neg_a, neg_b = -vec, const - c.rhs
                obj, off = vec, const - c.rhs
            else:
                neg_a, neg_b = vec, c.rhs - const
                obj, off = -vec, c.rhs - const
            sol = _solve_leq(rows_a + [neg_a], rows_b + [neg_b], n_in, lo, hi, objective=obj)
            if not sol.feasible or sol.objective + off <= LP_MARGIN:
                continue
            x = sol.x
            y = mlp.forward_batch(net, x[None, :])[0]
            if premise_holds(spec, x):
                worst = max(constraint_violation(cc, x, y) for cc in conclusions)
                if worst > REPLAY_TOL:
                    return "falsified", x
    return "verified", None


# ---------------------------------------------------------------------------
# branch and bound with a node LP for every pending conclusion row

def bab_verify_always_lp(net, spec, budget=verifier.Budget()):
    """verifier.bab_verify's search without the zonotope close: a vacuity LP
    on every query, premise rows or not, and one node LP per pending row.
    Same DFS, splits and replay, so verdicts, witnesses and node counts must
    match, and bab_verify's lp_calls never exceeds this one's."""
    t0 = time.perf_counter()
    stats = {"nodes": 0, "lp": 0}
    premise = verifier.input_rows(spec.premise, spec.n_in)
    rows = [row for c in spec.conclusion for row in c.as_leq()]

    def verdict(status, **kw):
        return verifier.Verdict(status, lp_calls=stats["lp"],
                                seconds=time.perf_counter() - t0, **kw)

    feas = verifier.lp_feasible(*premise, spec.input_box)
    stats["lp"] += 1
    if not feas.feasible:
        return verdict("verified", vacuous=True, nodes=0)
    lo, hi, empty = verifier.tighten_box(spec.input_box, *premise)
    if empty:
        return verdict("verified", nodes=1)
    box = tuple(zip(lo, hi))

    stack = [({}, list(range(len(rows))))]
    while stack:
        if stats["nodes"] >= budget.max_nodes or \
           time.perf_counter() - t0 > budget.max_seconds:
            return verdict("timeout", nodes=stats["nodes"])
        phases, pending = stack.pop()
        stats["nodes"] += 1
        info = verifier.interval_bounds(net, box, phases)
        if info["empty"]:
            continue
        node = verifier._NodeLp(net, info, phases, premise)
        still_open = []
        for ci in pending:
            sol, viol, x = node.solve_negation(rows[ci])
            stats["lp"] += 1
            if sol is None or viol <= LP_MARGIN:
                continue
            y = mlp.forward_batch(net, x[None, :])[0]
            if premise_holds(spec, x):
                worst = max(constraint_violation(c, x, y) for c in spec.conclusion)
                if worst > REPLAY_TOL:
                    return verdict("falsified", witness=x, witness_outputs=np.atleast_1d(y),
                                   nodes=stats["nodes"])
            if node.unstable:
                still_open.append(ci)
        if still_open:
            li, j = verifier._pick_split(info)
            stack.append(({**phases, (li, j): 1}, still_open))
            stack.append(({**phases, (li, j): 0}, still_open))
    return verdict("verified", nodes=stats["nodes"])


# ---------------------------------------------------------------------------
# plain interval bound propagation (the reference for the verifier's bounds)

def interval_propagation(net, box, phases=None):
    """Pre-activation intervals per layer under branching decisions, one
    neuron at a time (plain IBP, no zonotope).

    phases maps (layer, idx) -> 0 (forced inactive) or 1 (forced active).
    Returns dict with keys: pre (list of (lo, hi) per layer), status (list of
    per-neuron 'A'/'I'/'U' for relu layers, None otherwise), box (lo, hi as
    arrays), empty (True when a forced phase contradicts the bounds).
    """
    phases = phases or {}
    lo = np.array([l for l, _ in box], dtype=float)
    hi = np.array([h for _, h in box], dtype=float)
    pre = []
    status = []
    a_lo, a_hi = lo, hi
    for li, layer in enumerate(net.layers):
        p_lo, p_hi = mlp.interval_preact(layer, a_lo, a_hi)
        pre.append((p_lo, p_hi))
        if layer.act == "relu":
            st = []
            n_lo = np.empty_like(p_lo)
            n_hi = np.empty_like(p_hi)
            for j in range(p_lo.shape[0]):
                forced = phases.get((li, j))
                if forced == 1:
                    if p_hi[j] < -1e-12:
                        return {"pre": pre, "status": status, "box": (lo, hi),
                                "empty": True}
                    st.append("A")
                    n_lo[j], n_hi[j] = max(p_lo[j], 0.0), max(p_hi[j], 0.0)
                elif forced == 0:
                    if p_lo[j] > 1e-12:
                        return {"pre": pre, "status": status, "box": (lo, hi),
                                "empty": True}
                    st.append("I")
                    n_lo[j] = n_hi[j] = 0.0
                elif p_lo[j] >= 0.0:
                    st.append("A")
                    n_lo[j], n_hi[j] = p_lo[j], p_hi[j]
                elif p_hi[j] <= 0.0:
                    st.append("I")
                    n_lo[j] = n_hi[j] = 0.0
                else:
                    st.append("U")
                    n_lo[j], n_hi[j] = 0.0, p_hi[j]
            status.append(st)
            a_lo, a_hi = n_lo, n_hi
        else:
            status.append(None)
            a_lo, a_hi = p_lo, p_hi
    return {"pre": pre, "status": status, "box": (lo, hi), "empty": False}


# ---------------------------------------------------------------------------
# the network one row at a time, and the robustness query on a doubled network

def forward_preacts(net, x) -> list:
    """Per-layer pre-activation vectors for one raw input, one matrix-vector
    product per layer (the package evaluates whole batches)."""
    a = np.asarray(x, dtype=float)
    pres = []
    for layer in net.layers:
        z = layer.w @ a + layer.b
        pres.append(z)
        a = np.maximum(z, 0.0) if layer.act == "relu" else z
    return pres


def normalized_forward(net, x) -> float:
    """net on the normalized raw input x, its output denormalized: what
    embed_normalization folds into the first and last layers."""
    spec = net.norm
    return mlp.forward(net, normalize(x, spec)) * (spec.out_max - spec.out_min) + spec.out_min


def double_network(net) -> Network:
    """Block-diagonal duplication: inputs split into two halves feeding two
    independent copies; outputs are (f(x_a), f(x_b))."""
    layers = []
    for l in net.layers:
        o, i = l.w.shape
        w = np.zeros((2 * o, 2 * i))
        w[:o, :i] = l.w
        w[o:, i:] = l.w
        layers.append(Layer(w, np.concatenate([l.b, l.b]), l.act))
    return Network(tuple(layers), norm=None, meta=dict(net.meta, doubled=True))


def encode_robustness_doubled(net, x0, epsilon, lstar, box) -> PropertySpec:
    """The robustness query through double_network(net): copy A ranges over
    the ball, copy B is pinned at x0, and the conclusion bounds out_A - out_B.
    The verifier's encode_robustness pins copy B by folding f(x0) into the
    conclusion instead."""
    x0 = np.asarray(x0, dtype=float)
    n = x0.shape[0]
    bound = lstar / epsilon
    ball = tuple((max(box[i][0], x0[i] - epsilon), min(box[i][1], x0[i] + epsilon))
                 for i in range(n))
    pinned = tuple((float(v), float(v)) for v in x0)
    conclusion = (LinConstraint((0.0,) * (2 * n), (1.0, -1.0), "<=", bound),
                  LinConstraint((0.0,) * (2 * n), (1.0, -1.0), ">=", -bound))
    return PropertySpec("robustness_doubled", ball + pinned, (), conclusion,
                        {"epsilon": epsilon, "lstar": lstar})


# ---------------------------------------------------------------------------
# reference Dual: one Interval object per partial, with the 4-product multiply

_PAD = 4e-16
_TINY = 1e-300


def ref_iv(lo, hi):
    """Outward-padded interval, built through the checking constructor."""
    return Interval(lo - (abs(lo) * _PAD + _TINY), hi + (abs(hi) * _PAD + _TINY))


def ref_mul(x, y):
    """x * y; two Intervals multiply as the min and max of all four corner
    products, anything else through the operators."""
    if isinstance(x, Interval) and isinstance(y, Interval):
        p = (x.lo * y.lo, x.lo * y.hi, x.hi * y.lo, x.hi * y.hi)
        return ref_iv(min(p), max(p))
    return x * y


def ref_div(x, y):
    """The partial x over y. An Interval x is multiplied by y's reciprocal
    (padded when y is an Interval), so an exact-zero x forms no term."""
    if isinstance(x, Interval) and isinstance(y, Interval):
        if y.lo <= 0.0 <= y.hi:
            raise IntervalDomainError("interval division by zero-straddling interval")
        return ref_term(x, ref_iv(1.0 / y.hi, 1.0 / y.lo))
    if isinstance(x, Interval) and y != 0:
        return ref_term(x, 1.0 / y)
    return x / y


def _zero(d):
    """An exact-zero partial: the float 0.0 or the Interval [0, 0] (either
    zero's sign)."""
    return d.lo == 0.0 and d.hi == 0.0 if isinstance(d, Interval) else d == 0.0


def ref_term(d, f):
    """The partial d times the factor f. Where the product is an interval
    one, an exact-zero partial forms no term: the product is [0, 0],
    unpadded."""
    if (isinstance(d, Interval) or isinstance(f, Interval)) and _zero(d):
        return Interval(0.0)
    return ref_mul(d, f)


def ref_plus(a, b):
    """The sum of two partials. Where the sum is an interval one, an
    exact-zero partial leaves the other partial as it is, unpadded."""
    if isinstance(a, Interval) or isinstance(b, Interval):
        if _zero(a):
            return iv.as_interval(b)
        if _zero(b):
            return iv.as_interval(a)
    return a + b


class RefDual:
    """Value plus a tuple of float or Interval partials, one object each. A
    constant operand's partials are exact zeros and form no term, and so does
    an exact-zero interval partial (ref_term, ref_plus)."""

    __slots__ = ("val", "der")

    def __init__(self, val, der):
        self.val = val
        self.der = tuple(der)

    def _beside(self, c):
        """The partials beside the constant c: Interval points [d, d] when c
        is an Interval and the partials are floats."""
        if isinstance(c, Interval) and all(isinstance(d, float) for d in self.der):
            return [Interval(d) for d in self.der]
        return self.der

    def __neg__(self):
        return RefDual(-self.val, [-d for d in self.der])

    def __add__(self, other):
        if isinstance(other, RefDual):
            return RefDual(self.val + other.val,
                           [ref_plus(a, b) for a, b in zip(self.der, other.der)])
        return RefDual(self.val + other, self._beside(other))

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, RefDual):
            return RefDual(self.val - other.val,
                           [ref_plus(a, -b) for a, b in zip(self.der, other.der)])
        return RefDual(self.val - other, self._beside(other))

    def __rsub__(self, other):
        return RefDual(other - self.val, [-d for d in self._beside(other)])

    def __mul__(self, other):
        if isinstance(other, RefDual):
            return RefDual(ref_mul(self.val, other.val),
                           [ref_plus(ref_term(a, other.val), ref_term(b, self.val))
                            for a, b in zip(self.der, other.der)])
        return RefDual(ref_mul(self.val, other), [ref_term(a, other) for a in self._beside(other)])

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, RefDual):
            inv = 1.0 / other.val
            q = ref_mul(self.val, inv)
            return RefDual(q, [ref_term(ref_plus(a, -ref_term(b, q)), inv)
                               for a, b in zip(self.der, other.der)])
        inv = 1.0 / other
        return RefDual(ref_mul(self.val, inv), [ref_term(a, inv) for a in self._beside(inv)])

    def __rtruediv__(self, other):
        # d(c / x) = -(q * dx) / x with q = c / x
        inv = 1.0 / self.val
        q = ref_mul(other, inv)
        return RefDual(q, [ref_term(-ref_term(b, q), inv) for b in self._beside(q)])

    def __pow__(self, n):
        # one chain rule: v ** n, with the factor n * v ** (n - 1) (2 * v
        # for a square)
        if n == 1:
            return self
        v = self.val
        return _ref_chain(self, v ** n, n * (v if n == 2 else v ** (n - 1)))


def _ref_chain(x, val, dval):
    return RefDual(val, [ref_term(d, dval) for d in x.der])


def ref_sin(x):
    if isinstance(x, RefDual):
        return _ref_chain(x, ref_sin(x.val), ref_cos(x.val))
    return iv.sin(x)


def ref_cos(x):
    if isinstance(x, RefDual):
        return _ref_chain(x, ref_cos(x.val), -ref_sin(x.val))
    return iv.cos(x)


def ref_tanh(x):
    if isinstance(x, RefDual):
        t = ref_tanh(x.val)
        return _ref_chain(x, t, 1.0 - ref_mul(t, t))
    return iv.tanh(x)


def ref_sqrt(x):
    if isinstance(x, RefDual):
        r = ref_sqrt(x.val)
        return _ref_chain(x, r, 0.5 / r)
    return iv.sqrt(x)


def ref_absval(x):
    if isinstance(x, RefDual):
        v = x.val
        if isinstance(v, Interval):
            if v.lo >= 0:
                return RefDual(iv.interval_abs(v), x.der)
            if v.hi <= 0:
                return -x
            s = Interval(-1.0, 1.0)
            return RefDual(iv.interval_abs(v), [ref_term(d, s) for d in x.der])
        return x if v >= 0 else -x
    return iv.absval(x)


def ref_atan2(y, x):
    if isinstance(y, RefDual) or isinstance(x, RefDual):
        yv = y.val if isinstance(y, RefDual) else y
        xv = x.val if isinstance(x, RefDual) else x
        v = ref_atan2(yv, xv)
        denom = ref_mul(xv, xv) + ref_mul(yv, yv)
        if isinstance(denom, Interval) and denom.lo <= 0.0:
            raise IntervalDomainError(
                "atan2 derivative unbounded: velocity box reaches the origin")
        if not isinstance(x, RefDual):
            num = [ref_term(dy, xv) for dy in y._beside(xv)]
        elif not isinstance(y, RefDual):
            num = [-ref_term(dx, yv) for dx in x._beside(yv)]
        else:
            num = [ref_plus(ref_term(dy, xv), -ref_term(dx, yv))
                   for dy, dx in zip(y.der, x.der)]
        return RefDual(v, [ref_div(n, denom) for n in num])
    return iv.atan2(y, x)


# ---------------------------------------------------------------------------
# forward-mode Dual in mpmath arithmetic

class MPDual:
    """A value and partials as mpmath numbers: intervals (mpmath.iv) or
    points (mpmath.mpf). Each derivative formula of Dual, in mpmath's
    arithmetic, a constant's partials forming no term."""

    def __init__(self, val, der):
        self.val, self.der = val, list(der)

    def __neg__(self):
        return MPDual(-self.val, [-a for a in self.der])

    def __add__(self, o):
        if isinstance(o, MPDual):
            return MPDual(self.val + o.val, [a + b for a, b in zip(self.der, o.der)])
        return MPDual(self.val + o, self.der)

    __radd__ = __add__

    def __sub__(self, o):
        if isinstance(o, MPDual):
            return MPDual(self.val - o.val, [a - b for a, b in zip(self.der, o.der)])
        return MPDual(self.val - o, self.der)

    def __rsub__(self, c):
        return MPDual(c - self.val, [-a for a in self.der])

    def __mul__(self, o):
        if isinstance(o, MPDual):
            return MPDual(self.val * o.val,
                          [a * o.val + self.val * b for a, b in zip(self.der, o.der)])
        return MPDual(self.val * o, [a * o for a in self.der])

    __rmul__ = __mul__

    def __truediv__(self, o):
        if isinstance(o, MPDual):
            inv = 1 / o.val
            q = self.val * inv
            return MPDual(q, [(a - q * b) * inv for a, b in zip(self.der, o.der)])
        inv = 1 / o
        return MPDual(self.val * inv, [a * inv for a in self.der])

    def __rtruediv__(self, c):
        inv = 1 / self.val
        q = c * inv
        return MPDual(q, [-(q * b) * inv for b in self.der])

    def __pow__(self, n):
        out = self
        for _ in range(n - 1):
            out = out * self
        return out


# ---------------------------------------------------------------------------
# two-pass Dual[Interval] operators (the references for the one-pass kernels)

def two_pass_sum(alo, ahi, blo, bhi):
    """Padded sums of two lists of interval partials; an exact-zero pair
    leaves the other pair as it is."""
    out_lo, out_hi = [], []
    for a, b, c, d in zip(alo, ahi, blo, bhi):
        if a == 0.0 and b == 0.0:
            lo, hi = c, d
        elif c == 0.0 and d == 0.0:
            lo, hi = a, b
        else:
            lo = a + c
            hi = b + d
            lo -= abs(lo) * _PAD + _TINY
            hi += abs(hi) * _PAD + _TINY
        if not lo <= hi:
            x = Interval(a, b) + Interval(c, d)
            lo, hi = x.lo, x.hi
        out_lo.append(lo)
        out_hi.append(hi)
    return out_lo, out_hi


def two_pass_scaled(lo, hi, f, plus=None):
    """Padded products of interval partials with one factor f, a float or an
    Interval; with `plus`, a pair of partial lists, each product is then
    added to the matching partial of `plus` and padded again. An exact-zero
    pair's product is [0, 0], and a sum with an exact-zero pair is the other
    pair, both unpadded."""
    if isinstance(f, Interval):
        fl, fh = f.lo, f.hi
    else:
        fl = fh = f
    case = 0 if fl >= 0.0 else 1 if fh <= 0.0 else 2
    add_lo, add_hi = plus if plus is not None else (lo, hi)
    out_lo, out_hi = [], []
    for a, b, c, d in zip(lo, hi, add_lo, add_hi):
        zero = a == 0.0 and b == 0.0
        if zero:
            l = h = 0.0
        elif case == 0:
            l = a * fl if a >= 0.0 else a * fh
            h = b * fh if b >= 0.0 else b * fl
        elif case == 1:
            l = b * fl if b >= 0.0 else b * fh
            h = a * fh if a >= 0.0 else a * fl
        else:
            l = a * fh
            p = b * fl
            if p < l:
                l = p
            h = a * fl
            p = b * fh
            if p > h:
                h = p
        if not zero:
            l -= abs(l) * _PAD + _TINY
            h += abs(h) * _PAD + _TINY
        if plus is not None:
            if zero:
                l, h = c, d
            elif c != 0.0 or d != 0.0:
                l += c
                h += d
                l -= abs(l) * _PAD + _TINY
                h += abs(h) * _PAD + _TINY
        if not l <= h:
            x = Interval(a, b) * f
            if plus is not None and (c != 0.0 or d != 0.0):
                x = x + Interval(c, d)
            l, h = x.lo, x.hi
        out_lo.append(l)
        out_hi.append(h)
    return out_lo, out_hi


def _two_pass_neg(lo, hi):
    return [-h for h in hi], [-l for l in lo]


def _two_pass_ends(x):
    return x.lo, x.lo if x.hi is None else x.hi


def _two_pass_beside(x, c):
    """x's partial lists beside the constant c, whose partials are exact
    zeros and form no term: the points [d, d] when c is an Interval and x's
    partials are floats."""
    return _two_pass_ends(x) if isinstance(c, Interval) else (x.lo, x.hi)


def _two_pass_times(x, val, f):
    """A Dual of value val with x's partials times the constant f."""
    lo, hi = _two_pass_beside(x, f)
    if hi is None:
        return iv._dual(val, [a * f for a in lo])
    return iv._dual(val, *two_pass_scaled(lo, hi, f))


CONSTANT = (int, float, Interval)


def two_pass_add(self, other):
    if isinstance(other, CONSTANT):
        return iv._dual(self.val + other, *_two_pass_beside(self, other))
    if not isinstance(other, iv.Dual):
        return NotImplemented
    val = self.val + other.val
    if self.hi is None and other.hi is None:
        return iv._dual(val, [a + b for a, b in zip(self.lo, other.lo)])
    return iv._dual(val, *two_pass_sum(*_two_pass_ends(self), *_two_pass_ends(other)))


def two_pass_sub(self, other):
    if isinstance(other, CONSTANT):
        return iv._dual(self.val - other, *_two_pass_beside(self, other))
    if not isinstance(other, iv.Dual):
        return NotImplemented
    val = self.val - other.val
    if self.hi is None and other.hi is None:
        return iv._dual(val, [a - b for a, b in zip(self.lo, other.lo)])
    return iv._dual(val, *two_pass_sum(*_two_pass_ends(self),
                                       *_two_pass_neg(*_two_pass_ends(other))))


def two_pass_rsub(self, other):
    if not isinstance(other, CONSTANT):
        return NotImplemented
    lo, hi = _two_pass_beside(self, other)
    if hi is None:
        return iv._dual(other - self.val, [-a for a in lo])
    return iv._dual(other - self.val, *_two_pass_neg(lo, hi))


def two_pass_mul(self, other):
    if isinstance(other, CONSTANT):
        return _two_pass_times(self, self.val * other, other)
    if not isinstance(other, iv.Dual):
        return NotImplemented
    v, w = self.val, other.val
    val = v * w
    if self.hi is None and other.hi is None:
        return iv._dual(val, [a * w + v * b for a, b in zip(self.lo, other.lo)])
    return iv._dual(val, *two_pass_scaled(*_two_pass_ends(other), v,
                                          two_pass_scaled(*_two_pass_ends(self), w)))


def two_pass_truediv(self, other):
    if isinstance(other, CONSTANT):
        inv = 1.0 / other
        return _two_pass_times(self, self.val * inv, inv)
    if not isinstance(other, iv.Dual):
        return NotImplemented
    inv = 1.0 / other.val
    q = self.val * inv
    if self.hi is None and other.hi is None:
        return iv._dual(q, [(a - q * b) * inv for a, b in zip(self.lo, other.lo)])
    scaled = two_pass_scaled(*_two_pass_ends(other), q)
    diff = two_pass_sum(*_two_pass_ends(self), *_two_pass_neg(*scaled))
    return iv._dual(q, *two_pass_scaled(*diff, inv))


def two_pass_rtruediv(self, other):
    """other / self for a constant other: partials -(q * dx) / x, q = other / x."""
    if not isinstance(other, CONSTANT):
        return NotImplemented
    inv = 1.0 / self.val
    q = other * inv
    lo, hi = _two_pass_beside(self, q)
    if hi is None:
        return iv._dual(q, [-(q * a) * inv for a in lo])
    return iv._dual(q, *two_pass_scaled(*_two_pass_neg(*two_pass_scaled(lo, hi, q)), inv))


# Dual's operators as the two-pass forms; patch them in with the kernels
# (iv._sum, iv._scaled) to run the whole engine on the reference arithmetic
TWO_PASS_OPERATORS = {
    "__add__": two_pass_add, "__radd__": two_pass_add,
    "__sub__": two_pass_sub, "__rsub__": two_pass_rsub,
    "__mul__": two_pass_mul, "__rmul__": two_pass_mul,
    "__truediv__": two_pass_truediv, "__rtruediv__": two_pass_rtruediv,
}
TWO_PASS_KERNELS = {"_sum": two_pass_sum, "_scaled": two_pass_scaled}


# ---------------------------------------------------------------------------
# the reach step's remainder with one Interval object per operation

def remainder_intervals(lo, hi, c, J_int, J_c, u_set, fB, dt):
    """Remainder bounds per row as (lo, hi) lists, from Interval operators:
    (J_int - J_c)·dx over the hull about c, J_u·du, and J_int·fB·dt²/2. An
    entry that is exactly [0, 0], with J_c 0 there, adds no term."""
    def zero(i, j):
        J = J_int[i][j]
        return J.lo == 0.0 and J.hi == 0.0 and (j == 6 or J_c[i][j] == 0.0)

    du = u_set - u_set.mid
    dx = [Interval(lo[j] - c[j], hi[j] - c[j]) for j in range(6)]
    rem = []
    for i in range(6):
        acc = Interval(0.0)
        for j in range(6):
            if not zero(i, j):
                dJ = J_int[i][j] - J_c[i][j]
                acc = acc + dJ * dx[j]
        acc = acc * dt
        if not zero(i, 6):
            acc = acc + (J_int[i][6] * du) * dt
        trunc = Interval(0.0)
        for j in range(6):
            if not zero(i, j):
                trunc = trunc + J_int[i][j] * fB[j]
        acc = acc + trunc * (0.5 * dt * dt)
        rem.append(acc)
    return [r.lo for r in rem], [r.hi for r in rem]


# ---------------------------------------------------------------------------
# the training kernel with per-layer gradient lists, a rebuilt network per
# descent step and a loss pass apart from each PGD input-gradient pass

class ListGradient:
    """Per-layer gradient arrays, each its own allocation."""

    def __init__(self, dw, db):
        self.dw, self.db = dw, db

    def scaled(self, f):
        return ListGradient([w * f for w in self.dw], [b * f for b in self.db])

    def add_(self, other, f=1.0):
        for i in range(len(self.dw)):
            self.dw[i] += f * other.dw[i]
            self.db[i] += f * other.db[i]
        return self


def backprop_lists(net, acts, pres, dL_dy):
    n = dL_dy.shape[0]
    dw = [None] * len(net.layers)
    db = [None] * len(net.layers)
    delta = dL_dy
    for i in reversed(range(len(net.layers))):
        layer = net.layers[i]
        if layer.act == "relu":
            delta = delta * (pres[i] > 0.0)
        dw[i] = delta.T @ acts[i] / n
        db[i] = delta.sum(axis=0) / n
        if i > 0:
            delta = delta @ layer.w
    return ListGradient(dw, db)


def gradient_lists(net, X, Y):
    acts, pres = mlp._forward_trace(net, X)
    return backprop_lists(net, acts, pres, (2.0 * (acts[-1][:, 0] - Y))[:, None])


def input_gradient_only(net, X, Y):
    acts, pres = mlp._forward_trace(net, X)
    delta = 2.0 * (acts[-1][:, 0] - Y)[:, None]
    for i in reversed(range(len(net.layers))):
        layer = net.layers[i]
        if layer.act == "relu":
            delta = delta * (pres[i] > 0.0)
        delta = delta @ layer.w
    return delta


def apply_gradient_per_layer(net, g, lr):
    """A new network per step: every layer rebuilt (and checked finite)."""
    layers = tuple(Layer(l.w - lr * gw, l.b - lr * gb, l.act)
                   for l, gw, gb in zip(net.layers, g.dw, g.db))
    return Network(layers, norm=net.norm, meta=dict(net.meta))


def pgd_two_pass(net, X, Y, cfg, box, rng):
    """Best-iterate PGD with a forward pass for each iterate's loss apart
    from the one its input gradient walks back."""
    box_lo = np.asarray(box[0], dtype=float)
    box_hi = np.asarray(box[1], dtype=float)
    best_X = X.copy()
    best_loss = (mlp.forward_batch(net, X) - Y) ** 2
    for restart in range(cfg.restarts):
        if restart == 0:
            cur = X.copy()
        else:
            cur = robust._project(X + rng.uniform(-cfg.epsilon, cfg.epsilon, size=X.shape),
                                  X, cfg.epsilon, box_lo, box_hi)
        for _ in range(cfg.steps):
            g = input_gradient_only(net, cur, Y)
            cur = robust._project(cur + cfg.step * np.sign(g), X, cfg.epsilon,
                                  box_lo, box_hi)
            loss = (mlp.forward_batch(net, cur) - Y) ** 2
            better = loss > best_loss
            best_X[better] = cur[better]
            best_loss[better] = loss[better]
    return best_X


def descend_per_layer(net, X, Y, batch_gradient, epochs, lr, seed, batch_size, meta):
    rng = np.random.default_rng(seed)
    cur = net
    n = X.shape[0]
    for _ in range(epochs):
        order = rng.permutation(n)
        for start in range(0, n, batch_size):
            idx = order[start:start + batch_size]
            cur = apply_gradient_per_layer(cur, batch_gradient(cur, X[idx], Y[idx]), lr)
    out = dict(cur.meta)
    out.update(meta)
    out["train_rmse"] = mlp.final_rmse(cur, X, Y, epochs)
    return Network(cur.layers, norm=cur.norm, meta=out)


def train_per_layer(net, X, Y, epochs, lr, seed, batch_size):
    meta = {"kind": net.meta.get("kind", "naive"), "epochs": epochs, "lr": lr,
            "seed": seed, "batch_size": batch_size}
    return descend_per_layer(net, X, Y, gradient_lists, epochs, lr, seed, batch_size, meta)


def train_adversarial_two_pass(net0, X, Y, cfg, box):
    attack_rng = np.random.default_rng(cfg.seed + 1)

    def lipschitz_term(cur, x, x_adv):
        d = float(np.max(np.abs(x - x_adv)))
        acts_a, pres_a = mlp._forward_trace(cur, x[None, :])
        acts_b, pres_b = mlp._forward_trace(cur, x_adv[None, :])
        sign = 1.0 if acts_a[-1][0, 0] >= acts_b[-1][0, 0] else -1.0
        one = np.ones((1, 1))
        ga = backprop_lists(cur, acts_a, pres_a, one * (sign / d))
        return ga.add_(backprop_lists(cur, acts_b, pres_b, one * (-sign / d)))

    def batch_gradient(cur, Xb, Yb):
        Xa = pgd_two_pass(cur, Xb, Yb, cfg.attack, box, attack_rng)
        g = gradient_lists(cur, Xb, Yb).scaled(0.5)
        g.add_(gradient_lists(cur, Xa, Yb), f=0.5)
        if cfg.lambda_lip > 0:
            k = robust.max_lipschitz_quotient(cur, Xb, Xa)[1]
            if k is not None:
                g.add_(lipschitz_term(cur, Xb[k], Xa[k]), f=cfg.lambda_lip)
        return g

    meta = {"kind": "adversarial", "epochs": cfg.epochs, "lr": cfg.lr,
            "seed": cfg.seed, "batch_size": cfg.batch_size,
            "epsilon": cfg.attack.epsilon, "pgd_steps": cfg.attack.steps,
            "restarts": cfg.attack.restarts, "lambda_lip": cfg.lambda_lip}
    return descend_per_layer(net0, X, Y, batch_gradient, cfg.epochs, cfg.lr, cfg.seed,
                             cfg.batch_size, meta)
