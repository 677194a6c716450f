"""Sound and complete verification of linear properties of small ReLU nets.

Branch and bound over unstable ReLU phases: the one bound propagator
(mlp.propagate_bounds: the zonotope ReLU abstraction intersected with
interval bounds, which reach also uses) fixes stable neurons and bounds the
unstable ones. A conclusion row that the node's output zonotope bounds
within the LP margin closes without an LP; each other negated conclusion
becomes an LP over the inputs plus one variable per unstable neuron
(triangle relaxation, which lies inside the zonotope), and the LP optimum
is replayed through the concrete network. Genuine violations falsify;
spurious optima split the widest unstable neuron. An exhausted tree verifies
the property. Leaf LPs are exact (the network is affine on a fixed pattern),
so max violation <= tolerance at a leaf closes that cell.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import lp as lpmod
from . import mlp
from .mlp import Network
from .zono import Zonotope

REPLAY_TOL = 1e-9
LP_MARGIN = 1e-9
MAX_RELUS = 30
TIGHTEN_PASSES = 8        # sweeps of the premise rows over the box


@dataclass(frozen=True)
class LinConstraint:
    """Linear constraint over named network inputs and outputs."""

    in_coef: tuple
    out_coef: tuple
    rel: str          # "<=" | ">=" | "="
    rhs: float

    def __post_init__(self):
        object.__setattr__(self, "in_coef", tuple(float(v) for v in self.in_coef))
        object.__setattr__(self, "out_coef", tuple(float(v) for v in self.out_coef))
        if self.rel not in ("<=", ">=", "="):
            raise ValueError(f"bad relation {self.rel!r}")
        if not all(math.isfinite(v) for v in self.in_coef + self.out_coef + (self.rhs,)):
            raise ValueError("constraint coefficients and rhs must be finite")
        if all(v == 0.0 for v in self.in_coef) and all(v == 0.0 for v in self.out_coef):
            raise ValueError("constraint must have a nonzero coefficient")

    @property
    def input_only(self) -> bool:
        return all(v == 0.0 for v in self.out_coef)

    def as_leq(self):
        """Equivalent list of (in_coef, out_coef, rhs) rows in <= form."""
        ic, oc = np.array(self.in_coef), np.array(self.out_coef)
        if self.rel == "<=":
            return [(ic, oc, self.rhs)]
        if self.rel == ">=":
            return [(-ic, -oc, -self.rhs)]
        return [(ic, oc, self.rhs), (-ic, -oc, -self.rhs)]

    def to_json(self):
        return {"in": list(self.in_coef), "out": list(self.out_coef),
                "rel": self.rel, "rhs": self.rhs}

    @staticmethod
    def from_json(d) -> "LinConstraint":
        return LinConstraint(tuple(d["in"]), tuple(d["out"]), d["rel"], d["rhs"])


@dataclass(frozen=True)
class PropertySpec:
    name: str
    input_box: tuple                  # ((lo, hi), ...) per input
    premise: tuple                    # LinConstraints over inputs only
    conclusion: tuple                 # conjunction of LinConstraints
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "input_box",
                           tuple((float(lo), float(hi)) for lo, hi in self.input_box))
        object.__setattr__(self, "premise", tuple(self.premise))
        object.__setattr__(self, "conclusion", tuple(self.conclusion))
        for i, (lo, hi) in enumerate(self.input_box):
            if not -math.inf < lo <= hi < math.inf:
                raise ValueError(f"input_box[{i}] must be finite with lo <= hi, "
                                 f"got [{lo}, {hi}]")
        for part, cs in (("premise", self.premise), ("conclusion", self.conclusion)):
            for k, c in enumerate(cs):
                if len(c.in_coef) != self.n_in:
                    raise ValueError(f"{part}[{k}]: {len(c.in_coef)} 'in' "
                                     f"coefficients for {self.n_in} inputs")
        for c in self.premise:
            if not c.input_only:
                raise ValueError("premise constraints must be over inputs only")

    @property
    def n_in(self) -> int:
        return len(self.input_box)

    def to_json(self) -> str:
        return json.dumps({
            "name": self.name,
            "input_box": [[lo, hi] for lo, hi in self.input_box],
            "premise": [c.to_json() for c in self.premise],
            "conclusion": [c.to_json() for c in self.conclusion],
            "params": self.params,
        })

    @staticmethod
    def from_json(text: str) -> "PropertySpec":
        d = json.loads(text)
        try:
            return PropertySpec(d["name"],
                                tuple((lo, hi) for lo, hi in d["input_box"]),
                                tuple(LinConstraint.from_json(c) for c in d["premise"]),
                                tuple(LinConstraint.from_json(c) for c in d["conclusion"]),
                                d.get("params", {}))
        except KeyError as exc:
            raise ValueError(f"missing field {exc}") from exc
        except TypeError as exc:
            raise ValueError(f"malformed spec: {exc}") from exc


@dataclass
class Verdict:
    status: str                        # "verified" | "falsified" | "timeout"
    vacuous: bool = False
    witness: np.ndarray | None = None
    witness_outputs: np.ndarray | None = None
    nodes: int = 0
    lp_calls: int = 0
    seconds: float = 0.0

    @property
    def verified(self) -> bool:
        return self.status == "verified"


@dataclass(frozen=True)
class Budget:
    max_nodes: int = 200000
    max_seconds: float = 60.0


# per-query budget of the robustness grid; its node cap is the one place the
# grid's cap is set (a shipped 6-6-4-1-1 clone's tree has at most 4095 nodes)
SWEEP_QUERY_BUDGET = Budget(max_nodes=20000, max_seconds=5.0)
# epsilon and L* values of the robustness grid
SWEEP_GRID = (1e-5, 1e-4, 1e-3, 1e-2)


# ---------------------------------------------------------------------------
# property encodings

@dataclass(frozen=True)
class PropertyThresholds:
    """Actuation and state thresholds used by the four trajectory properties."""

    u_center: float = 0.187
    u_lo: float = 0.184
    u_hi: float = 0.19
    pitch_lo: float = -0.786
    pitch_hi: float = -0.747
    x3_max: float = -0.12
    x2_max: float = -0.3


def _in_vec(n, **kw):
    v = [0.0] * n
    for idx, val in kw.items():
        v[int(idx)] = val
    return tuple(v)


def encode_property(kind: int, ystar: float, box,
                    thresholds: PropertyThresholds = PropertyThresholds()) -> PropertySpec:
    """Trajectory-adherence properties 1-4 over a raw-unit input box.

    1: above the line by ystar      => output >= u_center (commands descent)
    2: below the line by ystar      => output <= u_center
    3: within ystar of the line and pitch in a window => output in [u_lo, u_hi]
    4: above and near the line, pitching down fast and sinking => output <= u_center
    """
    box = tuple((float(lo), float(hi)) for lo, hi in box)
    n = len(box)
    t = thresholds
    line = _in_vec(n, **{"4": 1.0, "5": 1.0})     # x5 + x6
    out1 = (1.0,)
    if kind == 1:
        premise = (LinConstraint(line, (0.0,), ">=", ystar),)
        conclusion = (LinConstraint((0.0,) * n, out1, ">=", t.u_center),)
    elif kind == 2:
        premise = (LinConstraint(line, (0.0,), "<=", -ystar),)
        conclusion = (LinConstraint((0.0,) * n, out1, "<=", t.u_center),)
    elif kind == 3:
        premise = (LinConstraint(line, (0.0,), ">=", -ystar),
                   LinConstraint(line, (0.0,), "<=", ystar),
                   LinConstraint(_in_vec(n, **{"3": 1.0}), (0.0,), ">=", t.pitch_lo),
                   LinConstraint(_in_vec(n, **{"3": 1.0}), (0.0,), "<=", t.pitch_hi))
        conclusion = (LinConstraint((0.0,) * n, out1, ">=", t.u_lo),
                      LinConstraint((0.0,) * n, out1, "<=", t.u_hi))
    elif kind == 4:
        premise = (LinConstraint(line, (0.0,), ">=", 0.0),
                   LinConstraint(line, (0.0,), "<=", ystar),
                   LinConstraint(_in_vec(n, **{"2": 1.0}), (0.0,), "<=", t.x3_max),
                   LinConstraint(_in_vec(n, **{"1": 1.0}), (0.0,), "<=", t.x2_max))
        conclusion = (LinConstraint((0.0,) * n, out1, "<=", t.u_center),)
    else:
        raise ValueError(f"property kind must be 1..4, got {kind}")
    return PropertySpec(f"property{kind}", box, premise, conclusion,
                        {"ystar": ystar, "kind": kind})


def encode_robustness(net: Network, x0, epsilon: float, lstar: float,
                      box) -> PropertySpec:
    """Output stays within L*/epsilon of f(x0) on the epsilon-ball around x0.

    f(x0) is evaluated concretely and folded into the conclusion constants
    (the doubled-network formulation with one copy pinned).
    """
    x0 = np.asarray(x0, dtype=float)
    return _robustness_spec(x0, mlp.forward(net, x0), epsilon, lstar, box)


def _robustness_spec(x0: np.ndarray, f0: float, epsilon: float, lstar: float,
                     box) -> PropertySpec:
    """encode_robustness with f(x0) = f0 given."""
    n = x0.shape[0]
    bound = lstar / epsilon
    ball = tuple((max(box[i][0], x0[i] - epsilon), min(box[i][1], x0[i] + epsilon))
                 for i in range(n))
    conclusion = (LinConstraint((0.0,) * n, (1.0,), "<=", f0 + bound),
                  LinConstraint((0.0,) * n, (1.0,), ">=", f0 - bound))
    return PropertySpec("robustness", ball, (), conclusion,
                        {"epsilon": epsilon, "lstar": lstar, "f0": f0})


# ---------------------------------------------------------------------------
# interval reasoning

def input_rows(constraints, n: int):
    """Input-space constraints as one <= system (A, b), rows in `as_leq` order."""
    rows = [row for c in constraints for row in c.as_leq()]
    if any(np.any(oc != 0.0) for _, oc, _ in rows):
        raise ValueError("input_rows handles input-space constraints only")
    return (np.array([ic for ic, _, _ in rows], dtype=float).reshape(len(rows), n),
            np.array([rhs for _, _, rhs in rows], dtype=float))


def tighten_box(box, A, b):
    """Interval-consistency contraction of the box under the rows A x <= b.

    Returns (lo, hi, empty).
    """
    lo = np.array([l for l, _ in box], dtype=float)
    hi = np.array([h for _, h in box], dtype=float)
    for _ in range(TIGHTEN_PASSES):
        changed = False
        for a, rhs in zip(A, b):
            mins = np.where(a > 0, a * lo, a * hi)
            total = mins.sum()
            for i in np.flatnonzero(a):
                rest = total - mins[i]
                if a[i] > 0:
                    new_hi = (rhs - rest) / a[i]
                    if new_hi < hi[i] - 1e-15:
                        hi[i] = new_hi
                        changed = True
                else:
                    new_lo = (rhs - rest) / a[i]
                    if new_lo > lo[i] + 1e-15:
                        lo[i] = new_lo
                        changed = True
            if (lo > hi + 1e-12).any():
                return lo, hi, True
        if not changed:
            break
    return lo, hi, (lo > hi + 1e-12).any()


def interval_bounds(net: Network, box, phases=None):
    """mlp.propagate_bounds (the propagator reach uses) over the box as a
    zonotope (centre the midpoint, generators diag(radius)) under forced
    phases: its dict (pre, status, empty) plus box (lo, hi)."""
    lo, hi = np.array(box, dtype=float).T
    info = mlp.propagate_bounds(net, Zonotope(0.5 * (lo + hi), np.diag(0.5 * (hi - lo))),
                                phases)
    info["box"] = (lo, hi)
    return info


# ---------------------------------------------------------------------------
# LP encoding of one branch-and-bound node

class _NodeLp:
    """Affine encoding of the network under the node's neuron statuses, as
    <= rows over the inputs and one variable per unstable neuron (triangle
    relaxation), followed by the premise rows."""

    def __init__(self, net: Network, info, phases, premise):
        lo, hi = info["box"]
        self.n_in = n_in = lo.shape[0]
        self.unstable = unstable = [(li, j) for li, st in enumerate(info["status"])
                                    if st is not None for j, s in enumerate(st) if s == "U"]
        z_of = {nz: n_in + k for k, nz in enumerate(unstable)}
        self.nv = nv = n_in + len(unstable)
        self.var_lo = np.concatenate([lo, np.zeros(len(unstable))])
        z_hi = [max(info["pre"][li][1][j], 0.0) for li, j in unstable]
        self.var_hi = np.concatenate([hi, np.array(z_hi)])

        rows, rhs = [], []          # rows[k] . v <= rhs[k]
        coefs = np.eye(n_in, nv)
        consts = np.zeros(n_in)
        for li, layer in enumerate(net.layers):
            p_coefs = layer.w @ coefs
            p_consts = layer.w @ consts + layer.b
            if layer.act == "id":
                coefs, consts = p_coefs, p_consts
                continue
            p_lo, p_hi = info["pre"][li]
            n_coefs = np.zeros_like(p_coefs)
            n_consts = np.zeros(p_consts.shape[0])
            for j, s in enumerate(info["status"][li]):
                forced = phases.get((li, j))
                if s == "A":
                    if forced == 1:     # pre >= 0
                        rows.append(-p_coefs[j]); rhs.append(p_consts[j])
                    n_coefs[j] = p_coefs[j]
                    n_consts[j] = p_consts[j]
                elif s == "I":
                    if forced == 0:     # pre <= 0; output already zero
                        rows.append(p_coefs[j]); rhs.append(-p_consts[j])
                else:
                    ez = np.zeros(nv)
                    ez[z_of[(li, j)]] = 1.0
                    # z >= pre
                    rows.append(p_coefs[j] - ez); rhs.append(-p_consts[j])
                    # z <= lam * (pre - l)
                    l, u = p_lo[j], p_hi[j]
                    lam = u / (u - l)
                    rows.append(ez - lam * p_coefs[j]); rhs.append(lam * (p_consts[j] - l))
                    n_coefs[j] = ez
                    n_consts[j] = 0.0
            coefs, consts = n_coefs, n_consts
        self.out_coefs = coefs
        self.out_consts = consts
        # node rows, premise rows, and a last row for each negated conclusion
        p_a, p_b = premise
        k = len(rows)
        self.A = np.zeros((k + len(p_b) + 1, nv))
        if k:
            self.A[:k] = rows
        self.A[k:-1, :n_in] = p_a
        self.b = np.concatenate([rhs, p_b, [0.0]])

    def solve_negation(self, row):
        """Maximize the violation of one conclusion row (ic, oc, rhs), meaning
        ic.x + oc.y <= rhs, subject to the node and premise rows.

        Returns (lp_solution, violation, point) or (None, None, None) when the
        relaxation is infeasible.
        """
        ic, oc, rhs = row
        vec = np.zeros(self.nv)
        vec[:self.n_in] = ic
        vec = vec + oc @ self.out_coefs
        off = float(oc @ self.out_consts) - rhs
        # violation vec.v + off >= 0 as the last row, -vec.v <= off
        A, b = self.A.copy(), self.b.copy()
        A[-1] = -vec
        b[-1] = off
        sol = lpmod.solve_lp(A, ("<=",) * len(b), b, self.var_lo, self.var_hi,
                             objective=vec)
        if not sol.feasible:
            return None, None, None
        return sol, sol.objective + off, sol.x[:self.n_in]


def constraint_violation(c: LinConstraint, x, y) -> float:
    """Largest value of lhs - rhs over the constraint's <= rows; y may be
    empty for an input-only constraint."""
    yv = np.atleast_1d(y)
    return max(float(np.dot(ic, x)) + (float(np.dot(oc, yv)) if yv.size else 0.0) - rhs
               for ic, oc, rhs in c.as_leq())


def premise_holds(spec: PropertySpec, x, tol: float = REPLAY_TOL) -> bool:
    for lo_hi, xi in zip(spec.input_box, x):
        if xi < lo_hi[0] - tol or xi > lo_hi[1] + tol:
            return False
    return all(constraint_violation(c, x, ()) <= tol for c in spec.premise)


def lp_feasible(A, b, box):
    """Feasibility of the input-space rows A x <= b over a box.

    Returns an LpSolution whose x is a satisfying input point.
    """
    return lpmod.solve_lp(A, ("<=",) * len(b), b, [l for l, _ in box], [h for _, h in box])


def zonotope_violation(info, in_coef, out_coef, rhs):
    """Exact max of in_coef.x + out_coef.y - rhs, one value per <= row, over
    the node's joint input/output zonotope: the inputs are the box's centre
    plus diag(radius) xi, the outputs info["out"], whose first n_in
    generators are those of the inputs. The node LP's feasible set (exact
    affine layers, triangle relaxation, premise rows) lies inside it."""
    lo, hi = info["box"]
    c_out, G_out = info["out"]
    gens = out_coef @ G_out
    gens[:, :lo.shape[0]] += in_coef * (0.5 * (hi - lo))
    return in_coef @ (0.5 * (lo + hi)) + out_coef @ c_out + np.abs(gens).sum(axis=1) - rhs


def bab_verify(net: Network, spec: PropertySpec, budget: Budget = Budget()) -> Verdict:
    """Complete branch-and-bound verification of spec on net."""
    if net.n_relu > MAX_RELUS:
        raise ValueError(f"network has {net.n_relu} ReLUs; verifier accepts <= {MAX_RELUS}")
    if net.n_in != spec.n_in:
        raise ValueError("spec input arity does not match network")
    for k, c in enumerate(spec.conclusion):
        if len(c.out_coef) != net.widths[-1]:
            raise ValueError(f"conclusion[{k}]: {len(c.out_coef)} 'out' "
                             f"coefficients for {net.widths[-1]} network outputs")
    t0 = time.perf_counter()
    stats = {"nodes": 0, "lp": 0}

    # the premise as one <= system (A, b) per query; the conclusion as <= rows,
    # each closed by a node's output zonotope or negated in a node LP of its own
    premise = input_rows(spec.premise, spec.n_in)
    rows = [row for c in spec.conclusion for row in c.as_leq()]
    row_in = np.array([ic for ic, _, _ in rows], dtype=float).reshape(len(rows), spec.n_in)
    row_out = np.array([oc for _, oc, _ in rows], dtype=float).reshape(len(rows), net.widths[-1])
    row_rhs = np.array([rhs for _, _, rhs in rows], dtype=float)

    # vacuity: premise inconsistent with the box (an empty premise holds on
    # the box, which the spec keeps non-empty)
    box = spec.input_box
    if spec.premise:
        feas = lp_feasible(*premise, box)
        stats["lp"] += 1
        if not feas.feasible:
            return Verdict("verified", vacuous=True, nodes=0, lp_calls=stats["lp"],
                           seconds=time.perf_counter() - t0)
        # the premise contracts the box once per query; every node starts
        # from the contracted box. A premise the LP accepts within tolerance
        # can still empty it: the root node then closes without an LP.
        lo, hi, empty = tighten_box(box, *premise)
        if empty:
            return Verdict("verified", nodes=1, lp_calls=stats["lp"],
                           seconds=time.perf_counter() - t0)
        box = tuple(zip(lo, hi))

    # DFS over phase assignments; each entry carries the conclusion rows still open
    stack = [({}, list(range(len(rows))))]
    while stack:
        if stats["nodes"] >= budget.max_nodes or \
           time.perf_counter() - t0 > budget.max_seconds:
            return Verdict("timeout", nodes=stats["nodes"], lp_calls=stats["lp"],
                           seconds=time.perf_counter() - t0)
        phases, pending = stack.pop()
        stats["nodes"] += 1
        info = interval_bounds(net, box, phases)
        if info["empty"]:
            continue
        # a row the output zonotope bounds within the LP's margin holds on
        # the node's LP feasible set too: it closes without an LP
        zono_viol = zonotope_violation(info, row_in, row_out, row_rhs)
        pending = [ci for ci in pending if zono_viol[ci] > LP_MARGIN]
        if not pending:
            continue
        node = _NodeLp(net, info, phases, premise)
        still_open = []
        for ci in pending:
            sol, viol, x = node.solve_negation(rows[ci])
            stats["lp"] += 1
            if sol is None or viol <= LP_MARGIN:
                continue   # conclusion row holds on this node
            y = mlp.forward_batch(net, x[None, :])[0]
            if premise_holds(spec, x):
                worst = max(constraint_violation(c, x, y) for c in spec.conclusion)
                if worst > REPLAY_TOL:
                    return Verdict("falsified", witness=x,
                                   witness_outputs=np.atleast_1d(y),
                                   nodes=stats["nodes"], lp_calls=stats["lp"],
                                   seconds=time.perf_counter() - t0)
            if node.unstable:
                still_open.append(ci)
            # else an exact leaf: the LP optimum replays below tolerance, the
            # cell is safe
        if still_open:
            li, j = _pick_split(info)
            active = dict(phases)
            active[(li, j)] = 1
            inactive = dict(phases)
            inactive[(li, j)] = 0
            # inactive child explored first (deterministic DFS order)
            stack.append((active, still_open))
            stack.append((inactive, still_open))
    return Verdict("verified", nodes=stats["nodes"], lp_calls=stats["lp"],
                   seconds=time.perf_counter() - t0)


def _pick_split(info):
    """Widest unstable pre-activation interval containing zero; ties break to
    the lowest layer then lowest index. A forced neuron is never unstable."""
    best = None
    best_width = -1.0
    for li, st in enumerate(info["status"]):
        if st is None:
            continue
        p_lo, p_hi = info["pre"][li]
        for j, s in enumerate(st):
            if s != "U":
                continue
            width = p_hi[j] - p_lo[j]
            if width > best_width + 1e-15:
                best_width = width
                best = (li, j)
    if best is None:
        raise RuntimeError("split requested with no unstable neuron")
    return best


# ---------------------------------------------------------------------------
# critical-ystar search and the robustness grid

@dataclass
class CriticalResult:
    value: float | None            # None = Failed
    flagged_timeout: bool = False
    vacuous: bool = False

    @property
    def failed(self) -> bool:
        return self.value is None


def find_critical_ystar(net: Network, kind: int, box,
                        resolution: float = 1.0, search_max: float = 50.0,
                        thresholds: PropertyThresholds = PropertyThresholds(),
                        budget: Budget = Budget()) -> CriticalResult:
    """Critical threshold distance for one trajectory property.

    Kinds 1/2/4: smallest verified ystar (premise shrinks as ystar grows).
    Kind 3: largest verified ystar (premise grows), Failed when none verifies.
    Integer-grid sweep locates the transition, bisection refines it to
    `resolution`. Timeout probes flag the result as a bound.
    """
    if kind not in (1, 2, 3, 4):
        raise ValueError(f"property kind must be 1..4, got {kind}")
    if resolution <= 0:
        raise ValueError("resolution must be > 0")
    if search_max < resolution:
        raise ValueError(f"search_max must be >= resolution, got search_max="
                         f"{search_max} and resolution={resolution}")
    res = CriticalResult(None)

    def probe(y):
        v = bab_verify(net, encode_property(kind, y, box, thresholds), budget)
        if v.status == "timeout":
            res.flagged_timeout = True
        return v

    if kind in (1, 2, 4):
        hi = None
        prev = 0.0
        y = 0.0
        while y <= search_max + 1e-12:
            v = probe(y)
            if v.verified:
                hi = y
                hi_vac = v.vacuous
                break
            prev = y
            y = y + max(1.0, resolution)
        if hi is None:
            return res
        lo = prev
        while hi - lo > resolution:
            mid = 0.5 * (lo + hi)
            v = probe(mid)
            if v.verified:
                hi, hi_vac = mid, v.vacuous
            else:
                lo = mid
        res.value = hi
        res.vacuous = hi_vac
        return res

    # kind 3: resolution first, then the grid past it
    v = probe(resolution)
    if not v.verified or v.vacuous:
        return res
    lo = resolution
    y = 1.0 if resolution < 1.0 else 2.0 * resolution
    while y <= search_max + 1e-12:
        v = probe(y)
        if v.verified and not v.vacuous:
            lo = y
            y += max(1.0, resolution)
        else:
            break
    hi = min(y, search_max)
    while hi - lo > resolution:
        mid = 0.5 * (lo + hi)
        v = probe(mid)
        if v.verified and not v.vacuous:
            lo = mid
        else:
            hi = mid
    res.value = lo     # a vacuous probe never counts for kind 3
    return res


@dataclass
class SweepCell:
    rate: float | None            # None = absent (budget ran out)
    n_verified: int = 0
    n_done: int = 0
    seconds: float = 0.0
    timeouts: int = 0


def robustness_sweep(net: Network, X: np.ndarray,
                     eps_list=SWEEP_GRID, lstar_list=SWEEP_GRID,
                     n_points: int = 100,
                     per_query_budget: Budget = SWEEP_QUERY_BUDGET,
                     cell_budget_s: float = 60.0) -> dict:
    """Verification success rate per (epsilon, L*) cell over dataset points;
    the epsilon-balls are clipped to the data's bounding box.

    A cell is marked absent (rate None) when its cumulative time exceeds
    cell_budget_s before n_points queries complete.
    """
    if n_points < 1:
        raise ValueError(f"n_points must be >= 1, got {n_points}")
    X = np.atleast_2d(np.asarray(X, dtype=float))
    box = tuple((float(X[:, i].min()), float(X[:, i].max()))
                for i in range(X.shape[1]))
    quota = min(n_points, X.shape[0])
    # f(x0) of every point in one trace of 1-row slices: mlp.forward's bits
    f0 = mlp.forward_batch(net, X[:quota, None, :])[:, 0].tolist()
    grid = {}
    for eps in eps_list:
        for lstar in lstar_list:
            cell = SweepCell(rate=None)
            t0 = time.perf_counter()
            for k in range(quota):
                if time.perf_counter() - t0 > cell_budget_s:
                    break
                spec = _robustness_spec(X[k], f0[k], eps, lstar, box)
                v = bab_verify(net, spec, per_query_budget)
                cell.n_done += 1
                if v.verified:
                    cell.n_verified += 1
                elif v.status == "timeout":
                    cell.timeouts += 1
            cell.seconds = time.perf_counter() - t0
            if cell.n_done == quota:
                cell.rate = cell.n_verified / quota
            grid[(eps, lstar)] = cell
    return grid


def results_to_csv(rows, path):
    """rows: iterable of (property, param, Verdict)."""
    with open(path, "w") as fh:
        fh.write("property,param,verdict,vacuous,witness,nodes,lp_calls,seconds\n")
        for name, param, v in rows:
            wit = "" if v.witness is None else \
                ";".join(format(x, ".17g") for x in v.witness)
            fh.write(f"{name},{param},{v.status},{int(v.vacuous)},{wit},"
                     f"{v.nodes},{v.lp_calls},{format(v.seconds, '.3f')}\n")
