"""Correctness checks made apart from the program.

Networks are evaluated with plain numpy from their JSON files, the teacher
and the plate dynamics come from the second transcription in `plate.py`, the
trajectory properties are restated from their definitions, and node LPs are
re-solved with SciPy's HiGHS. Every check raises `CheckError` on the first
fault it finds.
"""

from __future__ import annotations

import csv
import json
import math

import numpy as np

import plate

TOL = 1e-9                 # replay / containment tolerance, as the program's
HELDOUT_RMSE_BOUND = 0.05  # acceptance criterion 3, normalized units
THRESHOLDS = {"u_center": 0.187, "u_lo": 0.184, "u_hi": 0.19,
              "pitch_lo": -0.786, "pitch_hi": -0.747,
              "x3_max": -0.12, "x2_max": -0.3}


class CheckError(AssertionError):
    """An output of the program is wrong."""


def require(ok, message):
    if not ok:
        raise CheckError(message)


# ---------------------------------------------------------------------------
# networks

class NumpyNet:
    """A ReLU network read from the program's JSON format."""

    def __init__(self, doc):
        self.doc = doc
        self.layers = [(np.array(l["w"], dtype=float), np.array(l["b"], dtype=float),
                        l["act"]) for l in doc["layers"]]
        norm = doc.get("norm")
        if norm is None:
            self.in_lo, self.in_scale = 0.0, 1.0
            self.out_lo, self.out_scale = 0.0, 1.0
        else:
            self.in_lo = np.array(norm["in_min"])
            self.in_scale = np.array(norm["in_max"]) - self.in_lo
            self.out_lo = norm["out_min"]
            self.out_scale = norm["out_max"] - norm["out_min"]
        self.box = None if norm is None else (np.array(norm["in_min"]),
                                              np.array(norm["in_max"]))

    @staticmethod
    def load(path):
        with open(path) as fh:
            return NumpyNet(json.load(fh))

    def core(self):
        """The same layers without normalization (normalized units)."""
        return NumpyNet(dict(self.doc, norm=None))

    def _trace(self, X):
        a = (np.atleast_2d(np.asarray(X, dtype=float)) - self.in_lo) / self.in_scale
        masks = []
        for w, b, act in self.layers:
            a = a @ w.T + b
            if act == "relu":
                masks.append(a > 0.0)
                a = np.maximum(a, 0.0)
            else:
                masks.append(None)
        return a[:, 0] * self.out_scale + self.out_lo, masks

    def __call__(self, X):
        """Raw-unit outputs (n,) for raw-unit inputs (n, d)."""
        return self._trace(X)[0]

    def input_gradient(self, X):
        """d output / d input (n, d), in raw units."""
        _, masks = self._trace(X)
        delta = np.full((masks[0].shape[0], 1), self.out_scale)
        for (w, _, _), mask in zip(reversed(self.layers), reversed(masks)):
            if mask is not None:
                delta = delta * mask
            delta = delta @ w
        return delta / self.in_scale


# ---------------------------------------------------------------------------
# linear specifications (the program's PropertySpec JSON)

def _rows(constraints):
    return [(np.array(c["in"]), np.array(c["out"]), c["rel"], c["rhs"])
            for c in constraints]


def _violation(rows, X, Y):
    """Largest violation over rows, per sample (<= 0 where all hold)."""
    worst = np.full(X.shape[0], -np.inf)
    for ic, oc, rel, rhs in rows:
        v = X @ ic + (Y[:, None] @ oc[None, :]).sum(axis=1) if oc.size else X @ ic
        gap = {"<=": v - rhs, ">=": rhs - v, "=": np.abs(v - rhs)}[rel]
        worst = np.maximum(worst, gap)
    return worst


def spec_box(spec):
    box = np.array(spec["input_box"], dtype=float)
    return box[:, 0], box[:, 1]


def premise_holds(spec, X, tol=TOL):
    lo, hi = spec_box(spec)
    ok = np.all((X >= lo - tol) & (X <= hi + tol), axis=1)
    if spec["premise"]:
        ok &= _violation(_rows(spec["premise"]), X, np.zeros(X.shape[0])) <= tol
    return ok


def conclusion_violation(spec, X, Y):
    return _violation(_rows(spec["conclusion"]), X, Y)


def check_witness(net, spec, witness, label):
    """A falsified verdict's witness lies in the premise and breaks the conclusion."""
    require(witness is not None and len(witness) == len(spec["input_box"]),
            f"{label}: falsified without a witness")
    x = np.asarray(witness, dtype=float)[None, :]
    require(premise_holds(spec, x)[0], f"{label}: witness outside the premise")
    viol = conclusion_violation(spec, x, net(x))[0]
    require(viol > TOL, f"{label}: witness does not replay (violation {viol:.3g})")


def probe_verified(net, spec, rng, label, n_samples=2000, pgd_steps=30):
    """A verified query survives uniform sampling and, for box-only premises,
    projected sign-gradient ascent on the conclusion violation."""
    lo, hi = spec_box(spec)
    X = rng.uniform(lo, hi, size=(n_samples, lo.shape[0]))
    X = np.vstack([X, 0.5 * (lo + hi)[None, :]])
    keep = premise_holds(spec, X)
    if keep.any():
        worst = conclusion_violation(spec, X[keep], net(X[keep])).max()
        require(worst <= TOL, f"{label}: verified, but a sample violates by {worst:.3g}")
    if spec["premise"]:
        return
    rows = _rows(spec["conclusion"])
    step = 0.05 * (hi - lo)
    for ic, oc, rel, rhs in rows:
        sign = 1.0 if rel == "<=" else -1.0
        Xa = X[:64].copy()
        for _ in range(pgd_steps):
            g = sign * (ic[None, :] + oc[0] * net.input_gradient(Xa))
            Xa = np.clip(Xa + step * np.sign(g), lo, hi)
            worst = conclusion_violation(spec, Xa, net(Xa)).max()
            require(worst <= TOL,
                    f"{label}: verified, but gradient ascent violates by {worst:.3g}")


# ---------------------------------------------------------------------------
# trajectory properties 1-4, restated from their definitions

def property_spec(kind, ystar, box_lo, box_hi):
    """Property `kind` at `ystar` in the PropertySpec JSON layout."""
    t = THRESHOLDS
    n = len(box_lo)

    def row(idx, rel, rhs):
        ic = [0.0] * n
        for i in idx:
            ic[i] = 1.0
        return {"in": ic, "out": [0.0], "rel": rel, "rhs": rhs}

    def out(rel, rhs):
        return {"in": [0.0] * n, "out": [1.0], "rel": rel, "rhs": rhs}
    line = (4, 5)                      # x5 + x6
    premise, conclusion = {
        1: ([row(line, ">=", ystar)], [out(">=", t["u_center"])]),
        2: ([row(line, "<=", -ystar)], [out("<=", t["u_center"])]),
        3: ([row(line, ">=", -ystar), row(line, "<=", ystar),
             row((3,), ">=", t["pitch_lo"]), row((3,), "<=", t["pitch_hi"])],
            [out(">=", t["u_lo"]), out("<=", t["u_hi"])]),
        4: ([row(line, ">=", 0.0), row(line, "<=", ystar),
             row((2,), "<=", t["x3_max"]), row((1,), "<=", t["x2_max"])],
            [out("<=", t["u_center"])]),
    }[kind]
    return {"input_box": [[float(a), float(b)] for a, b in zip(box_lo, box_hi)],
            "premise": premise, "conclusion": conclusion}


def read_critical_table(path):
    """{property: {"value": threshold, None when Failed; "timeout": flag}}."""
    with open(path) as fh:
        rows = list(csv.DictReader(fh))
    return {int(r["property"]): {
        "value": None if r["failed"] == "1" else float(r["critical_ystar"]),
        "timeout": r["timeout_flag"] == "1"} for r in rows}


def check_critical_table(table, net, verify, rng, label):
    """Thresholds of properties 1-4 on one clone.

    `verify(kind, ystar)` asks the program for (verified, witness). Kinds
    1/2/4 must verify at y* and at y*+1 (monotone), and their threshold is
    critical: below it a witness replays. Kind 3 "Failed" must be falsified
    at the resolution with a replaying witness.
    """
    lo, hi = net.box
    require(sorted(table) == [1, 2, 3, 4], f"{label}: properties {sorted(table)}")
    for kind, row in table.items():
        require(not row["timeout"], f"{label}: P{kind} bound by the budget")
        y = row["value"]
        if kind == 3 and y is None:
            ok, wit = verify(3, 1.0)
            require(not ok, f"{label}: P3 Failed but verified at ystar=1")
            check_witness(net, property_spec(3, 1.0, lo, hi), wit, f"{label} P3@1")
            continue
        require(y is not None, f"{label}: P{kind} has no threshold")
        ok, _ = verify(kind, y)
        require(ok, f"{label}: P{kind} is not verified at its threshold {y:g}")
        probe_verified(net, property_spec(kind, y, lo, hi), rng, f"{label} P{kind}@{y:g}")
        if kind == 3:
            continue
        ok, _ = verify(kind, y + 1.0)
        require(ok, f"{label}: P{kind} verified at {y:g} but not at {y + 1:g}")
        if y >= 1.0:
            ok, wit = verify(kind, y - 1.0)
            require(not ok, f"{label}: P{kind} verified below its threshold {y:g}")
            check_witness(net, property_spec(kind, y - 1.0, lo, hi), wit,
                          f"{label} P{kind}@{y - 1:g}")


# ---------------------------------------------------------------------------
# robustness grid

def read_sweep(path):
    with open(path) as fh:
        return [{"eps": float(r["epsilon"]), "lstar": float(r["lstar"]),
                 "rate": None if r["rate"] == "" else float(r["rate"]),
                 "n_verified": int(r["n_verified"]), "n_done": int(r["n_done"]),
                 "timeouts": int(r["timeouts"])} for r in csv.DictReader(fh)]


def check_sweep(cells, net, X, n_points, rng, label):
    """Grid over normalized points X[:n_points]; complete, monotone, and every
    cell reported fully verified survives sampling in each ball."""
    eps_list = sorted({c["eps"] for c in cells})
    l_list = sorted({c["lstar"] for c in cells})
    grid = {(c["eps"], c["lstar"]): c for c in cells}
    require(len(grid) == len(cells) == len(eps_list) * len(l_list),
            f"{label}: grid is not a full product")
    for c in cells:
        require(c["n_done"] == n_points and c["timeouts"] == 0 and c["rate"] is not None,
                f"{label}: cell {c['eps']:g}/{c['lstar']:g} incomplete")
        require(abs(c["rate"] - c["n_verified"] / n_points) < 1e-4,
                f"{label}: cell {c['eps']:g}/{c['lstar']:g} rate disagrees with counts")
    for e in eps_list:
        rates = [grid[(e, l)]["n_verified"] for l in l_list]
        require(rates == sorted(rates), f"{label}: rate falls as L* grows at eps={e:g}")
    for l in l_list:
        rates = [grid[(e, l)]["n_verified"] for e in eps_list]
        require(rates == sorted(rates, reverse=True),
                f"{label}: rate rises as eps grows at L*={l:g}")
    P = X[:n_points]
    core = net.core()
    f0 = core(P)
    for (e, l), c in grid.items():
        if c["n_verified"] != n_points:
            continue
        D = rng.uniform(-e, e, size=(20,) + P.shape)
        Q = np.clip(P[None] + D, 0.0, 1.0).reshape(-1, P.shape[1])
        dev = np.abs(core(Q).reshape(20, -1) - f0[None, :]).max()
        require(dev <= l / e + TOL,
                f"{label}: cell {e:g}/{l:g} fully verified, but a sample deviates {dev:.3g}")


# ---------------------------------------------------------------------------
# teacher dataset and trained clones

def read_dataset(path):
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        data = np.loadtxt(fh, delimiter=",", ndmin=2)
    require(header == ["x1", "x2", "x3", "x4", "x5", "x6", "err", "e_x_cmd"],
            f"dataset header {header}")
    return data


def teacher_rows(x6_starts, n_queries=40, skip=16, mass=plate.MASS):
    """Rows (states, actuations) the proportional teacher records from starts."""
    X = np.zeros((len(x6_starts), 6))
    X[:, 0] = 1.0
    X[:, 5] = x6_starts
    states, acts = [], []
    for k in range(n_queries):
        u = plate.teacher(X)
        if k >= skip:
            states.append(X.copy())
            acts.append(u)
        X = plate.rk4(X, u, 0.01, 50, mass)
    # rows are grouped by start, then by query
    return (np.stack(states, axis=1).reshape(-1, 6), np.stack(acts, axis=1).reshape(-1))


def check_dataset(data, n_starts=9, per_start=24):
    """Every row is the teacher's command at a state of the teacher's own
    closed loop, re-integrated from the nine default starts."""
    require(data.shape == (n_starts * per_start, 8), f"dataset shape {data.shape}")
    S, err, u = data[:, :6], data[:, 6], data[:, 7]
    require(np.array_equal(err, S[:, 5] + S[:, 4]), "err column is not x6 + x5")
    bad = np.abs(u - plate.teacher(S)).max()
    require(bad <= 1e-15, f"actuation differs from the teacher by {bad:.3g}")
    starts = 1.43 + (4.29 - 1.43) * np.arange(n_starts) / (n_starts - 1)
    ref, _ = teacher_rows(starts)
    dev = (np.abs(S - ref) / np.maximum(np.abs(ref), 1.0)).max()
    require(dev <= TOL, f"dataset states leave the re-integrated closed loop by {dev:.3g}")


def heldout_rmse(net, X, U):
    return float(np.sqrt(np.mean(((net(X) - U) / net.out_scale) ** 2)))


def check_heldout_rmse(net, X, U, label):
    r = heldout_rmse(net, X, U)
    require(r <= HELDOUT_RMSE_BOUND,
            f"{label}: held-out normalized RMSE {r:.4f} > {HELDOUT_RMSE_BOUND}")
    return r


def sampled_lipschitz(net, Xn, rng, eps=0.01, draws=20):
    """Largest |f(x) - f(x')| / ||x - x'||_inf over random x' in the eps-ball
    (normalized units) around each normalized row of Xn."""
    core = net.core()
    f0 = core(Xn)
    best = 0.0
    for _ in range(draws):
        Q = np.clip(Xn + rng.uniform(-eps, eps, size=Xn.shape), 0.0, 1.0)
        d = np.abs(Q - Xn).max(axis=1)
        live = d > 0
        best = max(best, float((np.abs(core(Q[live]) - f0[live]) / d[live]).max()))
    return best


def check_lipschitz(adv_q, naive_q, label):
    require(0.0 < adv_q <= naive_q,
            f"{label}: adversarial Lipschitz quotient {adv_q:.3f} vs naive {naive_q:.3f}")


# ---------------------------------------------------------------------------
# node LPs

def check_lp(A, rel, b, lo, hi, objective, result, label):
    """The program's simplex result agrees with SciPy HiGHS on one LP."""
    from scipy.optimize import linprog
    A = np.atleast_2d(np.asarray(A, dtype=float))
    b = np.asarray(b, dtype=float)
    n = len(lo)
    le = [i for i, r in enumerate(rel) if r == "<="]
    ge = [i for i, r in enumerate(rel) if r == ">="]
    eq = [i for i, r in enumerate(rel) if r == "="]
    A_ub = np.vstack([A[le], -A[ge]]) if le or ge else None
    b_ub = np.concatenate([b[le], -b[ge]]) if le or ge else None
    c = np.zeros(n) if objective is None else -np.asarray(objective, dtype=float)
    ref = linprog(c, A_ub=A_ub, b_ub=b_ub, A_eq=A[eq] if eq else None,
                  b_eq=b[eq] if eq else None, bounds=list(zip(lo, hi)), method="highs")
    feasible = ref.status == 0
    require(ref.status in (0, 2), f"{label}: HiGHS status {ref.status}")
    require(result.feasible == feasible,
            f"{label}: simplex feasible={result.feasible}, HiGHS {feasible}")
    if feasible and objective is not None:
        scale = 1.0 + abs(ref.fun)
        require(abs(result.objective + ref.fun) <= 1e-7 * scale,
                f"{label}: optimum {result.objective:.12g} vs HiGHS {-ref.fun:.12g}")


# ---------------------------------------------------------------------------
# reachability

def closed_loop_samples(net, X0, dt, steps_per_control, n_steps, record_every,
                        mass):
    """Float closed loop of the clamped controller from each row of X0;
    returns the states at every `record_every`-th step, (k, n, 6)."""
    X = np.array(X0, dtype=float)
    out = [X.copy()]
    u = None
    for k in range(n_steps):
        if k % steps_per_control == 0:
            u = np.clip(net(X), plate.U_MIN, plate.U_MAX)
        X = plate.rk4(X, u, dt, 1, mass)
        if (k + 1) % record_every == 0:
            out.append(X.copy())
    return np.stack(out)


def check_containment(hulls, traj, label):
    """hulls: (k, 2, 6) lo/hi per checkpoint; traj: (k, n, 6) samples."""
    require(len(hulls) <= len(traj), f"{label}: more hulls than samples")
    for k, (lo, hi) in enumerate(hulls):
        out = (traj[k] < lo - TOL) | (traj[k] > hi + TOL)
        require(not out.any(),
                f"{label}: sample leaves the certified set at checkpoint {k}")


def check_branch(steps, failed, reason, horizon_steps, certified_s, dt, label):
    """Step bookkeeping of one reach branch."""
    require(0 <= steps <= horizon_steps, f"{label}: {steps} steps of {horizon_steps}")
    if failed:
        require(steps < horizon_steps and reason, f"{label}: failure without a cause")
    else:
        require(steps == horizon_steps, f"{label}: stopped at {steps} without failing")
    require(math.isclose(certified_s, steps * dt, rel_tol=1e-12, abs_tol=1e-15),
            f"{label}: certified {certified_s} s is not {steps} steps x {dt}")


def check_repeat(first, later, label):
    """Verdicts, counts and step numbers repeat exactly in every round."""
    for key in sorted(set(first) | set(later)):
        require(first.get(key) == later.get(key),
                f"{label}: {key} was {first.get(key)!r}, now {later.get(key)!r}")
