"""Dense two-phase simplex over box-bounded variables.

Canonical problem: variables v with finite bounds lo <= v <= hi, linear rows
a.v {<=,=,>=} b, optional linear objective to maximize. Phase 1 minimizes
artificial variables under Bland's rule (no cycling); phase 2 optimizes the
objective. All feasible regions here are bounded, so phase 2 cannot be
unbounded.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

FEAS_TOL = 1e-9
PIVOT_TOL = 1e-10
MAX_PIVOTS = 50000


class SimplexCycleError(RuntimeError):
    """Pivot-count guard tripped; should not happen under Bland's rule."""


@dataclass
class LpSolution:
    feasible: bool
    x: np.ndarray | None = None
    objective: float | None = None


def _pivot(T: np.ndarray, basis: list, row: int, col: int):
    """Make column `col` basic in `row`: eliminate it from every other row."""
    T[row, :] /= T[row, col]
    for i in range(T.shape[0]):
        if i != row and T[i, col] != 0.0:
            T[i, :] -= T[i, col] * T[row, :]
    basis[row] = col


def _run_simplex(T: np.ndarray, basis: list, c: np.ndarray):
    """Minimize c.x on the tableau T (rows: B^-1 A | B^-1 b). In-place."""
    z = c.astype(float).copy()
    for i, bi in enumerate(basis):
        if z[bi] != 0.0:
            z -= z[bi] * T[i, :-1]
    pivots = 0
    while True:
        neg = np.flatnonzero(z < -PIVOT_TOL)
        if neg.size == 0:
            return
        enter = int(neg[0])  # Bland: lowest eligible index
        col = T[:, enter]
        rows = np.flatnonzero(col > PIVOT_TOL)
        if rows.size == 0:
            # unbounded direction; cannot occur with box-bounded variables
            raise SimplexCycleError("unbounded pivot column in bounded LP")
        ratios = T[rows, -1] / col[rows]
        best = ratios.min()
        tied = rows[ratios <= best + 1e-12]
        leave = int(min(tied, key=lambda i: basis[i]))  # Bland on ties
        _pivot(T, basis, leave, enter)
        if z[enter] != 0.0:
            z -= z[enter] * T[leave, :-1]
        pivots += 1
        if pivots > MAX_PIVOTS:
            raise SimplexCycleError("pivot limit exceeded")


def solve_lp(A, rel, b, lo, hi, objective=None) -> LpSolution:
    """Feasibility plus optional maximization of `objective` over the rows.

    A: (m, n) row coefficients; rel: length-m sequence of "<=", "=", ">=";
    b: (m,) right-hand sides; lo/hi: finite variable bounds.
    """
    A = np.atleast_2d(np.asarray(A, dtype=float)) if len(b) else np.zeros((0, len(lo)))
    b = np.asarray(b, dtype=float)
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    n = lo.shape[0]
    if np.any(lo > hi + FEAS_TOL):
        return LpSolution(False)
    if not (np.isfinite(lo).all() and np.isfinite(hi).all()):
        raise ValueError("variable bounds must be finite")
    if not len(A) == len(rel) == len(b):
        raise ValueError("A, rel and b need one entry per row")

    # shift to w = v - lo in [0, hi - lo]; ">=" rows become "<=" rows, and
    # the upper bounds follow as "<=" rows
    rows, rhs, le = [], [], []
    for a, kind, bi in zip(A, rel, b):
        if kind not in ("<=", ">=", "="):
            raise ValueError(f"unknown relation {kind!r}")
        bi = bi - float(a @ lo)
        if kind == ">=":
            a, bi = -a, -bi
        rows.append(a); rhs.append(bi); le.append(kind != "=")
    k = len(rows)
    m = k + n
    le += [True] * n
    rv = np.concatenate([rhs, hi - lo])
    flip = rv < 0

    # tableau [rows | slacks | artificials | rhs]: one slack per "<=" row; a
    # row with a negative rhs is negated, and it and every "=" row start on
    # an artificial
    n_slack = sum(le)
    art_rows = np.flatnonzero(flip | ~np.array(le))
    n_art = art_rows.size
    ncols = n + n_slack + n_art
    tab = np.zeros((m, ncols + 1))
    if k:
        tab[:k, :n] = rows
    tab[k:, :n] = np.eye(n)
    tab[:, -1] = rv
    basis, s = [], n            # an "=" row's entry is replaced below
    for i, is_le in enumerate(le):
        if is_le:
            tab[i, s] = 1.0
        basis.append(s)
        s += is_le
    if flip.any():
        tab[flip, :n + n_slack] *= -1.0
        tab[flip, -1] *= -1.0
    for a_i, i in enumerate(art_rows):
        tab[i, n + n_slack + a_i] = 1.0
        basis[i] = n + n_slack + a_i

    if n_art:
        c1 = np.zeros(ncols)
        c1[n + n_slack:] = 1.0
        _run_simplex(tab, basis, c1)
        art_val = sum(tab[i, -1] for i in range(m) if basis[i] >= n + n_slack)
        if art_val > FEAS_TOL:
            return LpSolution(False)
        # pivot residual artificials out of the basis where possible
        for i in range(m):
            if basis[i] >= n + n_slack:
                nz = np.flatnonzero(np.abs(tab[i, :n + n_slack]) > PIVOT_TOL)
                if nz.size:
                    _pivot(tab, basis, i, int(nz[0]))
        # block artificial columns from re-entering
        tab[:, n + n_slack:ncols] = 0.0

    if objective is not None:
        c2 = np.zeros(ncols)
        c2[:n] = -np.asarray(objective, dtype=float)  # maximize => minimize -c
        _run_simplex(tab, basis, c2)

    w = np.zeros(ncols)
    w[basis] = tab[:, -1]
    x = w[:n] + lo
    obj = float(objective @ x) if objective is not None else None
    return LpSolution(True, x, obj)
