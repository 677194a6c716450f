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


def _run_simplex(T: np.ndarray, basis: list, c: np.ndarray):
    """Minimize c.x on the tableau T (rows: B^-1 A | B^-1 b). In-place."""
    m = T.shape[0]
    ncols = T.shape[1] - 1
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
        piv = T[leave, enter]
        T[leave, :] /= piv
        for i in range(m):
            if i != leave and T[i, enter] != 0.0:
                T[i, :] -= T[i, enter] * T[leave, :]
        if z[enter] != 0.0:
            z -= z[enter] * T[leave, :-1]
        basis[leave] = enter
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

    # shift to w = v - lo in [0, r]; add upper bounds as rows
    r = hi - lo
    rows = []
    rhs = []
    kinds = []
    for i in range(A.shape[0]):
        a = A[i]
        bi = b[i] - float(a @ lo)
        if rel[i] == "<=":
            rows.append(a.copy()); rhs.append(bi); kinds.append("le")
        elif rel[i] == ">=":
            rows.append(-a); rhs.append(-bi); kinds.append("le")
        elif rel[i] == "=":
            rows.append(a.copy()); rhs.append(bi); kinds.append("eq")
        else:
            raise ValueError(f"unknown relation {rel[i]!r}")
    for j in range(n):
        e = np.zeros(n)
        e[j] = 1.0
        rows.append(e); rhs.append(r[j]); kinds.append("le")

    m = len(rows)
    M = np.array(rows)
    rv = np.array(rhs)

    n_slack = sum(1 for k in kinds if k == "le")
    # build [A | S | T | rhs]
    slack_idx = {}
    art_rows = []
    si = 0
    S = np.zeros((m, n_slack))
    for i, k in enumerate(kinds):
        if k == "le":
            S[i, si] = 1.0
            slack_idx[i] = n + si
            si += 1
    # normalize to nonnegative rhs
    flip = rv < 0
    M[flip] *= -1.0
    rv = rv.copy()
    rv[flip] *= -1.0
    S[flip] *= -1.0

    basis = [-1] * m
    for i, k in enumerate(kinds):
        if k == "le" and not flip[i]:
            basis[i] = slack_idx[i]
        else:
            art_rows.append(i)
    n_art = len(art_rows)
    Tb = np.zeros((m, n_art))
    for a_i, i in enumerate(art_rows):
        Tb[i, a_i] = 1.0
        basis[i] = n + n_slack + a_i

    ncols = n + n_slack + n_art
    tab = np.zeros((m, ncols + 1))
    tab[:, :n] = M
    tab[:, n:n + n_slack] = S
    tab[:, n + n_slack:ncols] = Tb
    tab[:, -1] = rv

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
                row = tab[i, :n + n_slack]
                nz = np.flatnonzero(np.abs(row) > PIVOT_TOL)
                if nz.size:
                    enter = int(nz[0])
                    piv = tab[i, enter]
                    tab[i, :] /= piv
                    for k2 in range(m):
                        if k2 != i and tab[k2, enter] != 0.0:
                            tab[k2, :] -= tab[k2, enter] * tab[i, :]
                    basis[i] = enter
        # block artificial columns from re-entering
        tab[:, n + n_slack:ncols] = 0.0

    if objective is not None:
        c2 = np.zeros(ncols)
        c2[:n] = -np.asarray(objective, dtype=float)  # maximize => minimize -c
        _run_simplex(tab, basis, c2)

    w = np.zeros(ncols)
    for i, bi in enumerate(basis):
        if bi >= 0:
            w[bi] = tab[i, -1]
    x = w[:n] + lo
    obj = float(objective @ x) if objective is not None else None
    return LpSolution(True, x, obj)
