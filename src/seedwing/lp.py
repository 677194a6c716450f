"""Dense two-phase simplex over box-bounded variables.

Canonical problem: variables v with finite bounds lo <= v <= hi, linear rows
a.v <= b (the one row form, so each row's dual has one sign), optional
linear objective to maximize. Phase 1 minimizes
artificial variables under Bland's rule (no cycling); phase 2 optimizes the
objective. All feasible regions here are bounded, so phase 2 cannot be
unbounded.

The kernel works on whole arrays. A pivot is one masked rank-1 update of the
tableau: it subtracts a multiple of the pivot row from exactly the rows with
a nonzero entry in the pivot column. Skipping the other rows keeps the result
bit-identical to row-by-row elimination; updating them would subtract
0 * x = -0.0 and turn their -0.0 entries into +0.0.
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
    """Make column `col` basic in `row`: eliminate it from every other row.

    One masked rank-1 update. Only rows with a nonzero entry in `col` are
    touched: in any other row `0 * T[row, j]` may be -0.0, and subtracting
    it would turn a -0.0 entry into +0.0.
    """
    r = T[row]
    r /= r[col]
    f = T[:, col].copy()
    f[row] = 0.0
    nz = f.nonzero()[0]
    T[nz] -= f[nz, None] * r
    basis[row] = col


def _run_simplex(T: np.ndarray, basis: list, c: np.ndarray):
    """Minimize c.x on the tableau T (rows: B^-1 A | B^-1 b). In-place."""
    z = c.copy()
    for i, bi in enumerate(basis):
        if z[bi] != 0.0:
            z -= z[bi] * T[i, :-1]
    rhs = T[:, -1]
    for _ in range(MAX_PIVOTS + 1):
        neg = z < -PIVOT_TOL
        enter = int(neg.argmax())  # Bland: lowest eligible index
        if not neg[enter]:
            return
        col = T[:, enter]
        rows = (col > PIVOT_TOL).nonzero()[0]
        if rows.size == 0:
            # unbounded direction; cannot occur with box-bounded variables
            raise SimplexCycleError("unbounded pivot column in bounded LP")
        ratios = rhs[rows] / col[rows]
        tied = rows[ratios <= ratios.min() + 1e-12]
        # Bland on ties: the row whose basic variable has the lowest index
        leave = int(tied[0] if tied.size == 1 else min(tied, key=basis.__getitem__))
        _pivot(T, basis, leave, enter)
        z -= z[enter] * T[leave, :-1]
    raise SimplexCycleError("pivot limit exceeded")


def solve_lp(A, rel, b, lo, hi, objective=None) -> LpSolution:
    """Feasibility plus optional maximization of `objective` over the rows.

    A: (m, n) row coefficients; rel: length-m sequence of "<=" (the one row
    form: write a >= row as its negation and an = row as two rows);
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
    for kind in rel:
        if kind != "<=":
            raise ValueError(f"relation {kind!r}: rows must be '<='")

    # shift to w = v - lo in [0, hi - lo]; the upper bounds follow as rows
    k = len(b)
    m = k + n
    rv = np.concatenate([b - np.array([float(a @ lo) for a in A]), hi - lo])
    flip = rv < 0

    # tableau [rows | slacks | artificials | rhs]: one slack per row; a row
    # with a negative rhs is negated and starts on an artificial
    art_rows = flip.nonzero()[0]
    n_art = art_rows.size
    ncols = n + m + n_art
    tab = np.zeros((m, ncols + 1))
    tab[:k, :n] = A
    tab[k:, :n] = np.eye(n)
    tab[:, -1] = rv
    tab[:, n:n + m] = np.eye(m)
    tab[flip, :n + m] *= -1.0
    tab[flip, -1] *= -1.0
    basis = n + np.arange(m)
    basis[art_rows] = n + m + np.arange(n_art)
    tab[art_rows, basis[art_rows]] = 1.0
    basis = basis.tolist()

    if n_art:
        c1 = np.zeros(ncols)
        c1[n + m:] = 1.0
        _run_simplex(tab, basis, c1)
        residual = [i for i in range(m) if basis[i] >= n + m]
        # Python's sum adds in row order; np.sum's pairwise order could
        # round differently at the FEAS_TOL decision
        if sum(tab[residual, -1].tolist()) > FEAS_TOL:
            return LpSolution(False)
        # pivot residual artificials out of the basis where possible
        for i in residual:
            nz = (np.abs(tab[i, :n + m]) > PIVOT_TOL).nonzero()[0]
            if nz.size:
                _pivot(tab, basis, i, int(nz[0]))
        # block artificial columns from re-entering
        tab[:, n + m:ncols] = 0.0

    if objective is not None:
        c2 = np.zeros(ncols)
        c2[:n] = -np.asarray(objective, dtype=float)  # maximize => minimize -c
        _run_simplex(tab, basis, c2)

    w = np.zeros(ncols)
    w[basis] = tab[:, -1]
    x = w[:n] + lo
    obj = float(objective @ x) if objective is not None else None
    return LpSolution(True, x, obj)
