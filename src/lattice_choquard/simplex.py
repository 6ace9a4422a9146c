"""The standard Nelder-Mead simplex method, many simplices in lockstep.

The brute-force ground-state oracle in `verify` polishes its best scan
directions with it.  It is a port of scipy.optimize's non-adaptive
"Nelder-Mead", so that the package runs without scipy.
"""

from __future__ import annotations

import numpy as np

# a simplex's trial points, each xbar * c + worst * (1 - c) as in scipy:
# reflection, expansion, outside and inside contraction
_NM_STEPS = np.array([[2.0], [3.0], [1.5], [0.5]])


def _nelder_mead(fun, X0, maxiter, xatol, fatol):
    """Minimize `fun` from each row of X0 by the standard Nelder-Mead simplex
    method, all simplices in lockstep.

    The non-adaptive method of scipy.optimize's "Nelder-Mead", step for
    step on every row: reflection 1, expansion 2, contraction and shrink
    1/2, the initial simplex x0 plus 5% of each nonzero coordinate (0.00025
    for a zero one), vertices re-sorted by value after every iteration, and
    a stop once both the simplex and its values span no more than xatol and
    fatol, or after maxiter iterations.  `fun` maps a stack of points to
    their values.  Each iteration makes one call on all four trial points of
    every running simplex, from which each row keeps what scipy's branches
    would, and one more on the vertices of the simplices that shrink.
    Returns the best vertex and value of every row.
    """
    B, n = X0.shape
    sim = np.repeat(X0[:, None], n + 1, 1)
    k = np.arange(n)
    sim[:, k + 1, k] = np.where(X0, 1.05 * X0, 0.00025)
    fsim = fun(sim.reshape(-1, n)).reshape(B, -1)
    best_x, best_f = np.empty_like(X0), np.empty(B)
    rows = np.arange(B)
    for it in range(maxiter):
        order = fsim.argsort(1)
        at = np.arange(len(rows))[:, None]
        sim, fsim = sim[at, order], fsim[at, order]
        # sorted values span fsim[-1] - fsim[0], the max of |fsim[0] - fsim[j]|
        done = (abs(sim[:, 1:] - sim[:, :1]).max((1, 2)) <= xatol) & (
            fsim[:, -1] - fsim[:, 0] <= fatol
        ) | (it == maxiter - 1)
        if done.any():
            best_x[rows[done]], best_f[rows[done]] = sim[done, 0], fsim[done, 0]
            rows, sim, fsim = rows[~done], sim[~done], fsim[~done]
            if not rows.size:
                break
        xbar = sim[:, :-1].sum(1)[:, None] / n
        trial = xbar * _NM_STEPS + sim[:, -1:] * (1.0 - _NM_STEPS)
        ftrial = fun(trial.reshape(-1, n)).reshape(-1, 4)
        fr, fe, fo, fi = ftrial.T
        # 0 reflect, 1 expand, 2 contract outside, 3 contract inside
        pick = np.where(
            fr < fsim[:, 0], fe < fr, np.where(fr < fsim[:, -2], 0, 3 - (fr < fsim[:, -1]))
        )
        shrink = np.where(pick == 2, ~(fo <= fr), (pick == 3) & ~(fi < fsim[:, -1]))
        moved = np.flatnonzero(~shrink)
        sim[moved, -1], fsim[moved, -1] = trial[moved, pick[moved]], ftrial[moved, pick[moved]]
        if shrink.any():
            s = sim[shrink]
            s[:, 1:] = s[:, :1] + 0.5 * (s[:, 1:] - s[:, :1])
            sim[shrink] = s
            fsim[shrink, 1:] = fun(s[:, 1:].reshape(-1, n)).reshape(-1, n)
    return best_x, best_f
