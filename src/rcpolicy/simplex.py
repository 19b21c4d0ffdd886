"""Least squares over the probability simplex.

Solves min_w ||y - Z w||^2 subject to w >= 0 and sum(w) = 1. This is the
metalearner behind the stacked ensembles: columns of Z are cross-validated
candidate predictions and the solution is the convex combination with the
smallest cross-validated squared error.

Active-set method in the style of Lawson-Hanson NNLS, extended with the
sum-to-one equality constraint in the KKT system. The iteration starts at
the best single candidate and only grows the support when doing so strictly
lowers the objective, so the returned risk is never above the starting
vertex's. The best candidate is the first in column order whose risk lies
within a relative `_RISK_RTOL` of the smallest: two candidates that predict
alike to rounding (say a glm that fell back to its intercept, and the mean)
then do not trade all the weight on a last-bit difference in their risks.
"""
from __future__ import annotations

import numpy as np

_TOL = 1e-10  # KKT tolerance on the reduced gradient
_RISK_RTOL = 1e-10  # vertex risks this close, relative to the smallest, tie


def simplex_lstsq(Z: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Weights on the probability simplex minimizing mean squared error.

    Parameters
    ----------
    Z : (n, k) candidate prediction matrix
    y : (n,) target

    Returns
    -------
    (k,) nonnegative weights summing to one.
    """
    Z = np.asarray(Z, dtype=float)
    y = np.asarray(y, dtype=float)
    n, k = Z.shape
    if k == 1:
        return np.ones(1)

    # normalize by n so tolerances are scale-comparable to mean risks
    G = Z.T @ Z / n
    c = Z.T @ y / n

    def grad(w: np.ndarray) -> np.ndarray:
        return G @ w - c

    # start at the best single candidate, the first of any tied
    vertex_risks = np.mean((y[:, None] - Z) ** 2, axis=0)
    best = int(np.flatnonzero(vertex_risks <= (1.0 + _RISK_RTOL) * vertex_risks.min())[0])
    w = np.zeros(k)
    w[best] = 1.0

    support = w > 0
    for _ in range(50 * k + 50):
        w_s = _solve_on_support(G, c, support)
        # step back along the segment to stay feasible, dropping the
        # variable that hits zero (inner NNLS-style loop)
        inner = 0
        while np.any(w_s < -1e-12) and inner < 2 * k:
            inner += 1
            cur = w[support]
            neg = w_s < cur  # only indices moving down can block
            with np.errstate(divide="ignore", invalid="ignore"):
                alphas = np.where(neg, cur / (cur - w_s), np.inf)
            alpha = min(1.0, float(np.min(alphas)))
            cur = cur + alpha * (w_s - cur)
            idx = np.flatnonzero(support)
            drop = idx[np.argmin(np.where(neg, alphas, np.inf))]
            w = np.zeros(k)
            w[idx] = np.maximum(cur, 0.0)
            w[drop] = 0.0
            support = w > 0
            if not np.any(support):
                support[best] = True
                w[:] = 0.0
                w[support] = 1.0
            w_s = _solve_on_support(G, c, support)
        w = np.zeros(k)
        w[support] = np.maximum(w_s, 0.0)
        s = w.sum()
        if s > 0:
            w /= s

        g = grad(w)
        mu = float(np.min(g[support]))  # on the support the gradient is flat at mu
        off = ~support
        if not np.any(off) or float(np.min(g[off])) >= mu - _TOL:
            return w
        j = int(np.argmin(np.where(off, g, np.inf)))
        support[j] = True
    return w  # iteration cap; w is feasible and near-optimal


def _solve_on_support(G: np.ndarray, c: np.ndarray, support: np.ndarray) -> np.ndarray:
    """Equality-constrained minimizer restricted to the support.

    Solves the KKT system for min (1/2) w'Gw - c'w with sum(w) = 1 over the
    support columns, signs free. lstsq handles collinear candidates (any
    optimum of the degenerate face is acceptable).
    """
    idx = np.flatnonzero(support)
    m = len(idx)
    K = np.zeros((m + 1, m + 1))
    K[:m, :m] = G[np.ix_(idx, idx)]
    K[:m, m] = -1.0
    K[m, :m] = 1.0
    rhs = np.concatenate([c[idx], [1.0]])
    sol, *_ = np.linalg.lstsq(K, rhs, rcond=None)
    return sol[:m]
