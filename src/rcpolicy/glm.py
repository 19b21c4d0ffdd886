"""Small GLM core: weighted least squares and logistic IRLS.

These back the candidate learners, the propensity fit, and the subgroup
scan. Plain maximum likelihood, no penalization. Degenerate designs fall
back to an intercept-only fit instead of raising, and the fallback is
recorded on the returned fit so callers can surface a warning.

Solver. Every `fit_linear` fit and every IRLS step solves the weighted
normal equations X'WX b = X'Wz (`normal_lstsq`): the Gram matrix is scaled
to a unit diagonal and factored by Cholesky. Its pivots are then
sqrt(1 - R^2) of each column on the columns before it, and
1 / (smallest pivot)^2 is a lower bound on the scaled Gram's condition
number. When the factorisation fails or a pivot is below `_MIN_PIVOT`
(condition number at least 1e6, where the normal equations would keep
fewer than about ten digits), the step falls back to SVD least squares
on sqrt(W) X (`weighted_lstsq`).

Rank check. A fit first asks `design_is_singular` (numpy's `matrix_rank`
tolerance) and takes the intercept-only fallback on a rank-deficient
design. A caller fitting many column subsets of one term matrix T can run
the check once on T and pass `full_rank=True`: by singular-value
interlacing a column subset has a smallest singular value no smaller and a
largest no larger than T's, so it passes the same tolerance whenever T
does. When T fails the check, every fit must check itself.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Linear predictors beyond this magnitude indicate (quasi-)separation:
# prediction clipping resolves nothing past |logit| ~ 13.8, and IRLS on
# separated data stalls near |eta| ~ 23 once residuals drop under the
# score tolerance, so a clean fit never legitimately reaches this.
_SEPARATION_ETA = 15.0
_IRLS_MAX_ITER = 100
_IRLS_TOL = 1e-10
# Smallest Cholesky pivot of the unit-diagonal Gram matrix that the normal
# equations accept; below it the solve goes to SVD least squares.
_MIN_PIVOT = 1e-3


@dataclass
class GlmFit:
    """Fitted coefficients for a linear or logistic model.

    coef aligns with the columns of the design matrix passed to the
    fitting routine. `fallback` is None for a clean fit, otherwise a
    short reason ("singular_design", "separation", "no_convergence").
    """

    coef: np.ndarray
    family: str  # "gaussian" or "binomial"
    fallback: str | None = None
    n_iter: int = 0

    def predict(self, X: np.ndarray) -> np.ndarray:
        eta = X @ self.coef
        if self.family == "binomial":
            return expit(eta)
        return eta


def expit(eta: np.ndarray) -> np.ndarray:
    # numerically safe logistic: exp of a non-positive argument only
    e = np.exp(-np.abs(eta))
    return np.where(eta >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def logit(p: np.ndarray) -> np.ndarray:
    p = np.asarray(p, dtype=float)
    return np.log(p) - np.log1p(-p)


def design_is_singular(X: np.ndarray) -> bool:
    return np.linalg.matrix_rank(X) < X.shape[1]


def weighted_lstsq(X: np.ndarray, y: np.ndarray, w: np.ndarray | None = None) -> np.ndarray:
    """Least-squares coefficients, weighted by w when given."""
    if w is None:
        coef, *_ = np.linalg.lstsq(X, y, rcond=None)
        return coef
    sw = np.sqrt(w)
    coef, *_ = np.linalg.lstsq(X * sw[:, None], y * sw, rcond=None)
    return coef


def normal_lstsq(X: np.ndarray, y: np.ndarray, w: np.ndarray | None = None) -> np.ndarray:
    """Least-squares coefficients from the normal equations X'WX b = X'Wy.

    Cholesky on the Gram matrix scaled to a unit diagonal; falls back to
    `weighted_lstsq` when the factorisation fails or a pivot is below
    `_MIN_PIVOT` (see the module docstring).
    """
    Xw = X if w is None else X * w[:, None]
    gram = Xw.T @ X
    d = np.sqrt(gram.diagonal())
    if not (d.min() > 0 and np.isfinite(d.max())):
        return weighted_lstsq(X, y, w)
    try:
        chol = np.linalg.cholesky(gram / np.outer(d, d))
    except np.linalg.LinAlgError:
        return weighted_lstsq(X, y, w)
    if not chol.diagonal().min() >= _MIN_PIVOT:
        return weighted_lstsq(X, y, w)
    half = np.linalg.solve(chol, (Xw.T @ y) / d)
    return np.linalg.solve(chol.T, half) / d


def fit_linear(X: np.ndarray, y: np.ndarray, *, full_rank: bool = False) -> GlmFit:
    """Ordinary least squares with a singularity fallback.

    full_rank=True skips the rank check; pass it only when X is a column
    subset of a matrix that passed `design_is_singular`.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if not full_rank and design_is_singular(X):
        coef = np.zeros(X.shape[1])
        coef[_intercept_col(X)] = float(np.mean(y))
        return GlmFit(coef=coef, family="gaussian", fallback="singular_design")
    return GlmFit(coef=normal_lstsq(X, y), family="gaussian")


def fit_logistic(X: np.ndarray, y: np.ndarray, *, full_rank: bool = False) -> GlmFit:
    """Logistic regression by IRLS.

    y may be any values in [0, 1] (quasi-binomial working likelihood).
    Separation and non-convergence fall back to the intercept-only
    solution rather than returning runaway coefficients. full_rank=True
    skips the rank check, as in `fit_linear`.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    n, p = X.shape
    if not full_rank and design_is_singular(X):
        return _logistic_intercept_fallback(X, y, "singular_design")

    beta = np.zeros(p)
    eta = np.zeros(n)
    for it in range(1, _IRLS_MAX_ITER + 1):
        mu = expit(eta)
        v = mu * (1.0 - mu)
        score = X.T @ (y - mu)
        if np.max(np.abs(score)) / n <= _IRLS_TOL:
            if np.max(np.abs(eta)) > _SEPARATION_ETA:
                return _logistic_intercept_fallback(X, y, "separation")
            return GlmFit(coef=beta, family="binomial", n_iter=it)
        irls_w = np.maximum(v, 1e-12)
        z = eta + (y - mu) / irls_w
        beta_new = normal_lstsq(X, z, irls_w)
        if not np.all(np.isfinite(beta_new)):
            return _logistic_intercept_fallback(X, y, "no_convergence")
        step = beta_new - beta
        eta = X @ beta_new
        if np.max(np.abs(eta)) > 2 * _SEPARATION_ETA:
            # runaway linear predictor: separation in progress
            return _logistic_intercept_fallback(X, y, "separation")
        beta = beta_new
        if np.max(np.abs(step)) < _IRLS_TOL:
            if np.max(np.abs(eta)) > _SEPARATION_ETA:
                return _logistic_intercept_fallback(X, y, "separation")
            return GlmFit(coef=beta, family="binomial", n_iter=it)
    return _logistic_intercept_fallback(X, y, "no_convergence")


def _intercept_col(X: np.ndarray) -> int:
    # prefer an all-ones column if the design has one, else column 0
    for j in range(X.shape[1]):
        if np.all(X[:, j] == 1.0):
            return j
    return 0


def _logistic_intercept_fallback(X: np.ndarray, y: np.ndarray, reason: str) -> GlmFit:
    """Intercept-only logistic fit (1-D Newton), used when the full fit fails."""
    n = X.shape[0]
    eps = 0.0
    for _ in range(_IRLS_MAX_ITER):
        mu = expit(np.full(n, eps))
        grad = float(np.sum(y - mu))
        if abs(grad) / n <= _IRLS_TOL:
            break
        hess = -float(np.sum(mu * (1.0 - mu)))
        if hess >= -1e-300:
            break
        eps -= grad / hess
        eps = float(np.clip(eps, -_SEPARATION_ETA, _SEPARATION_ETA))
    coef = np.zeros(X.shape[1])
    coef[_intercept_col(X)] = eps
    return GlmFit(coef=coef, family="binomial", fallback=reason)


def gaussian_aic(X: np.ndarray, y: np.ndarray, fit: GlmFit) -> float:
    resid = y - X @ fit.coef
    n = len(y)
    rss = float(resid @ resid)
    rss = max(rss, 1e-300)
    return n * np.log(rss / n) + 2 * X.shape[1]


def binomial_aic(X: np.ndarray, y: np.ndarray, fit: GlmFit) -> float:
    p = np.clip(fit.predict(X), 1e-12, 1 - 1e-12)
    ll = float(np.sum(y * np.log(p) + (1 - y) * np.log1p(-p)))
    return -2 * ll + 2 * X.shape[1]


def forward_stepwise_aic(
    candidate_cols: list[np.ndarray],
    y: np.ndarray,
    family: str,
    max_terms: int = 5,
    *,
    full_rank: bool = False,
) -> tuple[list[int], GlmFit]:
    """Greedy forward selection by AIC over candidate columns.

    Starts from the intercept-only model and adds at most `max_terms`
    columns, each time taking the single addition that lowers AIC most.
    Returns the chosen column indices (into candidate_cols) and the fit
    on [intercept, chosen columns]. full_rank=True skips every fit's rank
    check; pass it only when [1, candidate_cols...] passed
    `design_is_singular`.
    """
    n = len(y)
    ones = np.ones((n, 1))

    def fit_on(idx: list[int]) -> tuple[GlmFit, float]:
        X = np.hstack([ones] + [candidate_cols[j][:, None] for j in idx]) if idx else ones
        if family == "binomial":
            f = fit_logistic(X, y, full_rank=full_rank)
            return f, binomial_aic(X, y, f)
        f = fit_linear(X, y, full_rank=full_rank)
        return f, gaussian_aic(X, y, f)

    chosen: list[int] = []
    best_fit, best_aic = fit_on(chosen)
    remaining = list(range(len(candidate_cols)))
    while remaining and len(chosen) < max_terms:
        trial = [(j, *fit_on(chosen + [j])) for j in remaining]
        j_best, f_best, aic_best = min(trial, key=lambda t: t[2])
        if aic_best < best_aic - 1e-12:
            chosen.append(j_best)
            remaining.remove(j_best)
            best_fit, best_aic = f_best, aic_best
        else:
            break
    return chosen, best_fit
