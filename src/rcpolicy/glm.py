"""Small GLM core: weighted least squares and logistic IRLS.

These back the candidate learners, the propensity fit, and the subgroup
scan. Plain maximum likelihood, no penalization. Degenerate designs fall
back to an intercept-only fit instead of raising, and the fallback is
recorded on the returned fit so callers can surface a warning.

Solver. Every `fit_linear` fit and every IRLS step solves normal equations
X'WX b = r on the Gram matrix scaled to a unit diagonal (`_normal_solve`).
A Cholesky factorisation of that matrix is the pivot check: its pivots are
sqrt(1 - R^2) of each column on the columns before it, and
1 / (smallest pivot)^2 is a lower bound on the scaled Gram's condition
number. When the factorisation fails or a pivot is below `_MIN_PIVOT`
(condition number at least 1e6, where the normal equations would keep
fewer than about ten digits), the solve falls back to SVD least squares on
sqrt(W) X (`weighted_lstsq`); otherwise one LAPACK solve gives b. A
one-column design skips LAPACK: its equation is a division.

Rank. The pivot check is the rank check: a design that passes it has full
rank, and rescaling a column (a covariate's units) changes neither the
scaled Gram matrix nor the verdict. A fit asks `design_is_singular`
(numpy's `matrix_rank` tolerance) only when it would otherwise go on
without a passed check: its first solve is rejected, or Newton converges
before its first solve. A rank-deficient design takes the intercept-only
fallback.

IRLS is Newton's method for the canonical logit link. Each step solves
X'WX delta = X'(y - mu) with the score already computed for the stop test;
the row weights W = mu(1 - mu) scale a p x n copy of X. A fit stops when
max|score| / n or max|delta| falls below `_IRLS_TOL`, so its coefficients
are accurate to about 1e-10 and fits from different starts agree only to
about that. `fit_logistic(start=)` begins Newton at a caller's
coefficients, the stacks' closest earlier fit. A start whose linear
predictor exceeds `_SEPARATION_ETA` on the new rows is dropped, and a
warm-started fit that falls back is refit from zero, so every fallback is
the one a cold fit gives. A design that is one all-ones column (the
stacks' `mean` candidate, stepwise's starting model) needs no Newton: its
score equation's root is logit(mean y), and beyond `_SEPARATION_ETA` (or at
a mean of 0 or 1) it takes the separation fallback Newton would reach.
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
# `aic` reads a gaussian RSS below this share of y'y as an exact fit.
_RSS_FLOOR = 1e-20
# Most columns `forward_stepwise_aic` adds to the intercept.
STEPWISE_MAX_TERMS = 5


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
    return np.where(eta >= 0, 1.0, e) / (1.0 + e)


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


def _normal_solve(XwT: np.ndarray, X: np.ndarray, rhs: np.ndarray) -> np.ndarray | None:
    """Solve (XwT @ X) b = rhs, or None when the pivot check rejects it.

    See the module docstring; XwT is the p x n transpose of X with the row
    weights applied.
    """
    gram = XwT @ X
    d = np.sqrt(gram.diagonal())
    if not (d.min() > 0 and np.isfinite(d.max())):
        return None
    if len(d) == 1:
        return rhs / gram[0, 0]
    scaled = gram / (d[:, None] * d)
    try:
        chol = np.linalg.cholesky(scaled)
    except np.linalg.LinAlgError:
        return None
    if not chol.diagonal().min() >= _MIN_PIVOT:
        return None
    return np.linalg.solve(scaled, rhs / d) / d


def fit(X: np.ndarray, y: np.ndarray, family: str, start: np.ndarray | None = None) -> GlmFit:
    """`fit_logistic` for the "binomial" family, else `fit_linear`, which
    takes no start."""
    if family == "binomial":
        return fit_logistic(X, y, start=start)
    return fit_linear(X, y)


def fit_linear(X: np.ndarray, y: np.ndarray) -> GlmFit:
    """Ordinary least squares with a singularity fallback."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    coef = _normal_solve(X.T, X, X.T @ y)
    if coef is None:
        if design_is_singular(X):
            coef = np.zeros(X.shape[1])
            coef[_intercept_col(X)] = float(np.mean(y))
            return GlmFit(coef=coef, family="gaussian", fallback="singular_design")
        coef = weighted_lstsq(X, y)
    return GlmFit(coef=coef, family="gaussian")


def fit_logistic(X: np.ndarray, y: np.ndarray, *, start: np.ndarray | None = None) -> GlmFit:
    """Logistic regression by IRLS in Newton form.

    y may be any values in [0, 1] (quasi-binomial working likelihood).
    Singular designs, separation and non-convergence fall back to the
    intercept-only solution rather than returning runaway coefficients.
    `start` gives Newton's first coefficients (see the module docstring);
    None starts from zero.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    n, p = X.shape
    if p == 1 and np.all(X[:, 0] == 1.0):
        # the score equation's root in closed form (see the module docstring)
        b0 = _intercept_logit(y)
        if abs(b0) <= _SEPARATION_ETA:
            return GlmFit(coef=np.array([b0]), family="binomial")
        return _logistic_intercept_fallback(X, y, "separation")
    XT = np.ascontiguousarray(X.T)
    if start is not None:
        eta = X @ start
        if np.abs(eta).max() <= _SEPARATION_ETA:
            warm = _newton(X, XT, y, np.array(start, dtype=float), eta)
            if warm.fallback is None:
                return warm
    return _newton(X, XT, y, np.zeros(p), np.zeros(n))


def _newton(X: np.ndarray, XT: np.ndarray, y: np.ndarray, beta: np.ndarray,
            eta: np.ndarray) -> GlmFit:
    """Newton iterations for the logistic score from beta (eta = X @ beta).

    The rank is known from the second iteration on: the first step either
    passed the pivot check or, rejected, asked `design_is_singular`.
    """
    n = len(y)
    for it in range(1, _IRLS_MAX_ITER + 1):
        mu = expit(eta)
        resid = y - mu
        score = XT @ resid
        if np.abs(score).max() / n <= _IRLS_TOL:
            if it == 1 and design_is_singular(X):
                return _logistic_intercept_fallback(X, y, "singular_design")
            if np.abs(eta).max() > _SEPARATION_ETA:
                return _logistic_intercept_fallback(X, y, "separation")
            return GlmFit(coef=beta, family="binomial", n_iter=it)
        irls_w = np.maximum(mu * (1.0 - mu), 1e-12)
        step = _normal_solve(XT * irls_w, X, score)
        if step is None:
            if it == 1 and design_is_singular(X):
                return _logistic_intercept_fallback(X, y, "singular_design")
            step = weighted_lstsq(X, resid / irls_w, irls_w)
        if not np.isfinite(step).all():
            return _logistic_intercept_fallback(X, y, "no_convergence")
        beta = beta + step
        eta = X @ beta
        if np.abs(eta).max() > 2 * _SEPARATION_ETA:
            # runaway linear predictor: separation in progress
            return _logistic_intercept_fallback(X, y, "separation")
        if np.abs(step).max() < _IRLS_TOL:
            if np.abs(eta).max() > _SEPARATION_ETA:
                return _logistic_intercept_fallback(X, y, "separation")
            return GlmFit(coef=beta, family="binomial", n_iter=it)
    return _logistic_intercept_fallback(X, y, "no_convergence")


def _intercept_col(X: np.ndarray) -> int:
    # prefer an all-ones column if the design has one, else column 0
    for j in range(X.shape[1]):
        if np.all(X[:, j] == 1.0):
            return j
    return 0


def _intercept_logit(y: np.ndarray) -> float:
    """Root of the intercept-only logistic score equation, logit(mean y)."""
    with np.errstate(divide="ignore"):  # a mean of 0 or 1 has an infinite logit
        return float(logit(np.mean(y)))


def _logistic_intercept_fallback(X: np.ndarray, y: np.ndarray, reason: str) -> GlmFit:
    """Intercept-only logistic fit, used when the full fit fails: its score
    equation's root, clipped to the separation bound."""
    coef = np.zeros(X.shape[1])
    coef[_intercept_col(X)] = np.clip(_intercept_logit(y), -_SEPARATION_ETA, _SEPARATION_ETA)
    return GlmFit(coef=coef, family="binomial", fallback=reason)


def rss_floor(y: np.ndarray) -> float:
    """RSS at or below which a least-squares fit of y is exact (rounding noise)."""
    return _RSS_FLOOR * float(y @ y)


def aic(X: np.ndarray, y: np.ndarray, fit: GlmFit) -> float:
    """AIC of `fit` on (X, y) under its family's likelihood."""
    if fit.family == "binomial":
        p = np.clip(fit.predict(X), 1e-12, 1 - 1e-12)
        ll = float(np.sum(y * np.log(p) + (1 - y) * np.log1p(-p)))
        return -2 * ll + 2 * X.shape[1]
    resid = y - X @ fit.coef
    n = len(y)
    # an exact fit's RSS is rounding noise; flooring it relative to y's
    # scale makes every exact model tie, so stepwise stops at the first one
    rss = max(float(resid @ resid), rss_floor(y), 1e-300)
    return n * np.log(rss / n) + 2 * X.shape[1]


def forward_stepwise_aic(T: np.ndarray, y: np.ndarray, family: str) -> tuple[list[int], GlmFit]:
    """Greedy forward selection by AIC over the columns of T.

    Column 0 is the intercept and is always in the model. Starting from it
    alone, adds at most `STEPWISE_MAX_TERMS` of columns 1.., each time
    taking the single addition that lowers AIC most. Returns the chosen
    columns of T, in order of entry, and the fit on T's columns
    (0, *chosen), stacked C-contiguous.
    """
    def fit_on(idx: list[int], start: np.ndarray | None = None) -> tuple[GlmFit, float]:
        X = np.column_stack([T[:, j] for j in (0, *idx)])
        f = fit(X, y, family, start)
        return f, aic(X, y, f)

    chosen: list[int] = []
    best_fit, best_aic = fit_on(chosen)
    remaining = list(range(1, T.shape[1]))
    while remaining and len(chosen) < STEPWISE_MAX_TERMS:
        # a logistic trial starts from the current model, 0 for the new term
        start = None if best_fit.fallback else np.append(best_fit.coef, 0.0)
        trial = [(j, *fit_on(chosen + [j], start)) for j in remaining]
        j_best, f_best, aic_best = min(trial, key=lambda t: t[2])
        if aic_best < best_aic - 1e-12:
            chosen.append(j_best)
            remaining.remove(j_best)
            best_fit, best_aic = f_best, aic_best
        else:
            break
    return chosen, best_fit
