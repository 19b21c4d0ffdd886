import numpy as np
from scipy.special import expit

from rcpolicy import glm


def test_linear_exact_on_noiseless_data():
    rng = np.random.default_rng(0)
    X = np.column_stack([np.ones(200), rng.normal(size=200)])
    beta = np.array([0.3, -1.2])
    fit = glm.fit_linear(X, X @ beta)
    assert fit.fallback is None
    assert np.allclose(fit.coef, beta, atol=1e-10)


def test_logistic_recovers_coefficients():
    rng = np.random.default_rng(1)
    n = 40000
    X = np.column_stack([np.ones(n), rng.normal(size=n)])
    beta = np.array([-0.25, 0.7])
    y = rng.binomial(1, expit(X @ beta)).astype(float)
    fit = glm.fit_logistic(X, y)
    assert fit.fallback is None
    assert np.allclose(fit.coef, beta, atol=0.06)


def test_logistic_fractional_response():
    # quasi-binomial: y in [0,1] but not 0/1, solves the same score equation
    rng = np.random.default_rng(2)
    n = 5000
    X = np.column_stack([np.ones(n), rng.normal(size=n)])
    y = expit(X @ np.array([0.1, 0.5]))
    fit = glm.fit_logistic(X, y)
    assert fit.fallback is None
    assert np.allclose(fit.coef, [0.1, 0.5], atol=1e-6)


def test_singular_design_falls_back_to_intercept():
    x = np.arange(30, dtype=float)
    X = np.column_stack([np.ones(30), x, 2 * x])
    y = (x > 10).astype(float)
    fit = glm.fit_logistic(X, y)
    assert fit.fallback == "singular_design"
    p = fit.predict(X)
    assert np.allclose(p, p[0])  # intercept-only probabilities
    assert abs(p[0] - y.mean()) < 1e-6


def test_separation_falls_back():
    x = np.concatenate([-np.ones(20), np.ones(20)])
    X = np.column_stack([np.ones(40), x])
    y = (x > 0).astype(float)
    fit = glm.fit_logistic(X, y)
    assert fit.fallback in ("separation", "no_convergence")
    assert np.isfinite(fit.coef).all()


def test_intercept_fallback_solves_mean_score():
    # singular design with the all-ones column second: the fallback puts
    # the intercept there and solves sum(y - expit(b0)) = 0
    n = 500
    rng = np.random.default_rng(3)
    y = rng.binomial(1, 0.3, size=n).astype(float)
    X = np.column_stack([np.zeros(n), np.ones(n)])
    fit = glm.fit_logistic(X, y)
    assert fit.fallback == "singular_design"
    assert fit.coef[0] == 0.0
    assert abs(np.mean(y - expit(fit.coef[1]))) < 1e-8


def test_stepwise_selects_true_term():
    rng = np.random.default_rng(4)
    n = 2000
    cols = [rng.normal(size=n) for _ in range(5)]
    y = 1.5 * cols[2] + rng.normal(scale=0.5, size=n)
    chosen, fit = glm.forward_stepwise_aic(cols, y, family="gaussian")
    assert 2 in chosen
    assert fit.family == "gaussian"


def test_stepwise_caps_terms():
    rng = np.random.default_rng(5)
    n = 400
    cols = [rng.normal(size=n) for _ in range(8)]
    y = sum(cols) + rng.normal(scale=0.1, size=n)
    chosen, _ = glm.forward_stepwise_aic(cols, y, family="gaussian", max_terms=5)
    assert len(chosen) <= 5


def test_stepwise_null_signal_stays_small():
    rng = np.random.default_rng(6)
    n = 300
    cols = [rng.normal(size=n) for _ in range(4)]
    y = rng.normal(size=n)
    chosen, _ = glm.forward_stepwise_aic(cols, y, family="gaussian")
    assert len(chosen) <= 2  # AIC should not load up on noise
