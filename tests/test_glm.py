import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
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


def _with_intercept(cols):
    """A term matrix: a ones column, then cols (column j + 1 is cols[j])."""
    return np.column_stack([np.ones(len(cols[0])), *cols])


def test_stepwise_selects_true_term():
    rng = np.random.default_rng(4)
    n = 2000
    cols = [rng.normal(size=n) for _ in range(5)]
    y = 1.5 * cols[2] + rng.normal(scale=0.5, size=n)
    chosen, fit = glm.forward_stepwise_aic(_with_intercept(cols), y, family="gaussian")
    assert 3 in chosen
    assert fit.family == "gaussian"


def test_stepwise_caps_terms():
    rng = np.random.default_rng(5)
    n = 400
    cols = [rng.normal(size=n) for _ in range(8)]
    y = sum(cols) + rng.normal(scale=0.1, size=n)
    chosen, _ = glm.forward_stepwise_aic(_with_intercept(cols), y, family="gaussian")
    assert len(chosen) == glm.STEPWISE_MAX_TERMS == 5
    assert 0 not in chosen


def test_stepwise_null_signal_stays_small():
    rng = np.random.default_rng(6)
    n = 300
    cols = [rng.normal(size=n) for _ in range(4)]
    y = rng.normal(size=n)
    chosen, _ = glm.forward_stepwise_aic(_with_intercept(cols), y, family="gaussian")
    assert len(chosen) <= 2  # AIC should not load up on noise


@pytest.mark.parametrize("family", ["gaussian", "binomial"])
def test_stepwise_fit_is_the_fit_on_the_stacked_picked_columns(family):
    # the design is T's columns (0, *chosen) stacked C-contiguous; a
    # column-major T[:, idx] can round the fit differently in its last bits
    rng = np.random.default_rng(19)
    n = 500
    a = rng.binomial(1, 0.5, n).astype(float)
    w = rng.normal(size=(n, 3))
    T = np.column_stack([np.ones(n), a, w, a[:, None] * w])
    eta = -0.3 + 0.8 * a + 0.6 * w[:, 0] - 0.5 * a * w[:, 2]
    if family == "binomial":
        y = rng.binomial(1, expit(eta)).astype(float)
    else:
        y = eta + rng.normal(scale=0.3, size=n)
    chosen, fit = glm.forward_stepwise_aic(T, y, family)
    assert len(chosen) >= 2 and 0 not in chosen
    # each accepted model starts from the one before it, 0 for the new term
    ref = None
    for k in range(len(chosen) + 1):
        start = None if ref is None else np.append(ref.coef, 0.0)
        ref = glm.fit(np.column_stack([T[:, j] for j in (0, *chosen[:k])]), y, family, start)
    assert fit.coef.tobytes() == ref.coef.tobytes()
    assert fit.fallback is None and ref.fallback is None


# --- solver: normal equations with an SVD fallback ---------------------------


def _count_lstsq_fallbacks(monkeypatch):
    calls = []
    original = glm.weighted_lstsq

    def counted(X, y, w=None):
        calls.append(X.shape)
        return original(X, y, w)

    monkeypatch.setattr(glm, "weighted_lstsq", counted)
    return calls


def _normal_solve(X, y, w=None):
    """The weighted least-squares problem's normal-equations solve, or None."""
    XwT = X.T if w is None else X.T * w
    return glm._normal_solve(XwT, X, XwT @ y)


def test_normal_equations_accurate_on_badly_scaled_offset_covariate(monkeypatch):
    # a covariate around 5e6 with an A*W interaction: cond(X) ~ 7e7. The
    # reference is lstsq on unit-norm columns (cond ~ 1e2); plain lstsq on
    # X is itself off by up to ~3e-7 relative on such draws.
    rng = np.random.default_rng(12)
    n = 400
    a = rng.binomial(1, 0.5, n).astype(float)
    w = 1e6 * rng.normal(5, 1, n)
    X = np.column_stack([np.ones(n), a, w, a * w])
    assert np.linalg.cond(X) > 1e7
    y = 0.2 + 0.5 * a + 3e-7 * w - 1e-7 * a * w + rng.normal(size=n)
    wt = rng.uniform(0.01, 0.25, n)
    scale = np.linalg.norm(X, axis=0)
    fallbacks = _count_lstsq_fallbacks(monkeypatch)

    fit = glm.fit_linear(X, y)
    ref = np.linalg.lstsq(X / scale, y, rcond=None)[0] / scale
    assert fit.fallback is None
    assert np.allclose(fit.coef, ref, rtol=1e-8, atol=0)

    sw = np.sqrt(wt)
    ref_w = np.linalg.lstsq(X * sw[:, None] / scale, y * sw, rcond=None)[0] / scale
    assert np.allclose(_normal_solve(X, y, wt), ref_w, rtol=1e-8, atol=0)
    assert fallbacks == []  # solved on the normal equations


def test_near_collinear_design_takes_the_lstsq_fallback(monkeypatch):
    # passes the rank check, but the third column is the second plus 1e-7
    # noise: its Cholesky pivot is ~1e-7, below the normal equations' bound
    rng = np.random.default_rng(13)
    n = 400
    x = rng.normal(size=n)
    X = np.column_stack([np.ones(n), x, x + 1e-7 * rng.normal(size=n)])
    y = 1.0 + x + rng.normal(size=n)
    assert not glm.design_is_singular(X)
    fallbacks = _count_lstsq_fallbacks(monkeypatch)
    fit = glm.fit_linear(X, y)
    assert fallbacks == [X.shape]
    assert np.array_equal(fit.coef, np.linalg.lstsq(X, y, rcond=None)[0])


def test_pivot_bound_sits_between_accepted_and_rejected_designs(monkeypatch):
    # the third column's pivot is sqrt(1 - R^2) on [1, x]: ~1e-2 is solved
    # on the normal equations, ~1e-4 goes to lstsq (bound 1e-3)
    rng = np.random.default_rng(14)
    n = 400
    x = rng.normal(size=n)
    noise = rng.normal(size=n)
    fallbacks = _count_lstsq_fallbacks(monkeypatch)
    for eps, expect in ((1e-2, []), (1e-4, [(n, 3)])):
        fallbacks.clear()
        X = np.column_stack([np.ones(n), x, x + eps * noise])
        glm.fit_linear(X, x + noise)
        assert fallbacks == expect, eps


@pytest.mark.parametrize("second", ["double", "zero"])
def test_singular_gram_gives_the_singular_design_fallback(second, monkeypatch):
    # an exactly singular Gram matrix fails the pivot check, and only then
    # does a fit ask design_is_singular: once per Newton run, and a
    # warm-started fit that falls back runs again from zero
    x = np.linspace(-1.0, 1.0, 60)
    X = np.column_stack([np.ones(60), x, 2 * x if second == "double" else np.zeros(60)])
    y_lin = 0.5 + 0.3 * x
    y_bin = (x > 0.2).astype(float) * 0.6 + 0.2
    checks = []
    check = glm.design_is_singular
    monkeypatch.setattr(glm, "design_is_singular", lambda X: checks.append(X.shape) or check(X))
    lin = glm.fit_linear(X, y_lin)
    assert lin.fallback == "singular_design"
    assert np.array_equal(lin.coef, [y_lin.mean(), 0.0, 0.0])
    assert checks == [X.shape]
    for start, runs in ((None, 1), (np.array([0.1, 0.2, 0.0]), 2)):
        checks.clear()
        logit_fit = glm.fit_logistic(X, y_bin, start=start)
        assert logit_fit.fallback == "singular_design"
        assert np.array_equal(logit_fit.coef, [glm.logit(y_bin.mean()), 0.0, 0.0])
        assert checks == [X.shape] * runs


def test_intercept_fallback_is_the_clipped_logit_of_the_mean():
    # the intercept-only score equation sum(y - expit(b0)) = 0 has the root
    # logit(mean y); a mean of 0 or 1 maps to the separation bound
    X = np.column_stack([np.ones(4), [0.0, 1.0, 2.0, 3.0]])
    for y, b0 in (([0.0, 0.0, 1.0, 1.0], 0.0), ([0.0] * 4, -glm._SEPARATION_ETA),
                  ([1.0] * 4, glm._SEPARATION_ETA), ([1e-9] * 4, -glm._SEPARATION_ETA)):
        with np.errstate(all="raise"):
            fit = glm._logistic_intercept_fallback(X, np.array(y), "separation")
        assert np.array_equal(fit.coef, [b0, 0.0])


def test_expit_matches_the_two_branch_formula_bit_for_bit():
    tiny = np.finfo(float).smallest_subnormal
    eta = np.concatenate([np.linspace(-800, 800, 4001), [0.0, -0.0, np.inf, -np.inf, np.nan],
                          [750.0, -750.0, tiny, -tiny, 1e-310, -1e-310],
                          np.random.default_rng(15).normal(scale=20, size=1000)])
    ref = np.empty_like(eta)
    pos = eta >= 0
    ref[pos] = 1.0 / (1.0 + np.exp(-eta[pos]))
    e = np.exp(eta[~pos])
    ref[~pos] = e / (1.0 + e)
    assert np.array_equal(glm.expit(eta), ref, equal_nan=True)


@pytest.mark.parametrize("weighted", [False, True])
def test_one_column_design_is_a_division_that_matches_lstsq(weighted, monkeypatch):
    # p = 1 (the `mean` candidate, stepwise's start) never reaches LAPACK
    rng = np.random.default_rng(16)
    n = 660
    w = rng.uniform(0.01, 0.25, n) if weighted else None
    for col in (np.ones(n), rng.normal(size=n), rng.uniform(1e3, 1e4, n)):
        X = col[:, None]
        y = rng.normal(size=n) + 2.0 * col
        sw = np.ones(n) if w is None else np.sqrt(w)
        ref = np.linalg.lstsq(X * sw[:, None], y * sw, rcond=None)[0]
        with monkeypatch.context() as m:
            m.setattr(np.linalg, "cholesky", None)
            m.setattr(np.linalg, "solve", None)
            coef = _normal_solve(X, y, w)
        assert coef.shape == (1,)
        assert abs(coef[0] - ref[0]) <= 1e-15 * abs(ref[0])
    # a zero column fails the d > 0 guard: the design is singular
    assert _normal_solve(np.zeros((n, 1)), y, w) is None
    assert glm.fit_linear(np.zeros((n, 1)), y).fallback == "singular_design"


# --- intercept-only logistic fits in closed form ----------------------------------


@st.composite
def _intercept_only_responses(draw):
    """Responses whose mean lies near 0, near 1, near logit +-15 or anywhere."""
    n = draw(st.integers(1, 400))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["few_ones", "few_zeros", "fractional"]))
    if kind == "fractional":
        center = draw(st.one_of(st.floats(-17.0, 17.0), st.floats(14.0, 16.0),
                                st.floats(-16.0, -14.0)))
        y = expit(center + rng.normal(scale=draw(st.sampled_from([0.0, 0.01, 1.0])), size=n))
    else:
        y = np.zeros(n)
        y[rng.permutation(n)[: min(n, draw(st.integers(0, 3)))]] = 1.0
        if kind == "few_zeros":
            y = 1.0 - y
    return y


@settings(max_examples=300, deadline=None)
@given(_intercept_only_responses())
@example(np.zeros(5))
@example(np.ones(7))
@example(np.full(3, 0.5))
@example(np.full(4, expit(-15.5)))
def test_intercept_only_closed_form_matches_newton_from_zero(y):
    # Newton stops once |mean(y) - expit(b)| <= 1e-10, which pins b only to
    # about 1e-10 / (p (1 - p)) for a mean p: 2.6e-6 at p = 0.9999833. So
    # its coefficient is compared within that, and its probability within
    # 1e-9. At the separation bound that is 6.5e-4, so a mean whose logit
    # lies within 1e-3 of the bound may stop on either side of it.
    p = float(np.mean(y))
    with np.errstate(divide="ignore"):
        root = float(glm.logit(p))
    assume(not abs(abs(root) - glm._SEPARATION_ETA) < 1e-3)
    X = np.ones((len(y), 1))
    newton = glm._newton(X, np.ascontiguousarray(X.T), y, np.zeros(1), np.zeros(len(y)))
    closed = glm.fit_logistic(X, y)
    assert closed.fallback == newton.fallback
    if newton.fallback is None:
        assert abs(closed.coef[0] - newton.coef[0]) <= max(1e-9, 2e-10 / (p * (1.0 - p)))
        assert abs(expit(closed.coef[0]) - expit(newton.coef[0])) <= 1e-9
    else:
        assert np.array_equal(closed.coef, newton.coef)


def test_intercept_only_fit_runs_no_newton_step(monkeypatch):
    monkeypatch.setattr(glm, "_newton", None)
    y = np.array([0.0, 1.0, 1.0, 1.0])
    fit = glm.fit_logistic(np.ones((4, 1)), y, start=np.array([3.0]))
    assert fit.fallback is None and fit.coef[0] == glm.logit(0.75)
    assert glm.fit_logistic(np.ones((4, 1)), np.ones(4)).fallback == "separation"


# --- warm starts ----------------------------------------------------------------


@st.composite
def _logistic_problems(draw):
    """A design with an intercept, a 0/1 or fractional response, and a start."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(20, 200))
    p = draw(st.integers(1, 5))
    scale = draw(st.sampled_from([0.1, 1, 3]))
    X = np.column_stack([np.ones(n), scale * rng.normal(size=(n, p - 1))])
    kind = draw(st.sampled_from(["binomial", "fractional", "separated", "singular"]))
    beta = rng.normal(size=p)
    mu = expit(X @ beta)
    if kind == "fractional":
        y = mu
    elif kind == "separated" and p > 1:
        y = (X[:, 1] > np.median(X[:, 1])).astype(float)
    else:
        y = rng.binomial(1, mu).astype(float)
    if kind == "singular" and p > 1:
        X = np.column_stack([X, 2.0 * X[:, -1]])
    # starts as the stacks make them: a fit on overlapping rows, or the
    # current stepwise model with 0 for the new term, or a small draw
    how = draw(st.sampled_from(["subset", "stepwise", "small"]))
    if how == "subset":
        keep = rng.permutation(n)[: max(X.shape[1] + 1, int(n * draw(st.floats(0.5, 0.95))))]
        start = glm.fit_logistic(X[keep], y[keep]).coef
    elif how == "stepwise":
        start = np.append(glm.fit_logistic(X[:, :-1], y).coef, 0.0) if X.shape[1] > 1 else None
    else:
        start = rng.normal(scale=draw(st.sampled_from([0.01, 0.3, 1.0])), size=X.shape[1])
    return X, y, start


@settings(max_examples=300, deadline=None)
@given(_logistic_problems())
def test_a_start_changes_neither_the_fit_nor_the_fallback(problem):
    X, y, start = problem
    cold = glm.fit_logistic(X, y)
    warm = glm.fit_logistic(X, y, start=start)
    assert warm.fallback == cold.fallback
    if cold.fallback is None:
        assert np.allclose(warm.coef, cold.coef, rtol=1e-8, atol=1e-8)
    else:
        assert np.array_equal(warm.coef, cold.coef)


def test_start_beyond_the_separation_bound_is_dropped():
    rng = np.random.default_rng(17)
    n = 300
    X = np.column_stack([np.ones(n), rng.normal(size=n)])
    y = rng.binomial(1, expit(X @ np.array([0.2, 0.8]))).astype(float)
    cold = glm.fit_logistic(X, y)
    assert cold.n_iter > 2
    # from its own solution Newton stops at the first score test
    assert glm.fit_logistic(X, y, start=cold.coef).n_iter == 1
    far = np.array([0.0, 1.01 * glm._SEPARATION_ETA / np.max(np.abs(X[:, 1]))])
    dropped = glm.fit_logistic(X, y, start=far)
    assert np.array_equal(dropped.coef, cold.coef)
    assert dropped.n_iter == cold.n_iter
    for bad in ([np.nan, 0.0], [np.inf, 0.0]):
        assert np.array_equal(glm.fit_logistic(X, y, start=np.array(bad)).coef, cold.coef)


def test_exact_fit_stepwise_stops_at_the_first_exact_term(monkeypatch):
    # y = A is fit exactly by every model holding A; with the RSS floor all
    # of them tie, so the smallest one wins and stepwise stops there
    rng = np.random.default_rng(18)
    n = 500
    a = rng.binomial(1, 0.5, n).astype(float)
    w = rng.normal(size=(n, 2))
    T = _with_intercept([w[:, 0], a, w[:, 1], a * w[:, 0], a * w[:, 1]])
    chosen, fit = glm.forward_stepwise_aic(T, a, "gaussian")
    assert chosen == [2]
    assert np.allclose(fit.coef, [0.0, 1.0], atol=1e-12)
    fallbacks = _count_lstsq_fallbacks(monkeypatch)
    monkeypatch.setattr(glm, "_normal_solve", lambda XwT, X, rhs: None)
    assert glm.forward_stepwise_aic(T, a, "gaussian")[0] == [2]
    assert fallbacks  # the fits went through lstsq


# --- the pivot check is the rank check ------------------------------------------


@st.composite
def _rank_problems(draw):
    """[1, columns...] with duplicated, zero, constant and near-collinear
    columns at scales within 1e+-6, a 0/1 response, and a warm start."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    p = draw(st.integers(1, 6))
    n = draw(st.integers(2 * p + 10, 120))
    X = np.ones((n, p))
    for j in range(1, p):
        kind = draw(st.sampled_from(["normal", "binary", "duplicate", "zero", "constant",
                                     "near"]))
        if kind == "normal":
            X[:, j] = rng.normal(size=n)
        elif kind == "binary":
            X[:, j] = rng.binomial(1, 0.5, n)
        elif kind == "zero":
            X[:, j] = 0.0
        elif kind == "constant":
            X[:, j] = rng.normal()
        else:
            k = draw(st.integers(0, j - 1))
            eps = 0.0 if kind == "duplicate" else draw(st.sampled_from([1e-15, 1e-12, 1e-8]))
            X[:, j] = X[:, k] * (1 + eps * rng.normal(size=n))
    X[:, 1:] *= 10.0 ** rng.uniform(-6, 6, p - 1)
    y = rng.binomial(1, 0.4, n).astype(float)
    # a stepwise-style start (the model without the last column, plus 0), or
    # the cold fit's own coefficients, where Newton stops before any solve
    if p > 1 and draw(st.booleans()):
        start = np.append(glm.fit_logistic(X[:, :-1], y).coef, 0.0)
    else:
        start = glm.fit_logistic(X, y).coef
    return X, y, start


@settings(max_examples=300, deadline=None)
@given(_rank_problems())
def test_singular_design_is_reported_exactly_when_the_design_is_singular(problem):
    X, y, start = problem
    singular = glm.design_is_singular(X)
    for fit in (glm.fit_linear(X, y), glm.fit_logistic(X, y), glm.fit_logistic(X, y, start=start)):
        assert (fit.fallback == "singular_design") == singular
