import re

import numpy as np
import pytest

from oracles import OracleOutcomeModel, OraclePropensityModel, pseudo_outcome_of
from rcpolicy import (
    Dataset,
    adaptr_like,
    fit_blip,
    fit_outcome,
    fit_propensity,
    generate,
    null_effect,
    one_interaction,
    stratified_folds,
    subgroup_scan,
)
from rcpolicy.dgp import ADAPTR_CELLS, ADAPTR_MASSES
from rcpolicy.learners import BlipModel, _candidates


def _binary_ds(w, a, y, names=("w1",), **kw):
    return Dataset(w=np.asarray(w, dtype=float), a=np.asarray(a), y=np.asarray(y, dtype=float),
                   covariate_names=names, **kw)


# --- fold assignment ---------------------------------------------------------


def test_stratified_folds_balance_arms():
    rng = np.random.default_rng(0)
    a = rng.binomial(1, 0.3, size=997)
    fold = stratified_folds(a, 10, seed=5)
    assert fold.shape == (997,)
    assert set(fold) == set(range(10))
    for arm in (0, 1):
        counts = np.bincount(fold[a == arm], minlength=10)
        assert counts.max() - counts.min() <= 1


def test_stratified_folds_deterministic():
    a = np.array([0, 1] * 50)
    assert np.array_equal(stratified_folds(a, 5, seed=3), stratified_folds(a, 5, seed=3))
    assert not np.array_equal(stratified_folds(a, 5, seed=3), stratified_folds(a, 5, seed=4))


def test_stratified_folds_validation():
    a = np.array([0, 1, 0, 1])
    with pytest.raises(ValueError):
        stratified_folds(a, 1, seed=0)
    with pytest.raises(ValueError):
        stratified_folds(a, 5, seed=0)


# --- outcome model -----------------------------------------------------------


def test_constant_outcome_clips_to_one():
    ds = _binary_ds(np.array([[0.0], [1.0]] * 20), [0, 1] * 20, [1.0] * 40)
    q = fit_outcome(ds, ("mean", "glm"), folds=4, seed=0)
    q0, q1 = q.predict_both(ds.w)
    assert np.all(q0 == 1 - 1e-6)
    assert np.all(q1 == 1 - 1e-6)


def test_saturated_two_cell_arm_means():
    """With balanced cells the glm reproduces arm means exactly."""
    # arm 0 mean 0.4, arm 1 mean 0.6; W carries no signal by construction
    w = np.tile(np.array([0.0, 1.0]), 200)[:, None]
    a = np.repeat([0, 1], 200)
    y = np.zeros(400)
    for arm, mean in ((0, 0.4), (1, 0.6)):
        for lvl in (0.0, 1.0):
            idx = np.where((a == arm) & (w[:, 0] == lvl))[0]
            y[idx[: int(mean * len(idx))]] = 1.0
    ds = _binary_ds(w, a, y)
    q = fit_outcome(ds, ("glm",), folds=4, seed=1)
    q0, q1 = q.predict_both(ds.w)
    assert np.max(np.abs(q0 - 0.4)) <= 1e-6
    assert np.max(np.abs(q1 - 0.6)) <= 1e-6


def test_outcome_recovers_cell_blips(adaptr_20k):
    """Treatment-arm difference tracks the per-cell truth on a large draw.

    The two rarest cells carry masses 0.0034 and 0.0294, so their
    difference has a sampling floor near 0.02 at this n no matter the
    estimator; the strict bound applies to cells with enough data and a
    mass-weighted bound covers the rest.
    """
    spec = adaptr_like(seed=7)
    q = fit_outcome(adaptr_20k, ("glm",), folds=5, seed=2)
    cells = np.array(ADAPTR_CELLS, dtype=float)
    masses = np.array(ADAPTR_MASSES)
    err = (q.predict(1, cells) - q.predict(0, cells)) - spec.true_blip(cells)
    assert np.max(np.abs(err[masses >= 0.05])) <= 0.02
    assert np.sqrt(np.sum(masses * err**2) / masses.sum()) <= 0.02
    assert np.max(np.abs(err)) <= 0.06


def test_outcome_weights_on_simplex(adaptr_2k):
    q = fit_outcome(adaptr_2k, ("mean", "glm", "univariate"), folds=5, seed=3)
    assert np.all(q.weights >= -1e-12)
    assert abs(q.weights.sum() - 1.0) <= 1e-10
    assert q.ensemble_cv_risk <= q.cv_risks.min() + 1e-10


def test_outcome_rejects_bad_inputs(adaptr_2k):
    with pytest.raises(ValueError):
        fit_outcome(adaptr_2k, ("mean",), folds=3000, seed=0)
    bad = _binary_ds([[0.0], [1.0]], [0, 1], [0.0, 1.5], outcome_kind="bounded_real",
                     y_bounds=(0.0, 1.5))
    with pytest.raises(ValueError):
        fit_outcome(bad, ("mean",), folds=2, seed=0)


def test_outcome_deterministic(adaptr_2k):
    q1 = fit_outcome(adaptr_2k, ("mean", "glm"), folds=5, seed=9)
    q2 = fit_outcome(adaptr_2k, ("mean", "glm"), folds=5, seed=9)
    assert np.array_equal(q1.weights, q2.weights)
    assert np.array_equal(q1.predict(1, adaptr_2k.w), q2.predict(1, adaptr_2k.w))


# --- candidate table ---------------------------------------------------------

_OUT1, _BLIP1 = (None, None, "x", "x"), (None, "x")
_OUT3, _BLIP3 = (None, None, "u", "v", "w", "u", "v", "w"), (None, "u", "v", "w")
_FULL = ("mean", "glm", "univariate", "step_aic")


@pytest.mark.parametrize("library, tags, expected", [
    # one covariate: uni:x has glm's columns, so only glm keeps them
    (_FULL, _OUT1, [("mean", (0,)), ("glm", (0, 1, 2, 3)), ("step_aic", None)]),
    (_FULL, _BLIP1, [("mean", (0,)), ("glm", (0, 1)), ("step_aic", None)]),
    (_FULL, _OUT3, [("mean", (0,)), ("glm", (0, 1, 2, 3, 4, 5, 6, 7)), ("uni:u", (0, 1, 2, 5)),
                    ("uni:v", (0, 1, 3, 6)), ("uni:w", (0, 1, 4, 7)), ("step_aic", None)]),
    (_FULL, _BLIP3, [("mean", (0,)), ("glm", (0, 1, 2, 3)), ("uni:u", (0, 1)), ("uni:v", (0, 2)),
                     ("uni:w", (0, 3)), ("step_aic", None)]),
    # repeats keep their first place, also when univariate repeats an explicit uni:
    (("uni:w", "mean", "univariate", "mean", "uni:u"), _OUT3,
     [("uni:w", (0, 1, 4, 7)), ("mean", (0,)), ("uni:u", (0, 1, 2, 5)), ("uni:v", (0, 1, 3, 6))]),
    (("univariate", "uni:v", "glm", "glm"), _BLIP3,
     [("uni:u", (0, 1)), ("uni:v", (0, 2)), ("uni:w", (0, 3)), ("glm", (0, 1, 2, 3))]),
    (("step_aic", "step_aic"), _BLIP1, [("step_aic", None)]),
])
def test_candidates_pick_term_columns_by_tag(library, tags, expected):
    assert _candidates(library, tags) == expected


def test_no_two_candidates_of_a_stack_share_columns():
    # with one covariate, glm and uni:w1 would fit the same design in every split
    ds = generate(one_interaction(n_covariates=1, seed=3), 400)
    q = fit_outcome(ds, _FULL, folds=5, seed=3)
    d = pseudo_outcome_of(ds, q, fit_propensity(ds, known_value=0.5))
    b = fit_blip(ds, d, _FULL, folds=5, seed=3)
    for stack in (q, b):
        assert stack.candidate_names == ("mean", "glm", "step_aic")
        fixed = [c.terms for c in stack.candidates if c.name != "step_aic"]
        assert len(set(fixed)) == len(fixed)


@pytest.mark.parametrize("library, tags, message", [
    (("mean", "uni:z"), _OUT3, "unknown covariate in learner spec 'uni:z'"),
    (("uni:",), _BLIP1, "unknown covariate in learner spec 'uni:'"),
    (("glm", "lasso"), _BLIP3, "unknown learner spec 'lasso'"),
    (("Mean",), _OUT1, "unknown learner spec 'Mean'"),
    ((), _OUT1, "empty learner library"),
])
def test_candidates_reject_bad_libraries(library, tags, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        _candidates(library, tags)


def _constant_in_one_split(kind):
    # w2 varies only on fold 1's rows, so it is constant (zero) inside
    # training split 1 and that split's term matrix is rank-deficient
    rng = np.random.default_rng(8)
    n = 240
    a = rng.binomial(1, 0.5, size=n)
    fold = stratified_folds(a, 3, seed=4)
    w1 = rng.normal(size=n)
    w2 = np.where(fold == 1, rng.normal(size=n), 0.0)
    p = 1 / (1 + np.exp(-(0.3 * a + 0.5 * w1 - 0.4 * w2)))
    y = rng.binomial(1, p).astype(float) if kind == "binary" else p
    return Dataset(w=np.column_stack([w1, w2]), a=a, y=y, covariate_names=("w1", "w2"),
                   outcome_kind=kind)


def _record_rank_checks(monkeypatch):
    """Log (rows, inside a fit) per design_is_singular call, where inside a
    fit means during a glm.fit_logistic or glm.fit_linear call."""
    from rcpolicy import glm

    log = []
    depth = [0]
    check, logistic, linear = glm.design_is_singular, glm.fit_logistic, glm.fit_linear

    def checked(X):
        log.append((X.shape[0], depth[0] > 0))
        return check(X)

    def fit(original):
        def inside(*args, **kwargs):
            depth[0] += 1
            try:
                return original(*args, **kwargs)
            finally:
                depth[0] -= 1
        return inside

    monkeypatch.setattr(glm, "design_is_singular", checked)
    monkeypatch.setattr(glm, "fit_logistic", fit(logistic))
    monkeypatch.setattr(glm, "fit_linear", fit(linear))
    return log


@pytest.mark.parametrize("kind", ["binary", "bounded_real"])
def test_rank_deficient_split_warns_per_fit(kind, monkeypatch):
    # in the split where w2 is constant the fits that hold w2 fail the pivot
    # check and find the design singular; the stack checks nothing itself
    ds = _constant_in_one_split(kind)
    expected = ("glm: singular_design (fold 1)", "uni:w2: singular_design (fold 1)")
    library = ("mean", "glm", "univariate", "step_aic")
    log = _record_rank_checks(monkeypatch)
    q = fit_outcome(ds, library, folds=3, seed=4)
    assert q.warnings == expected
    fold_rows = np.bincount(stratified_folds(ds.a, 3, seed=4), minlength=3)
    assert log and set(log) == {(ds.n - fold_rows[1], True)}
    d = pseudo_outcome_of(ds, q, fit_propensity(ds, known_value=0.5))
    b = fit_blip(ds, d, library, folds=3, seed=4)
    assert b.warnings == expected


def test_stack_makes_no_rank_check_of_its_own(adaptr_2k, monkeypatch):
    # a full-rank term matrix: every one of the stack's 174 fits passes its
    # pivot check, so no rank check runs at all
    log = _record_rank_checks(monkeypatch)
    fit_outcome(adaptr_2k, ("mean", "glm", "univariate", "step_aic"), folds=5, seed=0)
    assert log == []


def _stack_run(monkeypatch, ds, library, cold):
    """Stepwise picks in call order and the two stacks; cold strips every
    logistic start."""
    from rcpolicy import glm

    picks = []
    stepwise, logistic = glm.forward_stepwise_aic, glm.fit_logistic

    def logged(*args, **kwargs):
        chosen, fit = stepwise(*args, **kwargs)
        picks.append(tuple(chosen))
        return chosen, fit

    def no_start(X, y, *, start=None, **kwargs):
        return logistic(X, y, **kwargs)

    with monkeypatch.context() as m:
        m.setattr(glm, "forward_stepwise_aic", logged)
        if cold:
            m.setattr(glm, "fit_logistic", no_start)
        q = fit_outcome(ds, library, folds=3, seed=5)
        d = pseudo_outcome_of(ds, q, fit_propensity(ds, known_value=0.5))
        b = fit_blip(ds, d, library, folds=3, seed=6)
    return picks, q, b


@pytest.mark.parametrize("draw", ["adaptr_2k", "separation_prone"])
def test_warm_starts_change_no_warning_or_stepwise_pick(draw, adaptr_2k, monkeypatch):
    # the separation-prone draw separates in two of three training splits
    ds = adaptr_2k if draw == "adaptr_2k" else generate(one_interaction(seed=1063), 60)
    library = ("mean", "glm", "univariate", "step_aic")
    warm_picks, q, b = _stack_run(monkeypatch, ds, library, cold=False)
    cold_picks, q_cold, b_cold = _stack_run(monkeypatch, ds, library, cold=True)
    assert warm_picks == cold_picks and len(warm_picks) == 8
    assert q.warnings == q_cold.warnings and b.warnings == b_cold.warnings
    if draw == "separation_prone":
        assert sum("separation" in w for w in q.warnings) >= 2
    for fit, ref in ((q.predict(1, ds.w), q_cold.predict(1, ds.w)),
                     (b.predict(ds.w), b_cold.predict(ds.w))):
        assert np.allclose(fit, ref, rtol=1e-8, atol=1e-10)


def test_outcome_equal_to_treatment_is_fit_by_treatment_alone(monkeypatch):
    # the icer cost side: a cost that is exactly A. Every stepwise call
    # stops at A (term column 1), with and without logistic starts
    ds = generate(adaptr_like(seed=12), 600)
    ds_a = Dataset(w=ds.w, a=ds.a, y=ds.a.astype(float), covariate_names=ds.covariate_names,
                   outcome_kind="bounded_real", y_bounds=(0.0, 1.0))
    for cold in (False, True):
        picks, q, _ = _stack_run(monkeypatch, ds_a, ("mean", "step_aic"), cold)
        assert picks[:4] == [(1,)] * 4  # three splits and the full fit, outcome stack
        assert q.candidates[1].terms == (0, 1)


def test_candidate_falling_back_only_in_cv_is_weighted_by_its_fallbacks(monkeypatch):
    # glm falls back on every training split but fits all rows cleanly: its
    # weight and CV risk come from the fallbacks' held-out predictions, and
    # its full-data refit is the clean fit
    from rcpolicy import glm
    from rcpolicy.learners import _outcome_terms
    from rcpolicy.simplex import simplex_lstsq

    ds = generate(one_interaction(seed=4), 600)
    fits = []
    real_fit = glm.fit

    def split_fallback(X, y, family, start=None):
        if X.shape[1] > 1 and len(y) < ds.n:
            out = glm._logistic_intercept_fallback(X, y, "singular_design")
        else:
            out = real_fit(X, y, family, start)
        fits.append(out)
        return out

    monkeypatch.setattr(glm, "fit", split_fallback)
    q = fit_outcome(ds, ("mean", "glm"), folds=3, seed=5)
    assert len(fits) == 8  # 2 candidates x (3 splits + the full fit)
    T = _outcome_terms(ds.a, ds.w)
    terms = ((0,), tuple(range(T.shape[1])))
    Z = np.empty((ds.n, 2))
    fold_id = stratified_folds(ds.a, 3, 5)
    for v in range(3):
        val = fold_id == v
        for j in range(2):
            Z[val, j] = fits[2 * v + j].predict(T[val][:, terms[j]])
    assert np.array_equal(q.weights, simplex_lstsq(Z, ds.y))
    assert np.array_equal(q.cv_risks, np.mean((ds.y[:, None] - Z) ** 2, axis=0))
    assert q.candidates[1].fit is fits[-1] and q.candidates[1].fit.fallback is None
    assert np.any(q.candidates[1].fit.coef[1:] != 0.0)
    assert q.warnings == tuple(f"glm: singular_design (fold {v})" for v in range(3))


@pytest.mark.parametrize("a, message", [((0, 1), "empty"), ((0, 1, 1, 1, 1), "missing an arm")])
def test_outcome_stack_needs_two_rows_per_arm(a, message):
    n = len(a)
    ds = _binary_ds(np.arange(n, dtype=float)[:, None], a, [0.0, 1.0, 1.0, 0.0, 1.0][:n])
    with pytest.raises(ValueError, match=f"for 2 folds: a training split is {message}; "
                                         "each treatment arm needs at least 2 rows"):
        fit_outcome(ds, ("mean",), folds=2, seed=0)
    if message == "missing an arm":  # a blip stack's splits need rows, not arms
        d = pseudo_outcome_of(ds, _StubQ(0.3, 0.7), _StubG(0.5))
        b = fit_blip(ds, d, ("mean",), folds=2, seed=0)
        assert b.weights.tolist() == [1.0]


# --- propensity --------------------------------------------------------------


def test_propensity_known_constant(adaptr_2k):
    g = fit_propensity(adaptr_2k, known_value=0.5)
    assert g.mode == "known_constant"
    assert np.all(g.predict(adaptr_2k.w) == 0.5)


def test_propensity_estimate_near_treated_fraction():
    ds = generate(adaptr_like(seed=18), 10000)
    g = fit_propensity(ds, estimate=True)
    assert g.mode == "estimated"
    frac = ds.n_treated / ds.n
    assert np.max(np.abs(g.predict(ds.w) - frac)) <= 0.02


def test_propensity_single_arm_errors():
    ds = _binary_ds([[0.0], [1.0], [0.0]], [1, 1, 1], [0.0, 1.0, 1.0])
    with pytest.raises(ValueError, match="single-arm"):
        fit_propensity(ds, estimate=True)
    g = fit_propensity(ds, known_value=0.5, estimate=True)  # reverts with a warning
    assert g.warnings
    assert np.all(g.predict(ds.w) == 0.5)


@pytest.mark.parametrize("known, constant", [(0.4, 0.4), (None, 6 / 11)])
def test_propensity_separation_falls_back_to_a_constant(known, constant):
    # A = w1 separates perfectly: the known value, else the treated fraction
    a = [1] * 6 + [0] * 5
    ds = _binary_ds([[float(v)] for v in a], a, [0.0, 1.0] * 5 + [1.0])
    g = fit_propensity(ds, known_value=known, estimate=True)
    assert g.mode == "known_constant" and g.constant == constant
    assert g.warnings == ("propensity fit fell back (separation); using constant",)
    assert np.all(g.predict(ds.w) == constant)


def test_propensity_truncation():
    ds = _binary_ds([[0.0], [1.0]] * 10, [0, 1] * 10, [0.0, 1.0] * 10)
    g = fit_propensity(ds, known_value=0.001, g_min=0.01)
    assert np.all(g.predict(ds.w) == 0.01)


# --- pseudo-outcome ----------------------------------------------------------


class _StubQ:
    def __init__(self, q0, q1):
        self.q0, self.q1 = q0, q1

    def predict(self, a, w):
        a = np.broadcast_to(np.asarray(a, dtype=float), (w.shape[0],))
        return np.where(a == 1, self.q1, self.q0)

    def predict_both(self, w):
        return self.predict(0, w), self.predict(1, w)


class _StubG:
    def __init__(self, g1):
        self.g1 = g1

    def predict(self, w):
        return np.full(np.atleast_2d(w).shape[0], self.g1)


def test_pseudo_outcome_no_residual_reduces_to_blip():
    ds = _binary_ds([[0.0], [1.0]], [0, 1], [0.3, 0.7],
                    outcome_kind="bounded_real", y_bounds=(0.0, 1.0))
    d = pseudo_outcome_of(ds, _StubQ(0.3, 0.7), _StubG(0.5))
    assert np.allclose(d, 0.4, atol=1e-12)


def test_pseudo_outcome_hand_arithmetic():
    # A=1, Y=1, q(1,w)=q(0,w)=0.5, g=0.5 -> D = (1/0.5)*0.5 + 0 = 1.0
    ds = _binary_ds([[0.0], [0.0]], [1, 0], [1.0, 0.5],
                    outcome_kind="bounded_real", y_bounds=(0.0, 1.0))
    d = pseudo_outcome_of(ds, _StubQ(0.5, 0.5), _StubG(0.5))
    assert d[0] == pytest.approx(1.0, abs=1e-12)


def test_pseudo_outcome_oracle_mean_near_ate():
    spec = adaptr_like(seed=3)
    ds = generate(spec, 20000)
    d = pseudo_outcome_of(ds, OracleOutcomeModel(spec), OraclePropensityModel(spec))
    assert abs(d.mean() - 0.098957) <= 0.01


def test_pseudo_outcome_double_robustness():
    """Misspecified outcome model, correct g: mean(D) still tracks the ATE."""
    spec = adaptr_like(seed=21)
    ds = generate(spec, 20000)
    q = fit_outcome(ds, ("mean",), folds=5, seed=0)  # intercept-only, wrong
    g = OraclePropensityModel(spec)
    d = pseudo_outcome_of(ds, q, g)
    se = d.std() / np.sqrt(ds.n)
    assert abs(d.mean() - 0.098957) <= 3 * se


# --- blip model --------------------------------------------------------------


def test_blip_recovers_cell_values():
    spec = adaptr_like(seed=8)
    ds = generate(spec, 20000)
    q = fit_outcome(ds, ("glm",), folds=5, seed=4)
    g = fit_propensity(ds, known_value=0.5)
    b = fit_blip(ds, pseudo_outcome_of(ds, q, g), ("mean", "glm", "univariate"), folds=5, seed=5)
    cells = np.array(ADAPTR_CELLS, dtype=float)
    assert np.max(np.abs(b.predict(cells) - spec.true_blip(cells))) <= 0.02


def test_blip_constant_truth_prefers_mean():
    from rcpolicy import constant_blip

    ds = generate(constant_blip(blip=0.1, seed=8), 20000)
    q = fit_outcome(ds, ("mean", "glm"), folds=5, seed=6)
    g = fit_propensity(ds, known_value=0.5)
    b = fit_blip(ds, pseudo_outcome_of(ds, q, g), ("mean", "glm", "univariate"), folds=5, seed=7)
    names = b.candidate_names
    w_mean = b.weights[names.index("mean")]
    assert w_mean >= b.weights.max() - 1e-12
    assert np.max(np.abs(b.predict(ds.w) - 0.1)) <= 0.02


def test_blip_weights_on_simplex(adaptr_2k):
    q = fit_outcome(adaptr_2k, ("mean", "glm"), folds=5, seed=8)
    g = fit_propensity(adaptr_2k, known_value=0.5)
    d = pseudo_outcome_of(adaptr_2k, q, g)
    b = fit_blip(adaptr_2k, d, ("mean", "glm", "univariate", "step_aic"), folds=5, seed=9)
    assert np.all(b.weights >= -1e-12)
    assert abs(b.weights.sum() - 1.0) <= 1e-10
    assert b.ensemble_cv_risk <= b.cv_risks.min() + 1e-10


def test_blip_serialization_round_trip(adaptr_2k):
    q = fit_outcome(adaptr_2k, ("mean", "glm"), folds=5, seed=10)
    g = fit_propensity(adaptr_2k, known_value=0.5)
    b = fit_blip(adaptr_2k, pseudo_outcome_of(adaptr_2k, q, g), ("mean", "glm"), folds=5, seed=11)
    back = BlipModel.from_dict(b.to_dict())
    assert np.array_equal(back.predict(adaptr_2k.w), b.predict(adaptr_2k.w))
    assert back.candidate_names == b.candidate_names


# --- subgroup scan -----------------------------------------------------------


def test_subgroup_scan_flags_interacting_covariate():
    ds = generate(one_interaction(base_blip=0.05, interaction=0.3, seed=31), 5000)
    results = {r.covariate: r for r in subgroup_scan(ds, alpha=0.1)}
    assert results["w1"].flagged
    assert results["w1"].p_value < 1e-3


def test_subgroup_scan_rejects_alpha_outside_unit_interval():
    ds = generate(one_interaction(base_blip=0.05, interaction=0.3, seed=31), 200)
    for alpha in (0.0, 1.0, 7.0, -0.1, float("nan")):
        with pytest.raises(ValueError, match="alpha"):
            subgroup_scan(ds, alpha=alpha)


def test_subgroup_scan_rejects_non_positive_max_levels():
    ds = generate(one_interaction(base_blip=0.05, interaction=0.3, seed=31), 200)
    for max_levels in (0, -3):
        with pytest.raises(ValueError, match="max_levels must be >= 1"):
            subgroup_scan(ds, max_levels=max_levels)
    assert all(len(r.levels) <= 1 for r in subgroup_scan(ds, max_levels=1))


def test_subgroup_scan_null_rejection_rates():
    """Non-interacting covariates reject near the nominal level."""
    spec = one_interaction(base_blip=0.05, interaction=0.3)
    flags = {name: 0 for name in spec.covariate_names[1:]}
    reps = 200
    for r in range(reps):
        ds = generate(spec.with_seed(1000 + r), 5000)
        for res in subgroup_scan(ds, alpha=0.1):
            if res.covariate in flags and res.flagged:
                flags[res.covariate] += 1
    for name, count in flags.items():
        assert abs(count / reps - 0.1) <= 0.05, name


def test_subgroup_scan_size_under_null():
    spec = null_effect(n_covariates=3)
    reps = 1000
    flags = np.zeros(3)
    for r in range(reps):
        ds = generate(spec.with_seed(2000 + r), 500)
        for j, res in enumerate(subgroup_scan(ds, alpha=0.1)):
            flags[j] += res.flagged
    rates = flags / reps
    assert np.all(np.abs(rates - 0.1) <= 0.03)


def test_subgroup_scan_skips_constant_covariate():
    ds = _binary_ds(np.column_stack([np.ones(40), np.tile([0.0, 1.0], 20)]),
                    [0, 1] * 20, [0.0, 1.0] * 20, names=("cst", "w2"))
    results = {r.covariate: r for r in subgroup_scan(ds)}
    assert "skipped" in results["cst"].note
    assert not results["cst"].flagged
    assert np.isnan(results["cst"].p_value)


@pytest.mark.parametrize("value", [0.0, 1.0])
def test_subgroup_scan_flags_nothing_on_a_constant_outcome(value):
    # both models fit a constant exactly; their RSS is rounding noise
    # (about 1e-30 for all ones), and its ratio must not read as a signal
    ds = generate(adaptr_like(seed=3), 400)
    const = Dataset(w=ds.w, a=ds.a, y=np.full(ds.n, value), covariate_names=ds.covariate_names)
    for res in subgroup_scan(const):
        assert res.p_value == 1.0 and not res.flagged, res.covariate


def test_subgroup_scan_exact_interaction_has_p_zero():
    x = np.tile([0.0, 1.0, 2.0, 3.0], 10)
    a = np.repeat([0, 1], 20)
    ds = Dataset(w=x[:, None], a=a, y=0.1 + 0.2 * x * a, covariate_names=("w1",),
                 outcome_kind="bounded_real", y_bounds=(0.0, 1.0))
    (res,) = subgroup_scan(ds)
    assert res.p_value == 0.0 and res.flagged


def test_subgroup_scan_levels_report_arm_differences():
    ds = generate(one_interaction(base_blip=0.0, interaction=0.3, seed=41), 4000)
    res = {r.covariate: r for r in subgroup_scan(ds)}["w1"]
    by_level = {lv.level: lv.effect for lv in res.levels}
    assert by_level[1.0] - by_level[0.0] > 0.15  # true gap is 0.3


def test_subgroup_scan_p_values_match_chi2_reference():
    from scipy.stats import chi2

    from rcpolicy.glm import weighted_lstsq

    def rss(X, y):
        resid = y - X @ weighted_lstsq(X, y)
        return float(resid @ resid)

    checked = 0
    for seed, interaction in ((31, 0.3), (32, 0.05), (33, 0.0)):
        ds = generate(one_interaction(base_blip=0.05, interaction=interaction, seed=seed), 3000)
        a, ones = ds.a.astype(float), np.ones(ds.n)
        for j, res in enumerate(subgroup_scan(ds)):
            x = ds.w[:, j]
            lr = ds.n * np.log(rss(np.column_stack([ones, a, x]), ds.y)
                               / rss(np.column_stack([ones, a, x, a * x]), ds.y))
            ref = chi2.sf(max(lr, 0.0), 1)
            assert res.p_value == pytest.approx(ref, rel=1e-12, abs=0.0), (seed, res.covariate)
            checked += 1
    assert checked >= 6


def test_subgroup_scan_validation(adaptr_2k):
    tiny = adaptr_2k.subset(np.arange(4))
    with pytest.raises(ValueError):
        subgroup_scan(tiny)
