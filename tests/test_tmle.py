import numpy as np
import pytest

from oracles import (OracleBlipModel, OracleOutcomeModel, OraclePropensityModel, one_fold,
                     single_sample_value)
from rcpolicy import (
    Dataset,
    PipelineConfig,
    STATIC_ARMS,
    adaptr_like,
    build_policy,
    constant_blip,
    continuous_blip,
    contrast_estimates,
    cv_tmle_value,
    derive_seed,
    evaluate_grid,
    fit_folds,
    generate,
    null_effect,
)
from rcpolicy.glm import logit
from rcpolicy.data import scale_outcome
from rcpolicy.tmle import _fluctuate, assignment_for, fit_full, value_from_assignment


# --- seed derivation ---------------------------------------------------------


def test_derive_seed_deterministic_and_separated():
    assert derive_seed(3, 11) == derive_seed(3, 11)
    assert derive_seed(3, 11) != derive_seed(3, 12)
    assert derive_seed(3, 11) != derive_seed(4, 11)
    assert derive_seed(3, 11) != derive_seed(11, 3)
    assert 0 <= derive_seed(0) < 2**32


# --- fluctuation and influence identities -------------------------------------


def test_score_solved_below_warning_level(adaptr_2k, lean_config):
    est = cv_tmle_value(adaptr_2k, 0.5, lean_config)
    assert est.score <= 1e-8
    assert not any("fluctuation" in w for w in est.warnings)


def test_fluctuation_with_all_zero_weights_is_skipped():
    offset, y = np.array([0.2, -0.4, 1.0]), np.array([1.0, 0.0, 0.0])
    eps, score, warning = _fluctuate(offset, np.zeros(3), y)
    assert eps == 0.0 and score == 0.0
    assert warning == "fluctuation skipped: all clever-covariate weights are zero"


def test_fluctuation_on_saturated_offsets_stalls():
    # expit(+-800) is exactly 1 or 0: the score is 0.5 and its derivative 0
    offset, h, y = np.array([800.0, -800.0]), np.ones(2), np.zeros(2)
    eps, score, warning = _fluctuate(offset, h, y)
    assert eps == 0.0 and score == 0.5
    assert warning == "fluctuation stalled: flat score derivative"


def _penalty(nuis, asg):
    """The budget penalty rows of the influence function, outcome units."""
    lo, hi = nuis.ds.y_scale
    return (hi - lo) * asg.tau_row * (asg.gtilde1 - asg.kappa)


def test_influence_component_identity(adaptr_2k, lean_config):
    nuis = fit_folds(adaptr_2k, lean_config)
    for target in (0.3, 0.7, "treat_all", "treat_none"):
        asg = assignment_for(nuis, target)
        est = value_from_assignment(nuis, asg)
        # the fluctuation zeroes the score, so the mean influence value
        # reduces to minus the mean budget penalty
        assert abs(est.eif.mean() + _penalty(nuis, asg).mean()) <= 1e-9


def test_static_policies_have_zero_penalty(adaptr_2k, lean_config):
    nuis = fit_folds(adaptr_2k, lean_config)
    for arm in STATIC_ARMS:
        asg = assignment_for(nuis, arm)
        est = value_from_assignment(nuis, asg)
        assert np.all(asg.tau_row == 0.0)
        assert abs(est.eif.mean()) <= 1e-9


# --- exact reductions ---------------------------------------------------------


def _two_cell_dataset():
    """200 rows, two covariate cells, exact within-cell arm means.

    cell w=0: treated mean 0.6, control mean 0.4
    cell w=1: treated mean 0.8, control mean 0.5
    """
    rows_w, rows_a, rows_y = [], [], []
    for w, arm, mean, count in (
        (0.0, 1, 0.6, 50), (0.0, 0, 0.4, 50),
        (1.0, 1, 0.8, 50), (1.0, 0, 0.5, 50),
    ):
        ones = int(round(mean * count))
        rows_w += [w] * count
        rows_a += [arm] * count
        rows_y += [1.0] * ones + [0.0] * (count - ones)
    return Dataset(
        w=np.array(rows_w)[:, None],
        a=np.array(rows_a),
        y=np.array(rows_y),
        covariate_names=("w1",),
    )


class _CellMeanQ:
    """Exact cell-arm means of the two-cell dataset, fitted-model shaped."""

    means = {(0, 0.0): 0.4, (1, 0.0): 0.6, (0, 1.0): 0.5, (1, 1.0): 0.8}

    def predict(self, a, w):
        a = np.broadcast_to(np.asarray(a, dtype=float), (w.shape[0],))
        return np.array([self.means[(int(ai), float(wi))] for ai, wi in zip(a, w[:, 0])])

    def predict_both(self, w):
        return self.predict(0, w), self.predict(1, w)


class _CellBlip:
    def predict(self, w):
        return np.where(w[:, 0] == 1.0, 0.3, 0.2)


class _KnownHalfG:
    def predict(self, w):
        return np.full(np.atleast_2d(w).shape[0], 0.5)


def test_tmle_matches_hand_gcomputation_exactly():
    """With exact cell means the fluctuation is a no-op and TMLE equals
    the hand g-computation cell average."""
    ds = _two_cell_dataset()
    q, g = _CellMeanQ(), _KnownHalfG()

    est_all = single_sample_value(ds, "treat_all", q=q, g=g)
    assert abs(est_all.epsilon) <= 1e-12
    assert est_all.psi == pytest.approx(0.5 * 0.6 + 0.5 * 0.8, abs=1e-10)

    est_none = single_sample_value(ds, "treat_none", q=q, g=g)
    assert est_none.psi == pytest.approx(0.5 * 0.4 + 0.5 * 0.5, abs=1e-10)

    # budget for half the sample: the w=1 cell outbids the w=0 cell
    pol = build_policy(_CellBlip(), ds, 0.5)
    est_half = single_sample_value(ds, pol, q=q, g=g)
    assert est_half.psi == pytest.approx(0.5 * 0.8 + 0.5 * 0.4, abs=1e-10)
    assert est_half.pct_treated == pytest.approx(0.5, abs=1e-12)


@pytest.mark.parametrize("arm, label", [(1, "treat_all"), (0, "treat_none"),
                                        (None, "rule(kappa=0.5)")])
def test_single_and_cv_routes_describe_a_policy_alike(arm, label):
    ds = _two_cell_dataset()
    policy = build_policy(_CellBlip(), ds, 0.5) if arm is None else STATIC_ARMS[arm]
    cfg = PipelineConfig(folds=2, g_known=0.5, outcome_library=("mean",), blip_library=("mean",))
    single = single_sample_value(ds, policy, q=_CellMeanQ(), g=_KnownHalfG())
    cv = cv_tmle_value(ds, policy, cfg)
    assert single.label == label
    fields = ("label", "kappa", "pct_treated", "pct_stochastic")
    assert [getattr(single, f) for f in fields] == [getattr(cv, f) for f in fields]


def test_grid_endpoints_bit_identical_to_statics(adaptr_2k, lean_config):
    res = evaluate_grid(adaptr_2k, (0.0, 0.5, 1.0), lean_config)
    zero, one = res.estimates[0], res.estimates[2]
    for got, ref in ((zero, res.treat_none), (one, res.treat_all)):
        assert got.psi == ref.psi
        assert got.se == ref.se
        assert got.ci == ref.ci
        assert np.array_equal(got.eif, ref.eif)
        assert got.pct_treated == ref.pct_treated


# --- statistical accuracy against the oracle -----------------------------------


def test_oracle_nuisance_values_near_truth():
    spec = adaptr_like(seed=12)
    ds = generate(spec, 20000)
    q, g = OracleOutcomeModel(spec), OraclePropensityModel(spec)
    blip = OracleBlipModel(spec)
    for kappa, truth in ((0.5, 0.726127), (1.0, 0.763957)):
        pol = build_policy(blip, ds, kappa)
        est = single_sample_value(ds, pol, q=q, g=g)
        assert abs(est.psi - truth) <= 3 * est.se, (kappa, est.psi, est.se)


def test_contrast_with_self_is_degenerate(adaptr_2k, lean_config):
    nuis = fit_folds(adaptr_2k, lean_config)
    a = cv_tmle_value(adaptr_2k, 0.5, lean_config, nuisance=nuis)
    b = cv_tmle_value(adaptr_2k, 0.5, lean_config, nuisance=nuis)
    res = contrast_estimates(a, b, lean_config.z_value)
    assert res.diff == 0.0
    assert res.se == 0.0
    assert res.ci == (0.0, 0.0)


def test_contrast_unconstrained_vs_none_covers_ate(lean_config):
    spec = adaptr_like(seed=17)
    ds = generate(spec, 20000)
    grid = evaluate_grid(ds, [1.0], lean_config)
    res = contrast_estimates(grid.estimates[0], grid.treat_none, lean_config.z_value)
    assert abs(res.diff - 0.098957) <= 3 * res.se
    assert res.ci[0] <= 0.098957 <= res.ci[1]
    assert res.label_a == "kappa=1"
    assert res.label_b == "treat_none"


# --- scale and reuse behavior ---------------------------------------------------


def test_affine_outcome_scaling_equivariance(adaptr_2k, lean_config):
    base = Dataset(
        w=adaptr_2k.w, a=adaptr_2k.a, y=adaptr_2k.y.astype(float),
        covariate_names=adaptr_2k.covariate_names,
        outcome_kind="bounded_real", y_bounds=(0.0, 1.0),
    )
    mapped = Dataset(
        w=adaptr_2k.w, a=adaptr_2k.a, y=2.0 + 4.0 * adaptr_2k.y,
        covariate_names=adaptr_2k.covariate_names,
        outcome_kind="bounded_real", y_bounds=(2.0, 6.0),
    )
    e0 = cv_tmle_value(base, 0.5, lean_config)
    e1 = cv_tmle_value(mapped, 0.5, lean_config)
    assert e1.psi == pytest.approx(2.0 + 4.0 * e0.psi, abs=1e-12)
    assert e1.se == pytest.approx(4.0 * e0.se, abs=1e-12)
    assert e1.ci[0] == pytest.approx(2.0 + 4.0 * e0.ci[0], abs=1e-11)
    assert e1.tau == pytest.approx(4.0 * e0.tau, abs=1e-12)


@pytest.mark.parametrize("scale", [1e13, 1e-13])
def test_covariate_units_do_not_change_the_estimate(scale):
    # matrix_rank on the raw design reads w1 in these units as rank-deficient;
    # the pivot check on the unit-diagonal Gram matrix does not
    ds = generate(continuous_blip(seed=5), 2000)
    cfg = PipelineConfig(folds=3, g_known=0.5, seed=5)
    w = ds.w.copy()
    w[:, 0] *= scale
    scaled = Dataset(w=w, a=ds.a, y=ds.y, covariate_names=ds.covariate_names,
                     outcome_kind=ds.outcome_kind)
    ref = evaluate_grid(ds, (0.5,), cfg).estimates[0]
    est = evaluate_grid(scaled, (0.5,), cfg).estimates[0]
    assert not any("singular_design" in msg for msg in est.warnings)
    assert est.psi == pytest.approx(ref.psi, abs=1e-9)


def test_cv_determinism(adaptr_2k, lean_config):
    a = cv_tmle_value(adaptr_2k, 0.4, lean_config)
    b = cv_tmle_value(adaptr_2k, 0.4, lean_config)
    assert a.psi == b.psi
    assert a.se == b.se
    assert np.array_equal(a.eif, b.eif)


def test_shared_nuisance_reuse_matches_fresh(adaptr_2k, lean_config):
    nuis = fit_folds(adaptr_2k, lean_config)
    a = cv_tmle_value(adaptr_2k, 0.6, lean_config, nuisance=nuis)
    b = cv_tmle_value(adaptr_2k, 0.6, lean_config)
    assert a.psi == b.psi and a.se == b.se


def test_supplied_fold_id_is_respected(adaptr_2k, lean_config):
    rng = np.random.default_rng(3)
    fold_id = rng.integers(0, 5, size=adaptr_2k.n)
    nuis = fit_folds(adaptr_2k, lean_config, fold_id=fold_id)
    assert np.array_equal(nuis.fold_id, fold_id)
    with pytest.raises(ValueError):
        fit_folds(adaptr_2k, lean_config, fold_id=fold_id[:10])


def test_fit_without_blips_keeps_q_and_g(adaptr_2k, lean_config):
    fold_id = np.random.default_rng(4).integers(0, 3, size=adaptr_2k.n)
    for cfg in (lean_config, lean_config.replace(g_known=None)):
        full = fit_folds(adaptr_2k, cfg, fold_id=fold_id)
        lean = fit_folds(adaptr_2k, cfg, fold_id=fold_id, blips=False)
        for key in ("q0", "q1", "g1", "fold_id"):
            assert np.array_equal(getattr(lean, key), getattr(full, key)), key
        assert lean.ds.y_scale == full.ds.y_scale
        assert lean.folds == full.folds == 3
        assert lean.tables == () and lean.val_blip.size == 0
        assert all(np.all(np.diff(t.rows) >= 0) for t in full.tables)
        static = assignment_for(lean, "treat_all")
        assert np.all(static.tau_row == 0)
        assert value_from_assignment(lean, static).psi == value_from_assignment(full, static).psi
        with pytest.raises(ValueError, match="blips"):
            assignment_for(lean, 0.5)


def _count_table_work(monkeypatch):
    """Count atom-table builds and the solves made on a prebuilt table."""
    from rcpolicy import rule, tmle

    calls = {"builds": 0, "solves": 0, "on_table": 0}
    build, solve = rule.atom_table, rule.solve_threshold

    def counted_build(*args, **kwargs):
        calls["builds"] += 1
        return build(*args, **kwargs)

    def counted_solve(blips, *args, **kwargs):
        calls["solves"] += 1
        calls["on_table"] += isinstance(blips, rule.AtomTable)
        return solve(blips, *args, **kwargs)

    for mod in (rule, tmle):
        monkeypatch.setattr(mod, "atom_table", counted_build)
        monkeypatch.setattr(mod, "solve_threshold", counted_solve)
    return calls


def test_each_fold_table_is_built_once_per_grid_and_curve(monkeypatch, lean_config):
    from rcpolicy import icer_curve

    ds = generate(continuous_blip(seed=3, with_cost=True), 600)
    kappas = (0.1, 0.3, 0.5, 0.8, 1.0)
    calls = _count_table_work(monkeypatch)
    evaluate_grid(ds, kappas, lean_config)
    folds = lean_config.folds
    assert calls == {"builds": folds, "solves": folds * len(kappas), "on_table": folds * len(kappas)}

    calls = _count_table_work(monkeypatch)
    icer_curve(ds, kappas, "treat_none", lean_config)
    # the cost side fits no blips, so only the outcome side's folds build
    assert calls == {"builds": folds, "solves": folds * len(kappas), "on_table": folds * len(kappas)}


def test_full_rules_predict_once_and_solve_every_budget_on_one_table(monkeypatch, lean_config):
    from rcpolicy.learners import BlipModel

    ds = generate(continuous_blip(seed=3), 600)
    kappas = (0.0, 0.1, 0.3, 0.5, 0.8, 1.0)
    calls = _count_table_work(monkeypatch)
    predicts = []
    predict = BlipModel.predict

    def counted_predict(self, w):
        predicts.append(len(w))
        return predict(self, w)

    monkeypatch.setattr(BlipModel, "predict", counted_predict)
    blip, nuis = fit_full(ds, lean_config)
    assignments = [assignment_for(nuis, kappa) for kappa in kappas]
    assert predicts == [ds.n]
    assert calls == {"builds": 1, "solves": len(kappas), "on_table": len(kappas)}
    ds_s = scale_outcome(ds)
    for kappa, asg in zip(kappas, assignments):
        ref = build_policy(blip, ds_s, kappa)
        assert asg.thresholds == (ref.threshold,)
        assert (asg.pct_treated, asg.pct_stochastic) == (ref.pct_treated, ref.pct_stochastic)
        assert np.array_equal(asg.gtilde1, ref.assign(ds_s.w))
    assert any(0 < asg.thresholds[0].tau for asg in assignments)


def test_each_fitted_nuisance_is_predicted_once_on_every_row(monkeypatch):
    from rcpolicy.learners import BlipModel, OutcomeModel, PropensityModel

    calls = []

    def counted(cls, name):
        predict = cls.predict

        def inside(self, *args):
            calls.append((name, *args[:-1], len(args[-1])))
            return predict(self, *args)
        monkeypatch.setattr(cls, "predict", inside)

    for cls, name in ((OutcomeModel, "q"), (PropensityModel, "g"), (BlipModel, "blip")):
        counted(cls, name)
    ds = generate(continuous_blip(seed=2), 300)
    cfg = PipelineConfig(folds=3, g_known=0.5, outcome_library=("mean", "glm"),
                         blip_library=("mean", "glm"))
    once = [("q", 0, ds.n), ("q", 1, ds.n), ("g", ds.n), ("blip", ds.n)]
    fit_folds(ds, cfg)
    assert calls == once * 3
    calls.clear()
    fit_full(ds, cfg)
    assert calls == once


def test_one_fold_nuisance_carries_the_logits(adaptr_2k):
    nuis = one_fold(adaptr_2k, OracleOutcomeModel(adaptr_like(seed=11)),
                    OraclePropensityModel(adaptr_like(seed=11)))
    assert nuis.folds == 1 and np.array_equal(nuis.fold_rows[0], np.arange(nuis.n))
    assert np.array_equal(nuis.logit_q1, logit(nuis.q1))
    q_obs = np.where(nuis.ds.a == 1, nuis.q1, nuis.q0)
    assert np.array_equal(nuis.logit_q_obs, logit(q_obs))


def test_one_fold_budget_matches_the_fitted_policy(adaptr_2k):
    """A one-fold nuisance with a blip model solves each budget on every
    row's blips: the rule build_policy fits, scored alike."""
    spec = adaptr_like(seed=11)
    q, g, blip = OracleOutcomeModel(spec), OraclePropensityModel(spec), OracleBlipModel(spec)
    nuis = one_fold(adaptr_2k, q, g, blip)
    assert len(nuis.tables) == 1 and np.array_equal(nuis.val_blip, blip.predict(adaptr_2k.w))
    for kappa in (0.3, 0.55, 1.0):
        asg = assignment_for(nuis, kappa)
        pol = build_policy(blip, adaptr_2k, kappa)
        assert asg.thresholds == (pol.threshold,)
        assert np.array_equal(asg.gtilde1, pol.assign(adaptr_2k.w))
        est, ref = value_from_assignment(nuis, asg), single_sample_value(adaptr_2k, pol, q, g)
        assert (est.psi, est.se, est.tau) == (ref.psi, ref.se, ref.tau)


def test_budget_assignment_keeps_each_folds_threshold(adaptr_2k, lean_config):
    from rcpolicy import solve_threshold

    nuis = fit_folds(adaptr_2k, lean_config)
    asg = assignment_for(nuis, 0.4)
    assert len(asg.thresholds) == nuis.folds
    for rows, table, sol in zip(nuis.fold_rows, nuis.tables, asg.thresholds):
        assert sol == solve_threshold(table, 0.4)
        assert np.all(asg.tau_row[rows] == sol.tau)
    assert assignment_for(nuis, "treat_all").thresholds == ()
    # a numpy integer is a budget like any other number
    assert np.array_equal(assignment_for(nuis, np.int64(1)).gtilde1,
                          assignment_for(nuis, 1.0).gtilde1)


def test_training_fold_losing_an_arm_errors():
    ds = Dataset(
        w=np.arange(6, dtype=float)[:, None],
        a=np.array([1, 1, 1, 1, 1, 0]),
        y=np.array([1.0, 0.0, 1.0, 1.0, 0.0, 1.0]),
        covariate_names=("w1",),
    )
    # a known g must not mask the lost arm: the outcome fit would then see
    # one arm only and report a falsely precise value
    for g in (dict(g_estimate=True), dict(g_known=0.5)):
        cfg = PipelineConfig(folds=2, outcome_library=("mean",), blip_library=("mean",), **g)
        with pytest.raises(ValueError, match="lost a treatment arm"):
            fit_folds(ds, cfg)


def test_grid_rejects_out_of_range_kappa(adaptr_2k, lean_config):
    with pytest.raises(ValueError):
        evaluate_grid(adaptr_2k, (0.0, 1.5), lean_config)


# --- Monte Carlo calibration -----------------------------------------------------


MC_CFG = PipelineConfig(folds=3, g_known=0.5,
                        outcome_library=("mean", "glm"), blip_library=("mean", "glm"))


def test_null_effect_coverage():
    """Nominal 95 percent CIs on a flat-value design cover near 95 percent."""
    spec = null_effect(n_covariates=3)
    reps, n = 200, 300
    hits = {k: 0 for k in (0.0, 0.5, 1.0)}
    for r in range(reps):
        ds = generate(spec.with_seed(5000 + r), n)
        res = evaluate_grid(ds, tuple(hits), MC_CFG)
        for k in hits:
            lo, hi = res.estimates[res.kappas.index(k)].ci
            hits[k] += lo <= 0.5 <= hi
    for k, h in hits.items():
        assert 0.90 <= h / reps <= 0.99, (k, h / reps)


def test_adaptr_coverage_of_fitted_rule_value():
    """CIs cover the true value of the rule each replicate actually fit.

    Interior budgets are checked against the fitted rule's own value (the
    estimator's target; at this n the learned rule can misrank the 0.10
    and 0.11 blip cells, so the oracle optimum sits slightly above it).
    At kappa = 1 no rule is learned and the oracle itself is the target.
    """
    from rcpolicy import oracle
    from rcpolicy.tmle import assignment_for

    reps, n = 120, 1500
    kappas = (0.3, 0.7, 1.0)
    spec0 = adaptr_like(seed=0)
    truth_one = oracle(spec0, kappas).value_at(1.0)
    hits = {k: 0 for k in kappas}
    for r in range(reps):
        ds = generate(spec0.with_seed(7000 + r), n)
        res = evaluate_grid(ds, kappas, MC_CFG)
        q1 = spec0.true_outcome(1, ds.w)
        q0 = spec0.true_outcome(0, ds.w)
        for k in kappas:
            lo, hi = res.estimates[res.kappas.index(k)].ci
            if k == 1.0:
                hits[k] += lo <= truth_one <= hi
            else:
                gt = assignment_for(res.nuisance, k).gtilde1
                theta = float(np.mean(gt * q1 + (1 - gt) * q0))
                hits[k] += lo <= theta <= hi
    for k, h in hits.items():
        assert h / reps >= 0.89, (k, h / reps)


def test_chord_contrast_coverage():
    """Paired contrast of the rule against the matching static mixture.

    On a constant-blip design the value curve IS the chord, so the
    contrast psi(0.5) - 0.5*(psi_none + psi_all) is exactly zero and its
    CI should cover zero at the nominal rate.
    """
    spec = constant_blip(blip=0.1, baseline=0.4)
    reps, n, covered = 150, 500, 0
    for r in range(reps):
        ds = generate(spec.with_seed(9000 + r), n)
        res = evaluate_grid(ds, (0.5,), MC_CFG)
        est = res.estimates[res.kappas.index(0.5)]
        diff = est.psi - 0.5 * (res.treat_none.psi + res.treat_all.psi)
        d = est.eif - 0.5 * (res.treat_none.eif + res.treat_all.eif)
        se = float(np.sqrt(np.mean(d * d) / est.n))
        covered += abs(diff) <= 1.959964 * se
    assert 0.90 <= covered / reps <= 0.995
