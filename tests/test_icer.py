import math

import numpy as np
import pytest

from rcpolicy import Dataset, PipelineConfig, fit_folds, icer_curve, ratio
from rcpolicy.tmle import assignment_for, value_from_assignment

LEAN = PipelineConfig(folds=5, g_known=0.5,
                      outcome_library=("mean", "glm"), blip_library=("mean", "glm"))


# --- plain ratio arithmetic ----------------------------------------------------


def test_ratio_reference_values():
    assert ratio(52.60, 9.74) == pytest.approx(5.4004, abs=1e-4)
    assert ratio(52.60, 9.74) == pytest.approx(5.40, abs=0.01)
    assert ratio(5.18, 2.73) == pytest.approx(1.8974, abs=1e-4)
    assert ratio(5.18, 2.73) == pytest.approx(1.90, abs=0.01)


def test_ratio_edge_cases():
    assert ratio(0.0, 3.0) == 0.0
    assert math.isnan(ratio(3.0, 0.0))


# --- estimation against the oracle ----------------------------------------------


def test_icer_unconstrained_vs_none_near_oracle(adaptr_20k):
    curve = icer_curve(adaptr_20k, [1.0], "treat_none", LEAN)
    est = curve.estimates[0]
    assert curve.effect_units == "pp"
    assert not est.unstable
    assert abs(est.ratio - 5.3154) <= 3 * est.se
    assert est.ci[0] <= 5.3154 <= est.ci[1]
    assert curve.comparator == "treat_none"
    assert est.kappa == 1.0


@pytest.fixture(scope="module")
def sides_20k(adaptr_20k):
    """Outcome and cost nuisances fit as icer_curve fits them."""
    nuis_y = fit_folds(adaptr_20k, LEAN)
    c = adaptr_20k.c
    ds_cost = Dataset(w=adaptr_20k.w, a=adaptr_20k.a, y=c,
                      covariate_names=adaptr_20k.covariate_names,
                      outcome_kind="bounded_real", y_bounds=(float(c.min()), float(c.max())))
    nuis_c = fit_folds(ds_cost, LEAN, fold_id=nuis_y.fold_id, blips=False)
    return nuis_y, nuis_c


def _recompute(sides, kappa):
    """(numerator, denominator in pp, ratio, ic, policy and comparator
    assignments) from the four values against treat-none."""
    nuis_y, nuis_c = sides
    pol, comp = assignment_for(nuis_y, kappa), assignment_for(nuis_y, "treat_none")
    eff_pol, eff_comp = (value_from_assignment(nuis_y, a) for a in (pol, comp))
    cost_pol, cost_comp = (value_from_assignment(nuis_c, a) for a in (pol, comp))
    num = cost_pol.psi - cost_comp.psi
    den = 100.0 * (eff_pol.psi - eff_comp.psi)
    r = num / den
    ic = ((cost_pol.eif - cost_comp.eif) - r * (100.0 * (eff_pol.eif - eff_comp.eif))) / den
    return num, den, r, ic, pol, comp


def test_icer_ratio_consistent_with_components(adaptr_20k, sides_20k):
    est = icer_curve(adaptr_20k, [0.5], "treat_none", LEAN).estimates[0]
    num, den, r, ic, _, _ = _recompute(sides_20k, 0.5)
    assert est.numerator == num
    assert est.denominator == den
    assert est.ratio == r
    assert est.se == float(np.std(ic) / np.sqrt(adaptr_20k.n))
    assert est.numerator > 0 and est.denominator > 0 and est.ratio > 0


def test_icer_self_comparison_is_unstable(adaptr_2k):
    est = icer_curve(adaptr_2k, [1.0], "treat_all", LEAN).estimates[0]
    assert est.denominator == 0.0
    assert est.numerator == 0.0
    assert est.unstable
    assert math.isnan(est.ratio)
    assert est.se is None and est.ci is None


def test_icer_curve_monotone_cost(adaptr_20k):
    curve = icer_curve(adaptr_20k, (0.2, 0.5, 0.9), "treat_none", LEAN)
    nums = [e.numerator for e in curve.estimates]
    assert nums[0] < nums[1] < nums[2]
    assert [e.kappa for e in curve.estimates] == [0.2, 0.5, 0.9]


def test_icer_cost_rescaling_equivariance(adaptr_2k):
    # x8 keeps every float operation on the same rounding grid
    ds8 = Dataset(w=adaptr_2k.w, a=adaptr_2k.a, y=adaptr_2k.y,
                  covariate_names=adaptr_2k.covariate_names, c=8.0 * adaptr_2k.c)
    base = icer_curve(adaptr_2k, [0.5], "treat_none", LEAN).estimates[0]
    scaled = icer_curve(ds8, [0.5], "treat_none", LEAN).estimates[0]
    assert scaled.denominator == base.denominator
    assert scaled.numerator == pytest.approx(8.0 * base.numerator, rel=1e-14)
    assert scaled.ratio == pytest.approx(8.0 * base.ratio, rel=1e-14)
    assert scaled.se == pytest.approx(8.0 * base.se, rel=1e-12)


def test_icer_constant_cost_degenerates(adaptr_2k):
    flat = Dataset(w=adaptr_2k.w, a=adaptr_2k.a, y=adaptr_2k.y,
                   covariate_names=adaptr_2k.covariate_names,
                   c=np.full(adaptr_2k.n, 52.6))
    curve = icer_curve(flat, [0.5], "treat_none", LEAN)
    est = curve.estimates[0]
    assert est.numerator == 0.0
    assert est.ratio == 0.0
    assert not est.unstable
    assert est.se == 0.0
    assert curve.warnings[-1] == "constant cost column: cost value is degenerate"
    assert not any(w.startswith("cost: ") for w in curve.warnings)


def test_icer_influence_mean_tracks_penalties(adaptr_20k, sides_20k):
    """The ratio influence values center up to the budget penalty residue."""
    est = icer_curve(adaptr_20k, [0.5], "treat_none", LEAN).estimates[0]
    # icer_curve scores the outcome side's assignments on both sides; each
    # side's penalty carries its own outcome range
    _, den, r, ic, pol, comp = _recompute(sides_20k, 0.5)
    assert est.se == float(np.std(ic) / np.sqrt(adaptr_20k.n))
    nuis = sides_20k[0]

    def mean_penalty(asg, y_scale):
        lo, hi = y_scale
        return ((hi - lo) * asg.tau_row * (asg.gtilde1 - asg.kappa)).mean()

    cost_scale = (adaptr_20k.c.min(), adaptr_20k.c.max())
    pen_num = mean_penalty(pol, cost_scale) - mean_penalty(comp, cost_scale)
    pen_den = 100.0 * (mean_penalty(pol, nuis.ds.y_scale) - mean_penalty(comp, nuis.ds.y_scale))
    bound = (abs(pen_num) + abs(r) * abs(pen_den)) / abs(den)
    assert abs(ic.mean()) <= bound + 1e-8


def test_icer_effect_unit_switch(adaptr_2k):
    pp = icer_curve(adaptr_2k, [0.5], "treat_none", LEAN).estimates[0]
    prob_curve = icer_curve(adaptr_2k, [0.5], "treat_none",
                            LEAN.replace(effect_units="probability"))
    prob = prob_curve.estimates[0]
    assert prob_curve.effect_units == "outcome"
    assert prob.denominator == pytest.approx(pp.denominator / 100.0, rel=1e-12)
    assert prob.ratio == pytest.approx(pp.ratio * 100.0, rel=1e-12)
    assert prob.se == pytest.approx(pp.se * 100.0, rel=1e-12)
    assert prob.unstable == pp.unstable


def test_icer_validation(adaptr_2k):
    bare = Dataset(w=adaptr_2k.w, a=adaptr_2k.a, y=adaptr_2k.y,
                   covariate_names=adaptr_2k.covariate_names)
    with pytest.raises(ValueError, match="cost column"):
        icer_curve(bare, [0.5], "treat_none", LEAN)
    with pytest.raises(ValueError, match="comparator"):
        icer_curve(adaptr_2k, [0.5], "treat_some", LEAN)
