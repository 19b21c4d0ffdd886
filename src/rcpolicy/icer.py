"""Incremental cost-effectiveness of a constrained rule vs a static rule.

Four policy values are estimated on the same sample with shared folds:
outcome under the policy, outcome under the comparator, and the same
pair with cost as the dependent variable (costs affinely scaled to
[0, 1] by their observed bounds and run through the identical
fluctuation machinery). The ICER is the cost difference over the
effectiveness difference; its influence function follows from the delta
method, IC = (IC_num - ratio * IC_den) / denominator, giving a Wald
interval. Denominators too close to zero are flagged unstable and the
ratio/interval suppressed: a cost ratio against a no-effect contrast
has no meaning. A constant cost column makes every policy's cost value
that constant with zero influence: no cost-side fits run, the numerator
is 0, and the curve's warnings say so. Only the per-budget summaries
are kept; the underlying value estimates are not.

For binary outcomes the denominator is reported in percentage points by
default so a ratio reads as currency per percentage point of response.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import PipelineConfig
from .data import Dataset
from .rule import STATIC_ARMS
from .tmle import assignment_for, fit_folds, value_from_assignment

__all__ = ["IcerEstimate", "IcerCurve", "icer_curve", "ratio"]


def ratio(numerator: float, denominator: float) -> float:
    """Plain cost-effectiveness ratio; NaN on a zero denominator."""
    if denominator == 0.0:
        return float("nan")
    return float(numerator) / float(denominator)


@dataclass(frozen=True)
class IcerEstimate:
    """One incremental cost-effectiveness comparison.

    numerator is the incremental cost in original currency units;
    denominator the incremental effectiveness (percentage points when
    effect_units == "pp"). When unstable is True the denominator was
    within the epsilon guard of zero: ratio is NaN and se/ci are None.
    """

    kappa: float | None
    label: str
    comparator: str
    numerator: float
    denominator: float
    ratio: float
    se: float | None
    ci: tuple[float, float] | None
    unstable: bool
    effect_units: str
    n: int


@dataclass(frozen=True)
class IcerCurve:
    """Per-budget ICER estimates against one static comparator.

    warnings holds, deduplicated, those of the outcome-side values that
    were scored, then the cost-side ones prefixed "cost: ", then a note
    when the cost column is constant.
    """

    comparator: str
    estimates: tuple[IcerEstimate, ...]
    warnings: tuple[str, ...] = ()

    def plane_points(self) -> list[tuple[float, float, float | None]]:
        """(denominator, numerator, kappa) triples for CE-plane plots."""
        return [(e.denominator, e.numerator, e.kappa) for e in self.estimates]


def icer_curve(
    ds: Dataset,
    kappa_grid,
    comparator: str = "treat_none",
    config: PipelineConfig | None = None,
) -> IcerCurve:
    """One ICER per budget, all sharing fold fits and the comparator arm.

    Unstable budgets (effectiveness difference inside the epsilon guard)
    are flagged on their entries, never fatal.
    """
    cfg = config or PipelineConfig()
    if ds.c is None:
        raise ValueError("cost-effectiveness analysis needs a cost column")
    if comparator not in STATIC_ARMS:
        raise ValueError(f"comparator must be one of {STATIC_ARMS}")
    nuis_y = fit_folds(ds, cfg)
    n = nuis_y.n
    lo_c, hi_c = float(np.min(ds.c)), float(np.max(ds.c))
    nuis_c = None  # constant costs need no cost-side fits
    if hi_c > lo_c:
        ds_cost = Dataset(
            w=ds.w,
            a=ds.a,
            y=ds.c,
            covariate_names=ds.covariate_names,
            outcome_kind="bounded_real",
            y_bounds=(lo_c, hi_c),
        )
        nuis_c = fit_folds(ds_cost, cfg, fold_id=nuis_y.fold_id, blips=False)
    eff_warnings: list[str] = []
    cost_warnings: list[str] = []

    def effect(asg):
        est = value_from_assignment(nuis_y, asg)
        eff_warnings.extend(est.warnings)
        return est.psi, est.eif

    def cost(asg):
        # constant observed costs make every policy's cost value that constant
        if nuis_c is None:
            return lo_c, 0.0
        est = value_from_assignment(nuis_c, asg)
        cost_warnings.extend(est.warnings)
        return est.psi, est.eif

    comp_asg = assignment_for(nuis_y, comparator)
    comp_eff, comp_eff_eif = effect(comp_asg)
    comp_cost, comp_cost_eif = cost(comp_asg)

    lo_y, hi_y = nuis_y.ds.y_scale
    pp = nuis_y.ds.outcome_kind == "binary" and cfg.effect_units == "pp"
    z = cfg.z_value
    estimates = []
    for k in kappa_grid:
        asg = assignment_for(nuis_y, float(k))
        eff_pol, eff_pol_eif = effect(asg)
        cost_pol, cost_pol_eif = cost(asg)
        numerator = cost_pol - comp_cost
        eff_diff = eff_pol - comp_eff
        denominator = 100.0 * eff_diff if pp else eff_diff
        unstable = abs(eff_diff / (hi_y - lo_y)) <= cfg.epsilon_den
        r, se, ci = float("nan"), None, None
        if not unstable:
            ic_num = cost_pol_eif - comp_cost_eif
            ic_eff = eff_pol_eif - comp_eff_eif
            ic_den = 100.0 * ic_eff if pp else ic_eff
            r = numerator / denominator
            ic = (ic_num - r * ic_den) / denominator
            se = float(np.std(ic) / np.sqrt(n))
            ci = (float(r) - z * se, float(r) + z * se)
        estimates.append(IcerEstimate(
            kappa=float(k),
            label=asg.label,
            comparator=comparator,
            numerator=numerator,
            denominator=denominator,
            ratio=float(r),
            se=se,
            ci=ci,
            unstable=unstable,
            effect_units="pp" if pp else "outcome",
            n=n,
        ))
    warnings = [*eff_warnings, *(f"cost: {w}" for w in cost_warnings)]
    if nuis_c is None:
        warnings.append("constant cost column: cost value is degenerate")
    return IcerCurve(comparator=comparator, estimates=tuple(estimates),
                     warnings=tuple(dict.fromkeys(warnings)))
