"""Working linear summary of the constraint-response curve.

The curve kappa -> value is summarized by an unweighted least-squares
line m(kappa) = beta0 + beta1*kappa over a grid of budgets. The line is
compared against the random-allocation chord, the segment from the
treat-none value to the treat-all value: if treatment effects do not
vary across people, targeting cannot beat randomly spending the same
budget, and the curve coincides with the chord. The (intercept, slope)
differences between line and chord are therefore a falsification check
on whether prioritization adds value.

Inference for the coefficients and the chord contrasts is by the
nonparametric bootstrap with percentile (2.5%, 97.5%) intervals. Every
replicate re-runs the whole pipeline, rule included, on its resample,
so the intervals carry the rule's selection as well as its value.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .config import PipelineConfig
from .data import Dataset
from .glm import weighted_lstsq
from .tmle import GridResult, derive_seed, evaluate_grid

__all__ = ["MsmFit", "fit_msm", "msm_with_bootstrap"]

_RESAMPLE_STREAM = 211
_PIPELINE_STREAM = 212
MAX_REDRAWS = 10

BOOT_KEYS = ("beta0", "beta1", "contrast0", "contrast1")


@dataclass(frozen=True)
class MsmFit:
    """OLS line through (kappa, value) points, optionally with chord.

    chord is (treat-none value, treat-all minus treat-none); contrast is
    (beta0 - chord intercept, beta1 - chord slope). boot_ci maps each of
    beta0/beta1/contrast0/contrast1 to its percentile interval when a
    bootstrap was run. warnings are the point grid's nuisance warnings.
    """

    kappas: tuple[float, ...]
    values: tuple[float, ...]
    beta0: float
    beta1: float
    chord: tuple[float, float] | None = None
    contrast: tuple[float, float] | None = None
    boot_ci: dict | None = None
    boot_replicates: int = 0
    boot_redraws: int = 0
    boot_draws: dict | None = field(default=None, repr=False)
    warnings: tuple[str, ...] = ()

    def predict(self, kappa) -> np.ndarray:
        return self.beta0 + self.beta1 * np.asarray(kappa, dtype=float)

    def chord_at(self, kappa) -> np.ndarray:
        if self.chord is None:
            raise ValueError("no chord recorded on this fit")
        c0, c1 = self.chord
        return c0 + c1 * np.asarray(kappa, dtype=float)

    @property
    def fitted(self) -> tuple[float, ...]:
        return tuple(float(v) for v in self.predict(np.array(self.kappas)))

    def plot_rows(self) -> list[tuple[float, float, float, float | None]]:
        """(kappa, value, fitted, chord) rows for curve rendering."""
        chord = self.chord_at(np.array(self.kappas)) if self.chord is not None else None
        rows = []
        for i, (k, v, f) in enumerate(zip(self.kappas, self.values, self.fitted)):
            rows.append((k, v, f, float(chord[i]) if chord is not None else None))
        return rows


def fit_msm(pairs, chord: tuple[float, float] | None = None) -> MsmFit:
    """Unweighted OLS of values on budgets.

    pairs is a sequence of (kappa, value). chord, when given, is
    (treat-none value, treat-all value); it is stored as (intercept,
    slope) and differenced against the fitted coefficients.
    """
    pairs = [(float(k), float(v)) for k, v in pairs]
    if len(pairs) < 2:
        raise ValueError("need at least 2 (kappa, value) points")
    kappas = np.array([k for k, _ in pairs])
    values = np.array([v for _, v in pairs])
    if not (np.all(np.isfinite(kappas)) and np.all(np.isfinite(values))):
        raise ValueError("non-finite (kappa, value) input")
    if np.all(kappas == kappas[0]):
        raise ValueError("all kappa values identical; the slope is undefined")
    coef = weighted_lstsq(np.column_stack([np.ones(len(kappas)), kappas]), values)
    beta0, beta1 = float(coef[0]), float(coef[1])
    chord_coefs = None
    contrast = None
    if chord is not None:
        psi_none, psi_all = float(chord[0]), float(chord[1])
        chord_coefs = (psi_none, psi_all - psi_none)
        contrast = (beta0 - chord_coefs[0], beta1 - chord_coefs[1])
    return MsmFit(
        kappas=tuple(float(k) for k in kappas),
        values=tuple(float(v) for v in values),
        beta0=beta0,
        beta1=beta1,
        chord=chord_coefs,
        contrast=contrast,
    )


def _fit_from_grid(grid: GridResult) -> MsmFit:
    pairs = list(zip(grid.kappas, (e.psi for e in grid.estimates)))
    return fit_msm(pairs, chord=(grid.treat_none.psi, grid.treat_all.psi))


def _resample(ds: Dataset, rng: np.random.Generator) -> tuple[Dataset, int]:
    # bootstrap resamples must keep both arms; redraw a bounded number
    # of times, then give up loudly
    for attempt in range(MAX_REDRAWS):
        idx = rng.integers(0, ds.n, size=ds.n)
        sub = ds.subset(idx)
        if sub.has_both_arms:
            return sub, attempt
    raise RuntimeError(
        f"bootstrap resample produced single-arm data {MAX_REDRAWS} times in a row"
    )


def msm_with_bootstrap(
    ds: Dataset,
    kappa_grid,
    config: PipelineConfig | None = None,
    grid: GridResult | None = None,
) -> MsmFit:
    """MSM point fit plus bootstrap intervals for line and chord contrast.

    The point fit comes from full-data CV-TMLE values (pass `grid` to
    reuse an existing evaluation). Each of config.bootstrap_replicates
    replicates resamples n rows with replacement and recomputes (beta0,
    beta1, contrast0, contrast1); percentile intervals land in boot_ci.
    Deterministic given the master seed.

    Every replicate re-solves the rules on its resample, so the
    intervals are not conditional on the full-data rule: when the blip
    ranking is mostly noise, a held rule would keep the optimism of its
    selection. The grid needs two distinct budgets; that is checked
    before any fit.
    """
    cfg = config or PipelineConfig()
    reps = cfg.bootstrap_replicates
    kappas = tuple(float(k) for k in kappa_grid)
    if len(set(kappas)) < 2:
        raise ValueError("need at least 2 (kappa, value) points")
    if grid is None:
        grid = evaluate_grid(ds, kappas, cfg)
    elif tuple(grid.kappas) != kappas:
        raise ValueError("supplied grid does not match kappa_grid")
    point = _fit_from_grid(grid)

    draws = {key: np.empty(reps) for key in BOOT_KEYS}
    redraws = 0

    for r in range(reps):
        rng = np.random.default_rng(derive_seed(cfg.seed, _RESAMPLE_STREAM, r))
        ds_b, extra = _resample(ds, rng)
        redraws += extra
        rep_seed = derive_seed(cfg.seed, _PIPELINE_STREAM, r)
        fit_b = _fit_from_grid(evaluate_grid(ds_b, kappas, cfg.replace(seed=rep_seed)))
        draws["beta0"][r] = fit_b.beta0
        draws["beta1"][r] = fit_b.beta1
        draws["contrast0"][r] = fit_b.contrast[0]
        draws["contrast1"][r] = fit_b.contrast[1]

    alpha = (1.0 - cfg.ci_level) / 2.0
    boot_ci = {
        key: tuple(float(q) for q in np.quantile(draws[key], [alpha, 1.0 - alpha]))
        for key in BOOT_KEYS
    }
    return replace(
        point,
        boot_ci=boot_ci,
        boot_replicates=reps,
        boot_redraws=redraws,
        boot_draws=draws,
        warnings=grid.nuisance.warnings,
    )
