"""Targeted maximum likelihood estimation of policy values.

The estimand is the mean outcome had treatment been assigned by a
(possibly stochastic) rule d(W). Estimation is doubly robust: an initial
outcome regression is fluctuated along a least-favorable submodel so the
efficient-influence-function score is (numerically) solved, then the
value is the plug-in mean of the fluctuated regression under the rule.

Nuisances are fit by `fit_nuisance`, and every value is computed by
`value_from_assignment` from a `CvNuisance` and a resolved assignment:

  cv_tmle_value   cross-validated TMLE: nuisances and the rule are fit
                  per fold on training data, applied to the held-out
                  fold, and one pooled fluctuation targets the estimate.
  tmle_value      single-sample TMLE: the supplied q and g form a
                  one-fold nuisance, and the rule is taken as given.

`fit_full` fits every nuisance once on all rows: a one-fold nuisance
whose budget assignments are the full-data rules `fit-rule` reports.
`assignment_for` resolves a budget, a static arm's name or a fitted
policy to an `Assignment`: each row's treatment probability and the
threshold that row's fold used.

For budget-constrained rules the influence function carries an extra
tau * (d(W) - kappa) term reflecting that the threshold itself was
chosen to spend the budget exactly. An estimate keeps only the summed
row-wise influence values (`eif`); the penalty term can be recomputed
from its `Assignment`.

All reported numbers (value, CI, influence values, thresholds) are on
the outcome's original scale; internally everything runs on [0, 1].
"""
from __future__ import annotations

import numbers
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from .config import Z_975, PipelineConfig
from .data import Dataset, scale_outcome
from .glm import expit, logit
from .learners import (
    BlipModel,
    OutcomeModel,
    PropensityModel,
    fit_blip,
    fit_outcome,
    fit_propensity,
    stratified_folds,
)
from .rule import (STATIC_ARMS, AtomTable, ThresholdSolution, assign_from_blips, atom_table,
                   solve_threshold, treated_fractions)

__all__ = [
    "Assignment",
    "ContrastResult",
    "CvNuisance",
    "GridResult",
    "ValueEstimate",
    "assignment_for",
    "contrast_estimates",
    "cv_tmle_value",
    "derive_seed",
    "evaluate_grid",
    "fit_folds",
    "fit_full",
    "tmle_value",
    "value_from_assignment",
]

FLUCT_TOL = 1e-10  # normalized score target for the fluctuation
FLUCT_MAX_ITER = 100
SCORE_WARN = 1e-8  # post-fluctuation score above this is flagged

Q_STREAM = 11
BLIP_STREAM = 12
_FOLDS_STREAM = 13


def derive_seed(*parts: int) -> int:
    """Deterministic child seed from integer parts (order matters)."""
    return int(np.random.SeedSequence(tuple(int(p) for p in parts)).generate_state(1)[0])


# ---------------------------------------------------------------------------
# fluctuation


def _fluctuate(offset: np.ndarray, h: np.ndarray, y: np.ndarray):
    """Intercept-only weighted logistic fluctuation on a fixed offset.

    Solves sum_i h_i (y_i - expit(offset_i + eps)) = 0 for eps by Newton
    steps. Returns (eps, score, warning) with score = |mean residual|.
    """
    n = len(y)
    if np.all(h <= 0.0):
        p = expit(offset)
        return 0.0, float(abs(h @ (y - p)) / n), "fluctuation skipped: all clever-covariate weights are zero"
    eps = 0.0
    warning = None
    score = np.inf
    for _ in range(FLUCT_MAX_ITER):
        p = expit(offset + eps)
        u = float(h @ (y - p)) / n
        score = abs(u)
        if score <= FLUCT_TOL:
            break
        d = -float(h @ (p * (1.0 - p))) / n
        if not np.isfinite(d) or d > -1e-300:
            warning = "fluctuation stalled: flat score derivative"
            break
        step = -u / d
        eps += float(np.clip(step, -10.0, 10.0))
    if score > SCORE_WARN and warning is None:
        warning = f"fluctuation score {score:.3e} above {SCORE_WARN:.0e}"
    return float(eps), float(score), warning


# ---------------------------------------------------------------------------
# results


@dataclass(frozen=True)
class ValueEstimate:
    """Policy value with influence-function inference, original units.

    eif holds the row-wise influence values, residual + plug-in - psi
    minus the budget penalty (s * tau_row * (gtilde1 - kappa) for an
    outcome range s). score is the normalized fluctuation score on the
    [0, 1] outcome scale.
    """

    label: str
    psi: float
    se: float
    ci: tuple[float, float]
    n: int
    kappa: float | None
    tau: float
    pct_treated: float
    pct_stochastic: float
    epsilon: float
    score: float
    eif: np.ndarray = field(repr=False)
    warnings: tuple[str, ...] = ()


@dataclass(frozen=True)
class ContrastResult:
    """Difference of two policy values with paired influence inference."""

    label_a: str
    label_b: str
    psi_a: float
    psi_b: float
    diff: float
    se: float
    ci: tuple[float, float]


def contrast_estimates(a: ValueEstimate, b: ValueEstimate, z: float | None = None) -> ContrastResult:
    """a minus b, with the variance of the differenced influence function.

    Both estimates must come from the same sample (row-aligned influence
    values). Contrasting an estimate with itself gives 0 with CI (0, 0).
    """
    if a.n != b.n:
        raise ValueError("contrast needs estimates from the same sample")
    z = Z_975 if z is None else z
    d = a.eif - b.eif
    diff = a.psi - b.psi
    se = float(np.sqrt(np.mean(d * d) / a.n))
    return ContrastResult(
        label_a=a.label,
        label_b=b.label,
        psi_a=a.psi,
        psi_b=b.psi,
        diff=diff,
        se=se,
        ci=(diff - z * se, diff + z * se),
    )


# ---------------------------------------------------------------------------
# cross-validated nuisance fits


@dataclass(frozen=True)
class CvNuisance:
    """Per-fold nuisance fits scattered back to original row order.

    q0/q1/g1/val_blip[i] come from the fold whose validation set holds
    row i. tables[v] is the atom table of fold v's blip predictions on
    its own training rows (folds in np.unique(fold_id) order), the
    distribution the fold's threshold is solved on at every budget;
    `fit_folds` builds each once. val_blip and tables are empty when the
    nuisance was fit without blips; such a nuisance serves static arms
    and policy objects only. A one-fold nuisance (`one_fold`) does no
    cross-fitting: it holds supplied q and g predicted on every row and,
    given a blip model, its blips on every row and their one atom table.
    The row indices of each fold (fold_rows) and the logits that every
    fluctuation starts from are computed once, on first use. The
    outcome's original bounds are ds.y_scale.
    """

    ds: Dataset  # scaled copy of the analysis data
    fold_id: np.ndarray
    q0: np.ndarray
    q1: np.ndarray
    g1: np.ndarray
    val_blip: np.ndarray
    tables: tuple[AtomTable, ...]
    config: PipelineConfig
    warnings: tuple[str, ...] = ()

    @cached_property
    def fold_rows(self) -> tuple[np.ndarray, ...]:
        return tuple(np.flatnonzero(self.fold_id == v) for v in np.unique(self.fold_id))

    @cached_property
    def logit_q0(self) -> np.ndarray:
        return logit(self.q0)

    @cached_property
    def logit_q1(self) -> np.ndarray:
        return logit(self.q1)

    @cached_property
    def logit_q_obs(self) -> np.ndarray:
        return np.where(self.ds.a == 1, self.logit_q1, self.logit_q0)

    @property
    def n(self) -> int:
        return self.ds.n

    @property
    def folds(self) -> int:
        return len(self.fold_rows)

    @classmethod
    def one_fold(cls, ds: Dataset, q: OutcomeModel, g: PropensityModel,
                 config: PipelineConfig | None = None,
                 blip: BlipModel | None = None) -> "CvNuisance":
        """q, g and, if given, blip predicted on every row of ds, as one fold."""
        ds = scale_outcome(ds)
        val_blip = np.empty(0) if blip is None else np.asarray(blip.predict(ds.w), dtype=float)
        return cls(ds=ds, fold_id=np.zeros(ds.n, dtype=int), q0=q.predict(0, ds.w),
                   q1=q.predict(1, ds.w), g1=g.predict(ds.w), val_blip=val_blip,
                   tables=() if blip is None else (atom_table(val_blip),),
                   config=config or PipelineConfig())


def fit_nuisance(ds: Dataset, cfg: PipelineConfig, q_seed: int, blip_seed: int | None = None):
    """Outcome, propensity and (given blip_seed) blip fits on scaled data.

    Returns (q, g, blip or None, warnings), the warnings of the three
    fits in that order.
    """
    q = fit_outcome(ds, cfg.outcome_library, cfg.folds, q_seed)
    g = fit_propensity(ds, cfg.g_known, cfg.g_estimate, cfg.g_min)
    if blip_seed is None:
        return q, g, None, (*q.warnings, *g.warnings)
    blip = fit_blip(ds, q, g, cfg.blip_library, cfg.folds, blip_seed)
    return q, g, blip, (*q.warnings, *g.warnings, *blip.warnings)


def fit_folds(
    ds: Dataset,
    config: PipelineConfig | None = None,
    fold_id: np.ndarray | None = None,
    blips: bool = True,
) -> CvNuisance:
    """Fit outcome, propensity, and blip nuisances per CV fold.

    fold_id can be supplied to reuse an existing split (the cost side of
    a cost-effectiveness analysis must share folds with the outcome
    side); otherwise folds are seeded and stratified by arm. Each fold
    fits its own outcome, propensity and blip models on its training
    rows, so the rule applied to a held-out row was learned without it.
    With blips=False the blip stacks are skipped (the cost side, which
    only ever scores the outcome side's assignments); q and g are
    unchanged, since each blip fit draws from its own seed stream.
    """
    cfg = config or PipelineConfig()
    ds = scale_outcome(ds)
    if fold_id is None:
        fold_id = stratified_folds(ds.a, cfg.folds, derive_seed(cfg.seed, _FOLDS_STREAM))
    else:
        fold_id = np.asarray(fold_id, dtype=int)
        if len(fold_id) != ds.n:
            raise ValueError("fold_id length does not match the dataset")
    fold_values = np.unique(fold_id)

    n = ds.n
    q0 = np.empty(n)
    q1 = np.empty(n)
    g1 = np.empty(n)
    val_blip = np.empty(n if blips else 0)
    tables: list[AtomTable] = []
    warnings: list[str] = []

    for v in fold_values:
        val = fold_id == v
        train = ~val
        train_ds = ds.subset(train)
        if not train_ds.has_both_arms:
            raise ValueError(
                f"fold {v}: training split lost a treatment arm; use fewer folds"
            )
        blip_seed = derive_seed(cfg.seed, BLIP_STREAM, v) if blips else None
        q, g, blip, fit_warnings = fit_nuisance(
            train_ds, cfg, derive_seed(cfg.seed, Q_STREAM, v), blip_seed
        )
        q0[val] = q.predict(0, ds.w[val])
        q1[val] = q.predict(1, ds.w[val])
        g1[val] = g.predict(ds.w[val])
        if blip is not None:
            val_blip[val] = blip.predict(ds.w[val])
            tables.append(atom_table(blip.predict(train_ds.w)))
        warnings.extend(f"fold {v}: {w_msg}" for w_msg in fit_warnings)

    return CvNuisance(
        ds=ds,
        fold_id=fold_id,
        q0=q0,
        q1=q1,
        g1=g1,
        val_blip=val_blip,
        tables=tuple(tables),
        config=cfg,
        warnings=tuple(dict.fromkeys(warnings)),
    )


# ---------------------------------------------------------------------------
# policy assignment on the validation folds


@dataclass(frozen=True)
class Assignment:
    """Treatment probabilities a rule gives each row, plus bookkeeping.

    gtilde1[i] is the probability row i is treated. tau_row[i] is the
    threshold used for row i's fold (constant for fixed policies), on
    the scaled-blip axis; the penalty term of the influence function
    uses it row by row. thresholds holds each fold's solution of a
    budget, in fold order, and is empty for a static arm or a policy.
    """

    label: str
    kappa: float | None
    gtilde1: np.ndarray
    tau_row: np.ndarray
    pct_treated: float
    pct_stochastic: float
    thresholds: tuple[ThresholdSolution, ...] = ()


def assignment_for(nuis: CvNuisance, target) -> Assignment:
    """Resolve a target to row assignments.

    A budget kappa solves the constrained threshold per fold on that
    fold's training blips (every row's, on a one-fold nuisance) and
    applies it to the fold's held-out rows. A static arm's name from
    STATIC_ARMS gives every row its index as probability, threshold 0. A
    policy object (kappa, tau and assign, e.g. a fitted RulePolicy) is
    applied as-is to every row; its threshold enters the penalty unchanged.
    """
    if isinstance(target, numbers.Real):  # numpy integers and floats too
        if not nuis.tables:
            raise ValueError("a budget target needs a nuisance fit with blips")
        kappa = float(target)
        gtilde1 = np.empty(nuis.n)
        tau_row = np.empty(nuis.n)
        sols = tuple(solve_threshold(table, kappa) for table in nuis.tables)
        for rows, sol in zip(nuis.fold_rows, sols):
            gtilde1[rows] = assign_from_blips(nuis.val_blip[rows], sol)
            tau_row[rows] = sol.tau
        return Assignment(f"kappa={kappa:g}", kappa, gtilde1, tau_row,
                          *treated_fractions(gtilde1), sols)
    if isinstance(target, str):
        if target not in STATIC_ARMS:
            raise ValueError(f"a static arm is one of {STATIC_ARMS}, got {target!r}")
        kappa = float(STATIC_ARMS.index(target))
        label, gtilde1, tau = target, np.full(nuis.n, kappa), 0.0
    else:
        kappa, tau = float(target.kappa), float(target.tau)
        label = f"rule(kappa={kappa:g})"
        gtilde1 = np.asarray(target.assign(nuis.ds.w), dtype=float)
    return Assignment(label, kappa, gtilde1, np.full(len(gtilde1), tau),
                      *treated_fractions(gtilde1))


# ---------------------------------------------------------------------------
# the estimation core


def value_from_assignment(nuis: CvNuisance, asg: Assignment) -> ValueEstimate:
    """Pooled fluctuation and plug-in value for a resolved assignment."""
    y, a, g1 = nuis.ds.y, nuis.ds.a, nuis.g1
    n = len(y)
    lo, hi = nuis.ds.y_scale
    z = nuis.config.z_value
    s = hi - lo
    gt1 = asg.gtilde1
    h1 = gt1 / g1
    h0 = (1.0 - gt1) / (1.0 - g1)
    h_obs = np.where(a == 1, h1, h0)

    eps, score, fluct_warn = _fluctuate(nuis.logit_q_obs, h_obs, y)
    warnings = nuis.warnings if fluct_warn is None else (*nuis.warnings, fluct_warn)
    q1_star = expit(nuis.logit_q1 + eps)
    q0_star = expit(nuis.logit_q0 + eps)
    q_obs_star = np.where(a == 1, q1_star, q0_star)

    plugin_row = q1_star * gt1 + q0_star * (1.0 - gt1)
    psi_scaled = float(np.mean(plugin_row))
    pen_row = asg.tau_row * (gt1 - asg.kappa)

    psi = lo + s * psi_scaled
    residual = s * h_obs * (y - q_obs_star)
    plugin = lo + s * plugin_row
    penalty = s * pen_row
    eif = residual + plugin - psi - penalty
    se = float(np.sqrt(np.mean(eif * eif) / n))

    return ValueEstimate(
        label=asg.label,
        psi=psi,
        se=se,
        ci=(psi - z * se, psi + z * se),
        n=n,
        kappa=asg.kappa,
        tau=s * float(np.mean(asg.tau_row)),
        pct_treated=asg.pct_treated,
        pct_stochastic=asg.pct_stochastic,
        epsilon=eps,
        score=score,
        eif=eif,
        warnings=warnings,
    )


# ---------------------------------------------------------------------------
# public entry points


def cv_tmle_value(
    ds: Dataset,
    target,
    config: PipelineConfig | None = None,
    nuisance: CvNuisance | None = None,
) -> ValueEstimate:
    """Cross-validated TMLE of a policy value.

    target is a budget kappa in [0, 1] (the constrained rule is then
    learned per fold), a static arm's name or a policy object applied
    as-is. Pass a pre-computed `nuisance` to amortize fits across many
    targets.
    """
    cfg = config or PipelineConfig()
    if nuisance is None:
        nuisance = fit_folds(ds, cfg)
    return value_from_assignment(nuisance, assignment_for(nuisance, target))


def tmle_value(
    ds: Dataset,
    policy,
    q: OutcomeModel,
    g: PropensityModel,
    config: PipelineConfig | None = None,
) -> ValueEstimate:
    """Single-sample TMLE of a given policy's value (no cross-fitting).

    q and g are the outcome and propensity models, for instance
    full-data refits or oracle nuisances in simulations; their
    predictions on every row form a one-fold nuisance. The policy is
    taken as given: its threshold is not re-solved here.
    """
    nuis = CvNuisance.one_fold(ds, q, g, config)
    return value_from_assignment(nuis, assignment_for(nuis, policy))


def fit_full(ds: Dataset, config: PipelineConfig | None = None):
    """Every nuisance fit once on all of ds, with no cross-fitting.

    Returns (blip, nuisance): the blip fit and the one-fold nuisance of
    all three fits, whose assignment at a budget is the full-data rule
    there, its threshold solved on the in-sample blips (on the [0, 1]
    scale). The nuisance's warnings are the fits' own, deduplicated.
    """
    cfg = config or PipelineConfig()
    ds = scale_outcome(ds)
    q, g, blip, warnings = fit_nuisance(
        ds, cfg, derive_seed(cfg.seed, Q_STREAM), derive_seed(cfg.seed, BLIP_STREAM)
    )
    nuis = CvNuisance.one_fold(ds, q, g, cfg, blip)
    return blip, replace(nuis, warnings=tuple(dict.fromkeys(warnings)))


@dataclass(frozen=True)
class GridResult:
    """Value estimates along a budget grid plus the static references."""

    kappas: tuple[float, ...]
    estimates: tuple[ValueEstimate, ...]
    treat_all: ValueEstimate
    treat_none: ValueEstimate
    nuisance: CvNuisance = field(repr=False)


def evaluate_grid(ds: Dataset, kappas, config: PipelineConfig | None = None) -> GridResult:
    """CV-TMLE values along a budget grid, sharing one set of fold fits.

    The static treat-all / treat-none values ride along on the same
    nuisances, so grid-vs-static contrasts difference paired influence
    functions.
    """
    cfg = config or PipelineConfig()
    kappas = tuple(float(k) for k in kappas)
    for k in kappas:
        if not (0.0 <= k <= 1.0):
            raise ValueError("kappa grid values must lie in [0, 1]")
    nuisance = fit_folds(ds, cfg)
    *estimates, treat_none, treat_all = [
        value_from_assignment(nuisance, assignment_for(nuisance, t))
        for t in (*kappas, *STATIC_ARMS)
    ]
    return GridResult(kappas=kappas, estimates=tuple(estimates), treat_all=treat_all,
                      treat_none=treat_none, nuisance=nuisance)
