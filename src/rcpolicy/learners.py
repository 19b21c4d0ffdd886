"""Candidate learners and stacked ensembles.

Three fitted objects come out of here: the outcome regression
E[Y | A, W], the treatment mechanism g(1 | W), and the blip regression
B(W) fit to a doubly-robust pseudo-outcome. The outcome and blip models
share one stack type and one fitting routine: each candidate is fit per
cross-validation fold, the held-out predictions form a matrix, and the
weights minimize held-out squared error over the probability simplex.

Every candidate is a linear model on a subset of the columns of its
stack's term matrix: [1, A, W..., A*W...] for the outcome, [1, W...] for
the blip. Each column is tagged with the covariate it carries (none for
the intercept and A), and a library spec (string) picks columns by tag:
    "mean"        the intercept alone
    "glm"         every column
    "univariate"  one model per covariate (expands to "uni:<name>")
    "uni:<name>"  the untagged columns plus that covariate's
    "step_aic"    forward stepwise by AIC over the columns, adding at
                  most glm.STEPWISE_MAX_TERMS (5) to the intercept

Degenerate fits (singular designs, separation) fall back to
intercept-only candidates and the reason lands in the model's warnings.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import glm
from .data import Dataset

__all__ = [
    "BlipModel",
    "OutcomeModel",
    "PropensityModel",
    "SubgroupLevel",
    "SubgroupResult",
    "fit_blip",
    "fit_outcome",
    "fit_propensity",
    "make_pseudo_outcome",
    "stratified_folds",
    "subgroup_scan",
]

PRED_CLIP = 1e-6  # keeps logistic offsets finite

_FOLD_STREAM = 101  # rng stream tags under the master seed
_SEED_DEFAULT = 0


# ---------------------------------------------------------------------------
# fold assignment


def stratified_folds(a: np.ndarray, n_folds: int, seed: int) -> np.ndarray:
    """Fold ids in [0, n_folds) balanced within each treatment arm.

    Each arm's indices are shuffled and dealt round-robin, so folds have
    both arms whenever an arm has at least n_folds members.
    """
    a = np.asarray(a)
    n = len(a)
    if n_folds < 2:
        raise ValueError("need at least 2 folds")
    if n_folds > n:
        raise ValueError("more folds than observations")
    rng = np.random.default_rng((seed, _FOLD_STREAM))
    fold = np.empty(n, dtype=int)
    for arm in (0, 1):
        idx = np.flatnonzero(a == arm)
        idx = rng.permutation(idx)
        fold[idx] = np.arange(len(idx)) % n_folds
    return fold


# ---------------------------------------------------------------------------
# candidate machinery


@dataclass(frozen=True)
class LinearScorer:
    name: str
    terms: tuple[int, ...]  # columns of the term matrix
    fit: glm.GlmFit  # coef aligns with terms

    def predict_terms(self, T: np.ndarray) -> np.ndarray:
        return self.fit.predict(T[:, self.terms])


def _outcome_terms(a, w: np.ndarray) -> np.ndarray:
    w = np.atleast_2d(w)
    n, p = w.shape
    a = np.broadcast_to(np.asarray(a, dtype=float), (n,))
    return np.column_stack([np.ones(n), a, w, a[:, None] * w])


def _blip_terms(w: np.ndarray) -> np.ndarray:
    w = np.atleast_2d(w)
    return np.column_stack([np.ones(w.shape[0]), w])


def _candidates(
    library: Sequence[str], tags: Sequence[str | None]
) -> list[tuple[str, tuple[int, ...] | None]]:
    """(spec, term columns) of each candidate in `library`, by the rule in
    the module docstring; tags[j] is the covariate term column j carries
    (None for the intercept and A). Stepwise's columns are None: the data
    picks them. A repeated spec keeps its first place, which breaks ties;
    a spec with an earlier candidate's columns (`uni:<name>` of a single
    covariate has `glm`'s) is dropped, as it would refit the same design.
    """
    names = list(dict.fromkeys(t for t in tags if t is not None))
    specs = [s for spec in library
             for s in ([f"uni:{nm}" for nm in names] if spec == "univariate" else [spec])]
    out = []
    for spec in dict.fromkeys(specs):
        if spec == "mean":
            terms = (0,)
        elif spec == "glm":
            terms = tuple(range(len(tags)))
        elif spec == "step_aic":
            terms = None
        elif spec.startswith("uni:"):
            if spec[4:] not in names:
                raise ValueError(f"unknown covariate in learner spec {spec!r}")
            terms = tuple(j for j, t in enumerate(tags) if t in (None, spec[4:]))
        else:
            raise ValueError(f"unknown learner spec {spec!r}")
        if terms is None or all(terms != t for _, t in out):
            out.append((spec, terms))
    if not out:
        raise ValueError("empty learner library")
    return out


def _fit_candidate(
    spec: str, terms: tuple[int, ...] | None, T: np.ndarray, y: np.ndarray, family: str,
    start: np.ndarray | None,
) -> LinearScorer:
    """Fit one candidate on term matrix T; a logistic fit with fixed terms
    starts from `start`."""
    if terms is None:
        chosen, fit = glm.forward_stepwise_aic(T, y, family)
        return LinearScorer(spec, (0, *chosen), fit)
    return LinearScorer(spec, terms, glm.fit(T[:, terms], y, family, start))


@dataclass(frozen=True)
class _Stack:
    """Simplex-weighted stack of fitted candidates over one term matrix."""

    candidates: tuple[LinearScorer, ...]
    weights: np.ndarray
    cv_risks: np.ndarray
    ensemble_cv_risk: float
    covariate_names: tuple[str, ...]
    warnings: tuple[str, ...] = ()

    @property
    def candidate_names(self) -> tuple[str, ...]:
        return tuple(c.name for c in self.candidates)

    def _predict_terms(self, T: np.ndarray) -> np.ndarray:
        """Weighted sum of the candidates' predictions, in candidate order."""
        out = np.zeros(T.shape[0])
        for wt, cand in zip(self.weights, self.candidates):
            if wt > 0:
                out += wt * cand.predict_terms(T)
        return out


def _fit_stack(cls, ds: Dataset, T: np.ndarray, tags: Sequence[str | None], y: np.ndarray,
               family: str, library: Sequence[str], folds: int, seed: int):
    """A `cls` stack of `library` on term matrix T: cross-validated
    candidate predictions, simplex weights, full-data refits.

    Every candidate design is a column subset of T: column 0 is the
    intercept, and tags[j] names the covariate column j carries (None
    for the intercept and for A), which is all `_candidates` reads.
    Stepwise picks among the same columns. Each candidate's fit that did
    not fall back is the start of its next fit: the next training
    split's, and after the last split the full-data refit's.
    """
    from .simplex import simplex_lstsq

    if ds.n < folds:
        raise ValueError("need n >= folds")
    specs, terms = zip(*_candidates(library, tags))
    fold_id = stratified_folds(ds.a, folds, seed)
    Z = np.empty((len(y), len(specs)))
    warnings: list[str] = []
    starts: list[np.ndarray | None] = [None] * len(specs)
    for v in np.unique(fold_id):
        train = fold_id != v
        val = ~train
        T_train, y_train, T_val = T[train], y[train], T[val]
        for j, spec in enumerate(specs):
            scorer = _fit_candidate(spec, terms[j], T_train, y_train, family, starts[j])
            fallback = scorer.fit.fallback
            if fallback:
                warnings.append(f"{spec}: {fallback} (fold {v})")
            starts[j] = None if fallback else scorer.fit.coef
            Z[val, j] = scorer.predict_terms(T_val)
    weights = simplex_lstsq(Z, y)
    fitted = []
    for spec, cols, start in zip(specs, terms, starts):
        scorer = _fit_candidate(spec, cols, T, y, family, start)
        if scorer.fit.fallback:
            warnings.append(f"{spec}: {scorer.fit.fallback} (full fit)")
        fitted.append(scorer)
    return cls(
        candidates=tuple(fitted),
        weights=weights,
        cv_risks=np.mean((y[:, None] - Z) ** 2, axis=0),
        ensemble_cv_risk=float(np.mean((y - Z @ weights) ** 2)),
        covariate_names=ds.covariate_names,
        warnings=tuple(dict.fromkeys(warnings)),
    )


# ---------------------------------------------------------------------------
# outcome regression


class OutcomeModel(_Stack):
    """Stacked estimate of E[Y | A, W] on the scaled-outcome space."""

    def predict(self, a, w: np.ndarray) -> np.ndarray:
        out = self._predict_terms(_outcome_terms(a, w))
        return np.clip(out, PRED_CLIP, 1.0 - PRED_CLIP)

    def predict_both(self, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return self.predict(0, w), self.predict(1, w)


def fit_outcome(
    ds: Dataset,
    library: Sequence[str] = ("mean", "glm", "univariate", "step_aic"),
    folds: int = 10,
    seed: int = _SEED_DEFAULT,
) -> OutcomeModel:
    """Stacked outcome regression with seeded, A-stratified CV folds.

    Binary outcomes use logistic candidates, rescaled continuous outcomes
    linear ones; either way the stack minimizes held-out squared error.
    """
    if np.any(ds.y < 0) or np.any(ds.y > 1):
        raise ValueError("outcome must be scaled to [0, 1] before fitting")
    family = "binomial" if ds.outcome_kind == "binary" else "gaussian"
    names = ds.covariate_names
    return _fit_stack(OutcomeModel, ds, _outcome_terms(ds.a, ds.w), (None, None, *names, *names),
                      ds.y, family, library, folds, seed)


# ---------------------------------------------------------------------------
# treatment mechanism


@dataclass(frozen=True)
class PropensityModel:
    """g(1 | W), either a known constant or a fitted logistic model."""

    mode: str  # "known_constant" or "estimated"
    g_min: float
    constant: float | None = None
    fit: glm.GlmFit | None = None  # logistic on the [1, W] design
    warnings: tuple[str, ...] = ()

    def predict(self, w: np.ndarray) -> np.ndarray:
        w = np.atleast_2d(w)
        if self.mode == "known_constant":
            out = np.full(w.shape[0], float(self.constant))
        else:
            # column-major, like a stack candidate's T[:, terms], so both
            # kinds of linear predictor round the same way
            out = self.fit.predict(np.asfortranarray(_blip_terms(w)))
        return np.clip(out, self.g_min, 1.0 - self.g_min)


def fit_propensity(
    ds: Dataset,
    known_value: float | None = None,
    estimate: bool | None = None,
    g_min: float = 0.01,
) -> PropensityModel:
    """Treatment mechanism, known or estimated by main-terms logistic.

    With known_value given the default is to use it as-is; estimate=True
    fits the logistic anyway (can sharpen efficiency under randomization).
    Separation or other fit failures revert to the known value, or to the
    empirical treated fraction, with a warning.
    """
    if estimate is None:
        estimate = known_value is None
    if not estimate:
        if known_value is None:
            raise ValueError("need known_value when not estimating")
        return PropensityModel(mode="known_constant", g_min=g_min, constant=float(known_value))
    if not ds.has_both_arms:
        if known_value is not None:
            return PropensityModel(
                mode="known_constant",
                g_min=g_min,
                constant=float(known_value),
                warnings=("single-arm data: reverted to known value",),
            )
        raise ValueError("single-arm dataset: cannot estimate the treatment mechanism")
    fit = glm.fit_logistic(_blip_terms(ds.w), ds.a.astype(float))
    if fit.fallback is not None:
        fallback_value = known_value if known_value is not None else float(np.mean(ds.a))
        return PropensityModel(
            mode="known_constant",
            g_min=g_min,
            constant=fallback_value,
            warnings=(f"propensity fit fell back ({fit.fallback}); using constant",),
        )
    return PropensityModel(mode="estimated", g_min=g_min, fit=fit)


# ---------------------------------------------------------------------------
# blip pseudo-outcome and blip regression


def make_pseudo_outcome(ds: Dataset, q: OutcomeModel, g: PropensityModel) -> np.ndarray:
    """Doubly-robust blip transform.

    D_i = (2A_i - 1) / g(A_i|W_i) * (Y_i - E[Y|A_i,W_i]) + E[Y|1,W_i] - E[Y|0,W_i].
    Consistent for the blip if either nuisance is correct; the propensity
    truncation keeps the inverse weight finite.
    """
    g1 = g.predict(ds.w)
    g_obs = np.where(ds.a == 1, g1, 1.0 - g1)
    q0, q1 = q.predict_both(ds.w)
    sign = 2.0 * ds.a - 1.0
    return sign / g_obs * (ds.y - np.where(ds.a == 1, q1, q0)) + q1 - q0


class BlipModel(_Stack):
    """Stacked regression of the pseudo-outcome on covariates."""

    def predict(self, w: np.ndarray) -> np.ndarray:
        return self._predict_terms(_blip_terms(w))

    def to_dict(self) -> dict:
        return {
            "covariate_names": list(self.covariate_names),
            "weights": [float(x) for x in self.weights],
            "cv_risks": [float(x) for x in self.cv_risks],
            "ensemble_cv_risk": self.ensemble_cv_risk,
            "warnings": list(self.warnings),
            "candidates": [
                {"name": c.name, "terms": list(c.terms), "coef": [float(x) for x in c.fit.coef]}
                for c in self.candidates
            ],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "BlipModel":
        cands = tuple(
            LinearScorer(c["name"], tuple(c["terms"]),
                         glm.GlmFit(np.asarray(c["coef"], dtype=float), "gaussian"))
            for c in d["candidates"]
        )
        return cls(
            candidates=cands,
            weights=np.asarray(d["weights"], dtype=float),
            cv_risks=np.asarray(d["cv_risks"], dtype=float),
            ensemble_cv_risk=float(d["ensemble_cv_risk"]),
            covariate_names=tuple(d["covariate_names"]),
            warnings=tuple(d.get("warnings", ())),
        )


def fit_blip(
    ds: Dataset,
    q: OutcomeModel,
    g: PropensityModel,
    library: Sequence[str] = ("mean", "glm", "univariate", "step_aic"),
    folds: int = 10,
    seed: int = _SEED_DEFAULT,
) -> BlipModel:
    """Stacked blip regression via the pseudo-outcome.

    Candidates regress D on W with squared-error risk; the metalearner
    weights live on the probability simplex, so the ensemble's CV risk
    is never above the best single candidate's.
    """
    return _fit_stack(BlipModel, ds, _blip_terms(ds.w), (None, *ds.covariate_names),
                      make_pseudo_outcome(ds, q, g), "gaussian", library, folds, seed)


# ---------------------------------------------------------------------------
# subgroup interaction scan


@dataclass(frozen=True)
class SubgroupLevel:
    level: float
    n: int
    effect: float  # difference in arm means within the level (nan if one-armed)


@dataclass(frozen=True)
class SubgroupResult:
    covariate: str
    p_value: float
    flagged: bool
    note: str | None = None
    levels: tuple[SubgroupLevel, ...] = ()


def subgroup_scan(ds: Dataset, alpha: float = 0.1, max_levels: int = 10) -> list[SubgroupResult]:
    """Per-covariate treatment-interaction scan.

    For each covariate, a likelihood ratio test compares the linear
    regressions y ~ a + w_j + a*w_j and y ~ a + w_j; covariates with
    p < alpha are flagged. An RSS at or below `glm.rss_floor` is an exact
    fit: p is 1 when both models fit exactly (a constant outcome, say)
    and 0 when only the interaction model does. Covariates with few
    distinct values also get per-level arm-mean differences for
    plotting. Constant covariates are skipped with a note.
    """
    if not (0.0 < alpha < 1.0):
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    if max_levels < 1:
        raise ValueError(f"max_levels must be >= 1, got {max_levels}")
    if ds.n <= 4:
        raise ValueError("need more than 4 observations per tested model")
    if not ds.has_both_arms:
        raise ValueError("subgroup scan needs both treatment arms")
    a = ds.a.astype(float)
    y = ds.y
    exact = glm.rss_floor(y)
    results: list[SubgroupResult] = []
    for j, name in enumerate(ds.covariate_names):
        x = ds.w[:, j]
        uniq = np.unique(x)
        if uniq.size == 1:
            results.append(
                SubgroupResult(covariate=name, p_value=float("nan"), flagged=False,
                               note="constant covariate, skipped")
            )
            continue
        ones = np.ones(ds.n)
        X0 = np.column_stack([ones, a, x])
        X1 = np.column_stack([ones, a, x, a * x])
        rss0 = _rss(X0, y)
        rss1 = _rss(X1, y)
        if rss1 <= exact:
            p = 1.0 if rss0 <= exact else 0.0
        else:
            lr = ds.n * np.log(rss0 / rss1)
            p = math.erfc(math.sqrt(max(lr, 0.0) / 2.0))  # chi-square(1) tail
        levels: tuple[SubgroupLevel, ...] = ()
        if uniq.size <= max_levels:
            lv = []
            for level in uniq:
                mask = x == level
                y1 = y[mask & (a == 1)]
                y0 = y[mask & (a == 0)]
                eff = float(np.mean(y1) - np.mean(y0)) if (len(y1) and len(y0)) else float("nan")
                lv.append(SubgroupLevel(level=float(level), n=int(mask.sum()), effect=eff))
            levels = tuple(lv)
        results.append(
            SubgroupResult(covariate=name, p_value=p, flagged=bool(p < alpha), levels=levels)
        )
    return results


def _rss(X: np.ndarray, y: np.ndarray) -> float:
    resid = y - X @ glm.weighted_lstsq(X, y)
    return float(resid @ resid)
