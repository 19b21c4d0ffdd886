"""Test scaffolding: a DgpSpec's true nuisances, shaped like fitted models,
and the pseudo-outcome, one-fold nuisance and single-sample value they give."""
import numpy as np

from rcpolicy.dgp import DgpSpec
from rcpolicy.learners import pseudo_outcome
from rcpolicy.tmle import CvNuisance, assignment_for, value_from_assignment


class OracleOutcomeModel:
    """The true outcome regression of a DgpSpec, shaped like a fitted model."""

    def __init__(self, spec: DgpSpec):
        self.spec = spec
        self.warnings: tuple[str, ...] = ()

    def predict(self, a, w: np.ndarray) -> np.ndarray:
        return np.clip(self.spec.true_outcome(a, w), 1e-6, 1 - 1e-6)

    def predict_both(self, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return self.predict(0, w), self.predict(1, w)


class OraclePropensityModel:
    """The true randomization probability, shaped like a fitted model."""

    def __init__(self, spec: DgpSpec):
        self.spec = spec

    def predict(self, w: np.ndarray) -> np.ndarray:
        return np.full(np.atleast_2d(w).shape[0], self.spec.propensity)


class OracleBlipModel:
    """The true blip function, shaped like a fitted model."""

    def __init__(self, spec: DgpSpec):
        self.spec = spec

    def predict(self, w: np.ndarray) -> np.ndarray:
        return self.spec.true_blip(w)


def pseudo_outcome_of(ds, q, g) -> np.ndarray:
    """`pseudo_outcome` of model-like q and g predicted on every row of ds."""
    return pseudo_outcome(ds.a, ds.y, *q.predict_both(ds.w), g.predict(ds.w))


def one_fold(ds, q, g, blip=None) -> CvNuisance:
    """The one-fold nuisance of model-like q, g and blip predicted on every row."""
    blips = None if blip is None else blip.predict(ds.w)
    return CvNuisance.one_fold(ds, *q.predict_both(ds.w), g.predict(ds.w), blips=blips)


def single_sample_value(ds, policy, q, g):
    """Single-sample TMLE of a policy taken as given, on q's and g's
    predictions (no cross-fitting)."""
    nuis = one_fold(ds, q, g)
    return value_from_assignment(nuis, assignment_for(nuis, policy))
