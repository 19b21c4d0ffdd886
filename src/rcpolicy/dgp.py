"""Synthetic data-generating processes with closed-form oracles.

Each process draws a covariate profile, randomizes a binary treatment,
and draws a binary outcome whose success probability is a per-profile
baseline plus the treatment effect (blip). Because the truth is known in
closed form, every estimand in the package has an oracle here: the value
curve under the budget-constrained rule, its thresholds and tie
probabilities, the chord between the never-treat and always-treat
values, and cost-effectiveness components under a fixed per-treated
cost.

Finite-cell kinds (everything except continuous_blip) store an explicit
cell table: masses, covariate encodings, baselines, blips.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .data import Dataset

__all__ = [
    "DgpSpec",
    "OracleReport",
    "adaptr_like",
    "constant_blip",
    "continuous_blip",
    "generate",
    "null_effect",
    "one_interaction",
    "oracle",
]

DGP_KINDS = ("adaptr_like", "constant_blip", "continuous_blip", "null_effect", "one_interaction")

# Calibration table for the adaptr_like process: cell mass, blip, and the
# binary covariate encoding (wage work, self-employed, walk > 5km).
# Masses sum to 0.9999 as published and are renormalized at build time.
ADAPTR_MASSES = (0.2170, 0.3440, 0.0521, 0.3137, 0.0109, 0.0294, 0.0034, 0.0294)
ADAPTR_BLIPS = (0.07, 0.08, 0.10, 0.11, 0.20, 0.21, 0.24, 0.25)
ADAPTR_CELLS = (
    (1, 0, 0),
    (0, 0, 0),
    (1, 1, 0),
    (0, 1, 0),
    (1, 0, 1),
    (0, 0, 1),
    (1, 1, 1),
    (0, 1, 1),
)
ADAPTR_COVARIATES = ("wage_work", "self_employed", "walk_5km")
ADAPTR_BASELINE = 0.665
DEFAULT_UNIT_COST = 52.60


@dataclass(frozen=True)
class DgpSpec:
    """A synthetic process. Build instances via the factory functions.

    For finite-cell kinds, cell_* arrays align by cell index. For
    continuous_blip, blip_range holds the uniform support of the single
    effect-carrying covariate and the cell tables are unused.
    """

    kind: str
    covariate_names: tuple[str, ...]
    cell_masses: tuple[float, ...] = ()
    cell_blips: tuple[float, ...] = ()
    cell_baselines: tuple[float, ...] = ()
    cell_covariates: tuple[tuple[float, ...], ...] = ()
    blip_range: tuple[float, float] = (0.01, 0.3)
    baseline: float = 0.5
    propensity: float = 0.5
    unit_cost: float = DEFAULT_UNIT_COST
    cost_noise_sd: float = 0.0
    with_cost: bool = True
    seed: int = 0

    def __post_init__(self):
        if self.kind not in DGP_KINDS:
            raise ValueError(f"unknown dgp kind {self.kind!r}")
        if not (0.0 < self.propensity < 1.0):
            raise ValueError("propensity must be in (0, 1)")
        if self.kind != "continuous_blip":
            m = np.asarray(self.cell_masses, dtype=float)
            if m.size == 0 or np.any(m < 0) or m.sum() <= 0:
                raise ValueError("cell masses must be nonnegative with positive total")
            b = np.asarray(self.cell_blips, dtype=float)
            base = np.asarray(self.cell_baselines, dtype=float)
            if not (m.size == b.size == base.size == len(self.cell_covariates)):
                raise ValueError("cell tables must align")
            probs = np.concatenate([base, base + b])
            if np.any(probs < 0) or np.any(probs > 1):
                raise ValueError("baseline + blip must stay within [0, 1] per cell")
        else:
            lo, hi = self.blip_range
            if not (lo < hi):
                raise ValueError("blip_range must have lo < hi")
            if self.baseline < 0 or self.baseline + max(hi, 0.0) > 1:
                raise ValueError("baseline + blip must stay within [0, 1]")
        for name in ("unit_cost", "cost_noise_sd"):
            value = getattr(self, name)
            if not (np.isfinite(value) and value >= 0):
                raise ValueError(f"{name} must be finite and >= 0, got {value!r}")

    @property
    def masses(self) -> np.ndarray:
        m = np.asarray(self.cell_masses, dtype=float)
        return m / m.sum()

    @property
    def blips(self) -> np.ndarray:
        return np.asarray(self.cell_blips, dtype=float)

    @property
    def baselines(self) -> np.ndarray:
        return np.asarray(self.cell_baselines, dtype=float)

    @property
    def n_cells(self) -> int:
        return len(self.cell_masses)

    def with_seed(self, seed: int) -> "DgpSpec":
        return replace(self, seed=seed)

    # closed-form truth, usable directly as oracle nuisance models
    def true_blip(self, w: np.ndarray) -> np.ndarray:
        w = np.atleast_2d(w)
        if self.kind == "continuous_blip":
            return w[:, 0].astype(float)
        return self.blips[self._cell_index(w)]

    def true_outcome(self, a, w: np.ndarray) -> np.ndarray:
        w = np.atleast_2d(w)
        a = np.broadcast_to(np.asarray(a, dtype=float), (w.shape[0],))
        if self.kind == "continuous_blip":
            return self.baseline + a * w[:, 0]
        idx = self._cell_index(w)
        return self.baselines[idx] + a * self.blips[idx]

    def _cell_index(self, w: np.ndarray) -> np.ndarray:
        cells = np.asarray(self.cell_covariates, dtype=float)
        idx = np.empty(w.shape[0], dtype=int)
        for i, row in enumerate(w):
            match = np.flatnonzero(np.all(np.abs(cells - row) < 1e-9, axis=1))
            if match.size == 0:
                raise ValueError("covariate row does not match any dgp cell")
            idx[i] = match[0]
        return idx


def adaptr_like(
    seed: int = 0,
    with_cost: bool = True,
    unit_cost: float = DEFAULT_UNIT_COST,
    cost_noise_sd: float = 0.0,
) -> DgpSpec:
    """Discrete 8-cell process calibrated to the published blip table."""
    return DgpSpec(
        kind="adaptr_like",
        covariate_names=ADAPTR_COVARIATES,
        cell_masses=ADAPTR_MASSES,
        cell_blips=ADAPTR_BLIPS,
        cell_baselines=(ADAPTR_BASELINE,) * 8,
        cell_covariates=ADAPTR_CELLS,
        unit_cost=unit_cost,
        cost_noise_sd=cost_noise_sd,
        with_cost=with_cost,
        seed=seed,
    )


def _binary_cells(k: int) -> tuple[tuple[float, ...], ...]:
    # all 2^k profiles of k binary covariates, equal mass
    cells = []
    for code in range(2**k):
        cells.append(tuple(float((code >> j) & 1) for j in range(k)))
    return tuple(cells)


def constant_blip(
    blip: float = 0.1,
    baseline: float = 0.5,
    n_covariates: int = 3,
    seed: int = 0,
    with_cost: bool = False,
) -> DgpSpec:
    """Inert covariates, one constant treatment effect everywhere."""
    cells = _binary_cells(n_covariates)
    m = len(cells)
    return DgpSpec(
        kind="constant_blip",
        covariate_names=tuple(f"w{j + 1}" for j in range(n_covariates)),
        cell_masses=(1.0 / m,) * m,
        cell_blips=(blip,) * m,
        cell_baselines=(baseline,) * m,
        cell_covariates=cells,
        with_cost=with_cost,
        seed=seed,
    )


def null_effect(
    baseline: float = 0.5, n_covariates: int = 3, seed: int = 0, with_cost: bool = False
) -> DgpSpec:
    """No treatment effect anywhere."""
    spec = constant_blip(
        blip=0.0, baseline=baseline, n_covariates=n_covariates, seed=seed, with_cost=with_cost
    )
    return replace(spec, kind="null_effect")


def one_interaction(
    base_blip: float = 0.05,
    interaction: float = 0.3,
    baseline: float = 0.3,
    n_covariates: int = 4,
    seed: int = 0,
    with_cost: bool = False,
) -> DgpSpec:
    """Effect heterogeneity through exactly one binary covariate.

    blip(w) = base_blip + interaction * w1. With base_blip = 0 this is
    the strong-heterogeneity process (half the population at blip =
    interaction, half at 0).
    """
    cells = _binary_cells(n_covariates)
    m = len(cells)
    blips = tuple(base_blip + interaction * c[0] for c in cells)
    return DgpSpec(
        kind="one_interaction",
        covariate_names=tuple(f"w{j + 1}" for j in range(n_covariates)),
        cell_masses=(1.0 / m,) * m,
        cell_blips=blips,
        cell_baselines=(baseline,) * m,
        cell_covariates=cells,
        with_cost=with_cost,
        seed=seed,
    )


def continuous_blip(
    blip_range: tuple[float, float] = (0.01, 0.3),
    baseline: float = 0.5,
    seed: int = 0,
    with_cost: bool = False,
) -> DgpSpec:
    """Atom-free blip: blip(w) = w1 with w1 uniform on blip_range."""
    return DgpSpec(
        kind="continuous_blip",
        covariate_names=("w1", "w2"),
        blip_range=blip_range,
        baseline=baseline,
        with_cost=with_cost,
        seed=seed,
    )


def generate(spec: DgpSpec, n: int) -> Dataset:
    """Draw a Dataset of size n. Deterministic given spec.seed."""
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = np.random.default_rng(spec.seed)
    if spec.kind == "continuous_blip":
        lo, hi = spec.blip_range
        w1 = rng.uniform(lo, hi, size=n)
        w2 = rng.integers(0, 2, size=n).astype(float)
        w = np.column_stack([w1, w2])
        p0 = np.full(n, spec.baseline)
        blip = w1
    else:
        idx = rng.choice(spec.n_cells, size=n, p=spec.masses)
        w = np.asarray(spec.cell_covariates, dtype=float)[idx]
        p0 = spec.baselines[idx]
        blip = spec.blips[idx]
    a = rng.binomial(1, spec.propensity, size=n)
    y = rng.binomial(1, p0 + a * blip).astype(float)
    c = None
    if spec.with_cost:
        c = spec.unit_cost * a.astype(float)
        if spec.cost_noise_sd > 0:
            c = np.abs(c + rng.normal(0.0, spec.cost_noise_sd, size=n))
    return Dataset(
        w=w,
        a=a,
        y=y,
        covariate_names=spec.covariate_names,
        outcome_kind="binary",
        y_bounds=(0.0, 1.0),
        c=c,
    )


@dataclass(frozen=True)
class OracleReport:
    """Closed-form truth on a kappa grid.

    values[i] is the best attainable mean outcome treating at most
    kappas[i] of the population; taus/tie_probs describe the optimal
    threshold rule; chord is the straight line from the never-treat value
    to the always-treat value (random allocation of the budget). Cost
    entries are expected incremental cost and effectiveness versus the
    static comparators under the per-treated-unit cost model.
    """

    kappas: np.ndarray
    values: np.ndarray
    taus: np.ndarray
    tie_probs: np.ndarray
    treated_fractions: np.ndarray
    chord: np.ndarray
    ate: float
    ey0: float
    ey1: float
    cost_vs_none: np.ndarray
    effect_vs_none: np.ndarray
    cost_vs_all: np.ndarray
    effect_vs_all: np.ndarray

    def value_at(self, kappa: float) -> float:
        i = int(np.argmin(np.abs(self.kappas - kappa)))
        if abs(self.kappas[i] - kappa) > 1e-12:
            raise KeyError(f"kappa {kappa} not on the oracle grid")
        return float(self.values[i])


def _finite_cell_curve(spec: DgpSpec, kappas: np.ndarray):
    masses, blips = spec.masses, spec.blips
    ey0 = float(masses @ spec.baselines)
    ate = float(masses @ blips)
    # merge cells sharing a blip value into atoms, sorted descending
    atom_values, inverse = np.unique(blips, return_inverse=True)
    atom_masses = np.bincount(inverse, weights=masses)
    atom_values, atom_masses = atom_values[::-1], atom_masses[::-1]

    values, taus, ties, treated = [], [], [], []
    for kappa in kappas:
        kappa = float(kappa)
        # threshold: walk atoms from the largest blip down until the
        # budget runs out inside an atom; that atom's blip is eta and the
        # treated fraction of it is the tie probability
        if kappa >= 1.0 - 1e-15:
            tau, tie = 0.0, 0.0
        else:
            cum = 0.0
            tau, tie = 0.0, 0.0
            for v, p in zip(atom_values, atom_masses):
                if cum + p > kappa + 1e-15:
                    eta = float(v)
                    tau = max(eta, 0.0)
                    tie = (kappa - cum) / p if tau > 0 else 0.0
                    break
                cum += p
        if tau > 0.0:
            above = atom_values > tau
            s_at_tau = float(atom_masses[above].sum())
            p_tau = float(atom_masses[atom_values == tau].sum())
            gain = float(atom_masses[above] @ atom_values[above]) + tie * p_tau * tau
            got = s_at_tau + tie * p_tau
        else:
            pos = atom_values > 0
            gain = float(atom_masses[pos] @ atom_values[pos])
            got = float(atom_masses[pos].sum())
        values.append(ey0 + gain)
        taus.append(tau)
        ties.append(tie)
        treated.append(got)
    return ey0, ate, np.array(values), np.array(taus), np.array(ties), np.array(treated)


def _continuous_curve(spec: DgpSpec, kappas: np.ndarray):
    lo, hi = spec.blip_range
    ey0 = float(spec.baseline)
    ate = (lo + hi) / 2.0
    # blip ~ Uniform(lo, hi) with lo > 0: the top-kappa fraction is treated,
    # tau(kappa) = hi - kappa (hi - lo), mean gain = kappa (hi + tau) / 2
    values, taus, treated = [], [], []
    for kappa in kappas:
        tau = hi - float(kappa) * (hi - lo)
        gain = float(kappa) * (hi + tau) / 2.0
        values.append(ey0 + gain)
        taus.append(max(tau if kappa < 1 else 0.0, 0.0))
        treated.append(float(kappa))
    return ey0, ate, np.array(values), np.array(taus), np.zeros(len(kappas)), np.array(treated)


def oracle(spec: DgpSpec, kappa_grid: Sequence[float]) -> OracleReport:
    """Exact estimand values for every kappa on the grid.

    The optimal constrained allocation treats cells in decreasing blip
    order until the budget is spent, splitting the marginal cell
    fractionally (the tie-randomized rule); cells with nonpositive blips
    are never treated.
    """
    kappas = np.asarray(kappa_grid, dtype=float)
    if np.any((kappas < 0) | (kappas > 1)):
        raise ValueError("kappa grid must lie in [0, 1]")
    if spec.kind == "continuous_blip":
        ey0, ate, values, taus, ties, treated = _continuous_curve(spec, kappas)
    else:
        ey0, ate, values, taus, ties, treated = _finite_cell_curve(spec, kappas)
    ey1 = ey0 + ate
    chord = ey0 + kappas * ate
    cost_vs_none = spec.unit_cost * treated
    cost_vs_all = spec.unit_cost * (treated - 1.0)
    effect_vs_none = values - ey0
    effect_vs_all = values - ey1
    return OracleReport(
        kappas=kappas,
        values=values,
        taus=taus,
        tie_probs=ties,
        treated_fractions=treated,
        chord=chord,
        ate=ate,
        ey0=ey0,
        ey1=ey1,
        cost_vs_none=cost_vs_none,
        effect_vs_none=effect_vs_none,
        cost_vs_all=cost_vs_all,
        effect_vs_all=effect_vs_all,
    )
