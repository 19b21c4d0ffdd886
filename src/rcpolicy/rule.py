"""Resource-constrained rule construction from blip predictions.

Given predicted treatment effects (blips) and a budget kappa on the
fraction treated, the rule treats anyone whose blip clears a threshold
tau and randomizes on the tie set so the budget binds exactly:

    S(tau) = fraction of blips strictly greater than tau
    eta    = inf{tau : S(tau) <= kappa}        (-inf when never binding)
    tau    = max(eta, 0)

Treat with probability 1 if blip > tau, with probability
(kappa - S(tau)) / mass(blip = tau) if blip = tau and tau > 0, and
never otherwise; at tau = 0 the rule is the unconstrained one,
treat exactly when blip > 0. Sorted blips are grouped into atoms: an
atom is its smallest member (eta is always one of these) plus every
blip at most TIE_TOL above it. "blip = tau" means a member of eta's
atom and "blip > tau" a member of a higher atom, both when the
threshold is solved and when rows are assigned. So when the budget
binds at an atom at or below zero, its members stay untreated even if
positive.

A blip distribution is grouped once into an `AtomTable` (`atom_table`):
the sorted rows, the atoms and the mass above each atom. The rule at a
budget depends on the budget only through the threshold, so a table
answers every budget; CV-TMLE builds one per fold when it fits the fold's
nuisances (the full-data rule, one of every row) and `tmle.assignment_for`
solves each budget on it; `blip_atoms` lists a table's atoms.
`solve_threshold` on raw blips and `build_policy` build theirs through
the same `atom_table`. Grouping runs in numpy: when no two neighbouring sorted
blips are within TIE_TOL every row is its own atom, the table keeps the
rows as its atoms, and nothing loops; otherwise only the runs of
near-tied rows are walked, one atom per step, and each atom's mass is
summed left to right, row by row, so the atoms are the same to the last
bit either way. A solve finds eta by a binary search on the mass above
each atom, then sums the masses of the atoms after eta's (tau > 0) or of
the treated rows (tau = 0).
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "STATIC_ARMS",
    "RulePolicy",
    "ThresholdSolution",
    "AtomTable",
    "assign_from_blips",
    "atom_table",
    "blip_atoms",
    "build_policy",
    "solve_threshold",
    "treated_fractions",
]

TIE_TOL = 1e-9  # blip values within this distance form one atom

# the static comparators, by name; an arm's index is its treatment probability
STATIC_ARMS = ("treat_none", "treat_all")


@dataclass(frozen=True)
class ThresholdSolution:
    """Threshold and tie-randomization solving the budget constraint."""

    kappa: float
    eta: float  # may be -inf
    tau: float
    s_at_tau: float
    tie_mass: float
    tie_prob: float

    @property
    def expected_treated(self) -> float:
        return self.s_at_tau + self.tie_prob * self.tie_mass


def _sorted_rows(blips, masses) -> tuple[np.ndarray, np.ndarray]:
    """Blips in ascending order with their masses, normalized to sum to 1.

    Without masses every row weighs 1/n, held as one broadcast value.
    """
    b = np.asarray(blips, dtype=float)
    if b.size == 0:
        raise ValueError("empty blip list")
    if not np.all(np.isfinite(b)):
        raise ValueError("non-finite blip values")
    order = np.argsort(b, kind="stable")
    if masses is None:
        return b[order], np.broadcast_to(1.0 / b.size, b.shape)
    m = np.asarray(masses, dtype=float)
    if m.shape != b.shape:
        raise ValueError("masses must align with blips")
    if np.any(m < 0) or m.sum() <= 0:
        raise ValueError("masses must be nonnegative with positive total")
    m = m / m.sum()
    return b[order], m[order]


def _group_atoms(b: np.ndarray, m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Atom representatives (smallest members) and masses of sorted rows.

    Greedy by distance to the atom's representative, so every atom has
    diameter <= TIE_TOL; _above and _tied test the same difference, so
    assignment agrees with the grouping. A row more than TIE_TOL above
    its predecessor always starts an atom, so only the runs of rows
    joined by near gaps are walked, one atom per step. Masses are summed
    left to right, as a row-by-row merge would; pairwise summation
    (np.sum, reduceat) could change the last bits. When every row is its
    own atom, b and m are returned as they are.
    """
    near = np.diff(b) <= TIE_TOL
    if not near.any():
        return b, m
    starts = np.ones(b.size, dtype=bool)
    weights = m.copy()
    edges = np.diff(np.concatenate(([False], near, [False])).astype(np.int8))
    for lo, hi in zip(np.flatnonzero(edges == 1), np.flatnonzero(edges == -1) + 1):
        i = int(lo)
        while i < hi:
            rep = b[i]
            # the first row past the atom, by the exact test v - rep <= TIE_TOL
            j = i + int(np.searchsorted(b[i:hi], rep + TIE_TOL, "right"))
            while j < hi and b[j] - rep <= TIE_TOL:
                j += 1
            while j > i + 1 and b[j - 1] - rep > TIE_TOL:
                j -= 1
            if j > i + 1:
                starts[i + 1:j] = False
                weights[i] = np.add.accumulate(m[i:j])[-1]
            i = j
    return b[starts], weights[starts]


def _above(b: np.ndarray, eta: float) -> np.ndarray:
    """Blips treated for sure: positive and in an atom above eta's."""
    return (b > 0.0) & (b - eta > TIE_TOL)


def _tied(b: np.ndarray, tau: float) -> np.ndarray:
    """Blips in the atom whose representative is tau."""
    d = b - tau
    return (d >= 0.0) & (d <= TIE_TOL)


@dataclass(frozen=True, eq=False)
class AtomTable:
    """A blip distribution grouped into atoms, ready to solve any budget.

    rows and masses are the blips in ascending order and their masses
    (summing to 1); values and weights are the atoms' representatives
    and masses, and top_mass[r] the mass of the r highest atoms, which
    never decreases in r. When every row is its own atom, values and
    weights are rows and masses themselves, and uniform masses are one
    broadcast value, so the table adds one array to its sorted rows.
    len() is the number of rows.
    """

    rows: np.ndarray
    masses: np.ndarray
    values: np.ndarray
    weights: np.ndarray
    top_mass: np.ndarray
    total: float  # 1 after normalization, up to summation dust

    def __len__(self) -> int:
        return len(self.rows)


def atom_table(blips: Sequence[float], masses: Sequence[float] | None = None) -> AtomTable:
    """Sort and group blips (optionally weighted by masses) into atoms."""
    b, m = _sorted_rows(blips, masses)
    values, weights = _group_atoms(b, m)
    top_mass = np.concatenate(([0.0], np.cumsum(weights[::-1])[:-1]))
    return AtomTable(b, m, values, weights, top_mass, float(weights.sum()))


def solve_threshold(
    blips: Sequence[float] | AtomTable,
    kappa: float,
    masses: Sequence[float] | None = None,
) -> ThresholdSolution:
    """Solve for the constrained rule's threshold on a blip distribution.

    blips may be raw per-row predictions (each carrying weight 1/n),
    with `masses` the atoms of a discrete distribution, or an AtomTable
    built once to solve many budgets on.
    """
    if not (0.0 <= kappa <= 1.0):
        raise ValueError("kappa must lie in [0, 1]")
    if isinstance(blips, AtomTable):
        if masses is not None:
            raise ValueError("an AtomTable carries its own masses")
        table = blips
    else:
        table = atom_table(blips, masses)
    values, weights = table.values, table.weights
    # S is right-continuous, so the infimum is attained at an atom (or
    # never binds and eta = -inf): the first atom whose strict tail mass,
    # top_mass read from the other end, fits
    if kappa >= table.total - 1e-12:
        eta = float("-inf")
    else:
        j = len(values) - int(np.searchsorted(table.top_mass, kappa, "right"))
        eta = float(values[j])
    tau = max(eta, 0.0)

    if tau > 0.0:
        # atoms lie more than TIE_TOL apart: the ones after eta's are
        # above it, and eta's is the only one tied at tau
        s_at_tau = float(weights[j + 1:].sum())
        tie_mass = float(weights[j:j + 1].sum())
    else:
        # the unconstrained rule's B > 0 splits atoms that straddle zero,
        # so count rows, not atoms
        s_at_tau = float(table.masses[_above(table.rows, eta)].sum())
        tie_mass = float(weights[_tied(values, tau)].sum())
    if tau > 0.0 and tie_mass > 0.0:
        tie_prob = (kappa - s_at_tau) / tie_mass
        tie_prob = float(min(max(tie_prob, 0.0), 1.0))
    else:
        tie_prob = 0.0  # deterministic branch: ties at tau are untreated
    return ThresholdSolution(
        kappa=float(kappa),
        eta=eta,
        tau=float(tau),
        s_at_tau=s_at_tau,
        tie_mass=tie_mass,
        tie_prob=tie_prob,
    )


def blip_atoms(table: AtomTable) -> list[tuple[float, int]]:
    """A table's atoms as (value, row count) pairs, for histogram-style
    summaries of a fitted rule; the table's rows weigh 1/n each."""
    counts = np.rint(table.weights * len(table)).astype(int)
    return [(float(v), int(c)) for v, c in zip(table.values, counts)]


def assign_from_blips(b: np.ndarray, sol: ThresholdSolution) -> np.ndarray:
    """Treatment probability of each blip under a solved threshold."""
    out = np.where(_above(b, sol.eta), 1.0, 0.0)
    if sol.tie_prob > 0.0:  # only when tau > 0, where tau == eta
        out[_tied(b, sol.tau)] = sol.tie_prob
    return out


def treated_fractions(gtilde1: np.ndarray) -> tuple[float, float]:
    """Mean treatment probability, and the share of rows strictly inside (0, 1)."""
    interior = (gtilde1 > 1e-12) & (gtilde1 < 1.0 - 1e-12)
    return float(np.mean(gtilde1)), float(np.mean(interior))


@dataclass(frozen=True)
class RulePolicy:
    """Stochastic treatment rule induced by a blip model and a budget.

    assign maps covariate rows to treatment probabilities. pct_treated
    and pct_stochastic describe the sample the threshold was solved on.
    """

    threshold: ThresholdSolution
    blip_predict: Callable[[np.ndarray], np.ndarray]
    pct_treated: float
    pct_stochastic: float

    @property
    def kappa(self) -> float:
        return self.threshold.kappa

    @property
    def tau(self) -> float:
        return self.threshold.tau

    def assign(self, w: np.ndarray) -> np.ndarray:
        b = np.asarray(self.blip_predict(np.atleast_2d(w)), dtype=float)
        return assign_from_blips(b, self.threshold)


def build_policy(model, ds, kappa: float) -> RulePolicy:
    """Fit the constrained rule on a dataset's empirical blip distribution.

    model must expose predict(W) -> blips. The threshold is solved on the
    in-sample predictions; out-of-sample rows are assigned by comparing
    their predicted blip against the stored threshold.
    """
    blips = np.asarray(model.predict(ds.w), dtype=float)
    sol = solve_threshold(blips, kappa)
    return RulePolicy(sol, model.predict, *treated_fractions(assign_from_blips(blips, sol)))
