"""Rule-quality gate: the true regret of full-data rules on known designs.

For each design and seed, `tmle.fit_full` fits the nuisances and the blip
on one draw, and `rule.build_policy` turns the blip into the rule at
budgets 0.2 and 0.5. The rule is applied to one fixed 20k-row covariate
draw, where the design's true outcome regression gives its value. Its
regret is the oracle value at the rule's realised treated share minus
that value, so a rule is not charged for spending less than its budget.
The mean regret over seeds and budgets must stay under the design's
bound, set from the regrets these seeds give at the commit that added
the gate, with room for seed noise.

Run as a script to print the regret per design:

    PYTHONPATH=src python tests/test_regret_gate.py
"""
import numpy as np
import pytest

from rcpolicy import PipelineConfig, build_policy, generate, oracle
from rcpolicy.dgp import adaptr_like, continuous_blip, one_interaction
from rcpolicy.tmle import fit_full

KAPPAS = (0.2, 0.5)
SEEDS = range(30)
EVAL_ROWS = 20_000
EVAL_SEED = 999

# name -> (design factory of a seed, n, bound on the mean regret)
DESIGNS = {
    "one_interaction": (lambda seed: one_interaction(0.05, 0.1, seed=seed), 1000, 0.012),
    "continuous_blip": (lambda seed: continuous_blip(seed=seed), 1000, 0.012),
    "adaptr_like": (lambda seed: adaptr_like(seed=seed), 2000, 0.006),
}


def regrets(name: str) -> np.ndarray:
    """Regret per (seed, budget) of design `name`, shape (len(SEEDS), len(KAPPAS))."""
    make, n, _ = DESIGNS[name]
    truth = make(EVAL_SEED)  # a design's seed draws its data; the truth is the design's
    w = generate(truth, EVAL_ROWS).w
    q0, q1 = truth.true_outcome(0, w), truth.true_outcome(1, w)
    out = np.empty((len(SEEDS), len(KAPPAS)))
    for i, seed in enumerate(SEEDS):
        ds = generate(make(100 + seed), n)
        blip, _ = fit_full(ds, PipelineConfig(folds=5, g_known=0.5, seed=seed))
        for j, kappa in enumerate(KAPPAS):
            gt = build_policy(blip, ds, kappa).assign(w)
            value = float(np.mean(gt * q1 + (1.0 - gt) * q0))
            out[i, j] = oracle(truth, [float(np.mean(gt))]).values[0] - value
    return out


@pytest.mark.parametrize("name", sorted(DESIGNS))
def test_mean_regret_stays_under_its_bound(name):
    assert regrets(name).mean() <= DESIGNS[name][2]


if __name__ == "__main__":
    for name in DESIGNS:
        r = regrets(name)
        per_seed = r.mean(axis=1)
        by_kappa = "  ".join(f"kappa {k:g}: {m:.5f}" for k, m in zip(KAPPAS, r.mean(axis=0)))
        print(f"{name:16s} mean {r.mean():.5f}  se {per_seed.std(ddof=1) / np.sqrt(len(per_seed)):.5f}"
              f"  bound {DESIGNS[name][2]:.3f}  {by_kappa}")
