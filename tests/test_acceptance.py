"""End-to-end acceptance gate.

Each test covers one shipping criterion, prints a single PASS/FAIL line
(visible under pytest -s), and asserts the stated tolerance and runtime
budget. The heavy runs share one cached 20k-row evaluation.
"""
import time

import numpy as np
import pytest

from oracles import pseudo_outcome_of
from rcpolicy import (
    Dataset,
    PipelineConfig,
    build_policy,
    evaluate_grid,
    fit_msm,
    fit_outcome,
    fit_propensity,
    fit_blip,
    msm_with_bootstrap,
    oracle,
    ratio,
)
from rcpolicy.config import DEFAULT_LIBRARY
from rcpolicy.dgp import (
    adaptr_like,
    constant_blip,
    continuous_blip,
    generate,
    null_effect,
    one_interaction,
)
from rcpolicy.tmle import assignment_for, derive_seed, fit_folds, value_from_assignment

REFERENCE_KAPPAS = tuple(round(0.1 * i, 10) for i in range(11))
REFERENCE_VALUES = (0.6655, 0.6860, 0.6910, 0.7118, 0.7067, 0.7193,
                    0.7225, 0.7369, 0.7457, 0.7561, 0.7720)

LEAN = dict(outcome_library=("mean", "glm"), blip_library=("mean", "glm"),
            folds=3, g_known=0.5)

_CACHE: dict = {}


def _report(num: int, name: str, ok: bool, detail: str, elapsed: float) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num} ({name}): {status} | {detail} [{elapsed:.1f}s]")


def _adaptr_grid(ds: Dataset):
    """Full-library CV-TMLE over the 11-point budget grid, computed once."""
    if "grid" not in _CACHE:
        cfg = PipelineConfig(seed=0, g_known=0.5, folds=10)
        start = time.perf_counter()
        result = evaluate_grid(ds, REFERENCE_KAPPAS, cfg)
        _CACHE["grid"] = (result, time.perf_counter() - start)
    return _CACHE["grid"]


def test_01_working_line_coefficients():
    start = time.perf_counter()
    fit = fit_msm(zip(REFERENCE_KAPPAS, REFERENCE_VALUES))
    elapsed = time.perf_counter() - start
    ok = abs(fit.beta1 - 0.0948) <= 1e-3 and abs(fit.beta0 - 0.6720) <= 1e-3
    _report(1, "working-line coefficients", ok and elapsed < 1.0,
            f"beta0={fit.beta0:.6f} beta1={fit.beta1:.6f}", elapsed)
    assert ok
    assert elapsed < 1.0


def test_02_cost_effectiveness_ratios():
    start = time.perf_counter()
    r_full = ratio(52.60, 9.74)
    r_low = ratio(5.18, 2.73)
    elapsed = time.perf_counter() - start
    ok = abs(r_full - 5.40) <= 0.01 and abs(r_low - 1.90) <= 0.01
    _report(2, "cost-effectiveness ratios", ok and elapsed < 1.0,
            f"ratio(52.60,9.74)={r_full:.4f} ratio(5.18,2.73)={r_low:.4f}", elapsed)
    assert ok
    assert elapsed < 1.0


def test_03_generator_average_effect():
    start = time.perf_counter()
    rep = oracle(adaptr_like(seed=0), (0.0, 1.0))
    elapsed = time.perf_counter() - start
    ok = abs(rep.ate - 0.0989) <= 5e-4
    _report(3, "generator average effect", ok and elapsed < 1.0,
            f"ate={rep.ate:.6f}", elapsed)
    assert ok
    assert elapsed < 1.0


def test_04_estimates_track_oracle_curve(adaptr_20k):
    result, elapsed = _adaptr_grid(adaptr_20k)
    truth = oracle(adaptr_like(seed=7), REFERENCE_KAPPAS)
    worst = 0.0
    ok = True
    for i, est in enumerate(result.estimates):
        z = abs(est.psi - truth.values[i]) / est.se
        worst = max(worst, z)
        ok = ok and z <= 3.0
    _report(4, "estimates track oracle curve", ok and elapsed < 300.0,
            f"max |psi-oracle|/se={worst:.2f} over 11 budgets, n=20000", elapsed)
    assert ok
    assert elapsed < 300.0


def test_05_interval_coverage():
    reps = 500
    kappas = (0.0, 0.3, 0.7, 1.0)
    truth = oracle(constant_blip(0.1, 0.4), kappas).values
    assert truth == pytest.approx([0.4, 0.43, 0.47, 0.5], abs=1e-12)
    hits = np.zeros(len(kappas), dtype=int)
    start = time.perf_counter()
    for r in range(reps):
        seed = 20000 + r
        ds = generate(constant_blip(0.1, 0.4, seed=seed), 1000)
        cfg = PipelineConfig(seed=seed, **LEAN)
        nuis = fit_folds(ds, cfg)
        for j, k in enumerate(kappas):
            est = value_from_assignment(nuis, assignment_for(nuis, k))
            if est.ci[0] <= truth[j] <= est.ci[1]:
                hits[j] += 1
    elapsed = time.perf_counter() - start
    coverage = hits / reps
    ok = bool(np.all((coverage >= 0.90) & (coverage <= 0.98)))
    detail = " ".join(f"k={k:g}:{c:.3f}" for k, c in zip(kappas, coverage))
    _report(5, "interval coverage", ok and elapsed < 1800.0, detail, elapsed)
    assert ok
    assert elapsed < 1800.0


def test_06_budget_feasibility_100_seeds():
    factories = (adaptr_like, constant_blip, continuous_blip, one_interaction, null_effect)
    start = time.perf_counter()
    equality_checked = 0
    for i in range(100):
        seed = 1000 + i
        factory = factories[i % len(factories)]
        n = 1500 if factory is adaptr_like else 60 + (i % 7) * 50
        ds = generate(factory(seed=seed), n)
        kappa = round(i / 99.0, 6)
        q = fit_outcome(ds, ("mean", "glm"), folds=3, seed=derive_seed(seed, 11))
        g = fit_propensity(ds, known_value=0.5, estimate=False)
        blip = fit_blip(ds, pseudo_outcome_of(ds, q, g), ("mean", "glm"), folds=3,
                        seed=derive_seed(seed, 12))
        pol = build_policy(blip, ds, kappa)
        assert pol.pct_treated <= kappa + 1.0 / n + 1e-9
        if factory is adaptr_like and kappa < 1.0 and np.min(blip.predict(ds.w)) > 0:
            assert abs(pol.pct_treated - kappa) <= 1.0 / n + 1e-9
            equality_checked += 1
    elapsed = time.perf_counter() - start
    ok = equality_checked >= 12
    _report(6, "budget feasibility", ok,
            f"100 fitted policies within budget; {equality_checked} exact-equality checks", elapsed)
    assert ok


def test_07_degenerate_budget_identities(adaptr_2k):
    start = time.perf_counter()
    cfg = PipelineConfig(seed=4, **LEAN)
    nuis = fit_folds(adaptr_2k, cfg)
    all_positive = bool(np.min(nuis.val_blip) > 0)
    pairs = [(0.0, "treat_none"), (1.0, "treat_all")]
    ok = all_positive
    for kappa, static in pairs:
        if kappa == 1.0 and not all_positive:
            continue
        a = value_from_assignment(nuis, assignment_for(nuis, kappa))
        b = value_from_assignment(nuis, assignment_for(nuis, static))
        same = (a.psi == b.psi and a.se == b.se and a.ci == b.ci
                and np.array_equal(a.eif, b.eif)
                and a.pct_treated == b.pct_treated)
        ok = ok and same
    elapsed = time.perf_counter() - start
    _report(7, "degenerate budget identities", ok,
            "kappa=0 and kappa=1 reproduce the static arms bit for bit", elapsed)
    assert all_positive, "fitted blips were not strictly positive; pick another seed"
    assert ok


def test_08_score_and_stacking_diagnostics(adaptr_2k, adaptr_20k):
    result, _ = _adaptr_grid(adaptr_20k)
    start = time.perf_counter()
    scores = [abs(e.score) for e in result.estimates]
    scores += [abs(result.treat_all.score), abs(result.treat_none.score)]
    score_ok = max(scores) <= 1e-8

    q = fit_outcome(adaptr_2k, DEFAULT_LIBRARY, folds=5, seed=3)
    g = fit_propensity(adaptr_2k, known_value=0.5, estimate=False)
    blip = fit_blip(adaptr_2k, pseudo_outcome_of(adaptr_2k, q, g), DEFAULT_LIBRARY, folds=5, seed=4)
    stack_ok = True
    for model in (q, blip):
        w = model.weights
        stack_ok = stack_ok and bool(np.all(w >= 0.0))
        stack_ok = stack_ok and abs(w.sum() - 1.0) <= 1e-10
        stack_ok = stack_ok and model.ensemble_cv_risk <= float(np.min(model.cv_risks)) + 1e-10
    elapsed = time.perf_counter() - start
    ok = score_ok and stack_ok
    _report(8, "score and stacking diagnostics", ok,
            f"max |score|={max(scores):.2e}; simplex weights valid on both stacks", elapsed)
    assert score_ok
    assert stack_ok


def test_09_flat_curve_falsification_and_power():
    start = time.perf_counter()
    grid3 = (0.0, 0.5, 1.0)
    cover0 = cover1 = 0
    outer = 100
    for r in range(outer):
        seed = 40000 + r
        ds = generate(constant_blip(0.1, 0.4, seed=seed), 1000)
        cfg = PipelineConfig(seed=seed, **LEAN)
        # point fit on 3 folds, replicates on 2
        fit = msm_with_bootstrap(ds, grid3, cfg.replace(folds=2, bootstrap_replicates=150),
                                 grid=evaluate_grid(ds, grid3, cfg))
        lo0, hi0 = fit.boot_ci["contrast0"]
        lo1, hi1 = fit.boot_ci["contrast1"]
        cover0 += lo0 <= 0.0 <= hi0
        cover1 += lo1 <= 0.0 <= hi1
    flat_ok = cover0 >= 90 and cover1 >= 90

    grid5 = (0.0, 0.25, 0.5, 0.75, 1.0)
    rejections = 0
    power_reps = 40
    for r in range(power_reps):
        seed = 50000 + r
        ds = generate(one_interaction(0.0, 0.3, baseline=0.3, seed=seed), 5000)
        cfg = PipelineConfig(seed=seed, **LEAN)
        fit = msm_with_bootstrap(ds, grid5, cfg.replace(folds=2, bootstrap_replicates=100),
                                 grid=evaluate_grid(ds, grid5, cfg))
        lo0, hi0 = fit.boot_ci["contrast0"]
        lo1, hi1 = fit.boot_ci["contrast1"]
        rejections += (0.0 < lo0 or hi0 < 0.0) or (0.0 < lo1 or hi1 < 0.0)
    power = rejections / power_reps
    power_ok = power >= 0.8
    elapsed = time.perf_counter() - start
    ok = flat_ok and power_ok
    _report(9, "flat-curve falsification and power", ok,
            f"flat coverage {cover0}/{outer} and {cover1}/{outer}; power {power:.2f}", elapsed)
    assert flat_ok
    assert power_ok
