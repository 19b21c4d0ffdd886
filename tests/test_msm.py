import numpy as np
import pytest

import rcpolicy.msm
from rcpolicy import (
    PipelineConfig,
    constant_blip,
    derive_seed,
    evaluate_grid,
    fit_msm,
    generate,
    msm_with_bootstrap,
)
from rcpolicy.msm import (
    _PIPELINE_STREAM,
    _RESAMPLE_STREAM,
    BOOT_KEYS,
    MAX_REDRAWS,
    _resample,
)

REFERENCE_KAPPAS = tuple(round(k / 10, 1) for k in range(11))
REFERENCE_VALUES = (0.6655, 0.6860, 0.6910, 0.7118, 0.7067, 0.7193,
                    0.7225, 0.7369, 0.7457, 0.7561, 0.7720)

LEAN_BOOT = PipelineConfig(folds=3, g_known=0.5,
                           outcome_library=("mean", "glm"), blip_library=("mean", "glm"))


def _closed_form_ols(kappas, values):
    k = np.asarray(kappas)
    v = np.asarray(values)
    slope = float(np.sum((k - k.mean()) * (v - v.mean())) / np.sum((k - k.mean()) ** 2))
    return float(v.mean() - slope * k.mean()), slope


# --- point fit ---------------------------------------------------------------


def test_exact_line_is_recovered():
    pairs = [(k, 0.2 + 0.5 * k) for k in (0.0, 0.3, 0.6, 1.0)]
    fit = fit_msm(pairs)
    assert fit.beta0 == pytest.approx(0.2, abs=1e-12)
    assert fit.beta1 == pytest.approx(0.5, abs=1e-12)
    assert np.allclose(np.array(fit.values) - fit.predict(fit.kappas), 0.0, atol=1e-12)


def test_reference_column_coefficients():
    fit = fit_msm(zip(REFERENCE_KAPPAS, REFERENCE_VALUES))
    b0, b1 = _closed_form_ols(REFERENCE_KAPPAS, REFERENCE_VALUES)
    assert fit.beta0 == pytest.approx(b0, abs=1e-12)
    assert fit.beta1 == pytest.approx(b1, abs=1e-12)
    assert fit.beta0 == pytest.approx(0.672000, abs=1e-6)
    assert fit.beta1 == pytest.approx(0.094818, abs=1e-6)


def test_two_points_interpolate():
    fit = fit_msm([(0.0, 1.0), (1.0, 3.0)])
    assert fit.beta0 == pytest.approx(1.0, abs=1e-12)
    assert fit.beta1 == pytest.approx(2.0, abs=1e-12)


def test_fit_rejects_degenerate_input():
    with pytest.raises(ValueError):
        fit_msm([(0.5, 0.7)])
    with pytest.raises(ValueError):
        fit_msm([(0.5, 0.7), (0.5, 0.8)])
    with pytest.raises(ValueError):
        fit_msm([(0.0, np.nan), (1.0, 0.8)])


def test_residual_orthogonality():
    fit = fit_msm(zip(REFERENCE_KAPPAS, REFERENCE_VALUES))
    r = np.array(fit.values) - fit.predict(fit.kappas)
    k = np.array(fit.kappas)
    assert abs(r.sum()) <= 1e-10
    assert abs(r @ k) <= 1e-10


def test_chord_and_contrast_arithmetic():
    fit = fit_msm(zip(REFERENCE_KAPPAS, REFERENCE_VALUES), chord=(0.665, 0.764))
    assert fit.chord == pytest.approx((0.665, 0.764 - 0.665), abs=1e-12)
    assert fit.chord_at(0.0) == pytest.approx(0.665, abs=1e-12)
    assert fit.chord_at(1.0) == pytest.approx(0.764, abs=1e-12)
    assert fit.contrast[0] == pytest.approx(fit.beta0 - 0.665, abs=1e-12)
    assert fit.contrast[1] == pytest.approx(fit.beta1 - 0.099, abs=1e-12)
    bare = fit_msm(zip(REFERENCE_KAPPAS, REFERENCE_VALUES))
    with pytest.raises(ValueError):
        bare.chord_at(0.5)


def test_plot_rows_shape():
    fit = fit_msm([(0.0, 0.6), (1.0, 0.8)], chord=(0.6, 0.8))
    rows = fit.plot_rows()
    assert len(rows) == 2
    k, v, f, ch = rows[0]
    assert (k, v) == (0.0, 0.6)
    assert f == pytest.approx(0.6, abs=1e-12)
    assert ch == pytest.approx(0.6, abs=1e-12)
    assert fit_msm([(0.0, 0.6), (1.0, 0.8)]).plot_rows()[0][3] is None


def test_piecewise_curve_slope_matches_chord_on_symmetric_grid():
    """A kink at the grid midpoint leaves the OLS slope equal to the
    chord slope, so only the intercept contrast carries signal."""
    values = [0.3 + 0.3 * min(k, 0.5) for k in (0.0, 0.25, 0.5, 0.75, 1.0)]
    fit = fit_msm(zip((0.0, 0.25, 0.5, 0.75, 1.0), values), chord=(0.3, 0.45))
    assert fit.contrast[1] == pytest.approx(0.0, abs=1e-12)
    assert fit.contrast[0] == pytest.approx(0.03, abs=1e-12)


# --- bootstrap ---------------------------------------------------------------


@pytest.fixture(scope="module")
def boot_ds():
    return generate(constant_blip(blip=0.1, baseline=0.4, seed=3), 400)


def test_bootstrap_deterministic_and_keyed(boot_ds):
    a = msm_with_bootstrap(boot_ds, (0.0, 0.5, 1.0), LEAN_BOOT.replace(bootstrap_replicates=5))
    b = msm_with_bootstrap(boot_ds, (0.0, 0.5, 1.0), LEAN_BOOT.replace(bootstrap_replicates=5))
    assert set(a.boot_ci) == set(BOOT_KEYS)
    assert a.boot_ci == b.boot_ci
    assert a.beta0 == b.beta0 and a.beta1 == b.beta1
    assert a.boot_replicates == 5
    for key in BOOT_KEYS:
        assert a.boot_draws[key].shape == (5,)
        assert np.array_equal(a.boot_draws[key], b.boot_draws[key])


def test_bootstrap_single_replicate_degenerate(boot_ds):
    fit = msm_with_bootstrap(boot_ds, (0.0, 1.0), LEAN_BOOT.replace(bootstrap_replicates=1))
    for key in BOOT_KEYS:
        lo, hi = fit.boot_ci[key]
        assert lo == hi == float(fit.boot_draws[key][0])


def test_bootstrap_quantiles_nest(boot_ds):
    fit = msm_with_bootstrap(boot_ds, (0.0, 0.5, 1.0), LEAN_BOOT.replace(bootstrap_replicates=30))
    for key in BOOT_KEYS:
        draws = fit.boot_draws[key]
        lo80, hi80 = np.quantile(draws, [0.10, 0.90])
        lo95, hi95 = fit.boot_ci[key]
        assert lo95 <= lo80 <= hi80 <= hi95


def test_bootstrap_reuses_supplied_grid(boot_ds):
    grid = evaluate_grid(boot_ds, (0.0, 1.0), LEAN_BOOT)
    two = LEAN_BOOT.replace(bootstrap_replicates=2)
    fit = msm_with_bootstrap(boot_ds, (0.0, 1.0), two, grid=grid)
    assert fit.values == tuple(e.psi for e in grid.estimates)
    with pytest.raises(ValueError):
        msm_with_bootstrap(boot_ds, (0.0, 0.5, 1.0), two, grid=grid)


def test_bootstrap_rejects_zero_replicates(boot_ds):
    with pytest.raises(ValueError, match="bootstrap_replicates"):
        msm_with_bootstrap(boot_ds, (0.0, 1.0), LEAN_BOOT.replace(bootstrap_replicates=0))


def test_refit_draws_match_a_plain_grid_loop(boot_ds):
    """Replicate draws equal, bit for bit, a plain loop: resample, then
    one evaluate_grid and one fit_msm on the replicate's own seed."""
    kappas = (0.0, 0.5, 1.0)
    cfg = LEAN_BOOT.replace(bootstrap_replicates=3, seed=11)
    fit = msm_with_bootstrap(boot_ds, kappas, cfg)
    for r in range(cfg.bootstrap_replicates):
        rng = np.random.default_rng(derive_seed(cfg.seed, _RESAMPLE_STREAM, r))
        ds_b, _ = _resample(boot_ds, rng)
        rep_cfg = cfg.replace(seed=derive_seed(cfg.seed, _PIPELINE_STREAM, r))
        grid = evaluate_grid(ds_b, kappas, rep_cfg)
        line = fit_msm(zip(kappas, (e.psi for e in grid.estimates)),
                       chord=(grid.treat_none.psi, grid.treat_all.psi))
        expected = (line.beta0, line.beta1, *line.contrast)
        assert tuple(float(fit.boot_draws[key][r]) for key in BOOT_KEYS) == expected


@pytest.mark.parametrize("kappas", [(0.5,), (0.5, 0.5)], ids=["one", "repeated"])
def test_degenerate_grid_fails_before_any_fit(boot_ds, monkeypatch, kappas):
    calls = []
    monkeypatch.setattr(rcpolicy.msm, "evaluate_grid", lambda *a, **k: calls.append(a))
    with pytest.raises(ValueError, match="need at least 2"):
        msm_with_bootstrap(boot_ds, kappas, LEAN_BOOT.replace(bootstrap_replicates=2))
    assert calls == []


def test_resample_single_arm_exhaustion(boot_ds):
    class ZeroRng:
        def integers(self, lo, hi, size):
            return np.zeros(size, dtype=int)

    with pytest.raises(RuntimeError, match=f"{MAX_REDRAWS} times"):
        _resample(boot_ds, ZeroRng())


def test_bootstrap_contrast_covers_zero_on_flat_design():
    """On a constant-blip design the value curve is its own chord, so
    both contrasts are truly zero and their CIs should usually cover.
    """
    spec = constant_blip(blip=0.1, baseline=0.4)
    cover0 = cover1 = 0
    outer = 6
    for r in range(outer):
        ds = generate(spec.with_seed(400 + r), 400)
        fit = msm_with_bootstrap(ds, (0.0, 0.5, 1.0),
                                 LEAN_BOOT.replace(seed=r, bootstrap_replicates=40))
        lo0, hi0 = fit.boot_ci["contrast0"]
        lo1, hi1 = fit.boot_ci["contrast1"]
        cover0 += lo0 <= 0.0 <= hi0
        cover1 += lo1 <= 0.0 <= hi1
    assert cover0 >= outer - 1
    assert cover1 >= outer - 1
