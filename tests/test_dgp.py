import numpy as np
import pytest

from rcpolicy import (
    DGP_KINDS,
    DgpSpec,
    adaptr_like,
    constant_blip,
    continuous_blip,
    generate,
    null_effect,
    one_interaction,
    oracle,
)
from rcpolicy.dgp import ADAPTR_BLIPS, ADAPTR_CELLS, ADAPTR_MASSES

GRID = tuple(round(k / 10, 1) for k in range(11))


@pytest.fixture(scope="module")
def adaptr_report():
    return oracle(adaptr_like(seed=0), GRID)


# --- frozen population quantities ---------------------------------------------


def test_adaptr_population_constants():
    assert np.isclose(sum(ADAPTR_MASSES), 0.9999, atol=1e-12)
    assert ADAPTR_BLIPS == (0.07, 0.08, 0.10, 0.11, 0.20, 0.21, 0.24, 0.25)
    assert ADAPTR_MASSES == (0.2170, 0.3440, 0.0521, 0.3137, 0.0109, 0.0294, 0.0034, 0.0294)


def test_adaptr_oracle_ate(adaptr_report):
    assert adaptr_report.ate == pytest.approx(0.098957, abs=1e-6)
    assert adaptr_report.ey0 == pytest.approx(0.665, abs=1e-12)
    assert adaptr_report.ey1 == pytest.approx(0.665 + 0.098957, abs=1e-6)


def test_adaptr_oracle_values(adaptr_report):
    assert adaptr_report.value_at(0.0) == pytest.approx(0.665, abs=1e-12)
    assert adaptr_report.value_at(0.1) == pytest.approx(0.684480, abs=1e-6)
    assert adaptr_report.value_at(0.5) == pytest.approx(0.726127, abs=1e-6)
    assert adaptr_report.value_at(0.9) == pytest.approx(0.756957, abs=1e-6)
    assert adaptr_report.value_at(1.0) == pytest.approx(0.763957, abs=1e-6)


def _grid_index(rep, kappa):
    return int(np.argmin(np.abs(rep.kappas - kappa)))


def test_adaptr_oracle_taus_and_ties(adaptr_report):
    i9 = _grid_index(adaptr_report, 0.9)
    assert adaptr_report.taus[i9] == pytest.approx(0.07, abs=1e-12)
    assert adaptr_report.tie_probs[i9] == pytest.approx(0.539217, abs=1e-6)
    i5 = _grid_index(adaptr_report, 0.5)
    assert adaptr_report.taus[i5] == pytest.approx(0.08, abs=1e-12)
    assert adaptr_report.tie_probs[i5] == pytest.approx(0.177471, abs=1e-6)


def test_adaptr_oracle_chord(adaptr_report):
    # straight line between the static endpoints
    rep = adaptr_report
    assert rep.chord[_grid_index(rep, 0.5)] == pytest.approx(0.714478, abs=1e-5)
    assert rep.chord[_grid_index(rep, 0.0)] == pytest.approx(0.665, abs=1e-12)
    assert rep.chord[_grid_index(rep, 1.0)] == pytest.approx(rep.ey1, abs=1e-12)
    expect = rep.ey0 + (rep.ey1 - rep.ey0) * rep.kappas
    assert np.allclose(rep.chord, expect, atol=1e-12)


def test_adaptr_oracle_shape(adaptr_report):
    v = np.array(adaptr_report.values)
    t = np.array(adaptr_report.taus)
    f = np.array(adaptr_report.treated_fractions)
    assert np.all(np.diff(v) >= -1e-12)          # non-decreasing value
    assert np.all(np.diff(v, 2) <= 1e-9)         # concave (diminishing returns)
    assert np.all(np.diff(t) <= 1e-12)           # tau non-increasing
    assert np.all(np.diff(f) >= -1e-12)          # treated share non-decreasing
    # value curve dominates its chord strictly in the interior
    ks = np.array(adaptr_report.kappas)
    interior = (ks > 0) & (ks < 1)
    assert np.all(v[interior] >= adaptr_report.chord[interior])


def test_adaptr_oracle_costs(adaptr_report):
    # cost of the policy vs never treating is unit cost times treated share
    f = np.array(adaptr_report.treated_fractions)
    assert np.allclose(adaptr_report.cost_vs_none, 52.60 * f, atol=1e-9)
    assert np.allclose(adaptr_report.effect_vs_none,
                       np.array(adaptr_report.values) - 0.665, atol=1e-12)


def test_oracle_icers(adaptr_report):
    # per-percentage-point cost of moving from treat-none to the policy
    f = np.array(adaptr_report.treated_fractions)
    v = np.array(adaptr_report.values)
    for kappa, expect in ((1.0, 5.3154), (0.5, 4.3025), (0.1, 2.7002)):
        i = _grid_index(adaptr_report, kappa)
        icer = (52.60 * f[i]) / (100.0 * (v[i] - 0.665))
        assert icer == pytest.approx(expect, abs=2e-4)


def test_value_at_off_grid_raises(adaptr_report):
    with pytest.raises(KeyError):
        adaptr_report.value_at(0.33)


def test_oracle_rejects_bad_kappa():
    with pytest.raises(ValueError):
        oracle(adaptr_like(seed=0), (0.0, 1.2))


# --- factories and closed forms ------------------------------------------------


def test_dgp_kinds_registry():
    assert set(DGP_KINDS) == {"adaptr_like", "constant_blip", "null_effect",
                              "one_interaction", "continuous_blip"}


def test_constant_blip_value_is_linear():
    rep = oracle(constant_blip(blip=0.1, baseline=0.4), GRID)
    for k, v, ch in zip(rep.kappas, rep.values, rep.chord):
        assert v == pytest.approx(0.4 + 0.1 * k, abs=1e-12)
        assert v == pytest.approx(ch, abs=1e-12)


def test_one_interaction_piecewise_value():
    # blip is 0.3 on the half of the population with w1 = 1, else 0
    rep = oracle(one_interaction(base_blip=0.0, interaction=0.3, baseline=0.3), GRID)
    for k, v in zip(rep.kappas, rep.values):
        assert v == pytest.approx(0.3 + 0.3 * min(k, 0.5), abs=1e-12)


def test_null_effect_flat_value():
    rep = oracle(null_effect(), GRID)
    assert np.allclose(rep.values, rep.values[0], atol=1e-12)
    assert rep.ate == pytest.approx(0.0, abs=1e-12)


def test_continuous_blip_curve():
    rep = oracle(continuous_blip(blip_range=(0.01, 0.3), baseline=0.3), GRID)
    # continuous blips leave no tie mass: the budget binds exactly
    assert np.allclose(rep.tie_probs, 0.0, atol=1e-12)
    assert np.allclose(rep.treated_fractions, rep.kappas, atol=1e-12)
    v = np.array(rep.values)
    assert np.all(np.diff(v) > 0)
    assert np.all(np.diff(v, 2) <= 1e-9)


def test_oracle_models_match_spec_truth():
    spec = adaptr_like(seed=0)
    cells = np.array(ADAPTR_CELLS, dtype=float)
    assert np.allclose(spec.true_outcome(0, cells), 0.665, atol=1e-12)
    assert np.allclose(spec.true_outcome(1, cells) - spec.true_outcome(0, cells),
                       ADAPTR_BLIPS, atol=1e-12)
    assert spec.propensity == 0.5
    assert np.allclose(spec.true_blip(cells), ADAPTR_BLIPS, atol=1e-12)


def _cell_index_by_row(spec, w):
    """Reference rule, one row at a time: the first cell within 1e-9."""
    cells = np.asarray(spec.cell_covariates, dtype=float)
    idx = np.empty(w.shape[0], dtype=int)
    for i, row in enumerate(w):
        match = np.flatnonzero(np.all(np.abs(cells - row) < 1e-9, axis=1))
        if match.size == 0:
            raise ValueError("covariate row does not match any dgp cell")
        idx[i] = match[0]
    return idx


@pytest.mark.parametrize("spec", [
    adaptr_like(), one_interaction(), null_effect(n_covariates=2),
    # duplicate cells: the first one wins
    DgpSpec(kind="constant_blip", covariate_names=("w1",), cell_masses=(1.0, 1.0, 1.0),
            cell_blips=(0.1, 0.2, 0.3), cell_baselines=(0.5,) * 3,
            cell_covariates=((0.0,), (1.0,), (0.0,))),
], ids=["adaptr_like", "one_interaction", "null_effect", "duplicate_cells"])
def test_cell_index_matches_the_per_row_rule(spec):
    rng = np.random.default_rng(4)
    cells = np.asarray(spec.cell_covariates, dtype=float)
    # off by 9e-10 a row still matches its cell; off by 2e-9 it matches none
    noise = rng.choice([0.0, 9e-10, -9e-10, 2e-9], size=(400, cells.shape[1]),
                       p=[0.7, 0.1, 0.1, 0.1])
    w = cells[rng.integers(0, len(cells), 400)] + noise
    hit = np.all(noise != 2e-9, axis=1)
    assert 0 < hit.sum() < len(w)
    np.testing.assert_array_equal(spec._cell_index(w[hit]), _cell_index_by_row(spec, w[hit]))
    for find in (spec._cell_index, lambda w: _cell_index_by_row(spec, w)):
        with pytest.raises(ValueError, match="does not match any dgp cell"):
            find(w)


# --- sampling ------------------------------------------------------------------


def test_generate_deterministic_and_seed_sensitive():
    spec = adaptr_like(seed=4)
    d1 = generate(spec, 500)
    d2 = generate(spec, 500)
    d3 = generate(spec.with_seed(5), 500)
    assert np.array_equal(d1.w, d2.w) and np.array_equal(d1.y, d2.y)
    assert np.array_equal(d1.a, d2.a) and np.array_equal(d1.c, d2.c)
    assert not np.array_equal(d1.y, d3.y)


def test_generate_rejects_empty():
    with pytest.raises(ValueError):
        generate(adaptr_like(seed=0), 0)


def test_generate_cost_rules():
    ds = generate(adaptr_like(seed=2), 400)
    assert np.allclose(ds.c, 52.60 * ds.a, atol=1e-12)  # noiseless cost
    noisy = generate(adaptr_like(seed=2, cost_noise_sd=1.0), 400)
    assert not np.allclose(noisy.c, 52.60 * noisy.a, atol=1e-9)
    bare = generate(adaptr_like(seed=2, with_cost=False), 400)
    assert bare.c is None


def test_generate_empirical_means_match_population():
    n = 50000
    ds = generate(adaptr_like(seed=6), n)
    # treated fraction: 3 sigma of a fair coin
    assert abs(ds.n_treated / n - 0.5) <= 3 * 0.5 / np.sqrt(n)
    # outcome mean: population mean is E[Y0] + 0.5 * ATE
    pop = 0.665 + 0.5 * 0.098957
    assert abs(ds.y.mean() - pop) <= 3 * 0.5 / np.sqrt(n)
    # cell frequencies within 3 sigma of their masses
    cells = np.array(ADAPTR_CELLS, dtype=float)
    m = np.array(ADAPTR_MASSES) / sum(ADAPTR_MASSES)
    for cell, mass in zip(cells, m):
        freq = np.mean(np.all(ds.w == cell, axis=1))
        assert abs(freq - mass) <= 3 * np.sqrt(mass * (1 - mass) / n)


def test_generate_continuous_covariate_in_range():
    ds = generate(continuous_blip(blip_range=(0.01, 0.3), seed=9), 2000)
    spec = continuous_blip(blip_range=(0.01, 0.3), seed=9)
    blips = spec.true_blip(ds.w)
    assert np.all((blips >= 0.01 - 1e-12) & (blips <= 0.3 + 1e-12))
