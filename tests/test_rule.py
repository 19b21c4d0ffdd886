import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import OracleBlipModel, OracleOutcomeModel, OraclePropensityModel, one_fold
from rcpolicy import (
    STATIC_ARMS,
    adaptr_like,
    blip_atoms,
    build_policy,
    generate,
    solve_threshold,
)
from rcpolicy.dgp import ADAPTR_BLIPS, ADAPTR_MASSES
from rcpolicy.rule import TIE_TOL, AtomTable, _group_atoms, atom_table

MASSES = np.array(ADAPTR_MASSES)
BLIPS = np.array(ADAPTR_BLIPS)

# integer-count expansion of the mass function (masses sum to 0.9999,
# so 10000x the masses are exact integer counts)
EXPANDED = np.repeat(BLIPS, (MASSES * 10000).round().astype(int))


# --- threshold solving -------------------------------------------------------


def test_solve_threshold_budget_090():
    sol = solve_threshold(BLIPS, 0.9, masses=MASSES)
    assert sol.tau == pytest.approx(0.07, abs=1e-12)
    assert sol.eta == pytest.approx(0.07, abs=1e-12)
    assert sol.s_at_tau == pytest.approx(0.782978297829783, abs=1e-12)
    assert sol.tie_prob == pytest.approx(0.539217, abs=1e-6)
    assert sol.expected_treated == pytest.approx(0.9, abs=1e-12)


def test_solve_threshold_budget_050():
    sol = solve_threshold(BLIPS, 0.5, masses=MASSES)
    assert sol.tau == pytest.approx(0.08, abs=1e-12)
    assert sol.s_at_tau == pytest.approx(0.438944, abs=1e-6)
    assert sol.tie_prob == pytest.approx(0.177471, abs=1e-6)
    assert sol.expected_treated == pytest.approx(0.5, abs=1e-12)


def test_solve_threshold_masses_match_expanded_rows():
    for kappa in (0.1, 0.3, 0.5, 0.7, 0.9):
        a = solve_threshold(BLIPS, kappa, masses=MASSES)
        b = solve_threshold(EXPANDED, kappa)
        assert a.tau == b.tau
        assert a.s_at_tau == pytest.approx(b.s_at_tau, abs=1e-12)
        assert a.tie_prob == pytest.approx(b.tie_prob, abs=1e-12)


def test_solve_threshold_nonbinding_budget():
    sol = solve_threshold((0.2, 0.3, 0.4), 1.0)
    assert sol.eta == float("-inf")
    assert sol.tau == 0.0
    # unconstrained rule treats every positive blip
    assert sol.s_at_tau == pytest.approx(1.0, abs=1e-12)


def test_solve_threshold_zero_budget():
    sol = solve_threshold((0.2, 0.3, 0.4), 0.0)
    assert sol.tau == pytest.approx(0.4, abs=1e-15)
    assert sol.tie_prob == 0.0
    assert sol.expected_treated == pytest.approx(0.0, abs=1e-12)


def test_solve_threshold_rejects_bad_kappa():
    for kappa in (-0.1, 1.1, np.nan):
        with pytest.raises(ValueError):
            solve_threshold((0.1, 0.2), kappa)


def test_solve_threshold_rejects_degenerate_blips():
    with pytest.raises(ValueError, match="empty"):
        solve_threshold((), 0.5)
    with pytest.raises(ValueError, match="non-finite"):
        solve_threshold((0.1, np.nan), 0.5)


def test_solve_threshold_tie_tolerance_groups_atoms():
    # values 5e-10 apart are one atom
    sol = solve_threshold((0.1, 0.1 + 5e-10, 0.2, 0.3), 0.5)
    assert sol.tie_mass == pytest.approx(0.5, abs=1e-12)
    assert sol.tau == pytest.approx(0.1, abs=1e-9)


def test_blip_atoms_counts_and_order():
    atoms = blip_atoms([0.3, 0.1, 0.1 + 2e-10, 0.2, 0.3])
    values = [v for v, _ in atoms]
    counts = [c for _, c in atoms]
    assert values == sorted(values)
    assert sum(counts) == 5
    assert counts[0] == 2  # the two near-equal values merged


# --- policy construction -----------------------------------------------------


def test_build_policy_zero_budget_treats_nobody():
    spec = adaptr_like(seed=5)
    ds = generate(spec, 3000)
    pol = build_policy(OracleBlipModel(spec), ds, 0.0)
    assert pol.tau == pytest.approx(float(np.max(BLIPS)), abs=1e-12)
    assert pol.threshold.tie_prob == 0.0
    assert np.all(pol.assign(ds.w) == 0.0)
    assert pol.pct_treated == 0.0


def test_build_policy_binding_budget_treats_kappa():
    spec = adaptr_like(seed=5)
    ds = generate(spec, 3000)
    pol = build_policy(OracleBlipModel(spec), ds, 0.3)
    assert abs(np.mean(pol.assign(ds.w)) - 0.3) <= 1.0 / ds.n
    assert pol.pct_treated == pytest.approx(float(np.mean(pol.assign(ds.w))), abs=1e-15)


def test_build_policy_some_budget_is_stochastic():
    spec = adaptr_like(seed=5)
    ds = generate(spec, 3000)
    tie_probs = []
    stoch = []
    for kappa in np.arange(0.1, 1.0, 0.1):
        pol = build_policy(OracleBlipModel(spec), ds, float(kappa))
        tie_probs.append(pol.threshold.tie_prob)
        stoch.append(pol.pct_stochastic)
    assert any(0 < p < 1 for p in tie_probs)
    assert any(0.0 < s < 1.0 for s in stoch)


def test_build_policy_kappa_one_is_unconstrained():
    spec = adaptr_like(seed=5)
    ds = generate(spec, 500)
    pol = build_policy(OracleBlipModel(spec), ds, 1.0)
    assert pol.threshold.eta == float("-inf")
    assert pol.tau == 0.0
    # all oracle blips positive, so everyone is treated
    assert np.all(pol.assign(ds.w) == 1.0)


def test_build_policy_empty_dataset_errors():
    # empty data is rejected at Dataset construction, upstream of the rule
    spec = adaptr_like(seed=5)
    ds = generate(spec, 10)
    with pytest.raises(ValueError):
        build_policy(OracleBlipModel(spec), ds.subset(np.array([], dtype=int)), 0.5)


def test_static_policies():
    # a static arm is a name, and its index is its treatment probability
    from rcpolicy.tmle import assignment_for

    spec = adaptr_like(seed=5)
    nuis = one_fold(generate(spec, 7), OracleOutcomeModel(spec), OraclePropensityModel(spec))
    assert STATIC_ARMS == ("treat_none", "treat_all")
    for arm, name in enumerate(STATIC_ARMS):
        asg = assignment_for(nuis, name)
        assert np.all(asg.gtilde1 == float(arm)) and len(asg.gtilde1) == 7
        assert (asg.label, asg.kappa, asg.thresholds) == (name, float(arm), ())
        assert np.all(asg.tau_row == 0.0)
    with pytest.raises(ValueError, match="static arm"):
        assignment_for(nuis, "treat_some")


# --- distribution-free properties --------------------------------------------

blip_lists = st.lists(
    st.floats(min_value=-1.0, max_value=1.0, allow_nan=False, width=32),
    min_size=1,
    max_size=60,
)


@settings(max_examples=200, deadline=None)
@given(blips=blip_lists, kappa=st.floats(min_value=0.0, max_value=1.0))
def test_threshold_feasibility_property(blips, kappa):
    sol = solve_threshold(blips, kappa)
    assert sol.tau == max(sol.eta, 0.0)
    assert 0.0 <= sol.tie_prob <= 1.0
    assert sol.s_at_tau <= kappa + 1e-12
    expected = sol.expected_treated
    assert expected <= kappa + 1e-12
    if sol.tau > 0.0 and sol.tie_mass > 0.0:
        positive_mass = np.mean(np.asarray(blips) > 0)
        assert abs(expected - min(kappa, positive_mass)) <= 1e-9


@settings(max_examples=100, deadline=None)
@given(blips=blip_lists)
def test_threshold_monotone_in_kappa_property(blips):
    kappas = np.linspace(0.0, 1.0, 11)
    sols = [solve_threshold(blips, float(k)) for k in kappas]
    taus = [s.tau for s in sols]
    expected = [s.expected_treated for s in sols]
    assert all(a >= b - 1e-12 for a, b in zip(taus, taus[1:]))
    assert all(a <= b + 1e-12 for a, b in zip(expected, expected[1:]))


@settings(max_examples=100, deadline=None)
@given(blips=blip_lists, kappa=st.floats(min_value=0.0, max_value=1.0))
# positive blips tied with zero must not break a zero budget
@example(blips=[0.0, 1e-15, 1e-15], kappa=0.0)
# a blip of the atom just below tau must not get the tie probability
@example(blips=[0.5, 0.5 + 0.9e-9, 0.5 + 1.1e-9, 1.0], kappa=0.4)
# an atom below zero with a positive member: S(tau) counts what is treated
@example(blips=[-3e-9, -5e-10, 3e-10], kappa=0.7)
def test_assignment_respects_threshold_property(blips, kappa):
    sol = solve_threshold(blips, kappa)
    b = np.asarray(blips, dtype=float)
    from rcpolicy.rule import assign_from_blips

    assign = assign_from_blips(b, sol)
    assert np.all((assign >= 0.0) & (assign <= 1.0))
    if sol.tau > 0.0:
        assert np.all(assign[b > sol.tau + 1e-9] == 1.0)
        assert np.all(assign[b < sol.tau - 1e-9] == 0.0)
    else:
        assert np.all(assign[b > 1e-9] == 1.0)
        assert np.all(assign[b <= 0.0] == 0.0)
    assert np.mean(assign) <= kappa + 1.0 / len(b) + 1e-12
    assert abs(np.mean(assign) - sol.expected_treated) <= 1e-12


# --- atom grouping: bit-identity with the row-by-row merge --------------------


def _group_atoms_by_row(b, m):
    """Reference: the row-by-row greedy merge _group_atoms must reproduce."""
    values: list[float] = []
    weights: list[float] = []
    for v, p in zip(b, m):
        if values and v - values[-1] <= TIE_TOL:
            weights[-1] += p
        else:
            values.append(float(v))
            weights.append(float(p))
    return np.array(values), np.array(weights)


# gaps between consecutive sorted blips: exact ties, near-tie chains that
# straddle TIE_TOL, and gaps that always split
gap = st.one_of(
    st.just(0.0),
    st.just(TIE_TOL),
    st.floats(min_value=0.4, max_value=1.1).map(lambda f: f * TIE_TOL),
    st.floats(min_value=1e-6, max_value=0.3),
)


@st.composite
def sorted_rows(draw):
    base = draw(st.one_of(st.floats(min_value=-2.0, max_value=2.0),
                          st.sampled_from([0.0, -1e-9, 1e8, -3e7])))
    gaps = draw(st.lists(gap, min_size=0, max_size=80))
    b = np.array([base + 0.0] + gaps).cumsum()
    if draw(st.booleans()):
        m = np.full(b.size, 1.0 / b.size)
    else:
        m = np.array(draw(st.lists(st.floats(min_value=0.0, max_value=5.0),
                                   min_size=b.size, max_size=b.size)))
    return np.sort(b), m


def _bits(x):
    return np.ascontiguousarray(x, dtype=float).view(np.int64)


@settings(max_examples=400, deadline=None)
@given(rows=sorted_rows())
@example(rows=(np.full(50, 0.25), np.full(50, 0.02)))  # constant blips
@example(rows=(np.arange(40) * 0.6e-9, np.full(40, 1 / 40)))  # one long near-tie chain
# rounding puts the exact test's atom end one row past (then one row short
# of) what a search for rep + TIE_TOL finds
@example(rows=(np.array([float.fromhex("-0x1.2fec24aebfc0fp-34"),
                         float.fromhex("0x1.ffc3f86f02da9p-31"), 1.5e-9]), np.full(3, 1 / 3)))
@example(rows=(np.array([float.fromhex("-0x1.079ec162f5600p-40"),
                         float.fromhex("0x1.129ed6d214ac0p-30"), 1.6e-9]), np.full(3, 1 / 3)))
def test_group_atoms_bit_identical_to_row_merge(rows):
    b, m = rows
    values, weights = _group_atoms(b, m)
    ref_values, ref_weights = _group_atoms_by_row(b, m)
    assert np.array_equal(_bits(values), _bits(ref_values))
    assert np.array_equal(_bits(weights), _bits(ref_weights))


def _hex(sol):
    return tuple(float(getattr(sol, f)).hex()
                 for f in ("kappa", "eta", "tau", "s_at_tau", "tie_mass", "tie_prob"))


@settings(max_examples=200, deadline=None)
@given(rows=sorted_rows(), seed=st.integers(0, 2**32 - 1),
       kappa=st.floats(min_value=0.0, max_value=1.0))
def test_solve_threshold_ignores_row_order(rows, seed, kappa):
    b = rows[0] + 0.0  # -0.0 and 0.0 sort as equals, so keep one zero
    shuffled = np.random.default_rng(seed).permutation(b)
    assert _hex(solve_threshold(shuffled, kappa)) == _hex(solve_threshold(b, kappa))


@settings(max_examples=200, deadline=None)
@given(blips=st.lists(st.sampled_from([0.0, -0.0, 1e-10, -1e-10, 0.3]), min_size=1, max_size=30)
       | blip_lists,
       kappa=st.floats(min_value=0.0, max_value=1.0))
def test_solve_threshold_on_stably_presorted_blips_is_unchanged(blips, kappa):
    # fit_folds stores each fold's training blips stably sorted; that must
    # not change a single bit, signed zeros included
    b = np.asarray(blips, dtype=float)
    presorted = np.sort(b, kind="stable")
    assert _hex(solve_threshold(presorted, kappa)) == _hex(solve_threshold(b, kappa))


# --- prebuilt atom tables: one table, every budget -----------------------------


def _solve_by_masks(blips, kappa, masses=None):
    """Reference: the per-call solver, masks over every atom and row.

    Rows are grouped by the row-by-row merge, eta is the first atom
    (argmax) whose strict tail mass fits, and every mass is summed over a
    boolean mask.
    """
    b = np.asarray(blips, dtype=float)
    m = np.full(b.size, 1.0 / b.size) if masses is None else np.asarray(masses) / np.sum(masses)
    order = np.argsort(b, kind="stable")
    b, m = b[order], m[order]
    values, weights = _group_atoms_by_row(b, m)
    tail_above = np.concatenate([np.cumsum(weights[::-1])[::-1][1:], [0.0]])
    if kappa >= float(weights.sum()) - 1e-12:
        eta = float("-inf")
    else:
        eta = float(values[int(np.argmax(tail_above <= kappa))])
    tau = max(eta, 0.0)
    if tau > 0.0:
        s_at_tau = float(weights[(values > 0.0) & (values - eta > TIE_TOL)].sum())
    else:
        s_at_tau = float(m[(b > 0.0) & (b - eta > TIE_TOL)].sum())
    d = values - tau
    tie_mass = float(weights[(d >= 0.0) & (d <= TIE_TOL)].sum())
    tie_prob = 0.0
    if tau > 0.0 and tie_mass > 0.0:
        tie_prob = float(min(max((kappa - s_at_tau) / tie_mass, 0.0), 1.0))
    return tuple(float(x).hex() for x in (kappa, eta, tau, s_at_tau, tie_mass, tie_prob))


@st.composite
def blip_distributions(draw):
    """Shuffled blips with optional masses: tie-free rows, heavy exact and
    near ties, and atoms straddling zero."""
    b, m = draw(st.one_of(
        sorted_rows(),
        st.lists(st.sampled_from([-0.2, -5e-10, -0.0, 0.0, 3e-10, 0.1, 0.1 + 4e-10, 0.4]),
                 min_size=1, max_size=60).map(lambda v: (np.array(v), None)),
    ))
    if m is not None and m.sum() <= 0:
        m = None
    order = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).permutation(b.size)
    return b[order], None if m is None else m[order]


@settings(max_examples=300, deadline=None)
@given(dist=blip_distributions(),
       kappas=st.lists(st.floats(min_value=0.0, max_value=1.0), max_size=5),
       picks=st.lists(st.integers(0, 10**6), max_size=4))
@example(dist=(np.array([0.3, 0.1, 0.2, 0.4]), None), kappas=[0.25, 0.5, 0.75], picks=[])
@example(dist=(np.full(7, 0.2), None), kappas=[0.5], picks=[])
@example(dist=(np.array([-1e-9, -2e-10, 4e-10, 0.5]), np.array([1.0, 2.0, 0.0, 1.0])),
         kappas=[0.2], picks=[0, 1, 2, 3])
def test_grid_on_one_table_matches_a_fresh_solve_per_budget(dist, kappas, picks):
    b, m = dist
    table = atom_table(b, m)
    assert isinstance(table, AtomTable) and len(table) == b.size
    # budgets 0 and 1, and budgets equal to an exact tail mass of an atom
    exact = [float(table.top_mass[p % len(table.top_mass)]) for p in picks]
    for kappa in [0.0, 1.0, *kappas, *exact]:
        from_table = _hex(solve_threshold(table, kappa))
        assert from_table == _hex(solve_threshold(b, kappa, masses=m))
        assert from_table == _solve_by_masks(b, kappa, m)


def test_tie_free_table_keeps_its_rows_as_atoms():
    table = atom_table([0.3, 0.1, 0.2])
    assert table.values is table.rows and table.weights is table.masses
    assert table.masses.strides == (0,)  # one broadcast 1/n, not n copies
    assert np.array_equal(table.top_mass, [0.0, 1 / 3, 2 / 3])


def test_table_carries_its_own_masses():
    with pytest.raises(ValueError, match="masses"):
        solve_threshold(atom_table(BLIPS, MASSES), 0.5, masses=MASSES)
