import numpy as np
from hypothesis import given, settings, strategies as st

from rcpolicy import simplex_lstsq

rng_seeds = st.integers(min_value=0, max_value=10_000)


def _risk(Z, y, w):
    return float(np.mean((y - Z @ w) ** 2))


def test_exact_candidate_recovery():
    rng = np.random.default_rng(0)
    y = rng.normal(size=50)
    Z = np.column_stack([y, rng.normal(size=50)])
    w = simplex_lstsq(Z, y)
    assert w[0] > 0.999
    assert abs(w.sum() - 1.0) <= 1e-10


def test_duplicate_candidates_are_harmless():
    rng = np.random.default_rng(1)
    z = rng.normal(size=40)
    Z = np.column_stack([z, z, z])
    y = z + rng.normal(scale=0.1, size=40)
    w = simplex_lstsq(Z, y)
    assert np.all(w >= -1e-12)
    assert abs(w.sum() - 1.0) <= 1e-10


@settings(deadline=None, max_examples=60)
@given(seed=rng_seeds, k=st.integers(min_value=1, max_value=6))
def test_simplex_constraints_and_vertex_dominance(seed, k):
    """Weights live on the simplex and beat every single candidate."""
    rng = np.random.default_rng(seed)
    n = 60
    Z = rng.normal(size=(n, k))
    y = rng.normal(size=n)
    w = simplex_lstsq(Z, y)
    assert w.shape == (k,)
    assert np.all(w >= -1e-12)
    assert abs(w.sum() - 1.0) <= 1e-10
    ens = _risk(Z, y, w)
    for j in range(k):
        vertex = np.zeros(k)
        vertex[j] = 1.0
        assert ens <= _risk(Z, y, vertex) + 1e-10


@settings(deadline=None, max_examples=100)
@given(seed=rng_seeds, ulps=st.lists(st.sampled_from([-1, 0, 1]), min_size=1, max_size=8),
       k=st.integers(min_value=2, max_value=4))
def test_an_ulp_perturbation_of_a_column_does_not_move_the_weight(seed, ulps, k):
    # a candidate and a copy with entries one ulp off tie: whichever side of
    # the first one's risk the copy's falls, the weight stays on the first
    rng = np.random.default_rng(seed)
    n = 80
    z = rng.uniform(0.2, 0.8, size=n)
    y = (rng.uniform(size=n) < z).astype(float)
    Z = np.column_stack([z, z, *(rng.uniform(size=(k - 2, n)))])
    exact = simplex_lstsq(Z, y)
    assert exact[1] == 0.0
    rows = rng.choice(n, size=len(ulps), replace=False)
    Z[rows, 1] = [np.nextafter(v, u * np.inf) if u else v for v, u in zip(Z[rows, 1], ulps)]
    for first in (0, 1):
        order = [first, 1 - first, *range(2, k)]
        w = simplex_lstsq(Z[:, order], y)
        assert w[1] == 0.0
        assert np.allclose(w, exact, rtol=0.0, atol=1e-12)
