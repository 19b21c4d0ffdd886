import numpy as np
import pytest
from hypothesis import given, strategies as st

from rcpolicy import (
    ColumnSchema,
    Dataset,
    adaptr_like,
    generate,
    ingest_csv,
    scale_outcome,
    write_csv,
)


def _write(path, text):
    path.write_text(text)
    return str(path)


def test_ingest_four_row_binary(tmp_path):
    p = _write(tmp_path / "d.csv", "w1,a,y\n0,0,0\n1,1,1\n0,0,1\n1,1,1\n")
    ds = ingest_csv(p, ColumnSchema(treatment="a", outcome="y", covariates=("w1",)))
    assert ds.n == 4
    assert ds.outcome_kind == "binary"
    assert ds.y_bounds == (0.0, 1.0)
    assert list(ds.a) == [0, 1, 0, 1]


def test_ingest_rejects_nonbinary_treatment(tmp_path):
    p = _write(tmp_path / "d.csv", "w1,a,y\n0,2,0\n1,1,1\n")
    with pytest.raises(ValueError, match="must be coded 0/1"):
        ingest_csv(p, ColumnSchema(treatment="a", outcome="y", covariates=("w1",)))


def test_ingest_rejects_missing_cell(tmp_path):
    p = _write(tmp_path / "d.csv", "w1,a,y\n0,0,\n1,1,1\n")
    with pytest.raises(ValueError, match="y"):
        ingest_csv(p, ColumnSchema(treatment="a", outcome="y", covariates=("w1",)))


def test_ingest_names_the_column_and_row_of_a_non_numeric_cell(tmp_path):
    p = _write(tmp_path / "d.csv", "w1,a,y\n0,0,1\n1,1,0\nabc,1,1\n")
    with pytest.raises(ValueError, match=r"non-numeric value 'abc' in column 'w1' \(row 4\)"):
        ingest_csv(p, ColumnSchema(treatment="a", outcome="y", covariates=("w1",)))


def test_ingest_bounded_real_without_bounds_takes_the_observed_range(tmp_path):
    p = _write(tmp_path / "d.csv", "w1,a,y\n0,0,2.5\n1,1,7\n0,1,4\n")
    ds = ingest_csv(p, ColumnSchema(treatment="a", outcome="y", covariates=("w1",)))
    assert ds.outcome_kind == "bounded_real"
    assert ds.y_bounds == (2.5, 7.0)


def test_ingest_rejects_a_constant_bounded_real_outcome(tmp_path):
    p = _write(tmp_path / "d.csv", "w1,a,y\n0,0,3\n1,1,3\n0,1,3\n")
    with pytest.raises(ValueError, match="outcome column 'y' is constant"):
        ingest_csv(p, ColumnSchema(treatment="a", outcome="y", covariates=("w1",)))


def test_ingest_rejects_unknown_column(tmp_path):
    p = _write(tmp_path / "d.csv", "w1,a,y\n0,0,1\n1,1,1\n")
    with pytest.raises(ValueError, match="w9"):
        ingest_csv(p, ColumnSchema(treatment="a", outcome="y", covariates=("w9",)))


def test_ingest_rejects_single_arm(tmp_path):
    p = _write(tmp_path / "d.csv", "w1,a,y\n0,1,0\n1,1,1\n")
    with pytest.raises(ValueError, match="arm"):
        ingest_csv(p, ColumnSchema(treatment="a", outcome="y", covariates=("w1",)))


@pytest.mark.parametrize("schema, message", [
    (ColumnSchema("a", "y", ("w1", "y")), "'y' used as outcome and covariate"),
    (ColumnSchema("a", "y", ("w1", "a")), "'a' used as treatment and covariate"),
    (ColumnSchema("a", "y", ("w1",), cost="y"), "'y' used as outcome and cost"),
    (ColumnSchema("a", "a", ("w1",)), "'a' used as treatment and outcome"),
    (ColumnSchema("a", "y", ("w1", "c"), cost="c"), "'c' used as cost and covariate"),
    (ColumnSchema("a", "y", ("w1", "w1")), "'w1' listed twice"),
], ids=["cov_outcome", "cov_treatment", "cost_outcome", "treatment_outcome", "cov_cost",
        "cov_twice"])
def test_ingest_rejects_a_column_in_two_roles(tmp_path, schema, message):
    p = _write(tmp_path / "d.csv", "w1,a,y,c\n0,0,0,1\n1,1,1,2\n")
    with pytest.raises(ValueError, match=message):
        ingest_csv(p, schema)


def test_ingest_rejects_a_repeated_header_name_it_uses(tmp_path):
    p = _write(tmp_path / "d.csv", "w1,a,y,w1\n0,0,0,5\n1,1,1,6\n")
    with pytest.raises(ValueError, match="header repeats column 'w1'"):
        ingest_csv(p, ColumnSchema("a", "y", ("w1",)))
    # a repeated name the schema does not use is left alone
    p = _write(tmp_path / "e.csv", "w1,a,y,x,x\n0,0,0,5,5\n1,1,1,6,6\n")
    assert ingest_csv(p, ColumnSchema("a", "y", ("w1",))).n == 2


def test_round_trip_is_identity(tmp_path):
    """write_csv then ingest_csv reproduces the Dataset and the bytes."""
    ds = generate(adaptr_like(seed=1), 1000)
    p1 = tmp_path / "a.csv"
    p2 = tmp_path / "b.csv"
    write_csv(ds, p1)
    back = ingest_csv(str(p1), ColumnSchema("a", "y", ds.covariate_names, cost="c"))
    np.testing.assert_equal(vars(back), vars(ds))
    write_csv(back, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_row_order_preserved(tmp_path):
    p = _write(tmp_path / "d.csv", "w1,a,y\n5,0,0\n3,1,1\n4,0,1\n1,1,0\n")
    ds = ingest_csv(p, ColumnSchema(treatment="a", outcome="y", covariates=("w1",),
                                    outcome_kind="binary"))
    assert list(ds.w[:, 0]) == [5.0, 3.0, 4.0, 1.0]


def test_scale_binary_identity():
    ds = generate(adaptr_like(seed=2), 200)
    scaled = scale_outcome(ds)
    assert np.array_equal(scaled.y, ds.y)
    assert scaled.y_scale == (0.0, 1.0)


def test_scale_midpoint():
    ds = Dataset(
        w=np.zeros((4, 1)),
        a=np.array([0, 1, 0, 1]),
        y=np.array([5.0, 5.0, 0.0, 10.0]),
        covariate_names=("w1",),
        outcome_kind="bounded_real",
        y_bounds=(0.0, 10.0),
    )
    scaled = scale_outcome(ds)
    assert scaled.y[0] == 0.5
    assert scaled.y_scale == (0.0, 10.0)


def test_scale_is_idempotent():
    ds = Dataset(
        w=np.zeros((2, 1)),
        a=np.array([0, 1]),
        y=np.array([2.0, 12.0]),
        covariate_names=("w1",),
        outcome_kind="bounded_real",
        y_bounds=(2.0, 12.0),
    )
    once = scale_outcome(ds)
    twice = scale_outcome(once)
    assert np.array_equal(once.y, twice.y)
    assert once.y_scale == twice.y_scale


def test_scale_rejects_degenerate_bounds():
    with pytest.raises(ValueError):
        Dataset(
            w=np.zeros((2, 1)),
            a=np.array([0, 1]),
            y=np.array([3.0, 3.0]),
            covariate_names=("w1",),
            outcome_kind="bounded_real",
            y_bounds=(3.0, 3.0),
        )


@given(
    y=st.lists(st.floats(min_value=-50, max_value=50, allow_nan=False), min_size=2, max_size=30),
    lo=st.floats(min_value=-100, max_value=-51),
    hi=st.floats(min_value=51, max_value=100),
)
def test_scale_unscale_round_trip(y, lo, hi):
    ds = Dataset(
        w=np.zeros((len(y), 1)),
        a=np.array([0, 1] * (len(y) // 2) + [0] * (len(y) % 2)),
        y=np.array(y),
        covariate_names=("w1",),
        outcome_kind="bounded_real",
        y_bounds=(lo, hi),
    )
    scaled = scale_outcome(ds)
    assert np.all((scaled.y >= 0) & (scaled.y <= 1))
    s_lo, s_hi = scaled.y_scale
    back = s_lo + scaled.y * (s_hi - s_lo)
    assert np.allclose(back, ds.y, rtol=1e-12, atol=1e-9)


def test_subset_and_arm_counts(adaptr_2k):
    sub = adaptr_2k.subset(np.arange(100))
    assert sub.n == 100
    assert np.array_equal(sub.y, adaptr_2k.y[:100])
    assert adaptr_2k.has_both_arms
    assert adaptr_2k.n_treated == int(adaptr_2k.a.sum())


def test_cost_column_round_trip(tmp_path):
    ds = generate(adaptr_like(seed=3), 300)
    assert ds.c is not None
    p = tmp_path / "c.csv"
    write_csv(ds, p)
    back = ingest_csv(str(p), ColumnSchema("a", "y", ds.covariate_names, cost="c"))
    assert np.array_equal(back.c, ds.c)
