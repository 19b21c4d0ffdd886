"""CLI fuzz: small, degenerate CSVs through every estimating subcommand.

Each case is a random CSV of 3-80 rows run through `cli.main`. A run must
end in a documented exit code (0 success, 1 validation error, 2
numerical failure) without an uncaught exception, no GLM fit may see an
empty training split, and an `evaluate` that exits 0 must report a
finite psi and se in every grid row.
"""
import json
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from rcpolicy import glm
from rcpolicy.cli import main

_COVARIATES = {
    "binary": lambda rng, n: rng.integers(0, 2, n).astype(float),
    "normal": lambda rng, n: rng.normal(size=n),
    "constant": lambda rng, n: np.full(n, 1.5),
    "huge": lambda rng, n: 1e8 * rng.normal(size=n),
    "tiny": lambda rng, n: 1e-8 * rng.normal(size=n),
}
_TREATMENTS = {
    "single_arm": lambda rng, n: np.full(n, int(rng.integers(0, 2))),
    "alternating": lambda rng, n: np.arange(n) % 2,
    "random": lambda rng, n: rng.integers(0, 2, n),
}
_OUTCOMES = {  # name -> (y of (rng, a), extra flags)
    "random": (lambda rng, a: rng.integers(0, 2, a.size).astype(float), []),
    "separated": (lambda rng, a: a.astype(float), []),
    "constant": (lambda rng, a: np.full(a.size, float(rng.integers(0, 2))), []),
    "continuous": (lambda rng, a: rng.uniform(2.0, 6.0, a.size),
                   ["--outcome-kind", "bounded_real"]),
}
_COMMANDS = {
    "fit-rule": ["--kappa", "0:1:0.5"],
    "evaluate": ["--kappa-grid", "0:1:0.5"],
    "msm": ["--kappa-grid", "0:1:0.5", "--bootstrap", "3"],
    "icer": ["--kappa-grid", "0.5:1:0.5"],
    "subgroups": [],
}
_MODEL_FLAGS = st.tuples(
    st.sampled_from(["2", "3", "5"]),
    st.sampled_from([["--g-known", "0.5"], []]),
    st.sampled_from(["mean,glm", "mean,glm,univariate,step_aic"]),
).map(lambda t: ["--folds", t[0], *t[1], "--outcome-library", t[2], "--blip-library", t[2]])


@st.composite
def _cases(draw):
    n = draw(st.integers(3, 80))
    covs = draw(st.lists(st.sampled_from(sorted(_COVARIATES)), min_size=1, max_size=3))
    treatment = draw(st.sampled_from(sorted(_TREATMENTS)))
    outcome = draw(st.sampled_from(sorted(_OUTCOMES)))
    command = draw(st.sampled_from(sorted(_COMMANDS)))
    model = [] if command == "subgroups" else draw(_MODEL_FLAGS)
    seed = draw(st.integers(0, 2**32 - 1))
    return n, covs, treatment, outcome, command, model, seed


def _write_csv(path, n, covs, treatment, outcome, seed):
    rng = np.random.default_rng(seed)
    w = [_COVARIATES[kind](rng, n) for kind in covs]
    a = _TREATMENTS[treatment](rng, n)
    y = _OUTCOMES[outcome][0](rng, a)
    c = 50.0 * a + rng.uniform(0.0, 5.0, n)
    header = [f"w{j + 1}" for j in range(len(w))] + ["a", "y", "c"]
    rows = [[*(repr(float(col[i])) for col in w), str(int(a[i])), repr(float(y[i])),
             repr(float(c[i]))] for i in range(n)]
    path.write_text("\n".join(",".join(r) for r in [header, *rows]) + "\n")


@settings(max_examples=50, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=_cases())
def test_cli_exits_with_a_documented_code_on_degenerate_data(case, tmp_path, monkeypatch):
    monkeypatch.delenv("RC_POLICY_SEED", raising=False)
    n, covs, treatment, outcome, command, model, seed = case
    csv, out = tmp_path / "fuzz.csv", tmp_path / "out.json"
    out.unlink(missing_ok=True)
    _write_csv(csv, n, covs, treatment, outcome, seed)
    rows = []  # the row count of every design a GLM fit sees

    def counted(fit):
        def wrapper(X, *args, **kwargs):
            rows.append(len(X))
            return fit(X, *args, **kwargs)
        return wrapper

    with monkeypatch.context() as m:
        for name in ("fit", "fit_logistic"):
            m.setattr(glm, name, counted(getattr(glm, name)))
        code = main([command, "--data", str(csv), "--out", str(out), *_COMMANDS[command],
                     *_OUTCOMES[outcome][1], *model])
    assert code in (0, 1, 2)
    assert min(rows, default=1) >= 1, "a fit saw an empty training split"
    if command == "evaluate" and code == 0:
        for row in json.loads(out.read_text())["grid"]:
            assert isinstance(row["psi"], float) and math.isfinite(row["psi"]), row
            assert isinstance(row["se"], float) and math.isfinite(row["se"]), row


@pytest.mark.parametrize("outcome", sorted(_OUTCOMES))
def test_fuzz_cases_reach_exit_0(outcome, tmp_path):
    # the generator is not all rejects: an 80-row two-arm draw of every
    # outcome kind evaluates
    csv, out = tmp_path / "fuzz.csv", tmp_path / "out.json"
    _write_csv(csv, 80, ["binary", "normal"], "random", outcome, 3)
    assert main(["evaluate", "--data", str(csv), "--out", str(out), *_COMMANDS["evaluate"],
                 *_OUTCOMES[outcome][1], "--folds", "3", "--g-known", "0.5",
                 "--outcome-library", "mean,glm", "--blip-library", "mean,glm"]) == 0
