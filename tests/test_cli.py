import argparse
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from rcpolicy.cli import CliError, _resolve_config, build_parser, main, parse_kappa_grid
from rcpolicy.config import PipelineConfig, config_hash
from rcpolicy.data import ColumnSchema, ingest_csv, scale_outcome
from rcpolicy.dgp import adaptr_like, generate, oracle
from rcpolicy.tmle import assignment_for, cv_tmle_value, fit_full

LEAN_FLAGS = ["--folds", "3", "--g-known", "0.5",
              "--outcome-library", "mean,glm", "--blip-library", "mean,glm"]


@pytest.fixture(autouse=True)
def _clean_env(monkeypatch):
    monkeypatch.delenv("RC_POLICY_SEED", raising=False)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """One simulated dataset plus the downstream artifacts, shared read-only."""
    root = tmp_path_factory.mktemp("cli")
    csv = str(root / "sim.csv")
    orc = str(root / "oracle.json")
    assert main(["simulate", "--dgp", "adaptr_like", "--n", "1200",
                 "--seed", "5", "--out", csv, "--oracle", orc]) == 0

    ev = str(root / "eval.json")
    assert main(["evaluate", "--data", csv, "--kappa-grid", "0:1:0.1",
                 "--seed", "5", "--out", ev, *LEAN_FLAGS]) == 0

    msm_json = str(root / "msm.json")
    msm_csv = str(root / "msm_plot.csv")
    assert main(["msm", "--data", csv, "--kappa-grid", "0:1:0.25", "--seed", "5",
                 "--bootstrap", "24", "--mode", "refit",
                 "--out", msm_json, "--plot-out", msm_csv, *LEAN_FLAGS]) == 0

    icer_json = str(root / "icer.json")
    plane_csv = str(root / "plane.csv")
    assert main(["icer", "--data", csv, "--kappa-grid", "0.2:0.8:0.3", "--seed", "5",
                 "--out", icer_json, "--plane-out", plane_csv, *LEAN_FLAGS]) == 0

    model_json = str(root / "model.json")
    rule_json = str(root / "rule.json")
    assert main(["fit-rule", "--data", csv, "--kappa", "0:1:0.5", "--seed", "5",
                 "--out", rule_json, "--save-model", model_json,
                 "--folds", "3", "--g-known", "0.5",
                 "--outcome-library", "mean,glm", "--blip-library", "glm"]) == 0

    return {"root": root, "csv": csv, "oracle": orc, "eval": ev,
            "msm": msm_json, "msm_plot": msm_csv, "icer": icer_json,
            "plane": plane_csv, "model": model_json, "rule": rule_json}


def _load(path):
    with open(path) as fh:
        return json.load(fh)


# --- kappa grid parsing --------------------------------------------------------


def test_parse_kappa_grid():
    assert parse_kappa_grid("0:1:0.25") == [0.0, 0.25, 0.5, 0.75, 1.0]
    assert parse_kappa_grid("0.3:0.3:0.1") == [0.3]
    with pytest.raises(CliError, match="start:end:step"):
        parse_kappa_grid("0:1")
    with pytest.raises(CliError, match="non-numeric"):
        parse_kappa_grid("0:one:0.1")
    with pytest.raises(CliError, match="positive"):
        parse_kappa_grid("0:1:0")
    with pytest.raises(CliError, match="does not divide"):
        parse_kappa_grid("0:1:0.3")
    with pytest.raises(CliError, match="outside"):
        parse_kappa_grid("0.5:1.5:0.5")


# every bad grid is a validation error found before any grid is built: a
# 1e-300 step would otherwise ask for ~1e300 budgets
@pytest.mark.parametrize("grid, message", [
    ("0:inf:1", "non-finite"), ("0:1:nan", "non-finite"), ("0:-inf:0.5", "non-finite"),
    ("0:1:1e-300", "more than 10001 points"), ("0:1:5e-324", "more than 10001 points"),
    ("0:1:0.00005", "more than 10001 points"),
])
@pytest.mark.parametrize("command", ["evaluate", "msm", "icer", "fit-rule", "simulate"])
def test_bad_kappa_grid_exits_1_naming_the_flag(command, grid, message, tmp_path, capsys):
    out = tmp_path / "out.json"
    if command == "simulate":
        argv = ["simulate", "--dgp", "null_effect", "--n", "20", "--out", str(tmp_path / "s.csv"),
                "--oracle", str(out), "--kappa-grid", grid]
    else:
        flag = "--kappa" if command == "fit-rule" else "--kappa-grid"
        argv = [command, "--data", str(tmp_path / "absent.csv"), flag, grid, "--out", str(out)]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert "--kappa-grid" in err and message in err
    assert list(tmp_path.iterdir()) == []


# a 2-row training split with one row per arm, dealt into 2 folds, puts both
# rows in fold 0 and leaves fold 0's inner training split empty
@pytest.mark.parametrize("outcome_lib, blip_lib", [
    ("mean,glm", "mean,glm"), ("mean,glm", "step_aic"), ("mean", "step_aic"), ("step_aic", "glm"),
])
def test_tiny_n_exits_1_naming_the_rows_per_arm(outcome_lib, blip_lib, tmp_path, capsys):
    csv = tmp_path / "tiny.csv"
    csv.write_text("w1,a,y\n0.1,0,1\n0.5,1,0\n0.9,0,0\n0.3,1,1\n0.7,1,1\n")
    assert main(["evaluate", "--data", str(csv), "--kappa-grid", "0:1:0.5", "--folds", "2",
                 "--g-known", "0.5", "--outcome-library", outcome_lib,
                 "--blip-library", blip_lib, "--out", str(tmp_path / "out.json")]) == 1
    err = capsys.readouterr().err
    assert err == ("error: too few rows for 2 folds: a training split is empty; "
                   "each treatment arm needs at least 2 rows\n")
    assert list(tmp_path.iterdir()) == [csv]


def test_kappa_grid_of_10001_points_is_accepted():
    grid = parse_kappa_grid("0:1:0.0001")
    assert len(grid) == 10001 and grid[-1] == 1.0


# --- simulate -------------------------------------------------------------------


def test_simulate_deterministic(tmp_path):
    a, b, c = (str(tmp_path / f"{x}.csv") for x in "abc")
    assert main(["simulate", "--dgp", "constant_blip", "--n", "50", "--seed", "9", "--out", a]) == 0
    assert main(["simulate", "--dgp", "constant_blip", "--n", "50", "--seed", "9", "--out", b]) == 0
    assert main(["simulate", "--dgp", "constant_blip", "--n", "50", "--seed", "10", "--out", c]) == 0
    a_bytes = open(a, "rb").read()
    assert a_bytes == open(b, "rb").read()
    assert a_bytes != open(c, "rb").read()
    meta = _load(a + ".meta.json")
    assert meta["rows"] == 50
    assert meta["columns"][-2:] == ["y", "c"]
    assert meta["audit"]["seed"] == 9
    # a JSON no_cost is not shadowed by the flag's unset default
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"no_cost": true}')
    d = str(tmp_path / "d.csv")
    assert main(["simulate", "--dgp", "constant_blip", "--n", "50", "--seed", "9", "--out", d,
                 "--config", str(cfg)]) == 0
    assert _load(d + ".meta.json")["columns"][-1] == "y"
    assert open(d).readline().rstrip().split(",")[-1] == "y"


def test_simulate_env_seed(tmp_path, monkeypatch):
    flagged = str(tmp_path / "flag.csv")
    env = str(tmp_path / "env.csv")
    beats = str(tmp_path / "beats.csv")
    assert main(["simulate", "--dgp", "null_effect", "--n", "40", "--seed", "5", "--out", flagged]) == 0
    monkeypatch.setenv("RC_POLICY_SEED", "5")
    assert main(["simulate", "--dgp", "null_effect", "--n", "40", "--out", env]) == 0
    assert open(flagged, "rb").read() == open(env, "rb").read()
    monkeypatch.setenv("RC_POLICY_SEED", "7")
    assert main(["simulate", "--dgp", "null_effect", "--n", "40", "--seed", "5", "--out", beats]) == 0
    assert open(flagged, "rb").read() == open(beats, "rb").read()


def test_simulate_env_seed_invalid(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("RC_POLICY_SEED", "not-a-seed")
    code = main(["simulate", "--dgp", "null_effect", "--n", "10",
                 "--out", str(tmp_path / "x.csv")])
    assert code == 1
    assert "RC_POLICY_SEED" in capsys.readouterr().err


def test_simulate_rejects_bad_json_oracle_grid_before_writing(tmp_path, capsys):
    cfg = tmp_path / "k.json"
    cfg.write_text('{"kappa_grid": 5}')
    out = tmp_path / "f.csv"
    code = main(["simulate", "--dgp", "adaptr_like", "--n", "20", "--out", str(out),
                 "--oracle", str(tmp_path / "o.json"), "--config", str(cfg)])
    assert code == 1
    assert "--kappa-grid" in capsys.readouterr().err
    assert not out.exists()
    assert list(tmp_path.iterdir()) == [cfg]


def test_simulate_rejects_bad_kappa_grid_without_oracle(tmp_path, capsys):
    out = tmp_path / "g.csv"
    code = main(["simulate", "--dgp", "null_effect", "--n", "20", "--out", str(out),
                 "--kappa-grid", "0:1:0.3"])
    assert code == 1
    assert "--kappa-grid" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


# NaN fails every comparison, so a bare `< 0` check would let it through
@pytest.mark.parametrize("flag, value", [("--cost-noise-sd", "nan"), ("--cost-noise-sd", "-1"),
                                         ("--cost-noise-sd", "inf"), ("--unit-cost", "nan"),
                                         ("--unit-cost", "inf"), ("--unit-cost", "-5")])
def test_simulate_rejects_a_bad_cost_field_before_writing(flag, value, tmp_path, capsys):
    out = tmp_path / "c.csv"
    code = main(["simulate", "--dgp", "adaptr_like", "--n", "20", "--out", str(out),
                 flag, value])
    assert code == 1
    assert flag[2:].replace("-", "_") + " must be finite and >= 0" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_simulate_oracle_matches_library(workdir):
    doc = _load(workdir["oracle"])
    rep = oracle(adaptr_like(seed=5), [round(0.1 * i, 10) for i in range(11)])
    assert doc["ate"] == pytest.approx(rep.ate, abs=1e-12)
    assert len(doc["grid"]) == 11
    for i, row in enumerate(doc["grid"]):
        assert row["kappa"] == pytest.approx(rep.kappas[i], abs=1e-12)
        assert row["value"] == pytest.approx(rep.values[i], abs=1e-12)
        assert row["tau"] == pytest.approx(rep.taus[i], abs=1e-12)
        assert row["cost_vs_none"] == pytest.approx(rep.cost_vs_none[i], abs=1e-9)
    # kappa = 0 vs treat-none is 0/0: emitted as null
    assert doc["grid"][0]["icer_vs_none"] is None
    assert doc["grid"][1]["icer_vs_none"] > 0


# --- fit-rule -------------------------------------------------------------------


def test_fit_rule_grid_and_model(workdir):
    doc = _load(workdir["rule"])
    assert [r["kappa"] for r in doc["rules"]] == [0.0, 0.5, 1.0]
    for r in doc["rules"]:
        assert r["pct_treated"] <= r["kappa"] + 1.0 / 1200 + 1e-12
    # unconstrained budget: the threshold sits at zero and eta is -inf -> null
    last = doc["rules"][-1]
    assert last["tau"] == 0.0
    assert last["eta"] is None
    atoms = _load(workdir["model"])["blip_atoms"]
    assert sum(a["count"] for a in atoms) == 1200
    assert 1 <= len(atoms) <= 8
    values = [a["blip_value"] for a in atoms]
    assert values == sorted(values)


def test_fit_rule_single_kappa_stdout(workdir, capsys):
    assert main(["fit-rule", "--data", workdir["csv"], "--kappa", "0.3",
                 "--seed", "5", "--folds", "3", "--g-known", "0.5",
                 "--outcome-library", "mean", "--blip-library", "mean,glm"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["kappa"] == 0.3
    assert doc["tau"] > 0
    assert 0 <= doc["pct_treated"] <= 0.3 + 1.0 / 1200 + 1e-12
    assert doc["audit"]["config"]["command"] == "fit-rule"


def test_fit_rule_assignments_csv(workdir, tmp_path):
    out = str(tmp_path / "assign.csv")
    assert main(["fit-rule", "--data", workdir["csv"], "--kappa", "0.4", "--seed", "5",
                 "--assignments", out, "--folds", "3", "--g-known", "0.5",
                 "--outcome-library", "mean", "--blip-library", "mean,glm"]) == 0
    lines = open(out).read().splitlines()
    assert lines[0] == "row,blip,treat_kappa_0.4"
    assert len(lines) == 1201
    probs = [float(line.split(",")[2]) for line in lines[1:]]
    assert all(0.0 <= p <= 1.0 for p in probs)
    assert sum(probs) / 1200 <= 0.4 + 1.0 / 1200 + 1e-12
    meta = _load(out + ".meta.json")
    assert "config_hash" in meta["audit"]


def test_fit_rule_covariate_subset(workdir, tmp_path):
    out = str(tmp_path / "m.json")
    assert main(["fit-rule", "--data", workdir["csv"], "--kappa", "0.5", "--seed", "5",
                 "--covariate-cols", "wage_work,walk_5km", "--save-model", out,
                 "--folds", "3", "--g-known", "0.5",
                 "--outcome-library", "mean", "--blip-library", "glm"]) == 0
    doc = _load(out)
    assert doc["covariate_names"] == ["wage_work", "walk_5km"]


def test_fit_rule_reports_thresholds_in_outcome_units(tmp_path, capsys):
    """y on [2, 6] and the same rows as (y - 2) / 4 on [0, 1] fit one rule;
    its thresholds and blips read 4x apart."""
    rng = np.random.default_rng(3)
    x = rng.random(300)
    arm = rng.integers(0, 2, 300)
    y = 2.0 + 4.0 * (0.2 + 0.5 * arm * x + 0.2 * rng.random(300))
    docs = []
    for name, ys, bounds in (("wide", y, "2:6"), ("unit", (y - 2.0) / 4.0, "0:1")):
        src = tmp_path / f"{name}.csv"
        rows = ["x1,a,y"] + [f"{float(x[i])!r},{arm[i]},{float(ys[i])!r}" for i in range(300)]
        src.write_text("\n".join(rows) + "\n")
        assign = tmp_path / f"{name}_assign.csv"
        assert main(["fit-rule", "--data", str(src), "--kappa", "0.3",
                     "--outcome-kind", "bounded_real", "--y-bounds", bounds,
                     "--assignments", str(assign), "--folds", "2", "--g-known", "0.5",
                     "--outcome-library", "mean,glm", "--blip-library", "glm"]) == 0
        doc = json.loads(capsys.readouterr().out)
        doc["blips"] = [float(line.split(",")[1]) for line in assign.read_text().splitlines()[1:]]
        docs.append(doc)
    wide, unit = docs
    assert unit["tau"] > 0
    assert wide["tau"] == 4.0 * unit["tau"]
    assert wide["eta"] == 4.0 * unit["eta"]
    assert wide["blips"] == [4.0 * b for b in unit["blips"]]
    assert wide["pct_treated"] == unit["pct_treated"]


def test_fit_rule_reports_the_full_data_rules(tmp_path, capsys):
    """fit-rule reports the budget assignments of tmle.fit_full's one-fold
    nuisance, with each tau in outcome units."""
    csv = tmp_path / "cont.csv"
    assert main(["simulate", "--dgp", "continuous_blip", "--n", "400", "--seed", "3",
                 "--no-cost", "--out", str(csv)]) == 0
    # the binary outcome recoded onto {2, 6}, so thresholds scale by 4
    lines = csv.read_text().splitlines()
    header = lines[0].split(",")
    j = header.index("y")
    rows = [line.split(",") for line in lines[1:]]
    for row in rows:
        row[j] = repr(2.0 + 4.0 * float(row[j]))
    csv.write_text("\n".join([lines[0], *(",".join(r) for r in rows)]) + "\n")
    assert main(["fit-rule", "--kappa", "0:1:0.25", "--data", str(csv), "--seed", "3",
                 "--outcome-kind", "bounded_real", "--y-bounds", "2:6", *LEAN_FLAGS]) == 0
    rules = json.loads(capsys.readouterr().out)["rules"]

    ds = ingest_csv(str(csv), ColumnSchema(
        treatment="a", outcome="y", covariates=tuple(c for c in header if c not in ("a", "y")),
        outcome_kind="bounded_real", y_bounds=(2.0, 6.0)))
    cfg = PipelineConfig(seed=3, folds=3, g_known=0.5,
                         outcome_library=("mean", "glm"), blip_library=("mean", "glm"))
    _, nuis = fit_full(ds, cfg)
    sols = [assignment_for(nuis, k).thresholds[0] for k in parse_kappa_grid("0:1:0.25")]
    lo, hi = nuis.ds.y_scale
    assert (lo, hi) == scale_outcome(ds).y_scale == (2.0, 6.0)
    assert [r["kappa"] for r in rules] == [sol.kappa for sol in sols]
    assert any(r["tau"] > 0 for r in rules)
    assert [r["tau"] for r in rules] == [(hi - lo) * sol.tau for sol in sols]


def test_fit_rule_predicts_blips_once_and_solves_each_budget_once(workdir, tmp_path,
                                                                 monkeypatch):
    """Every budget's rule block and --assignments column comes from one
    set of full-data blips, through tmle.assignment_for."""
    from rcpolicy import rule, tmle
    from rcpolicy.learners import BlipModel

    predicts, solves = [], []
    predict, solve = BlipModel.predict, rule.solve_threshold

    def counted_predict(self, w):
        predicts.append(len(w))
        return predict(self, w)

    def counted_solve(*args, **kwargs):
        solves.append(kwargs.get("kappa", args[1]))
        return solve(*args, **kwargs)

    monkeypatch.setattr(BlipModel, "predict", counted_predict)
    for mod in (rule, tmle):
        monkeypatch.setattr(mod, "solve_threshold", counted_solve)
    assign = tmp_path / "assign.csv"
    assert main(["fit-rule", "--data", workdir["csv"], "--kappa", "0:1:0.25", "--seed", "5",
                 "--out", str(tmp_path / "rule.json"), "--save-model", str(tmp_path / "m.json"),
                 "--assignments", str(assign), *LEAN_FLAGS]) == 0
    assert predicts == [1200]
    assert solves == [0.0, 0.25, 0.5, 0.75, 1.0]
    rules = _load(tmp_path / "rule.json")["rules"]
    rows = np.array([line.split(",")[2:] for line in assign.read_text().splitlines()[1:]],
                    dtype=float)
    assert [r["pct_treated"] for r in rules] == pytest.approx(rows.mean(axis=0), abs=1e-12)


# --- evaluate -------------------------------------------------------------------


def test_evaluate_grid_payload(workdir):
    doc = _load(workdir["eval"])
    assert len(doc["grid"]) == 11
    assert doc["n"] == 1200
    kappas = [e["kappa"] for e in doc["grid"]]
    assert kappas == [round(0.1 * i, 10) for i in range(11)]
    for e in doc["grid"]:
        assert e["ci_lo"] <= e["psi"] <= e["ci_hi"]
        assert abs(e["score"]) <= 1e-8
        # per-fold rules are applied out of fold, so the budget holds to noise
        assert e["pct_treated"] <= e["kappa"] + 0.04
        assert "diff" in e["vs_treat_none"] and "diff" in e["vs_treat_all"]
    # kappa = 0 treats nobody regardless of the fitted blips: exact match
    assert doc["grid"][0]["psi"] == doc["treat_none"]["psi"]
    # kappa = 1 only treats positive fitted blips, so it tracks treat-all loosely
    last, all_ = doc["grid"][-1], doc["treat_all"]
    assert abs(last["psi"] - all_["psi"]) <= 4 * (last["se"] + all_["se"])


def test_evaluate_audit_hash_recomputes(workdir):
    audit = _load(workdir["eval"])["audit"]
    assert audit["config_hash"] == config_hash(audit["config"])
    assert audit["config"]["kappa_grid"][0] == 0.0
    assert audit["config"]["folds"] == 3
    assert audit["seed"] == 5


# --- msm / icer / subgroups -------------------------------------------------------


def test_msm_payload(workdir):
    doc = _load(workdir["msm"])
    assert set(doc["ci"]) == {"beta0", "beta1", "contrast0", "contrast1"}
    for lo, hi in doc["ci"].values():
        assert lo <= hi
    assert doc["replicates"] == 24
    assert doc["mode"] == "refit"
    assert doc["chord"]["intercept"] == pytest.approx(doc["values"][0], abs=1e-12)
    assert len(doc["plot_rows"]) == 5
    fitted = [r["fitted"] for r in doc["plot_rows"]]
    expect = [doc["beta0"] + doc["beta1"] * r["kappa"] for r in doc["plot_rows"]]
    assert fitted == pytest.approx(expect, abs=1e-12)
    lines = open(workdir["msm_plot"]).read().splitlines()
    assert lines[0] == "kappa,value,fitted,chord"
    assert len(lines) == 6


def test_msm_rejects_the_retired_fixed_rule_mode(workdir, tmp_path, capsys):
    out = tmp_path / "msm.json"
    argv = ["msm", "--data", workdir["csv"], "--kappa-grid", "0:1:0.5", "--bootstrap", "2",
            "--out", str(out), *LEAN_FLAGS]
    assert main([*argv, "--mode", "fixed-rule"]) == 1
    assert "'refit'" in capsys.readouterr().err
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"bootstrap_mode": "fixed-rule"}))
    assert main([*argv, "--config", str(cfg)]) == 1
    assert "'refit'" in capsys.readouterr().err
    assert not out.exists()


def test_icer_payload(workdir):
    doc = _load(workdir["icer"])
    assert doc["comparator"] == "treat_none"
    assert [r["kappa"] for r in doc["rows"]] == [0.2, 0.5, 0.8]
    for row in doc["rows"]:
        assert row["numerator"] > 0
        assert "denominator_pp" in row
    nums = [r["numerator"] for r in doc["rows"]]
    assert nums == sorted(nums)
    lines = open(workdir["plane"]).read().splitlines()
    assert lines[0] == "denominator_pp,numerator,kappa"
    assert len(lines) == 4
    assert _load(workdir["plane"] + ".meta.json")["audit"]["seed"] == 5


def test_icer_and_msm_report_the_warnings_evaluate_reports(tmp_path):
    csv = str(tmp_path / "a400.csv")
    assert main(["simulate", "--dgp", "adaptr_like", "--n", "400", "--seed", "3",
                 "--out", csv]) == 0
    flags = ["--data", csv, "--kappa-grid", "0.5:1:0.5", "--folds", "3", "--seed", "3"]
    docs = {}
    for cmd, extra in (("evaluate", []), ("icer", []),
                       ("msm", ["--mode", "refit", "--bootstrap", "2"])):
        out = tmp_path / f"{cmd}.json"
        assert main([cmd, *flags, *extra, "--out", str(out)]) == 0
        docs[cmd] = _load(out)
    assert docs["evaluate"]["warnings"]  # separation fallbacks in the default library
    assert set(docs["evaluate"]["warnings"]) <= set(docs["icer"]["warnings"])
    assert docs["msm"]["warnings"] == docs["evaluate"]["warnings"]
    for cmd in ("icer", "msm"):
        assert list(docs[cmd])[-2:] == ["warnings", "audit"]


@pytest.mark.parametrize("argv", [
    ["evaluate", "--covariate-cols", "wage_work,y"],
    ["evaluate", "--covariate-cols", "wage_work,a"],
    ["evaluate", "--covariate-cols", "wage_work,wage_work"],
    ["icer", "--cost-col", "y"],
], ids=["cov_outcome", "cov_treatment", "cov_twice", "cost_outcome"])
def test_a_column_in_two_roles_exits_1_writing_nothing(workdir, tmp_path, capsys, argv):
    out = tmp_path / "out.json"
    assert main([*argv, "--data", workdir["csv"], "--kappa-grid", "0.5:1:0.5",
                 "--out", str(out), *LEAN_FLAGS]) == 1
    assert "column" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("route", ["flag", "config"])
def test_an_empty_covariate_list_exits_1_naming_the_covariates(workdir, tmp_path, capsys, route):
    out = tmp_path / "rule.json"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"covariate_cols": []}))
    extra = ["--covariate-cols", ""] if route == "flag" else ["--config", str(cfg)]
    assert main(["fit-rule", "--data", workdir["csv"], "--kappa", "0.5", "--out", str(out),
                 *LEAN_FLAGS, *extra]) == 1
    assert "no covariates given" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("kind", [[], ["--outcome-kind", "binary"]], ids=["auto", "binary"])
def test_y_bounds_on_a_binary_outcome_exits_1(workdir, tmp_path, capsys, kind):
    # the bounds would be dropped: a binary outcome is already on [0, 1]
    out = tmp_path / "rule.json"
    assert main(["fit-rule", "--data", workdir["csv"], "--kappa", "0.5", "--y-bounds", "2:6",
                 "--out", str(out), *kind, *LEAN_FLAGS]) == 1
    err = capsys.readouterr().err
    assert "y_bounds" in err and "--outcome-kind bounded_real" in err
    assert not out.exists()


def test_icer_needs_cost_column(tmp_path, capsys):
    csv = str(tmp_path / "nocost.csv")
    assert main(["simulate", "--dgp", "constant_blip", "--n", "60", "--seed", "2",
                 "--out", csv, "--no-cost"]) == 0
    code = main(["icer", "--data", csv, "--kappa-grid", "0:1:0.5", *LEAN_FLAGS])
    assert code == 1
    assert "cost column" in capsys.readouterr().err


def test_subgroups_payload(workdir, capsys):
    assert main(["subgroups", "--data", workdir["csv"]]) == 0
    doc = json.loads(capsys.readouterr().out)
    names = [r["covariate"] for r in doc["results"]]
    assert names == ["wage_work", "self_employed", "walk_5km"]
    for r in doc["results"]:
        assert 0.0 <= r["p_value"] <= 1.0 or r["p_value"] is None
        assert isinstance(r["levels"], list)
    assert doc["alpha"] == 0.1


@pytest.mark.parametrize("alpha", ["7", "0", "1", "-0.1", "nan"])
def test_subgroups_rejects_alpha_outside_unit_interval(workdir, capsys, alpha):
    assert main(["subgroups", "--data", workdir["csv"], "--alpha", alpha]) == 1
    assert "alpha must be in (0, 1)" in capsys.readouterr().err


@pytest.mark.parametrize("max_levels", ["0", "-3"])
def test_subgroups_rejects_non_positive_max_levels(workdir, capsys, max_levels):
    assert main(["subgroups", "--data", workdir["csv"], "--max-levels", max_levels]) == 1
    assert "max_levels must be >= 1" in capsys.readouterr().err


def test_subgroups_reads_no_seed_but_audits_one(workdir, tmp_path, capsys, monkeypatch):
    def run(extra):
        assert main(["subgroups", "--data", workdir["csv"], *extra]) == 0
        doc = json.loads(capsys.readouterr().out)
        return doc["audit"]["seed"], doc["results"]

    seed, bare = run([])
    cfg = tmp_path / "seed.json"
    cfg.write_text('{"seed": 5}')
    assert run(["--config", str(cfg)]) == (5, bare)
    monkeypatch.setenv("RC_POLICY_SEED", "6")
    assert run([]) == (6, bare)
    assert seed == 0


def test_subgroups_json_null_means_unset(workdir, tmp_path, capsys):
    cfg = tmp_path / "null.json"
    cfg.write_text('{"alpha": null}')
    assert main(["subgroups", "--data", workdir["csv"], "--config", str(cfg)]) == 0
    assert json.loads(capsys.readouterr().out)["alpha"] == 0.1


# --- plot-data ------------------------------------------------------------------


def test_plot_data_value_curve(workdir, capsys):
    assert main(["plot-data", "--what", "value-curve", "--results", workdir["eval"]]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "kappa,psi,ci_lo,ci_hi,tau,pct_treated"
    assert len(lines) == 12


def test_plot_data_msm(workdir, tmp_path):
    out = str(tmp_path / "m.csv")
    assert main(["plot-data", "--what", "msm", "--results", workdir["msm"], "--out", out]) == 0
    lines = open(out).read().splitlines()
    assert lines[0] == "kappa,value,fitted,chord"
    assert len(lines) == 6
    meta = _load(out + ".meta.json")
    assert meta["what"] == "msm"
    assert meta["source"] == "msm.json"


def test_plot_data_blip_hist(workdir, capsys):
    assert main(["plot-data", "--what", "blip-hist", "--model", workdir["model"]]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "blip_value,count"
    counts = [int(line.split(",")[1]) for line in lines[1:]]
    assert sum(counts) == 1200


def test_plot_data_ce_plane(workdir, capsys):
    assert main(["plot-data", "--what", "ce-plane", "--results", workdir["icer"]]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "denominator_pp,numerator,kappa"
    assert len(lines) == 4


def test_plot_data_wrong_source(workdir, capsys):
    code = main(["plot-data", "--what", "msm", "--results", workdir["eval"]])
    assert code == 1
    err = capsys.readouterr().err
    assert "plot_rows" in err and "msm" in err


@pytest.mark.parametrize("what, flag, doc", [
    ("value-curve", "results", {"grid": [1, 2]}),
    ("msm", "results", {"plot_rows": {"a": 1}}),
    ("blip-hist", "model", {"blip_atoms": "atoms"}),
    ("ce-plane", "results", {"plane": [{"kappa": 0.5}, 3]}),
], ids=["grid_of_numbers", "plot_rows_object", "atoms_string", "plane_mixed"])
def test_plot_data_rejects_a_malformed_section(tmp_path, capsys, what, flag, doc):
    src = tmp_path / "doc.json"
    src.write_text(json.dumps(doc))
    out = tmp_path / "out.csv"
    assert main(["plot-data", "--what", what, f"--{flag}", str(src), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    (key,) = doc
    assert err.startswith("error: ") and f"--{flag}" in err and repr(key) in err
    assert list(tmp_path.iterdir()) == [src]


# --- the artifact contract ------------------------------------------------------

# every command that writes artifacts: its argv with one required output
# file, its optional output flags and files, and the plot-data views of
# its JSON (--data is filled in from the shared workdir)
_WRITERS = {
    "simulate": (["--dgp", "adaptr_like", "--n", "60", "--out", "s.csv"],
                 {"--oracle": "oracle.json"}, {}),
    "fit-rule": (["--kappa", "0:1:0.5", *LEAN_FLAGS, "--out", "rule.json"],
                 {"--save-model": "model.json", "--assignments": "assign.csv"},
                 {"blip-hist": "model.json"}),
    "evaluate": (["--kappa-grid", "0:1:0.5", *LEAN_FLAGS, "--out", "eval.json"], {},
                 {"value-curve": "eval.json"}),
    "msm": (["--kappa-grid", "0:1:0.5", "--bootstrap", "2", *LEAN_FLAGS, "--out", "msm.json"],
            {"--plot-out": "plot.csv"}, {"msm": "msm.json"}),
    "icer": (["--kappa-grid", "0.5:1:0.5", *LEAN_FLAGS, "--out", "icer.json"],
             {"--plane-out": "plane.csv"}, {"ce-plane": "icer.json"}),
    "subgroups": (["--out", "sub.json"], {}, {}),
}


@pytest.mark.parametrize("command", sorted(_WRITERS))
def test_every_artifact_carries_the_commands_audit(workdir, tmp_path, monkeypatch, command):
    monkeypatch.chdir(tmp_path)
    argv, optional, views = _WRITERS[command]
    argv = [command, *argv] + ([] if command == "simulate" else ["--data", workdir["csv"]])
    out = argv[argv.index("--out") + 1]

    def written():
        return sorted(os.listdir(tmp_path))

    # an optional output that is unset, or set to an empty path, writes no file
    assert main(argv) == 0
    required = [out, out + ".meta.json"] if out.endswith(".csv") else [out]
    assert written() == required
    for f in required:
        os.remove(f)
    assert main([*argv, *(arg for flag in optional for arg in (flag, ""))]) == 0
    assert written() == required

    assert main([*argv, *(arg for item in optional.items() for arg in item)]) == 0
    files = [*required, *optional.values()]
    files += [f + ".meta.json" for f in optional.values() if f.endswith(".csv")]
    assert written() == sorted(files)
    audits = []
    for f in files:
        if f.endswith(".csv"):
            continue
        doc = _load(f)
        assert list(doc)[-1] == "audit", f
        audits.append(doc["audit"])
    assert audits[0]["config"]["command"] == command
    assert all(audit == audits[0] for audit in audits)

    # plot-data's sidecar carries the audit of the artifact it projects
    for what, source in views.items():
        assert main(["plot-data", "--what", what, "--model" if what == "blip-hist" else "--results",
                     source, "--out", "view.csv"]) == 0
        meta = _load("view.csv.meta.json")
        assert meta == {"source": source, "what": what, "audit": audits[0]}


# --- dispatch and error mapping -----------------------------------------------


def test_numerical_failure_maps_to_exit_2(workdir, monkeypatch, capsys):
    def boom(*a, **k):
        raise RuntimeError("did not converge")

    monkeypatch.setattr("rcpolicy.cli.evaluate_grid", boom)
    code = main(["evaluate", "--data", workdir["csv"], "--kappa-grid", "0:1:0.5",
                 *LEAN_FLAGS])
    assert code == 2
    assert "numerical failure" in capsys.readouterr().err


def test_validation_errors_exit_1(workdir, capsys, tmp_path):
    assert main(["evaluate", "--data", workdir["csv"]]) == 1
    assert "--kappa-grid is required" in capsys.readouterr().err
    assert main(["evaluate", "--kappa-grid", "0:1:0.5"]) == 1
    assert "--data is required" in capsys.readouterr().err
    assert main(["nonsense"]) == 1
    bad_cfg = tmp_path / "cfg.json"
    bad_cfg.write_text('{"no_such_key": 1}')
    assert main(["evaluate", "--data", workdir["csv"], "--kappa-grid", "0:1:0.5",
                 "--config", str(bad_cfg)]) == 1
    assert "unknown key" in capsys.readouterr().err
    bad_cfg.write_text('{"threads": 1}')  # a removed knob is an unknown key
    assert main(["evaluate", "--data", workdir["csv"], "--kappa-grid", "0:1:0.5",
                 "--config", str(bad_cfg)]) == 1
    assert "unknown key 'threads'" in capsys.readouterr().err
    # integer-valued keys outside PipelineConfig are not truncated either
    out = tmp_path / "sim.csv"
    bad_cfg.write_text('{"n": 7.9}')
    assert main(["simulate", "--dgp", "null_effect", "--out", str(out),
                 "--config", str(bad_cfg)]) == 1
    assert "n must be an integer" in capsys.readouterr().err
    assert not out.exists()
    bad_cfg.write_text('{"max_levels": true}')
    assert main(["subgroups", "--data", workdir["csv"], "--config", str(bad_cfg)]) == 1
    assert "max_levels must be an integer" in capsys.readouterr().err


_EVAL = ["evaluate", "--data", "d.csv", "--kappa-grid", "0:1:0.5", "--out", "out.json"]
_RULE = ["fit-rule", "--data", "d.csv", "--out", "out.json"]
_PLOT = ["plot-data", "--what", "msm", "--out", "out.csv"]
_SIM = ["simulate", "--n", "20", "--out", "out.csv"]
# id -> (argv, files written before the run, text the message must hold);
# "c.json" holds the JSON config of a case that passes --config c.json
_REFUSALS = {
    "config_unreadable": ([*_EVAL, "--config", "none.json"], {}, "--config none.json: "),
    "config_invalid": ([*_EVAL, "--config", "c.json"], {"c.json": "{nope"},
                       "--config c.json: invalid JSON"),
    "config_not_object": ([*_EVAL, "--config", "c.json"], {"c.json": "[1, 2]"},
                          "--config c.json: top level must be a JSON object"),
    "data_unreadable": ([*_EVAL[:2], "none.csv", *_EVAL[3:]], {}, "--data none.csv: "),
    "data_empty": ([*_EVAL[:2], "e.csv", *_EVAL[3:]], {"e.csv": ""}, "--data e.csv: empty file"),
    "data_no_covariates": ([*_EVAL[:2], "ay.csv", *_EVAL[3:]], {"ay.csv": "a,y\n0,1\n1,0\n"},
                           "--data ay.csv: no covariate columns left"),
    "y_bounds_one_part": ([*_EVAL, "--y-bounds", "1"], {}, "--y-bounds expects lo:hi"),
    "y_bounds_text": ([*_EVAL, "--y-bounds", "a:b"], {}, "--y-bounds has a non-numeric part"),
    "kappa_text": ([*_RULE, "--kappa", "x"], {}, "--kappa expects a number"),
    "kappa_above_1": ([*_RULE, "--kappa", "1.5"], {}, "kappa 1.5 outside [0, 1]"),
    "kappa_grid_reversed": ([*_EVAL[:4], "1:0:0.5", *_EVAL[5:]], {},
                            "--kappa-grid end must be >= start"),
    "json_outcome_kind": ([*_EVAL, "--config", "c.json"], {"c.json": '{"outcome_kind": "x"}'},
                          "--outcome-kind must be auto, binary, or bounded_real"),
    "json_dgp": ([*_SIM, "--config", "c.json"], {"c.json": '{"dgp": "x"}'}, "--dgp must be one of"),
    "json_comparator": (["icer", *_EVAL[1:], "--config", "c.json"],
                        {"c.json": '{"comparator": "x"}'}, "--comparator must be"),
    "json_what": ([_PLOT[0], *_PLOT[3:], "--config", "c.json"], {"c.json": '{"what": "x"}'},
                  "--what must be one of"),
    "plot_no_source": (_PLOT, {}, "plot-data --what msm needs --results"),
    "plot_unreadable": ([*_PLOT, "--results", "none.json"], {}, "--results none.json: "),
    "plot_invalid": ([*_PLOT, "--results", "r.json"], {"r.json": "{nope"},
                     "--results r.json: invalid JSON"),
    "folds_1": ([*_EVAL, "--folds", "1"], {}, "folds must be >= 2"),
    "empty_library": ([*_EVAL, "--outcome-library", ""], {}, "learner libraries"),
    "g_known_1.5": ([*_EVAL, "--g-known", "1.5"], {}, "g_known must be in (0, 1)"),
    "g_min_0.7": ([*_EVAL, "--g-min", "0.7"], {}, "g_min must be in (0, 0.5)"),
    "ci_level_1.5": ([*_EVAL, "--ci-level", "1.5"], {}, "ci_level must be in (0, 1)"),
    "json_effect_units": ([*_EVAL, "--config", "c.json"], {"c.json": '{"effect_units": "x"}'},
                          "effect_units must be"),
}
# JSON values of the wrong type; each message names the key
_WRONG_TYPES = {
    f"json_{key}_{value!r}": (argv + ["--config", "c.json"], {"c.json": json.dumps({key: value})},
                              message)
    for argv, key, value, message in [
        (_EVAL, "g_estimate", "false", "g_estimate must be true, false or null, got 'false'"),
        (_EVAL, "g_estimate", 0, "g_estimate must be true, false or null, got 0"),
        (_EVAL, "epsilon_den", True, "epsilon_den must be a number, got True"),
        (_EVAL, "ci_level", "0.9", "ci_level must be a number, got '0.9'"),
        (_EVAL, "g_known", "0.5", "g_known must be a number, got '0.5'"),
        (_EVAL, "g_min", False, "g_min must be a number, got False"),
        (_SIM + ["--dgp", "null_effect"], "no_cost", "false",
         "no_cost must be true or false, got 'false'"),
        (_SIM + ["--dgp", "adaptr_like"], "unit_cost", True, "unit_cost must be a number"),
        (_SIM + ["--dgp", "adaptr_like"], "cost_noise_sd", "1", "cost_noise_sd must be a number"),
        (["subgroups", *_EVAL[1:3], *_EVAL[5:]], "alpha", "0.2", "alpha must be a number"),
        (_EVAL, "y_bounds", ["a", 1], "--y-bounds has a non-numeric part: ['a', 1]"),
        (_EVAL, "y_bounds", [3, 1], "--y-bounds upper bound must exceed the lower bound"),
    ]
}


@pytest.mark.parametrize("argv, files, message", [*_REFUSALS.values(), *_WRONG_TYPES.values()],
                         ids=[*_REFUSALS, *_WRONG_TYPES])
def test_a_refused_input_exits_1_naming_it_and_writes_nothing(workdir, tmp_path, monkeypatch,
                                                               capsys, argv, files, message):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "d.csv").write_bytes(open(workdir["csv"], "rb").read())
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    before = sorted(os.listdir(tmp_path))
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err, err
    assert sorted(os.listdir(tmp_path)) == before


def test_from_dict_rejects_an_unknown_key():
    with pytest.raises(ValueError, match=r"unknown config keys: \['nope'\]"):
        PipelineConfig.from_dict({"folds": 3, "nope": 1})


@pytest.mark.parametrize("command, grid", [("fit-rule", "--kappa"), ("evaluate", "--kappa-grid"),
                                           ("msm", "--kappa-grid")])
def test_no_g_estimate_without_g_known_exits_1_before_any_fit(workdir, monkeypatch, capsys,
                                                               command, grid):
    from rcpolicy import tmle

    def no_fit(*args, **kwargs):
        raise AssertionError("a model was fit")

    monkeypatch.setattr(tmle, "fit_outcome", no_fit)
    assert main([command, "--data", workdir["csv"], grid, "0:1:0.5", "--no-g-estimate",
                 "--folds", "3"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "need known_value" not in err
    assert all(name in err for name in ("g_estimate", "--no-g-estimate", "g_known", "--g-known"))


def test_config_rejects_g_estimate_false_without_g_known():
    with pytest.raises(ValueError, match="g_known"):
        PipelineConfig(g_estimate=False)
    with pytest.raises(ValueError, match="g_known"):
        PipelineConfig(g_known=0.5).replace(g_estimate=False, g_known=None)
    assert PipelineConfig(g_estimate=False, g_known=0.5).g_known == 0.5


@pytest.mark.parametrize("names", [" mean , glm", ["mean", " glm "], ("mean", "glm")])
def test_config_libraries_load_as_a_tuple_of_names(names):
    # a string is split on commas, never iterated: "glm" is not the
    # learners g, l and m
    cfg = PipelineConfig(outcome_library=names, blip_library=names)
    assert cfg.outcome_library == cfg.blip_library == ("mean", "glm")
    assert PipelineConfig.from_dict({"blip_library": names}).blip_library == ("mean", "glm")
    ds = generate(adaptr_like(seed=2), 200)
    assert cv_tmle_value(ds, 0.5, cfg.replace(folds=3, g_known=0.5)).n == 200


# a negative or NaN epsilon_den would never flag a zero ICER denominator
@pytest.mark.parametrize("key, value", [("folds", 2.5), ("seed", 1.5),
                                        ("bootstrap_replicates", 3.5), ("seed", -1),
                                        ("epsilon_den", -1), ("epsilon_den", float("nan")),
                                        ("epsilon_den", float("inf"))])
def test_config_rejects_non_integer_fields(workdir, tmp_path, capsys, key, value):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({key: value}))
    assert main(["evaluate", "--data", workdir["csv"], "--kappa-grid", "0:1:0.5",
                 "--config", str(cfg)]) == 1
    assert key in capsys.readouterr().err


@pytest.mark.parametrize("level", [0.5, 0.8, 0.9, 0.99, 0.999])
def test_z_value_matches_normal_quantile(level):
    from scipy.stats import norm

    ref = norm.ppf(0.5 + level / 2.0)
    assert PipelineConfig(ci_level=level).z_value == pytest.approx(ref, rel=1e-14, abs=0.0)


def test_cli_runs_without_scipy(tmp_path):
    """numpy and the standard library are the only runtime dependencies."""
    code = f"""
import sys
import rcpolicy, rcpolicy.cli
csv = {str(tmp_path / "d.csv")!r}
assert rcpolicy.cli.main(["simulate", "--dgp", "one_interaction", "--n", "200", "--out", csv,
                          "--oracle", csv + ".oracle.json"]) == 0
assert rcpolicy.cli.main(["subgroups", "--data", csv, "--out", csv + ".sub.json"]) == 0
assert rcpolicy.cli.main(["evaluate", "--data", csv, "--kappa-grid", "0:1:0.5",
                          "--ci-level", "0.9", "--folds", "2", "--g-known", "0.5",
                          "--outcome-library", "mean", "--blip-library", "mean",
                          "--out", csv + ".eval.json"]) == 0
loaded = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
assert not loaded, loaded
"""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    env.pop("RC_POLICY_SEED", None)
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_icer_curve_result_holds_no_arrays():
    """The curve keeps per-budget summaries only, never n-length arrays."""
    from dataclasses import fields, is_dataclass

    from rcpolicy import Dataset, PipelineConfig, generate, icer_curve

    def arrays(obj):
        if isinstance(obj, np.ndarray):
            return 1
        if is_dataclass(obj):
            return sum(arrays(getattr(obj, f.name)) for f in fields(obj))
        if isinstance(obj, (tuple, list)):
            return sum(arrays(v) for v in obj)
        if isinstance(obj, dict):
            return sum(arrays(v) for v in obj.values())
        return 0

    ds = generate(adaptr_like(seed=2), 300)
    cfg = PipelineConfig(folds=2, g_known=0.5, outcome_library=("mean",), blip_library=("mean",))
    for c in (ds.c, np.full(ds.n, 3.0)):  # varying and constant costs
        with_c = Dataset(w=ds.w, a=ds.a, y=ds.y, covariate_names=ds.covariate_names, c=c)
        curve = icer_curve(with_c, (0.3, 1.0), "treat_none", cfg)
        assert len(curve.estimates) == 2
        assert arrays(curve) == 0


def test_every_exported_name_resolves():
    import importlib
    import pkgutil

    import rcpolicy

    modules = [rcpolicy] + [importlib.import_module(f"rcpolicy.{m.name}")
                            for m in pkgutil.iter_modules(rcpolicy.__path__)]
    exporting = [mod for mod in modules if hasattr(mod, "__all__")]
    assert len(exporting) >= 9
    for mod in exporting:
        missing = [name for name in mod.__all__ if not hasattr(mod, name)]
        assert not missing, (mod.__name__, missing)


def test_version_and_help_exit_0(capsys):
    assert main(["--version"]) == 0
    assert "rcpolicy" in capsys.readouterr().out
    assert main(["--help"]) == 0
    assert "COMMAND" in capsys.readouterr().out


def test_config_file_columns_and_flag_override(workdir, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "data": workdir["csv"],
        "kappa": "0.3",
        "folds": 3,
        "g_known": 0.5,
        "outcome_library": "mean",
        "blip_library": "mean,glm",
        "seed": 5,
    }))
    assert main(["fit-rule", "--config", str(cfg)]) == 0
    base = json.loads(capsys.readouterr().out)
    assert base["kappa"] == 0.3
    # explicit flag wins over the JSON value
    assert main(["fit-rule", "--config", str(cfg), "--kappa", "0.6"]) == 0
    over = json.loads(capsys.readouterr().out)
    assert over["kappa"] == 0.6
    assert over["audit"]["config"]["folds"] == 3


def test_renamed_columns_via_config(tmp_path, capsys):
    src = tmp_path / "renamed.csv"
    rng = np.random.default_rng(4)
    w = rng.integers(0, 2, 120)
    arm = rng.integers(0, 2, 120)
    resp = rng.integers(0, 2, 120)
    rows = ["x1,arm,resp"] + [f"{w[i]},{arm[i]},{resp[i]}" for i in range(120)]
    src.write_text("\n".join(rows) + "\n")
    cfg = tmp_path / "cols.json"
    cfg.write_text(json.dumps({"treatment_col": "arm", "outcome_col": "resp"}))
    assert main(["subgroups", "--data", str(src), "--config", str(cfg)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert [r["covariate"] for r in doc["results"]] == ["x1"]


def test_bounded_outcome_flags(tmp_path, capsys):
    src = tmp_path / "bounded.csv"
    rng = np.random.default_rng(11)
    w = rng.integers(0, 2, 200)
    arm = rng.integers(0, 2, 200)
    y = 2.0 + 4.0 * rng.random(200)
    rows = ["w1,a,y"] + [f"{w[i]},{arm[i]},{float(y[i])!r}" for i in range(200)]
    src.write_text("\n".join(rows) + "\n")
    assert main(["evaluate", "--data", str(src), "--kappa-grid", "0:1:0.5",
                 "--outcome-kind", "bounded_real", "--y-bounds", "2:6",
                 "--folds", "2", "--g-known", "0.5",
                 "--outcome-library", "mean", "--blip-library", "mean"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["audit"]["config"]["outcome_kind"] == "bounded_real"
    for e in doc["grid"]:
        assert 2.0 <= e["psi"] <= 6.0
    assert main(["evaluate", "--data", str(src), "--kappa-grid", "0:1:0.5",
                 "--y-bounds", "6:2", "--folds", "2", "--g-known", "0.5",
                 "--outcome-library", "mean", "--blip-library", "mean"]) == 1
    assert "upper bound" in capsys.readouterr().err


# --- one settings namespace ------------------------------------------------------

_DATA_KEYS = {"data", "treatment_col", "outcome_col", "cost_col", "covariate_cols",
              "outcome_kind", "y_bounds"}
_COMMAND_KEYS = {
    "simulate": {"dgp", "n", "out", "oracle", "kappa_grid", "unit_cost", "cost_noise_sd",
                 "no_cost"},
    "fit-rule": {"kappa", "out", "save_model", "assignments", *_DATA_KEYS},
    "evaluate": {"kappa_grid", "out", *_DATA_KEYS},
    "msm": {"kappa_grid", "out", "plot_out", *_DATA_KEYS},
    "icer": {"kappa_grid", "comparator", "out", "plane_out", *_DATA_KEYS},
    "subgroups": {"alpha", "max_levels", "out", *_DATA_KEYS},
    "plot-data": {"what", "results", "model", "out"},
}


def test_every_subcommand_flag_defaults_to_none():
    # a non-None argparse default would hide the JSON value of that key
    parser = build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    assert set(sub.choices) == set(_COMMAND_KEYS)
    for name, p in sub.choices.items():
        for action in p._actions:
            if action.dest != "help":
                assert action.default is None, (name, action.dest)


@pytest.mark.parametrize("command", sorted(_COMMAND_KEYS))
def test_config_keys_accepted_per_command(tmp_path, command):
    cfg = tmp_path / "cfg.json"
    accepted = set()
    # a nested `columns` object is unknown too: the flags' keys name data columns
    for key in set().union(*_COMMAND_KEYS.values(), {"no_such_key", "threads", "columns"}):
        cfg.write_text(json.dumps({key: None}))
        args = build_parser().parse_args([command, "--config", str(cfg)])
        try:
            _resolve_config(args)
        except CliError as exc:
            assert f"unknown key {key!r}" in str(exc)
        else:
            accepted.add(key)
    assert accepted == _COMMAND_KEYS[command]
    for key, val in PipelineConfig().to_dict().items():
        cfg.write_text(json.dumps({key: val}))
        _resolve_config(build_parser().parse_args([command, "--config", str(cfg)]))


def _simulate_kappas(workdir, tmp_path, capsys, extra):
    orc = tmp_path / "orc.json"
    assert main(["simulate", "--dgp", "adaptr_like", "--n", "50", "--out",
                 str(tmp_path / "s.csv"), "--oracle", str(orc), *extra]) == 0
    return [row["kappa"] for row in _load(orc)["grid"]]


def _msm_plot_files(workdir, tmp_path, capsys, extra):
    assert main(["msm", "--data", workdir["csv"], "--kappa-grid", "0:1:0.5",
                 "--bootstrap", "2", "--out", str(tmp_path / "m.json"), *LEAN_FLAGS, *extra]) == 0
    return sorted(f for f in os.listdir(tmp_path) if f.endswith(".csv"))


def _icer_comparator(workdir, tmp_path, capsys, extra):
    assert main(["icer", "--data", workdir["csv"], "--kappa-grid", "0.5:1:0.5",
                 *LEAN_FLAGS, *extra]) == 0
    return json.loads(capsys.readouterr().out)["comparator"]


def _subgroups_alpha(workdir, tmp_path, capsys, extra):
    assert main(["subgroups", "--data", workdir["csv"], *extra]) == 0
    return json.loads(capsys.readouterr().out)["alpha"]


@pytest.mark.parametrize("key, json_value, flag, run, from_json, from_flag, fallback", [
    ("kappa_grid", "0:1:0.5", ["--kappa-grid", "0:1:0.25"], _simulate_kappas,
     [0.0, 0.5, 1.0], [0.0, 0.25, 0.5, 0.75, 1.0], parse_kappa_grid("0:1:0.1")),
    ("plot_out", "json.csv", ["--plot-out", "flag.csv"], _msm_plot_files,
     ["json.csv"], ["flag.csv"], []),
    ("comparator", "treat-all", ["--comparator", "treat-none"], _icer_comparator,
     "treat_all", "treat_none", "treat_none"),
    ("alpha", 0.2, ["--alpha", "0.3"], _subgroups_alpha, 0.2, 0.3, 0.1),
])
def test_command_key_json_under_flag_over_default(workdir, tmp_path, capsys, monkeypatch,
                                                   key, json_value, flag, run, from_json,
                                                   from_flag, fallback):
    monkeypatch.chdir(tmp_path)  # relative output paths land in tmp_path
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({key: json_value}))
    for extra, expected in ((["--config", str(cfg)], from_json),
                            (["--config", str(cfg), *flag], from_flag),
                            ([], fallback)):
        for f in tmp_path.glob("*.csv*"):
            f.unlink()
        assert run(workdir, tmp_path, capsys, extra) == expected


# --- flags only where a command reads them ---------------------------------------

_MODEL_DESTS = {"folds", "g_known", "g_estimate", "g_min", "outcome_library", "blip_library"}
# PipelineConfig fields each command takes as flags; the rest load from --config only
_CONFIG_FLAG_DESTS = {
    "simulate": {"seed"},
    "fit-rule": {"seed", *_MODEL_DESTS},
    "evaluate": {"seed", "ci_level", *_MODEL_DESTS},
    "msm": {"seed", "ci_level", "bootstrap_replicates", "bootstrap_mode", *_MODEL_DESTS},
    "icer": {"seed", "ci_level", "effect_units", "epsilon_den", *_MODEL_DESTS},
    "subgroups": set(),
    "plot-data": set(),
}


def test_config_field_flags_per_command():
    parser = build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    assert set(sub.choices) == set(_CONFIG_FLAG_DESTS)
    for name, p in sub.choices.items():
        dests = {a.dest for a in p._actions} & PipelineConfig.field_names()
        assert dests == _CONFIG_FLAG_DESTS[name], name


_UNREAD_FLAGS = [["--folds", "3"], ["--g-known", "0.3"], ["--g-estimate"], ["--g-min", "0.2"],
                 ["--outcome-library", "mean"], ["--blip-library", "mean"], ["--ci-level", "0.5"]]


@pytest.mark.parametrize("command, flag", [
    *(("simulate", f) for f in _UNREAD_FLAGS),
    *(("subgroups", f) for f in [*_UNREAD_FLAGS, ["--seed", "5"]]),
    ("fit-rule", ["--ci-level", "0.5"]),
], ids=lambda v: v if isinstance(v, str) else v[0])
def test_a_flag_the_command_does_not_read_exits_1(workdir, tmp_path, capsys, command, flag):
    out = tmp_path / "out"
    argv = {
        "simulate": ["--dgp", "null_effect", "--n", "20"],
        "subgroups": ["--data", workdir["csv"]],
        "fit-rule": ["--data", workdir["csv"], "--kappa", "0.5", *LEAN_FLAGS],
    }[command]
    assert main([command, *argv, "--out", str(out), *flag]) == 1
    assert f"unrecognized arguments: {flag[0]}" in capsys.readouterr().err
    assert not out.exists()


def test_a_shared_config_with_model_keys_still_loads(workdir, tmp_path, capsys):
    """The keys behind the unread flags load from JSON and change nothing
    but the audit block."""
    shared = {"folds": 3, "g_known": 0.3, "g_estimate": True, "g_min": 0.2,
              "outcome_library": "mean", "blip_library": "mean", "ci_level": 0.5}
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(shared))
    plain, loaded = tmp_path / "plain.csv", tmp_path / "loaded.csv"
    assert main(["simulate", "--dgp", "adaptr_like", "--n", "50", "--out", str(plain)]) == 0
    assert main(["simulate", "--dgp", "adaptr_like", "--n", "50", "--out", str(loaded),
                 "--config", str(cfg)]) == 0
    assert loaded.read_bytes() == plain.read_bytes()

    def run(argv):
        assert main(argv) == 0
        doc = json.loads(capsys.readouterr().out)
        return doc.pop("audit")["config"], doc

    sub_argv = ["subgroups", "--data", workdir["csv"]]
    _, bare = run(sub_argv)
    audit, with_cfg = run([*sub_argv, "--config", str(cfg)])
    assert with_cfg == bare
    assert {key: audit[key] for key in shared} == {**shared, "outcome_library": ["mean"],
                                                   "blip_library": ["mean"]}

    rule_argv = ["fit-rule", "--data", workdir["csv"], "--kappa", "0.5", "--config", str(cfg)]
    _, at_half = run(rule_argv)
    cfg.write_text(json.dumps({**shared, "ci_level": 0.95}))
    _, at_default = run(rule_argv)
    assert at_half == at_default
