"""Tests of the benchmark itself, on tiny workloads (seconds, not minutes).

Run with: PYTHONPATH=src python3 -m pytest -q perfbench
"""
import importlib.util
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
_spec = importlib.util.spec_from_file_location("perfbench_run", HERE / "run.py")
run = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(run)

SEED = 7
WL = {name.split("-")[0]: name for name in run.WORKLOADS}  # icer, msm


@pytest.fixture(scope="module")
def tiny(tmp_path_factory):
    """One untraced and one traced call per workload, with the output bytes."""
    out = {}
    for workload in run.WORKLOADS:
        plan = run.prepare(workload, SEED, "tiny", tmp_path_factory.mktemp(workload))
        plain = run.call_once(plan, trace=False)
        raw = (plan["workdir"] / plan["out"]).read_bytes()
        traced = run.call_once(plan, trace=True)
        out[workload] = (plan, plain, traced, raw)
    return out


@pytest.mark.parametrize("workload", list(run.WORKLOADS))
def test_tiny_workload_passes_checks_traced_and_untraced(tiny, workload):
    plan, plain, traced, _ = tiny[workload]
    assert plain["ok"], plain["problems"]
    assert traced["ok"], traced["problems"]
    assert plain["sha256"] == traced["sha256"]
    assert plain["e2e_s"] > 0 and plain["setup_s"] > 0 and plain["peak_rss_mb"] > 0
    assert plain["e2e_ref"] == plain["e2e_s"] / plain["probe_s"] > 0
    assert plain["probe_n"] > 10
    layers = traced["layers"]
    assert layers["trace.coverage_frac"] >= 0.90
    assert layers["glm.fit_logistic.calls"] > 0
    assert layers["learners.fit_outcome.calls"] > 0
    assert layers["simplex.simplex_lstsq.calls"] > 0


def test_wrappers_reach_every_caller(tiny):
    icer = tiny[WL["icer"]][2]["layers"]
    msm = tiny[WL["msm"]][2]["layers"]
    # tmle.fit_folds through icer's own import, once per side
    assert icer["tmle.fit_folds.calls"] == 2
    # rule.solve_threshold through tmle's import: folds x budgets
    assert icer["rule.solve_threshold.calls"] == 10 * 100
    # glm.fit_logistic through forward_stepwise_aic's module global
    assert icer["glm.forward_stepwise_aic.trials_per_term"] > 1
    # msm's imported evaluate_grid: the point fit plus one per replicate
    reps = tiny[WL["msm"]][0]["sizes"]["replicates"]
    assert msm["tmle.fit_folds.calls"] == reps + 1
    assert msm["msm.replicate_s.p50"] > 0
    assert msm["glm.forward_stepwise_aic.calls"] == 0
    assert msm["data.Dataset.subset.calls"] > reps


def _perturb(workload: str, out: dict) -> None:
    if workload.startswith("icer"):
        row = out["rows"][50]
        row["icer"] += 10 * row["se"]
    else:
        lo, hi = out["ci"]["beta1"]
        out["beta1"] += 10 * (hi - lo)


@pytest.mark.parametrize("workload", list(run.WORKLOADS))
def test_perturbed_estimate_is_a_failed_operation(tiny, workload):
    plan, _, _, raw = tiny[workload]
    assert run.check_output(plan, raw.decode()) == []
    out = json.loads(raw)
    _perturb(workload, out)
    problems = run.check_output(plan, json.dumps(out))
    assert problems and "oracle" in problems[0]


def test_changed_byte_is_a_failed_operation(tiny):
    plan = dict(tiny[WL["icer"]][0])  # holds the first call's digest
    raw = tiny[WL["icer"]][3]
    assert run.judge(plan, raw) == []
    changed = raw[:-1] + b" "  # still valid JSON with the same numbers
    assert run.judge(plan, changed) == ["output bytes differ from the first call's"]


def test_missing_field_is_a_failed_operation(tiny):
    plan, _, _, raw = tiny[WL["icer"]]
    out = json.loads(raw)
    del out["rows"]
    assert run.check_output(plan, json.dumps(out))


def test_refuses_to_run_without_sources(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for f in HERE.glob("*.py"):
        shutil.copy(f, tmp_path / "perfbench" / f.name)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", WL["icer"], "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_benchmark_json_names_what_run_reports(tiny):
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"] for m in spec["end_to_end"]} == set(run.END_TO_END_UNITS)
    plan, plain, traced, _ = tiny[WL["msm"]]
    layers = run.per_layer_metrics(plan, [plain, traced])
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        k: v["unit"] for k, v in layers.items()
    }
