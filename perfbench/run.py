"""rcpolicy benchmark: closed-loop CLI workloads, output checks, traced layers.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload icer-continuous-4k --seed 7 --seconds 60 --trace 0

Each workload generates DATASETS CSVs from --seed (dgp.generate +
data.write_csv) before any timing, then repeats one closed-loop client: a
fresh interpreter (perfbench/worker.py) imports rcpolicy.cli and makes one
`cli.main(argv)` call on the next dataset in turn; the next call starts
when it has exited. BLAS is pinned to one thread. Every call's output JSON
is checked against the generator's exact oracle and must be byte-identical
to the first output for the same dataset.

--trace 0 prints the end-to-end metrics (medians over the calls).
--trace 1 alternates untraced and traced calls and prints the per-layer
metrics of the traced calls (spans recorded by perfbench/spans.py).
--workload all runs every workload both ways. --size tiny shrinks every
workload to a few seconds for the benchmark's own tests.

The last stdout line is one JSON object: correct, attempted, failed,
metrics. Lines before it are a readable table and an environment record.
Workload and metric definitions are documented in perfbench/README.md.
"""
from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import hashlib
import itertools
import json
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
WORKER = HERE / "worker.py"

BLAS_THREADS = "1"
CALL_TIMEOUT_S = 170.0
# Chance that a correct output fails its check. Each check compares k
# estimates with the oracle; the |estimate - oracle| / se limit is the
# two-sided Bonferroni bound for k (about 3.7 for the 4 msm coefficients).
FAMILY_ALPHA = 1e-3
ICER_MIN_KAPPA = 0.1  # "stable" budgets: the rule treats at least 10%
# A run's calls rotate over this many data draws, so that how much stepwise
# and IRLS work one draw happens to need does not set the run's median.
DATASETS = 3

# name -> generator, sizes and CLI arguments (--data, --seed, --out are added)
WORKLOADS = {
    "icer-continuous-4k": {
        "dgp": "continuous_blip",
        "n": {"full": 4000, "tiny": 400},
        "argv": ["icer", "--kappa-grid", "0.01:1:0.01", "--comparator", "treat-none",
                 "--g-known", "0.5"],
    },
    "msm-refit-lean-1k": {
        "dgp": "constant_blip",
        "n": {"full": 1000, "tiny": 300},
        "replicates": {"full": 160, "tiny": 40},
        "argv": ["msm", "--kappa-grid", "0:1:0.25", "--g-known", "0.5", "--config", "CONFIG",
                 "--mode", "refit"],
        # the acceptance tests' LEAN settings
        "config": {"outcome_library": ["mean", "glm"], "blip_library": ["mean", "glm"],
                   "folds": 3},
    },
}

END_TO_END_UNITS = {"e2e_ref": "ratio", "setup_s": "s", "peak_rss_mb": "MB"}


class BenchError(Exception):
    """The benchmark cannot run here (no sources, import failure, ...)."""


def _import_rcpolicy():
    if not (SRC / "rcpolicy" / "cli.py").is_file():
        raise BenchError(f"no rcpolicy sources under {SRC}; run from a source checkout")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import rcpolicy

    if Path(rcpolicy.__file__).resolve().parent != (SRC / "rcpolicy").resolve():
        raise BenchError(f"imported rcpolicy from {rcpolicy.__file__}, not from {SRC}")
    return rcpolicy


def _spec(workload: str, seed: int):
    from rcpolicy import dgp

    kind = WORKLOADS[workload]["dgp"]
    if kind == "continuous_blip":
        return dgp.continuous_blip(seed=seed, with_cost=True)
    return dgp.constant_blip(0.1, 0.4, seed=seed)


def prepare(workload: str, seed: int, size: str, workdir: Path) -> dict:
    """Write the workload's CSV (and config) into workdir; return the call plan."""
    rcpolicy = _import_rcpolicy()
    wl = WORKLOADS[workload]
    workdir.mkdir(parents=True, exist_ok=True)
    n = wl["n"][size]
    t0 = time.perf_counter()
    ds = rcpolicy.generate(_spec(workload, seed), n)
    generate_s = time.perf_counter() - t0
    data = f"{workload}.csv"
    rcpolicy.write_csv(ds, workdir / data)
    out = f"{workload}.out.json"
    argv = [*wl["argv"], "--data", data, "--seed", str(seed), "--out", out]
    sizes = {"n": n, "kappas": len(_kappas(argv))}
    if "config" in wl:
        (workdir / "lean.json").write_text(json.dumps(wl["config"]))
        argv[argv.index("CONFIG")] = "lean.json"
        reps = wl["replicates"][size]
        argv += ["--bootstrap", str(reps)]
        sizes["replicates"] = reps
    return {"workload": workload, "seed": seed, "size": size, "workdir": workdir,
            "argv": argv, "out": out, "sizes": sizes, "generate_s": generate_s}


def prepare_all(workload: str, seed: int, size: str) -> list[dict]:
    """One plan per data draw; the draws' seeds follow from --seed alone."""
    return [prepare(workload, seed * DATASETS + j, size, WORK / workload / f"d{j}")
            for j in range(DATASETS)]


def _kappas(argv: list[str]) -> list[float]:
    from rcpolicy.cli import parse_kappa_grid

    return parse_kappa_grid(argv[argv.index("--kappa-grid") + 1])


# ---------------------------------------------------------------------------
# output checks


def _z_limit(k: int) -> float:
    return statistics.NormalDist().inv_cdf(1.0 - FAMILY_ALPHA / (2 * k))


def _max_z(pairs: list) -> tuple[float, float]:
    """Largest |estimate - reference| / se, and the limit for that many pairs."""
    return max(abs(est - ref) / se for est, ref, se in pairs), _z_limit(len(pairs))


def check_output(plan: dict, text: str) -> list[str]:
    """Problems with one call's output JSON; empty when it is correct."""
    import numpy
    from rcpolicy import dgp

    workload, seed = plan["workload"], plan["seed"]
    try:
        out = json.loads(text)
    except json.JSONDecodeError as exc:
        return [f"output is not JSON: {exc}"]
    kappas = _kappas(plan["argv"])
    truth = dgp.oracle(_spec(workload, seed), kappas)
    try:
        if workload.startswith("icer"):
            rows = out["rows"]
            if len(rows) != len(kappas):
                return [f"{len(rows)} ICER rows for {len(kappas)} budgets"]
            ref = truth.cost_vs_none / (100.0 * truth.effect_vs_none)
            stable = [(r["icer"], ref[i], r["se"]) for i, r in enumerate(rows)
                      if kappas[i] >= ICER_MIN_KAPPA - 1e-12 and not r["unstable"]]
            if not stable:
                return ["no stable ICER budget to check"]
            z, limit = _max_z(stable)
            label = "max |ICER - oracle| / se"
        else:
            b1, b0 = (float(c) for c in numpy.polyfit(kappas, truth.values, 1))
            oracle_fit = {"beta0": b0, "beta1": b1,
                          "contrast0": b0 - truth.ey0, "contrast1": b1 - truth.ate}
            est = {"beta0": out["beta0"], "beta1": out["beta1"], **out["contrasts"]}
            ci = out["ci"]
            z, limit = _max_z([(est[k], oracle_fit[k], (ci[k][1] - ci[k][0]) / 2.0 / 1.96)
                               for k in oracle_fit])
            label = "max |coef - oracle| / boot se"
    except (KeyError, TypeError, IndexError, ZeroDivisionError) as exc:
        return [f"output lacks a checked field: {exc!r}"]
    plan.setdefault("check_z", []).append(z)
    return [] if z <= limit else [f"{label} = {z:.3f} > {limit:.3f}"]


# ---------------------------------------------------------------------------
# calls


def _worker_env(workdir: Path) -> dict:
    env = dict(os.environ)
    env.pop("RC_POLICY_SEED", None)
    env.update({
        "PYTHONPATH": str(SRC),
        "OPENBLAS_NUM_THREADS": BLAS_THREADS,
        "OMP_NUM_THREADS": BLAS_THREADS,
        "MKL_NUM_THREADS": BLAS_THREADS,
        "TMPDIR": str(workdir),
    })
    return env


def call_once(plan: dict, trace: bool) -> dict:
    """One fresh-process CLI call; returns timings plus pass/fail and problems."""
    workdir = plan["workdir"]
    out_path = workdir / plan["out"]
    result_path = workdir / "worker-result.json"
    for p in (out_path, result_path):
        p.unlink(missing_ok=True)
    wall0 = time.perf_counter()
    cmd = [sys.executable, str(WORKER), repr(time.monotonic()), str(result_path),
           "1" if trace else "0", *plan["argv"]]
    try:
        proc = subprocess.run(cmd, cwd=workdir, env=_worker_env(workdir), capture_output=True,
                              text=True, timeout=CALL_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"ok": False, "trace": trace, "wall_s": time.perf_counter() - wall0,
                "problems": [f"call exceeded {CALL_TIMEOUT_S} s"]}
    wall_s = time.perf_counter() - wall0
    if proc.returncode != 0 or not result_path.is_file():
        tail = (proc.stderr or proc.stdout).strip().splitlines()[-3:]
        return {"ok": False, "trace": trace, "wall_s": wall_s,
                "problems": [f"worker exited {proc.returncode}: {' | '.join(tail)}"]}
    res = json.loads(result_path.read_text())
    res.update(trace=trace, wall_s=wall_s, problems=[], e2e_ref=res["e2e_s"] / res["probe_s"])
    if Path(res["rcpolicy_file"]).resolve().parent != (SRC / "rcpolicy").resolve():
        raise BenchError(f"worker imported rcpolicy from {res['rcpolicy_file']}")
    if res["rc"] != 0:
        tail = proc.stderr.strip().splitlines()[-1:] if proc.stderr else []
        res["problems"].append(f"rcpolicy exited {res['rc']}: {' | '.join(tail)}")
    elif not out_path.is_file():
        res["problems"].append("no output file written")
    else:
        raw = out_path.read_bytes()
        res["sha256"] = hashlib.sha256(raw).hexdigest()
        res["problems"] += judge(plan, raw)
    res["ok"] = not res["problems"]
    return res


def judge(plan: dict, raw: bytes) -> list[str]:
    """Output checks plus byte-identity with the plan's first output."""
    problems = []
    digest = hashlib.sha256(raw).hexdigest()
    if digest != plan.setdefault("reference_sha256", digest):
        problems.append("output bytes differ from the first call's")
    return problems + check_output(plan, raw.decode("utf-8", errors="replace"))


def run_calls(plans: list[dict], seconds: float, trace: bool) -> list[dict]:
    """Closed loop for `seconds`: untraced calls, or untraced/traced pairs.

    Each round takes the next plan in turn. A round starts only when it is
    expected to end within `seconds`, so a slow machine makes fewer calls
    rather than a longer run; the first round always runs.
    """
    calls: list[dict] = []
    start = time.perf_counter()
    pattern = (False, True) if trace else (False,)
    for rnd in itertools.count():
        plan = plans[rnd % len(plans)]
        for traced in pattern:
            calls.append(call_once(plan, traced))
        walls = [c["wall_s"] for c in calls]
        per_round = statistics.median(walls) * len(pattern)
        if time.perf_counter() - start + per_round > seconds:
            return calls


# ---------------------------------------------------------------------------
# metrics and reporting


def _median(calls: list[dict], key: str) -> float:
    vals = [c[key] for c in calls if key in c]
    return statistics.median(vals) if vals else float("nan")


def end_to_end_metrics(calls: list[dict]) -> dict:
    plain = [c for c in calls if not c["trace"] and "e2e_s" in c]
    return {name: {"value": _median(plain, name), "unit": unit}
            for name, unit in END_TO_END_UNITS.items()}


def per_layer_metrics(plan: dict, calls: list[dict]) -> dict:
    traced = [c for c in calls if c["trace"] and "layers" in c]
    plain = [c for c in calls if not c["trace"] and "e2e_s" in c]
    names = traced[0]["layers"].keys() if traced else ()
    layers = {k: statistics.median(c["layers"][k] for c in traced) for k in names}
    e2e_plain = _median(plain, "e2e_s")
    e2e_traced = _median(traced, "e2e_s")
    layers["trace.overhead_frac"] = e2e_traced / e2e_plain - 1.0
    layers["e2e_s"] = e2e_plain
    layers["probe_s"] = _median(plain, "probe_s")
    reps = plan["sizes"].get("replicates", 0)
    layers["replicates_per_s"] = reps / e2e_plain if reps else 0.0
    layers["dgp.generate_s"] = plan["generate_s"]
    return {k: {"value": v, "unit": layer_unit(k)} for k, v in sorted(layers.items())}


def layer_unit(name: str) -> str:
    if name == "replicates_per_s":
        return "1/s"
    if name.endswith(("_s", ".p50", ".p90")):
        return "s"
    if name.endswith("_frac"):
        return "ratio"
    return "count"


def environment(seed: int, plans: list[dict], calls: list[dict]) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": BLAS_THREADS,
        "git_commit": _git_commit(),
        "seed": seed,
        "data_seeds": [p["seed"] for p in plans],
        "workload": plans[0]["workload"],
        "size": plans[0]["size"],
        "sizes": plans[0]["sizes"],
        "argv": [p["argv"] for p in plans],
        "output_sha256": [p.get("reference_sha256") for p in plans],
        "calls": [{k: c[k] for k in ("trace", "ok", "setup_s", "e2e_s", "probe_s", "probe_n",
                                     "peak_rss_mb") if k in c}
                  for c in calls],
        "check_z_max": max((z for p in plans for z in p.get("check_z", [])), default=None),
    }


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def run_workload(workload: str, seed: int, seconds: float, trace: bool, size: str) -> dict:
    plans = prepare_all(workload, seed, size)
    calls = run_calls(plans, seconds, trace)
    have_plain = any(not c["trace"] and "e2e_s" in c for c in calls)
    have_traced = any(c["trace"] and "layers" in c for c in calls)
    if not have_plain or (trace and not have_traced):
        problems = sorted({p for c in calls for p in c["problems"]})
        raise BenchError(f"{workload}: no call completed: {problems}")
    summary = {"sizes": plans[0]["sizes"],
               "generate_s": statistics.median(p["generate_s"] for p in plans)}
    metrics = per_layer_metrics(summary, calls) if trace else end_to_end_metrics(calls)
    failed = sum(not c["ok"] for c in calls)
    print(f"# {workload} seed={seed} trace={int(trace)} calls={len(calls)} failed={failed}")
    for c in calls:
        for p in c["problems"]:
            print(f"#   FAILED: {p}")
    for name, m in metrics.items():
        print(f"{workload:24s} {name:44s} {m['value']:14.6g} {m['unit']}")
    print(f"{workload:24s} {'ops_failed_frac':44s} {failed / len(calls):14.6g} ratio")
    print(json.dumps({"env": environment(seed, plans, calls)}))
    return {"correct": failed == 0, "attempted": len(calls), "failed": failed,
            "metrics": metrics}


def main(argv=None) -> int:
    # SIGTERM unwinds like Ctrl-C, so subprocess.run kills and reaps the worker
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--seconds", type=float, default=60.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full")
    args = ap.parse_args(argv)
    try:
        if args.workload != "all":
            result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace),
                                  args.size)
        else:
            result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
            for workload in WORKLOADS:
                for trace in (False, True):
                    one = run_workload(workload, args.seed, args.seconds, trace, args.size)
                    result["correct"] &= one["correct"]
                    result["attempted"] += one["attempted"]
                    result["failed"] += one["failed"]
                    result["metrics"].update(
                        {f"{workload}/{k}": v for k, v in one["metrics"].items()})
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
