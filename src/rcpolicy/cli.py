"""Command-line front end.

Subcommands: simulate, fit-rule, evaluate, msm, icer, subgroups,
plot-data. Every run resolves a single configuration (defaults, then the
RC_POLICY_SEED environment variable, then a JSON --config overlay, then
explicit flags), echoes it into an audit block on every artifact, and is
byte-reproducible: identical inputs, config, and seed produce identical
files. A command's own keys (`kappa_grid`, `alpha`, `treatment_col`, ...)
follow the same precedence, and a JSON null leaves a key unset. Exit
codes: 0 success, 1 validation error, 2 numerical failure.

Every `_cmd_*` handler maps (args, config) to (context, outputs) and
writes nothing itself, except `simulate`'s dataset CSV. An output is a
JSON `(path, payload)` or a CSV `(path, header, rows)`; `main` writes
them all in one loop, with the audit block built from the context as
the last key of every JSON and in every CSV's `.meta.json`. The first
output goes to stdout when its path is unset; a later one without a
path is skipped. `plot-data` has no context: its sidecar carries the
audit of the artifact it projects.
"""
from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from contextlib import nullcontext
from dataclasses import asdict, replace

import numpy as np

from . import __version__
from .config import PipelineConfig, config_hash, require_int, require_real, split_names
from .data import ColumnSchema, Dataset, ingest_csv, write_csv, write_rows
from .dgp import DGP_KINDS, generate, oracle
from .icer import icer_curve, ratio
from .learners import subgroup_scan
from .msm import msm_with_bootstrap
from .rule import STATIC_ARMS, blip_atoms
from .tmle import assignment_for, contrast_estimates, evaluate_grid, fit_full

__all__ = ["main", "build_parser", "CliError"]

_MAX_KAPPAS = 10_001  # a budget grid's points, 0:1:0.0001 at most

# command keys that fall back to a value when neither JSON nor a flag sets them
_DEFAULTS = {
    "simulate": {"kappa_grid": "0:1:0.1", "no_cost": False},
    "icer": {"comparator": "treat-none"},
    "subgroups": {"alpha": 0.1, "max_levels": 10},
}


class CliError(Exception):
    """Validation problem; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    # raise instead of exiting so main() owns the exit-code mapping
    def error(self, message):
        raise CliError(message)


def _sanitize(obj):
    """JSON-safe copy: numpy scalars unboxed, non-finite floats -> null."""
    if isinstance(obj, dict):
        return {str(k): _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    if isinstance(obj, (np.bool_, bool)):
        return bool(obj)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if isinstance(obj, (np.floating, float)):
        f = float(obj)
        return f if math.isfinite(f) else None
    return obj


def _write_json(payload: dict, path: str | None) -> None:
    text = json.dumps(_sanitize(payload), indent=2, allow_nan=False) + "\n"
    with nullcontext(sys.stdout) if path is None else open(path, "w") as fh:
        fh.write(text)


def _write_outputs(outputs, audit: dict | None) -> None:
    """Write a command's outputs by the rule in the module docstring. A CSV
    output may end in its own sidecar `meta`; the default is the audit."""
    for i, (path, *body) in enumerate(outputs):
        if i and not path:
            continue
        if len(body) == 1:
            _write_json({**body[0], "audit": audit}, path)
            continue
        header, rows, *meta = body
        with nullcontext(sys.stdout) if path is None else open(path, "w", newline="") as fh:
            write_rows(fh, header, rows)
        if path is not None:
            _write_json(meta[0] if meta else {"audit": audit}, path + ".meta.json")


def parse_kappa_grid(text: str) -> list[float]:
    """Inclusive start:end:step grid of at most `_MAX_KAPPAS` points; the
    step must divide the range."""
    parts = text.split(":")
    if len(parts) != 3:
        raise CliError(f"--kappa-grid expects start:end:step, got {text!r}")
    try:
        start, end, step = (float(p) for p in parts)
    except ValueError:
        raise CliError(f"--kappa-grid has a non-numeric part: {text!r}") from None
    if not all(map(math.isfinite, (start, end, step))):
        raise CliError(f"--kappa-grid has a non-finite part: {text!r}")
    if step <= 0:
        raise CliError("--kappa-grid step must be positive")
    if end < start:
        raise CliError("--kappa-grid end must be >= start")
    count = (end - start) / step
    if count >= _MAX_KAPPAS - 0.5:  # before any list is built; a tiny step gives inf
        raise CliError(f"--kappa-grid {text!r} has more than {_MAX_KAPPAS} points")
    m = round(count)
    if abs(count - m) > 1e-9:
        raise CliError(f"--kappa-grid step {step:g} does not divide the range [{start:g}, {end:g}]")
    grid = [round(start + i * step, 10) for i in range(int(m) + 1)]
    for k in grid:
        if not 0.0 <= k <= 1.0:
            raise CliError(f"kappa {k:g} outside [0, 1]")
    return grid


def _parse_kappa_arg(text: str) -> tuple[list[float], bool]:
    """A single kappa or a start:end:step grid. Returns (values, is_single)."""
    if ":" not in text:
        try:
            k = float(text)
        except ValueError:
            raise CliError(f"--kappa expects a number or start:end:step, got {text!r}") from None
        if not 0.0 <= k <= 1.0:
            raise CliError(f"kappa {k:g} outside [0, 1]")
        return [k], True
    return parse_kappa_grid(text), False


def _read_json(path: str, flag: str):
    """The JSON document at `path`, named by option `--flag`."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise CliError(f"--{flag} {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise CliError(f"--{flag} {path}: invalid JSON ({exc})") from None


def _resolve_config(args) -> PipelineConfig:
    """Defaults < RC_POLICY_SEED < JSON --config < explicit flags.

    PipelineConfig fields resolve into the returned config. Every other
    key a command accepts (its own flags' dests) is written onto `args`
    where the flag was not given, and then _DEFAULTS fills what is still
    unset, so handlers read one namespace. A JSON null leaves a command
    key unset.
    """
    base: dict = {}
    env_seed = os.environ.get("RC_POLICY_SEED")
    if env_seed is not None:
        try:
            base["seed"] = int(env_seed)
        except ValueError:
            raise CliError(f"RC_POLICY_SEED must be an integer, got {env_seed!r}") from None
    config_path = getattr(args, "config", None)
    if config_path:
        loaded = _read_json(config_path, "config")
        if not isinstance(loaded, dict):
            raise CliError(f"--config {config_path}: top level must be a JSON object")
        command_keys = set(vars(args)) - {"command", "func", "config"}
        for key, val in loaded.items():
            if key in PipelineConfig.field_names():
                base[key] = val
            elif key not in command_keys:
                raise CliError(f"--config {config_path}: unknown key {key!r}")
            elif getattr(args, key, None) is None:
                setattr(args, key, val)
    for key, val in _DEFAULTS.get(args.command, {}).items():
        if getattr(args, key) is None:
            setattr(args, key, val)
    for field in PipelineConfig.field_names():
        val = getattr(args, field, None)
        if val is not None:
            base[field] = val
    try:
        return PipelineConfig.from_dict(base)
    except (ValueError, TypeError) as exc:
        raise CliError(str(exc)) from None


def _required(value, flag: str):
    if value is None:
        raise CliError(f"--{flag} is required")
    return value


def _audit(cfg: PipelineConfig, context: dict) -> dict:
    resolved = cfg.to_dict()
    resolved.update(_sanitize(context))
    return {
        "config": resolved,
        "config_hash": config_hash(_sanitize(resolved)),
        "seed": cfg.seed,
        "version": __version__,
    }


def _read_header(path: str) -> list[str]:
    try:
        with open(path, newline="") as fh:
            row = next(csv.reader(fh), None)
    except OSError as exc:
        raise CliError(f"--data {path}: {exc}") from None
    if not row:
        raise CliError(f"--data {path}: empty file")
    return row


def _parse_bounds(value) -> tuple[float, float]:
    """lo:hi text, or a JSON [lo, hi] list, with lo < hi."""
    parts = value if isinstance(value, (list, tuple)) else str(value).split(":")
    if len(parts) != 2:
        raise CliError(f"--y-bounds expects lo:hi, got {value!r}")
    try:
        lo, hi = float(parts[0]), float(parts[1])
    except (TypeError, ValueError):
        raise CliError(f"--y-bounds has a non-numeric part: {value!r}") from None
    if hi <= lo:
        raise CliError("--y-bounds upper bound must exceed the lower bound")
    return lo, hi


def _load_dataset(args, need_cost: bool = False) -> tuple[Dataset, dict]:
    """The --data CSV and the audit context that names it."""
    path = _required(args.data or None, "data")  # an empty path counts as unset
    treatment = args.treatment_col or "a"
    outcome = args.outcome_col or "y"
    cost = args.cost_col
    covs = args.covariate_cols
    if covs is not None:
        covs = split_names(covs)
    header = _read_header(path) if cost is None or covs is None else []
    if cost is None and "c" in header and (covs is None or "c" not in covs):
        cost = "c"  # package CSV convention, like the a/y defaults
    if need_cost and cost is None:
        raise CliError("this command needs a cost column; pass --cost-col")
    if covs is None:
        special = {treatment, outcome} | ({cost} if cost else set())
        covs = tuple(c for c in header if c not in special)
        if not covs:
            raise CliError(f"--data {path}: no covariate columns left after {sorted(special)}")
    kind = args.outcome_kind
    if kind in (None, "auto"):
        kind = None
    elif kind not in ("binary", "bounded_real"):
        raise CliError(f"--outcome-kind must be auto, binary, or bounded_real, got {kind!r}")
    bounds = None if args.y_bounds is None else _parse_bounds(args.y_bounds)
    schema = ColumnSchema(
        treatment=treatment,
        outcome=outcome,
        covariates=covs,
        cost=cost,
        outcome_kind=kind,
        y_bounds=bounds,
    )
    ds = ingest_csv(path, schema)
    context = {
        "command": args.command,
        "data": path,
        "n": ds.n,
        "covariates": list(ds.covariate_names),
        "outcome_kind": ds.outcome_kind,
    }
    return ds, context


def _grid_setup(args, need_cost: bool = False):
    """Required --kappa-grid, dataset and audit context of a grid command.

    Returns (kappas, ds, context); context already holds the grid.
    """
    kappas = parse_kappa_grid(str(_required(args.kappa_grid, "kappa-grid")))
    ds, context = _load_dataset(args, need_cost)
    context["kappa_grid"] = kappas
    return kappas, ds, context


# ---------------------------------------------------------------------------
# subcommands


_PLOT_SPECS = {
    # what -> (source flag, key in the source JSON, columns to project)
    "value-curve": ("results", "grid", ["kappa", "psi", "ci_lo", "ci_hi", "tau", "pct_treated"]),
    "msm": ("results", "plot_rows", ["kappa", "value", "fitted", "chord"]),
    "blip-hist": ("model", "blip_atoms", ["blip_value", "count"]),
    "ce-plane": ("results", "plane", None),  # columns depend on the effect units
}


def _project(what: str, records: list[dict]) -> tuple[list[str], list[list]]:
    """The columns and rows of plot view `what` over a section's records."""
    columns = _PLOT_SPECS[what][2]
    if columns is None:  # ce-plane: the denominator's name carries its units
        first = records[0] if records else {}
        columns = ["denominator_pp" if "denominator_pp" in first else "denominator",
                   "numerator", "kappa"]
    return columns, [[rec.get(col) for col in columns] for rec in records]


def _cmd_simulate(args, cfg: PipelineConfig):
    kind = args.dgp
    if kind not in DGP_KINDS:
        raise CliError(f"--dgp must be one of {', '.join(DGP_KINDS)}")
    n = require_int("n", _required(args.n, "n"))
    out = _required(args.out or None, "out")  # an empty path counts as unset
    if not isinstance(args.no_cost, bool):
        raise CliError(f"no_cost must be true or false, got {args.no_cost!r}")
    with_cost = not args.no_cost
    grid = parse_kappa_grid(str(args.kappa_grid))
    spec = DGP_KINDS[kind](seed=cfg.seed, with_cost=with_cost)
    if args.unit_cost is not None:
        spec = replace(spec, unit_cost=require_real("unit_cost", args.unit_cost))
    if args.cost_noise_sd is not None:
        spec = replace(spec, cost_noise_sd=require_real("cost_noise_sd", args.cost_noise_sd))
    ds = generate(spec, n)
    header = write_csv(ds, out)
    context = {"command": "simulate", "dgp": kind, "n": n, "out": out, "with_cost": with_cost,
               "unit_cost": spec.unit_cost, "cost_noise_sd": spec.cost_noise_sd}
    outputs = [(out + ".meta.json", {"columns": header, "rows": n})]
    if args.oracle:
        rep = oracle(spec, grid)
        rows = []
        for i, k in enumerate(rep.kappas):
            eff_none = float(rep.effect_vs_none[i])
            eff_all = float(rep.effect_vs_all[i])
            rows.append({
                "kappa": float(k),
                "value": float(rep.values[i]),
                "tau": float(rep.taus[i]),
                "tie_prob": float(rep.tie_probs[i]),
                "pct_treated": float(rep.treated_fractions[i]),
                "chord": float(rep.chord[i]),
                "cost_vs_none": float(rep.cost_vs_none[i]),
                "effect_vs_none_pp": 100.0 * eff_none,
                "icer_vs_none": ratio(float(rep.cost_vs_none[i]), 100.0 * eff_none),
                "cost_vs_all": float(rep.cost_vs_all[i]),
                "effect_vs_all_pp": 100.0 * eff_all,
                "icer_vs_all": ratio(float(rep.cost_vs_all[i]), 100.0 * eff_all),
            })
        outputs.append((args.oracle, {"dgp": kind, "ate": rep.ate, "ey0": rep.ey0,
                                      "ey1": rep.ey1, "grid": rows}))
    return context, outputs


def _cmd_fit_rule(args, cfg: PipelineConfig):
    kappas, single = _parse_kappa_arg(str(_required(args.kappa, "kappa")))
    ds, context = _load_dataset(args)
    context["kappa"] = kappas
    blip, nuis = fit_full(ds, cfg)
    lo, hi = nuis.ds.y_scale
    s = hi - lo  # blips and thresholds are fit on [0, 1]; report outcome units
    assignments = [assignment_for(nuis, k) for k in kappas]

    blocks = []
    for asg in assignments:
        (sol,) = asg.thresholds
        blocks.append({
            "kappa": sol.kappa,
            "tau": s * sol.tau,
            "eta": s * sol.eta,
            "s_at_tau": sol.s_at_tau,
            "tie_mass": sol.tie_mass,
            "tie_prob": sol.tie_prob,
            "pct_treated": asg.pct_treated,
            "pct_stochastic": asg.pct_stochastic,
        })
    rules = blocks[0] if single else {"rules": blocks}
    model = {
        "covariate_names": list(ds.covariate_names),
        "y_scale": [lo, hi],
        "blip": blip.to_dict(),
        "blip_atoms": [{"blip_value": s * v, "count": c} for v, c in blip_atoms(nuis.tables[0])],
        "rules": blocks,
    }
    header = ["row", "blip"] + [f"treat_kappa_{k:g}" for k in kappas]
    blip_units = s * nuis.val_blip
    rows = ([i, blip_units[i]] + [asg.gtilde1[i] for asg in assignments] for i in range(ds.n))
    return context, [(args.out, {**rules, "warnings": list(nuis.warnings)}),
                     (args.save_model, model),
                     (args.assignments, header, rows)]


def _contrast_block(est, static, z) -> dict:
    c = contrast_estimates(est, static, z)
    return {"diff": c.diff, "se": c.se, "ci_lo": c.ci[0], "ci_hi": c.ci[1]}


def _static_block(est) -> dict:
    return {
        "label": est.label,
        "psi": est.psi,
        "se": est.se,
        "ci_lo": est.ci[0],
        "ci_hi": est.ci[1],
        "pct_treated": est.pct_treated,
    }


def _cmd_evaluate(args, cfg: PipelineConfig):
    kappas, ds, context = _grid_setup(args)
    result = evaluate_grid(ds, kappas, cfg)
    z = cfg.z_value
    entries = []
    for est in result.estimates:
        entries.append({
            "kappa": est.kappa,
            "psi": est.psi,
            "se": est.se,
            "ci_lo": est.ci[0],
            "ci_hi": est.ci[1],
            "tau": est.tau,
            "pct_treated": est.pct_treated,
            "pct_stochastic": est.pct_stochastic,
            "epsilon": est.epsilon,
            "score": est.score,
            "vs_treat_all": _contrast_block(est, result.treat_all, z),
            "vs_treat_none": _contrast_block(est, result.treat_none, z),
            "warnings": list(est.warnings),
        })
    payload = {
        "grid": entries,
        "treat_all": _static_block(result.treat_all),
        "treat_none": _static_block(result.treat_none),
        "n": ds.n,
        "warnings": list(result.nuisance.warnings),
    }
    return context, [(args.out, payload)]


def _cmd_msm(args, cfg: PipelineConfig):
    kappas, ds, context = _grid_setup(args)
    fit = msm_with_bootstrap(ds, kappas, cfg)
    plot_rows = [
        {"kappa": k, "value": v, "fitted": f, "chord": ch}
        for k, v, f, ch in fit.plot_rows()
    ]
    payload = {
        "beta0": fit.beta0,
        "beta1": fit.beta1,
        "chord": {"intercept": fit.chord[0], "slope": fit.chord[1]},
        "contrasts": {"contrast0": fit.contrast[0], "contrast1": fit.contrast[1]},
        "ci": {key: [lo, hi] for key, (lo, hi) in fit.boot_ci.items()},
        "mode": cfg.bootstrap_mode,
        "replicates": fit.boot_replicates,
        "resample_redraws": fit.boot_redraws,
        "kappas": list(fit.kappas),
        "values": list(fit.values),
        "plot_rows": plot_rows,
        "warnings": list(fit.warnings),
    }
    return context, [(args.out, payload), (args.plot_out, *_project("msm", plot_rows))]


def _cmd_icer(args, cfg: PipelineConfig):
    kappas, ds, context = _grid_setup(args, need_cost=True)
    comparator = str(args.comparator).replace("-", "_")
    if comparator not in STATIC_ARMS:
        raise CliError("--comparator must be treat-none or treat-all")
    context["comparator"] = comparator
    curve = icer_curve(ds, kappas, comparator=comparator, config=cfg)
    den_key = "denominator_pp" if curve.effect_units == "pp" else "denominator"
    rows = []
    for e in curve.estimates:
        rows.append({
            "kappa": e.kappa,
            "numerator": e.numerator,
            den_key: e.denominator,
            "icer": e.ratio,
            "se": e.se,
            "ci_lo": None if e.ci is None else e.ci[0],
            "ci_hi": None if e.ci is None else e.ci[1],
            "unstable": e.unstable,
        })
    plane = [{den_key: e.denominator, "numerator": e.numerator, "kappa": e.kappa}
             for e in curve.estimates]
    payload = {
        "comparator": comparator,
        "rows": rows,
        "plane": plane,
        "n": ds.n,
        "warnings": list(curve.warnings),
    }
    return context, [(args.out, payload), (args.plane_out, *_project("ce-plane", plane))]


def _cmd_subgroups(args, cfg: PipelineConfig):
    alpha = require_real("alpha", args.alpha)
    max_levels = require_int("max_levels", args.max_levels)
    ds, context = _load_dataset(args)
    context["alpha"] = alpha
    results = subgroup_scan(ds, alpha=alpha, max_levels=max_levels)
    blocks = []
    for r in results:
        blocks.append({
            "covariate": r.covariate,
            "p_value": r.p_value,
            "flagged": r.flagged,
            "note": r.note,
            "levels": [asdict(lv) for lv in r.levels],
        })
    return context, [(args.out, {"alpha": alpha, "results": blocks})]


def _cmd_plot_data(args, cfg: PipelineConfig):
    """No audit of its own: the CSV's sidecar carries its source's."""
    what = args.what
    if what not in _PLOT_SPECS:
        raise CliError(f"--what must be one of {', '.join(sorted(_PLOT_SPECS))}")
    flag, key, _ = _PLOT_SPECS[what]
    source = getattr(args, flag)
    if not source:
        raise CliError(f"plot-data --what {what} needs --{flag} <file.json>")
    doc = _read_json(source, flag)
    if not isinstance(doc, dict) or key not in doc:
        producer = {"grid": "evaluate", "plot_rows": "msm", "blip_atoms": "fit-rule --save-model",
                    "plane": "icer"}[key]
        raise CliError(f"--{flag} {source}: no {key!r} section; expected output of `{producer}`")
    records = doc[key]
    if not (isinstance(records, list) and all(isinstance(rec, dict) for rec in records)):
        raise CliError(f"--{flag} {source}: section {key!r} must be a list of JSON objects")
    meta = {"source": os.path.basename(source), "what": what, "audit": doc.get("audit")}
    return None, [(args.out, *_project(what, records), meta)]


# ---------------------------------------------------------------------------
# parser


def _add_pipeline_flags(p: argparse.ArgumentParser, model: bool = True,
                        ci_level: bool = False):
    """--config and --seed; the learner and propensity flags when the
    command fits models, and --ci-level when it reports intervals. Returns
    the group, for a command to add its own PipelineConfig flags."""
    grp = p.add_argument_group("pipeline")
    grp.add_argument("--config", help="JSON config file overlaying the defaults")
    grp.add_argument("--seed", type=int, help="master seed (default 0; env RC_POLICY_SEED)")
    if model:
        grp.add_argument("--folds", type=int, help="cross-validation folds (default 10)")
        grp.add_argument("--g-known", type=float,
                         help="known treatment probability, e.g. 0.5 in a balanced trial")
        grp.add_argument("--g-estimate", action=argparse.BooleanOptionalAction, default=None,
                         help="force propensity estimation on or off")
        grp.add_argument("--g-min", type=float, help="propensity truncation bound")
        grp.add_argument("--outcome-library",
                         help="comma-separated outcome learners (mean,glm,univariate,step_aic)")
        grp.add_argument("--blip-library", help="comma-separated blip learners")
    if ci_level:
        grp.add_argument("--ci-level", type=float, help="confidence level (default 0.95)")
    return grp


def _add_command(sub, name: str, func, help: str, out_help: str, data: bool = True):
    """A subcommand's parser: --out, the data flags when it reads --data,
    and `func` as its handler."""
    p = sub.add_parser(name, help=help)
    p.add_argument("--out", help=out_help)
    if data:
        grp = p.add_argument_group("data")
        grp.add_argument("--data", help="input CSV with header row")
        grp.add_argument("--treatment-col", help="treatment column (default a)")
        grp.add_argument("--outcome-col", help="outcome column (default y)")
        grp.add_argument("--cost-col", help="cost column (default: a column named c, when present)")
        grp.add_argument("--covariate-cols",
                         help="comma-separated covariates (default: all other columns)")
        grp.add_argument("--outcome-kind", choices=["auto", "binary", "bounded_real"],
                         help="outcome type (default auto-detect)")
        grp.add_argument("--y-bounds", help="lo:hi bounds for bounded_real outcomes")
    p.set_defaults(func=func)
    return p


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="rcpolicy",
        description="Budget-constrained treatment rules: estimation, value inference, "
                    "summary curves, and cost-effectiveness.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    p = _add_command(sub, "simulate", _cmd_simulate,
                     "draw a synthetic dataset (optionally with its oracle)", "output CSV path",
                     data=False)
    p.add_argument("--dgp", choices=list(DGP_KINDS), help="generating process")
    p.add_argument("--n", type=int, help="sample size")
    p.add_argument("--oracle", help="also write the closed-form truth to this JSON path")
    p.add_argument("--kappa-grid", help="oracle grid (default 0:1:0.1)")
    p.add_argument("--unit-cost", type=float, help="cost per treated unit")
    p.add_argument("--cost-noise-sd", type=float, help="sd of additive cost noise")
    p.add_argument("--no-cost", action="store_true", default=None, help="omit the cost column")
    _add_pipeline_flags(p, model=False)

    p = _add_command(sub, "fit-rule", _cmd_fit_rule,
                     "fit the constrained rule at one or more budgets",
                     "rule JSON path (default stdout)")
    p.add_argument("--kappa", help="budget: a number or start:end:step")
    p.add_argument("--save-model", help="write the fitted blip model JSON here")
    p.add_argument("--assignments", help="write per-row treatment probabilities CSV here")
    _add_pipeline_flags(p)

    p = _add_command(sub, "evaluate", _cmd_evaluate,
                     "cross-validated value estimates over a budget grid",
                     "results JSON path (default stdout)")
    p.add_argument("--kappa-grid", "--kappa", help="start:end:step budget grid")
    _add_pipeline_flags(p, ci_level=True)

    p = _add_command(sub, "msm", _cmd_msm,
                     "summarize the budget-response curve with a working line",
                     "results JSON path (default stdout)")
    p.add_argument("--kappa-grid", help="start:end:step budget grid")
    p.add_argument("--plot-out", help="plot-data CSV (kappa,value,fitted,chord)")
    grp = _add_pipeline_flags(p, ci_level=True)
    grp.add_argument("--bootstrap", type=int, dest="bootstrap_replicates", metavar="BOOTSTRAP",
                     help="bootstrap replicates (default 1000)")
    grp.add_argument("--mode", choices=["refit"], dest="bootstrap_mode",
                     help="bootstrap mode: refit re-runs the pipeline on every resample")

    p = _add_command(sub, "icer", _cmd_icer,
                     "incremental cost-effectiveness along the budget grid",
                     "results JSON path (default stdout)")
    p.add_argument("--kappa-grid", help="start:end:step budget grid")
    p.add_argument("--comparator", choices=["treat-none", "treat-all"],
                   help="static comparator (default treat-none)")
    p.add_argument("--plane-out", help="cost-effectiveness plane CSV")
    grp = _add_pipeline_flags(p, ci_level=True)
    grp.add_argument("--effect-units", choices=["pp", "probability"],
                     help="denominator units for binary outcomes (default pp)")
    grp.add_argument("--epsilon-den", type=float,
                     help="denominator instability guard (default 1e-4)")

    p = _add_command(sub, "subgroups", _cmd_subgroups,
                     "scan covariates for treatment-effect heterogeneity",
                     "results JSON path (default stdout)")
    p.add_argument("--alpha", type=float, help="flagging level (default 0.1)")
    p.add_argument("--max-levels", type=int,
                   help="max distinct values for per-level summaries (default 10)")
    p.add_argument("--config", help="JSON config file overlaying the defaults")

    p = _add_command(sub, "plot-data", _cmd_plot_data,
                     "project saved results into plot-ready CSV", "output CSV path (default stdout)",
                     data=False)
    p.add_argument("--what", choices=sorted(_PLOT_SPECS), help="which figure data to emit")
    p.add_argument("--results", help="results JSON from evaluate/msm/icer")
    p.add_argument("--model", help="model JSON from fit-rule --save-model")
    p.add_argument("--config", help="JSON config file (rarely needed here)")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # --help / --version print and stop
        return int(exc.code or 0)
    try:
        cfg = _resolve_config(args)
        context, outputs = args.func(args, cfg)
        _write_outputs(outputs, None if context is None else _audit(cfg, context))
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (RuntimeError, ArithmeticError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except (ValueError, KeyError, TypeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
