"""In-memory span recorder and layer wrappers for the traced benchmark run.

Stdlib only. `install()` wraps the public functions of each rcpolicy layer
and rebinds every module-global name (in any loaded `rcpolicy.*` module)
that refers to the original, so calls made through `from .x import f`
aliases and through module attributes are both recorded. Spans stay in a
list until `summarize()` turns them into per-layer metrics.
"""
from __future__ import annotations

import functools
import importlib
import statistics
import sys
import time

# layer module -> public functions whose calls become spans
LAYERS = {
    "cli": ("main",),
    "data": ("ingest_csv", "Dataset.subset"),
    "glm": ("fit_logistic", "fit_linear", "forward_stepwise_aic", "design_is_singular"),
    "simplex": ("simplex_lstsq",),
    "learners": ("fit_outcome", "fit_blip", "fit_propensity"),
    "rule": ("solve_threshold",),
    "tmle": ("fit_folds", "assignment_for", "value_from_assignment", "evaluate_grid"),
    "msm": ("msm_with_bootstrap",),
    "icer": ("icer_curve",),
}


def _glm_counts(args, kwargs, result):
    X = args[0] if args else kwargs["X"]
    shape = getattr(X, "shape", ())
    cells = shape[0] * shape[1] if len(shape) == 2 else 0
    return {"design_cells": cells, "fallbacks": int(result.fallback is not None),
            "irls_iters": result.n_iter}


def _solve_rows(args, kwargs, result):
    blips = args[0] if args else kwargs["blips"]
    return {"rows": len(blips)}


def _stepwise_terms(args, kwargs, result):
    return {"accepted_terms": len(result[0])}


def _msm_redraws(args, kwargs, result):
    return {"resample_redraws": result.boot_redraws}


# span name -> function of (args, kwargs, result) giving work counts
COUNTERS = {
    "glm.fit_logistic": _glm_counts,
    "glm.fit_linear": _glm_counts,
    "glm.forward_stepwise_aic": _stepwise_terms,
    "rule.solve_threshold": _solve_rows,
    "msm.msm_with_bootstrap": _msm_redraws,
}


class Recorder:
    """Spans as [name, start, end, parent index, counts] rows, in call order."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        counter = COUNTERS.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, clock(), 0.0, stack[-1] if stack else -1, None]
            spans.append(span)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if counter is not None:
                span[4] = counter(args, kwargs, result)
            return result

        return traced


def install(recorder: Recorder) -> None:
    """Wrap every function in LAYERS and rebind all references to it."""
    for mod_name, funcs in LAYERS.items():
        mod = importlib.import_module(f"rcpolicy.{mod_name}")
        for qual in funcs:
            span_name = f"{mod_name}.{qual}"
            if "." in qual:
                cls_name, attr = qual.split(".")
                cls = getattr(mod, cls_name)
                setattr(cls, attr, recorder.wrap(span_name, getattr(cls, attr)))
                continue
            original = getattr(mod, qual)
            wrapped = recorder.wrap(span_name, original)
            for loaded in list(sys.modules.values()):
                if not getattr(loaded, "__name__", "").startswith("rcpolicy"):
                    continue
                for key, value in list(vars(loaded).items()):
                    if value is original:
                        setattr(loaded, key, wrapped)


def _quantile(values: list[float], q: float) -> float:
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    return cuts[int(round(q * 100)) - 1]


def summarize(spans: list[list]) -> dict:
    """Per-layer metrics from one traced CLI call's spans.

    Self time is a span's duration minus the durations of its direct
    children (calls are single-threaded, so children never overlap).
    """
    n = len(spans)
    child_time = [0.0] * n
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    calls: dict[str, int] = {}
    total: dict[str, float] = {}
    self_s: dict[str, float] = {}
    counts: dict[str, dict[str, float]] = {}
    for i, (name, start, end, parent, cnt) in enumerate(spans):
        calls[name] = calls.get(name, 0) + 1
        total[name] = total.get(name, 0.0) + (end - start)
        self_s[name] = self_s.get(name, 0.0) + (end - start - child_time[i])
        if cnt:
            acc = counts.setdefault(name, {})
            for key, val in cnt.items():
                acc[key] = acc.get(key, 0) + val

    # fits made inside stepwise selection, for the wasted-work ratio
    stepwise_fits = 0
    for name, _, _, parent, _ in spans:
        if parent >= 0 and spans[parent][0] == "glm.forward_stepwise_aic" and name.startswith("glm.fit_"):
            stepwise_fits += 1

    # bootstrap replicates: evaluate_grid calls under msm after the point fit
    replicate_s: list[float] = []
    seen_point = set()
    for name, start, end, parent, _ in spans:
        if name == "tmle.evaluate_grid" and parent >= 0 and spans[parent][0] == "msm.msm_with_bootstrap":
            if parent in seen_point:
                replicate_s.append(end - start)
            else:
                seen_point.add(parent)

    main_total = total.get("cli.main", 0.0)
    main_self = self_s.get("cli.main", 0.0)

    def c(name: str) -> int:
        return calls.get(name, 0)

    def t(name: str) -> float:
        return total.get(name, 0.0)

    def s(name: str) -> float:
        return self_s.get(name, 0.0)

    def k(name: str, key: str) -> float:
        return counts.get(name, {}).get(key, 0)

    accepted = k("glm.forward_stepwise_aic", "accepted_terms")
    return {
        "glm.fit_logistic.calls": c("glm.fit_logistic"),
        "glm.fit_logistic.self_s": s("glm.fit_logistic"),
        "glm.fit_logistic.design_cells": k("glm.fit_logistic", "design_cells"),
        "glm.fit_logistic.irls_iters": k("glm.fit_logistic", "irls_iters"),
        "glm.fit_logistic.fallbacks": k("glm.fit_logistic", "fallbacks"),
        "glm.fit_linear.calls": c("glm.fit_linear"),
        "glm.fit_linear.self_s": s("glm.fit_linear"),
        "glm.fit_linear.design_cells": k("glm.fit_linear", "design_cells"),
        "glm.fit_linear.fallbacks": k("glm.fit_linear", "fallbacks"),
        "glm.forward_stepwise_aic.calls": c("glm.forward_stepwise_aic"),
        "glm.forward_stepwise_aic.total_s": t("glm.forward_stepwise_aic"),
        "glm.forward_stepwise_aic.trials_per_term": stepwise_fits / max(accepted, 1),
        "glm.design_is_singular.calls": c("glm.design_is_singular"),
        "glm.design_is_singular.total_s": t("glm.design_is_singular"),
        "simplex.simplex_lstsq.calls": c("simplex.simplex_lstsq"),
        "simplex.simplex_lstsq.total_s": t("simplex.simplex_lstsq"),
        **{
            f"learners.{fn}.{stat}": val
            for fn in ("fit_outcome", "fit_blip", "fit_propensity")
            for stat, val in (
                ("calls", c(f"learners.{fn}")),
                ("total_s", t(f"learners.{fn}")),
                ("self_s", s(f"learners.{fn}")),
            )
        },
        "rule.solve_threshold.calls": c("rule.solve_threshold"),
        "rule.solve_threshold.total_s": t("rule.solve_threshold"),
        "rule.solve_threshold.rows": k("rule.solve_threshold", "rows"),
        "tmle.fit_folds.calls": c("tmle.fit_folds"),
        "tmle.fit_folds.total_s": t("tmle.fit_folds"),
        "tmle.fit_folds.self_s": s("tmle.fit_folds"),
        "tmle.assignment_for.calls": c("tmle.assignment_for"),
        "tmle.assignment_for.self_s": s("tmle.assignment_for"),
        "tmle.value_from_assignment.calls": c("tmle.value_from_assignment"),
        "tmle.value_from_assignment.total_s": t("tmle.value_from_assignment"),
        "msm.replicate_s.p50": _quantile(replicate_s, 0.5),
        "msm.replicate_s.p90": _quantile(replicate_s, 0.9),
        "msm.self_s": s("msm.msm_with_bootstrap"),
        "msm.resample_redraws": k("msm.msm_with_bootstrap", "resample_redraws"),
        "icer.icer_curve.self_s": s("icer.icer_curve"),
        "data.ingest_csv.total_s": t("data.ingest_csv"),
        "data.Dataset.subset.calls": c("data.Dataset.subset"),
        "data.Dataset.subset.total_s": t("data.Dataset.subset"),
        "cli.main.self_s": main_self,
        "trace.coverage_frac": (main_total - main_self) / main_total if main_total > 0 else 0.0,
    }
