"""Pipeline configuration shared by the estimation modules and the CLI.

A single dataclass carries learner libraries, fold counts, propensity
handling, seeds, and inference settings. JSON configs overlay the
defaults and command-line flags overlay the JSON; unknown JSON keys are
rejected so typos cannot silently fall back to defaults.
"""
from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import numbers
import statistics
from dataclasses import dataclass

# Phi^{-1}(0.975) to the precision used for all reported 95% intervals.
Z_975 = 1.959964

DEFAULT_LIBRARY = ("mean", "glm", "univariate", "step_aic")


def require_int(name: str, value) -> int:
    """value if it is an integer (bools are not), else a ValueError naming it."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


@dataclass(frozen=True)
class PipelineConfig:
    outcome_library: tuple[str, ...] = DEFAULT_LIBRARY
    blip_library: tuple[str, ...] = DEFAULT_LIBRARY
    folds: int = 10
    g_known: float | None = None
    g_estimate: bool | None = None  # None: estimate exactly when g_known is absent
    g_min: float = 0.01
    seed: int = 0
    ci_level: float = 0.95
    epsilon_den: float = 1e-4  # ICER denominator instability guard (scaled outcome)
    effect_units: str = "pp"  # "pp" or "probability" for binary-outcome ICER denominators
    bootstrap_replicates: int = 1000
    bootstrap_mode: str = "refit"  # the one mode; kept so `--mode refit` and JSON keys load

    def __post_init__(self):
        for name in ("folds", "seed", "bootstrap_replicates"):
            require_int(name, getattr(self, name))
        if self.folds < 2:
            raise ValueError("folds must be >= 2")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if not self.outcome_library or not self.blip_library:
            raise ValueError("learner libraries must be non-empty")
        if self.g_known is not None and not (0.0 < self.g_known < 1.0):
            raise ValueError("g_known must be in (0, 1)")
        if self.g_estimate is False and self.g_known is None:
            raise ValueError("g_estimate false (--no-g-estimate) needs g_known (--g-known)")
        if not (0.0 < self.g_min < 0.5):
            raise ValueError("g_min must be in (0, 0.5)")
        if not (0.0 < self.ci_level < 1.0):
            raise ValueError("ci_level must be in (0, 1)")
        if not (math.isfinite(self.epsilon_den) and self.epsilon_den >= 0.0):
            raise ValueError(f"epsilon_den must be finite and >= 0, got {self.epsilon_den!r}")
        if self.effect_units not in ("pp", "probability"):
            raise ValueError("effect_units must be 'pp' or 'probability'")
        if self.bootstrap_mode != "refit":
            raise ValueError(f"bootstrap_mode must be 'refit', got {self.bootstrap_mode!r}")
        if self.bootstrap_replicates < 1:
            raise ValueError("bootstrap_replicates must be >= 1")

    @property
    def z_value(self) -> float:
        if self.ci_level == 0.95:
            return Z_975
        return statistics.NormalDist().inv_cdf(0.5 + self.ci_level / 2.0)

    def replace(self, **kw) -> "PipelineConfig":
        return dataclasses.replace(self, **kw)

    def to_dict(self) -> dict:
        d = dataclasses.asdict(self)
        d["outcome_library"] = list(self.outcome_library)
        d["blip_library"] = list(self.blip_library)
        return d

    @classmethod
    def field_names(cls) -> set[str]:
        return {f.name for f in dataclasses.fields(cls)}

    @classmethod
    def from_dict(cls, d: dict) -> "PipelineConfig":
        unknown = set(d) - cls.field_names()
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        d = dict(d)
        for key in ("outcome_library", "blip_library"):
            if key in d:
                d[key] = tuple(d[key])
        return cls(**d)


def config_hash(d: dict) -> str:
    """Stable sha256 of a JSON-serializable config mapping."""
    canon = json.dumps(d, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()
