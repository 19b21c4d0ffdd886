"""Budget-constrained treatment rules with targeted inference.

The package estimates, for point-treatment data with a binary treatment,
the optimal rule that treats the highest-benefit units subject to a cap
kappa on the fraction treated; evaluates the rule's mean outcome with
cross-validated TMLE and influence-function confidence intervals;
summarizes the budget-response curve with a working linear summary plus
its chord contrast; and attaches incremental cost-effectiveness ratios.
Synthetic generating processes with closed-form oracles support
end-to-end validation.
"""

__version__ = "0.1.0"

from .config import PipelineConfig, config_hash
from .data import (
    ColumnSchema,
    Dataset,
    ingest_csv,
    scale_outcome,
    write_csv,
)
from .dgp import (
    DGP_KINDS,
    DgpSpec,
    OracleReport,
    adaptr_like,
    constant_blip,
    continuous_blip,
    generate,
    null_effect,
    one_interaction,
    oracle,
)
from .icer import IcerCurve, IcerEstimate, icer_curve, ratio
from .learners import (
    BlipModel,
    OutcomeModel,
    PropensityModel,
    SubgroupResult,
    fit_blip,
    fit_outcome,
    fit_propensity,
    make_pseudo_outcome,
    stratified_folds,
    subgroup_scan,
)
from .msm import MsmFit, fit_msm, msm_with_bootstrap
from .rule import (
    STATIC_ARMS,
    RulePolicy,
    ThresholdSolution,
    blip_atoms,
    build_policy,
    solve_threshold,
)
from .simplex import simplex_lstsq
from .tmle import (
    CvNuisance,
    GridResult,
    ValueEstimate,
    contrast_estimates,
    cv_tmle_value,
    derive_seed,
    evaluate_grid,
    fit_folds,
)

__all__ = [
    "BlipModel",
    "ColumnSchema",
    "CvNuisance",
    "DGP_KINDS",
    "Dataset",
    "DgpSpec",
    "GridResult",
    "IcerCurve",
    "IcerEstimate",
    "MsmFit",
    "OracleReport",
    "OutcomeModel",
    "PipelineConfig",
    "PropensityModel",
    "RulePolicy",
    "STATIC_ARMS",
    "SubgroupResult",
    "ThresholdSolution",
    "ValueEstimate",
    "__version__",
    "adaptr_like",
    "blip_atoms",
    "build_policy",
    "config_hash",
    "constant_blip",
    "continuous_blip",
    "contrast_estimates",
    "cv_tmle_value",
    "derive_seed",
    "evaluate_grid",
    "fit_blip",
    "fit_folds",
    "fit_msm",
    "fit_outcome",
    "fit_propensity",
    "generate",
    "icer_curve",
    "ingest_csv",
    "make_pseudo_outcome",
    "msm_with_bootstrap",
    "null_effect",
    "one_interaction",
    "oracle",
    "ratio",
    "scale_outcome",
    "simplex_lstsq",
    "solve_threshold",
    "stratified_folds",
    "subgroup_scan",
    "write_csv",
]
