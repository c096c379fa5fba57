"""Coefficient-of-variation heterogeneity measures for meta-analysis.

Random-effects fitting (DerSimonian-Laird), the ratio measures built
from the between-study SD and the pooled effect, delta-method moments
on the logit scale, and several interval constructions: logit-Wald,
fixed-parameter corners, an alpha-adjusted product rule, and a
propagating-imprecision search, with a Q-profile interval for the
between-study variance itself.  A Monte Carlo engine reproduces the
coverage studies behind those constructions.
"""

__version__ = "0.1.0"

from .core import (
    HetMeasures,
    MetaDataset,
    PooledFit,
    diamond_ratio,
    fit_rem,
    i_squared,
    pooled_estimate,
    r_b,
)
from .errors import (
    ConfigError,
    CvMetaError,
    DataFormatError,
    DegenerateWeightsError,
    DomainError,
    NumericFailureError,
    UndefinedMomentsError,
)
from .intervals import (
    IntervalEstimate,
    PropImpTrace,
    abs_beta_ci,
    alpha_adjusted_intervals,
    alpha_adjusted_level,
    beta_ci,
    combine_fixed,
    maximal_interval,
    propimp_intervals,
    tau2_ci_qprofile,
    wald_logit_intervals,
)
from .measures import (
    CvMeasure,
    LogitMoments,
    cv_measures,
    het_measures,
    inv_logit,
    logit,
    logit_m1_moments,
    measures_from_cv,
)
from .simulator import (
    CoverageResult,
    FiveNumber,
    MethodCoverage,
    Scenario,
    WidthSummary,
    generate_normal_dataset,
    generate_smd_dataset,
    measure_summary,
    run_scenario,
)
from .datasets import (
    cohen_smd,
    config_path,
    data_path,
    list_configs,
    load_config,
    load_hssp,
    read_effects_csv,
    split_arms,
)

__all__ = [
    "__version__",
    # core
    "HetMeasures", "MetaDataset", "PooledFit", "diamond_ratio", "fit_rem",
    "i_squared", "pooled_estimate", "r_b",
    # errors
    "ConfigError", "CvMetaError", "DataFormatError", "DegenerateWeightsError",
    "DomainError", "NumericFailureError", "UndefinedMomentsError",
    # intervals
    "IntervalEstimate", "PropImpTrace", "abs_beta_ci",
    "alpha_adjusted_intervals", "alpha_adjusted_level", "beta_ci",
    "combine_fixed", "maximal_interval", "propimp_intervals",
    "tau2_ci_qprofile", "wald_logit_intervals",
    # measures
    "CvMeasure", "LogitMoments", "cv_measures", "het_measures", "inv_logit",
    "logit", "logit_m1_moments", "measures_from_cv",
    # simulator
    "CoverageResult", "FiveNumber", "MethodCoverage", "Scenario",
    "WidthSummary", "generate_normal_dataset", "generate_smd_dataset",
    "measure_summary", "run_scenario",
    # datasets
    "cohen_smd", "config_path", "data_path", "list_configs", "load_config",
    "load_hssp", "read_effects_csv", "split_arms",
]
