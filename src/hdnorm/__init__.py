"""High-dimensional multivariate normality testing from radial concentration.

The test compares two scale estimates of the centered radii ||X_i - mean||:
quantile contrasts of their order statistics against the dispersion-index
estimate 2 tr(Sigma^2)-hat / tr(Sigma)-hat.  Range-type contrasts are
calibrated by Monte-Carlo simulation of the normalized range of iid standard
normals; the interquartile contrast has a closed-form normal band.  The
composite test combines both with a Bonferroni split and is invariant under
similarity transformations x -> sigma V x + w.
"""

from .errors import (
    DegenerateData,
    DegenerateDataWarning,
    HdnormError,
    InvalidQuantileOrder,
    InvalidScenarioParams,
    NonPositiveDispersion,
    NotPSD,
    OracleSizeExceeded,
    TooFewSamples,
    ZeroMatrix,
)
from .generators import (
    CovSpec,
    EffectiveRanks,
    Scenario,
    build_covariance,
    effective_ranks,
    sample_scenario,
    scenario_covariance,
)
from .harness import (
    CellResult,
    CellSpec,
    Experiment,
    experiment_from_json,
    run_experiment,
    summarize,
)
from .moments import (
    DataMatrix,
    DispersionEstimate,
    delta_hat,
    sigma_hat_d,
    tr_sigma_sq_hat,
    tr_sigma_sq_oracle,
)
from .montecarlo import (
    Decision,
    McSettings,
    TestReport,
    composite_test,
    decide_iqr,
    decide_range,
    mc_quantiles,
    null_quasi_range_draws,
)
from .radii import RadialSummary, radial_summary, radii, standardized_radii
from .teststats import (
    NormConstants,
    StatKind,
    TestStatistic,
    central_quantile_statistic,
    iqr_statistic,
    norm_constants,
    quasi_range_statistic,
    range_statistic,
    sigma_star,
    squared_radii_statistics,
)

__version__ = "0.1.0"

__all__ = [
    "CellResult",
    "CellSpec",
    "CovSpec",
    "DataMatrix",
    "Decision",
    "DegenerateData",
    "DegenerateDataWarning",
    "DispersionEstimate",
    "EffectiveRanks",
    "Experiment",
    "HdnormError",
    "InvalidQuantileOrder",
    "InvalidScenarioParams",
    "McSettings",
    "NonPositiveDispersion",
    "NormConstants",
    "NotPSD",
    "OracleSizeExceeded",
    "RadialSummary",
    "Scenario",
    "StatKind",
    "TestReport",
    "TestStatistic",
    "TooFewSamples",
    "ZeroMatrix",
    "build_covariance",
    "central_quantile_statistic",
    "composite_test",
    "decide_iqr",
    "decide_range",
    "delta_hat",
    "effective_ranks",
    "experiment_from_json",
    "iqr_statistic",
    "mc_quantiles",
    "norm_constants",
    "null_quasi_range_draws",
    "quasi_range_statistic",
    "radial_summary",
    "radii",
    "range_statistic",
    "run_experiment",
    "sample_scenario",
    "scenario_covariance",
    "sigma_hat_d",
    "sigma_star",
    "squared_radii_statistics",
    "standardized_radii",
    "summarize",
    "tr_sigma_sq_hat",
    "tr_sigma_sq_oracle",
]
