"""High-dimensional multivariate normality testing from radial concentration.

The test compares two scale estimates of the centered radii ||X_i - mean||:
quantile contrasts of their order statistics against the dispersion-index
estimate 2 tr(Sigma^2)-hat / tr(Sigma)-hat.  Range-type contrasts are
calibrated by Monte-Carlo simulation of the normalized range of iid standard
normals; the interquartile contrast has a closed-form normal band.  The
composite test combines both with a Bonferroni split and is invariant under
similarity transformations x -> sigma V x + w.

The public names load their submodule on first use (PEP 562), so that
``import hdnorm`` loads no numpy and the ``hdnorm`` command can choose its
BLAS thread count before numpy does (see ``hdnorm._blas``).
"""

import importlib as _importlib
import sys as _sys
import types as _types

__version__ = "0.1.0"

# Every public name, by the submodule that defines it.
_EXPORTS = {
    "errors": ("DegenerateData", "DegenerateDataWarning", "HdnormError", "InvalidQuantileOrder",
               "InvalidScenarioParams", "NonPositiveDispersion", "NotPSD",
               "OracleSizeExceeded", "TooFewSamples", "ZeroMatrix"),
    "generators": ("CovSpec", "EffectiveRanks", "Scenario", "build_covariance",
                   "effective_ranks", "sample_scenario", "scenario_covariance"),
    "harness": ("CellResult", "CellSpec", "Experiment", "experiment_from_json",
                "run_experiment", "summarize"),
    "moments": ("DataMatrix", "DispersionEstimate", "delta_hat", "sigma_hat_d",
                "tr_sigma_sq_hat", "tr_sigma_sq_oracle"),
    "montecarlo": ("Decision", "McSettings", "TestReport", "composite_test", "decide_iqr",
                   "decide_range", "mc_quantiles", "null_quasi_range_draws"),
    "radii": ("RadialSummary", "radial_summary", "radii", "standardized_radii"),
    "teststats": ("NormConstants", "StatKind", "TestStatistic", "central_quantile_statistic",
                  "iqr_statistic", "norm_constants", "quasi_range_statistic",
                  "range_statistic", "sigma_star", "squared_radii_statistics"),
}
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}
# Submodules that are attributes of the package, loaded on first access.
_SUBMODULES = (*_EXPORTS, "rng")

__all__ = sorted(_SOURCE)


def __getattr__(name):
    if name in _SOURCE:
        value = getattr(_importlib.import_module(f"{__name__}.{_SOURCE[name]}"), name)
    elif name in _SUBMODULES:
        value = _importlib.import_module(f"{__name__}.{name}")
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    loaded = (n for n in globals() if n.startswith("__") or not n.startswith("_"))
    return sorted({*loaded, *__all__, *_SUBMODULES})


class _Package(_types.ModuleType):
    def __setattr__(self, name, value):
        # Loading a submodule binds it on the package.  The function ``radii``
        # keeps that name over the module ``hdnorm.radii``.
        if name in _SOURCE and isinstance(value, _types.ModuleType):
            value = getattr(value, name)
        super().__setattr__(name, value)


_sys.modules[__name__].__class__ = _Package
