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
BLAS thread count before numpy does (see ``hdnorm._cpus``).
"""

import importlib as _importlib

__version__ = "0.1.0"

# Every public name, by the submodule that defines it.
_EXPORTS = {
    "errors": ("HdnormError", "InvalidQuantileOrder", "InvalidScenarioParams", "NonFiniteData",
               "NonPositiveDispersion", "NotPSD", "TooFewSamples"),
    "generators": ("CovSpec", "Scenario", "build_covariance", "sample_scenario",
                   "scenario_covariance"),
    "harness": ("CellResult", "CellSpec", "Experiment", "experiment_from_json",
                "run_experiment", "summarize"),
    "methods": ("McSettings",),
    "moments": ("DataMatrix", "DispersionEstimate"),
    "montecarlo": ("TestReport", "composite_test", "mc_quantiles", "null_quasi_range_draws"),
    "radii": ("RadialSummary", "radial_summary"),
    "teststats": ("NormConstants", "norm_constants", "sigma_star"),
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

