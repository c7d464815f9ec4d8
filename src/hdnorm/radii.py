"""Centered radii, their order statistics, and standardized radii."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .moments import DataMatrix, DispersionEstimate, _moments


@dataclass(frozen=True)
class RadialSummary:
    """Sorted radii of a sample along with everything the test statistics need.

    ``sorted_radii`` holds the radii ||X_i - mean|| in non-decreasing order.
    ``standardized`` holds, in input order,
    2 * delta_hat^{-1/2} * (R_i - sqrt(tr of sample covariance)), which is
    approximately standard normal under the Gaussian null and drives the QQ
    diagnostics.
    """

    sorted_radii: np.ndarray
    standardized: np.ndarray
    dispersion: DispersionEstimate
    n: int
    d: int


def radial_summary(X: DataMatrix, out: Optional[np.ndarray] = None) -> RadialSummary:
    """Compute the sorted radii, the standardized radii and the dispersion estimate.

    All of them come from the one centring in :func:`hdnorm.moments._moments`,
    into ``out`` if given; ``out=X.values`` centres the sample in place.
    """
    moments = _moments(X, out)
    dispersion = moments.dispersion()
    r = np.sqrt(moments.sq_radii)
    standardized = 2.0 / np.sqrt(dispersion.delta_hat) * (r - np.sqrt(dispersion.tr_sigma_d))
    return RadialSummary(
        sorted_radii=np.sort(r),
        standardized=standardized,
        dispersion=dispersion,
        n=X.n,
        d=X.d,
    )
