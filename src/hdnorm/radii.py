"""Centered radii, their order statistics, and standardized radii."""

from __future__ import annotations

from typing import NamedTuple, Optional

import numpy as np

from .moments import DataMatrix, DispersionEstimate, _moments


class RadialSummary(NamedTuple):
    """Sorted radii of a sample along with everything the test statistics need.

    ``sorted_radii`` holds the radii ||X_i - mean|| in non-decreasing order.
    """

    sorted_radii: np.ndarray
    dispersion: DispersionEstimate
    n: int
    d: int

    @property
    def standardized(self) -> np.ndarray:
        """2 delta_hat^{-1/2} (R - sqrt(tr of the sample covariance)) for each R in
        ``sorted_radii``: about standard normal under the Gaussian null, for QQ plots."""
        disp = self.dispersion
        return 2.0 / np.sqrt(disp.delta_hat) * (self.sorted_radii - np.sqrt(disp.tr_sigma_d))


def radial_summary(X: DataMatrix, out: Optional[np.ndarray] = None) -> RadialSummary:
    """Compute the sorted radii and the dispersion estimate.

    Both come from the one centring in :func:`hdnorm.moments._moments`,
    into ``out`` if given; ``out=X.values`` centres the sample in place.
    """
    moments = _moments(X, out)
    return RadialSummary(np.sort(np.sqrt(moments.sq_radii)), moments.dispersion(), X.n, X.d)
