"""Sample moments and the dispersion-index estimator.

The dispersion index of a centered Gaussian vector is 2 tr(Sigma^2) / tr(Sigma);
it is the variance proxy for the centered radii and normalizes every test
statistic in :mod:`hdnorm.teststats`.  The estimator combines an unbiased
U-statistic estimate of tr(Sigma^2) with the trace of the sample covariance.
Both traces are read off the centered Gramian matrix when n <= d, which keeps
the cost at O(n d (n ^ d)) instead of O(n d^2).
"""

from __future__ import annotations

import math
from typing import NamedTuple, Optional

import numpy as np

from .errors import NonFiniteData, NonPositiveDispersion, TooFewSamples

#: The fewest rows the moment estimators take: tr(Sigma^2)-hat divides by (n - 2)(n - 3).
MIN_N = 4


class DataMatrix(NamedTuple):
    """An n x d sample matrix with rows as observations.

    All entries must be finite, else ``from_array`` raises ``NonFiniteData``.
    Most estimators additionally require n >= 4 (they divide by
    (n - 2)(n - 3)); those checks live on the operations.
    """

    values: np.ndarray
    n: int
    d: int

    @classmethod
    def from_array(cls, values) -> "DataMatrix":
        arr = np.asarray(values, dtype=np.float64)
        if arr.ndim != 2:
            raise ValueError(f"expected a 2-D sample matrix, got ndim={arr.ndim}")
        if arr.shape[0] < 1 or arr.shape[1] < 1:
            raise ValueError(f"empty sample matrix of shape {arr.shape}")
        if not np.isfinite(arr).all():
            row, column = np.argwhere(~np.isfinite(arr))[0] + 1
            raise NonFiniteData(int(row), int(column))
        return cls(values=arr, n=arr.shape[0], d=arr.shape[1])


class DispersionEstimate(NamedTuple):
    """The dispersion-index estimate together with its ingredients."""

    delta_hat: float
    tr_sigma_d: float
    tr_sigma_sq_hat: float
    used_gramian: bool


class _Moments(NamedTuple):
    """What one centring of the sample gives every moment estimator.

    ``sq_radii[i]`` is ||X_i - mean||^2, in input order.  ``trace`` and
    ``trace_sq`` are tr(M) and tr(M^2) for M the centred Gramian Xc Xc^T
    (n <= d, ``used_gramian``) or Xc^T Xc (n > d); the cyclic trace makes
    the two paths agree.  ``fourth_sum`` is the sum of the squared
    ``sq_radii``.
    """

    sq_radii: np.ndarray
    trace: float
    trace_sq: float
    fourth_sum: float
    used_gramian: bool

    def traces(self) -> tuple:
        """tr of the sample covariance and the unbiased tr(Sigma^2) estimate.

        The estimate divides by (n - 2)(n - 3), so it needs n >= ``MIN_N``.
        """
        n = len(self.sq_radii)
        if n < MIN_N:
            raise TooFewSamples(f"the moment estimators need n >= {MIN_N}, got n={n}")
        tr1 = self.trace / (n - 1)
        tr2 = self.trace_sq / (n - 1) ** 2
        return tr1, (n - 1) / (n * (n - 2) * (n - 3)) * (
            (n - 1) * (n - 2) * tr2 + tr1 * tr1 - n / (n - 1) * self.fourth_sum
        )

    def dispersion(self) -> DispersionEstimate:
        """Estimate the dispersion index 2 tr(Sigma^2) / tr(Sigma).

        Raises :class:`NonPositiveDispersion` when either ingredient is
        non-positive: clamping instead would silently bias every downstream
        statistic on degenerate input.
        """
        tr1, that = self.traces()
        # Moments of data near the float range overflow to inf, and inf - inf is
        # NaN; NaN compares false, so without these checks a verdict would follow.
        if not math.isfinite(tr1):
            raise NonPositiveDispersion(f"tr of sample covariance is {tr1!r}; data too large")
        if tr1 <= 0.0:
            raise NonPositiveDispersion(f"tr of sample covariance is {tr1!r}; data degenerate")
        if not math.isfinite(that):
            raise NonPositiveDispersion(f"tr(Sigma^2) estimate is {that!r}; data too large")
        if that <= 0.0:
            raise NonPositiveDispersion(f"tr(Sigma^2) estimate is {that!r}; test cannot proceed")
        return DispersionEstimate(
            delta_hat=2.0 * that / tr1,
            tr_sigma_d=tr1,
            tr_sigma_sq_hat=that,
            used_gramian=self.used_gramian,
        )


def _moments(X: DataMatrix, out: Optional[np.ndarray] = None) -> _Moments:
    """Centre the sample once, into ``out`` if given (``X.values`` when the
    caller owns the sample), and take every moment from the centred matrix;
    no field of the result refers to it."""
    used_gramian = X.n <= X.d
    # Beyond the float range a sum or product is inf or NaN, which the dispersion
    # checks report; numpy's warnings would only repeat it, and Python floats give none.
    with np.errstate(over="ignore", invalid="ignore"):
        # The sum and division ``ndarray.mean`` does, without its Python wrapper.
        Xc = np.subtract(X.values, np.add.reduce(X.values, axis=0) / X.n, out=out)
        r2 = np.einsum("ij,ij->i", Xc, Xc)
        M = Xc @ Xc.T if used_gramian else Xc.T @ Xc
    r4 = math.fsum([x * x for x in r2.tolist()])  # the exact sum of squares, rounded once
    return _Moments(r2, float(r2.sum()), float(np.einsum("ij,ij->", M, M)), r4, used_gramian)
