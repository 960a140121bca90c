"""Distribution fits for DCT coefficients.

Reininger & Gibson (1983) — reference [24] of the paper — showed that the
un-quantized AC DCT coefficients of natural images are well modelled by
zero-mean Laplace (or Gaussian) distributions whose only free parameter
is the per-band standard deviation.  This module fits both models and
compares them, supporting the paper's use of the standard deviation as
the per-band energy statistic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: ``log(2 * pi) / 2``, the Gaussian log-density normaliser.
_HALF_LOG_2PI = 0.5 * np.log(2.0 * np.pi)


@dataclass(frozen=True)
class BandDistributionFit:
    """Maximum-likelihood fits of one band's coefficient distribution.

    Attributes
    ----------
    std:
        Sample standard deviation of the coefficients.
    laplace_scale:
        MLE scale ``b`` of the zero-mean Laplace fit.
    gaussian_log_likelihood / laplace_log_likelihood:
        Total log-likelihood of the data under each zero-mean model.
    preferred_model:
        ``"laplace"`` or ``"gaussian"``, whichever has higher likelihood.
    """

    std: float
    laplace_scale: float
    gaussian_log_likelihood: float
    laplace_log_likelihood: float

    @property
    def preferred_model(self) -> str:
        if self.laplace_log_likelihood >= self.gaussian_log_likelihood:
            return "laplace"
        return "gaussian"


def fit_band_distribution(coefficients: np.ndarray) -> BandDistributionFit:
    """Fit zero-mean Gaussian and Laplace models to one band's coefficients."""
    coefficients = np.asarray(coefficients, dtype=np.float64).ravel()
    if coefficients.size < 2:
        raise ValueError("need at least two coefficients to fit a distribution")
    std = float(coefficients.std())
    # Zero-mean MLEs: Gaussian sigma^2 = E[c^2], Laplace b = E[|c|].
    gaussian_sigma = float(np.sqrt(np.mean(coefficients ** 2)))
    laplace_scale = float(np.mean(np.abs(coefficients)))
    gaussian_sigma = max(gaussian_sigma, 1e-12)
    laplace_scale = max(laplace_scale, 1e-12)
    # Closed-form log-densities (NumPy only: no scipy at import time).
    z = coefficients / gaussian_sigma
    gaussian_ll = float(
        (-0.5 * z * z - np.log(gaussian_sigma) - _HALF_LOG_2PI).sum()
    )
    laplace_ll = float(
        (-np.abs(coefficients) / laplace_scale - np.log(2.0 * laplace_scale)).sum()
    )
    return BandDistributionFit(
        std=std,
        laplace_scale=laplace_scale,
        gaussian_log_likelihood=gaussian_ll,
        laplace_log_likelihood=laplace_ll,
    )


def band_kurtosis(coefficients: np.ndarray) -> float:
    """Excess kurtosis of a band's coefficients.

    Natural-image AC bands are leptokurtic (positive excess kurtosis),
    which is why the Laplace model usually wins the likelihood comparison.
    This is the bias-corrected sample estimator ``G2`` (Fisher's
    definition, the one ``scipy.stats.kurtosis(fisher=True, bias=False)``
    computes); a constant band has no defined kurtosis and returns NaN.
    """
    coefficients = np.asarray(coefficients, dtype=np.float64).ravel()
    n = coefficients.size
    if n < 4:
        raise ValueError("need at least four coefficients for kurtosis")
    mean = coefficients.mean()
    deviations = coefficients - mean
    squared = deviations * deviations
    m2 = squared.mean()
    m4 = (squared * squared).mean()
    if m2 <= (np.finfo(np.float64).eps * mean) ** 2:
        return float("nan")
    return float(
        1.0 / (n - 2) / (n - 3)
        * ((n ** 2 - 1.0) * m4 / m2 ** 2.0 - 3 * (n - 1) ** 2.0)
    )
