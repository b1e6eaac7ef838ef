"""Weibull fracture statistics.

Rank-regression fitting of the two-parameter Weibull failure-probability
law p(F) = 1 - exp(-(F/F0)^beta), its inversion for failure-probability
budgets, the R goodness-of-fit statistic and the distribution moments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DegenerateDataError, InsufficientDataError


# Loads that fit_weibull turns into Python floats at a time: the scalar
# math is what fixes the bits, and a whole 1M-force list at once would
# add 32 MB to the fit's peak memory.
_CDF_CHUNK = 1 << 16


@dataclass(frozen=True)
class WeibullFit:
    """Scale ``f0`` [N], shape ``beta`` and fit quality ``r`` (1 = perfect)."""

    f0: float
    beta: float
    r: float = float("nan")

    def __post_init__(self) -> None:
        if not (0 < self.f0 < math.inf and 0 < self.beta < math.inf):
            raise ValueError("Weibull scale and shape must be positive and finite")
        if self.r > 1 + 1e-12:
            raise ValueError("fit quality r cannot exceed 1")


def median_ranks(n: int) -> np.ndarray:
    """Bernard median-rank plotting positions for ``n`` ordered samples.

    p_i = (i - 0.3) / (n + 0.4) for i = 1..n; strictly increasing, all in
    (0, 1), and symmetric: p_i + p_{n+1-i} = 1.
    """
    if n < 1:
        raise ValueError("need at least one sample")
    i = np.arange(1, n + 1, dtype=float)
    return (i - 0.3) / (n + 0.4)


def weibull_cdf(fit: WeibullFit, f: float) -> float:
    """Failure probability at load ``f`` [N]; 0 at 0, 1 - 1/e at f0."""
    if f < 0:
        raise ValueError("load must be nonnegative")
    return _cdf(f, fit.f0, fit.beta)


def _cdf(f: float, f0: float, beta: float) -> float:
    """1 - exp(-(f/f0)^beta) in Python scalar math, which numpy's vector
    ``**`` and ``expm1`` do not match to the last bit."""
    try:
        t = (f / f0) ** beta
    except OverflowError:
        return 1.0  # saturated anyway: 1 - exp(-t) rounds to 1 for t > ~37
    return -math.expm1(-t)


def invert_failure_probability(fit: WeibullFit, p: float) -> float:
    """Load [N] at which the failure probability reaches ``p``.

    Exact inverse of :func:`weibull_cdf`; requires 0 < p < 1.
    """
    if not 0.0 < p < 1.0:
        raise ValueError("probability must lie strictly between 0 and 1")
    return fit.f0 * (-math.log1p(-p)) ** (1.0 / fit.beta)


def r_parameter(y: Sequence[float], y_prime: Sequence[float]) -> float:
    """Fit quality R = (sum y^2 - sum (y - y')^2) / sum y^2.

    ``y`` are the estimated failure probabilities from the measurement,
    ``y_prime`` the probabilities from the fitted law.  R is 1 exactly
    when y == y' elementwise.
    """
    ya = np.asarray(y, dtype=float)
    yp = np.asarray(y_prime, dtype=float)
    if ya.shape != yp.shape or ya.ndim != 1 or ya.size < 1:
        raise ValueError("y and y_prime must be equal-length 1-d sequences")
    ss = float(np.sum(ya**2))
    if ss == 0.0:
        raise DegenerateDataError("sum of squared reference values is zero")
    return (ss - float(np.sum((ya - yp) ** 2))) / ss


def fit_weibull(forces: Sequence[float]) -> WeibullFit:
    """Fit (f0, beta) to fracture loads by linearized rank regression.

    The loads are sorted ascending (equal positive floats are bit-identical,
    so the order of ties cannot show), assigned median ranks p_i, and
    y = ln(-ln(1 - p_i)) is regressed on x = ln(f_i).  beta is the slope
    and f0 = exp(-intercept/beta).  The reported r compares the empirical
    ranks with the fitted CDF on the probability scale.
    """
    f = np.asarray(forces, dtype=float)
    if f.ndim != 1 or f.size < 3:
        raise InsufficientDataError("need at least three fracture loads to fit")
    if np.any(~np.isfinite(f)) or np.any(f <= 0):
        raise ValueError("fracture loads must be finite and positive")
    f_sorted = np.sort(f)
    if f_sorted[0] == f_sorted[-1]:
        raise DegenerateDataError("all fracture loads are equal; no spread to fit")

    p = median_ranks(f.size)
    x = np.log(f_sorted)
    y = np.log(-np.log1p(-p))
    x_mean, y_mean = x.mean(), y.mean()
    sxx = float(np.sum((x - x_mean) ** 2))
    sxy = float(np.sum((x - x_mean) * (y - y_mean)))
    beta = sxy / sxx
    intercept = y_mean - beta * x_mean
    f0 = math.exp(-intercept / beta)

    WeibullFit(f0=f0, beta=beta)  # rejects a non-finite or non-positive fit
    fitted_p = np.empty(f_sorted.size)
    for i in range(0, f_sorted.size, _CDF_CHUNK):
        loads = f_sorted[i : i + _CDF_CHUNK].tolist()
        fitted_p[i : i + _CDF_CHUNK] = [_cdf(v, f0, beta) for v in loads]
    return WeibullFit(f0=f0, beta=beta, r=r_parameter(p, fitted_p))


def weibull_mean_std(fit: WeibullFit) -> tuple[float, float]:
    """Mean and standard deviation [N] of the fitted fracture load.

    mean = f0 * Gamma(1 + 1/beta);
    std = f0 * sqrt(Gamma(1 + 2/beta) - Gamma(1 + 1/beta)^2).
    """
    g1 = math.exp(math.lgamma(1.0 + 1.0 / fit.beta))
    g2 = math.exp(math.lgamma(1.0 + 2.0 / fit.beta))
    variance = max(g2 - g1 * g1, 0.0)
    return fit.f0 * g1, fit.f0 * math.sqrt(variance)
