"""Weibull fracture statistics.

Rank-regression fitting of the two-parameter Weibull failure-probability
law p(F) = 1 - exp(-(F/F0)^beta), its inversion for failure-probability
budgets, the R goodness-of-fit statistic and the distribution moments.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from itertools import repeat
from typing import Sequence

import numpy as np

from .errors import DegenerateDataError, InsufficientDataError
from .sensor import NONNEGATIVE, _check_value


# Loads that _cdf_of turns into Python floats at a time: libm's pow and
# expm1 on Python floats, as in _cdf, are what fix the bits of the fitted
# CDF, and a whole 1M-force list at once would add 32 MB to the fit's peak
# memory.
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
    _check_value("f", f, NONNEGATIVE)
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

    Exact inverse of :func:`weibull_cdf`; requires 0 < p < 1 and a finite load.
    """
    if not 0.0 < p < 1.0:
        raise ValueError("probability must lie strictly between 0 and 1")
    try:
        load = fit.f0 * (-math.log1p(-p)) ** (1.0 / fit.beta)
    except OverflowError:
        load = math.inf
    if not math.isfinite(load):
        raise ValueError(f"probability {p!r} inverts to a load beyond the float range")
    return load


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
    squares = np.square(ya)
    ss = float(np.sum(squares))
    if ss == 0.0:
        raise DegenerateDataError("sum of squared reference values is zero")
    np.square(np.subtract(ya, yp, out=squares), out=squares)
    return (ss - float(np.sum(squares))) / ss


def fit_weibull(forces: Sequence[float]) -> WeibullFit:
    """Fit (f0, beta) to fracture loads by linearized rank regression.

    The loads are sorted ascending (equal positive floats are bit-identical,
    so the order of ties cannot show), assigned median ranks p_i, and
    y = ln(-ln(1 - p_i)) is regressed on x = ln(f_i).  beta is the slope
    and f0 = exp(-intercept/beta).  The reported r compares the empirical
    ranks with the fitted CDF on the probability scale, which has the bits
    of the scalar law :func:`_cdf` at every load (see :func:`_cdf_of`).
    """
    f = np.asarray(forces, dtype=float)
    if f.ndim != 1 or f.size < 3:
        raise InsufficientDataError("need at least three fracture loads to fit")
    if np.any(~np.isfinite(f)) or np.any(f <= 0):
        raise ValueError("fracture loads must be finite and positive")
    f_sorted = np.sort(f)
    if f_sorted[0] == f_sorted[-1]:
        raise DegenerateDataError("all fracture loads are equal; no spread to fit")

    # The regression's temporaries are made in place: the same ufuncs in the
    # same order as out of place, so the same bits, in less memory.
    p = median_ranks(f.size)
    x = np.log(f_sorted)
    y = np.negative(p)
    np.log(np.negative(np.log1p(y, out=y), out=y), out=y)  # ln(-ln(1 - p))
    x_mean, y_mean = x.mean(), y.mean()
    x -= x_mean
    y -= y_mean
    y *= x  # (x - x_mean) * (y - y_mean)
    sxx = float(np.sum(np.square(x, out=x)))
    sxy = float(np.sum(y))
    del x, y  # the fitted CDF takes their place in memory
    beta = sxy / sxx
    intercept = y_mean - beta * x_mean
    f0 = math.exp(-intercept / beta)

    WeibullFit(f0=f0, beta=beta)  # rejects a non-finite or non-positive fit
    return WeibullFit(f0=f0, beta=beta, r=r_parameter(p, _cdf_of(f_sorted, f0, beta)))


def _cdf_of(loads: np.ndarray, f0: float, beta: float) -> np.ndarray:
    """:func:`_cdf` at every load, bit for bit, with no Python frame per load.

    numpy's division is IEEE like Python's, and ``map`` puts each quotient
    through the same libm ``pow`` and ``expm1`` as ``_cdf`` (numpy's own
    ``**`` and ``expm1`` differ in the last bit); negation is exact.  A
    chunk where ``pow`` overflows is done again by ``_cdf`` itself.
    """
    cdf = np.empty(loads.size)
    for i in range(0, loads.size, _CDF_CHUNK):
        part, out = loads[i : i + _CDF_CHUNK], cdf[i : i + _CDF_CHUNK]
        try:
            out[:] = np.fromiter(map(math.expm1, map(operator.neg, map(
                pow, (part / f0).tolist(), repeat(beta)))), float, out.size)
            np.negative(out, out=out)
        except OverflowError:
            out[:] = [_cdf(v, f0, beta) for v in part.tolist()]
    return cdf


def weibull_mean_std(fit: WeibullFit) -> tuple[float, float]:
    """Mean and standard deviation [N] of the fitted fracture load.

    mean = f0 * Gamma(1 + 1/beta);
    std = f0 * sqrt(Gamma(1 + 2/beta) - Gamma(1 + 1/beta)^2).
    """
    g1 = math.exp(math.lgamma(1.0 + 1.0 / fit.beta))
    g2 = math.exp(math.lgamma(1.0 + 2.0 / fit.beta))
    variance = max(g2 - g1 * g1, 0.0)
    return fit.f0 * g1, fit.f0 * math.sqrt(variance)
