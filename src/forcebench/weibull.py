"""Weibull fracture statistics.

Rank-regression fitting of the two-parameter Weibull failure-probability
law p(F) = 1 - exp(-(F/F0)^beta), its inversion for failure-probability
budgets, the R goodness-of-fit statistic and the distribution moments.
The law is computed one way, by :func:`_cdf_of`; a value that breaks its
declared rule (see ``sensor``) raises a ``ValueError`` that names it.
:func:`fit_weibull` holds at most two float arrays of its input's length
besides the input: it makes its temporaries in place, takes the logarithms
in the sorted loads' buffer and sorts the input again for the CDF, makes
the median ranks again for R rather than keep them, and computes R in the
buffers of those ranks and of the CDF.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from itertools import repeat
from typing import Sequence

import numpy as np

from .errors import DegenerateDataError, InsufficientDataError
from .sensor import (AT_MOST_ONE, NONNEGATIVE, POSITIVE, POSITIVE_INT, PROBABILITY,
                     Ruled, _check_value)


# Loads that _cdf_of turns into Python floats at a time: libm's pow and
# expm1 on Python floats are what fix the bits of the fitted CDF.  The
# chunk's list costs 32 bytes a load (a float and its pointer), 0.26 MB
# here against 32 MB for a whole 1M-force list; at 1M loads, 2^13 and 2^16
# take the same time.
_CDF_CHUNK = 1 << 13


@dataclass(frozen=True)
class WeibullFit(Ruled):
    """Scale ``f0`` [N], shape ``beta`` and fit quality ``r`` (1 = perfect)."""

    f0: float = field(metadata=POSITIVE)
    beta: float = field(metadata=POSITIVE)
    r: float = field(default=float("nan"), metadata=AT_MOST_ONE)


def median_ranks(n: int) -> np.ndarray:
    """Bernard median-rank plotting positions for ``n`` ordered samples.

    p_i = (i - 0.3) / (n + 0.4) for i = 1..n; strictly increasing, all in
    (0, 1), and symmetric: p_i + p_{n+1-i} = 1.
    """
    _check_value("n", n, POSITIVE_INT)
    p = np.arange(1, n + 1, dtype=float)
    p -= 0.3
    p /= n + 0.4
    return p


def weibull_cdf(fit: WeibullFit, f: float) -> float:
    """Failure probability at load ``f`` [N]; 0 at 0, 1 - 1/e at f0."""
    _check_value("f", f, NONNEGATIVE)
    return float(_cdf_of(np.array([f], dtype=float), fit.f0, fit.beta)[0])


def invert_failure_probability(fit: WeibullFit, p: float) -> float:
    """Load [N] at which the failure probability reaches ``p``.

    Exact inverse of :func:`weibull_cdf`; requires 0 < p < 1 and a finite, nonzero load.
    """
    _check_value("p", p, PROBABILITY)
    try:
        load = fit.f0 * (-math.log1p(-p)) ** (1.0 / fit.beta)
    except OverflowError:
        load = math.inf
    if not math.isfinite(load):
        raise ValueError(f"probability {p!r} inverts to a load beyond the float range")
    if load == 0.0:  # underflow: the cdf of 0 N is 0, not p
        raise ValueError(f"probability {p!r} inverts to a load below the float range")
    return load


def r_parameter(y: Sequence[float], y_prime: Sequence[float]) -> float:
    """Fit quality R = (sum y^2 - sum (y - y')^2) / sum y^2.

    ``y`` are the estimated failure probabilities from the measurement,
    ``y_prime`` the probabilities from the fitted law.  R is 1 exactly
    when y == y' elementwise.
    """
    ya = np.array(y, dtype=float)  # copies: _r_of works in their buffers
    yp = np.array(y_prime, dtype=float)
    if ya.shape != yp.shape or ya.ndim != 1 or ya.size < 1:
        raise ValueError("y and y_prime must be equal-length 1-d sequences")
    return _r_of(ya, yp)


def _r_of(y: np.ndarray, y_prime: np.ndarray) -> float:
    """R of :func:`r_parameter`, computed in place: ``y_prime`` ends as
    y - y' squared, ``y`` as y squared."""
    np.subtract(y, y_prime, out=y_prime)
    ss = float(np.sum(np.square(y, out=y)))
    if ss == 0.0:
        raise DegenerateDataError("sum of squared reference values is zero")
    return (ss - float(np.sum(np.square(y_prime, out=y_prime)))) / ss


def fit_weibull(forces: Sequence[float]) -> WeibullFit:
    """Fit (f0, beta) to fracture loads by linearized rank regression.

    The loads are sorted ascending (equal positive floats are bit-identical,
    so the order of ties cannot show), assigned median ranks p_i, and
    y = ln(-ln(1 - p_i)) is regressed on x = ln(f_i).  beta is the slope
    and f0 = exp(-intercept/beta).  The reported r compares the empirical
    ranks with the fitted CDF :func:`_cdf_of` on the probability scale.
    """
    f = np.asarray(forces, dtype=float)
    if f.ndim != 1 or f.size < 3:
        raise InsufficientDataError("need at least three fracture loads to fit")
    if np.any(~np.isfinite(f)) or np.any(f <= 0):
        raise ValueError("fracture loads must be finite and positive")
    x = np.sort(f)
    if x[0] == x[-1]:
        raise DegenerateDataError("all fracture loads are equal; no spread to fit")

    # The regression's temporaries are made in place: the same ufuncs in the
    # same order as out of place, so the same bits, in less memory.
    np.log(x, out=x)  # ln of the sorted loads, which are sorted again for the CDF
    if x[0] == x[-1]:  # distinct loads whose logarithms round to one value
        raise DegenerateDataError("all fracture loads have equal logarithms; no spread to fit")
    y = median_ranks(f.size)
    np.negative(y, out=y)
    np.log(np.negative(np.log1p(y, out=y), out=y), out=y)  # ln(-ln(1 - p))
    x_mean, y_mean = x.mean(), y.mean()
    x -= x_mean
    y -= y_mean
    y *= x  # (x - x_mean) * (y - y_mean)
    sxx = float(np.sum(np.square(x, out=x)))
    sxy = float(np.sum(y))
    del x, y  # the loads sorted again and their CDF take their place in memory
    beta = sxy / sxx
    intercept = y_mean - beta * x_mean
    f0 = math.exp(-intercept / beta)

    WeibullFit(f0=f0, beta=beta)  # rejects a non-finite or non-positive fit
    cdf = _cdf_of(np.sort(f), f0, beta)  # the sorted copy is freed on return
    return WeibullFit(f0=f0, beta=beta, r=_r_of(median_ranks(f.size), cdf))


def _cdf_of(loads: np.ndarray, f0: float, beta: float) -> np.ndarray:
    """1 - exp(-(f/f0)^beta) at every load, with no Python frame per load.

    ``map`` puts each quotient through libm's ``pow`` and ``expm1`` on
    Python floats (numpy's own ``**`` and ``expm1`` differ in the last bit).
    For beta > 1 a quotient is capped where (f/f0)^beta is 800, so ``pow``
    cannot overflow and, as 1 - exp(-t) rounds to 1 for t >= 38, no bit
    changes; for beta <= 1, (f/f0)^beta <= max(f/f0, 1) needs no cap.
    """
    cdf = np.empty(loads.size)
    with np.errstate(over="ignore"):  # a quotient beyond the float range is inf
        for i in range(0, loads.size, _CDF_CHUNK):
            quotient, out = loads[i : i + _CDF_CHUNK] / f0, cdf[i : i + _CDF_CHUNK]
            if beta > 1:
                np.minimum(quotient, 800.0 ** (1.0 / beta), out=quotient)
            out[:] = np.fromiter(map(math.expm1, map(operator.neg, map(
                pow, quotient.tolist(), repeat(beta)))), float, out.size)
    return np.negative(cdf, out=cdf)


def weibull_mean_std(fit: WeibullFit) -> tuple[float, float]:
    """Mean and standard deviation [N] of the fitted fracture load.

    mean = f0 * Gamma(1 + 1/beta);
    std = f0 * sqrt(Gamma(1 + 2/beta) - Gamma(1 + 1/beta)^2).
    """
    g1 = math.exp(math.lgamma(1.0 + 1.0 / fit.beta))
    g2 = math.exp(math.lgamma(1.0 + 2.0 / fit.beta))
    variance = max(g2 - g1 * g1, 0.0)
    return fit.f0 * g1, fit.f0 * math.sqrt(variance)
