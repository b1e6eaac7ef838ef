"""Weibull fracture statistics.

Rank-regression fitting of the two-parameter Weibull failure-probability
law p(F) = 1 - exp(-(F/F0)^beta), its inversion for failure-probability
budgets, the R goodness-of-fit statistic and the distribution moments.
The law is computed one way, by :func:`_cdf_of`, in numpy loops over the C
library's ``pow`` and ``expm1``; a value that breaks its declared rule (see
``sensor``) raises a ``ValueError`` that names it.
:func:`fit_weibull` holds one sorted copy of its input and nothing else of
its length: it makes the logarithms, the median ranks, the regression's
products and the CDF one leaf of at most ``_SUM_LEAF`` loads at a time, and
adds the leaves up in numpy's own pairwise order, so every sum has the bits
of ``np.sum`` over the whole array.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import DegenerateDataError, InsufficientDataError
from .sensor import (AT_MOST_ONE, NONNEGATIVE, POSITIVE, POSITIVE_INT, PROBABILITY,
                     Ruled, _check_value)


# Loads that _cdf_of puts through libm's expm1 at a time.  Its complex buffer
# costs 16 bytes a load, 0.13 MB here against 16 MB for 1M loads at once, which
# took longer.
_CDF_CHUNK = 1 << 13
# Values that _pairwise_sum makes and sums at a time, at least 128.  A leaf's
# arrays stay under malloc's 128 kB mmap threshold: at 2^16 each was mapped and
# faulted in anew, and a fit of 1M loads in a fresh process took 20 % longer.
_SUM_LEAF = 1 << 14


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
    return _ranks(n, 0, n)


def _ranks(n: int, lo: int, hi: int) -> np.ndarray:
    """Median ranks lo+1 .. hi of ``n``: a slice of :func:`median_ranks`, bit for bit."""
    p = np.arange(lo + 1, hi + 1, dtype=float)
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
    ``y_prime`` the probabilities from the fitted law, both finite.  R is
    1 exactly when y == y' elementwise.
    """
    ya, yp = np.asarray(y, dtype=float), np.asarray(y_prime, dtype=float)
    if ya.shape != yp.shape or ya.ndim != 1 or ya.size < 1:
        raise ValueError("y and y_prime must be equal-length 1-d sequences")
    if not (np.isfinite(ya).all() and np.isfinite(yp).all()):
        raise ValueError("y and y_prime must be finite")
    return _r_of(float(np.sum(np.square(ya))), float(np.sum(np.square(ya - yp))))


def _r_of(ss: float, residual_ss: float) -> float:
    """R of :func:`r_parameter` from the sums of y^2 and of (y - y')^2."""
    if ss == 0.0:
        raise DegenerateDataError("sum of squared reference values is zero")
    return (ss - residual_ss) / ss


def _pairwise_sum(term, lo: int, hi: int) -> float:
    """``np.sum`` of the array ``term(lo, hi)``, bit for bit, made and summed in
    leaves of at most ``_SUM_LEAF`` values.  numpy splits more than 128 values
    at half their count, rounded down to a multiple of 8, and adds the halves'
    sums; so does this, down to leaves that are nodes of numpy's tree."""
    if hi - lo <= _SUM_LEAF:
        return float(np.sum(term(lo, hi)))
    half = (hi - lo) // 2
    mid = lo + half - half % 8
    return _pairwise_sum(term, lo, mid) + _pairwise_sum(term, mid, hi)


def fit_weibull(forces: Sequence[float]) -> WeibullFit:
    """Fit (f0, beta) to fracture loads by linearized rank regression.

    The loads are sorted ascending (equal positive floats are bit-identical,
    so the order of ties cannot show), assigned median ranks p_i, and
    y = ln(-ln(1 - p_i)) is regressed on x = ln(f_i).  beta is the slope
    and f0 = exp(-intercept/beta).  The reported r compares the empirical
    ranks with the fitted CDF :func:`_cdf_of` on the probability scale.
    """
    loads = np.array(forces, dtype=float)  # the one copy, sorted in place
    if loads.ndim != 1 or loads.size < 3:
        raise InsufficientDataError("need at least three fracture loads to fit")
    loads.sort()  # NaN sorts last
    n = loads.size
    if not (loads[0] > 0 and loads[-1] < math.inf):
        raise ValueError("fracture loads must be finite and positive")
    if loads[0] == loads[-1]:
        raise DegenerateDataError("all fracture loads are equal; no spread to fit")
    if np.log(loads[0]) == np.log(loads[-1]):  # distinct loads, logarithms rounded to one
        raise DegenerateDataError("all fracture loads have equal logarithms; no spread to fit")

    # A leaf's values have the bits of the whole-array regression's: the same ufuncs in order.
    def x(lo, hi, mean=0.0):  # ln of the sorted loads, less mean (less 0 is no change)
        return np.log(loads[lo:hi]) - mean

    def y(lo, hi, mean=0.0):  # ln(-ln(1 - p)), less mean
        return np.log(-np.log1p(-_ranks(n, lo, hi))) - mean

    x_mean, y_mean = _pairwise_sum(x, 0, n) / n, _pairwise_sum(y, 0, n) / n
    sxx = _pairwise_sum(lambda lo, hi: np.square(x(lo, hi, x_mean)), 0, n)
    sxy = _pairwise_sum(lambda lo, hi: x(lo, hi, x_mean) * y(lo, hi, y_mean), 0, n)
    beta = sxy / sxx
    intercept = y_mean - beta * x_mean
    f0 = math.exp(-intercept / beta)

    WeibullFit(f0=f0, beta=beta)  # rejects a non-finite or non-positive fit
    ss = _pairwise_sum(lambda lo, hi: np.square(_ranks(n, lo, hi)), 0, n)
    residual_ss = _pairwise_sum(lambda lo, hi: np.square(
        _ranks(n, lo, hi) - _cdf_of(loads[lo:hi], f0, beta)), 0, n)
    return WeibullFit(f0=f0, beta=beta, r=_r_of(ss, residual_ss))


def _cdf_of(loads: np.ndarray, f0: float, beta: float) -> np.ndarray:
    """1 - exp(-(f/f0)^beta) at every load, with no Python frame per load.

    The bits are libm's on every CPU.  ``np.float_power``'s float64 loop is
    numpy's generic loop over libm's ``pow``, and its complex128 ``expm1``
    loop gives expm1(re)·cos(im) - 2·sin(im/2)², which at im = 0 is libm's
    ``expm1(re)``; no CPU feature dispatches either (numpy's own float64
    ``power`` and ``expm1`` are SIMD loops that differ in the last bit).  A
    power beyond the float range is inf, and expm1(-inf) = -1 gives 1.
    """
    cdf = np.empty(loads.size)
    buf = np.empty(min(loads.size, _CDF_CHUNK), dtype=complex)
    with np.errstate(over="ignore"):  # a quotient or power beyond the float range is inf
        for i in range(0, loads.size, _CDF_CHUNK):
            t = np.float_power(loads[i : i + _CDF_CHUNK] / f0, beta)
            z = buf[: t.size]
            np.negative(t, out=z.real)
            z.imag = 0.0  # expm1 left exp(re)·sin(0) there, 0 unless re was NaN
            np.expm1(z, out=z)
            np.negative(z.real, out=cdf[i : i + t.size])
    return cdf


def weibull_mean_std(fit: WeibullFit) -> tuple[float, float]:
    """Mean and standard deviation [N] of the fitted fracture load.

    mean = f0 * Gamma(1 + 1/beta);
    std = f0 * sqrt(Gamma(1 + 2/beta) - Gamma(1 + 1/beta)^2); a fit whose
    mean or std is beyond the float range is refused.
    """
    try:
        g1 = math.exp(math.lgamma(1.0 + 1.0 / fit.beta))
        g2 = math.exp(math.lgamma(1.0 + 2.0 / fit.beta))
    except OverflowError:
        g1 = g2 = math.inf
    variance = max(g2 - g1 * g1, 0.0)  # inf - inf is nan, and max keeps it
    mean, std = fit.f0 * g1, fit.f0 * math.sqrt(variance)
    if not (math.isfinite(mean) and math.isfinite(std)):
        raise ValueError(f"{fit!r} has a mean or standard deviation beyond the float range")
    return mean, std
