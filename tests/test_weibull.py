import math

import numpy as np
import pytest

from forcebench import (
    DegenerateDataError,
    InsufficientDataError,
    WeibullFit,
    fit_weibull,
    invert_failure_probability,
    median_ranks,
    r_parameter,
    weibull_cdf,
    weibull_mean_std,
)
from forcebench.weibull import _CDF_CHUNK, _cdf, _cdf_of

FRONT = WeibullFit(f0=1.22, beta=10.69)
BACK = WeibullFit(f0=0.77, beta=7.21)


# ---------------------------------------------------------------- median ranks

def test_median_rank_single_sample():
    assert median_ranks(1) == pytest.approx([0.5])


def test_median_rank_first_of_twenty():
    assert median_ranks(20)[0] == pytest.approx(0.034314, abs=1e-6)


def test_median_rank_symmetry():
    for n in (2, 5, 20, 101):
        p = median_ranks(n)
        assert p + p[::-1] == pytest.approx(np.ones(n), rel=1e-12)


def test_median_ranks_strictly_increasing_in_unit_interval():
    for n in (1, 3, 50):
        p = median_ranks(n)
        assert np.all(np.diff(p) > 0)
        assert np.all((p > 0) & (p < 1))


def test_median_ranks_rejects_zero():
    with pytest.raises(ValueError):
        median_ranks(0)


# ------------------------------------------------------------------------- cdf

def test_cdf_zero_load():
    assert weibull_cdf(FRONT, 0.0) == 0.0


def test_cdf_at_scale_parameter():
    assert weibull_cdf(FRONT, FRONT.f0) == pytest.approx(1 - math.exp(-1), rel=1e-12)


def test_cdf_ten_ppm_checkpoint():
    assert weibull_cdf(FRONT, 0.42) == pytest.approx(1.12e-5, rel=0.02)


def test_cdf_monotone():
    f = np.linspace(0, 4, 200)
    p = [weibull_cdf(FRONT, x) for x in f]
    assert np.all(np.diff(p) >= 0)


def test_cdf_saturates_for_extreme_loads():
    assert weibull_cdf(FRONT, 1e300) == 1.0
    assert weibull_cdf(FRONT, 50.0) == 1.0


def _bits(values):
    return np.asarray(values, dtype=float).view(np.int64)


@pytest.mark.parametrize("f0, beta, loads", [
    # one chunk and a part of the next; numpy's vector law is off in the
    # last bit on some of these loads where its pow and expm1 are not libm's
    (1.22, 10.69, np.random.default_rng(5).uniform(0.3, 1.6, _CDF_CHUNK + 999)),
    # saturated: (f/f0)**beta >= 38, where 1 - exp(-t) rounds to 1
    (1.22, 10.69, 1.22 * np.linspace(38 ** (1 / 10.69), 2.0, 5000)),
    # pow overflows in the second chunk only: that chunk falls back to _cdf
    (1.0, 10.69, np.append(np.linspace(0.5, 2.0, _CDF_CHUNK + 10), [1e30, 1e300])),
], ids=["chunk-boundary", "saturated", "overflow"])
def test_vector_cdf_has_the_bits_of_scalar_cdf(f0, beta, loads):
    expected = [_cdf(v, f0, beta) for v in loads.tolist()]
    assert np.array_equal(_bits(_cdf_of(loads, f0, beta)), _bits(expected))


def test_vector_cdf_is_one_where_saturated_or_overflowing():
    saturated = 1.22 * np.linspace(38 ** (1 / 10.69), 2.0, 50)
    assert np.all(_cdf_of(saturated, 1.22, 10.69) == 1.0)
    assert _cdf_of(np.array([0.5, 1e300]), 1.0, 10.69).tolist() == [
        _cdf(0.5, 1.0, 10.69), 1.0]


# ------------------------------------------------------------------- inversion

def test_invert_ten_ppm_front():
    assert invert_failure_probability(FRONT, 1e-5) == pytest.approx(0.4156, abs=1e-3)


def test_invert_one_ppm_back():
    assert invert_failure_probability(BACK, 1e-6) == pytest.approx(0.113, abs=5e-4)


def test_invert_at_63_percent_returns_scale():
    p = 1 - math.exp(-1)
    assert invert_failure_probability(FRONT, p) == pytest.approx(FRONT.f0, rel=1e-12)


@pytest.mark.parametrize("p", [0.0, 1.0, -0.1, 1.5])
def test_invert_domain_error(p):
    with pytest.raises(ValueError):
        invert_failure_probability(FRONT, p)


def test_cdf_inverse_round_trip():
    # restricted to probabilities where 1-p is still resolvable in float64;
    # closer to 1 the round trip through p loses digits by representation
    rng = np.random.default_rng(11)
    checked = 0
    for _ in range(300):
        fit = WeibullFit(f0=float(rng.uniform(0.1, 5)), beta=float(rng.uniform(1, 20)))
        f = float(rng.uniform(1e-3, 3.0)) * fit.f0
        p = weibull_cdf(fit, f)
        if 0 < p < 1 - 1e-8:
            assert invert_failure_probability(fit, p) == pytest.approx(f, rel=1e-9)
            checked += 1
    assert checked > 100


# ----------------------------------------------------------------- r parameter

def test_r_parameter_perfect_fit():
    y = [0.1, 0.4, 0.8]
    assert r_parameter(y, y) == 1.0


def test_r_parameter_zero_prediction():
    y = [0.1, 0.4, 0.8]
    assert r_parameter(y, [0.0, 0.0, 0.0]) == pytest.approx(0.0, abs=1e-15)


def test_r_parameter_hand_value():
    assert r_parameter([0.2, 0.5, 0.9], [0.25, 0.45, 0.95]) == pytest.approx(
        0.993182, abs=1e-6
    )


def test_r_parameter_one_only_for_exact_fit():
    rng = np.random.default_rng(12)
    for _ in range(100):
        y = rng.uniform(0.05, 0.95, 10)
        noise = rng.normal(0, 0.01, 10)
        if np.all(noise == 0):
            continue
        assert r_parameter(y, y + noise) < 1.0


def test_r_parameter_zero_reference_error():
    with pytest.raises(DegenerateDataError):
        r_parameter([0.0, 0.0], [0.1, 0.2])


# ---------------------------------------------------------------------- moments

def test_mean_matches_front_average():
    mean, _ = weibull_mean_std(FRONT)
    assert mean == pytest.approx(1.164, abs=1e-3)


def test_mean_matches_back_average():
    mean, _ = weibull_mean_std(BACK)
    assert mean == pytest.approx(0.722, abs=1e-3)


def test_moments_degenerate_limit():
    fit = WeibullFit(f0=2.0, beta=1e6)
    mean, std = weibull_mean_std(fit)
    assert mean == pytest.approx(fit.f0, abs=1e-4 * fit.f0)
    assert std < 1e-4 * fit.f0


# -------------------------------------------------------------------- fitting

def weibull_quantiles(f0, beta, p):
    return f0 * (-np.log1p(-np.asarray(p))) ** (1.0 / beta)


def test_fit_recovers_exact_line():
    p = median_ranks(3)
    forces = weibull_quantiles(1.0, 2.0, p)
    fit = fit_weibull(forces)
    assert fit.f0 == pytest.approx(1.0, rel=1e-9)
    assert fit.beta == pytest.approx(2.0, rel=1e-9)
    assert fit.r == pytest.approx(1.0, abs=1e-9)


def test_fit_monte_carlo_round_trip():
    rng = np.random.default_rng(20)
    sample = 1.22 * rng.weibull(10.69, size=10_000)
    fit = fit_weibull(sample)
    assert fit.f0 == pytest.approx(1.22, rel=0.01)
    assert fit.beta == pytest.approx(10.69, rel=0.03)


def test_fit_scale_equivariance():
    rng = np.random.default_rng(21)
    sample = 1.22 * rng.weibull(10.69, size=50)
    base = fit_weibull(sample)
    for c in (1e-3, 0.7, 42.0, 1e4):
        scaled = fit_weibull(c * sample)
        assert scaled.f0 == pytest.approx(c * base.f0, rel=1e-9)
        assert scaled.beta == pytest.approx(base.beta, rel=1e-9)
        assert scaled.r == pytest.approx(base.r, rel=1e-9)


def test_fit_consistency_over_seeds():
    # median fitted beta over many seeds converges to the generator value
    betas, scales = [], []
    for seed in range(100):
        rng = np.random.default_rng(1000 + seed)
        fit = fit_weibull(1.22 * rng.weibull(10.69, size=100_000))
        betas.append(fit.beta)
        scales.append(fit.f0)
    assert np.median(betas) == pytest.approx(10.69, rel=0.01)
    assert np.median(scales) == pytest.approx(1.22, rel=0.01)


def test_fit_quality_brackets_reference_values():
    rs = []
    for seed in range(50):
        rng = np.random.default_rng(2000 + seed)
        rs.append(fit_weibull(1.22 * rng.weibull(10.69, size=20)).r)
    rs = np.array(rs)
    assert np.median(rs) > 0.95
    assert np.all(rs > 0.80) and np.all(rs <= 1.0)


def test_fit_keeps_tie_order_stable():
    forces = [1.0, 1.0, 1.2, 0.9]
    fit = fit_weibull(forces)
    assert fit.f0 > 0 and fit.beta > 0


def test_fit_rejects_short_input():
    with pytest.raises(InsufficientDataError):
        fit_weibull([1.0, 2.0])


def test_fit_rejects_nonpositive_forces():
    with pytest.raises(ValueError):
        fit_weibull([1.0, -0.5, 2.0])


def test_fit_rejects_equal_forces():
    with pytest.raises(DegenerateDataError):
        fit_weibull([1.5, 1.5, 1.5])


def test_fit_validates_parameters():
    with pytest.raises(ValueError):
        WeibullFit(f0=-1.0, beta=2.0)
    with pytest.raises(ValueError):
        WeibullFit(f0=1.0, beta=0.0)


@pytest.mark.parametrize(
    "f0, beta", [(math.inf, 2.0), (math.nan, 2.0), (1.0, math.inf), (1.0, math.nan)]
)
def test_fit_rejects_non_finite_parameters(f0, beta):
    with pytest.raises(ValueError, match="finite"):
        WeibullFit(f0=f0, beta=beta)
