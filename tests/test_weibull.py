import math
import os
import struct
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from forcebench import weibull
from forcebench.weibull import _CDF_CHUNK, _cdf_of, _pairwise_sum

FRONT = WeibullFit(f0=1.22, beta=10.69)
BACK = WeibullFit(f0=0.77, beta=7.21)


def _cdf(f: float, f0: float, beta: float) -> float:
    """The scalar reference law: 1 - exp(-(f/f0)^beta) in Python float math,
    with a load whose power overflows saturated at 1."""
    try:
        t = (f / f0) ** beta
    except OverflowError:
        return 1.0  # 1 - exp(-t) rounds to 1 for t >= 38
    return -math.expm1(-t)


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


@pytest.mark.parametrize("n", [2.5, True, 3.0, "3"])
def test_median_ranks_refuses_a_count_that_is_not_an_integer(n):
    with pytest.raises(ValueError, match=f"^n: expected integer >= 1, got {n!r}$"):
        median_ranks(n)


def test_median_ranks_take_a_numpy_integer():
    assert median_ranks(np.int64(3)).tolist() == median_ranks(3).tolist()


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


@pytest.mark.parametrize("load", [-0.1, math.nan, math.inf])
def test_cdf_rejects_negative_or_non_finite_load(load):
    with pytest.raises(ValueError, match="^f: expected nonnegative finite number"):
        weibull_cdf(FRONT, load)


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
    # pow of these quotients overflows, in the second chunk only
    (1.0, 10.69, np.append(np.linspace(0.5, 2.0, _CDF_CHUNK + 10), [1e30, 1e300])),
    # the floats about 800 ** (1 / beta), where the power is 800
    (1.22, 10.69, 1.22 * np.nextafter(800 ** (1 / 10.69), [0.0, 800.0, np.inf])),
    (1.0, 10.69, np.nextafter(800 ** (1 / 10.69), [0.0, 800.0, np.inf])),
    # beta <= 1: pow of the largest quotient is finite
    (1.0, 1.0, np.array([0.0, 0.3, 1.0, 38.0, 800.0, 1e300, 1.7e308])),
    (2.0, 0.5, np.array([0.0, 1e-300, 0.3, 2.0, 1e4, 1e300, 1.7e308])),
    # a power that overflows for a quotient just above 1
    (2.0, 1e6, 2.0 * np.array([0.0, 0.5, 0.999999, 1.0, 1.000001, 1.00001, 2.0])),
    # a subnormal f0: the quotients overflow to inf
    (5e-324, 10.69, np.array([0.0, 5e-324, 1e-320, 1.0, 1e300])),
    (5e-324, 0.5, np.array([0.0, 5e-324, 1e-320, 1.0, 1e300])),
], ids=["chunk-boundary", "saturated", "overflow", "cap", "cap-unit-scale", "beta-1",
        "beta-0.5", "beta-1e6", "subnormal-f0", "subnormal-f0-beta-0.5"])
def test_vector_cdf_has_the_bits_of_scalar_cdf(f0, beta, loads):
    expected = [_cdf(v, f0, beta) for v in loads.tolist()]
    assert np.array_equal(_bits(_cdf_of(loads, f0, beta)), _bits(expected))


def test_vector_cdf_is_one_where_saturated_or_overflowing():
    saturated = 1.22 * np.linspace(38 ** (1 / 10.69), 2.0, 50)
    assert np.all(_cdf_of(saturated, 1.22, 10.69) == 1.0)
    assert _cdf_of(np.array([0.5, 1e300]), 1.0, 10.69).tolist() == [
        _cdf(0.5, 1.0, 10.69), 1.0]


def _cpu_features():
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy 1.x
        from numpy.core import _multiarray_umath as umath
    return umath.__cpu_features__, umath.__cpu_dispatch__


# the CDF and np.power on one fixed sample, as hex digests of their bits
_DISPATCH_PROBE = """
import hashlib, numpy as np
from forcebench.weibull import _cdf_of
loads = np.random.default_rng(5).uniform(0.3, 1.6, 20000)
for values in (_cdf_of(loads, 1.22, 10.69), np.power(loads / 1.22, 10.69)):
    print(hashlib.sha256(values.tobytes()).hexdigest())
"""


def test_vector_cdf_has_the_same_bits_with_avx512_switched_off():
    features, dispatched = _cpu_features()
    avx512 = [name for name in dispatched if name.startswith("AVX512") or name == "X86_V4"]
    if not (features.get("AVX512F") and avx512):
        pytest.skip("the host or numpy build dispatches no AVX-512 loops")
    here = {**os.environ, "NPY_DISABLE_CPU_FEATURES": ""}
    off = {**os.environ, "NPY_DISABLE_CPU_FEATURES": " ".join(avx512)}
    (cdf_on, power_on), (cdf_off, power_off) = (subprocess.run(
        [sys.executable, "-c", _DISPATCH_PROBE], capture_output=True, text=True, check=True,
        cwd=Path(weibull.__file__).parents[1], env=env, timeout=60).stdout.split()
        for env in (here, off))
    assert power_on != power_off, "numpy's own power did not move: the switch took no effect"
    assert cdf_on == cdf_off


# ------------------------------------------------------------------- inversion

def test_invert_ten_ppm_front():
    assert invert_failure_probability(FRONT, 1e-5) == pytest.approx(0.4156, abs=1e-3)


def test_invert_one_ppm_back():
    assert invert_failure_probability(BACK, 1e-6) == pytest.approx(0.113, abs=5e-4)


def test_invert_at_63_percent_returns_scale():
    p = 1 - math.exp(-1)
    assert invert_failure_probability(FRONT, p) == pytest.approx(FRONT.f0, rel=1e-12)


@pytest.mark.parametrize("p", [0.0, 1.0, -0.1, 1.5, math.nan, True])
def test_invert_domain_error(p):
    expected = f"^p: expected probability strictly between 0 and 1, got {p!r}$"
    with pytest.raises(ValueError, match=expected):
        invert_failure_probability(FRONT, p)


@pytest.mark.parametrize("f0, beta, p, bound", [
    (1.0, 1e-300, 0.9, "beyond"), (1e308, 0.5, 0.9, "beyond"),
    (1.0, 1e-300, 0.5, "below"), (1.0, 0.002, 1e-6, "below"),
], ids=["overflow", "inf", "underflow", "underflow_at_1ppm"])
def test_invert_refuses_a_load_beyond_the_float_range(f0, beta, p, bound):
    # below it the load is 0 N, whose failure probability is 0, not p
    with pytest.raises(ValueError,
                       match=rf"^probability {p!r} inverts to a load {bound} the float range$"):
        invert_failure_probability(WeibullFit(f0=f0, beta=beta), p)


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


@pytest.mark.parametrize("y, y_prime", [
    ([0.1, 0.2], [0.1]), ([[0.1, 0.2]], [[0.1, 0.2]]), ([], []),
], ids=["lengths", "two_dimensional", "empty"])
def test_r_parameter_needs_equal_length_1d_sequences(y, y_prime):
    with pytest.raises(ValueError, match="^y and y_prime must be equal-length 1-d sequences$"):
        r_parameter(y, y_prime)


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


def test_fit_holds_one_array_besides_its_input():
    # at 1M loads the sorted copy sets the fit's peak; the rest is a few
    # leaves of _SUM_LEAF values and _cdf_of's chunk, about 0.08 of an array
    n = 1_000_000
    forces = 1.22 * np.random.default_rng(14).weibull(10.69, size=n)
    tracemalloc.start()
    try:
        fit_weibull(forces)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * 8 * n, f"{peak / (8 * n):.2f} arrays of n"


def _fit_out_of_place(forces) -> tuple[float, float, float]:
    """(f0, beta, r) of the rank regression, each temporary a new array."""
    f = np.sort(np.asarray(forces, dtype=float))
    x = np.log(f)
    y = np.log(-np.log1p(-median_ranks(f.size)))
    x_mean, y_mean = x.mean(), y.mean()
    sxx = float(np.sum(np.square(x - x_mean)))
    sxy = float(np.sum((x - x_mean) * (y - y_mean)))
    beta = sxy / sxx
    f0 = math.exp(-(y_mean - beta * x_mean) / beta)
    return f0, beta, r_parameter(median_ranks(f.size), _cdf_of(f, f0, beta))


FIT_SAMPLES = {
    "n=3": lambda rng: np.array([1.3, 0.9, 1.1]),
    "ties": lambda rng: np.array([1.0, 1.2, 1.0, 0.9, 1.2, 1.2, 0.9]),
    "heavy-tailed": lambda rng: 0.1 + rng.pareto(0.7, size=1000),
    "two-chunks-and-one": lambda rng: 1.22 * rng.weibull(10.69, size=2 * _CDF_CHUNK + 1),
}


@pytest.mark.parametrize("sample", list(FIT_SAMPLES), ids=list(FIT_SAMPLES))
def test_fit_equals_the_out_of_place_fit_bit_for_bit(sample):
    forces = FIT_SAMPLES[sample](np.random.default_rng(29))
    given = forces.copy()
    fit = fit_weibull(forces)
    assert (fit.f0, fit.beta, fit.r) == _fit_out_of_place(forces)
    # R is r_parameter's formula, on the ranks and the CDF of the sorted loads
    ranks, cdf = median_ranks(forces.size), _cdf_of(np.sort(forces), fit.f0, fit.beta)
    ranks_given, cdf_given = ranks.copy(), cdf.copy()
    assert fit.r == r_parameter(ranks, cdf)
    assert np.array_equal(forces, given)
    assert np.array_equal(ranks, ranks_given) and np.array_equal(cdf, cdf_given)


@pytest.mark.parametrize("sample", list(FIT_SAMPLES), ids=list(FIT_SAMPLES))
def test_fit_in_leaves_of_128_equals_the_out_of_place_fit_bit_for_bit(monkeypatch, sample):
    monkeypatch.setattr(weibull, "_SUM_LEAF", 128)  # small samples cross many leaves
    forces = FIT_SAMPLES[sample](np.random.default_rng(33))
    fit = fit_weibull(forces)
    assert (fit.f0, fit.beta, fit.r) == _fit_out_of_place(forces)


@settings(max_examples=60, deadline=None)
@given(eighths=st.integers(0, 37_499), rest=st.integers(1, 8),
       leaf=st.sampled_from([128, 1024, weibull._SUM_LEAF, 1 << 16]),
       seed=st.integers(0, 2**32 - 1))
def test_pairwise_sum_equals_np_sum_bit_for_bit(eighths, rest, leaf, seed):
    n = 8 * eighths + rest  # 1 .. 300,000, every n mod 8
    rng = np.random.default_rng(seed)
    values = rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-5, 5, n)
    leaves = []

    def term(lo, hi):
        leaves.append((lo, hi))
        return values[lo:hi]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(weibull, "_SUM_LEAF", leaf)
        total = _pairwise_sum(term, 0, n)
    assert struct.pack("<d", total) == struct.pack("<d", np.sum(values))
    # the leaves tile 0 .. n in order, none longer than the leaf
    assert [lo for lo, _ in leaves] == [0] + [hi for _, hi in leaves[:-1]]
    assert leaves[-1][1] == n and all(hi - lo <= leaf for lo, hi in leaves)


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


@pytest.mark.parametrize("forces", [
    [1e300, 1e300, 1.0000000000000002e300],  # the regression's spread sxx is 0
    [4.1339425312241295e189, 4.1339425312241295e189, 4.13394253122413e189],  # sxx is not
])
def test_fit_rejects_distinct_forces_of_equal_logarithms(forces):
    assert len(set(forces)) == 2 and len(set(np.log(forces))) == 1
    with pytest.raises(DegenerateDataError, match="equal logarithms"):
        fit_weibull(forces)


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


@pytest.mark.parametrize("name", ["f0", "beta"])
def test_fit_refuses_a_boolean_parameter(name):
    with pytest.raises(ValueError, match=f"^{name}: expected positive finite number, got True$"):
        WeibullFit(**{"f0": 1.0, "beta": 2.0, name: True})


@pytest.mark.parametrize("r", [1.0 + 1e-15, math.inf, -math.inf, "0.9"])
def test_fit_refuses_a_fit_quality_above_one_or_infinite(r):
    with pytest.raises(ValueError, match="^r: expected finite number at most 1, or nan"):
        WeibullFit(f0=1.0, beta=2.0, r=r)
