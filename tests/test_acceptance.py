"""Acceptance suite: one test and one printed pass/fail line per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
Statistical criteria use fixed seeds; tolerances are stated inline.
"""

import functools
from contextlib import contextmanager

import numpy as np
import pytest

from forcebench import (
    DynamicProtocol,
    FleetParams,
    RigConfig,
    SensorSpec,
    StaticProtocol,
    WeibullFit,
    bridge_offset,
    degradation_report,
    detect_failures,
    displacement_at_force,
    extract_stiffness,
    fit_weibull,
    fleet_summary,
    hinge_stress,
    invert_failure_probability,
    median_ranks,
    overload_factors,
    r_parameter,
    reduce_block,
    resistivity_change,
    run_dynamic,
    run_fleet,
    run_static,
    sample_specimen,
    weibull_cdf,
    weibull_mean_std,
)
from forcebench.analysis import LoadCurve
from forcebench.sensor import PiezoCoefficients, StressState

SPEC = SensorSpec()
RIG = RigConfig()
QUIET_RIG = RigConfig(
    force_resolution_n=0.0, stage_accuracy_um=0.0, nano_accuracy_um=0.0
)
FRONT_FIT = WeibullFit(f0=1.22, beta=10.69)
BACK_FIT = WeibullFit(f0=0.77, beta=7.21)

FRONT_FLEET_SEED = 14
BACK_FLEET_SEED = 9


@contextmanager
def criterion(number, description):
    try:
        yield
    except Exception:
        print(f"ACCEPTANCE {number:2d}: FAIL - {description}")
        raise
    print(f"ACCEPTANCE {number:2d}: PASS - {description}")


@functools.lru_cache(maxsize=None)
def fleet(side):
    seed = FRONT_FLEET_SEED if side == "front" else BACK_FLEET_SEED
    params = FleetParams(count=20, master_seed=seed)
    curves = run_fleet(params, SPEC, StaticProtocol(side=side), RIG)
    return fleet_summary(map(reduce_block, curves), SPEC)


def test_criterion_01_budget_forces_match_published_table():
    with criterion(1, "tolerable-load forces within 0.01 N of the published table"):
        cases = [
            (FRONT_FIT, [(1e-6, 0.34), (1e-5, 0.42), (1e-4, 0.52)]),
            (BACK_FIT, [(1e-6, 0.11), (1e-5, 0.16), (1e-4, 0.21)]),
        ]
        for fit, rows in cases:
            for p, published in rows:
                value = invert_failure_probability(fit, p)
                assert value == pytest.approx(published, abs=0.01), (fit, p, value)


def test_criterion_02_budget_displacements_match_published_table():
    with criterion(2, "budget displacements within 6% (front) / 25% (back)"):
        front_published = [(1e-6, 39.38), (1e-5, 44.35), (1e-4, 49.95)]
        for p, published in front_published:
            dz = displacement_at_force(SPEC, "front", invert_failure_probability(FRONT_FIT, p))
            assert dz == pytest.approx(published, rel=0.06), (p, dz)
        back_published = [(1e-6, 19.35), (1e-5, 23.19), (1e-4, 27.80)]
        for p, published in back_published:
            dz = displacement_at_force(SPEC, "back", invert_failure_probability(BACK_FIT, p))
            assert dz == pytest.approx(published, rel=0.25), (p, dz)


def test_criterion_03_one_ppm_displacement_and_overload_factor():
    with criterion(3, "38.3 um at 0.34 N and a 19.2-fold displacement overload"):
        assert displacement_at_force(SPEC, "front", 0.34) == pytest.approx(38.3, abs=0.5)
        budget = []
        for p in (1e-6, 1e-5, 1e-4):
            f = invert_failure_probability(FRONT_FIT, p)
            budget.append(
                {
                    "probability_ppm": p * 1e6,
                    "f_max_N": f,
                    "dz_max_um": displacement_at_force(SPEC, "front", f),
                }
            )
        from forcebench.analysis import FleetSummary

        summary = FleetSummary(
            side="front", n_curves=20,
            fracture_force_mean_n=1.16, fracture_force_std_n=0.12,
            fracture_dz_mean_um=78.2, fracture_dz_std_um=4.6,
            hinge_counts={}, fit=FRONT_FIT, budget=budget,
        )
        disp_factor, _ = overload_factors(summary, SPEC, nominal_dz_um=2.0)
        assert disp_factor == pytest.approx(19.2, abs=0.3)


def test_criterion_04_distribution_moments_match_reported_averages():
    with criterion(4, "Weibull moments reproduce the reported averages"):
        front_mean, front_std = weibull_mean_std(FRONT_FIT)
        back_mean, _ = weibull_mean_std(BACK_FIT)
        assert front_mean == pytest.approx(1.16, abs=0.01)
        assert back_mean == pytest.approx(0.72, abs=0.01)
        assert front_std == pytest.approx(0.13, abs=0.02)


def test_criterion_05_fit_round_trip_and_scale_equivariance():
    with criterion(5, "10k-sample fit recovery (1%/3%) and exact scale equivariance"):
        rng = np.random.default_rng(1234)
        sample = 1.22 * rng.weibull(10.69, size=10_000)
        fit = fit_weibull(sample)
        assert fit.f0 == pytest.approx(1.22, rel=0.01)
        assert fit.beta == pytest.approx(10.69, rel=0.03)
        small = sample[:200]
        base = fit_weibull(small)
        for c in (1e-3, 3.7, 1e4):
            scaled = fit_weibull(c * small)
            assert scaled.f0 == pytest.approx(c * base.f0, rel=1e-9)
            assert scaled.beta == pytest.approx(base.beta, rel=1e-9)
            assert scaled.r == pytest.approx(base.r, rel=1e-9)


def test_criterion_06_fleet_statistics_match_reported_values():
    with criterion(6, "seeded 20-specimen fleets hit the reported fracture stats"):
        front = fleet("front")
        assert front.fracture_force_mean_n == pytest.approx(1.16, abs=0.10)
        assert front.fracture_dz_mean_um == pytest.approx(78.0, abs=5.0)
        back = fleet("back")
        assert back.fracture_force_mean_n == pytest.approx(0.72, abs=0.09)
        assert back.fracture_dz_mean_um == pytest.approx(55.0, abs=5.0)


def test_criterion_07_failed_hinge_position_shares():
    with criterion(7, "fleets break >=70% tensile-ring hinges (outer front, inner back)"):
        front = fleet("front")
        front_total = sum(front.hinge_counts.values())
        assert front.hinge_counts["outer"] / front_total >= 0.70
        back = fleet("back")
        back_total = sum(back.hinge_counts.values())
        assert back.hinge_counts["inner"] / back_total >= 0.70


def test_criterion_08_stiffness_extraction():
    with criterion(8, "noise-free stiffness extraction within 5% of 7.01 / 6.61 mN/um"):
        params = FleetParams(master_seed=0)
        for side, target in (("front", 7.01), ("back", 6.61)):
            rng = np.random.default_rng(77)
            state = sample_specimen(params, side, rng)
            curve = run_static(state, SPEC, StaticProtocol(side=side), QUIET_RIG, rng)
            assert extract_stiffness(curve) == pytest.approx(target, rel=0.05)


def test_criterion_09_long_term_run_statistics_and_drift_sensitivity():
    with criterion(9, "cyclic run: rel. std < 0.1%/0.2%, stable; 2 mV drift degrades"):
        params = FleetParams()
        rng = np.random.default_rng(501)
        state = sample_specimen(params, "front", rng)
        log = run_dynamic(state, SPEC, DynamicProtocol(), RIG, rng)
        report = degradation_report(log)
        assert report.verdict == "stable"
        assert report.channels["force_N"].rel_std_pct < 0.1
        for arm in "ABCD":
            assert report.channels[f"voff{arm}_mV"].rel_std_pct < 0.2
        rng = np.random.default_rng(501)
        state = sample_specimen(params, "front", rng)
        drifted = run_dynamic(state, SPEC, DynamicProtocol(drift_mv=2.0), RIG, rng)
        assert degradation_report(drifted).verdict == "degraded"


def test_criterion_10_property_suites():
    with criterion(10, "model/statistics property suites over >=100 seeded cases"):
        rng = np.random.default_rng(9001)

        # bridge antisymmetry
        for _ in range(100):
            a, b = rng.uniform(-0.5, 0.5, 2)
            v = float(rng.uniform(0.1, 10))
            assert bridge_offset(a, b, v) == pytest.approx(
                -bridge_offset(b, a, v), rel=1e-12, abs=1e-15
            )

        # transduction linearity
        coeffs = PiezoCoefficients()
        for _ in range(100):
            s1 = StressState(*rng.normal(0, 3e8, 2))
            s2 = StressState(*rng.normal(0, 3e8, 2))
            total = StressState(s1.sigma_l + s2.sigma_l, s1.sigma_t + s2.sigma_t)
            assert resistivity_change(coeffs, total) == pytest.approx(
                resistivity_change(coeffs, s1) + resistivity_change(coeffs, s2),
                rel=1e-12, abs=1e-15,
            )

        # stress sign reversal between load sides
        for _ in range(100):
            f = float(rng.uniform(0, 3.6))
            for pos in ("inner", "outer"):
                assert hinge_stress(SPEC, f, "front", pos) == -hinge_stress(
                    SPEC, f, "back", pos
                )

        # cdf/inverse round trip at 1e-9 relative (representable p only)
        checked = 0
        for _ in range(300):
            fit = WeibullFit(
                f0=float(rng.uniform(0.1, 5)), beta=float(rng.uniform(1, 20))
            )
            f = float(rng.uniform(1e-3, 3.0)) * fit.f0
            p = weibull_cdf(fit, f)
            if 0 < p < 1 - 1e-8:
                assert invert_failure_probability(fit, p) == pytest.approx(f, rel=1e-9)
                checked += 1
        assert checked >= 100

        # median-rank symmetry
        for n in range(1, 101):
            p = median_ranks(n)
            assert p + p[::-1] == pytest.approx(np.ones(n), rel=1e-12)

        # r == 1 iff exact
        for _ in range(100):
            y = rng.uniform(0.05, 0.95, 8)
            assert r_parameter(y, y.copy()) == 1.0
            perturbed = y + rng.choice([-1, 1]) * rng.uniform(1e-6, 0.05)
            assert r_parameter(y, perturbed) < 1.0

        # simulator determinism: bit-identical reruns
        params = FleetParams(count=3, master_seed=606)
        first = run_fleet(params, SPEC, StaticProtocol(), RIG)
        second = run_fleet(params, SPEC, StaticProtocol(), RIG)
        for x, y in zip(first, second):
            assert np.array_equal(x.force_n, y.force_n)
            assert np.array_equal(x.voff_mv, y.voff_mv, equal_nan=True)

        # failure detection is index-exact on constructed fixtures
        for _ in range(100):
            n = 300
            dz = np.linspace(0, 100, n)
            f = 0.02 * dz
            drop_indices = np.sort(
                rng.choice(np.arange(50, n - 2), size=3, replace=False)
            )
            while np.any(np.diff(drop_indices) < 2):
                drop_indices = np.sort(
                    rng.choice(np.arange(50, n - 2), size=3, replace=False)
                )
            for idx in drop_indices:
                f[idx + 1:] -= 0.3
            curve = LoadCurve(
                side="front", dz_um=dz, force_n=f,
                voff_mv=np.zeros((n, 4)), valid=np.ones(n, dtype=bool),
            )
            events = detect_failures(curve)
            assert [e.sample_index for e in events] == [int(i) for i in drop_indices]
