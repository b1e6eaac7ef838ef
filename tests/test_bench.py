import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from forcebench import (
    DynamicProtocol,
    FleetParams,
    HingeId,
    OverloadError,
    ProtocolLimitError,
    RigConfig,
    SensorSpec,
    SensorState,
    StaticProtocol,
    degradation_report,
    detect_failures,
    fit_weibull,
    fracture_point,
    iter_fleet,
    run_dynamic,
    run_fleet,
    run_static,
    sample_specimen,
    weibull_cdf,
)
from forcebench.analysis import LoadCurve
from forcebench.bench import FLEET_BLOCK, specimen_rngs
from forcebench.sensor import (
    ALL_HINGES,
    POSITIONS,
    bridge_gains,
    check_hinge_failures,
    failure_threshold_force,
    intact_force,
    stiffness_factor,
)
from forcebench.weibull import WeibullFit

SPEC = SensorSpec()
QUIET_RIG = RigConfig(
    force_resolution_n=0.0, stage_accuracy_um=0.0, nano_accuracy_um=0.0
)


def infinite_state():
    return SensorState(np.full(len(ALL_HINGES), 1e9))


def first_fracture_forces(states, spec=SPEC, side="front"):
    """Failure threshold of each specimen: its first fracture when intact."""
    return failure_threshold_force(
        spec, np.array([s.hinge_strength for s in states]),
        np.array([s.intact for s in states]), side,
    )


# ------------------------------------------------------------ specimen sampling

def test_sample_specimen_deterministic():
    params = FleetParams()
    a = sample_specimen(params, "front", np.random.default_rng(123))
    b = sample_specimen(params, "front", np.random.default_rng(123))
    assert a.hinge_strength.tolist() == b.hinge_strength.tolist()


def test_sample_specimen_honours_custom_spec():
    # weakest link: strengths scale with the tensile gain of the given spec,
    # so the first-fracture force does not depend on it
    custom = SensorSpec(stress_gain_outer=2.0 * SPEC.stress_gain_outer)
    params = FleetParams(count=3, master_seed=4)
    state = sample_specimen(params, "front", np.random.default_rng(7), custom)
    default = sample_specimen(params, "front", np.random.default_rng(7))
    assert first_fracture_forces([state], custom) == pytest.approx(
        first_fracture_forces([default]), rel=1e-12
    )
    protocol = StaticProtocol(side="front")
    for a, b in zip(run_fleet(params, custom, protocol, QUIET_RIG),
                    run_fleet(params, SPEC, protocol, QUIET_RIG)):
        assert fracture_point(a) == fracture_point(b)


def test_first_fracture_distribution_front():
    params = FleetParams()
    rng = np.random.default_rng(50)
    forces = first_fracture_forces(
        [sample_specimen(params, "front", rng) for _ in range(10_000)]
    )
    fit = fit_weibull(forces)
    assert fit.f0 == pytest.approx(1.22, rel=0.02)
    assert fit.beta == pytest.approx(10.69, rel=0.05)


def test_first_fracture_kolmogorov_smirnov():
    params = FleetParams()
    rng = np.random.default_rng(51)
    forces = np.sort(first_fracture_forces(
        [sample_specimen(params, "front", rng) for _ in range(10_000)]
    ))
    n = forces.size
    reference = WeibullFit(f0=1.22, beta=10.69)
    cdf = np.array([weibull_cdf(reference, f) for f in forces])
    ecdf_hi = np.arange(1, n + 1) / n
    ecdf_lo = np.arange(0, n) / n
    d = max(np.max(np.abs(ecdf_hi - cdf)), np.max(np.abs(cdf - ecdf_lo)))
    assert d < 0.02


def test_degenerate_shape_concentrates_strengths():
    params = FleetParams(f0_front_n=1.22, beta_front=1e4)
    rng = np.random.default_rng(52)
    state = sample_specimen(params, "front", rng)
    scale = SPEC.tensile_gain("front") * 1.22 * 4 ** (1 / 1e4)
    for strength in state.hinge_strength:
        assert strength == pytest.approx(scale, rel=1e-3)


# ------------------------------------------------------------------ static runs

def test_static_intact_specimen_smooth_cubic():
    rng = np.random.default_rng(60)
    curve = run_static(infinite_state(), SPEC, StaticProtocol(), QUIET_RIG, rng)
    assert len(curve) == 401
    assert curve.dz_um[-1] == pytest.approx(200.0)
    assert np.all(np.diff(curve.force_n) > 0)
    assert detect_failures(curve) == []
    expected = SPEC.k1_front * 100.0 + SPEC.k3_front * 100.0**3
    assert curve.force_n[200] == pytest.approx(expected, rel=1e-12)


def test_static_mean_strength_specimen_fracture_point():
    strengths = {h: 1e9 for h in ALL_HINGES}
    strengths[HingeId("A", "outer")] = 978.0 * 1.16
    state = SensorState([strengths[h] for h in ALL_HINGES])
    rng = np.random.default_rng(61)
    curve = run_static(state, SPEC, StaticProtocol(), QUIET_RIG, rng)
    events = detect_failures(curve)
    assert events
    i = events[0].sample_index
    assert curve.dz_um[i] == pytest.approx(78.2, abs=0.5)
    assert curve.force_n[i] == pytest.approx(1.16, abs=0.02)


def test_static_failure_shows_one_step_later():
    strengths = {h: 1e9 for h in ALL_HINGES}
    strengths[HingeId("D", "outer")] = 500.0
    state = SensorState([strengths[h] for h in ALL_HINGES])
    rng = np.random.default_rng(62)
    curve = run_static(state, SPEC, StaticProtocol(), QUIET_RIG, rng)
    events = detect_failures(curve)
    assert len(events) == 1
    i = events[0].sample_index
    # the sample at the event index still reads the intact force
    base = SPEC.k1_front * curve.dz_um[i] + SPEC.k3_front * curve.dz_um[i] ** 3
    assert curve.force_n[i] == pytest.approx(base, rel=1e-12)
    after = SPEC.k1_front * curve.dz_um[i + 1] + SPEC.k3_front * curve.dz_um[i + 1] ** 3
    assert curve.force_n[i + 1] == pytest.approx(after * 7 / 8, rel=1e-12)


def test_static_bridge_tracks_failures():
    strengths = {h: 1e9 for h in ALL_HINGES}
    strengths[HingeId("B", "outer")] = 600.0
    state = SensorState([strengths[h] for h in ALL_HINGES])
    rng = np.random.default_rng(63)
    curve = run_static(state, SPEC, StaticProtocol(), QUIET_RIG, rng)
    events = detect_failures(curve)
    i = events[0].sample_index
    ratio_b = curve.voff_mv[i + 1, 1] / curve.voff_mv[i, 1]
    ratio_a = curve.voff_mv[i + 1, 0] / curve.voff_mv[i, 0]
    # arm B halves on top of the force drop; arm A only sees the force drop
    assert ratio_b == pytest.approx(0.5 * ratio_a, rel=1e-9)


def test_static_protocol_limit():
    with pytest.raises(ProtocolLimitError):
        run_static(
            infinite_state(),
            SPEC,
            StaticProtocol(dz_max_um=300.0),
            RigConfig(),
            np.random.default_rng(0),
        )


def test_static_rejects_bad_protocol():
    with pytest.raises(ValueError):
        StaticProtocol(step_um=0.0)
    with pytest.raises(ValueError):
        StaticProtocol(side="left")


@pytest.mark.parametrize("field", ["step_um", "dz_max_um", "v_ges"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_static_rejects_non_finite_protocol(field, value):
    with pytest.raises(ValueError, match="finite"):
        StaticProtocol(**{field: value})


@pytest.mark.parametrize("field", ["max_force_n", "force_resolution_n"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_rig_rejects_non_finite_figures(field, value):
    with pytest.raises(ValueError, match="finite"):
        RigConfig(**{field: value})


@pytest.mark.parametrize("field", ["drift_mv", "f_max_n", "v_ges"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_dynamic_rejects_non_finite_protocol(field, value):
    with pytest.raises(ValueError, match="finite"):
        DynamicProtocol(**{field: value})


@pytest.mark.parametrize("fields", [
    {"count": 1.5}, {"count": 2.0}, {"count": float("nan")}, {"count": "3"},
    {"master_seed": -1}, {"master_seed": 1.5},
])
def test_fleet_rejects_fractional_count_and_negative_seed(fields):
    with pytest.raises(ValueError, match="integer"):
        FleetParams(**fields)


def test_no_failure_below_weakest_link_force():
    # the first recorded fracture force never undercuts the weakest
    # sampled strength divided by the tensile gain
    params = FleetParams(master_seed=0)
    for seed in range(50):
        rng = np.random.default_rng(90_000 + seed)
        state = sample_specimen(params, "front", rng)
        weakest = first_fracture_forces([state])[0]
        curve = run_static(state, SPEC, StaticProtocol(), QUIET_RIG, rng)
        events = detect_failures(curve)
        assert events
        assert curve.force_n[events[0].sample_index] >= weakest - 1e-12


def test_every_arm_loses_a_hinge_by_full_ramp():
    params = FleetParams(master_seed=7, count=40)
    complete = 0
    for side in ("front", "back"):
        protocol = StaticProtocol(side=side)
        for rng in specimen_rngs(params.master_seed, params.count):
            state = sample_specimen(params, side, rng)
            run_static(state, SPEC, protocol, RigConfig(), rng)
            if (~state.intact.reshape(4, 2)).any(axis=1).all():
                complete += 1
    assert complete >= 0.95 * 2 * params.count


# ----------------------------------------------------------------- dynamic runs

def test_dynamic_default_noise_levels():
    rng = np.random.default_rng(70)
    params = FleetParams()
    state = sample_specimen(params, "front", rng)
    log = run_dynamic(state, SPEC, DynamicProtocol(), RigConfig(), rng)
    assert len(log) == 100
    assert log.cycles[0] == 500 and log.cycles[-1] == 50_000
    force_std = log.force_n.std(ddof=1)
    assert 0.00037 / 2 < force_std < 0.00037 * 2
    for j in range(4):
        std = log.voff_mv[:, j].std(ddof=1)
        assert 0.19 / 2 < std < 0.36 * 2
    assert log.force_n.mean() == pytest.approx(0.50352, abs=0.0002)
    assert log.voff_mv[:, 0].mean() == pytest.approx(-191.32, abs=0.15)


def test_dynamic_zero_noise_constant_log():
    quiet = RigConfig(hold_force_noise_n=0.0, hold_offset_noise_mv=0.0)
    rng = np.random.default_rng(71)
    log = run_dynamic(infinite_state(), SPEC, DynamicProtocol(), quiet, rng)
    assert np.ptp(log.force_n) == 0.0
    assert np.ptp(log.voff_mv, axis=0) == pytest.approx([0, 0, 0, 0], abs=0.0)


def test_dynamic_drift_degrades_verdict():
    rng = np.random.default_rng(72)
    params = FleetParams()
    state = sample_specimen(params, "front", rng)
    log = run_dynamic(
        state, SPEC, DynamicProtocol(drift_mv=2.0), RigConfig(), rng
    )
    assert degradation_report(log).verdict == "degraded"


def test_dynamic_stable_verdict_over_seeds():
    params = FleetParams()
    stable = 0
    for seed in range(100):
        rng = np.random.default_rng(8000 + seed)
        state = sample_specimen(params, "front", rng)
        log = run_dynamic(state, SPEC, DynamicProtocol(), RigConfig(), rng)
        if degradation_report(log).verdict == "stable":
            stable += 1
    assert stable >= 95


def test_dynamic_overload_error():
    strengths = {h: 1e9 for h in ALL_HINGES}
    strengths[HingeId("A", "outer")] = 978.0 * 0.3  # fractures at 0.3 N
    state = SensorState([strengths[h] for h in ALL_HINGES])
    with pytest.raises(OverloadError):
        run_dynamic(state, SPEC, DynamicProtocol(), RigConfig(), np.random.default_rng(0))


def test_dynamic_overload_counts_damage_and_load_sharing():
    # the outer ring at 978 MPa breaks at 1.0 N when intact; with B-outer
    # broken its three survivors carry 4/3 of the load and break at 0.75 N
    strengths = {h: 1e9 for h in ALL_HINGES}
    for arm in "ABCD":
        strengths[HingeId(arm, "outer")] = 978.0
    intact = [h != HingeId("B", "outer") for h in ALL_HINGES]
    state = SensorState([strengths[h] for h in ALL_HINGES], intact)
    with pytest.raises(OverloadError, match="0.750 N"):
        run_dynamic(state, SPEC, DynamicProtocol(f_max_n=0.9), RigConfig(),
                    np.random.default_rng(0))
    log = run_dynamic(state, SPEC, DynamicProtocol(f_max_n=0.7), RigConfig(),
                      np.random.default_rng(0))
    assert len(log) == 100
    assert state.intact.tolist() == intact


def test_dynamic_protocol_limits():
    with pytest.raises(ProtocolLimitError):
        run_dynamic(
            infinite_state(),
            SPEC,
            DynamicProtocol(f_max_n=4.0),
            RigConfig(),
            np.random.default_rng(0),
        )
    with pytest.raises(ProtocolLimitError):
        run_dynamic(
            infinite_state(),
            SPEC,
            DynamicProtocol(frequency_hz=25.0),
            RigConfig(),
            np.random.default_rng(0),
        )


def test_dynamic_validates_force_window():
    with pytest.raises(ValueError):
        DynamicProtocol(f_min_n=0.6, f_max_n=0.5)


@pytest.mark.parametrize(
    "field", ["f0_front_n", "beta_front", "f0_back_n", "beta_back"]
)
@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_fleet_rejects_non_finite_weibull_parameters(field, value):
    with pytest.raises(ValueError, match="finite"):
        FleetParams(**{field: value})


# ------------------------------------------------------------------ fleet runs

def test_fleet_deterministic_rerun():
    params = FleetParams(count=5, master_seed=99)
    protocol = StaticProtocol()
    first = run_fleet(params, SPEC, protocol, RigConfig())
    second = run_fleet(params, SPEC, protocol, RigConfig())
    for a, b in zip(first, second):
        assert np.array_equal(a.force_n, b.force_n)
        assert np.array_equal(a.dz_um, b.dz_um)
        assert np.array_equal(a.voff_mv, b.voff_mv, equal_nan=True)
        assert np.array_equal(a.valid, b.valid)


def test_fleet_single_specimen_matches_manual_run():
    params = FleetParams(count=1, master_seed=5)
    fleet_curve = run_fleet(params, SPEC, StaticProtocol(), RigConfig())[0]
    rng = specimen_rngs(params.master_seed, 1)[0]
    state = sample_specimen(params, "front", rng)
    manual = run_static(state, SPEC, StaticProtocol(), RigConfig(), rng)
    assert np.array_equal(fleet_curve.force_n, manual.force_n)
    assert np.array_equal(fleet_curve.voff_mv, manual.voff_mv, equal_nan=True)


def test_fleet_mean_fracture_force():
    params = FleetParams(count=20, master_seed=2024)
    curves = run_fleet(params, SPEC, StaticProtocol(), RigConfig())
    from forcebench import fleet_summary

    summary = fleet_summary(curves)
    assert summary.fracture_force_mean_n == pytest.approx(1.16, abs=0.10)


def test_tensile_ring_dominates_hinge_counts_over_seeds():
    from forcebench import fleet_summary

    for side, key in (("front", "outer"), ("back", "inner")):
        for seed in range(30):
            params = FleetParams(count=20, master_seed=70_000 + seed)
            curves = run_fleet(params, SPEC, StaticProtocol(side=side), RigConfig())
            summary = fleet_summary(curves)
            fraction = summary.hinge_counts[key] / sum(summary.hinge_counts.values())
            assert fraction >= 0.70


def test_budget_stays_below_minimum_fracture_over_seeds():
    from forcebench import fleet_summary, fracture_point

    hits = 0
    for seed in range(100):
        params = FleetParams(count=20, master_seed=31_000 + seed)
        curves = run_fleet(params, SPEC, StaticProtocol(), RigConfig())
        summary = fleet_summary(curves)
        min_observed = min(fracture_point(c)[0] for c in curves)
        if all(row["f_max_n"] < min_observed for row in summary.budget):
            hits += 1
    assert hits >= 95


# ------------------------------------------ block kernel against the old loop
#
# run_static and run_fleet as they were written before the block kernel: one
# specimen at a time, one segment per pass.  Kept as the reference for the
# kernel, which must reproduce every bit.

def reference_run_static(state, spec, protocol, rig, rng):
    if protocol.dz_max_um > rig.dz_max_um:
        raise ProtocolLimitError("protocol ramps beyond the rig")
    n_steps = int(np.floor(protocol.dz_max_um / protocol.step_um + 1e-9)) + 1
    dz_cmd = np.arange(n_steps) * protocol.step_um

    contact_offset = rng.normal(0.0, rig.stage_accuracy_um / 2.0)
    jitter = rng.normal(0.0, rig.nano_accuracy_um / 2.0, size=n_steps)
    force_noise = rng.normal(0.0, rig.force_resolution_n / 2.0, size=n_steps)

    dz_true = np.clip(dz_cmd + contact_offset + jitter, 0.0, None)
    base_force = intact_force(spec, protocol.side, dz_true)

    force_rows = np.empty(n_steps)
    voff_rows = np.empty((n_steps, 4))
    valid_rows = np.empty(n_steps, dtype=bool)

    start = 0
    while start < n_steps:
        factor = stiffness_factor(state.intact)
        seg_true = factor * base_force[start:]
        threshold = failure_threshold_force(
            spec, state.hinge_strength, state.intact, protocol.side
        )
        crossing = np.nonzero(seg_true >= threshold)[0]
        end = start + (int(crossing[0]) if crossing.size else seg_true.size - 1)
        seg = slice(start, end + 1)
        true_force = seg_true[: end + 1 - start]
        force_rows[seg] = true_force + force_noise[seg]
        gains = bridge_gains(spec, state.intact, protocol.side)
        valid = not np.isnan(gains).any()
        valid_rows[seg] = valid
        voff_rows[seg] = true_force[:, None] * gains * protocol.v_ges if valid else np.nan
        if crossing.size:
            check_hinge_failures(spec, state, float(true_force[-1]), protocol.side)
        start = end + 1

    return LoadCurve(
        side=protocol.side, dz_um=dz_cmd, force_n=force_rows, voff_mv=voff_rows,
        valid=valid_rows,
    )


def reference_run_fleet(params, spec, protocol, rig):
    curves = []
    for rng in specimen_rngs(params.master_seed, params.count):
        state = sample_specimen(params, protocol.side, rng, spec)
        curves.append(reference_run_static(state, spec, protocol, rig, rng))
    return curves


def assert_same_curve(a, b):
    assert a.force_n.tobytes() == b.force_n.tobytes()
    assert a.dz_um.tobytes() == b.dz_um.tobytes()
    assert np.array_equal(a.voff_mv, b.voff_mv, equal_nan=True)
    assert np.array_equal(a.valid, b.valid)


DOUBLED = SensorSpec(
    stress_gain_inner=2.0 * SPEC.stress_gain_inner,
    stress_gain_outer=2.0 * SPEC.stress_gain_outer,
    offset_gain_mv={arm: 2.0 * gain for arm, gain in SPEC.offset_gain_mv.items()},
)
protocols = st.builds(
    StaticProtocol,
    side=st.sampled_from(["front", "back"]),
    dz_max_um=st.one_of(st.just(200.0), st.floats(1.0, 200.0)),
    step_um=st.one_of(st.just(0.5), st.floats(0.05, 5.0)),
)
specs = st.sampled_from([SPEC, DOUBLED])
rigs = st.sampled_from([RigConfig(), QUIET_RIG])


@settings(max_examples=25, deadline=None)
@given(
    count=st.sampled_from([1, FLEET_BLOCK - 1, FLEET_BLOCK, FLEET_BLOCK + 1]),
    seed=st.integers(0, 2**32 - 1),
    protocol=protocols,
    spec=specs,
    rig=rigs,
)
def test_fleet_kernel_matches_specimen_loop(count, seed, protocol, spec, rig):
    params = FleetParams(count=count, master_seed=seed)
    expected = reference_run_fleet(params, spec, protocol, rig)
    actual = run_fleet(params, spec, protocol, rig)
    assert len(actual) == count
    for a, b in zip(actual, expected):
        assert_same_curve(a, b)


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    protocol=protocols,
    spec=specs,
    rig=rigs,
    broken_first=st.permutations(range(8)),
    n_broken=st.integers(0, 8),
)
def test_static_kernel_matches_specimen_loop(
    seed, protocol, spec, rig, broken_first, n_broken
):
    rng = np.random.default_rng(seed)
    shared = sample_specimen(FleetParams(), protocol.side, rng, spec)
    for i in broken_first[:n_broken]:
        shared.intact[i] = False
        shared.failure_order.append(ALL_HINGES[i])
    states = [SensorState(shared.hinge_strength, shared.intact, list(shared.failure_order))
              for _ in range(2)]
    state_rng = rng.bit_generator.state
    rngs = [np.random.default_rng(seed) for _ in range(2)]
    for r in rngs:
        r.bit_generator.state = state_rng
    actual = run_static(states[0], spec, protocol, rig, rngs[0])
    expected = reference_run_static(states[1], spec, protocol, rig, rngs[1])
    assert_same_curve(actual, expected)
    assert states[0].intact.tolist() == states[1].intact.tolist()
    assert states[0].failure_order == states[1].failure_order
    assert rngs[0].bit_generator.state == rngs[1].bit_generator.state


@settings(max_examples=60, deadline=None)
@given(protocol=protocols, spec=specs, sample=st.integers(1, 4000), arm=st.integers(0, 3))
def test_force_at_threshold_breaks_like_the_loop(protocol, spec, sample, arm):
    # a quiet ramp whose force meets one hinge's threshold exactly at one sample
    n_steps = int(np.floor(protocol.dz_max_um / protocol.step_um + 1e-9)) + 1
    assume(n_steps >= 2)
    dz = np.arange(n_steps) * protocol.step_um
    force = float(intact_force(spec, protocol.side, dz)[1 + sample % (n_steps - 1)])
    gain = spec.tensile_gain(protocol.side)
    strength = force * gain
    for _ in range(100):
        if strength / gain == force:
            break
        strength = np.nextafter(strength, math.inf if strength / gain < force else 0.0)
    assume(strength / gain == force)
    hinge = 2 * arm + POSITIONS.index(spec.tensile_position(protocol.side))
    strengths = np.full(8, 1e9)
    strengths[hinge] = strength
    states = [SensorState(strengths) for _ in range(2)]
    actual = run_static(states[0], spec, protocol, QUIET_RIG, np.random.default_rng(0))
    expected = reference_run_static(
        states[1], spec, protocol, QUIET_RIG, np.random.default_rng(0)
    )
    assert_same_curve(actual, expected)
    assert states[0].failure_order == states[1].failure_order
    assert states[0].failure_order[0] == ALL_HINGES[hinge]


def test_protocol_limit_raised_before_any_draw():
    rng = np.random.default_rng(5)
    before = rng.bit_generator.state
    state = infinite_state()
    with pytest.raises(ProtocolLimitError):
        run_static(state, SPEC, StaticProtocol(dz_max_um=300.0), RigConfig(), rng)
    assert rng.bit_generator.state == before
    assert state.intact.all() and state.failure_order == []
    with pytest.raises(ProtocolLimitError):
        run_fleet(FleetParams(count=3), SPEC, StaticProtocol(dz_max_um=300.0), RigConfig())


# ------------------------------------------------------------- streamed fleets

def test_iter_fleet_matches_run_fleet_and_run_static():
    # three blocks, the last one partial: each block spawns its own seeds
    params = FleetParams(count=2 * FLEET_BLOCK + 44, master_seed=31)
    protocol, rig = StaticProtocol(side="back"), RigConfig()
    streamed = list(iter_fleet(params, SPEC, protocol, rig))
    fleet = run_fleet(params, SPEC, protocol, rig)
    assert len(streamed) == len(fleet) == params.count
    rngs = specimen_rngs(params.master_seed, params.count)
    for (state, curve), fleet_curve, rng in zip(streamed, fleet, rngs):
        assert_same_curve(curve, fleet_curve)
        alone = sample_specimen(params, protocol.side, rng, SPEC)
        assert_same_curve(curve, run_static(alone, SPEC, protocol, rig, rng))
        assert state.hinge_strength.tobytes() == alone.hinge_strength.tobytes()
        assert state.intact.tolist() == alone.intact.tolist()
        assert state.failure_order == alone.failure_order


def test_fleet_size_bounded_by_numpy_index_type():
    largest = int(np.iinfo(np.intp).max)
    assert FleetParams(count=largest).count == largest
    for count in (largest + 1, 10**400):
        with pytest.raises(ValueError, match="count: expected integer fleet size"):
            FleetParams(count=count)
