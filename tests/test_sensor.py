import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from forcebench import (
    DegenerateBridgeError,
    FleetParams,
    HingeId,
    PiezoCoefficients,
    SensorSpec,
    SensorState,
    StressState,
    bridge_offset,
    bridge_offsets_at_load,
    check_hinge_failures,
    displacement_at_force,
    force_at_displacement,
    hinge_stress,
    resistivity_change,
)
from forcebench.sensor import (
    ALL_HINGES,
    ARMS,
    OFFSET_GAIN_MV,
    POSITIONS,
    STRESS_GAIN_INNER_FRONT,
    STRESS_GAIN_OUTER_FRONT,
    bridge_gains,
    effective_stresses,
    failure_threshold_force,
    intact_force,
    stiffness_factor,
)


@pytest.fixture
def spec():
    return SensorSpec()


def make_state(strength_mpa=5000.0, broken=(), **overrides):
    """A specimen with the given strengths whose hinges named in ``broken`` are gone."""
    strengths = {h: strength_mpa for h in ALL_HINGES}
    for key, value in overrides.items():
        arm, pos = key.split("_")
        strengths[HingeId(arm, pos)] = value
    intact = [str(h) not in broken for h in ALL_HINGES]
    return SensorState([strengths[h] for h in ALL_HINGES], intact)


# ---------------------------------------------------------------- transduction

def test_resistivity_change_stress_free():
    assert resistivity_change(PiezoCoefficients(), StressState(0.0, 0.0)) == 0.0


def test_resistivity_change_tensile_value():
    # 71.8e-11 1/Pa * 489 MPa
    value = resistivity_change(PiezoCoefficients(), StressState(489e6, 0.0))
    assert value == pytest.approx(0.3511, abs=1e-4)


def test_resistivity_change_equal_biaxial():
    value = resistivity_change(PiezoCoefficients(), StressState(100e6, 100e6))
    assert value == pytest.approx(5.5e-3, rel=1e-9)


def test_resistivity_change_linear_in_stress():
    coeffs = PiezoCoefficients()
    rng = np.random.default_rng(1)
    for _ in range(100):
        a = StressState(*rng.normal(0, 3e8, 2))
        b = StressState(*rng.normal(0, 3e8, 2))
        c = float(rng.normal(0, 5))
        combined = StressState(a.sigma_l + b.sigma_l, a.sigma_t + b.sigma_t)
        assert resistivity_change(coeffs, combined) == pytest.approx(
            resistivity_change(coeffs, a) + resistivity_change(coeffs, b), rel=1e-12, abs=1e-15
        )
        scaled = StressState(c * a.sigma_l, c * a.sigma_t)
        assert resistivity_change(coeffs, scaled) == pytest.approx(
            c * resistivity_change(coeffs, a), rel=1e-12, abs=1e-15
        )


def test_bridge_offset_balanced_is_zero():
    for x in (-0.3, 0.0, 0.17, 0.9):
        assert bridge_offset(x, x, 4.7) == 0.0


def test_bridge_offset_antisymmetric_pair():
    assert bridge_offset(-0.1, 0.1, 1.0) == pytest.approx(-0.1, rel=1e-12)


def test_bridge_offset_zero_supply_stress_free():
    assert bridge_offset(0.0, 0.0, 5.0) == 0.0


def test_bridge_offset_antisymmetry_property():
    rng = np.random.default_rng(2)
    for _ in range(200):
        a, b = rng.uniform(-0.5, 0.5, 2)
        v = rng.uniform(0.1, 10.0)
        assert bridge_offset(a, b, v) == pytest.approx(-bridge_offset(b, a, v), rel=1e-12, abs=1e-15)


def test_bridge_offset_degenerate_denominator():
    with pytest.raises(DegenerateBridgeError):
        bridge_offset(-1.0, -1.0, 1.0)


# ---------------------------------------------------------------- hinge stress

def test_hinge_stress_front_outer_at_half_newton(spec):
    assert hinge_stress(spec, 0.5, "front", "outer") == pytest.approx(489.0)


def test_hinge_stress_front_inner_at_half_newton(spec):
    assert hinge_stress(spec, 0.5, "front", "inner") == pytest.approx(-373.0)


def test_hinge_stress_back_reverses_front(spec):
    assert hinge_stress(spec, 0.5, "back", "outer") == pytest.approx(-489.0)


def test_hinge_stress_zero_force(spec):
    assert hinge_stress(spec, 0.0, "front", "inner") == 0.0


def test_hinge_stress_sign_reversal_property(spec):
    rng = np.random.default_rng(3)
    for _ in range(100):
        f = float(rng.uniform(0, 3.6))
        for pos in ("inner", "outer"):
            assert hinge_stress(spec, f, "front", pos) == -hinge_stress(spec, f, "back", pos)


def test_hinge_stress_rejects_negative_force(spec):
    with pytest.raises(ValueError):
        hinge_stress(spec, -0.1, "front", "outer")


@pytest.mark.parametrize("f_z", [np.nan, np.inf])
def test_hinge_stress_rejects_non_finite_force(spec, f_z):
    with pytest.raises(ValueError, match="^f_z: expected nonnegative finite number"):
        hinge_stress(spec, f_z, "front", "outer")


# ------------------------------------------------------- force <-> displacement

def test_force_zero_displacement(spec):
    assert force_at_displacement(spec, "front", 0.0) == 0.0


def test_force_at_fracture_anchor_front(spec):
    assert force_at_displacement(spec, "front", 78.2) == pytest.approx(1.16, abs=1e-9)


def test_force_at_fracture_anchor_back(spec):
    assert force_at_displacement(spec, "back", 55.1) == pytest.approx(0.72, abs=1e-9)


def test_force_near_table_checkpoint(spec):
    assert force_at_displacement(spec, "front", 44.35) == pytest.approx(0.423, rel=0.02)


def test_force_strictly_increasing(spec):
    rng = np.random.default_rng(4)
    for side in ("front", "back"):
        dz = np.sort(rng.uniform(0, 200, 50))
        f = [force_at_displacement(spec, side, z) for z in dz]
        assert np.all(np.diff(f) > 0)


def test_displacement_at_zero_force(spec):
    assert displacement_at_force(spec, "front", 0.0) == 0.0


def test_displacement_at_one_ppm_budget_force(spec):
    assert displacement_at_force(spec, "front", 0.34) == pytest.approx(38.3, abs=0.5)


def test_displacement_back_anchor(spec):
    assert displacement_at_force(spec, "back", 0.72) == pytest.approx(55.1, abs=1e-6)


def test_displacement_force_round_trip(spec):
    rng = np.random.default_rng(5)
    for side in ("front", "back"):
        for _ in range(50):
            dz = float(rng.uniform(0, 200))
            f = force_at_displacement(spec, side, dz)
            assert displacement_at_force(spec, side, f) == pytest.approx(dz, abs=1e-6)


def test_displacement_residual_below_tolerance(spec):
    for f in (0.05, 0.34, 1.16, 5.0):
        z = displacement_at_force(spec, "front", f)
        assert abs(force_at_displacement(spec, "front", z) - f) < 1e-9


def test_degraded_sensor_is_softer(spec):
    # one factor of intact/8 per failed hinge, one factor per row of a block
    intact = np.array([make_state(broken=broken).intact for broken in (
        (), ("B-outer",), ("B-outer", "A-outer"), tuple(map(str, ALL_HINGES)),
    )])
    assert stiffness_factor(intact) == pytest.approx([1.0, 7 / 8, (6 / 8) ** 2, 0.0])
    assert stiffness_factor(intact[1]) == pytest.approx(7 / 8)
    assert force_at_displacement(spec, "front", 50.0) == intact_force(spec, "front", 50.0)


# -------------------------------------------------------------- bridge signals

def test_offsets_zero_at_zero_force(spec):
    offsets = bridge_offsets_at_load(spec, 0.0, "front", 1.0)
    assert offsets.tolist() == [0.0, 0.0, 0.0, 0.0]


def test_offsets_match_bench_measurement(spec):
    offsets = bridge_offsets_at_load(spec, 0.5, "front", 1.0)
    assert offsets == pytest.approx([-191.3, -192.3, -190.4, -191.7], abs=0.5)


def test_offsets_negative_under_front_load(spec):
    assert np.all(bridge_offsets_at_load(spec, 1.0, "front", 1.0) < 0)


def test_offsets_bilinear_in_force_and_supply(spec):
    a = bridge_offsets_at_load(spec, 0.5, "front", 1.0)
    b = bridge_offsets_at_load(spec, 0.25, "front", 2.0)
    assert a == pytest.approx(b, rel=1e-12)


def test_offsets_back_side_reverses_sign(spec):
    front = bridge_offsets_at_load(spec, 0.5, "front", 1.0)
    back = bridge_offsets_at_load(spec, 0.5, "back", 1.0)
    assert back == pytest.approx(-front)


def test_failed_hinge_halves_arm_offset(spec):
    state = make_state(broken=("B-outer",))
    intact = bridge_offsets_at_load(spec, 0.5, "front", 1.0)
    damaged = bridge_offsets_at_load(spec, 0.5, "front", 1.0, state)
    assert damaged[ARMS.index("B")] == pytest.approx(0.5 * intact[ARMS.index("B")])
    assert damaged[ARMS.index("A")] == pytest.approx(intact[ARMS.index("A")])
    assert not np.isnan(damaged).any()


def test_arm_c_failure_invalidates_all_signals(spec):
    state = make_state(broken=("C-outer",))
    offsets = bridge_offsets_at_load(spec, 0.5, "front", 1.0, state)
    assert np.isnan(offsets).all()


def test_displacement_reports_newton_failure():
    spec = SensorSpec(k1_front=1e-300, k3_front=0.0)
    with pytest.raises(ValueError, match="converge"):
        displacement_at_force(spec, "front", 1e300)


# ------------------------------------------------------------- fracture checks

def test_no_failures_at_zero_force(spec):
    state = make_state()
    assert check_hinge_failures(spec, state, 0.0, "front") == []


def test_whole_outer_ring_fails_when_overloaded(spec):
    # outer stress is 978 MPa at 1 N, above the 900 MPa strengths
    state = make_state(
        A_outer=900.0, B_outer=900.0, C_outer=900.0, D_outer=900.0
    )
    failed = check_hinge_failures(spec, state, 1.0, "front")
    assert sorted(str(h) for h in failed) == [
        "A-outer", "B-outer", "C-outer", "D-outer"
    ]


def test_back_load_spares_compressed_outer_ring(spec):
    state = make_state(
        A_outer=900.0, B_outer=900.0, C_outer=900.0, D_outer=900.0
    )
    assert check_hinge_failures(spec, state, 1.0, "back") == []


def test_failure_is_permanent(spec):
    state = make_state(B_outer=400.0)
    first = check_hinge_failures(spec, state, 0.5, "front")
    assert [str(h) for h in first] == ["B-outer"]
    assert check_hinge_failures(spec, state, 0.5, "front") == []
    assert not state.intact[ALL_HINGES.index(HingeId("B", "outer"))]


def test_redistribution_raises_stress_on_survivors(spec):
    # 840 MPa survivors hold 0.8 N (782 MPa) with a full ring, but not
    # with one hinge gone (782 * 4/3 = 1043 MPa)
    state = make_state(B_outer=100.0, A_outer=840.0, C_outer=840.0, D_outer=840.0)
    check_hinge_failures(spec, state, 0.2, "front")
    assert np.count_nonzero(~state.intact) == 1
    survivors = check_hinge_failures(spec, state, 0.8, "front")
    assert len(survivors) == 3


def test_load_path_inversion_after_ring_exhaustion(spec):
    # break the whole tensile (outer) ring, then the inner ring carries
    # reversed, tensile stress and can fail
    state = make_state(
        A_outer=100.0, B_outer=100.0, C_outer=100.0, D_outer=100.0,
        A_inner=700.0, B_inner=700.0, C_inner=700.0, D_inner=700.0,
    )
    check_hinge_failures(spec, state, 0.5, "front")
    outer_ring = [i for i, h in enumerate(ALL_HINGES) if h.position == "outer"]
    assert not state.intact[outer_ring].any()
    # inner gain magnitude is 746 MPa/N: 1.0 N -> 746 MPa > 700 MPa
    failed = check_hinge_failures(spec, state, 1.0, "front")
    assert len(failed) == 4 and all(h.position == "inner" for h in failed)


@pytest.mark.parametrize("side", ["front", "back"])
def test_failure_threshold_is_least_breaking_force(spec, side):
    # walk one specimen through all eight failures, across the load-path
    # inversion: each threshold breaks a hinge, slightly less breaks none
    rng = np.random.default_rng(3)
    strengths = rng.uniform(300.0, 900.0, size=len(ALL_HINGES))
    state = SensorState(strengths)
    while (threshold := failure_threshold_force(
        spec, state.hinge_strength, state.intact, side
    )) < math.inf:
        probe = SensorState(state.hinge_strength, state.intact.copy())
        assert check_hinge_failures(spec, probe, threshold * (1 - 1e-9), side) == []
        assert check_hinge_failures(spec, state, threshold * (1 + 1e-9), side)
    assert not state.intact.any()


def test_compressed_ring_safe_while_tensile_ring_alive(spec):
    state = make_state(A_inner=700.0, B_inner=700.0, C_inner=700.0, D_inner=700.0)
    assert check_hinge_failures(spec, state, 1.0, "front") == []


# ------------------------------------------------------------------ validation

def test_spec_rejects_negative_stiffness():
    with pytest.raises(ValueError):
        SensorSpec(k1_front=-1.0)


def test_spec_rejects_wrong_gain_signs():
    with pytest.raises(ValueError):
        SensorSpec(stress_gain_inner=746.0)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize(
    "field",
    ["k1_front", "k1_back", "k3_front", "k3_back", "stress_gain_inner", "stress_gain_outer"],
)
def test_spec_rejects_non_finite_calibration(field, value):
    with pytest.raises(ValueError, match="finite"):
        SensorSpec(**{field: value})


@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_spec_rejects_non_finite_offset_gain(value):
    # a NaN gain used to give curves whose NaN offsets were flagged valid
    with pytest.raises(ValueError, match="finite"):
        SensorSpec(offset_gain_mv=dict(OFFSET_GAIN_MV, A=value))


@pytest.mark.parametrize("value", [math.nan, math.inf, -1.0, True, "0.5"])
@pytest.mark.parametrize("name, call", [
    ("f_z", lambda spec, v: displacement_at_force(spec, "front", v)),
    ("dz", lambda spec, v: force_at_displacement(spec, "front", v)),
    ("f_z", lambda spec, v: bridge_offsets_at_load(spec, v, "front", 1.0)),
    ("v_ges", lambda spec, v: bridge_offsets_at_load(spec, 0.5, "front", v)),
    ("f_z", lambda spec, v: check_hinge_failures(spec, make_state(), v, "front")),
], ids=lambda x: x if isinstance(x, str) else "")
def test_model_functions_name_a_bad_argument(spec, name, call, value):
    # NaN forces and supply voltages used to pass the sign checks
    with pytest.raises(ValueError, match=f"^{name}: expected "):
        call(spec, value)


@pytest.mark.parametrize("call", [
    lambda spec: spec.force_law("x"),
    lambda spec: spec.tensile_position("x"),
    lambda spec: hinge_stress(spec, 0.5, "x", "outer"),
    lambda spec: bridge_gains(spec, np.ones(len(ALL_HINGES), dtype=bool), "x"),
    lambda spec: intact_force(spec, "x", 1.0),
    lambda spec: force_at_displacement(spec, "x", 1.0),
    lambda spec: displacement_at_force(spec, "x", 0.5),
    lambda spec: FleetParams().side_params("x"),
], ids=["force_law", "tensile_position", "hinge_stress", "bridge_gains", "intact_force",
        "force_at_displacement", "displacement_at_force", "side_params"])
def test_a_bad_side_is_refused_by_the_side_rule(spec, call):
    with pytest.raises(ValueError, match=r"^side: expected one of \('front', 'back'\), got 'x'$"):
        call(spec)


def test_a_bad_position_is_refused_by_the_position_rule(spec):
    with pytest.raises(ValueError,
                       match=r"^position: expected one of \('inner', 'outer'\), got 'x'$"):
        hinge_stress(spec, 0.5, "front", "x")


def test_state_requires_positive_strengths():
    strengths = np.full(len(ALL_HINGES), 1000.0)
    strengths[ALL_HINGES.index(HingeId("A", "inner"))] = 0.0
    with pytest.raises(ValueError, match="strictly positive"):
        SensorState(strengths)
    with pytest.raises(ValueError, match="all eight hinges"):
        SensorState(strengths[:7] + 1.0)


def test_hinge_id_validation():
    with pytest.raises(ValueError):
        HingeId("E", "inner")
    with pytest.raises(ValueError):
        HingeId("A", "middle")


def test_state_rejects_non_finite_strengths():
    for bad in (math.nan, math.inf):
        strengths = np.full(len(ALL_HINGES), 1000.0)
        strengths[ALL_HINGES.index(HingeId("C", "outer"))] = bad
        with pytest.raises(ValueError, match="finite"):
            SensorState(strengths)


# ------------------------------------------- array kernel against the dict loop
#
# The failure kernel as it was written over HingeId-keyed dicts, kept as the
# reference for the array kernel: ``status`` maps each hinge to True while
# it is intact, ``order`` lists the broken hinges.

def reference_effective_stresses(spec, status, f_z, side):
    intact = {
        pos: sum(1 for h in ALL_HINGES if h.position == pos and status[h])
        for pos in POSITIONS
    }
    tensile_ring_gone = intact[spec.tensile_position(side)] == 0
    ring_stress = {}
    for pos in POSITIONS:
        stress = hinge_stress(spec, f_z, side, pos)
        if intact[pos] and (stress > 0 or (stress < 0 and tensile_ring_gone)):
            stress = abs(stress) * (4.0 / intact[pos])
        ring_stress[pos] = stress
    return {h: ring_stress[h.position] for h in ALL_HINGES if status[h]}


def reference_threshold(spec, strengths, status, side):
    stresses = reference_effective_stresses(spec, status, 1.0, side)
    return min(
        (strengths[h] / s for h, s in stresses.items() if s > 0), default=math.inf
    )


def reference_check(spec, strengths, status, order, f_z, side):
    overstressed = []
    for hinge, stress in reference_effective_stresses(spec, status, f_z, side).items():
        if stress >= strengths[hinge]:
            overstressed.append((strengths[hinge] / stress, hinge))
    overstressed.sort(key=lambda item: item[0])
    newly_failed = [hinge for _, hinge in overstressed]
    for hinge in newly_failed:
        status[hinge] = False
        order.append(hinge)
    return newly_failed


# a few shared values make ties in the overstress margin
strength_values = st.one_of(
    st.floats(1.0, 5000.0), st.sampled_from([373.0, 489.0, 746.0, 978.0])
)


@settings(max_examples=300, deadline=None)
@given(
    strengths=st.lists(strength_values, min_size=8, max_size=8),
    broken_first=st.permutations(range(8)),
    n_broken=st.integers(0, 8),
    side=st.sampled_from(["front", "back"]),
    gains=st.one_of(
        st.just((STRESS_GAIN_INNER_FRONT, STRESS_GAIN_OUTER_FRONT)),
        st.tuples(st.floats(-2000.0, -1.0), st.floats(1.0, 2000.0)),
    ),
    factors=st.lists(
        st.one_of(st.sampled_from([1 - 1e-9, 1 + 1e-9]), st.floats(0.0, 3.0)),
        max_size=12,
    ),
)
def test_array_kernel_matches_dict_loop(
    strengths, broken_first, n_broken, side, gains, factors
):
    spec = SensorSpec(stress_gain_inner=gains[0], stress_gain_outer=gains[1])
    by_label = dict(zip(ALL_HINGES, strengths))
    order = [ALL_HINGES[i] for i in broken_first[:n_broken]]
    status = {h: h not in order for h in ALL_HINGES}
    state = SensorState(strengths, list(status.values()), list(order))
    force = 1.0
    for factor in factors:
        threshold = failure_threshold_force(spec, state.hinge_strength, state.intact, side)
        assert threshold.hex() == reference_threshold(spec, by_label, status, side).hex()
        if threshold < math.inf:
            force = threshold
        force *= factor
        stress = effective_stresses(spec, state.intact, force, side)
        carried = reference_effective_stresses(spec, status, force, side)
        assert {h: stress[ALL_HINGES.index(h)].hex() for h in carried} == {
            h: s.hex() for h, s in carried.items()
        }
        expected = reference_check(spec, by_label, status, order, force, side)
        assert check_hinge_failures(spec, state, force, side) == expected
        assert state.intact.tolist() == [status[h] for h in ALL_HINGES]
    assert state.failure_order == order
