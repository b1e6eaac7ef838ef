import pickle

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from forcebench import (
    CycleLog,
    DegenerateDataError,
    DynamicProtocol,
    FleetParams,
    InsufficientDataError,
    LoadCurve,
    NoFailureError,
    RigConfig,
    SensorSpec,
    StaticProtocol,
    classify_failures,
    degradation_report,
    detect_failures,
    extract_stiffness,
    fleet_summary,
    force_at_displacement,
    fracture_point,
    overload_factors,
    run_dynamic,
    run_static,
    sample_specimen,
)
from collections import Counter

from forcebench import errors
from forcebench.analysis import (
    UNKNOWN,
    CurveBlock,
    FailureEvent,
    FleetSummary,
    first_failures,
    reduce_block,
    ring_events,
)
from forcebench.sensor import ARMS
from forcebench.weibull import WeibullFit

QUIET_RIG = RigConfig(
    force_resolution_n=0.0, stage_accuracy_um=0.0, nano_accuracy_um=0.0
)


def make_curve(dz, force, side="front", voff=None, valid=None):
    dz = np.asarray(dz, dtype=float)
    force = np.asarray(force, dtype=float)
    if voff is None:
        voff = np.zeros((dz.size, 4))
    if valid is None:
        valid = np.ones(dz.size, dtype=bool)
    return LoadCurve(side=side, dz_um=dz, force_n=force, voff_mv=voff, valid=valid)


def simulate_specimen(seed, side="front"):
    rng = np.random.default_rng(seed)
    params = FleetParams(master_seed=0)
    state = sample_specimen(params, side, rng)
    curve = run_static(state, SensorSpec(), StaticProtocol(side=side), QUIET_RIG, rng)
    return state, curve


# ------------------------------------------------------------------- stiffness

def test_stiffness_exact_linear_curve():
    dz = np.arange(0, 30.5, 0.5)
    curve = make_curve(dz, 5e-3 * dz)
    assert extract_stiffness(curve) == pytest.approx(5.0, rel=1e-9)


def test_stiffness_ignores_contact_offset():
    dz = np.arange(0, 20.5, 0.5)
    curve = make_curve(dz, 5e-3 * dz + 0.123)
    assert extract_stiffness(curve) == pytest.approx(5.0, rel=1e-9)


def test_stiffness_invariant_under_subsampling():
    dz = np.arange(0, 20.25, 0.25)
    curve = make_curve(dz, 7.2e-3 * dz)
    sub = make_curve(dz[::4], 7.2e-3 * dz[::4])
    assert extract_stiffness(curve) == pytest.approx(extract_stiffness(sub), rel=1e-9)


def test_stiffness_noise_free_front_simulation():
    _, curve = simulate_specimen(0, "front")
    assert extract_stiffness(curve) == pytest.approx(7.01, rel=0.05)


def test_stiffness_noise_free_back_simulation():
    _, curve = simulate_specimen(0, "back")
    assert extract_stiffness(curve) == pytest.approx(6.61, rel=0.05)


def test_stiffness_needs_enough_low_displacement_samples():
    curve = make_curve([0, 30, 60, 90, 120, 150, 180, 190, 195, 200],
                       np.linspace(0, 1, 10))
    with pytest.raises(InsufficientDataError):
        extract_stiffness(curve)


def test_stiffness_needs_a_displacement_spread():
    curve = make_curve([10, 10, 10, 30, 40], [0.1, 0.1, 0.1, 0.2, 0.3])
    with pytest.raises(DegenerateDataError,
                       match="^no displacement spread below the fit limit$"):
        extract_stiffness(curve)


@pytest.mark.parametrize("dz, force, voff, message", [
    ([0, 1, 2], [0, 1], None, "curve arrays must agree in length"),
    ([0, 1, 2], [0, 1, 2], np.zeros((3, 3)), "curve arrays must agree in length"),
    ([0, 1, 2], [0, np.inf, 2], None, "curve displacements and forces must be finite"),
    ([0, np.nan, 2], [0, 1, 2], None, "curve displacements and forces must be finite"),
    ([0, 2, 1], [0, 1, 2], None, "displacement samples must be nondecreasing"),
], ids=["force_length", "offset_columns", "inf_force", "nan_displacement", "decreasing"])
def test_load_curve_refuses_inconsistent_arrays(dz, force, voff, message):
    if voff is None:
        voff = np.zeros((len(dz), 4))
    with pytest.raises(ValueError, match=f"^{message}$"):
        LoadCurve(side="front", dz_um=dz, force_n=force, voff_mv=voff,
                  valid=np.ones(len(dz), dtype=bool))


def test_load_curve_refuses_rows_of_a_block():
    dz = np.arange(3.0)
    with pytest.raises(ValueError, match="^curve arrays must agree in length$"):
        LoadCurve(side="front", dz_um=dz, force_n=dz[None], valid=np.ones((1, 3), dtype=bool),
                  voff_mv=np.zeros((3, 4)))


def replaced(array, index, value):
    copy = array.copy()
    copy[index] = value
    return copy


GRID, ROWS, FLAGS = np.arange(12.0), np.ones((3, 12)), np.ones((3, 12), dtype=bool)


# Unrefused, a NaN row would reduce to a curve without events, and one flag
# row would be broadcast over every curve.
@pytest.mark.parametrize("side, dz, force, valid, message", [
    ("back", GRID, replaced(ROWS, (1, 5), np.nan), FLAGS,
     "curve displacements and forces must be finite"),
    ("back", GRID, ROWS, FLAGS[0], "curve arrays must agree in length"),
    ("back", np.tile(GRID, (3, 1)), ROWS, FLAGS, "curve arrays must agree in length"),
    ("back", replaced(GRID, 7, 5.5), ROWS, FLAGS, "displacement samples must be nondecreasing"),
    ("x", GRID, ROWS, FLAGS, r"side: expected one of \('front', 'back'\), got 'x'"),
], ids=["nan_force_in_one_row", "one_valid_row", "grid_per_row", "decreasing", "side"])
def test_curve_block_refuses_what_a_curve_refuses(side, dz, force, valid, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        CurveBlock(side, dz, force, valid)


# ------------------------------------------------------------ failure detection

def smooth_front_curve(n=200):
    dz = np.linspace(0, 100, n)
    spec = SensorSpec()
    f = np.array([force_at_displacement(spec, "front", z) for z in dz])
    return dz, f


def test_detect_nothing_on_smooth_curve():
    dz, f = smooth_front_curve()
    assert detect_failures(make_curve(dz, f)) == []


def test_detect_single_injected_drop():
    dz = np.linspace(0, 100, 400)
    f = 0.02 * dz
    f[58:] -= 0.2
    events = detect_failures(make_curve(dz, f))
    assert len(events) == 1
    assert events[0].sample_index == 57
    # measured drop is the injected 0.2 N minus one step's natural rise
    assert events[0].force_drop_n == pytest.approx(0.2, abs=0.01)


def test_detect_three_injected_drops_in_order():
    dz = np.linspace(0, 100, 300)
    f = 0.02 * dz
    for idx in (50, 120, 250):
        f[idx + 1:] -= 0.3
    events = detect_failures(make_curve(dz, f))
    assert [e.sample_index for e in events] == [50, 120, 250]


def test_detect_respects_relative_threshold():
    # an 80 mN drop is above the floor but below 10% of a 1 N load
    dz = np.linspace(0, 50, 100)
    f = 1.0 + 0.001 * dz
    f[60:] -= 0.08
    assert detect_failures(make_curve(dz, f)) == []
    f[60:] -= 0.08  # 160 mN total now exceeds both thresholds
    assert len(detect_failures(make_curve(dz, f))) == 1


def test_detect_ignores_drops_while_dwelling():
    dz = np.concatenate([np.linspace(0, 10, 20), np.full(5, 10.0)])
    f = np.concatenate([np.linspace(0, 1, 20), np.full(5, 0.2)])
    assert detect_failures(make_curve(dz, f)) == []


def detect_failures_reference(curve, drop_fraction, drop_floor_n):
    """The per-sample loop that the vectorised detector replaced."""
    events = []
    f, dz = curve.force_n, curve.dz_um
    for i in range(len(curve) - 1):
        if dz[i + 1] <= dz[i]:
            continue
        threshold = max(drop_fraction * f[i], drop_floor_n)
        drop = f[i] - f[i + 1]
        if drop > threshold:
            events.append(FailureEvent(sample_index=i, force_drop_n=float(drop)))
    return events


# Multiples of 1/8 make exact ties at the threshold likely: for example
# f = 0.5 -> 0.25 with fraction 0.5 drops by exactly 0.5 * f.
EIGHTHS = st.integers(-24, 24).map(lambda k: k / 8)
FORCES = st.one_of(EIGHTHS, st.floats(-5.0, 5.0))


@st.composite
def drop_curves(draw):
    n = draw(st.integers(0, 40))
    steps = draw(st.lists(st.sampled_from([0.0, 0.0, 0.5, 1.0]), min_size=n, max_size=n))
    force = draw(st.lists(FORCES, min_size=n, max_size=n))
    return make_curve(np.cumsum(steps), force)  # flat dz steps where a step is 0


@settings(max_examples=300, deadline=None)
@given(curve=drop_curves(), drop_fraction=st.sampled_from([0.0, 0.1, 0.25, 0.5, 1.0]),
       drop_floor_n=st.sampled_from([0.0, 0.05, 0.125, 0.25, 1.0]))
@example(curve=make_curve([0, 1, 2, 3], [0.5, 0.25, 0.125, -0.25]),  # ties both ways
         drop_fraction=0.5, drop_floor_n=0.125)
@example(curve=make_curve([0, 1, 1, 2], [-0.5, -1.0, -2.0, -2.5]),  # negative, flat step
         drop_fraction=0.1, drop_floor_n=0.0)
def test_detect_failures_matches_scalar_loop(curve, drop_fraction, drop_floor_n):
    events = detect_failures(curve, drop_fraction, drop_floor_n)
    assert events == detect_failures_reference(curve, drop_fraction, drop_floor_n)
    assert all(type(e.sample_index) is int and type(e.force_drop_n) is float for e in events)


@pytest.mark.parametrize("drop_fraction, drop_floor_n", [(np.nan, 0.05), (0.1, np.nan)])
def test_detect_rejects_non_finite_thresholds(drop_fraction, drop_floor_n):
    dz, f = smooth_front_curve()
    with pytest.raises(ValueError, match="finite"):
        detect_failures(make_curve(dz, f), drop_fraction, drop_floor_n)


@pytest.mark.parametrize("name, value", [("drop_fraction", -0.1), ("drop_floor_n", -1.0)])
def test_detect_rejects_negative_thresholds(name, value):
    # a negative floor used to turn plain noise into failure events
    dz, f = smooth_front_curve()
    with pytest.raises(ValueError, match=f"^{name}: expected nonnegative finite number"):
        detect_failures(make_curve(dz, f), **{name: value})


def test_detect_drop_equal_to_threshold_is_no_failure():
    # 0.5 -> 0.25 drops by exactly 0.5 * 0.5; 0.25 -> 0.125 by exactly the floor
    curve = make_curve([0, 1, 2, 3], [0.5, 0.25, 0.125, -0.25])
    assert [e.sample_index for e in detect_failures(curve, 0.5, 0.125)] == [2]


@pytest.mark.parametrize("drop", [np.nan, np.inf, 0.0, -0.1])
def test_failure_event_needs_a_positive_finite_drop(drop):
    with pytest.raises(ValueError, match="^force_drop_n: expected positive finite number"):
        FailureEvent(3, drop)


@pytest.mark.parametrize("index", [-1, 2.5])
def test_failure_event_needs_a_nonnegative_integer_index(index):
    with pytest.raises(ValueError, match="^sample_index: expected non-negative integer"):
        FailureEvent(index, 0.1)


# ------------------------------------------------ block reduction, row by row
#
# The per-curve path that fleet_summary took before it reduced whole blocks,
# kept as the reference: the drop loop above, the fracture point of its first
# event, and the positions classify_failures gave before the tensile-ring rule
# became one helper.

def positions_reference(curve, n_events, side):
    if not any(curve.valid):
        return [UNKNOWN] * n_events
    tensile = SensorSpec.tensile_position(side)
    other = "inner" if tensile == "outer" else "outer"
    return [tensile if ordinal < 4 else other for ordinal in range(n_events)]


def sawtooth(n, teeth):
    """1 N with ``teeth`` dips to 0.5 N at the odd samples from sample 1 on."""
    force = np.ones(n)
    force[1:2 * teeth:2] = 0.5
    return force


@st.composite
def curve_blocks(draw):
    """(side, dz, forces, valid): rows that share one displacement grid."""
    m = draw(st.integers(1, 5))
    n = draw(st.integers(2, 30))
    steps = draw(st.lists(st.sampled_from([0.0, 0.0, 0.5, 1.0]), min_size=n, max_size=n))
    rows, valid = [], []
    for _ in range(m):
        teeth = draw(st.sampled_from([None, 0, 1, 4, 5, 9]))
        if teeth is None or 2 * teeth > n:
            rows.append(draw(st.lists(FORCES, min_size=n, max_size=n)))
        else:
            rows.append(sawtooth(n, teeth))
        flags = draw(st.sampled_from(["all", "none", "some"]))
        if flags == "some":
            valid.append(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
        else:
            valid.append([flags == "all"] * n)
    side = draw(st.sampled_from(["front", "back"]))
    return side, np.cumsum(steps), np.array(rows, dtype=float), np.array(valid)


@settings(max_examples=300, deadline=None)
@given(block=curve_blocks(), drop_fraction=st.sampled_from([0.0, 0.1, 0.25, 0.5, 1.0]),
       drop_floor_n=st.sampled_from([0.0, 0.05, 0.125, 0.25, 1.0]))
@example(block=("front", np.arange(24.0), np.array([sawtooth(24, k) for k in (0, 1, 4, 5, 9)]),
                np.array([[True] * 24] * 4 + [[False] * 24])),
         drop_fraction=0.1, drop_floor_n=0.05)
@example(block=("back", np.array([0.0, 1.0, 2.0, 3.0]),  # ties at both thresholds
                np.array([[0.5, 0.25, 0.125, -0.25]]), np.ones((1, 4), dtype=bool)),
         drop_fraction=0.5, drop_floor_n=0.125)
def test_block_reduction_matches_curve_by_curve_path(block, drop_fraction, drop_floor_n):
    side, dz, forces, valid = block
    reduced = first_failures(CurveBlock(side, dz, forces, valid), drop_fraction, drop_floor_n)
    first, force, disp, events = reduced
    rings = ring_events(events, valid.any(axis=-1), side)
    for r, row in enumerate(forces):
        curve = make_curve(dz, row, side, valid=valid[r])
        expected = detect_failures_reference(curve, drop_fraction, drop_floor_n)
        assert events[r] == len(expected)
        if expected:
            i = expected[0].sample_index
            assert first[r] == i
            assert (force[r], disp[r]) == (row[i], dz[i])
        else:
            assert first[r] == -1 and np.isnan(force[r]) and np.isnan(disp[r])
        positions = positions_reference(curve, len(expected), side)
        assert {ring: count[r] for ring, count in rings.items() if count[r]} == Counter(positions)
        events_now = detect_failures(curve, drop_fraction, drop_floor_n)
        assert [e.position for e in classify_failures(curve, events_now, side)] == positions
        # a curve is a block of one
        for alone, in_block in zip(first_failures(curve, drop_fraction, drop_floor_n), reduced):
            np.testing.assert_array_equal(alone, in_block[r:r + 1])


# -------------------------------------------------------------- fracture point

def test_fracture_point_of_fixture():
    # drop injected right after the sample (0.50 N, 44 um)
    dz = np.arange(0, 50.5, 2.0)
    f = dz * 0.50 / 44.0
    f[23:] -= 0.3
    curve = make_curve(dz, np.maximum(f, 0.0))
    force, disp = fracture_point(curve)
    assert disp == pytest.approx(44.0)
    assert force == pytest.approx(0.50, rel=1e-12)


def test_fracture_point_requires_failure():
    dz, f = smooth_front_curve()
    with pytest.raises(NoFailureError):
        fracture_point(make_curve(dz, f))


def test_fracture_point_of_mean_strength_specimen():
    from forcebench import HingeId, SensorState
    from forcebench.sensor import ALL_HINGES

    spec = SensorSpec()
    strengths = {h: 5000.0 for h in ALL_HINGES}
    strengths[HingeId("B", "outer")] = 978.0 * 1.16
    state = SensorState([strengths[h] for h in ALL_HINGES])
    rng = np.random.default_rng(0)
    curve = run_static(state, spec, StaticProtocol(side="front"), QUIET_RIG, rng)
    force, disp = fracture_point(curve)
    assert disp == pytest.approx(78.2, abs=0.5)
    assert force == pytest.approx(1.16, abs=0.02)


# ------------------------------------------------------------- classification

def test_classify_first_failure_matches_ground_truth():
    state, curve = simulate_specimen(3, "front")
    events = classify_failures(curve, detect_failures(curve), "front")
    assert events, "expected failures on a destructive ramp"
    truth = state.failure_order[0]
    assert events[0].arm == truth.arm
    assert events[0].position == truth.position == "outer"


def test_classify_agreement_rate_over_fleet():
    agree = 0
    total = 0
    for seed in range(120):
        state, curve = simulate_specimen(400 + seed, "front")
        events = classify_failures(curve, detect_failures(curve), "front")
        if not events:
            continue
        total += 1
        if events[0].arm == state.failure_order[0].arm:
            agree += 1
    assert total >= 115
    assert agree / total >= 0.95


def test_classify_marks_post_supply_loss_events_unknown():
    # valid up to sample 10, invalid afterwards; drops at 5 and 15
    n = 30
    dz = np.linspace(0, 30, n)
    f = np.linspace(0.2, 1.2, n)
    f[6:] -= 0.3
    f[16:] -= 0.3
    voff = np.tile(np.array([-50.0, -51.0, -49.0, -50.5]), (n, 1))
    voff[6:, :] *= 0.5
    valid = np.ones(n, dtype=bool)
    valid[11:] = False
    curve = make_curve(dz, np.maximum(f, 0.01), voff=voff, valid=valid)
    events = detect_failures(curve)
    assert [e.sample_index for e in events] == [5, 15]
    classified = classify_failures(curve, events, "front")
    assert classified[0].arm in "ABCD"
    assert classified[1].arm == "unknown"
    assert classified[1].position == "outer"  # ordinal rule still applies


def test_classify_supply_loss_event_is_arm_c():
    state, curve = simulate_specimen(17, "front")
    events = classify_failures(curve, detect_failures(curve), "front")
    c_events = [e for e in events if e.arm == "C"]
    truth_c = [h for h in state.failure_order if h.arm == "C"]
    if truth_c:
        assert c_events, "arm C broke but was never identified"


def test_classify_no_signal_curve_all_unknown():
    dz = np.linspace(0, 30, 30)
    f = np.linspace(0.2, 1.2, 30)
    f[6:] -= 0.3
    curve = make_curve(dz, np.maximum(f, 0.01),
                       voff=np.full((30, 4), np.nan),
                       valid=np.zeros(30, dtype=bool))
    events = classify_failures(curve, detect_failures(curve), "front")
    assert events and all(e.arm == "unknown" and e.position == "unknown" for e in events)


def test_classify_late_events_assigned_to_other_ring():
    state, curve = simulate_specimen(8, "back")
    events = classify_failures(curve, detect_failures(curve), "back")
    positions = [e.position for e in events]
    assert positions[:4] == ["inner"] * min(4, len(positions))
    if len(events) > 4:
        assert all(p == "outer" for p in positions[4:])


def classify_failures_reference(curve, events, side):
    """The per-event loop that the array arm rule replaced."""
    classified = []
    for event, position in zip(events, positions_reference(curve, len(events), side)):
        i = event.sample_index
        if not curve.valid[i]:
            arm = UNKNOWN
        elif not curve.valid[i + 1]:
            arm = "C"  # supply lost across the event
        else:
            changes = np.abs(np.abs(curve.voff_mv[i + 1]) - np.abs(curve.voff_mv[i]))
            arm = ARMS[int(np.argmax(changes))]
        classified.append(FailureEvent(i, event.force_drop_n, arm, position))
    return classified


# Few distinct magnitudes make ties between arms likely; NaN is a lost reading.
OFFSETS = st.one_of(st.sampled_from([0.0, 1.0, -1.0, 2.0, np.nan]), st.floats(-100.0, 100.0))


def event_curve(side, voff, valid, indices):
    n = len(voff)
    curve = make_curve(np.arange(n), np.zeros(n), side, np.array(voff, dtype=float), valid)
    return curve, [FailureEvent(i, 0.125 * (k + 1)) for k, i in enumerate(indices)]


@st.composite
def classified_curves(draw):
    """(curve, events): offsets with NaN and ties, validity in runs, with a
    supply loss or at random, and events at samples that have a successor."""
    n = draw(st.integers(2, 12))
    voff = draw(st.lists(st.lists(OFFSETS, min_size=4, max_size=4), min_size=n, max_size=n))
    flags = draw(st.sampled_from(["all", "none", "some", "lost", "runs"]))
    if flags in ("lost", "runs"):  # valid before a supply loss at stop; a run from start
        start, stop = sorted(draw(st.lists(st.integers(0, n), min_size=2, max_size=2)))
        valid = (np.arange(n) < stop) & ((np.arange(n) >= start) | (flags == "lost"))
    elif flags == "some":
        valid = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    else:
        valid = [flags == "all"] * n
    indices = sorted(draw(st.sets(st.integers(0, n - 2), max_size=6)))
    return event_curve(draw(st.sampled_from(["front", "back"])), voff, valid, indices)


@settings(max_examples=300, deadline=None)
@given(case=classified_curves())
@example(case=event_curve("front", [[1, 2, 3, 4], [1, np.nan, 3, 9], [0, 0, 0, 0]],
                          [True, True, False], [0, 1]))  # NaN offset; loss after sample 1
@example(case=event_curve("back", [[1, 1, 1, 1]] * 3, [True] * 3, []))
def test_classify_failures_matches_per_event_loop(case):
    curve, events = case
    classified = classify_failures(curve, events, curve.side)
    assert classified == classify_failures_reference(curve, events, curve.side)
    assert all(type(e.arm) is str and type(e.sample_index) is int for e in classified)


@pytest.mark.parametrize("index", [4, 5])
def test_classify_refuses_an_event_without_a_following_sample(index):
    curve, events = event_curve("front", [[1, 2, 3, 4]] * 5, [True] * 5, [1, index])
    with pytest.raises(ValueError, match=f"^sample_index: .* below 4, .* got {index}$"):
        classify_failures(curve, events, "front")


def test_classify_refuses_a_side_other_than_the_curves():
    _, curve = simulate_specimen(3, "front")
    with pytest.raises(ValueError, match="'back' is not the curve's load side 'front'"):
        classify_failures(curve, detect_failures(curve), "back")


# --------------------------------------------------------------- fleet summary

@pytest.fixture(scope="module")
def front_fleet_curves():
    return [simulate_specimen(1000 + s, "front")[1] for s in range(20)]


def test_fleet_summary_statistics(front_fleet_curves):
    summary = fleet_summary(map(reduce_block, front_fleet_curves))
    assert summary.n_curves == 20
    assert summary.fracture_force_mean_n == pytest.approx(1.16, abs=0.10)
    assert summary.fracture_dz_mean_um == pytest.approx(78.2, abs=5.0)
    assert summary.fit is not None
    assert [row["probability_ppm"] for row in summary.budget] == [1.0, 10.0, 100.0]


def test_fleet_summary_counts_match_event_total(front_fleet_curves):
    summary = fleet_summary(map(reduce_block, front_fleet_curves))
    n_events = sum(
        len(detect_failures(c)) for c in front_fleet_curves
    )
    assert sum(summary.hinge_counts.values()) == n_events


def test_fleet_budget_forces_increase_and_stay_below_observations(front_fleet_curves):
    summary = fleet_summary(map(reduce_block, front_fleet_curves))
    forces = [row["f_max_N"] for row in summary.budget]
    assert forces == sorted(forces) and forces[0] < forces[-1]
    min_fracture = min(fracture_point(c)[0] for c in front_fleet_curves)
    assert forces[-1] < min_fracture


def test_fleet_summary_handles_duplicated_curves():
    dz = np.linspace(0, 60, 200)
    f = 0.02 * dz
    f[150:] -= 0.4
    curve_f = np.maximum(f, 0.0)
    curves = [make_curve(dz, curve_f) for _ in range(3)]
    summary = fleet_summary(map(reduce_block, curves))
    assert summary.fracture_force_std_n == pytest.approx(0.0, abs=1e-12)
    assert summary.fracture_dz_std_um == pytest.approx(0.0, abs=1e-12)
    assert summary.fit is None and summary.budget == []


def test_fleet_summary_reads_any_iterable_once(front_fleet_curves):
    reductions = list(map(reduce_block, front_fleet_curves))
    assert fleet_summary(iter(reductions)) == fleet_summary(reductions)
    assert fleet_summary(r for r in reductions) == fleet_summary(reductions)


def test_fleet_summary_takes_reductions_and_no_thresholds(front_fleet_curves):
    # thresholds meet the curves in reduce_block alone, so none can be ignored here
    with pytest.raises(TypeError, match="drop_fraction"):
        fleet_summary(map(reduce_block, front_fleet_curves), drop_fraction=0.05)
    with pytest.raises(AttributeError, match="events"):
        fleet_summary(front_fleet_curves)


def test_a_short_curve_reported_before_mixed_sides(front_fleet_curves):
    # each error is raised at the block where it is met
    dz, f = smooth_front_curve(5)
    curves = [make_curve(dz, f), *front_fleet_curves[:3], make_curve(dz, f, side="back")]
    with pytest.raises(InsufficientDataError, match="^curves need at least 10 samples$"):
        fleet_summary(map(reduce_block, curves))
    back = make_curve(*smooth_front_curve(), side="back")
    with pytest.raises(ValueError, match=r"^fleet mixes load sides: \['back', 'front'\]$"):
        fleet_summary(map(reduce_block, [*front_fleet_curves[:3], back]))


def test_curve_errors_raised_before_the_iterable_resumes(front_fleet_curves):
    dz, f = smooth_front_curve(9)
    resumed = []

    def curves():
        yield from front_fleet_curves[:3]
        yield make_curve(dz, f)
        resumed.append(True)
        raise OSError("the iterable's own error")

    with pytest.raises(InsufficientDataError, match="^curves need at least 10 samples$"):
        fleet_summary(map(reduce_block, curves()))
    assert not resumed
    with pytest.raises(InsufficientDataError, match="10 samples"):
        fleet_summary(map(reduce_block, [*front_fleet_curves[:3], make_curve(dz, f)]))
    with pytest.raises(ValueError, match="drop_fraction"):
        reduce_block(front_fleet_curves[0], drop_fraction=-1.0)


def test_block_errors_keep_their_precedence(front_fleet_curves):
    # three failed curves as one block, then a short curve, then a back-side one
    block = CurveBlock(
        side="front", dz_um=front_fleet_curves[0].dz_um,
        force_n=np.array([c.force_n for c in front_fleet_curves[:3]]),
        valid=np.array([c.valid for c in front_fleet_curves[:3]]))
    dz, f = smooth_front_curve(9)
    assert fleet_summary([reduce_block(block)]).n_curves == 3
    with pytest.raises(InsufficientDataError, match="^curves need at least 10 samples$"):
        fleet_summary(map(reduce_block, [block, make_curve(dz, f), front_fleet_curves[0],
                                         make_curve(dz, f, "back")]))
    with pytest.raises(ValueError, match=r"^fleet mixes load sides: \['back', 'front'\]$"):
        fleet_summary(map(reduce_block, [block, make_curve(*smooth_front_curve(), side="back"),
                                         make_curve(dz, f)]))
    with pytest.raises(InsufficientDataError, match="10 samples"):
        fleet_summary(map(reduce_block, [block, make_curve(dz, f), block]))
    # a block of the other side that reduce_block refuses reports the refusal
    with pytest.raises(InsufficientDataError, match="^curves need at least 10 samples$"):
        fleet_summary(map(reduce_block, [block, make_curve(dz, f, "back")]))
    resumed = []

    def blocks():
        yield block
        yield make_curve(dz, f)
        resumed.append(True)
        raise OSError("the iterable's own error")

    with pytest.raises(InsufficientDataError, match="^curves need at least 10 samples$"):
        fleet_summary(map(reduce_block, blocks()))
    assert not resumed


def test_fleet_summary_passes_block_reductions_through(front_fleet_curves):
    # a 3-curve block plus 17 single curves sums like the 20 single curves
    block = CurveBlock(
        side="front", dz_um=front_fleet_curves[0].dz_um,
        force_n=np.array([c.force_n for c in front_fleet_curves[:3]]),
        valid=np.array([c.valid for c in front_fleet_curves[:3]]))
    reductions = [reduce_block(block), *map(reduce_block, front_fleet_curves[3:])]
    assert [len(r) for r in reductions] == [3] + [1] * 17
    assert fleet_summary(reductions) == fleet_summary(map(reduce_block, front_fleet_curves))


def test_reduce_block_refuses_a_short_curve():
    dz, f = smooth_front_curve(9)
    with pytest.raises(InsufficientDataError, match="^curves need at least 10 samples$"):
        reduce_block(make_curve(dz, f, side="back"))


def test_errors_keep_their_type_and_text_through_pickle():
    # a worker's error reaches the command only by pickle
    classes = [kind for kind in vars(errors).values()
               if isinstance(kind, type) and kind.__module__ == errors.__name__]
    assert len(classes) == 9 and all(issubclass(kind, Exception) for kind in classes)
    for kind in classes:
        copy = pickle.loads(pickle.dumps(kind("curves need at least 10 samples")))
        assert type(copy) is kind and str(copy) == "curves need at least 10 samples"


def test_fleet_summary_needs_three_failed_curves():
    dz, f = smooth_front_curve()
    curves = [make_curve(dz, f) for _ in range(5)]
    with pytest.raises(InsufficientDataError):
        fleet_summary(map(reduce_block, curves))


def test_fleet_summary_refuses_two_failed_curves_itself():
    # the summary's own count, not the fit's refusal of fewer than three loads
    dz, f = smooth_front_curve()
    broken = [f.copy(), f.copy()]
    broken[0][100:] -= 0.3
    broken[1][120:] -= 0.3
    curves = [make_curve(dz, force) for force in (f, *broken, f)]
    assert sum(map(bool, map(detect_failures, curves))) == 2
    with pytest.raises(InsufficientDataError,
                       match=r"^need at least 3 curves with detected failures, got 2$"):
        fleet_summary(map(reduce_block, curves))


def test_fleet_summary_of_no_curves():
    with pytest.raises(InsufficientDataError,
                       match=r"^need at least 3 curves with detected failures, got 0$"):
        fleet_summary([])


def test_fleet_summary_rejects_mixed_sides(front_fleet_curves):
    mixed = front_fleet_curves[:2] + [simulate_specimen(5, "back")[1]]
    with pytest.raises(ValueError, match="fleet mixes load sides"):
        fleet_summary(map(reduce_block, mixed))


# ------------------------------------------------------------------ degradation

def constant_log(n=100, force=0.5, voff=-190.0):
    return CycleLog(
        cycles=(np.arange(n) + 1) * 500,
        force_n=np.full(n, force),
        voff_mv=np.full((n, 4), voff),
    )


def test_degradation_constant_log_is_stable():
    report = degradation_report(constant_log())
    assert report.verdict == "stable"
    for stats in report.channels.values():
        assert stats.std == 0.0
        assert stats.slope_per_cycle == 0.0


def test_degradation_flags_linear_drift():
    rng = np.random.default_rng(30)
    n = 100
    log = constant_log(n)
    drifted = CycleLog(
        cycles=log.cycles,
        force_n=log.force_n + rng.normal(0, 0.00037, n),
        voff_mv=log.voff_mv
        + rng.normal(0, 0.28, (n, 4))
        + 2.0 * (log.cycles / 50_000)[:, None],
    )
    assert degradation_report(drifted).verdict == "degraded"


def test_degradation_tolerates_pure_noise():
    rng = np.random.default_rng(31)
    n = 100
    log = constant_log(n)
    noisy = CycleLog(
        cycles=log.cycles,
        force_n=log.force_n + rng.normal(0, 0.00037, n),
        voff_mv=log.voff_mv + rng.normal(0, 0.28, (n, 4)),
    )
    assert degradation_report(noisy).verdict == "stable"


@pytest.mark.parametrize("multiple, verdict", [(2.99, "stable"), (3.01, "degraded")])
def test_degradation_verdict_sits_at_three_sample_sigmas(multiple, verdict):
    # Ten records: the residual's sample std (ddof=1) is 5 % above its
    # population std, so a trend of 2.99 sample sigmas is 3.15 population ones.
    n = 10
    log = constant_log(n)
    centred = log.cycles - log.cycles.mean()
    scatter = np.resize([1.0, -1.0], n)  # mean 0
    scatter -= centred * (scatter @ centred) / (centred @ centred)  # and no trend
    slope = multiple * scatter.std(ddof=1) / (n * 500)  # over the run's 5000 cycles
    drifted = CycleLog(cycles=log.cycles, force_n=log.force_n,
                       voff_mv=log.voff_mv + (slope * centred + scatter)[:, None])
    report = degradation_report(drifted)
    assert report.total_cycles == n * 500
    assert report.verdict == verdict


def test_total_cycles_is_read_off_the_cycle_spacing():
    n = 20
    log = CycleLog(cycles=np.arange(n) * 500 + 7, force_n=np.full(n, 0.5),
                   voff_mv=np.full((n, 4), -190.0))
    assert degradation_report(log).total_cycles == n * 500


def flagged_runs(drift_mv, n_records, seeds):
    """How many seeded ``simulate-dynamic`` runs of 50 000 cycles, with
    ``n_records`` records and ``drift_mv`` of injected drift, read degraded."""
    protocol = DynamicProtocol(drift_mv=drift_mv, record_interval=50_000 // n_records)
    flagged = 0
    for seed in seeds:
        rng = np.random.default_rng(np.random.SeedSequence(seed))
        state = sample_specimen(FleetParams(), protocol.side, rng)
        log = run_dynamic(state, SensorSpec(), protocol, RigConfig(), rng)
        flagged += degradation_report(log).verdict == "degraded"
    return flagged


@pytest.mark.parametrize("n_records", [100, 1000])
def test_degradation_verdict_scored_against_injected_drift(n_records):
    # The rule flags a full-run trend beyond 3x the residual scatter, about
    # 0.84 mV at the rig's 0.28 mV noise, whatever the number of records.
    seeds = range(300)
    assert flagged_runs(0.0, n_records, seeds) <= 3  # false alarms at most 1 %
    assert flagged_runs(1.0, n_records, seeds) >= 297  # detections at least 99 %


def test_degradation_requires_ten_entries():
    with pytest.raises(InsufficientDataError):
        degradation_report(constant_log(n=9))


def test_cycle_log_requires_constant_spacing():
    with pytest.raises(ValueError):
        CycleLog(
            cycles=[500, 1000, 2500],
            force_n=[0.5, 0.5, 0.5],
            voff_mv=np.zeros((3, 4)),
        )


@pytest.mark.parametrize("force, voff", [
    ([0.5, 0.5], np.zeros((3, 4))), ([0.5, 0.5, 0.5], np.zeros((3, 3))),
], ids=["forces", "offset_columns"])
def test_cycle_log_arrays_must_agree_in_length(force, voff):
    with pytest.raises(ValueError, match="^cycle log arrays must agree in length$"):
        CycleLog(cycles=[500, 1000, 1500], force_n=force, voff_mv=voff)


@pytest.mark.parametrize("force, voff", [(np.inf, -190.0), (0.5, np.nan)])
def test_cycle_log_rejects_non_finite_values(force, voff):
    with pytest.raises(ValueError, match="finite"):
        constant_log(n=20, force=force, voff=voff)


@pytest.mark.parametrize("value", [np.nan, np.inf, 0.0, -1.0])
def test_degradation_rejects_bad_sigma_multiple(value):
    with pytest.raises(ValueError, match="^sigma_multiple: expected positive finite number"):
        degradation_report(constant_log(), sigma_multiple=value)


@pytest.mark.parametrize("name, value", [
    ("v_ges", np.nan), ("v_ges", 0.0), ("v_ges", -1.0),
    ("record_interval", -7), ("record_interval", 0), ("record_interval", True),
    ("record_interval", 1.5),
])
def test_cycle_log_rejects_bad_scalars(name, value):
    # A log holds data only: its interval is its cycle spacing, and the
    # scalars it is recorded with are the protocol's, refused there by name.
    with pytest.raises(TypeError):
        CycleLog(cycles=[500, 1000], force_n=[0.5, 0.5], voff_mv=np.zeros((2, 4)),
                 **{name: value})
    with pytest.raises(ValueError, match=f"^{name}: expected"):
        DynamicProtocol(**{name: value})


@pytest.mark.parametrize("first", [2**53 - 1, -(2**53) - 4])
def test_cycle_log_rejects_indices_beyond_float64(first):
    # float64, which the writer formats cycles from, holds integers exactly up to 2**53
    with pytest.raises(ValueError, match="2\\*\\*53"):
        CycleLog(cycles=[first, first + 2], force_n=[0.5, 0.5], voff_mv=np.zeros((2, 4)))


@pytest.mark.parametrize("cycles, message", [
    ([0.5, 1.5, 2.5], "be integers"),  # the int cast would truncate them to 0, 1, 2
    ([500, np.nan, 1500], "lie within \\+-2\\*\\*53"),
    ([1e30, 2e30, 3e30], "lie within \\+-2\\*\\*53"),  # beyond int64 too
], ids=["fractional", "nan", "huge"])
def test_cycle_log_refuses_cycles_the_int_cast_would_change(cycles, message):
    with pytest.raises(ValueError, match=f"^cycle indices must {message}$"):
        CycleLog(cycles=cycles, force_n=[0.5] * 3, voff_mv=np.zeros((3, 4)))


# ---------------------------------------------------------------- overload

def reference_summary(side="front"):
    fit = WeibullFit(f0=1.22, beta=10.69)
    from forcebench import displacement_at_force, invert_failure_probability

    spec = SensorSpec()
    budget = []
    for p in (1e-6, 1e-5, 1e-4):
        f = invert_failure_probability(fit, p)
        budget.append(
            {
                "probability_ppm": p * 1e6,
                "f_max_N": f,
                "dz_max_um": displacement_at_force(spec, side, f),
            }
        )
    return FleetSummary(
        side=side,
        n_curves=20,
        fracture_force_mean_n=1.16,
        fracture_force_std_n=0.12,
        fracture_dz_mean_um=78.2,
        fracture_dz_std_um=4.6,
        hinge_counts={"inner": 0, "outer": 80, "unknown": 0},
        fit=fit,
        budget=budget,
    )


def test_overload_factors_reference_fit():
    disp_factor, force_factor = overload_factors(reference_summary())
    assert disp_factor == pytest.approx(19.2, abs=0.3)
    assert force_factor == pytest.approx(24.0, abs=1.0)


def test_overload_factor_is_one_at_budget_displacement():
    summary = reference_summary()
    disp_factor, _ = overload_factors(
        summary, nominal_dz_um=summary.budget[0]["dz_max_um"]
    )
    assert disp_factor == pytest.approx(1.0, rel=1e-12)


def test_overload_requires_one_ppm_row():
    summary = reference_summary()
    summary.budget = summary.budget[1:]
    with pytest.raises(ValueError):
        overload_factors(summary)
