"""Analysis of measured curves: stiffness, failures, fleet and cycle stats.

Works purely on recorded data (:class:`LoadCurve`, :class:`CycleLog`); the
only model knowledge used is the calibrated force-displacement law needed
to translate budget forces into displacements.  The fleet summary reduces
blocks of curves on one displacement grid, such as ``bench.RampBlock``, a
:class:`LoadCurve` being a block of one, with the drop rule of
:func:`detect_failures` and the ring rule of :func:`classify_failures`;
:func:`fracture_point` is that reduction of one curve.  A cycle log's
record interval is its cycle spacing.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DegenerateDataError,
    InsufficientDataError,
    NoFailureError,
)
from .sensor import (
    ARMS,
    NONNEGATIVE,
    POSITIVE,
    Ruled,
    SensorSpec,
    _check_value,
    displacement_at_force,
    force_at_displacement,
)
from .weibull import WeibullFit, fit_weibull, invert_failure_probability

UNKNOWN = "unknown"

DEFAULT_DROP_FRACTION = 0.10
DEFAULT_DROP_FLOOR_N = 0.050  # ten times the rig's 5 mN force resolution
DEFAULT_SIGMA_MULTIPLE = 3.0
BUDGET_PROBABILITIES = (1e-6, 1e-5, 1e-4)  # ascending, as the budget table lists them
STIFFNESS_WINDOW_UM = 20.0


@dataclass
class LoadCurve:
    """One static destructive test record.

    Column arrays over the samples: displacement ``dz_um`` (nondecreasing),
    force ``force_n`` (both finite) and the four bridge offsets ``voff_mv``
    (n x 4, arm order A..D; NaN marks supply loss) with a per-sample
    validity flag.
    """

    side: str
    dz_um: np.ndarray
    force_n: np.ndarray
    voff_mv: np.ndarray
    valid: np.ndarray

    def __post_init__(self) -> None:
        self.dz_um = np.asarray(self.dz_um, dtype=float)
        self.force_n = np.asarray(self.force_n, dtype=float)
        self.voff_mv = np.asarray(self.voff_mv, dtype=float)
        self.valid = np.asarray(self.valid, dtype=bool)
        n = self.dz_um.size
        if self.force_n.size != n or self.valid.size != n or self.voff_mv.shape != (n, 4):
            raise ValueError("curve arrays must agree in length")
        if not (np.isfinite(self.dz_um).all() and np.isfinite(self.force_n).all()):
            raise ValueError("curve displacements and forces must be finite")
        if np.any(np.diff(self.dz_um) < 0):
            raise ValueError("displacement samples must be nondecreasing")

    def __len__(self) -> int:
        return int(self.dz_um.size)


@dataclass
class FailureEvent(Ruled):
    """A detected force discontinuity, attributed to one membrane hinge."""

    sample_index: int
    force_drop_n: float = field(metadata=POSITIVE)
    arm: str = UNKNOWN
    position: str = UNKNOWN


@dataclass
class CycleLog:
    """Long-term test record; its constant cycle spacing is the record interval.

    Forces and offsets must be finite: unlike a load curve, a cycle log
    has no validity flag to mark a lost reading.  Cycle indices are integers
    within +-2**53, where float64, which the writer formats them from, is exact.
    """

    cycles: np.ndarray
    force_n: np.ndarray
    voff_mv: np.ndarray

    def __post_init__(self) -> None:
        cycles = np.asarray(self.cycles)
        self.force_n = np.asarray(self.force_n, dtype=float)
        self.voff_mv = np.asarray(self.voff_mv, dtype=float)
        n = cycles.size
        if self.force_n.size != n or self.voff_mv.shape != (n, 4):
            raise ValueError("cycle log arrays must agree in length")
        if not (np.isfinite(self.force_n).all() and np.isfinite(self.voff_mv).all()):
            raise ValueError("cycle log forces and offsets must be finite")
        # before the int cast: it truncates fractions, and fails on NaN or huge values
        if not np.all((cycles >= -(2**53)) & (cycles <= 2**53)):
            raise ValueError("cycle indices must lie within +-2**53")
        if np.any(cycles % 1 != 0):
            raise ValueError("cycle indices must be integers")
        self.cycles = cycles.astype(int)
        if n >= 2:
            spacing = np.diff(self.cycles)
            if np.any(spacing <= 0) or np.any(spacing != spacing[0]):
                raise ValueError("cycle indices must increase with constant spacing")

    def __len__(self) -> int:
        return int(self.cycles.size)


@dataclass
class ChannelStats:
    """Mean, spread and linear trend of one recorded channel."""

    mean: float
    std: float
    rel_std_pct: float | None  # None where it is undefined: a mean of exactly 0
    slope_per_cycle: float


@dataclass
class DegradationReport:
    """Per-channel statistics of a cycle log plus a degradation verdict."""

    channels: dict[str, ChannelStats]
    total_cycles: int
    sigma_multiple: float
    verdict: str  # "stable" or "degraded"


@dataclass
class FleetSummary:
    """Aggregate destructive-test results of a fleet of specimens."""

    side: str
    n_curves: int
    fracture_force_mean_n: float
    fracture_force_std_n: float
    fracture_dz_mean_um: float
    fracture_dz_std_um: float
    hinge_counts: dict[str, int]
    fit: WeibullFit | None
    budget: list[dict] = field(default_factory=list)


def extract_stiffness(curve: LoadCurve) -> float:
    """Initial stiffness [mN/um] from the low-displacement region.

    Free-intercept least-squares slope of force versus displacement over
    all samples with dz <= ``STIFFNESS_WINDOW_UM``; the intercept absorbs
    any contact-detection offset.
    """
    mask = curve.dz_um <= STIFFNESS_WINDOW_UM
    if int(mask.sum()) < 3:
        raise InsufficientDataError(
            f"need at least 3 samples below {STIFFNESS_WINDOW_UM} um, got {int(mask.sum())}"
        )
    z = curve.dz_um[mask]
    f = curve.force_n[mask]
    z_mean = z.mean()
    sxx = float(np.sum((z - z_mean) ** 2))
    if sxx == 0.0:
        raise DegenerateDataError("no displacement spread below the fit limit")
    slope = float(np.sum((z - z_mean) * (f - f.mean()))) / sxx
    return slope * 1e3


def _drops(
    dz: np.ndarray, force: np.ndarray, drop_fraction: float, drop_floor_n: float
) -> tuple[np.ndarray, np.ndarray]:
    """The drop rule: force drops between consecutive samples, and which are failures.

    ``force`` is (..., n) and ``dz`` (n,) or of the same shape.  The drop
    from sample i to i+1 is a failure when it exceeds
    max(drop_fraction * f_i, drop_floor_n) while the displacement is
    increasing.
    """
    _check_value("drop_fraction", drop_fraction, NONNEGATIVE)
    _check_value("drop_floor_n", drop_floor_n, NONNEGATIVE)
    drop = force[..., :-1] - force[..., 1:]
    hits = (dz[..., 1:] > dz[..., :-1]) & (
        drop > np.maximum(drop_fraction * force[..., :-1], drop_floor_n))
    return drop, hits


def detect_failures(
    curve: LoadCurve,
    drop_fraction: float = DEFAULT_DROP_FRACTION,
    drop_floor_n: float = DEFAULT_DROP_FLOOR_N,
) -> list[FailureEvent]:
    """Find hinge failures as force drops between consecutive samples.

    An event is recorded at index i when the force falls from sample i to
    i+1 by more than max(drop_fraction * f_i, drop_floor_n) while the
    displacement is increasing.  Smooth curves yield an empty list.
    """
    drop, hits = _drops(curve.dz_um, curve.force_n, drop_fraction, drop_floor_n)
    return [FailureEvent(sample_index=i, force_drop_n=d)
            for i, d in zip(np.flatnonzero(hits).tolist(), drop[hits].tolist())]


def first_failures(
    block,
    drop_fraction: float = DEFAULT_DROP_FRACTION,
    drop_floor_n: float = DEFAULT_DROP_FLOOR_N,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Reduce a block of curves to its first failures, one entry per curve.

    ``block`` is a :class:`LoadCurve` (a block of one) or has its fields,
    with one displacement grid ``dz_um`` (n,) and ``force_n`` and
    ``valid`` of shape (m, n), such as a ``bench.RampBlock``.  Returns the
    sample index of each curve's first failure event, the force [N] and
    displacement [um] there (its :func:`fracture_point`), and its number
    of events (those of :func:`detect_failures`).  A curve without events
    has index -1 and NaN force and displacement.
    """
    force = np.atleast_2d(block.force_n)
    _, hits = _drops(block.dz_um, force, drop_fraction, drop_floor_n)
    events = hits.sum(axis=-1)
    failed = events > 0
    if not failed.any():  # also a curve of fewer than two samples, which has no drop
        none = np.full(len(force), np.nan)
        return np.full(len(force), -1), none, none.copy(), events
    first = np.where(failed, hits.argmax(axis=-1), -1)
    f_first = np.where(failed, force[np.arange(len(force)), first], np.nan)
    return first, f_first, np.where(failed, block.dz_um[first], np.nan), events


def fracture_point(curve: LoadCurve) -> tuple[float, float]:
    """(force [N], displacement [um]) right before the first failure: the
    :func:`first_failures` of a block of one, at the default thresholds."""
    _, f, dz, events = first_failures(curve)
    if not events[0]:
        raise NoFailureError("curve has no detected failure event")
    return float(f[0]), float(dz[0])


def ring_events(events, readable, side: str) -> dict[str, np.ndarray]:
    """Events of each curve charged to each hinge ring: the tensile-ring rule.

    ``events`` holds each curve's number of failure events and
    ``readable`` whether it has any valid bridge data.  The position is
    inferred from the load direction: the first four events of a curve
    go to the tensile ring of ``side``, later ones to the other ring (the
    tensile ring only holds four hinges).  Every event of a curve without
    valid bridge data is unknown.  Keys are the tensile ring, the other
    ring and ``UNKNOWN``, in the order a curve's events take them.
    """
    tensile = SensorSpec.tensile_position(side)
    unknown = np.where(readable, 0, events)
    first_four = np.minimum(events - unknown, len(ARMS))
    other = "inner" if tensile == "outer" else "outer"
    return {tensile: first_four, other: events - unknown - first_four, UNKNOWN: unknown}


def classify_failures(
    curve: LoadCurve, events: list[FailureEvent], side: str
) -> list[FailureEvent]:
    """Attribute detected events to a cross arm and hinge position.

    The arm is the one whose offset magnitude changes most across the
    event; a valid-to-invalid transition identifies arm C (loss of the
    supply leads), and events after that keep an unknown arm.  The
    position follows :func:`ring_events`.  A curve without any valid
    bridge data gives fully unknown events.  ``side`` must be the curve's.
    """
    if side != curve.side:
        raise ValueError(f"side {side!r} is not the curve's load side {curve.side!r}")
    rings = ring_events(len(events), curve.valid.any(), side)
    positions = [ring for ring, count in rings.items() for _ in range(int(count))]
    classified: list[FailureEvent] = []
    for event, position in zip(events, positions):
        i = event.sample_index
        if not curve.valid[i]:
            arm = UNKNOWN
        elif not curve.valid[i + 1]:
            arm = "C"  # supply lost across the event
        else:
            changes = np.abs(np.abs(curve.voff_mv[i + 1]) - np.abs(curve.voff_mv[i]))
            arm = ARMS[int(np.argmax(changes))]
        classified.append(
            FailureEvent(event.sample_index, event.force_drop_n, arm, position)
        )
    return classified


def fleet_summary(
    curves: Iterable,
    spec: SensorSpec | None = None,
    drop_fraction: float = DEFAULT_DROP_FRACTION,
    drop_floor_n: float = DEFAULT_DROP_FLOOR_N,
) -> FleetSummary:
    """Aggregate fracture statistics over a fleet of destructive tests.

    Computes mean/std of the first-fracture points, tallies classified
    hinge positions, fits the Weibull law to the first-fracture forces and
    evaluates the tolerable-load budget at ``BUDGET_PROBABILITIES``.  The
    budget displacements come from the calibrated force-displacement law
    of ``spec`` (defaults to the standard design).

    ``curves`` may be any iterable of curves or blocks of curves (see
    :func:`first_failures`); it is read once, keeping only each curve's
    fracture point and hinge-ring counts.  A fleet that mixes load sides is
    reported before the first error of a single curve, which is held until
    the iterable is exhausted, so the iterable's own errors come first.
    """
    if spec is None:
        spec = SensorSpec()
    sides: set[str] = set()
    # per curve: first-fracture force and displacement, events, any valid bridge data
    columns: tuple[list, ...] = ([], [], [], [])
    error = None
    for block in curves:
        sides.add(block.side)
        if error is not None:
            continue
        try:
            if block.dz_um.size < 10:
                raise InsufficientDataError("curves need at least 10 samples")
            _, f, dz, events = first_failures(block, drop_fraction, drop_floor_n)
            readable = np.atleast_2d(block.valid).any(axis=-1)
            reduced = [values.tolist() for values in (f, dz, events, readable)]
            # a floor below the noise finds drops at rest; NaN (no failure) is not <= 0
            nonpositive = next((x for x in reduced[0] if x <= 0), None)
            if nonpositive is not None:
                raise ValueError(
                    f"drop_floor_n: {drop_floor_n!r} detects a first fracture at"
                    f" {nonpositive!r} N, not a positive force; set it above the force noise")
            for column, values in zip(columns, reduced):
                column += values
        except ValueError as exc:  # ForceBenchError included
            error = exc
        del block  # before the next one is made
    if len(sides) > 1:
        raise ValueError(f"fleet mixes load sides: {sorted(sides)}")
    if error is not None:
        raise error
    f, dz, events, readable = map(np.array, columns)
    failed = events > 0
    n_failed = int(np.count_nonzero(failed))
    if n_failed < 3:
        raise InsufficientDataError(
            f"need at least 3 curves with detected failures, got {n_failed}"
        )

    (side,) = sides
    forces_arr, dz_arr = f[failed], dz[failed]
    rings = ring_events(events, readable, side)
    counts = {ring: int(rings[ring].sum()) for ring in ("inner", "outer", UNKNOWN)}
    try:
        fit = fit_weibull(forces_arr)
    except DegenerateDataError:
        fit = None  # e.g. duplicated curves; stats are still meaningful

    budget = []
    if fit is not None:
        for p in BUDGET_PROBABILITIES:
            f_max = invert_failure_probability(fit, p)
            budget.append(
                {
                    "probability_ppm": p * 1e6,
                    "f_max_n": f_max,
                    "dz_max_um": displacement_at_force(spec, side, f_max),
                }
            )

    return FleetSummary(
        side=side,
        n_curves=n_failed,
        fracture_force_mean_n=float(forces_arr.mean()),
        fracture_force_std_n=float(forces_arr.std(ddof=1)),
        fracture_dz_mean_um=float(dz_arr.mean()),
        fracture_dz_std_um=float(dz_arr.std(ddof=1)),
        hinge_counts=counts,
        fit=fit,
        budget=budget,
    )


def degradation_report(
    log: CycleLog, sigma_multiple: float = DEFAULT_SIGMA_MULTIPLE
) -> DegradationReport:
    """Per-channel statistics and a drift verdict for a long-term test.

    For the force and each offset channel: mean, standard deviation,
    relative standard deviation and the least-squares trend slope per
    cycle.  The verdict is ``degraded`` when, for any offset channel, the
    trend accumulated over the full run exceeds ``sigma_multiple`` times
    the detrended (residual) scatter of that channel.  The run lasts the
    span of the cycle indices plus one record interval, the cycle spacing.
    """
    _check_value("sigma_multiple", sigma_multiple, POSITIVE)
    if len(log) < 10:
        raise InsufficientDataError(
            f"need at least 10 log entries, got {len(log)}"
        )
    cycles = log.cycles.astype(float)
    centred = cycles - cycles.mean()
    sxx = float(np.sum(centred**2))
    spacing = log.cycles[1] - log.cycles[0]  # the record interval
    total_cycles = int(log.cycles[-1] - log.cycles[0] + spacing)
    channels: dict[str, ChannelStats] = {}
    degraded = False
    series = {"force_N": log.force_n}
    for j, arm in enumerate(ARMS):
        series[f"voff{arm}_mV"] = log.voff_mv[:, j]
    for name, values in series.items():
        v_mean = values.mean()
        mean = float(v_mean)
        std = float(values.std(ddof=1))
        rel = abs(std / mean) * 100.0 if mean != 0.0 else None
        slope = float(np.sum(centred * (values - v_mean))) / sxx
        channels[name] = ChannelStats(mean, std, rel, slope)
        if name != "force_N":
            residual = values - (v_mean + slope * centred)
            resid_std = float(residual.std(ddof=1))
            if abs(slope) * total_cycles > sigma_multiple * resid_std:
                degraded = True
    return DegradationReport(
        channels=channels,
        total_cycles=total_cycles,
        sigma_multiple=sigma_multiple,
        verdict="degraded" if degraded else "stable",
    )


def overload_factors(
    summary: FleetSummary,
    spec: SensorSpec | None = None,
    nominal_dz_um: float = 2.0,
) -> tuple[float, float]:
    """Overload headroom of the 1 ppm budget over nominal operation.

    Returns (displacement factor, force factor): the 1 ppm tolerable
    displacement over ``nominal_dz_um``, and the 1 ppm tolerable force
    over the force at the nominal displacement.
    """
    if spec is None:
        spec = SensorSpec()
    row = next(
        (r for r in summary.budget if abs(r["probability_ppm"] - 1.0) < 1e-9), None
    )
    if row is None:
        raise ValueError("budget table has no 1 ppm row")
    _check_value("nominal_dz_um", nominal_dz_um, POSITIVE)
    nominal_force = force_at_displacement(spec, summary.side, nominal_dz_um)
    return row["dz_max_um"] / nominal_dz_um, row["f_max_n"] / nominal_force
