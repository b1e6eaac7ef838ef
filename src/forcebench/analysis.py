"""Analysis of measured curves: stiffness, failures, fleet and cycle stats.

Works purely on recorded data (:class:`LoadCurve`, :class:`CycleLog`); the
only model knowledge used is the calibrated force-displacement law needed
to translate budget forces into displacements.
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
    POSITIVE_INT,
    SensorSpec,
    _check_fields,
    _check_value,
    displacement_at_force,
    force_at_displacement,
)
from .weibull import WeibullFit, fit_weibull, invert_failure_probability

UNKNOWN = "unknown"

DEFAULT_DROP_FRACTION = 0.10
DEFAULT_DROP_FLOOR_N = 0.050  # ten times the rig's 5 mN force resolution
DEFAULT_SIGMA_MULTIPLE = 3.0
BUDGET_PROBABILITIES = (1e-6, 1e-5, 1e-4)


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
class FailureEvent:
    """A detected force discontinuity, attributed to one membrane hinge."""

    sample_index: int
    force_drop_n: float
    arm: str = UNKNOWN
    position: str = UNKNOWN

    def __post_init__(self) -> None:
        if self.force_drop_n <= 0:
            raise ValueError("a failure event needs a positive force drop")


@dataclass
class CycleLog:
    """Long-term test record sampled every ``record_interval`` cycles.

    Forces and offsets must be finite: unlike a load curve, a cycle log
    has no validity flag to mark a lost reading.  Cycle indices lie within
    +-2**53, where float64, which the writer formats them from, is exact.
    """

    cycles: np.ndarray
    force_n: np.ndarray
    voff_mv: np.ndarray
    v_ges: float = field(metadata=POSITIVE)
    record_interval: int = field(metadata=POSITIVE_INT)

    def __post_init__(self) -> None:
        _check_fields(self)
        self.cycles = np.asarray(self.cycles, dtype=int)
        self.force_n = np.asarray(self.force_n, dtype=float)
        self.voff_mv = np.asarray(self.voff_mv, dtype=float)
        n = self.cycles.size
        if self.force_n.size != n or self.voff_mv.shape != (n, 4):
            raise ValueError("cycle log arrays must agree in length")
        if not (np.isfinite(self.force_n).all() and np.isfinite(self.voff_mv).all()):
            raise ValueError("cycle log forces and offsets must be finite")
        if np.any((self.cycles < -(2**53)) | (self.cycles > 2**53)):
            raise ValueError("cycle indices must lie within +-2**53")
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
    rel_std_pct: float
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


def extract_stiffness(curve: LoadCurve, dz_limit_um: float = 20.0) -> float:
    """Initial stiffness [mN/um] from the low-displacement region.

    Free-intercept least-squares slope of force versus displacement over
    all samples with dz <= ``dz_limit_um``; the intercept absorbs any
    contact-detection offset.
    """
    mask = curve.dz_um <= dz_limit_um
    if int(mask.sum()) < 3:
        raise InsufficientDataError(
            f"need at least 3 samples below {dz_limit_um} um, got {int(mask.sum())}"
        )
    z = curve.dz_um[mask]
    f = curve.force_n[mask]
    z_mean = z.mean()
    sxx = float(np.sum((z - z_mean) ** 2))
    if sxx == 0.0:
        raise DegenerateDataError("no displacement spread below the fit limit")
    slope = float(np.sum((z - z_mean) * (f - f.mean()))) / sxx
    return slope * 1e3


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
    _check_value("drop_fraction", drop_fraction, NONNEGATIVE)
    _check_value("drop_floor_n", drop_floor_n, NONNEGATIVE)
    f = curve.force_n
    dz = curve.dz_um
    drop = f[:-1] - f[1:]
    hits = (dz[1:] > dz[:-1]) & (drop > np.maximum(drop_fraction * f[:-1], drop_floor_n))
    return [FailureEvent(sample_index=i, force_drop_n=d)
            for i, d in zip(np.flatnonzero(hits).tolist(), drop[hits].tolist())]


def fracture_point(
    curve: LoadCurve, events: list[FailureEvent] | None = None
) -> tuple[float, float]:
    """(force [N], displacement [um]) right before the first failure."""
    if events is None:
        events = detect_failures(curve)
    if not events:
        raise NoFailureError("curve has no detected failure event")
    i = events[0].sample_index
    return float(curve.force_n[i]), float(curve.dz_um[i])


def _other_position(position: str) -> str:
    return "inner" if position == "outer" else "outer"


def classify_failures(
    curve: LoadCurve, events: list[FailureEvent], side: str
) -> list[FailureEvent]:
    """Attribute detected events to a cross arm and hinge position.

    The arm is the one whose offset magnitude changes most across the
    event; a valid-to-invalid transition identifies arm C (loss of the
    supply leads), and events after that keep an unknown arm.  The
    position is inferred from the load direction: the first four events of
    a curve are charged to the tensile ring, later ones to the other ring
    (the tensile ring only holds four hinges).  A curve without any valid
    bridge data gives fully unknown events.
    """
    if not any(curve.valid):
        return [
            FailureEvent(e.sample_index, e.force_drop_n, UNKNOWN, UNKNOWN)
            for e in events
        ]
    tensile = SensorSpec.tensile_position(side)
    classified: list[FailureEvent] = []
    for ordinal, event in enumerate(events):
        i = event.sample_index
        before_valid = bool(curve.valid[i])
        after_valid = bool(curve.valid[i + 1])
        if not before_valid:
            arm = UNKNOWN
        elif not after_valid:
            arm = "C"  # supply lost across the event
        else:
            changes = np.abs(np.abs(curve.voff_mv[i + 1]) - np.abs(curve.voff_mv[i]))
            arm = ARMS[int(np.argmax(changes))]
        position = tensile if ordinal < 4 else _other_position(tensile)
        classified.append(
            FailureEvent(event.sample_index, event.force_drop_n, arm, position)
        )
    return classified


def fleet_summary(
    curves: Iterable[LoadCurve],
    spec: SensorSpec | None = None,
    drop_fraction: float = DEFAULT_DROP_FRACTION,
    drop_floor_n: float = DEFAULT_DROP_FLOOR_N,
    probabilities: tuple[float, ...] = BUDGET_PROBABILITIES,
) -> FleetSummary:
    """Aggregate fracture statistics over a fleet of destructive tests.

    Computes mean/std of the first-fracture points, tallies classified
    hinge positions, fits the Weibull law to the first-fracture forces and
    evaluates the tolerable-load budget at the given probabilities.  The
    budget displacements come from the calibrated force-displacement law
    of ``spec`` (defaults to the standard design).

    ``curves`` may be any iterable; it is read once, keeping only each
    curve's fracture point and hinge positions.  A fleet that mixes load
    sides is reported before the first error of a single curve, which is
    held until the iterable is exhausted, so the iterable's own errors
    come first.
    """
    if spec is None:
        spec = SensorSpec()
    sides: set[str] = set()
    forces, dzs = [], []
    counts = {"inner": 0, "outer": 0, UNKNOWN: 0}
    error = None
    for curve in curves:
        sides.add(curve.side)
        if error is not None:
            continue
        try:
            if len(curve) < 10:
                raise InsufficientDataError("curves need at least 10 samples")
            events = detect_failures(curve, drop_fraction, drop_floor_n)
            if events:
                f, dz = fracture_point(curve, events)
                if not f > 0:  # a floor below the noise finds drops at rest
                    raise ValueError(
                        f"drop_floor_n: {drop_floor_n!r} detects a first fracture at"
                        f" {f!r} N, not a positive force; set it above the force noise")
                forces.append(f)
                dzs.append(dz)
                for event in classify_failures(curve, events, curve.side):
                    counts[event.position] += 1
        except ValueError as exc:  # ForceBenchError included
            error = exc
    if len(sides) > 1:
        raise ValueError(f"fleet mixes load sides: {sorted(sides)}")
    if error is not None:
        raise error
    if len(forces) < 3:
        raise InsufficientDataError(
            f"need at least 3 curves with detected failures, got {len(forces)}"
        )

    forces_arr = np.asarray(forces)
    dz_arr = np.asarray(dzs)
    try:
        fit = fit_weibull(forces_arr)
    except DegenerateDataError:
        fit = None  # e.g. duplicated curves; stats are still meaningful

    (side,) = sides
    budget = []
    if fit is not None:
        for p in sorted(probabilities):
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
        n_curves=len(forces),
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
    the detrended (residual) scatter of that channel.
    """
    _check_value("sigma_multiple", sigma_multiple, POSITIVE)
    if len(log) < 10:
        raise InsufficientDataError(
            f"need at least 10 log entries, got {len(log)}"
        )
    cycles = log.cycles.astype(float)
    centred = cycles - cycles.mean()
    sxx = float(np.sum(centred**2))
    total_cycles = int(log.cycles[-1] - log.cycles[0] + log.record_interval)
    channels: dict[str, ChannelStats] = {}
    degraded = False
    series = {"force_N": log.force_n}
    for j, arm in enumerate(ARMS):
        series[f"voff{arm}_mV"] = log.voff_mv[:, j]
    for name, values in series.items():
        v_mean = values.mean()
        mean = float(v_mean)
        std = float(values.std(ddof=1))
        rel = abs(std / mean) * 100.0 if mean != 0.0 else float("inf")
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
