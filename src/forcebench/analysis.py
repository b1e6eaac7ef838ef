"""Analysis of measured curves: stiffness, failures, fleet and cycle stats.

Works purely on recorded data (:class:`LoadCurve`, :class:`CycleLog`); the
only model knowledge used is the calibrated force-displacement law needed to
translate budget forces into displacements.  :class:`CurveBlock` declares a
curve's fields and rules once, and checks them wherever a block is made: a
``bench.RampBlock``, what ``fileio.read_curve_blocks`` reads, or a
:class:`LoadCurve`, the block of one with bridge offsets.
:func:`reduce_block`, the one place where a fleet's curves meet the drop
thresholds, reduces a block in any process, with the drop rule of
:func:`detect_failures`.  :func:`fleet_summary` sums the reductions with the
ring rule of :func:`classify_failures`.  A cycle log's record interval is
its cycle spacing.
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
    NONNEGATIVE_INT,
    POSITIVE,
    Ruled,
    SIDE,
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


# Curves in one block: what fleet_block advances through one kernel call and
# read_curve_blocks stacks from files.  Large enough to spread numpy's
# per-call cost over many curves, small enough that a block's working
# arrays stay a few MB and do not raise peak memory.
FLEET_BLOCK = 128


@dataclass
class CurveBlock(Ruled):
    """Up to ``FLEET_BLOCK`` curves on one displacement grid, as
    :func:`reduce_block` reduces them: displacement ``dz_um`` (n,),
    nondecreasing and shared by every curve, and force ``force_n`` (both
    finite) with a per-sample validity flag ``valid``, (m, n) with one row
    per curve.  Its ``len`` is that of ``force_n``: a block's curves, and a
    :class:`LoadCurve`'s samples.
    """

    side: str = field(metadata=SIDE)
    dz_um: np.ndarray
    force_n: np.ndarray
    valid: np.ndarray

    def __post_init__(self) -> None:
        super().__post_init__()
        self.dz_um = np.asarray(self.dz_um, dtype=float)
        self.force_n = np.asarray(self.force_n, dtype=float)
        self.valid = np.asarray(self.valid, dtype=bool)
        if (self.dz_um.ndim != 1 or self.force_n.shape[-1:] != self.dz_um.shape
                or self.valid.shape != self.force_n.shape):
            raise ValueError("curve arrays must agree in length")
        if not (np.isfinite(self.dz_um).all() and np.isfinite(self.force_n).all()):
            raise ValueError("curve displacements and forces must be finite")
        if np.any(self.dz_um[1:] < self.dz_um[:-1]):  # a step may overflow: compare
            raise ValueError("displacement samples must be nondecreasing")

    def __len__(self) -> int:
        return len(self.force_n)


@dataclass
class LoadCurve(CurveBlock):
    """One static destructive test record: a :class:`CurveBlock` of one,
    with (n,) rows, plus the four bridge offsets ``voff_mv`` (n x 4, arm
    order A..D; NaN marks supply loss)."""

    voff_mv: np.ndarray

    def __post_init__(self) -> None:
        super().__post_init__()
        self.voff_mv = np.asarray(self.voff_mv, dtype=float)
        if self.force_n.ndim != 1 or self.voff_mv.shape != (len(self), 4):
            raise ValueError("curve arrays must agree in length")


@dataclass
class FailureEvent(Ruled):
    """A detected force discontinuity, attributed to one membrane hinge."""

    sample_index: int = field(metadata=NONNEGATIVE_INT)
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
    budget: list[dict] = field(default_factory=list)  # probability_ppm, f_max_N, dz_max_um


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

    ``force`` is (..., n) and ``dz`` (n,).  The drop from sample i to i+1
    is a failure when it exceeds max(drop_fraction * f_i, drop_floor_n)
    while the displacement is increasing.
    """
    _check_value("drop_fraction", drop_fraction, NONNEGATIVE)
    _check_value("drop_floor_n", drop_floor_n, NONNEGATIVE)
    drop = force[..., :-1] - force[..., 1:]
    hits = (dz[1:] > dz[:-1]) & (
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
    block: CurveBlock,
    drop_fraction: float = DEFAULT_DROP_FRACTION,
    drop_floor_n: float = DEFAULT_DROP_FLOOR_N,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Reduce a block of curves to its first failures, one entry per curve.

    A :class:`LoadCurve`'s (n,) rows are read as one curve.  Returns the
    sample index of each curve's first failure event, the force [N] and
    displacement [um] there (its :func:`fracture_point`), and its number
    of events (those of :func:`detect_failures`).  A curve without events has index -1 and NaN
    force and displacement.
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
    bridge data gives fully unknown events.  ``side`` must be the curve's,
    and each event needs a sample after it.
    """
    if side != curve.side:
        raise ValueError(f"side {side!r} is not the curve's load side {curve.side!r}")
    rings = ring_events(len(events), curve.valid.any(), side)
    positions = [ring for ring, count in rings.items() for _ in range(int(count))]
    i = np.array([event.sample_index for event in events], dtype=np.intp)
    if i.size and i.max() >= len(curve) - 1:
        raise ValueError(f"sample_index: expected an index below {len(curve) - 1}, the"
                         f" curve's last sample, got {i.max()}")
    changes = np.abs(np.abs(curve.voff_mv[i + 1]) - np.abs(curve.voff_mv[i]))
    # unknown without a reading at i, C (the supply leads) where it is lost at i + 1
    arms = np.where(~curve.valid[i], len(ARMS),
                    np.where(~curve.valid[i + 1], ARMS.index("C"), changes.argmax(axis=-1)))
    labels = (*ARMS, UNKNOWN)
    return [FailureEvent(event.sample_index, event.force_drop_n, labels[arm], position)
            for event, arm, position in zip(events, arms.tolist(), positions)]


@dataclass
class BlockReduction:
    """What :func:`fleet_summary` keeps of a block (see :func:`reduce_block`):
    its side, and per curve, in arrays of the block's curve count (its
    ``len``), the first-fracture force ``force_n`` [N] and displacement
    ``dz_um`` [um], the number of failure ``events``, and whether it is
    ``readable``, with any valid bridge data."""

    side: str
    force_n: np.ndarray
    dz_um: np.ndarray
    events: np.ndarray
    readable: np.ndarray

    def __len__(self) -> int:
        return len(self.events)


def reduce_block(
    block: CurveBlock,
    drop_fraction: float = DEFAULT_DROP_FRACTION,
    drop_floor_n: float = DEFAULT_DROP_FLOOR_N,
) -> BlockReduction:
    """Reduce a block of curves to what the fleet summary keeps of it.

    Each curve's values depend on that curve alone, so the reductions of a
    fleet do not depend on how it is cut into blocks, and they are small
    enough to pass between processes in place of the blocks.
    """
    if block.dz_um.size < 10:
        raise InsufficientDataError("curves need at least 10 samples")
    _, f, dz, events = first_failures(block, drop_fraction, drop_floor_n)
    # a floor below the noise finds drops at rest; NaN (no failure) is not <= 0
    low = f[f <= 0]
    if low.size:
        raise ValueError(
            f"drop_floor_n: {drop_floor_n!r} detects a first fracture at"
            f" {float(low[0])!r} N, not a positive force; set it above the force noise")
    return BlockReduction(block.side, force_n=f, dz_um=dz, events=events,
                          readable=np.atleast_2d(block.valid).any(axis=-1))


def fleet_summary(
    reductions: Iterable[BlockReduction], spec: SensorSpec | None = None
) -> FleetSummary:
    """Aggregate fracture statistics over a fleet of destructive tests.

    Computes mean/std of the first-fracture points, tallies classified
    hinge positions, fits the Weibull law to the first-fracture forces and
    evaluates the tolerable-load budget at ``BUDGET_PROBABILITIES``.  The
    budget displacements come from the calibrated force-displacement law
    of ``spec`` (defaults to the standard design).

    ``reductions`` may be any iterable of :class:`BlockReduction`s, each
    made by :func:`reduce_block` with the thresholds it was given; it is
    read once, and the per-curve arrays are joined by field name.  A
    reduction whose load side differs from the first one's stops the
    reading there, as does any error its iterable raises.
    """
    if spec is None:
        spec = SensorSpec()
    kept: list[BlockReduction] = []
    for reduction in reductions:
        if kept and reduction.side != kept[0].side:
            raise ValueError(f"fleet mixes load sides: {sorted({kept[0].side, reduction.side})}")
        kept.append(reduction)
    # counted before the arrays are joined: an empty fleet has none to join
    n_failed = sum(int(np.count_nonzero(r.events)) for r in kept)
    if n_failed < 3:
        raise InsufficientDataError(
            f"need at least 3 curves with detected failures, got {n_failed}"
        )

    side = kept[0].side
    events = np.concatenate([r.events for r in kept])
    failed = events > 0
    forces_arr = np.concatenate([r.force_n for r in kept])[failed]
    dz_arr = np.concatenate([r.dz_um for r in kept])[failed]
    rings = ring_events(events, np.concatenate([r.readable for r in kept]), side)
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
                    "f_max_N": f_max,
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
    return row["dz_max_um"] / nominal_dz_um, row["f_max_N"] / nominal_force
