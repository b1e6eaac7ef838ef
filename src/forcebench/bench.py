"""Virtual test rig: seeded specimen generation, static ramps, cycling.

The modeled rig drives the sensor die with a positioning stage against a
fixed reference force sensor (5 mN resolution) for destructive ramps, and
cycles the load with a nanopositioner for long-term tests.  All
randomness flows through a caller-supplied numpy generator, so every run
is a pure function of its inputs and seed.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, field

import numpy as np

from .analysis import CycleLog, LoadCurve
from .errors import OverloadError, ProtocolLimitError
from .sensor import (
    ALL_HINGES,
    FINITE,
    FLEET_SIZE,
    N_HINGES,
    NONNEGATIVE,
    NONNEGATIVE_INT,
    POSITIVE,
    POSITIVE_INT,
    SIDE,
    SensorSpec,
    SensorState,
    bridge_gains,
    bridge_offsets_at_load,
    failure_threshold_force,
    hinge_breaks,
    intact_force,
    stiffness_factor,
    _check_fields,
    _check_side,
)

# Specimens that iter_fleet advances through one kernel call.  Large enough
# to spread numpy's per-call cost over many specimens, small enough that a
# block's working arrays stay a few MB and do not raise peak memory.
FLEET_BLOCK = 128


@dataclass(frozen=True)
class RigConfig:
    """Instrument characteristics and hard limits of the test rig.

    Gaussian measurement noise uses sigma = resolution/2 (force) and
    accuracy/2 (positioning).  The coarse stage enters as one contact
    offset per ramp, the nanopositioner as per-sample jitter.  Hold-point
    readings of the reference force sensor carry a small calibration bias
    (``force_read_bias``) and the back-solved hold noise levels.
    """

    force_resolution_n: float = field(default=0.005, metadata=NONNEGATIVE)
    stage_accuracy_um: float = field(default=2.0, metadata=NONNEGATIVE)
    nano_accuracy_um: float = field(default=0.02, metadata=NONNEGATIVE)
    max_force_n: float = field(default=3.6, metadata=POSITIVE)
    max_frequency_hz: float = field(default=20.0, metadata=POSITIVE)
    dz_max_um: float = field(default=200.0, metadata=POSITIVE)
    force_read_bias: float = field(default=1.00704, metadata=POSITIVE)
    hold_force_noise_n: float = field(default=0.00037, metadata=NONNEGATIVE)
    hold_offset_noise_mv: float = field(default=0.28, metadata=NONNEGATIVE)

    def __post_init__(self) -> None:
        _check_fields(self)


@dataclass(frozen=True)
class StaticProtocol:
    """Destructive ramp: step the displacement from 0 to ``dz_max_um``."""

    side: str = field(default="front", metadata=SIDE)
    dz_max_um: float = field(default=200.0, metadata=POSITIVE)
    step_um: float = field(default=0.5, metadata=POSITIVE)
    v_ges: float = field(default=1.0, metadata=POSITIVE)

    def __post_init__(self) -> None:
        _check_fields(self)


@dataclass(frozen=True)
class DynamicProtocol:
    """Cyclic load between ``f_min_n`` and ``f_max_n``, logged at the hold point."""

    side: str = field(default="front", metadata=SIDE)
    f_min_n: float = field(default=0.01, metadata=POSITIVE)
    f_max_n: float = field(default=0.5, metadata=POSITIVE)
    frequency_hz: float = field(default=2.0, metadata=POSITIVE)
    n_cycles: int = field(default=50_000, metadata=POSITIVE_INT)
    record_interval: int = field(default=500, metadata=POSITIVE_INT)
    v_ges: float = field(default=1.0, metadata=POSITIVE)
    drift_mv: float = field(default=0.0, metadata=FINITE)

    def __post_init__(self) -> None:
        _check_fields(self)
        if not self.f_min_n < self.f_max_n:
            raise ValueError("need 0 < f_min < f_max")
        if self.n_cycles % self.record_interval != 0:
            raise ValueError("n_cycles must be a multiple of record_interval")


@dataclass(frozen=True)
class FleetParams:
    """Per-side first-fracture Weibull parameters and the fleet size."""

    f0_front_n: float = field(default=1.22, metadata=POSITIVE)
    beta_front: float = field(default=10.69, metadata=POSITIVE)
    f0_back_n: float = field(default=0.77, metadata=POSITIVE)
    beta_back: float = field(default=7.21, metadata=POSITIVE)
    count: int = field(default=20, metadata=FLEET_SIZE)
    master_seed: int = field(default=0, metadata=NONNEGATIVE_INT)

    def __post_init__(self) -> None:
        _check_fields(self)

    def side_params(self, side: str) -> tuple[float, float]:
        _check_side(side)
        if side == "front":
            return self.f0_front_n, self.beta_front
        return self.f0_back_n, self.beta_back


def sample_specimen(
    params: FleetParams,
    side: str,
    rng: np.random.Generator,
    spec: SensorSpec | None = None,
) -> SensorState:
    """Draw one specimen's eight hinge strengths [MPa].

    Every hinge gets an independent Weibull strength with the side's shape
    beta and scale gain * f0 * 4^(1/beta), the gain being the tensile gain
    of ``spec`` (default: the standard design).  The minimum of the four
    tensile-ring strengths then makes the first-fracture force exactly
    Weibull(f0, beta) distributed (weakest link).
    """
    f0, beta = params.side_params(side)
    if spec is None:
        spec = SensorSpec()
    scale_mpa = spec.tensile_gain(side) * f0 * 4.0 ** (1.0 / beta)
    return SensorState(scale_mpa * rng.weibull(beta, size=N_HINGES))


def run_static(
    state: SensorState,
    spec: SensorSpec,
    protocol: StaticProtocol,
    rig: RigConfig,
    rng: np.random.Generator,
) -> LoadCurve:
    """Run one destructive ramp and return the recorded curve.

    Per step: the commanded displacement plus positioning errors sets the
    true force (with the current hinge damage), the force channel adds
    Gaussian readout noise, the bridges are sampled, and only then is the
    fracture criterion evaluated, so a failure shows up as a force drop at
    the following sample.  ``state`` ends with the ramp's damage.  This is
    the fleet kernel on a batch of one.
    """
    return next(_run_block([state], [rng], spec, protocol, rig))


def _run_block(
    states: list[SensorState],
    rngs: list[np.random.Generator],
    spec: SensorSpec,
    protocol: StaticProtocol,
    rig: RigConfig,
) -> Iterator[LoadCurve]:
    """Ramp each specimen with its own generator; yield one curve per specimen.

    Each generator draws the contact offset, the jitter and the force
    noise of its ramp, in that order; the physics then advances the
    whole block at once (see :func:`_ramp`) before the first curve is
    yielded.  Each curve owns copies of its rows, so a curve that is kept
    does not keep the block's arrays alive.
    """
    if protocol.dz_max_um > rig.dz_max_um:
        raise ProtocolLimitError(
            f"protocol ramps to {protocol.dz_max_um} um, rig allows {rig.dz_max_um} um"
        )
    n_steps = int(np.floor(protocol.dz_max_um / protocol.step_um + 1e-9)) + 1
    dz_cmd = np.arange(n_steps) * protocol.step_um

    dz_true = np.empty((len(rngs), n_steps))
    force_noise = np.empty((len(rngs), n_steps))
    for i, rng in enumerate(rngs):
        contact_offset = rng.normal(0.0, rig.stage_accuracy_um / 2.0)
        jitter = rng.normal(0.0, rig.nano_accuracy_um / 2.0, size=n_steps)
        dz_true[i] = dz_cmd + contact_offset + jitter
        force_noise[i] = rng.normal(0.0, rig.force_resolution_n / 2.0, size=n_steps)

    base_force = intact_force(spec, protocol.side, np.clip(dz_true, 0.0, None, out=dz_true))
    del dz_true
    true_force, gains = _ramp(states, spec, protocol.side, base_force)

    # in place, to keep the block's peak memory down: gains become offsets
    valid = ~np.isnan(gains[..., 0])
    voff = np.multiply(true_force[..., None], gains, out=gains)
    voff *= protocol.v_ges
    force = np.add(true_force, force_noise, out=force_noise)
    for f, v, ok in zip(force, voff, valid):
        yield LoadCurve(side=protocol.side, dz_um=dz_cmd.copy(), force_n=f.copy(),
                        voff_mv=v.copy(), valid=ok.copy())


def _ramp(
    states: list[SensorState], spec: SensorSpec, side: str, base_force: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Advance a block of specimens along their ramps, segment by segment.

    Row i of ``base_force`` [N] is the intact-sensor force of specimen
    ``states[i]`` at each sample.  A segment runs from a specimen's start
    sample up to the first sample whose force, under the current damage,
    reaches the failure threshold; the hinges that force breaks change the
    damage of the next segment.  Each pass advances every specimen still
    ramping by one segment.  Returns the true force and the bridge gains
    (NaN after an arm-C loss) at every sample; the states end with the
    ramp's damage and failure order.
    """
    strength = np.array([state.hinge_strength for state in states])
    intact = np.array([state.intact for state in states])
    orders: list[list] = [[] for _ in states]
    m, n = base_force.shape
    cols = np.arange(n)
    start = np.zeros(m, dtype=np.intp)
    ramping = np.arange(m)
    # new_segment[i, j] is 1 where specimen i's damage changed just before
    # sample j; the extra column takes breaks at the last sample
    new_segment = np.zeros((m, n + 1), dtype=np.int8)
    factors, gains = [], []
    while ramping.size:
        factors.append(stiffness_factor(intact))
        gains.append(bridge_gains(spec, intact, side))
        threshold = failure_threshold_force(spec, strength[ramping], intact[ramping], side)
        seg_force = factors[-1][ramping, None] * base_force[ramping]
        over = (seg_force >= threshold[:, None]) & (cols >= start[ramping, None])
        end = over.argmax(axis=1)
        crossed = over[np.arange(ramping.size), end]
        rows, end = ramping[crossed], end[crossed]
        hit, order = hinge_breaks(
            spec, strength[rows], intact[rows], seg_force[crossed, end], side
        )
        intact[rows] &= ~hit
        for i, hinges, k in zip(rows.tolist(), order.tolist(), hit.sum(axis=1).tolist()):
            orders[i] += [ALL_HINGES[h] for h in hinges[:k]]
        new_segment[rows, end + 1] = 1
        start[rows] = end + 1
        ramping = rows[end + 1 < n]

    for state, row, order in zip(states, intact, orders):
        state.intact[:] = row
        state.failure_order += order
    # the pass that filled each sample, as the smallest integer type that holds it
    passes = np.cumsum(new_segment[:, :n], axis=1, dtype=np.min_scalar_type(len(factors)))
    at = passes, np.arange(m)[:, None]
    true_force = np.array(factors)[at]
    true_force *= base_force
    return true_force, np.array(gains)[at]


def run_dynamic(
    state: SensorState,
    spec: SensorSpec,
    protocol: DynamicProtocol,
    rig: RigConfig,
    rng: np.random.Generator,
) -> CycleLog:
    """Run a long-term cycling test and return the hold-point log.

    One entry per ``record_interval`` cycles, taken at the upper hold
    force: the logged force is the (slightly biased, noisy) reference
    sensor reading, the offsets are the bridge response to the true hold
    force plus noise and an optional linear drift ramp.  A hold force at
    or above the specimen's failure threshold, with its current damage,
    raises ``OverloadError``.
    """
    if protocol.f_max_n > rig.max_force_n:
        raise ProtocolLimitError(
            f"hold force {protocol.f_max_n} N exceeds rig limit {rig.max_force_n} N"
        )
    if protocol.frequency_hz > rig.max_frequency_hz:
        raise ProtocolLimitError(
            f"frequency {protocol.frequency_hz} Hz exceeds rig limit {rig.max_frequency_hz} Hz"
        )
    fracture_force = failure_threshold_force(
        spec, state.hinge_strength, state.intact, protocol.side
    )
    if protocol.f_max_n >= fracture_force:
        raise OverloadError(
            f"hold force {protocol.f_max_n} N would fracture the specimen "
            f"(first fracture at {fracture_force:.3f} N)"
        )

    n_records = protocol.n_cycles // protocol.record_interval
    cycles = (np.arange(n_records) + 1) * protocol.record_interval
    base_offsets = bridge_offsets_at_load(
        spec, protocol.f_max_n, protocol.side, protocol.v_ges, state
    )

    force = (
        protocol.f_max_n * rig.force_read_bias
        + rng.normal(0.0, rig.hold_force_noise_n, size=n_records)
    )
    voff = (
        base_offsets[None, :]
        + rng.normal(0.0, rig.hold_offset_noise_mv, size=(n_records, 4))
        + protocol.drift_mv * (cycles / protocol.n_cycles)[:, None]
    )
    return CycleLog(
        cycles=cycles,
        force_n=force,
        voff_mv=voff,
        v_ges=protocol.v_ges,
        record_interval=protocol.record_interval,
    )


def specimen_rngs(master_seed: int, count: int) -> list[np.random.Generator]:
    """Independent per-specimen generators derived from one master seed."""
    children = np.random.SeedSequence(master_seed).spawn(count)
    return [np.random.default_rng(child) for child in children]


def iter_fleet(
    params: FleetParams,
    spec: SensorSpec,
    protocol: StaticProtocol,
    rig: RigConfig,
) -> Iterator[tuple[SensorState, LoadCurve]]:
    """Destructively test a fleet; yield each specimen's state and curve.

    Specimen seeds are spawned deterministically from the master seed, so
    repeated runs are bit-identical and specimens are independent.  The
    ramps run ``FLEET_BLOCK`` specimens at a time through the kernel of
    :func:`run_static`, each drawing from its own generator in the same
    order, so every curve equals the one ``run_static`` gives and every
    state ends with the damage and failure order ``run_static`` leaves.
    Only the current block is held: each block spawns its generators from
    one shared seed sequence, which hands out the same children as
    spawning the whole fleet at once.
    """
    seeds = np.random.SeedSequence(params.master_seed)
    for first in range(0, params.count, FLEET_BLOCK):
        size = min(FLEET_BLOCK, params.count - first)
        rngs = [np.random.default_rng(child) for child in seeds.spawn(size)]
        states = [sample_specimen(params, protocol.side, rng, spec) for rng in rngs]
        yield from zip(states, _run_block(states, rngs, spec, protocol, rig))


def run_fleet(
    params: FleetParams,
    spec: SensorSpec,
    protocol: StaticProtocol,
    rig: RigConfig,
) -> list[LoadCurve]:
    """Destructively test a whole fleet; one curve per specimen (see :func:`iter_fleet`)."""
    return [curve for _, curve in iter_fleet(params, spec, protocol, rig)]
