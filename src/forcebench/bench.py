"""Virtual test rig: seeded specimen generation, static ramps, cycling.

The modeled rig drives the sensor die with a positioning stage against a
fixed reference force sensor (5 mN resolution) for destructive ramps, and
cycles the load with a nanopositioner for long-term tests.  All
randomness flows through a caller-supplied numpy generator, so every run
is a pure function of its inputs and seed.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass
from numbers import Integral

import numpy as np

from .analysis import CycleLog, LoadCurve
from .errors import OverloadError, ProtocolLimitError
from .sensor import (
    ALL_HINGES,
    N_HINGES,
    SensorSpec,
    SensorState,
    bridge_gains,
    failure_threshold_force,
    hinge_breaks,
    intact_force,
    stiffness_factor,
    _check_side,
)

# Specimens that run_fleet advances through one kernel call.  Large enough
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

    force_resolution_n: float = 0.005
    stage_accuracy_um: float = 2.0
    nano_accuracy_um: float = 0.02
    max_force_n: float = 3.6
    max_frequency_hz: float = 20.0
    dz_max_um: float = 200.0
    force_read_bias: float = 1.00704
    hold_force_noise_n: float = 0.00037
    hold_offset_noise_mv: float = 0.28

    def __post_init__(self) -> None:
        if not all(map(math.isfinite, astuple(self))):
            raise ValueError("rig figures must be finite")
        if min(self.max_force_n, self.max_frequency_hz, self.dz_max_um) <= 0:
            raise ValueError("rig limits must be positive")
        if min(
            self.force_resolution_n,
            self.stage_accuracy_um,
            self.nano_accuracy_um,
            self.hold_force_noise_n,
            self.hold_offset_noise_mv,
        ) < 0:
            raise ValueError("noise and accuracy figures must be nonnegative")
        if self.force_read_bias <= 0:
            raise ValueError("force read bias must be positive")


@dataclass(frozen=True)
class StaticProtocol:
    """Destructive ramp: step the displacement from 0 to ``dz_max_um``."""

    side: str = "front"
    dz_max_um: float = 200.0
    step_um: float = 0.5
    v_ges: float = 1.0

    def __post_init__(self) -> None:
        _check_side(self.side)
        if not all(map(math.isfinite, (self.step_um, self.dz_max_um, self.v_ges))):
            raise ValueError("step, maximum displacement and supply voltage must be finite")
        if self.step_um <= 0 or self.dz_max_um <= 0:
            raise ValueError("step and maximum displacement must be positive")
        if self.v_ges <= 0:
            raise ValueError("supply voltage must be positive")


@dataclass(frozen=True)
class DynamicProtocol:
    """Cyclic load between ``f_min_n`` and ``f_max_n``, logged at the hold point."""

    side: str = "front"
    f_min_n: float = 0.01
    f_max_n: float = 0.5
    frequency_hz: float = 2.0
    n_cycles: int = 50_000
    record_interval: int = 500
    v_ges: float = 1.0
    drift_mv: float = 0.0

    def __post_init__(self) -> None:
        _check_side(self.side)
        floats = (self.f_min_n, self.f_max_n, self.frequency_hz, self.v_ges, self.drift_mv)
        if not all(map(math.isfinite, floats)):
            raise ValueError("forces, frequency, supply voltage and drift must be finite")
        if not 0 < self.f_min_n < self.f_max_n:
            raise ValueError("need 0 < f_min < f_max")
        if self.frequency_hz <= 0:
            raise ValueError("frequency must be positive")
        if self.n_cycles < 1 or self.record_interval < 1:
            raise ValueError("cycle counts must be positive")
        if self.n_cycles % self.record_interval != 0:
            raise ValueError("n_cycles must be a multiple of record_interval")
        if self.v_ges <= 0:
            raise ValueError("supply voltage must be positive")


@dataclass(frozen=True)
class FleetParams:
    """Per-side first-fracture Weibull parameters and the fleet size."""

    f0_front_n: float = 1.22
    beta_front: float = 10.69
    f0_back_n: float = 0.77
    beta_back: float = 7.21
    count: int = 20
    master_seed: int = 0

    def __post_init__(self) -> None:
        weibull = (self.f0_front_n, self.beta_front, self.f0_back_n, self.beta_back)
        if not all(0 < value < math.inf for value in weibull):
            raise ValueError("Weibull parameters must be positive and finite")
        if not isinstance(self.count, Integral):
            raise ValueError("fleet size must be an integer")
        if self.count < 1:
            raise ValueError("fleet needs at least one specimen")
        if not isinstance(self.master_seed, Integral) or self.master_seed < 0:
            raise ValueError("expected non-negative integer")  # numpy's seed message

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
    return _run_block([state], [rng], spec, protocol, rig)[0]


def _run_block(
    states: list[SensorState],
    rngs: list[np.random.Generator],
    spec: SensorSpec,
    protocol: StaticProtocol,
    rig: RigConfig,
) -> list[LoadCurve]:
    """Ramp each specimen with its own generator; one curve per specimen.

    Each generator draws the contact offset, the jitter and the force
    noise of its ramp, in that order; the physics then advances the
    whole block at once (see :func:`_ramp`).
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
    return [
        LoadCurve(side=protocol.side, dz_um=dz_cmd.copy(), force_n=f, voff_mv=v, valid=ok)
        for f, v, ok in zip(force, voff, valid)
    ]


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
    force plus noise and an optional linear drift ramp.
    """
    if protocol.f_max_n > rig.max_force_n:
        raise ProtocolLimitError(
            f"hold force {protocol.f_max_n} N exceeds rig limit {rig.max_force_n} N"
        )
    if protocol.frequency_hz > rig.max_frequency_hz:
        raise ProtocolLimitError(
            f"frequency {protocol.frequency_hz} Hz exceeds rig limit {rig.max_frequency_hz} Hz"
        )
    fracture_force = state.first_fracture_force(spec, protocol.side)
    if protocol.f_max_n >= fracture_force:
        raise OverloadError(
            f"hold force {protocol.f_max_n} N would fracture the specimen "
            f"(first fracture at {fracture_force:.3f} N)"
        )

    n_records = protocol.n_cycles // protocol.record_interval
    cycles = (np.arange(n_records) + 1) * protocol.record_interval
    base_offsets = (
        bridge_gains(spec, state.intact, protocol.side) * protocol.f_max_n * protocol.v_ges
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


def run_fleet(
    params: FleetParams,
    spec: SensorSpec,
    protocol: StaticProtocol,
    rig: RigConfig,
) -> list[LoadCurve]:
    """Destructively test a whole fleet; one curve per specimen.

    Specimen seeds are spawned deterministically from the master seed, so
    repeated runs are bit-identical and specimens are independent.  The
    ramps run ``FLEET_BLOCK`` specimens at a time through the kernel of
    :func:`run_static`, each drawing from its own generator in the same
    order, so every curve equals the one ``run_static`` gives.
    """
    rngs = specimen_rngs(params.master_seed, params.count)
    curves = []
    for first in range(0, len(rngs), FLEET_BLOCK):
        block = rngs[first : first + FLEET_BLOCK]
        states = [sample_specimen(params, protocol.side, rng, spec) for rng in block]
        curves += _run_block(states, block, spec, protocol, rig)
    return curves
