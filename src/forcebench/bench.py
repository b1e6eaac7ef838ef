"""Virtual test rig: seeded specimen generation, static ramps, cycling.

The modeled rig drives the sensor die with a positioning stage against a
fixed reference force sensor (5 mN resolution) for destructive ramps, and
cycles the load with a nanopositioner for long-term tests.  All
randomness flows through a caller-supplied numpy generator, so every run
is a pure function of its inputs and seed.

Destructive ramps run in blocks: one array kernel turns (m, 8) strength
and intact arrays into a :class:`RampBlock` (an ``analysis.CurveBlock``,
checked by the curve's rules as it is made, with its offset sources and
ground truth), with no object per specimen.
:func:`fleet_block` makes any block of a fleet on its own, seeding each
specimen from the master seed and its index, so ``simulate-static`` makes
and writes blocks on every usable CPU with the bytes of one process, and
with no setting.  :func:`fleet_blocks` is the fleet as those blocks in
order, :func:`run_fleet` reads one curve per row off them, and
:func:`run_static` is the kernel on a batch of one.  :func:`cycle_log` is
the one way a seeded specimen is cycled.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, field

import numpy as np

from .analysis import FLEET_BLOCK, CurveBlock, CycleLog, LoadCurve
from .errors import OverloadError, ProtocolLimitError, SupplyLossError
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
    Ruled,
    SensorSpec,
    SensorState,
    _check_value,
    bridge_gains,
    bridge_offsets_at_load,
    failure_threshold_force,
    hinge_breaks,
    intact_force,
    stiffness_factor,
)


@dataclass(frozen=True)
class RigConfig(Ruled):
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


@dataclass(frozen=True)
class StaticProtocol(Ruled):
    """Destructive ramp: step the displacement from 0 to ``dz_max_um``."""

    side: str = field(default="front", metadata=SIDE)
    dz_max_um: float = field(default=200.0, metadata=POSITIVE)
    step_um: float = field(default=0.5, metadata=POSITIVE)
    v_ges: float = field(default=1.0, metadata=POSITIVE)


@dataclass(frozen=True)
class DynamicProtocol(Ruled):
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
        super().__post_init__()
        if not self.f_min_n < self.f_max_n:
            raise ValueError("need 0 < f_min < f_max")
        if self.n_cycles % self.record_interval != 0:
            raise ValueError("n_cycles must be a multiple of record_interval")


@dataclass(frozen=True)
class FleetParams(Ruled):
    """Per-side first-fracture Weibull parameters and the fleet size."""

    f0_front_n: float = field(default=1.22, metadata=POSITIVE)
    beta_front: float = field(default=10.69, metadata=POSITIVE)
    f0_back_n: float = field(default=0.77, metadata=POSITIVE)
    beta_back: float = field(default=7.21, metadata=POSITIVE)
    count: int = field(default=20, metadata=FLEET_SIZE)
    master_seed: int = field(default=0, metadata=NONNEGATIVE_INT)

    def side_params(self, side: str) -> tuple[float, float]:
        _check_value("side", side, SIDE)
        if side == "front":
            return self.f0_front_n, self.beta_front
        return self.f0_back_n, self.beta_back


def _draw_strengths(
    params: FleetParams, side: str, spec: SensorSpec, rngs: list[np.random.Generator]
) -> np.ndarray:
    """The strength law of :func:`sample_specimen`, one (8,) row per generator."""
    f0, beta = params.side_params(side)
    scale_mpa = spec.tensile_gain(side) * f0 * 4.0 ** (1.0 / beta)
    return scale_mpa * np.array([rng.weibull(beta, size=N_HINGES) for rng in rngs])


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
    return SensorState(_draw_strengths(params, side, spec or SensorSpec(), [rng])[0])


@dataclass
class RampBlock(CurveBlock):
    """A block of m destructive ramps, as the fleet kernel makes them: an
    ``analysis.CurveBlock`` plus the sources of its offsets and its ground
    truth; ``curve(i)`` is row i as a :class:`LoadCurve`, offsets included.

    The offsets come from the true force ``true_force_n`` (m, n), the bridge
    gains of each kernel pass ``pass_gains`` (p, m, 4) and the pass of each
    sample ``passes`` (m, n).  Ground truth, (m, 8) each: ``hinge_strength``,
    ``intact`` after the ramp, and ``failure_order``, the ``ALL_HINGES``
    indices of the hinges broken in order, then -1.
    """

    true_force_n: np.ndarray
    pass_gains: np.ndarray
    passes: np.ndarray
    v_ges: float
    hinge_strength: np.ndarray
    intact: np.ndarray
    failure_order: np.ndarray

    def curve(self, i: int) -> LoadCurve:
        """Row ``i`` as a curve that owns copies of its arrays."""
        voff = self.true_force_n[i, :, None] * self.pass_gains[self.passes[i], i]
        voff *= self.v_ges
        return LoadCurve(side=self.side, dz_um=self.dz_um.copy(), force_n=self.force_n[i].copy(),
                         voff_mv=voff, valid=self.valid[i].copy())


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
    block = _ramp_block(state.hinge_strength[None], state.intact[None], [rng],
                        spec, protocol, rig)
    state.intact[:] = block.intact[0]
    state.failure_order += [ALL_HINGES[h] for h in block.failure_order[0].tolist() if h >= 0]
    return block.curve(0)


def _ramp_block(
    strength: np.ndarray,
    intact: np.ndarray,
    rngs: list[np.random.Generator],
    spec: SensorSpec,
    protocol: StaticProtocol,
    rig: RigConfig,
) -> RampBlock:
    """Ramp each specimen (a row of ``strength`` and ``intact``) with its own generator.

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

    # one standard-normal draw per sample of the contact offset, the jitter
    # and the force noise; numpy's normal(0, sigma) is 0.0 + sigma * that draw
    z = np.empty((len(rngs), 2 * n_steps + 1))
    for rng, row in zip(rngs, z):
        rng.standard_normal(out=row)
    dz_true = dz_cmd + (0.0 + rig.stage_accuracy_um / 2.0 * z[:, :1])
    dz_true += 0.0 + rig.nano_accuracy_um / 2.0 * z[:, 1:n_steps + 1]
    force_noise = 0.0 + rig.force_resolution_n / 2.0 * z[:, n_steps + 1:]
    del z

    base_force = intact_force(spec, protocol.side, np.clip(dz_true, 0.0, None, out=dz_true))
    del dz_true
    true_force, pass_gains, passes, intact, order = _ramp(
        strength, intact, spec, protocol.side, base_force
    )
    return RampBlock(
        side=protocol.side, dz_um=dz_cmd,
        force_n=np.add(true_force, force_noise, out=force_noise),
        valid=~np.isnan(pass_gains[..., 0])[passes, np.arange(len(rngs))[:, None]],
        true_force_n=true_force, pass_gains=pass_gains, passes=passes,
        v_ges=protocol.v_ges, hinge_strength=strength, intact=intact, failure_order=order,
    )


def _ramp(
    strength: np.ndarray, intact: np.ndarray, spec: SensorSpec, side: str,
    base_force: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Advance a block of specimens along their ramps, segment by segment.

    Row i of ``base_force`` [N] is the intact-sensor force of the
    specimen with strengths ``strength[i]`` and intact flags ``intact[i]``
    at each sample.  A segment runs from a specimen's start sample up to
    the first sample whose force, under the current damage, reaches the
    failure threshold; the hinges that force breaks change the damage of
    the next segment.  Each pass advances every specimen still ramping by
    one segment.  Returns the true force at every sample, the bridge
    gains of every specimen in every pass (NaN after an arm-C loss), the
    pass that made each sample, the intact flags after the ramp, and the
    hinges it broke in order (-1 padded), leaving ``intact`` as given.
    """
    intact = intact.copy()
    m, n = base_force.shape
    cols = np.arange(n)
    hinges = np.arange(N_HINGES)
    start = np.zeros(m, dtype=np.intp)
    ramping = np.arange(m)
    order = np.full((m, N_HINGES), -1, dtype=np.intp)
    broken = np.zeros(m, dtype=np.intp)
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
        hit, hit_order = hinge_breaks(
            spec, strength[rows], intact[rows], seg_force[crossed, end], side
        )
        intact[rows] &= ~hit
        # append each row's k hits, in their order, after its earlier breaks
        k = hit.sum(axis=1)
        first_k = hinges < k[:, None]
        order[np.repeat(rows, k), (broken[rows, None] + hinges)[first_k]] = hit_order[first_k]
        broken[rows] += k
        new_segment[rows, end + 1] = 1
        start[rows] = end + 1
        ramping = rows[end + 1 < n]

    # the pass that filled each sample, as the smallest integer type that holds it
    passes = np.cumsum(new_segment[:, :n], axis=1, dtype=np.min_scalar_type(len(factors)))
    at = passes, np.arange(m)[:, None]
    true_force = np.array(factors)[at]
    true_force *= base_force
    return true_force, np.array(gains), passes, intact, order


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
    raises ``OverloadError``; a specimen whose arm C has lost a hinge has
    no readable bridge and raises ``SupplyLossError``.  Both are raised
    before ``rng`` draws.
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
        which = "first" if state.intact.all() else "next"
        raise OverloadError(
            f"hold force {protocol.f_max_n} N would fracture the specimen "
            f"({which} fracture at {fracture_force:.3f} N)"
        )
    base_offsets = bridge_offsets_at_load(
        spec, protocol.f_max_n, protocol.side, protocol.v_ges, state
    )
    if np.isnan(base_offsets).any():
        raise SupplyLossError("arm C has lost a hinge: the bridge supply is cut, so no"
                              " bridge can be read at the hold point")

    n_records = protocol.n_cycles // protocol.record_interval
    cycles = (np.arange(n_records) + 1) * protocol.record_interval
    force = (
        protocol.f_max_n * rig.force_read_bias
        + rng.normal(0.0, rig.hold_force_noise_n, size=n_records)
    )
    voff = (
        base_offsets[None, :]
        + rng.normal(0.0, rig.hold_offset_noise_mv, size=(n_records, 4))
        + protocol.drift_mv * (cycles / protocol.n_cycles)[:, None]
    )
    return CycleLog(cycles=cycles, force_n=force, voff_mv=voff)


def cycle_log(params: FleetParams, spec: SensorSpec, protocol: DynamicProtocol,
              rig: RigConfig, seed: int) -> CycleLog:
    """Cycle one specimen of the protocol's side: one generator, seeded with
    ``SeedSequence(seed)``, draws its strengths (:func:`sample_specimen`) and
    then the noise of :func:`run_dynamic`."""
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    state = sample_specimen(params, protocol.side, rng, spec)
    return run_dynamic(state, spec, protocol, rig, rng)


def _specimen_rng(master_seed: int, index: int) -> np.random.Generator:
    """Specimen ``index``'s generator: the child ``SeedSequence(master_seed).spawn``
    hands out at that index, made on its own."""
    return np.random.default_rng(np.random.SeedSequence(master_seed, spawn_key=(index,)))


def specimen_rngs(master_seed: int, count: int) -> list[np.random.Generator]:
    """Independent per-specimen generators derived from one master seed."""
    return [_specimen_rng(master_seed, i) for i in range(count)]


def fleet_block(
    params: FleetParams,
    spec: SensorSpec,
    protocol: StaticProtocol,
    rig: RigConfig,
    first: int,
) -> RampBlock:
    """Destructively test the specimens ``first`` to ``first + FLEET_BLOCK``
    (at most) of a fleet, as one ``RampBlock``.

    Specimen i is seeded from the master seed and its index alone, so any
    block is made on its own, in any order or process, and repeated runs
    are bit-identical.  Each specimen draws from its own generator its
    eight strengths (the law of :func:`sample_specimen`), then its contact
    offset, jitter and force noise (the order of :func:`run_static`), so
    every row equals the curve and the damage that ``run_static`` gives.
    """
    rngs = [_specimen_rng(params.master_seed, i)
            for i in range(first, min(first + FLEET_BLOCK, params.count))]
    strength = _draw_strengths(params, protocol.side, spec, rngs)
    return _ramp_block(strength, np.ones(strength.shape, dtype=bool), rngs, spec, protocol, rig)


def fleet_blocks(
    params: FleetParams,
    spec: SensorSpec,
    protocol: StaticProtocol,
    rig: RigConfig,
) -> Iterator[RampBlock]:
    """Destructively test a fleet; yield it as the ``RampBlock``s of
    :func:`fleet_block`, in order, holding only the current one."""
    for first in range(0, params.count, FLEET_BLOCK):
        yield fleet_block(params, spec, protocol, rig, first)


def run_fleet(
    params: FleetParams,
    spec: SensorSpec,
    protocol: StaticProtocol,
    rig: RigConfig,
) -> list[LoadCurve]:
    """Destructively test a whole fleet; one curve per specimen (see :func:`fleet_blocks`)."""
    return [block.curve(i) for block in fleet_blocks(params, spec, protocol, rig)
            for i in range(len(block))]
