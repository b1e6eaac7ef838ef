"""Physical model of a piezoresistive three-axial silicon force sensor.

The device is a flexible silicon cross suspended on eight thin membrane
hinges (one inner and one outer hinge per cross arm A..D).  Normal forces
on the probe pin bend the hinges; implanted piezoresistors wired as one
Wheatstone bridge per arm turn the hinge stress into offset voltages.

The module provides
  * the piezoresistive transduction law and the bridge offset equation
    (``PiezoCoefficients``, ``StressState``, ``resistivity_change``,
    ``bridge_offset``) as a stand-alone API: the simulator does not use
    it, it turns force into offset voltage through the calibrated
    ``OFFSET_GAIN_MV`` instead,
  * a calibrated linear map from normal force to hinge surface stress,
  * a hardening cubic force-displacement law with per-load-side
    coefficients,
  * per-specimen hinge strengths plus the tensile-fracture criterion,
    including load redistribution inside a hinge ring and the load-path
    inversion once a full ring has broken away,
  * the validation rules that the fields of the config dataclasses
    declare as metadata, and the base class ``Ruled`` that checks them.

Inside the model a hinge is its index i = 2*arm + ring into ``ALL_HINGES``
(arms A..D = 0..3, rings inner/outer = 0/1): a ``SensorState`` keeps the
eight strengths and the intact flags as arrays in that order.  The kernel
functions take those arrays with any leading batch shape, (8,) for one
specimen or (m, 8) for a block of them, and work on them with masked
array expressions.  ``HingeId`` labels are the public face of an index.

Each law is written down once, in a kernel function that the virtual rig
and the analyser call: the force law in ``intact_force``, the stiffness
knockdown in ``stiffness_factor``, the bridge gains in ``bridge_gains``,
and the fracture criterion in ``effective_stresses``,
``failure_threshold_force`` and ``hinge_breaks``.
The per-specimen entry points ``force_at_displacement``,
``bridge_offsets_at_load`` and ``check_hinge_failures`` check their scalar
arguments and apply a kernel to one specimen, and ``displacement_at_force``
inverts ``intact_force``; they hold no law of their own.  They stay as the
library's per-specimen API, whose names the benchmark harness in
``perfbench/`` traces.

Conventions: displacements in micrometers, forces in newtons, stresses in
MPa unless a name says otherwise.  Positive hinge stress means tension on
the resistor surface; only tensile stress can fracture a hinge.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from numbers import Integral, Real

import numpy as np

from .errors import DegenerateBridgeError

ARMS = ("A", "B", "C", "D")
POSITIONS = ("inner", "outer")
SIDES = ("front", "back")

N_HINGES = 8

# Fracture-point anchors of the force-displacement law: mean first-fracture
# load and displacement per load side, used below to derive k1 from k3.
_FRONT_ANCHOR_UM, _FRONT_ANCHOR_N = 78.2, 1.16
_BACK_ANCHOR_UM, _BACK_ANCHOR_N = 55.1, 0.72

# Hardening coefficients [N/um^3].  Chosen together with the derived k1 so
# that (a) the curve passes through the fracture anchor and (b) a free-
# intercept least-squares slope over the 0..20 um region (0.5 um grid)
# reproduces the measured initial stiffness of 7.01 / 6.61 mN/um within
# tolerance.  A pure fracture-anchor calibration of k3 with k1 pinned to
# the measured stiffness would overshoot the extracted slope by >5%.
# Known limitation: the back-side cubic, anchored at (55.1 um, 0.72 N)
# and at the extracted stiffness, underpredicts displacements in the
# low-force budget region (below ~0.25 N) by up to ~20%; front-side
# budget displacements hold to within a few percent.
K3_FRONT = 1.3065e-6
K3_BACK = 2.41564e-6
K1_FRONT = (_FRONT_ANCHOR_N - K3_FRONT * _FRONT_ANCHOR_UM**3) / _FRONT_ANCHOR_UM
K1_BACK = (_BACK_ANCHOR_N - K3_BACK * _BACK_ANCHOR_UM**3) / _BACK_ANCHOR_UM

# Hinge surface stress per unit normal force on the front side [MPa/N];
# -373 MPa (inner) / +489 MPa (outer) at 0.5 N.  Back-side loading has the
# same magnitudes with reversed signs.
STRESS_GAIN_INNER_FRONT = -746.0
STRESS_GAIN_OUTER_FRONT = 978.0

# Bridge offset per unit force and supply voltage [mV/(N V)], per arm,
# front-side loading.  Calibrated from bench-measured offsets at 0.5 N and
# 1 V supply (-191.32 / -192.33 / -190.36 / -191.73 mV).
OFFSET_GAIN_MV = {"A": -382.64, "B": -384.66, "C": -380.72, "D": -383.46}

# A broken hinge halves the magnitude of its arm's offset; the second
# hinge of the same arm halves it again.
FAILURE_JUMP_FACTOR = 0.5


# Validation rules, declared as dataclass field metadata, as in
# ``x: float = field(default=1.0, metadata=POSITIVE)``.  A rule pairs the
# text of what it expects with a test of one value; numbers exclude bool.
def _rule(expected: str, kind: type, test) -> dict:
    def passes(value) -> bool:
        return isinstance(value, kind) and not isinstance(value, bool) and test(value)

    return {"rule": (expected, passes)}


FINITE = _rule("finite number", Real, lambda v: -math.inf < v < math.inf)
POSITIVE = _rule("positive finite number", Real, lambda v: 0 < v < math.inf)
NONNEGATIVE = _rule("nonnegative finite number", Real, lambda v: 0 <= v < math.inf)
NEGATIVE = _rule("negative finite number", Real, lambda v: -math.inf < v < 0)
POSITIVE_INT = _rule("integer >= 1", Integral, lambda v: v >= 1)
NONNEGATIVE_INT = _rule("non-negative integer", Integral, lambda v: v >= 0)  # numpy's seed wording
# the largest length of a numpy array, or of one spawn of seeds
FLEET_SIZE = _rule(f"integer fleet size from 1 to {np.iinfo(np.intp).max}", Integral,
                   lambda v: 1 <= v <= np.iinfo(np.intp).max)
SIDE = _rule(f"one of {SIDES}", str, lambda v: v in SIDES)
ARM_GAINS = _rule("finite numbers for arms A..D", dict, lambda v: set(v) == set(ARMS)
                  and all(FINITE["rule"][1](x) for x in v.values()))


def _check_value(name: str, value, rule: dict) -> None:
    """Raise ``ValueError`` naming ``name`` unless ``value`` passes ``rule``."""
    expected, test = rule["rule"]
    if not test(value):
        raise ValueError(f"{name}: expected {expected}, got {value!r}")


class Ruled:
    """Base of the dataclasses whose fields declare rules: construction checks
    every field that declares one.  A subclass with cross-field checks runs
    them after ``super().__post_init__()``."""

    def __post_init__(self) -> None:
        for f in fields(self):
            if "rule" in f.metadata:
                _check_value(f.name, getattr(self, f.name), f.metadata)


@dataclass(frozen=True)
class PiezoCoefficients(Ruled):
    """Longitudinal and transversal piezoresistive coefficients [1/Pa]."""

    pi_l: float = field(default=71.8e-11, metadata=FINITE)
    pi_t: float = field(default=-66.3e-11, metadata=FINITE)


@dataclass(frozen=True)
class StressState(Ruled):
    """In-plane stress at a resistor, split along its orientation [Pa]."""

    sigma_l: float = field(default=0.0, metadata=FINITE)
    sigma_t: float = field(default=0.0, metadata=FINITE)


@dataclass(frozen=True)
class HingeId(Ruled):
    """One of the eight membrane hinges: cross arm A..D, inner or outer."""

    arm: str = field(metadata=_rule(f"one of {ARMS}", str, lambda v: v in ARMS))
    position: str = field(metadata=_rule(f"one of {POSITIONS}", str, lambda v: v in POSITIONS))

    def __str__(self) -> str:
        return f"{self.arm}-{self.position}"


ALL_HINGES = tuple(HingeId(arm, pos) for arm in ARMS for pos in POSITIONS)

# Shape that views the hinge arrays as rows of arms, columns of rings.
_ARM_RING = (len(ARMS), len(POSITIONS))

# Lookup tables of the Python-scalar powers the laws below use, indexed by
# a hinge count: the stiffness knockdown (i/8) ** (8 - i) with i hinges
# intact, and FAILURE_JUMP_FACTOR ** n with n hinges of an arm failed.
_KNOCKDOWN = np.array([(i / N_HINGES) ** (N_HINGES - i) for i in range(N_HINGES + 1)])
_JUMP = np.array([FAILURE_JUMP_FACTOR ** n for n in range(len(POSITIONS) + 1)])


def _check_side(side: str) -> None:
    # the SIDE rule as a bare membership test: the ramp kernel calls it per pass
    if side not in SIDES:
        raise ValueError(f"load side must be one of {SIDES}, got {side!r}")


@dataclass(frozen=True)
class SensorSpec(Ruled):
    """Calibrated description of one sensor design.

    The fields are what the model reads: the stiffness coefficients (force
    F = k1*dz + k3*dz^3 per load side, dz in um), the per-ring stress gains
    [MPa/N] for front loading, and the per-arm bridge offset gains
    [mV/(N V)].  They are calibrated for the standard design: a 25 um
    membrane, a 4.5 mm cross, a 7 mm probe pin and piezoresistors of
    aspect ratio 2.
    """

    k1_front: float = field(default=K1_FRONT, metadata=POSITIVE)
    k1_back: float = field(default=K1_BACK, metadata=POSITIVE)
    k3_front: float = field(default=K3_FRONT, metadata=NONNEGATIVE)
    k3_back: float = field(default=K3_BACK, metadata=NONNEGATIVE)
    stress_gain_inner: float = field(default=STRESS_GAIN_INNER_FRONT, metadata=NEGATIVE)
    stress_gain_outer: float = field(default=STRESS_GAIN_OUTER_FRONT, metadata=POSITIVE)
    offset_gain_mv: dict[str, float] = field(
        default_factory=lambda: dict(OFFSET_GAIN_MV), metadata=ARM_GAINS
    )

    def k1(self, side: str) -> float:
        _check_side(side)
        return self.k1_front if side == "front" else self.k1_back

    def k3(self, side: str) -> float:
        _check_side(side)
        return self.k3_front if side == "front" else self.k3_back

    @staticmethod
    def tensile_position(side: str) -> str:
        """The hinge ring under tension for a given load side.

        The validated gain signs fix it, so it needs no instance.
        """
        _check_side(side)
        return "outer" if side == "front" else "inner"

    def tensile_gain(self, side: str) -> float:
        """Magnitude of the stress gain of the tensile ring [MPa/N]."""
        return hinge_stress(self, 1.0, side, self.tensile_position(side))


@dataclass(eq=False)
class SensorState:
    """Mutable per-specimen state: hinge strengths and failure status.

    ``hinge_strength`` [MPa] and ``intact`` hold one entry per hinge,
    indexed like ``ALL_HINGES``; ``intact`` starts all True.  A hinge
    never returns to intact within a test; ``failure_order`` records the
    hinges in the order they broke (ground truth for the analysis layer's
    classification tests).  Their only writers are :func:`check_hinge_failures`
    and ``bench.run_static``, which writes back the outcome of a ramp: both
    clear the broken hinges in ``intact`` and append them to ``failure_order``.
    A fleet writes no state; its ground truth is each ``bench.RampBlock``'s.
    """

    hinge_strength: np.ndarray
    intact: np.ndarray = field(default_factory=lambda: np.ones(N_HINGES, dtype=bool))
    failure_order: list[HingeId] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.hinge_strength = np.array(self.hinge_strength, dtype=float)
        self.intact = np.array(self.intact, dtype=bool)
        if self.hinge_strength.shape != (N_HINGES,) or self.intact.shape != (N_HINGES,):
            raise ValueError("strengths and status must be given for all eight hinges")
        if not np.all((self.hinge_strength > 0) & (self.hinge_strength < math.inf)):
            raise ValueError("hinge strengths must be finite and strictly positive")


def resistivity_change(coeffs: PiezoCoefficients, stress: StressState) -> float:
    """Relative resistivity change of a stressed piezoresistor.

    Returns pi_l*sigma_l + pi_t*sigma_t (dimensionless).
    """
    return coeffs.pi_l * stress.sigma_l + coeffs.pi_t * stress.sigma_t


def bridge_offset(drho_in_rel: float, drho_out_rel: float, v_ges: float) -> float:
    """Offset voltage of one Wheatstone bridge.

    Args:
        drho_in_rel: relative resistivity change on the inner hinge.
        drho_out_rel: relative resistivity change on the outer hinge.
        v_ges: bridge supply voltage [V].

    Returns:
        (drho_in - drho_out) / (2 + drho_in + drho_out) * v_ges, in the
        unit of ``v_ges``.

    Raises:
        DegenerateBridgeError: if the denominator is numerically zero.
    """
    denominator = 2.0 + drho_in_rel + drho_out_rel
    if abs(denominator) < 1e-12:
        raise DegenerateBridgeError(
            "bridge denominator is zero; resistivity changes are nonphysical"
        )
    return (drho_in_rel - drho_out_rel) / denominator * v_ges


def hinge_stress(spec: SensorSpec, f_z: float, side: str, position: str) -> float:
    """Surface stress [MPa] at a hinge under a normal force ``f_z`` [N].

    Linear in the force; back-side loading reverses the sign of the front
    gains.  Positive return values are tensile.
    """
    _check_side(side)
    if position not in POSITIONS:
        raise ValueError(f"position must be one of {POSITIONS}, got {position!r}")
    _check_value("f_z", f_z, NONNEGATIVE)
    gain = spec.stress_gain_inner if position == "inner" else spec.stress_gain_outer
    if side == "back":
        gain = -gain
    return gain * f_z


def stiffness_factor(intact: np.ndarray) -> np.ndarray:
    """Stiffness knockdown of partially broken sensors, one per row of ``intact``.

    Each failed hinge contributes one factor of (intact/8); an intact
    sensor gives 1.0 and a fully broken one 0.0.
    """
    return _KNOCKDOWN[intact.sum(axis=-1)]


def intact_force(spec: SensorSpec, side: str, dz):
    """Force [N] of an intact sensor: the hardening cubic k1*dz + k3*dz^3.

    ``dz`` [um] may be a float or a numpy array.
    """
    return spec.k1(side) * dz + spec.k3(side) * dz**3


def force_at_displacement(spec: SensorSpec, side: str, dz: float) -> float:
    """Normal force [N] of an intact sensor at displacement ``dz`` [um].

    :func:`intact_force` with its arguments checked; broken hinges scale
    the force by :func:`stiffness_factor`.
    """
    _check_side(side)
    _check_value("dz", dz, NONNEGATIVE)
    return intact_force(spec, side, dz)


def displacement_at_force(spec: SensorSpec, side: str, f_z: float) -> float:
    """Displacement [um] at which an intact sensor carries ``f_z`` [N].

    Inverts the monotone cubic with Newton iterations started from above;
    the residual is driven below 1e-9 N.

    Raises:
        ValueError: if the iteration ends with a larger or non-finite
            residual.
    """
    _check_side(side)
    _check_value("f_z", f_z, NONNEGATIVE)
    if f_z == 0.0:
        return 0.0
    k1, k3 = spec.k1(side), spec.k3(side)
    z = f_z / k1  # overestimate: the cubic is convex through the origin
    for _ in range(100):
        residual = intact_force(spec, side, z) - f_z
        if abs(residual) < 1e-12:
            return z
        z -= residual / (k1 + 3.0 * k3 * z * z)
    residual = intact_force(spec, side, z) - f_z
    if not abs(residual) < 1e-9:
        raise ValueError(
            f"displacement at {f_z} N did not converge (residual {residual} N)"
        )
    return z


def bridge_gains(spec: SensorSpec, intact: np.ndarray, side: str) -> np.ndarray:
    """Offset per unit force and supply voltage [mV/(N V)], arms A..D.

    ``intact`` is (..., 8); the gains are (..., 4).  Back-side loading
    reverses the signs, and every failed hinge of an arm scales that arm's
    gain by ``FAILURE_JUMP_FACTOR``.  All four gains are NaN once arm C,
    which carries the supply leads, has lost a hinge: no bridge can be
    read then.
    """
    _check_side(side)
    sign = 1.0 if side == "front" else -1.0
    failed = (~_arm_ring(intact)).sum(axis=-1)
    gains = sign * np.array([spec.offset_gain_mv[arm] for arm in ARMS]) * _JUMP[failed]
    gains[failed[..., ARMS.index("C")] > 0] = np.nan
    return gains


def bridge_offsets_at_load(
    spec: SensorSpec,
    f_z: float,
    side: str,
    v_ges: float,
    state: SensorState | None = None,
) -> np.ndarray:
    """Offset voltages [mV] of the four bridges at a normal force, arms A..D.

    Bilinear in force and supply voltage, with the gains of
    :func:`bridge_gains`; once arm C (supply leads) has a failed hinge,
    all readings are invalid (NaN).  ``state`` None is an intact sensor.
    """
    _check_value("f_z", f_z, NONNEGATIVE)
    _check_value("v_ges", v_ges, POSITIVE)
    intact = np.ones(N_HINGES, dtype=bool) if state is None else state.intact
    return bridge_gains(spec, intact, side) * f_z * v_ges


def _arm_ring(hinges: np.ndarray) -> np.ndarray:
    """View (..., 8) hinge arrays as (..., arm, ring)."""
    return hinges.reshape(*hinges.shape[:-1], *_ARM_RING)


def effective_stresses(spec: SensorSpec, intact: np.ndarray, f_z, side: str) -> np.ndarray:
    """Stress [MPa] actually carried by each hinge, indexed like ``ALL_HINGES``.

    ``intact`` is (..., 8) and ``f_z`` [N] a float or one force per row.
    Adds two effects to :func:`hinge_stress`: the load of broken hinges is
    shed onto the survivors of the same ring (factor 4/remaining), and
    once the tensile ring of the load side is fully broken the load path
    inverts, putting the formerly compressed ring under tension.
    Compressed hinges report their (negative) nominal stress, broken
    hinges carry 0.
    """
    ring_intact = _arm_ring(intact)
    count = ring_intact.sum(axis=-2)
    stress = np.array([hinge_stress(spec, 1.0, side, pos) for pos in POSITIONS])
    stress = stress * np.asarray(f_z, dtype=float)[..., None]
    tensile = POSITIONS.index(spec.tensile_position(side))
    tensile_ring_gone = count[..., tensile, None] == 0
    shared = (count > 0) & ((stress > 0) | ((stress < 0) & tensile_ring_gone))
    stress = np.where(shared, np.abs(stress) * (4.0 / np.maximum(count, 1)), stress)
    carried = np.where(ring_intact, stress[..., None, :], 0.0)
    return carried.reshape(intact.shape)


def failure_threshold_force(
    spec: SensorSpec, strength: np.ndarray, intact: np.ndarray, side: str
) -> np.ndarray:
    """Smallest force [N] that breaks some intact hinge, one per row.

    Stress is linear in force, so it is the least strength / stress at
    1 N over the tensile hinges; ``inf`` when no hinge is in tension.
    """
    stress = effective_stresses(spec, intact, 1.0, side)
    return _ratio(strength, stress, stress > 0).min(axis=-1)


def hinge_breaks(
    spec: SensorSpec, strength: np.ndarray, intact: np.ndarray, f_z, side: str
) -> tuple[np.ndarray, np.ndarray]:
    """Hinges broken by the force ``f_z``, and the order in which they break.

    Returns the (..., 8) mask of intact hinges whose effective tensile
    stress meets or exceeds their strength, and per row the hinge indices
    sorted so that the masked ones come first, most overloaded (least
    strength/stress) first, ties by index.
    """
    stress = effective_stresses(spec, intact, f_z, side)
    hit = stress >= strength
    # order simultaneous failures by overstress margin: the most
    # overloaded hinge is the one that physically broke first
    return hit, np.argsort(_ratio(strength, stress, hit), axis=-1, kind="stable")


def _ratio(strength: np.ndarray, stress: np.ndarray, where: np.ndarray) -> np.ndarray:
    """strength / stress where ``where`` holds, ``inf`` elsewhere."""
    return np.divide(strength, stress, out=np.full(stress.shape, math.inf), where=where)


def check_hinge_failures(
    spec: SensorSpec, state: SensorState, f_z: float, side: str
) -> list[HingeId]:
    """Break and return every intact hinge of ``state`` broken by the force ``f_z``.

    The per-specimen face of :func:`hinge_breaks`: a single pass against
    the entry state, in which each intact hinge whose effective tensile
    stress meets or exceeds its strength fails, most overloaded first.
    Compressed hinges never fail.  The broken hinges are cleared in
    ``state.intact`` and appended to ``state.failure_order``, the same
    write the ramp kernel makes.  Load redistribution from failures in
    this call only takes effect on the next call, so cascades play out
    step by step.
    """
    _check_value("f_z", f_z, NONNEGATIVE)
    hit, order = hinge_breaks(spec, state.hinge_strength, state.intact, f_z, side)
    newly_failed = [ALL_HINGES[i] for i in order[: np.count_nonzero(hit)]]
    state.intact &= ~hit
    state.failure_order += newly_failed
    return newly_failed
