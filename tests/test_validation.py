"""Field rules of the config and record dataclasses.

Each ruled field declares its rule as dataclass metadata; these tests feed
every ruled field of every ruled class with valid and invalid values and
check that a broken rule raises ``ValueError`` naming the field.
"""

import ast
import math
import sys
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from forcebench import (
    CycleLog,
    DynamicProtocol,
    FailureEvent,
    FleetParams,
    HingeId,
    LoadCurve,
    PiezoCoefficients,
    RigConfig,
    SensorSpec,
    StaticProtocol,
    StressState,
    WeibullFit,
)
from forcebench.sensor import ARMS, OFFSET_GAIN_MV

INTP_MAX = int(np.iinfo(np.intp).max)

CONFIG_CLASSES = (RigConfig, StaticProtocol, DynamicProtocol, FleetParams, SensorSpec)

# Each ruled class with the arguments it needs besides its ruled defaults.
RULED = {
    **{cls: {} for cls in CONFIG_CLASSES},
    PiezoCoefficients: {},
    StressState: {},
    HingeId: {"arm": "C", "position": "outer"},
    CycleLog: {"cycles": [500, 1000], "force_n": [0.5, 0.5], "voff_mv": np.zeros((2, 4))},
    FailureEvent: {"sample_index": 3, "force_drop_n": 0.1},
    LoadCurve: {"side": "front", "dz_um": [0.0, 1.0], "force_n": [0.0, 0.1],
                "voff_mv": np.zeros((2, 4)), "valid": [True, True]},
    WeibullFit: {"f0": 1.22, "beta": 10.69},
}
RULED_FIELDS = [
    (cls, f.name, f.metadata["rule"][0])
    for cls in RULED for f in fields(cls) if "rule" in f.metadata
]

SCALARS = st.one_of(
    st.sampled_from([math.nan, math.inf, -math.inf, 0, 0.0, -0.0, 1, True, False, None,
                     "3", "front", "back", "A", "inner", [1.0]]),
    st.floats(),
    st.integers(-10**6, 10**6),
    st.floats().map(np.float64),
    st.integers(-10**6, 10**6).map(np.int64),
)
GAINS = st.one_of(
    st.builds(lambda arm, v: dict(OFFSET_GAIN_MV, **{arm: v}), st.sampled_from(ARMS), SCALARS),
    st.sampled_from([dict(OFFSET_GAIN_MV), {"A": 1.0, "B": 1.0, "C": 1.0},
                     dict(OFFSET_GAIN_MV, E=1.0)]),
)


def accepts(expected: str, value) -> bool:
    """Whether ``value`` meets the rule that the text ``expected`` states."""
    number = isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(value, bool)
    integer = number and isinstance(value, (int, np.integer))
    finite = number and abs(value) <= sys.float_info.max  # an int beyond it has no float
    if expected.startswith("one of "):
        return isinstance(value, str) and value in ast.literal_eval(expected[len("one of "):])
    if expected == "finite numbers for arms A..D":
        return (isinstance(value, dict) and sorted(value) == list(ARMS)
                and all(accepts("finite number", v) for v in value.values()))
    return {
        "finite number": finite,
        "positive finite number": finite and value > 0,
        "nonnegative finite number": finite and value >= 0,
        "negative finite number": finite and value < 0,
        "finite number at most 1, or nan": (finite and value <= 1)
        or (number and value != value),
        "integer >= 1": integer and value >= 1,
        "non-negative integer": integer and value >= 0,
        f"integer fleet size from 1 to {INTP_MAX}": integer and 1 <= value <= INTP_MAX,
    }[expected]


@pytest.mark.parametrize("cls, name, expected", RULED_FIELDS,
                         ids=[f"{cls.__name__}.{name}" for cls, name, _ in RULED_FIELDS])
@settings(max_examples=40, deadline=None)
@given(value=st.one_of(SCALARS, GAINS))
@example(value=math.nan)
@example(value=math.inf)
@example(value=-math.inf)
@example(value=0)
@example(value=-1)
@example(value=1.5)
@example(value=True)
@example(value="3")
@example(value=10**400)
@example(value=-10**400)
def test_a_broken_rule_names_its_field(cls, name, expected, value):
    try:
        cls(**{**RULED[cls], name: value})
    except ValueError as exc:
        named = str(exc).startswith(f"{name}: expected {expected}, got ")
        # an accepted value may still fail a cross-field check, never its own rule
        assert named != accepts(expected, value), str(exc)
    else:
        assert accepts(expected, value)


def test_every_config_field_has_a_rule():
    assert [(cls.__name__, f.name) for cls in CONFIG_CLASSES for f in fields(cls)
            if "rule" not in f.metadata] == []


@pytest.mark.parametrize("cls", list(RULED), ids=lambda cls: cls.__name__)
def test_defaults_construct(cls):
    cls(**RULED[cls])
