"""Round trips through the CSV table codec: write, read, write again."""

import numpy as np
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from forcebench.analysis import CycleLog, LoadCurve
from forcebench.fileio import (
    read_cycle_log_csv,
    read_load_curve_csv,
    write_cycle_log_csv,
    write_load_curve_csv,
)

# Values a CSV field holds exactly: ten significant digits, or a subnormal,
# whose grid is coarser than ten digits.  Covers -0.0 and 1e21.
TEN_DIGITS = st.one_of(
    st.floats(min_value=-1e300, max_value=1e300),
    st.sampled_from([-0.0, 5e-324, -2.5e-320, 1e21, 1234567891.0, -9.876543211e-7]),
).map(lambda x: float("%.10g" % x))
OFFSETS = st.one_of(TEN_DIGITS, st.just(float("nan")))

ROUND_TRIP = settings(
    max_examples=60, deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


def write_twice(tmp_path, write, read, record):
    """Write the record, read it back, write that again; return both."""
    first, second = tmp_path / "first.csv", tmp_path / "second.csv"
    write(first, record)
    again = read(first)
    write(second, again)
    assert first.read_bytes() == second.read_bytes()
    return again


@st.composite
def load_curves(draw):
    n = draw(st.integers(0, 12))
    dz = sorted(draw(st.lists(TEN_DIGITS, min_size=n, max_size=n)))
    force = draw(st.lists(TEN_DIGITS, min_size=n, max_size=n))
    voff = draw(st.lists(OFFSETS, min_size=4 * n, max_size=4 * n))
    valid = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    return LoadCurve(side=draw(st.sampled_from(["front", "back"])), dz_um=dz,
                     force_n=force, voff_mv=np.reshape(voff, (n, 4)), valid=valid)


@st.composite
def cycle_logs(draw):
    n = draw(st.integers(1, 12))
    start = draw(st.integers(0, 10**12))
    step = draw(st.integers(1, 10**6))
    cycles = np.arange(n) * step + start
    force = draw(st.lists(TEN_DIGITS, min_size=n, max_size=n))
    voff = draw(st.lists(TEN_DIGITS, min_size=4 * n, max_size=4 * n))
    return CycleLog(cycles=cycles, force_n=force, voff_mv=np.reshape(voff, (n, 4)),
                    v_ges=1.0, record_interval=int(step if n >= 2 else start))


@ROUND_TRIP
@given(curve=load_curves())
@example(curve=LoadCurve(side="front", dz_um=[-0.0, 0.0, 1e21], force_n=[5e-324, -0.0, 1e21],
                         voff_mv=[[np.nan] * 4, [-0.0, 1.0, np.nan, 2.0], [0.0] * 4],
                         valid=[False, True, True]))
def test_load_curve_round_trip(tmp_path, curve):
    again = write_twice(tmp_path, write_load_curve_csv,
                        lambda p: read_load_curve_csv(p, curve.side), curve)
    assert np.array_equal(again.dz_um, curve.dz_um)
    assert np.array_equal(again.force_n, curve.force_n)
    assert np.array_equal(again.voff_mv, curve.voff_mv, equal_nan=True)
    assert np.array_equal(again.valid, curve.valid)


@ROUND_TRIP
@given(log=cycle_logs())
def test_cycle_log_round_trip(tmp_path, log):
    again = write_twice(tmp_path, write_cycle_log_csv, read_cycle_log_csv, log)
    assert np.array_equal(again.cycles, log.cycles)
    assert np.array_equal(again.force_n, log.force_n)
    assert np.array_equal(again.voff_mv, log.voff_mv)
    assert again.record_interval == log.record_interval
