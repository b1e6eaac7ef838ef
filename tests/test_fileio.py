"""The CSV table codec: round trips, the writer, the parser, and its error and empty cases."""

import math
import re
import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from forcebench.analysis import CycleLog, LoadCurve
from forcebench.bench import FLEET_BLOCK, FleetParams, RigConfig, StaticProtocol, run_fleet
from forcebench.errors import DataFormatError
from forcebench.sensor import SensorSpec
from forcebench.fileio import (
    CURVE_HEADER,
    CYCLE_HEADER,
    _read_table,
    atomic_write_text,
    read_cycle_log_csv,
    read_force_column_csv,
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
    start = draw(st.integers(int(n == 1), 10**12))  # a one-row log's interval is its cycle
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


def test_cycle_indices_up_to_two_to_the_53_round_trip(tmp_path):
    log = CycleLog(cycles=[2**53 - 4, 2**53 - 2, 2**53], force_n=[0.5] * 3,
                   voff_mv=np.zeros((3, 4)), v_ges=1.0, record_interval=2)
    again = write_twice(tmp_path, write_cycle_log_csv, read_cycle_log_csv, log)
    assert again.cycles.tolist() == [2**53 - 4, 2**53 - 2, 2**53]
    assert again.record_interval == 2


def test_cycle_indices_beyond_two_to_the_53_name_the_file(tmp_path):
    path = tmp_path / "big.csv"
    path.write_text(CYCLE_HEADER + "\n" + "".join(
        f"{c},0.5,0,0,0,0\n" for c in (2**53 + 2, 2**53 + 4)))
    with pytest.raises(DataFormatError, match="big.csv: cycle indices must lie within"):
        read_cycle_log_csv(path)


# ------------------------------------------------------------------ the writer

CURVE_ROW = "%d" + ",%.10g" * 6 + ",%d"
CYCLE_ROW = "%d" + ",%.10g" * 5


def reference_table_text(header, row_format, columns):
    """The per-row writer that the file template replaced: one % per row."""
    table = np.column_stack(columns).astype(float) + 0.0  # +0.0 normalizes -0.0
    lines = [header] + [row_format % tuple(row) for row in table.tolist()]
    return "\n".join(lines) + "\n"


def reference_curve_bytes(curve):
    return reference_table_text(CURVE_HEADER, CURVE_ROW, [
        np.arange(len(curve)), curve.dz_um, curve.force_n, curve.voff_mv, curve.valid,
    ]).encode()


def reference_cycle_log_bytes(log):
    return reference_table_text(CYCLE_HEADER, CYCLE_ROW,
                                [log.cycles, log.force_n, log.voff_mv]).encode()


# Any finite value: the extremes of the %.10g format, signed zeros, subnormals.
FINITE = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([-0.0, 0.0, 5e-324, -5e-324, 2.5e-320, 1e21, -1e21, 0.5, 1e-5]),
)
ROW_COUNTS = st.one_of(st.just(0), st.just(1), st.integers(2, 60))
WRITER = settings(max_examples=60, deadline=None,
                  suppress_health_check=[HealthCheck.function_scoped_fixture])


@st.composite
def grids(draw, counts=ROW_COUNTS):
    n = draw(counts)
    return sorted(draw(st.lists(FINITE, min_size=n, max_size=n)))


@st.composite
def curves_on(draw, grid):
    n = len(grid)
    offsets = st.one_of(FINITE, st.sampled_from([np.nan, np.inf, -np.inf]))
    return LoadCurve(
        side="front", dz_um=grid,
        force_n=draw(st.lists(FINITE, min_size=n, max_size=n)),
        voff_mv=np.reshape(draw(st.lists(offsets, min_size=4 * n, max_size=4 * n)), (n, 4)),
        valid=draw(st.lists(st.booleans(), min_size=n, max_size=n)))


def assert_curve_written_as_before(path, curve):
    write_load_curve_csv(path, curve)
    assert path.read_bytes() == reference_curve_bytes(curve)


@WRITER
@given(data=st.data())
def test_curve_bytes_equal_per_row_writer(tmp_path, data):
    assert_curve_written_as_before(tmp_path / "curve.csv", data.draw(curves_on(data.draw(grids()))))


def test_curve_edge_values_written_as_before(tmp_path):
    # -0.0 and subnormal grid points, NaN offsets, both flags
    curve = LoadCurve(side="back", dz_um=[-0.0, 0.0, 5e-324, 1e21],
                      force_n=[-0.0, 1.5, -2.5e-320, 1e21],
                      voff_mv=[[np.nan] * 4, [-0.0, 1.0, np.nan, 2.0], [0.0] * 4, [3.0] * 4],
                      valid=[False, True, True, False])
    assert_curve_written_as_before(tmp_path / "curve.csv", curve)
    assert (tmp_path / "curve.csv").read_text().splitlines()[1:3] == [
        "0,0,0,nan,nan,nan,nan,0", "1,0,1.5,0,1,nan,2,1"]


@pytest.mark.filterwarnings("error")
def test_signalling_nan_offset_written_as_nan(tmp_path):
    signalling = struct.unpack("<d", struct.pack("<Q", 0x7FF0000000000001))[0]
    curves = [LoadCurve(side="front", dz_um=[0.0, 1.0], force_n=[-0.0, 1.0],
                        voff_mv=[[nan, -0.0, 1.0, 2.0], [nan] * 4], valid=[True, False])
              for nan in (signalling, np.nan)]
    assert np.isnan(curves[0].voff_mv[0, 0])
    write_load_curve_csv(tmp_path / "signalling.csv", curves[0])
    write_load_curve_csv(tmp_path / "quiet.csv", curves[1])
    text = (tmp_path / "signalling.csv").read_bytes()
    assert text == (tmp_path / "quiet.csv").read_bytes() == reference_curve_bytes(curves[1])
    assert text.splitlines()[1:] == [b"0,0,0,nan,0,1,2,1", b"1,1,1,nan,nan,nan,nan,0"]


def seeded_curve(grid, rng):
    """A curve on ``grid`` with random forces, offsets (some NaN) and flags."""
    n = len(grid)
    voff = rng.normal(0.0, 50.0, (n, 4))
    voff[rng.random((n, 4)) < 0.2] = np.nan
    return LoadCurve(side="front", dz_um=grid, force_n=rng.normal(0.0, 2.0, n),
                     voff_mv=voff, valid=rng.random(n) < 0.5)


@WRITER
@given(grid_list=st.lists(grids(), min_size=2, max_size=7),
       order=st.lists(st.integers(0, 6), min_size=2, max_size=16), seed=st.integers(0, 2**32))
def test_grids_written_alternately_keep_their_bytes(tmp_path, grid_list, order, seed):
    # Up to more grids than the template cache holds, written in a random
    # order: a stale or evicted entry would show as a byte difference.
    rng = np.random.default_rng(seed)
    for k, g in enumerate(order):
        curve = seeded_curve(grid_list[g % len(grid_list)], rng)
        assert_curve_written_as_before(tmp_path / f"curve_{k}.csv", curve)


@WRITER
@given(grid=grids(st.integers(1, 60)), shift=st.floats(1e-3, 1e6), seed=st.integers(0, 2**32))
def test_grid_changed_in_place_after_a_write(tmp_path, grid, shift, seed):
    curve = seeded_curve(grid, np.random.default_rng(seed))
    assert_curve_written_as_before(tmp_path / "before.csv", curve)
    curve.dz_um[-1] += shift  # the same array object, now a different grid
    assert_curve_written_as_before(tmp_path / "after.csv", curve)


@WRITER
@given(n=ROW_COUNTS, start=st.integers(0, 2**53 - 60 * 10**6), step=st.integers(1, 10**6),
       data=st.data())
def test_cycle_log_bytes_equal_per_row_writer(tmp_path, n, start, step, data):
    log = CycleLog(cycles=np.arange(n) * step + start,
                   force_n=data.draw(st.lists(FINITE, min_size=n, max_size=n)),
                   voff_mv=np.reshape(data.draw(st.lists(FINITE, min_size=4 * n, max_size=4 * n)),
                                      (n, 4)),
                   v_ges=1.0, record_interval=step)
    path = tmp_path / "cycles.csv"
    write_cycle_log_csv(path, log)
    assert path.read_bytes() == reference_cycle_log_bytes(log)


# Quiet NaNs with and without the sign bit and a payload: all print as nan.
NANS = st.sampled_from([float("nan"), -float("nan"), math.copysign(float("nan"), -1.0)] + [
    struct.unpack("<d", struct.pack("<Q", bits))[0]
    for bits in (0x7FF8000000000001, 0xFFF800000000BEEF)])
INFS = st.sampled_from([np.inf, -np.inf])


@st.composite
def three_nans_and_one(draw):
    """Three NaN offsets and one finite or infinite one, in any position."""
    offsets = draw(st.lists(NANS, min_size=3, max_size=3))
    offsets.insert(draw(st.integers(0, 3)), draw(st.one_of(FINITE, INFS)))
    return offsets


LOST_OFFSETS = st.lists(NANS, min_size=4, max_size=4)
ROW_OFFSETS = st.one_of(
    LOST_OFFSETS,  # supply loss
    three_nans_and_one(),
    st.lists(FINITE, min_size=4, max_size=4),
    st.lists(st.one_of(FINITE, NANS, INFS), min_size=4, max_size=4),
)


@st.composite
def curves_of_every_row_kind(draw):
    """Rows of interleaved kinds, then a supply-loss suffix; both flags throughout."""
    grid = draw(grids())
    n = len(grid)
    lost_from = draw(st.integers(0, n))
    offsets = [draw(ROW_OFFSETS) for _ in range(lost_from)]
    offsets += [draw(LOST_OFFSETS) for _ in range(n - lost_from)]
    return LoadCurve(
        side="front", dz_um=grid,
        force_n=draw(st.lists(FINITE, min_size=n, max_size=n)),
        voff_mv=np.reshape(offsets, (n, 4)),
        valid=draw(st.lists(st.booleans(), min_size=n, max_size=n)))


@WRITER
@given(curve=curves_of_every_row_kind())
@example(curve=LoadCurve(
    side="front", dz_um=[0.0, 0.5, 1.0, 1.5, 2.0],
    force_n=[0.25, 0.5, 0.75, 1.0, 1.25],
    voff_mv=[[1.0, np.nan, np.nan, np.nan], [np.nan, np.nan, np.inf, np.nan],
             [1.0, 2.0, 3.0, 4.0], [np.nan] * 4, [-np.nan] * 4],
    valid=[True, False, False, False, True]))
def test_curve_row_kinds_written_as_before(tmp_path, curve):
    assert_curve_written_as_before(tmp_path / "curve.csv", curve)


@pytest.mark.parametrize("side", ["front", "back"])
@pytest.mark.parametrize("seed", [14, 7])
def test_fleet_curves_written_as_before(tmp_path, side, seed):
    # two kernel blocks of real ramps: supply-loss suffixes, both flags
    params = FleetParams(count=FLEET_BLOCK + 1, master_seed=seed)
    curves = run_fleet(params, SensorSpec(), StaticProtocol(side=side), RigConfig())
    for i, curve in enumerate(curves):
        assert_curve_written_as_before(tmp_path / f"specimen_{i:03d}.csv", curve)


def test_failed_write_leaves_no_temp_file(tmp_path):
    path = tmp_path / "out.txt"
    with pytest.raises(UnicodeEncodeError):
        atomic_write_text(path, "\udc80")
    assert list(tmp_path.iterdir()) == []


def test_failed_rename_leaves_no_temp_file(tmp_path):
    (tmp_path / "out.txt").mkdir()  # the rename onto a directory fails
    with pytest.raises(OSError):
        atomic_write_text(tmp_path / "out.txt", "text\n")
    assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]


# ------------------------------------------------------------------ the parser

def writer_token(x):
    return "%.10g" % (x + 0.0)


# Tokens float() and the reader must agree on bit for bit: what the writer
# emits, padded fields, the non-finite spellings, overflow and underflow.
TOKENS = st.one_of(
    st.floats(allow_nan=False).map(writer_token),
    st.integers(-10**12, 10**12).map(str),
    st.sampled_from([" 1.5 ", "\t2.5", "nan", "-nan", "NaN", "inf", "-inf", "Infinity",
                     "1e400", "-1e400", "4.9e-324", "1e-400", "-0.0", "+3", ".5", "5."]),
)
LINE_ENDS = st.sampled_from(["\n", "\r\n"])


def bits(values):
    return np.asarray(values, dtype=float).view(np.uint64)


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(tokens=st.lists(TOKENS, min_size=6, max_size=60), end=LINE_ENDS)
def test_table_parse_equals_float_bitwise(tmp_path, tokens, end):
    rows = [tokens[k:k + 6] for k in range(0, len(tokens) - 5, 6)]
    path = tmp_path / "table.csv"
    path.write_bytes(end.join([CYCLE_HEADER] + [",".join(row) for row in rows]).encode() + b"\n")
    table, _, linenos = _read_table(path, CYCLE_HEADER)
    assert np.array_equal(bits(table), bits([[float(t) for t in row] for row in rows]))
    assert linenos.tolist() == list(range(2, len(rows) + 2))


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(tokens=st.lists(TOKENS, min_size=1, max_size=60), end=LINE_ENDS)
def test_force_column_parse_equals_float_bitwise(tmp_path, tokens, end):
    path = tmp_path / "forces.csv"
    path.write_bytes(end.join(["force_N"] + tokens).encode())
    assert np.array_equal(bits(read_force_column_csv(path)), bits([float(t) for t in tokens]))


@settings(max_examples=20, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(bad_line=st.integers(2, 3001), bad_column=st.integers(0, 5), blank_line=st.integers(2, 3002))
def test_first_bad_row_named_in_a_long_table(tmp_path, bad_line, bad_column, blank_line):
    rows = [["%d" % (500 * k)] + ["0.5"] * 5 for k in range(1, 3001)]
    rows[bad_line - 2][bad_column] = "x%d" % bad_line
    rows.append(["1500500", "y", "0", "0", "0", "0"])  # a later bad row is not reported
    lines = [CYCLE_HEADER] + [",".join(row) for row in rows]
    lines.insert(blank_line - 1, "  ")  # blank lines count, so the bad row may move down
    path = tmp_path / "long.csv"
    path.write_text("\n".join(lines) + "\n")
    line = bad_line + (blank_line <= bad_line)
    with pytest.raises(DataFormatError, match=f"long.csv:{line}: not a number: 'x{bad_line}'$"):
        read_cycle_log_csv(path)


@settings(max_examples=20, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(bad_line=st.integers(2, 5001))
def test_first_bad_force_named_in_a_long_column(tmp_path, bad_line):
    lines = ["force_N"] + ["1.25,ignored"] * 5000 + ["also bad"]
    lines[bad_line - 1] = "  x%d ,1" % bad_line
    lines[1] = ",skipped"  # an empty first field: the line does not count
    path = tmp_path / "forces.csv"
    path.write_text("\n".join(lines) + "\n")
    expect = f"forces.csv:{bad_line}: not a number: 'x{bad_line}'$" if bad_line > 2 else \
        "forces.csv:5002: not a number: 'also bad'$"
    with pytest.raises(DataFormatError, match=expect):
        read_force_column_csv(path)


@pytest.mark.parametrize("rows, count", [
    ("500,1,2,3,4\n1000,x,2,3,4,5\n", 5),  # before a later bad number
    ("500,1,2,3,4,5,6\n1000,1,2,3,4,5,6\n", 7),  # every row, so each parses alike
])
def test_wrong_field_count_is_named(tmp_path, rows, count):
    path = tmp_path / "table.csv"
    path.write_text(CYCLE_HEADER + "\n" + rows)
    with pytest.raises(DataFormatError, match=f"table.csv:2: expected 6 fields, got {count}$"):
        _read_table(path, CYCLE_HEADER)


# ------------------------------------------------- header-only files, no warning

@pytest.mark.filterwarnings("error")
def test_header_only_curve_has_no_rows(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text(CURVE_HEADER + "\n\n")
    assert len(read_load_curve_csv(path, "front")) == 0


@pytest.mark.filterwarnings("error")
def test_header_only_cycle_log_has_no_data_rows(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text(CYCLE_HEADER + "\n")
    with pytest.raises(DataFormatError, match="empty.csv: no data rows$"):
        read_cycle_log_csv(path)


# A force file's text -> its forces, or the end of its error message.  The
# reader picks its parser by counting characters and line ends; these are
# the edges of that count.
FORCE_FILES = {
    "": "f.csv: no numeric data",
    "force_N": "f.csv: no numeric data",
    "force_N\n": "f.csv: no numeric data",
    "force_N\n\n\n": "f.csv: no numeric data",
    "force_N\r\n\r\n": "f.csv: no numeric data",
    "\n\n\n": "f.csv: no numeric data",
    " \n \n": "f.csv: no numeric data",
    "force_N\n\x0c": "f.csv: no numeric data",
    "force_N\r\n1.5\r\n2.5\r\n": [1.5, 2.5],
    "1.5\r2.5": [1.5, 2.5],
    "1.5\n2.5": [1.5, 2.5],
    "force_N\n1.5": [1.5],
    "1.5": [1.5],
    "\n1.5\n": [1.5],
    "force_N\n\n1.5\n\n2.5\n\n": [1.5, 2.5],
    "force_N\n1.5\x0c2\n2.5\n": [1.5, 2.0, 2.5],
    "force_N\x0c1.5\n2.5\n": [1.5, 2.5],
    "\x0c\n1\n": [1.0],
    "force_N\n1.5\x0cabc\n": "f.csv:3: not a number: 'abc'",
    "force_N\nabc\n": "f.csv:2: not a number: 'abc'",
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("text, expected", list(FORCE_FILES.items()),
                         ids=[repr(text) for text in FORCE_FILES])
def test_force_file_edges(tmp_path, text, expected):
    path = tmp_path / "f.csv"
    path.write_bytes(text.encode())
    if isinstance(expected, str):
        with pytest.raises(DataFormatError, match=re.escape(expected) + "$"):
            read_force_column_csv(path)
    else:
        assert read_force_column_csv(path).tolist() == expected


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("text", ["force_N\n", "", "force_N\n\n  \n,5\n"])
def test_header_only_force_file_has_no_numeric_data(tmp_path, text):
    path = tmp_path / "empty.csv"
    path.write_text(text)
    with pytest.raises(DataFormatError, match="empty.csv: no numeric data$"):
        read_force_column_csv(path)
