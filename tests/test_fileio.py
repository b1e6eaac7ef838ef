"""The CSV table codec: round trips, the writer, the parser, and its error and empty cases."""

import functools
import math
import re
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from forcebench.analysis import CurveBlock, CycleLog, LoadCurve, fleet_summary, reduce_block
from forcebench.bench import FLEET_BLOCK, FleetParams, RigConfig, StaticProtocol, run_fleet
from forcebench.errors import DataFormatError
from forcebench.sensor import SensorSpec
from forcebench import fileio
from forcebench.fileio import (
    CURVE_HEADER,
    CYCLE_HEADER,
    _read_table,
    atomic_write_text,
    read_curve_blocks,
    read_cycle_log_csv,
    read_force_column_csv,
    read_load_curve_csv,
    read_manifest,
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
    start = draw(st.integers(-10**12, 10**12))
    step = draw(st.integers(1, 10**6))
    cycles = np.arange(n) * step + start
    force = draw(st.lists(TEN_DIGITS, min_size=n, max_size=n))
    voff = draw(st.lists(TEN_DIGITS, min_size=4 * n, max_size=4 * n))
    return CycleLog(cycles=cycles, force_n=force, voff_mv=np.reshape(voff, (n, 4)))


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


def test_cycle_indices_up_to_two_to_the_53_round_trip(tmp_path):
    log = CycleLog(cycles=[2**53 - 4, 2**53 - 2, 2**53], force_n=[0.5] * 3,
                   voff_mv=np.zeros((3, 4)))
    again = write_twice(tmp_path, write_cycle_log_csv, read_cycle_log_csv, log)
    assert again.cycles.tolist() == [2**53 - 4, 2**53 - 2, 2**53]


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
                                      (n, 4)))
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


# ------------------------------------------------------------ bad text, bad side

@pytest.mark.parametrize("read, name", [
    (lambda path: read_load_curve_csv(path, "front"), "curve.csv"),
    (read_cycle_log_csv, "cycles.csv"),
    (read_force_column_csv, "forces.csv"),
    (lambda path: read_manifest(path.parent), "manifest.json"),
], ids=["curve", "cycle-log", "forces", "manifest"])
def test_a_file_that_is_not_utf8_is_refused_by_name(tmp_path, read, name):
    path = tmp_path / name
    path.write_bytes(b"force_N\n0.5\n\xff\n")
    with pytest.raises(DataFormatError, match=f"^{re.escape(str(path))}: not UTF-8 text: "):
        read(path)


def test_a_curve_of_an_unknown_side_is_refused_by_the_side_rule(tmp_path):
    path = tmp_path / "curve.csv"
    write_load_curve_csv(path, LoadCurve(side="front", dz_um=[0.0], force_n=[0.0],
                                         voff_mv=np.zeros((1, 4)), valid=[True]))
    with pytest.raises(DataFormatError, match=re.escape(
            f"{path}: side: expected one of ('front', 'back'), got 'x'") + "$"):
        read_load_curve_csv(path, "x")


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


def test_force_file_text_is_not_held_while_numpy_parses_it(tmp_path):
    # the whole call: the scan holds one chunk of text, and numpy its chunks
    # and the forces, about 1.23 arrays of n; the text of 1M such lines would
    # add 1.5 arrays more, and Path.read_text's bytes as much again
    n = 1_000_000
    path = tmp_path / "forces.csv"
    path.write_text("force_N\n" + "1.234567891\n" * n)
    tracemalloc.start()
    try:
        forces = read_force_column_csv(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert forces.shape == (n,) and np.all(forces == 1.234567891)
    assert peak <= 1.5 * 8 * n, f"{peak / (8 * n):.2f} arrays of n"


def count_reads(monkeypatch):
    """Two lists that the force reader's calls fill: the paths that
    ``_read_text`` reads whole, and those that numpy parses from the path."""
    read_text, parse, texts, parses = fileio._read_text, fileio._loadtxt, [], []

    def counted_parse(rows, *args, **kwargs):
        if not isinstance(rows, list):
            parses.append(rows)
        return parse(rows, *args, **kwargs)

    monkeypatch.setattr(fileio, "_read_text", lambda p: texts.append(p) or read_text(p))
    monkeypatch.setattr(fileio, "_loadtxt", counted_parse)
    return texts, parses


@pytest.mark.parametrize("line, expected, reads, parses", [
    ("3.5", [1.5, 1.5, 1.5, 3.5, 2.5, 2.5], 0, 1),  # numpy's parse of the path alone
    (",skipped", [1.5, 1.5, 1.5, 2.5, 2.5], 1, 1),  # empty first field: then the text
    ("  abc ,1", "forces.csv:5: not a number: 'abc'", 1, 1),
    ("1.5\x0c", [1.5, 1.5, 1.5, 1.5, 2.5, 2.5], 1, 0),  # a line break numpy does not end
], ids=["fast", "empty-field", "bad-token", "other-line-break"])
def test_force_file_fallback_reads_the_text_again(tmp_path, monkeypatch, line, expected, reads,
                                                  parses):
    # the fast path reads no whole text; each fallback reads it once
    path = tmp_path / "forces.csv"
    path.write_text("\n".join(["force_N", "1.5", "1.5", "1.5", line, "2.5", "2.5"]) + "\n")
    texts, paths = count_reads(monkeypatch)
    if isinstance(expected, str):
        with pytest.raises(DataFormatError, match=re.escape(expected) + "$"):
            read_force_column_csv(path)
    else:
        assert read_force_column_csv(path).tolist() == expected
    assert texts == [path] * reads
    assert paths == [path] * parses


# The force reader scans a file's text in chunks of _SCAN_CHUNK characters;
# with small chunks, every file reads as it does in one.

@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("chunk", [1, 3])
@pytest.mark.parametrize("text, expected", list(FORCE_FILES.items()),
                         ids=[repr(text) for text in FORCE_FILES])
def test_force_file_edges_in_small_chunks(tmp_path, monkeypatch, text, expected, chunk):
    monkeypatch.setattr(fileio, "_SCAN_CHUNK", chunk)
    test_force_file_edges(tmp_path, text, expected)


def test_force_file_not_utf8_after_the_first_chunk_names_the_byte_in_the_file(
        tmp_path, monkeypatch):
    monkeypatch.setattr(fileio, "_SCAN_CHUNK", 4)
    data = b"force_N\n" + b"1.5\n" * 3000 + b"\xff\n"  # past the decoder's first 8 kB
    path = tmp_path / "forces.csv"
    path.write_bytes(data)
    with pytest.raises(UnicodeDecodeError) as whole:
        data.decode("utf-8")
    assert "position 12008" in str(whole.value)
    with pytest.raises(DataFormatError, match="^" + re.escape(
            f"{path}: not UTF-8 text: {whole.value}") + "$"):
        read_force_column_csv(path)


@pytest.mark.parametrize("pad", range(5))
def test_force_file_crlf_across_a_decoder_chunk(tmp_path, monkeypatch, pad):
    # one of the pads puts a "\r" on the last byte of the decoder's first
    # 8192 and its "\n" on the next
    monkeypatch.setattr(fileio, "_SCAN_CHUNK", 3)
    text = "force_N" + "," * pad + "\r\n" + "1.5\r\n" * 2000
    path = tmp_path / "forces.csv"
    path.write_bytes(text.encode())
    texts, paths = count_reads(monkeypatch)
    assert read_force_column_csv(path).tolist() == [1.5] * 2000
    assert (texts, paths) == ([], [path])


def test_force_file_other_line_break_in_a_later_chunk_takes_the_fallback(tmp_path, monkeypatch):
    # numpy would parse this file to [1.5, 2.5]: it ends no line at "\x0c"
    monkeypatch.setattr(fileio, "_SCAN_CHUNK", 4)
    path = tmp_path / "forces.csv"
    path.write_text("force_N\n1.5\n" + "\n" * 40 + "2.5,\x0cabc\n")
    texts, paths = count_reads(monkeypatch)
    with pytest.raises(DataFormatError, match=re.escape("forces.csv:44: not a number: 'abc'")
                       + "$"):
        read_force_column_csv(path)
    assert (texts, paths) == ([path], [])


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("text", ["force_N\n", "", "force_N\n\n  \n,5\n"])
def test_header_only_force_file_has_no_numeric_data(tmp_path, text):
    path = tmp_path / "empty.csv"
    path.write_text(text)
    with pytest.raises(DataFormatError, match="empty.csv: no numeric data$"):
        read_force_column_csv(path)


# ------------------------------------------------------------ the block reader

def fleet_curve(n, first_dz, force_kind, flags, k):
    """Curve ``k`` of a fleet: ``n`` samples 0.5 um apart but the first, at
    ``first_dz`` (0.0, -0.0 or 0.25), forces of ``force_kind`` scaled by ``k``."""
    dz = np.arange(n) * 0.5
    dz[0] = first_dz
    force = (1 + k % 7 / 8) * 0.1 * np.arange(1.0, n + 1)  # rising: no failure
    if force_kind == "fails":
        force[n // 2:] *= 0.5
    elif force_kind == "fails_first":  # a first fracture at the first displacement
        force[0] = 4 * force[1]
    elif force_kind == "negative":  # falls from the start: a first fracture below 0 N
        force = -force
    valid = {"all": np.ones(n, bool), "none": np.zeros(n, bool),
             "some": np.arange(n) % 3 == 0}[flags]
    return LoadCurve(side="back", dz_um=dz, force_n=force, voff_mv=np.zeros((n, 4)),
                     valid=valid)


def write_fleet_curve(path, curve):
    """Write ``curve``, its displacement -0.0 as ``-0`` (the writer writes ``0``)."""
    write_load_curve_csv(path, curve)
    if curve.dz_um.size and np.signbit(curve.dz_um[0]):
        path.write_text(path.read_text().replace("\n0,0,", "\n0,-0,", 1))


@st.composite
def curve_fleets(draw):
    """(size, kinds, starts, short): a fleet of ``size`` curves whose kind
    (a ``fleet_curve`` argument tuple) changes at each of ``starts``, going
    round ``kinds``, with a 9-sample curve at position ``short`` if any."""
    size = draw(st.sampled_from([1, FLEET_BLOCK - 1, FLEET_BLOCK, FLEET_BLOCK + 1]))
    kinds = draw(st.lists(st.tuples(
        st.sampled_from([10, 11, 16]), st.sampled_from([0.0, -0.0, 0.25]),
        st.sampled_from(["fails", "fails", "fails_first", "holds", "negative"]),
        st.sampled_from(["all", "none", "some"])), min_size=1, max_size=4))
    starts = sorted(draw(st.sets(st.integers(1, max(size - 1, 1)), max_size=3)))
    short = draw(st.one_of(st.none(), st.integers(0, size - 1)))
    return size, kinds, starts, short


def summary_or_error(curves, drop_fraction, drop_floor_n):
    try:
        reduce = functools.partial(reduce_block, drop_fraction=drop_fraction,
                                   drop_floor_n=drop_floor_n)
        return repr(fleet_summary(map(reduce, curves)))
    except ValueError as exc:  # ForceBenchError included
        return f"{type(exc).__name__}: {exc}"


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(fleet=curve_fleets(), drop_fraction=st.sampled_from([0.1, 0.1, 0.25, -1.0]),
       drop_floor_n=st.sampled_from([0.05, 0.0]))
@example(fleet=(FLEET_BLOCK + 1, [(16, 0.0, "fails", "all"), (16, -0.0, "fails", "some"),
                                  (11, 0.0, "holds", "none")], [40, 90], 64),
         drop_fraction=0.1, drop_floor_n=0.05)
@example(fleet=(FLEET_BLOCK, [(10, 0.25, "fails_first", "all"), (10, 0.0, "fails_first", "all")],
                [2], None),
         drop_fraction=0.1, drop_floor_n=0.05)
def test_curve_blocks_summarise_as_curve_files(tmp_path, fleet, drop_fraction, drop_floor_n):
    size, kinds, starts, short = fleet
    paths = [tmp_path / f"{k:03d}.csv" for k in range(size)]
    for k, path in enumerate(paths):
        kind = kinds[np.searchsorted(starts, k, side="right") % len(kinds)]
        if k == short:
            kind = (9, *kind[1:])
        write_fleet_curve(path, fleet_curve(*kind, k))
    by_file = summary_or_error((read_load_curve_csv(p, "back") for p in paths),
                               drop_fraction, drop_floor_n)
    assert summary_or_error(read_curve_blocks(paths, "back"),
                            drop_fraction, drop_floor_n) == by_file


def test_curve_blocks_split_where_the_grid_changes(tmp_path):
    grids = [(12, 0.0)] * 3 + [(12, -0.0)] * 2 + [(12, 0.0), (9, 0.0)] + [(12, 0.0)] * (
        FLEET_BLOCK + 1)
    paths = [tmp_path / f"{k:03d}.csv" for k in range(len(grids))]
    curves = [fleet_curve(n, first_dz, "fails", "some", k)
              for k, (n, first_dz) in enumerate(grids)]
    for path, curve in zip(paths, curves):
        write_fleet_curve(path, curve)
    blocks = list(read_curve_blocks(paths, "back"))
    assert [len(block) for block in blocks] == [3, 2, 1, 1, FLEET_BLOCK, 1]
    rows = iter(paths)
    for block in blocks:
        assert type(block) is CurveBlock
        assert block.side == "back" and block.force_n.shape == block.valid.shape
        for force, valid in zip(block.force_n, block.valid):
            curve = read_load_curve_csv(next(rows), "back")
            assert block.dz_um.tobytes() == curve.dz_um.tobytes()
            assert force.tobytes() == curve.force_n.tobytes()
            assert np.array_equal(valid, curve.valid)


def test_curve_blocks_refuse_a_side_as_the_first_block_is_made(tmp_path):
    paths = [tmp_path / f"{k:03d}.csv" for k in range(3)]
    for k, path in enumerate(paths):
        write_fleet_curve(path, fleet_curve(12, 0.0, "fails", "some", k))
    blocks = read_curve_blocks(paths, "x")
    with pytest.raises(ValueError, match=r"^side: expected one of \('front', 'back'\), got 'x'$"):
        next(blocks)


def test_curve_blocks_refuse_a_side_before_any_file_is_read(tmp_path):
    # the headerless file would be refused when reached, after three good ones
    paths = [tmp_path / f"{k:03d}.csv" for k in range(3)]
    for k, path in enumerate(paths):
        write_fleet_curve(path, fleet_curve(12, 0.0, "fails", "some", k))
    bad = tmp_path / "bad.csv"
    bad.write_text("0,0,0,0,0,0,0,1\n")
    blocks = read_curve_blocks([*paths, bad], "x")
    with pytest.raises(ValueError, match=r"^side: expected one of \('front', 'back'\), got 'x'$"):
        next(blocks)


@pytest.mark.parametrize("rows, message", [
    ("0,0,0,0,0,0,0,1\n1,1,inf,0,0,0,0,1\n", ": curve displacements and forces must be finite"),
    ("0,nan,0,0,0,0,0,1\n", ": curve displacements and forces must be finite"),
    ("0,1,0,0,0,0,0,1\n1,0,0,0,0,0,0,1\n", ":3: displacement decreases"),
    ("0,1e308,0,0,0,0,0,1\n1,-1e308,0,0,0,0,0,1\n", ":3: displacement decreases"),
    ("0,inf,0,0,0,0,0,1\n1,inf,0,0,0,0,0,1\n", ": curve displacements and forces must be finite"),
    ("0,0,0,0,0,0,0,1.0\n", ":2: valid flag must be 0 or 1"),
    ("0,0,0,0,0,0,0\n", ":2: expected 8 fields, got 7"),
], ids=["inf_force", "nan_displacement", "decreasing", "decreasing_across_the_float_range",
        "inf_displacements", "flag_float", "field_count"])
def test_curve_blocks_refuse_what_a_curve_file_refuses(tmp_path, rows, message):
    path = tmp_path / "bad.csv"
    path.write_text(CURVE_HEADER + "\n" + rows)
    for read in (lambda: read_load_curve_csv(path, "front"),
                 lambda: list(read_curve_blocks([path], "front"))):
        with pytest.raises(DataFormatError, match=re.escape(f"{path}{message}") + "$"):
            read()


def test_a_curve_file_whose_grid_spans_the_float_range_is_read(tmp_path):
    # its step, 2e308, overflows: the check compares neighbours, never subtracts them
    path = tmp_path / "wide.csv"
    path.write_text(CURVE_HEADER + "\n0,-1e308,0,0,0,0,0,1\n1,1e308,1,0,0,0,0,1\n")
    [block] = read_curve_blocks([path], "front")
    assert read_load_curve_csv(path, "front").dz_um.tolist() == [-1e308, 1e308]
    assert block.dz_um.tolist() == [-1e308, 1e308]
