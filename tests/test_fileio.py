"""The CSV table codec: round trips, the parser, and its error and empty cases."""

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from forcebench.analysis import CycleLog, LoadCurve
from forcebench.errors import DataFormatError
from forcebench.fileio import (
    CURVE_HEADER,
    CYCLE_HEADER,
    _read_table,
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


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("text", ["force_N\n", "", "force_N\n\n  \n,5\n"])
def test_header_only_force_file_has_no_numeric_data(tmp_path, text):
    path = tmp_path / "empty.csv"
    path.write_text(text)
    with pytest.raises(DataFormatError, match="empty.csv: no numeric data$"):
        read_force_column_csv(path)
