"""File formats: load-curve and cycle-log CSVs, JSON reports, manifests.

Numeric CSV fields are written with ``%.10g`` (integer columns with
``%d``), so curves round-trip losslessly through the analyzer; ``-0`` is
written as ``0``, and ``nan`` in a curve's offsets marks supply loss.
Lines end in ``\n``, the last one included.  A file is one ``%`` over a
template joined from cached row texts that already hold the leading
columns (``index,dz_um`` or ``cycle``), so curves on the same displacement
grid share them.  A curve row's ``valid`` flag is literal text, and so are
the ``nan`` offsets of a supply-loss row: each row's text is picked from
its data, and only forces and present offsets are formatted, with the
same bytes as formatting every field.  Fields are read by numpy's C
parser: ASCII decimal numbers, ``nan`` and ``inf``, and no digit separators.
A cycle log holds only its columns: its record interval is its cycle spacing.
All writes go through :func:`atomic_write_text`: it makes the directory it
writes into and renames a temp file, so output files are atomic and no
directory is made before a file; a failed write removes its temp file.
:func:`config_hash` alone imports ``hashlib``, whose OpenSSL costs a
command that makes no hash about 3.5 MB resident and 4 ms of start-up.
Every file is read as UTF-8 text by :func:`_read_text`.  Error messages
name the file and its physical line, blank lines counted.  The rules of a
curve file are checked in one place, :func:`_read_curve_table`, for both
curve readers: :func:`read_load_curve_csv` makes one ``LoadCurve``, and
:func:`read_curve_blocks` reads many files into ``analysis.CurveBlock``s
of up to ``FLEET_BLOCK`` curves on one displacement grid, keeping the grid
and each curve's force and valid rows only.  What either reader makes is
checked again, side included, by the curve's rules in ``analysis``.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import json
import os
from collections.abc import Iterable, Iterator
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import __version__
from .analysis import FLEET_BLOCK, CurveBlock, CycleLog, LoadCurve
from .errors import DataFormatError
from .sensor import ARMS

# The line breaks of str.splitlines other than "\n" (_read_text has turned
# "\r\n" and "\r" into "\n"): numpy's parser does not end a line at them.
_OTHER_LINE_BREAKS = "\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"
# numpy opens a file path with one of these suffixes as a compressed archive.
_ARCHIVE_SUFFIXES = (".gz", ".bz2", ".xz", ".lzma")


class _Schema(NamedTuple):
    """A CSV schema: its header, the format of the leading columns, and the
    format of the other columns (with the line end) for each kind of row."""

    header: str
    lead: str  # the leading columns, whose text a fleet's files share
    rests: tuple[str, ...]  # the other columns, filled in per file; by row kind


_FIELD = ",%.10g"
_VOFF_COLUMNS = [f"voff{arm}_mV" for arm in ARMS]
CURVE_HEADER = ",".join(["index", "dz_um", "force_N", *_VOFF_COLUMNS, "valid"])
# A curve row's kind is 2 * lost + valid.  The flag is literal text, and so
# are the offsets of a lost row (supply loss: all four NaN, which Python
# prints as "nan" whatever the sign bit); any other row formats them.
_CURVE = _Schema(CURVE_HEADER, "%d,%.10g", tuple(
    _FIELD + offsets + flag + "\n"
    for offsets in (_FIELD * len(ARMS), ",nan" * len(ARMS)) for flag in (",0", ",1")))
CYCLE_HEADER = ",".join(["cycle", "force_N", *_VOFF_COLUMNS])
_CYCLE = _Schema(CYCLE_HEADER, "%d", (_FIELD * (1 + len(ARMS)) + "\n",))


def atomic_write_text(path: Path, text: str) -> None:
    """Write ``PATH.tmp`` in ``path``'s directory, made if missing, then rename it."""
    tmp = path.with_name(path.name + ".tmp")
    path.parent.mkdir(parents=True, exist_ok=True)
    try:
        tmp.write_text(text)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            tmp.unlink()
        raise


def json_text(payload: dict) -> str:
    """``payload`` as indented, key-sorted JSON; NaN and inf (not JSON) are a ValueError."""
    return json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)


def write_json(path: Path, payload: dict) -> None:
    atomic_write_text(path, json_text(payload) + "\n")


def config_hash(config: dict) -> str:
    import hashlib  # here, not at the top: it maps OpenSSL, which only a hash needs

    canonical = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def provenance(seed: int, config: dict) -> dict:
    """What every run record starts with: the version, the seed and the config hash."""
    return {"version": __version__, "seed": seed, "config_sha256": config_hash(config)}


def manifest(kind: str, seed: int, protocol, rig, config: dict, files: list[str],
             **extra) -> dict:
    """What a simulation writes and how it was made: the payload of ``manifest.json``."""
    return {
        **provenance(seed, config),
        "kind": kind,
        "side": protocol.side,
        "protocol": dataclasses.asdict(protocol),
        "rig": dataclasses.asdict(rig),
        "files": files,
        **extra,
    }


def write_manifest(directory: Path, record: dict) -> None:
    """Write ``record``, made by :func:`manifest`, as ``directory``'s ``manifest.json``."""
    write_json(directory / "manifest.json", record)


def _read_text(path: Path) -> str:
    """The text of the file ``path``, which must be UTF-8."""
    try:
        return path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise DataFormatError(f"{path}: not UTF-8 text: {exc}") from exc


def read_json_object(path: Path) -> dict:
    """The JSON object that the file ``path`` holds."""
    text = _read_text(path)
    try:  # a JSONDecodeError, or an integer of more digits than int() takes
        loaded = json.loads(text)
    except ValueError as exc:
        raise DataFormatError(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(loaded, dict):
        raise DataFormatError(f"{path}: top level must be a JSON object")
    return loaded


def read_manifest(directory: Path) -> tuple[list[str], str | None]:
    """The file names and the load side (None if absent) of ``manifest.json``."""
    path = directory / "manifest.json"
    meta = read_json_object(path)
    files, side = meta.get("files", []), meta.get("side")
    if not (isinstance(files, list) and all(isinstance(name, str) for name in files)):
        raise DataFormatError(f"{path}: 'files' must be a list of strings")
    if "side" in meta and not isinstance(side, str):
        raise DataFormatError(f"{path}: 'side' must be a string")
    return files, side


def _float_table(columns: list) -> np.ndarray:
    """The columns (1-D or 2-D arrays of equal length) side by side, as floats."""
    table = np.column_stack(columns).astype(float)
    table[table == 0] = 0.0  # writes -0.0 as 0; adding 0.0 would signal on a signalling NaN
    return table


def _write_table(path: Path, schema: _Schema, lead: np.ndarray, values: np.ndarray,
                 kind=0) -> None:
    """Write one row per line: the cached text of its ``lead`` columns and
    the rest format of its ``kind``, all filled with ``values`` by one ``%``.

    The format is ASCII bytes: ``bytes %`` writes the same fields as
    ``str %``, and a ``str %`` over a new format for every file grew the
    resident memory of a 1000-curve ``simulate-static`` by about 3 MB.
    """
    rows = _row_formats(schema, lead.tobytes())
    lines = rows[np.arange(len(rows)), kind].tolist()
    text = b"".join([schema.header.encode(), b"\n", *lines]) % tuple(values.tolist())
    atomic_write_text(path, text.decode())


@functools.lru_cache(maxsize=4)
def _row_formats(schema: _Schema, lead_bytes: bytes) -> np.ndarray:
    """Per row of the leading columns (given as float64 bytes), the text of
    those columns followed by each rest format, as ASCII bytes: a
    (rows x kinds) array."""
    lead = np.frombuffer(lead_bytes).reshape(-1, schema.lead.count("%"))
    return np.array([[(schema.lead % tuple(row) + rest).encode() for rest in schema.rests]
                     for row in lead.tolist()], dtype=object).reshape(-1, len(schema.rests))


def _loadtxt(rows, usecols=None, skiprows=0) -> np.ndarray:
    """numpy's C parser over rows (a list of lines or a file path), skipping
    empty lines: every field an ASCII decimal number."""
    return np.loadtxt(
        rows, delimiter=",", comments=None, ndmin=2, usecols=usecols, skiprows=skiprows
    )


def _rejects(rows: list[str], usecols=None) -> bool:
    try:
        _loadtxt(rows, usecols)
    except ValueError:
        return True
    return False


def _raise_first_bad_row(path: Path, rows: list[str], linenos, width: int) -> None:
    """Raise the ``path:line`` error of the first row that ``_loadtxt`` rejects.

    Runs only after a whole-table parse failed, and never returns.  Field
    counts are checked first; the first row with a bad field is then found
    by bisection with the same parser, so the scan cannot accept what the
    fast parse rejected.
    """
    counts = [row.count(",") + 1 for row in rows]
    end = next((k for k, count in enumerate(counts) if count != width), len(rows))
    if end and _rejects(rows[:end]):
        lo, hi = 0, end  # rows[:lo] parse; the first bad row is in rows[lo:hi]
        while hi - lo > 1:
            mid = (lo + hi) // 2
            lo, hi = (lo, mid) if _rejects(rows[lo:mid]) else (mid, hi)
        column = next(j for j in range(width) if _rejects(rows[lo:hi], usecols=j))
        raise DataFormatError(
            f"{path}:{linenos[lo]}: not a number: {rows[lo].split(',')[column]!r}")
    if end < len(rows):
        raise DataFormatError(f"{path}:{linenos[end]}: expected {width} fields, got {counts[end]}")
    raise DataFormatError(f"{path}: not a table of numbers")


def _parse_table(path: Path, rows: list[str], linenos, width: int) -> np.ndarray:
    """The (rows x width) table of non-empty rows, or a ``path:line`` error."""
    if not rows:  # loadtxt would warn that the input has no data
        return np.empty((0, width))
    try:
        table = _loadtxt(rows)
    except ValueError:
        table = None
    if table is None or table.shape[1] != width:
        _raise_first_bad_row(path, rows, linenos, width)
    return table


def _read_table(path: Path, header: str) -> tuple[np.ndarray, list[str], np.ndarray]:
    """Parse a CSV with this exact header and every field a number.

    Returns the (rows x fields) table, the data rows as text and the
    physical line number of each row.
    """
    lines = _read_text(path).splitlines()
    if all(map(str.strip, lines)):  # no blank line, the common case
        linenos = np.arange(1, len(lines) + 1)
    else:
        linenos = np.array([n for n, line in enumerate(lines, 1) if line.strip()], dtype=int)
        lines = [lines[n - 1] for n in linenos]
    if not lines or lines[0].strip() != header:
        raise DataFormatError(f"{path}:{linenos[0] if lines else 1}: bad or missing header")
    rows, linenos = lines[1:], linenos[1:]
    return _parse_table(path, rows, linenos, header.count(",") + 1), rows, linenos


def _reject_first(path: Path, linenos: np.ndarray, bad, message: str) -> None:
    """Raise naming the line of the first row flagged in ``bad``."""
    flagged = np.flatnonzero(bad)
    if flagged.size:
        raise DataFormatError(f"{path}:{linenos[flagged[0]]}: {message}")


def write_load_curve_csv(path: Path, curve: LoadCurve) -> None:
    rest = _float_table([curve.force_n, curve.voff_mv])
    lost = np.isnan(rest[:, 1:]).all(axis=1)
    keep = np.ones(rest.shape, dtype=bool)  # the fields the row's format fills
    keep[lost, 1:] = False
    _write_table(path, _CURVE, _float_table([np.arange(len(curve)), curve.dz_um]),
                 rest[keep], 2 * lost + curve.valid)


def _read_curve_table(path: Path) -> np.ndarray:
    """The table of one static-test CSV under every rule of a curve file:
    the header, numbers, 0/1 flags, nondecreasing displacements, finite
    displacements and forces; errors name the file and line."""
    table, rows, linenos = _read_table(path, CURVE_HEADER)
    text = "\n".join(rows) + "\n"  # a flag is exactly 0 or 1 iff its row ends in ",0" or ",1"
    if text.count(",0\n") + text.count(",1\n") != len(rows):
        _reject_first(path, linenos, [not row.endswith((",0", ",1")) for row in rows],
                      "valid flag must be 0 or 1")
    _reject_first(path, linenos[1:], np.diff(table[:, 1]) < 0, "displacement decreases")
    if not np.isfinite(table[:, 1:3]).all():
        raise DataFormatError(f"{path}: curve displacements and forces must be finite")
    return table


def read_load_curve_csv(path: Path, side: str) -> LoadCurve:
    """Parse one static-test CSV; errors name the file and line."""
    table = _read_curve_table(path)
    try:  # copies, so that the curve does not keep the whole table alive
        return LoadCurve(side=side, dz_um=table[:, 1].copy(), force_n=table[:, 2].copy(),
                         voff_mv=table[:, 3:-1].copy(), valid=table[:, -1] == 1)
    except ValueError as exc:
        raise DataFormatError(f"{path}: {exc}") from exc


def read_curve_blocks(paths: Iterable[Path], side: str) -> Iterator[CurveBlock]:
    """Read static-test CSVs in order as blocks of up to ``FLEET_BLOCK`` curves.

    Each file is checked as :func:`read_load_curve_csv` checks it, and its
    error is raised when the file is reached.  A block keeps one grid and
    each curve's force and valid rows, not its table; a new block starts
    wherever a curve's displacements differ from the block's, bit for bit.
    """
    grid, count = None, 0  # the block's displacements as bytes, and its curves
    for path in paths:
        table = _read_curve_table(path)
        dz = table[:, 1]
        key = dz.tobytes()
        if key != grid or count == FLEET_BLOCK:
            if count:
                yield CurveBlock(side, block_dz, force[:count], valid[:count])
            block_dz, grid, count = dz.copy(), key, 0
            force = np.empty((FLEET_BLOCK, dz.size))
            valid = np.empty((FLEET_BLOCK, dz.size), dtype=bool)
        force[count] = table[:, 2]
        valid[count] = table[:, -1] == 1
        count += 1
    if count:
        yield CurveBlock(side, block_dz, force[:count], valid[:count])


def write_cycle_log_csv(path: Path, log: CycleLog) -> None:
    _write_table(path, _CYCLE, _float_table([log.cycles]),
                 _float_table([log.force_n, log.voff_mv]).ravel())


def read_cycle_log_csv(path: Path) -> CycleLog:
    """Parse one cycle-log CSV; errors name the file and line."""
    table, _, linenos = _read_table(path, CYCLE_HEADER)
    cycles = table[:, 0]  # NaN, infinite and beyond-int64 indices fail the bound
    _reject_first(path, linenos, ~(np.abs(cycles) < 2.0**63) | (np.round(cycles) != cycles),
                  "cycle index must be an integer")
    if len(cycles) < 1:
        raise DataFormatError(f"{path}: no data rows")
    try:
        return CycleLog(cycles=cycles.astype(int), force_n=table[:, 1], voff_mv=table[:, 2:])
    except ValueError as exc:
        raise DataFormatError(f"{path}: {exc}") from exc


def read_force_column_csv(path: Path) -> np.ndarray:
    """Read a one-column CSV of fracture forces; a header line is allowed.

    Only the first field of a line counts, and lines where it is empty are
    skipped.  A first line whose first field is not a number is the header.
    """
    text = _read_text(path)
    end = text.find("\n") if "\n" in text else len(text)  # the first line's end
    head = text[:end].splitlines()[:1]  # the first line as splitlines ends it
    first = head[0].split(",", 1)[0].strip() if head else ""
    start = 1 if first and _rejects([first]) else 0
    if (
        # some line after the header is not empty: more characters than "\n"s
        len(text) - (end if start else 0) > text.count("\n")
        and not any(sep in text for sep in _OTHER_LINE_BREAKS)
        and path.suffix not in _ARCHIVE_SUFFIXES
    ):
        # fast path: numpy reads the file in chunks, skips empty lines and
        # reads the first field only; it ends lines where splitlines does.
        # It reads the file again on purpose: numpy parses a path about twice
        # as fast as the text already read (1M forces on a 2-core Xeon, numpy
        # 2.4: 0.08 s, against 0.15 s through io.StringIO or a list of lines).
        # The text is dropped first, so that it is not held during the parse
        # (12 MB for 1M forces); the fallback reads it again.
        del text
        try:
            return _loadtxt(path, usecols=0, skiprows=start).ravel()
        except ValueError:  # a line whose first field is empty or not a number
            text = _read_text(path)
    rows = text.splitlines()[start:]
    numbered = [(n, token) for n, token in enumerate(
        (line.split(",", 1)[0].strip() for line in rows), start + 1) if token]
    if not numbered:
        raise DataFormatError(f"{path}: no numeric data")
    linenos, tokens = zip(*numbered)
    return _parse_table(path, list(tokens), linenos, 1).ravel()
