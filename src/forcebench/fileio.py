"""File formats: load-curve and cycle-log CSVs, JSON reports, manifests.

Numeric CSV fields use a dot decimal separator and at least nine
significant digits so curves round-trip losslessly through the analyzer.
They are read by numpy's C parser: ASCII decimal numbers, ``nan`` and
``inf``, and no digit separators.
All writes go through a temp-then-rename so output files are atomic.
Error messages name the file and its physical line, blank lines counted.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
from pathlib import Path

import numpy as np

from . import __version__
from .analysis import CycleLog, LoadCurve
from .errors import DataFormatError
from .sensor import ARMS, SIDES

# Each CSV schema: its header and the matching row format.
_VOFF_COLUMNS = [f"voff{arm}_mV" for arm in ARMS]
CURVE_HEADER = ",".join(["index", "dz_um", "force_N", *_VOFF_COLUMNS, "valid"])
_CURVE_ROW = "%d" + ",%.10g" * (2 + len(ARMS)) + ",%d"
CYCLE_HEADER = ",".join(["cycle", "force_N", *_VOFF_COLUMNS])
_CYCLE_ROW = "%d" + ",%.10g" * (1 + len(ARMS))


def atomic_write_text(path: Path, text: str) -> None:
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text)
    os.replace(tmp, path)


def write_json(path: Path, payload: dict) -> None:
    atomic_write_text(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def config_hash(config: dict) -> str:
    canonical = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def write_manifest(
    directory: Path, kind: str, seed: int, protocol, rig, config: dict,
    files: list[str], **extra,
) -> None:
    """Write ``manifest.json``: what a simulation wrote and how it was made."""
    write_json(directory / "manifest.json", {
        "kind": kind,
        "version": __version__,
        "seed": seed,
        "side": protocol.side,
        "protocol": dataclasses.asdict(protocol),
        "rig": dataclasses.asdict(rig),
        "config_sha256": config_hash(config),
        "files": files,
        **extra,
    })


def read_manifest(directory: Path) -> tuple[list[str], str | None]:
    """The file names and the load side (None if absent) of ``manifest.json``."""
    path = directory / "manifest.json"
    try:
        meta = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise DataFormatError(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(meta, dict):
        raise DataFormatError(f"{path}: top level must be a JSON object")
    files, side = meta.get("files", []), meta.get("side")
    if not (isinstance(files, list) and all(isinstance(name, str) for name in files)):
        raise DataFormatError(f"{path}: 'files' must be a list of strings")
    if "side" in meta and not isinstance(side, str):
        raise DataFormatError(f"{path}: 'side' must be a string")
    return files, side


def _write_table(path: Path, header: str, row_format: str, columns: list) -> None:
    """Write the columns (1-D or 2-D arrays of equal length), one row per line."""
    table = np.column_stack(columns).astype(float) + 0.0  # +0.0 normalizes -0.0
    lines = [header] + [row_format % tuple(row) for row in table.tolist()]
    atomic_write_text(path, "\n".join(lines) + "\n")


def _loadtxt(rows: list[str], usecols=None) -> np.ndarray:
    """numpy's C parser over non-empty rows: every field an ASCII decimal number."""
    return np.loadtxt(rows, delimiter=",", comments=None, ndmin=2, usecols=usecols)


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
    lines = path.read_text().splitlines()
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
    _write_table(path, CURVE_HEADER, _CURVE_ROW, [
        np.arange(len(curve)), curve.dz_um, curve.force_n, curve.voff_mv, curve.valid,
    ])


def read_load_curve_csv(path: Path, side: str) -> LoadCurve:
    """Parse one static-test CSV; errors name the file and line."""
    if side not in SIDES:
        raise DataFormatError(f"{path}: unknown load side {side!r}")
    table, rows, linenos = _read_table(path, CURVE_HEADER)
    text = "\n".join(rows) + "\n"  # a flag is exactly 0 or 1 iff its row ends in ",0" or ",1"
    if text.count(",0\n") + text.count(",1\n") != len(rows):
        _reject_first(path, linenos, [not row.endswith((",0", ",1")) for row in rows],
                      "valid flag must be 0 or 1")
    _reject_first(path, linenos[1:], np.diff(table[:, 1]) < 0, "displacement decreases")
    try:  # copies, so that the curve does not keep the whole table alive
        return LoadCurve(side=side, dz_um=table[:, 1].copy(), force_n=table[:, 2].copy(),
                         voff_mv=table[:, 3:-1].copy(), valid=table[:, -1] == 1)
    except ValueError as exc:
        raise DataFormatError(f"{path}: {exc}") from exc


def write_cycle_log_csv(path: Path, log: CycleLog) -> None:
    _write_table(path, CYCLE_HEADER, _CYCLE_ROW, [log.cycles, log.force_n, log.voff_mv])


def read_cycle_log_csv(path: Path, v_ges: float = 1.0) -> CycleLog:
    """Parse one cycle-log CSV; errors name the file and line."""
    table, _, linenos = _read_table(path, CYCLE_HEADER)
    cycles = table[:, 0]  # NaN, infinite and beyond-int64 indices fail the bound
    _reject_first(path, linenos, ~(np.abs(cycles) < 2.0**63) | (np.round(cycles) != cycles),
                  "cycle index must be an integer")
    if len(cycles) < 1:
        raise DataFormatError(f"{path}: no data rows")
    cycles = cycles.astype(int)
    interval = cycles[1] - cycles[0] if len(cycles) >= 2 else cycles[0]
    try:
        return CycleLog(cycles=cycles, force_n=table[:, 1], voff_mv=table[:, 2:],
                        v_ges=v_ges, record_interval=int(interval))
    except ValueError as exc:
        raise DataFormatError(f"{path}: {exc}") from exc


def read_force_column_csv(path: Path) -> np.ndarray:
    """Read a one-column CSV of fracture forces; a header line is allowed.

    Only the first field of a line counts, and lines where it is empty are
    skipped.  A first line whose first field is not a number is the header.
    """
    lines = path.read_text().splitlines()
    first = lines[0].split(",", 1)[0].strip() if lines else ""
    start = 1 if first and _rejects([first]) else 0
    rows = lines[start:]
    if any(rows):  # fast path: loadtxt skips empty lines and reads the first field only
        try:
            return _loadtxt(rows, usecols=0).ravel()
        except ValueError:
            pass  # a line whose first field is empty or not a number
    numbered = [(n, token) for n, token in enumerate(
        (line.split(",", 1)[0].strip() for line in rows), start + 1) if token]
    if not numbered:
        raise DataFormatError(f"{path}: no numeric data")
    linenos, tokens = zip(*numbered)
    return _parse_table(path, list(tokens), linenos, 1).ravel()
