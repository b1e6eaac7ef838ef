"""File formats: load-curve and cycle-log CSVs, JSON reports, manifests.

Numeric CSV fields use a dot decimal separator and at least nine
significant digits so curves round-trip losslessly through the analyzer.
All writes go through a temp-then-rename so output files are atomic.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path

import numpy as np

from .analysis import CycleLog, LoadCurve
from .errors import DataFormatError
from .sensor import SIDES

CURVE_HEADER = "index,dz_um,force_N,voffA_mV,voffB_mV,voffC_mV,voffD_mV,valid"
CYCLE_HEADER = "cycle,force_N,voffA_mV,voffB_mV,voffC_mV,voffD_mV"


def _fmt(x: float) -> str:
    return format(float(x) + 0.0, ".10g")  # +0.0 normalizes negative zero


def atomic_write_text(path: Path, text: str) -> None:
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text)
    os.replace(tmp, path)


def write_json(path: Path, payload: dict) -> None:
    atomic_write_text(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def config_hash(config: dict) -> str:
    canonical = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def write_load_curve_csv(path: Path, curve: LoadCurve) -> None:
    lines = [CURVE_HEADER]
    for i in range(len(curve)):
        fields = [str(i), _fmt(curve.dz_um[i]), _fmt(curve.force_n[i])]
        fields += [_fmt(v) for v in curve.voff_mv[i]]
        fields.append("1" if curve.valid[i] else "0")
        lines.append(",".join(fields))
    atomic_write_text(path, "\n".join(lines) + "\n")


def _parse_row(path: Path, lineno: int, line: str, n_fields: int) -> list[str]:
    fields = line.split(",")
    if len(fields) != n_fields:
        raise DataFormatError(
            f"{path}:{lineno}: expected {n_fields} fields, got {len(fields)}"
        )
    return fields


def _parse_float(path: Path, lineno: int, token: str) -> float:
    try:
        return float(token)
    except ValueError as exc:
        raise DataFormatError(f"{path}:{lineno}: not a number: {token!r}") from exc


def read_load_curve_csv(path: Path, side: str) -> LoadCurve:
    """Parse one static-test CSV; errors name the file and line."""
    if side not in SIDES:
        raise DataFormatError(f"{path}: unknown load side {side!r}")
    text = path.read_text()
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0].strip() != CURVE_HEADER:
        raise DataFormatError(f"{path}:1: bad or missing header")
    dz, force, voff, valid = [], [], [], []
    for lineno, line in enumerate(lines[1:], start=2):
        fields = _parse_row(path, lineno, line, 8)
        dz.append(_parse_float(path, lineno, fields[1]))
        force.append(_parse_float(path, lineno, fields[2]))
        voff.append([_parse_float(path, lineno, t) for t in fields[3:7]])
        if fields[7] not in ("0", "1"):
            raise DataFormatError(f"{path}:{lineno}: valid flag must be 0 or 1")
        valid.append(fields[7] == "1")
        if len(dz) >= 2 and dz[-1] < dz[-2]:
            raise DataFormatError(f"{path}:{lineno}: displacement decreases")
    try:
        return LoadCurve(
            side=side,
            dz_um=np.array(dz),
            force_n=np.array(force),
            voff_mv=np.array(voff).reshape(len(dz), 4),
            valid=np.array(valid),
        )
    except ValueError as exc:
        raise DataFormatError(f"{path}: {exc}") from exc


def write_cycle_log_csv(path: Path, log: CycleLog) -> None:
    lines = [CYCLE_HEADER]
    for i in range(len(log)):
        fields = [str(int(log.cycles[i])), _fmt(log.force_n[i])]
        fields += [_fmt(v) for v in log.voff_mv[i]]
        lines.append(",".join(fields))
    atomic_write_text(path, "\n".join(lines) + "\n")


def read_cycle_log_csv(path: Path, v_ges: float = 1.0) -> CycleLog:
    """Parse one cycle-log CSV; errors name the file and line."""
    text = path.read_text()
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0].strip() != CYCLE_HEADER:
        raise DataFormatError(f"{path}:1: bad or missing header")
    cycles, force, voff = [], [], []
    for lineno, line in enumerate(lines[1:], start=2):
        fields = _parse_row(path, lineno, line, 6)
        cycle = _parse_float(path, lineno, fields[0])
        if not cycle.is_integer():
            raise DataFormatError(f"{path}:{lineno}: cycle index must be an integer")
        cycles.append(int(cycle))
        force.append(_parse_float(path, lineno, fields[1]))
        voff.append([_parse_float(path, lineno, t) for t in fields[2:6]])
    if len(cycles) < 1:
        raise DataFormatError(f"{path}: no data rows")
    interval = cycles[1] - cycles[0] if len(cycles) >= 2 else cycles[0]
    try:
        return CycleLog(
            cycles=np.array(cycles),
            force_n=np.array(force),
            voff_mv=np.array(voff).reshape(len(cycles), 4),
            v_ges=v_ges,
            record_interval=int(interval),
        )
    except ValueError as exc:
        raise DataFormatError(f"{path}: {exc}") from exc


def read_force_column_csv(path: Path) -> np.ndarray:
    """Read a one-column CSV of fracture forces; a header line is allowed."""
    values = []
    for lineno, line in enumerate(path.read_text().splitlines(), start=1):
        token = line.split(",")[0].strip()
        if not token:
            continue
        try:
            values.append(float(token))
        except ValueError:
            if lineno == 1:
                continue  # header
            raise DataFormatError(f"{path}:{lineno}: not a number: {token!r}")
    if not values:
        raise DataFormatError(f"{path}: no numeric data")
    return np.array(values)
