"""Traced CLI child and the per-layer metrics computed from its spans.

Run as a script, this file is the traced child process:

    python3 perfbench/tracing.py SPANS_FILE CLI_ARG...

It wraps the public functions of the six forcebench modules, runs
``forcebench.cli.main`` with the CLI arguments, and writes the recorded
spans to SPANS_FILE (``marshal`` format) after the command returns.
Nothing under ``src/`` is modified: the wrappers replace the module
attributes the CLI and the library call through, in this process only.

Span timestamps use ``time.perf_counter``, which on Linux reads the
system-wide monotonic clock, so the parent can subtract its own spawn and
exit timestamps from them.
"""

from __future__ import annotations

import functools
import marshal
import os
import statistics
import sys
import time

# Public functions wrapped per layer.  Private helpers and SensorState
# methods stay unwrapped: their time is charged to the calling span.
TRACED = {
    "bench": ("run_fleet", "run_static", "sample_specimen", "run_dynamic",
              "specimen_rngs"),
    "sensor": ("check_hinge_failures", "displacement_at_force",
               "force_at_displacement", "bridge_offsets_at_load"),
    "fileio": ("write_load_curve_csv", "read_load_curve_csv",
               "read_force_column_csv", "write_cycle_log_csv",
               "read_cycle_log_csv", "write_json", "config_hash"),
    "analysis": ("fleet_summary", "detect_failures", "classify_failures",
                 "fracture_point", "degradation_report", "overload_factors"),
    "weibull": ("fit_weibull", "invert_failure_probability"),
}
LAYERS = ("cli", *TRACED)

# Span fields: name, start, end, parent index (-1 = top level), extra.
NAME, START, END, PARENT, EXTRA = range(5)


def _extra(name: str, args: tuple, result) -> object:
    """Per-call count recorded with the span; byte counts use the path."""
    if name.startswith(("fileio.write_", "fileio.read_")):
        return os.fspath(args[0])
    if name == "analysis.detect_failures":
        return len(result)
    if name == "analysis.classify_failures":
        return sum(1 for event in result if event.arm == "unknown")
    if name == "analysis.fleet_summary":
        return len(args[0])
    if name == "weibull.fit_weibull":
        return len(args[0])
    return None


def install(spans: list) -> None:
    """Replace every forcebench module attribute bound to a traced function."""
    import importlib

    modules = [importlib.import_module("forcebench")] + [
        importlib.import_module(f"forcebench.{m}")
        for m in ("cli", "bench", "sensor", "fileio", "analysis", "weibull")
    ]
    stack: list[int] = []
    clock = time.perf_counter

    def wrap(name: str, func):
        @functools.wraps(func)
        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, clock(), 0.0, stack[-1] if stack else -1, None]
            spans.append(span)
            stack.append(index)
            try:
                result = func(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
            span[EXTRA] = _extra(name, args, result)
            return result

        return traced

    for layer, names in TRACED.items():
        owner = importlib.import_module(f"forcebench.{layer}")
        for func_name in names:
            original = getattr(owner, func_name)
            wrapper = wrap(f"{layer}.{func_name}", original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)


def child_main(argv: list[str]) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    spans: list = []
    install(spans)
    from forcebench.cli import main

    try:
        code = main(cli_args)
    finally:
        dump_start = time.perf_counter()
        sys.stdout.flush()
        with open(spans_path, "wb") as fh:
            marshal.dump({"spans": [tuple(s) for s in spans],
                          "dump_start": dump_start}, fh)
    return code


# ------------------------------------------------------------ parent side


def load_spans(path: str) -> dict:
    with open(path, "rb") as fh:
        return marshal.load(fh)


def self_times(spans: list) -> list[float]:
    """Span duration minus the durations of its direct children."""
    own = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            own[s[PARENT]] -= s[END] - s[START]
    return own


def _percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile; 0.0 when there are no samples."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def _file_size(path: str) -> int:
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


def layer_metrics(trace: dict, spawn: float, exit_: float) -> tuple[dict[str, float], str]:
    """Per-layer metrics of one traced CLI process, and a check's error or ''.

    ``spawn`` and ``exit_`` are the parent's clock readings around the
    child.  ``cli.self_s`` is the process wall time up to the span dump
    minus the top-level spans: interpreter start, imports, argument
    parsing, payload building and printing.
    """
    spans = trace["spans"]
    own = self_times(spans)
    by_name: dict[str, list[int]] = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s[NAME], []).append(i)

    def total(name: str) -> float:
        return sum(spans[i][END] - spans[i][START] for i in by_name.get(name, []))

    def calls(name: str) -> int:
        return len(by_name.get(name, []))

    def extras(name: str) -> list:
        return [spans[i][EXTRA] for i in by_name.get(name, [])]

    def micros(name: str) -> list[float]:
        return [(spans[i][END] - spans[i][START]) * 1e6 for i in by_name.get(name, [])]

    layer_self = dict.fromkeys(TRACED, 0.0)
    for i, s in enumerate(spans):
        layer_self[s[NAME].split(".")[0]] += own[i]
    top_level = sum(s[END] - s[START] for s in spans if s[PARENT] < 0)
    traced_wall = trace["dump_start"] - spawn

    write_curve_s = total("fileio.write_load_curve_csv")
    read_curve_s = total("fileio.read_load_curve_csv")
    bytes_curve_written = sum(_file_size(p) for p in extras("fileio.write_load_curve_csv"))
    bytes_curve_read = sum(_file_size(p) for p in extras("fileio.read_load_curve_csv"))
    bytes_written = bytes_curve_written + sum(
        _file_size(p)
        for name in ("fileio.write_cycle_log_csv", "fileio.write_json")
        for p in extras(name)
    )
    bytes_read = bytes_curve_read + sum(
        _file_size(p)
        for name in ("fileio.read_force_column_csv", "fileio.read_cycle_log_csv")
        for p in extras(name)
    )
    # curves fleet_summary was given, and how many showed a failure
    events_per_curve = extras("analysis.detect_failures")
    curves_in = sum(extras("analysis.fleet_summary"))
    curves_used = sum(1 for n in events_per_curve if n)
    fleet_summary_self = sum(own[i] for i in by_name.get("analysis.fleet_summary", []))

    m = {
        "cli.self_s": traced_wall - top_level,
        "cli.dump_s": exit_ - trace["dump_start"],
        "cli.traced_wall_s": exit_ - spawn,
        "bench.self_s": layer_self["bench"],
        "bench.run_fleet_s": total("bench.run_fleet"),
        "bench.run_static_us_p50": _percentile(micros("bench.run_static"), 50),
        "bench.run_static_us_p99": _percentile(micros("bench.run_static"), 99),
        "bench.sample_specimen_s": total("bench.sample_specimen"),
        "bench.specimens": calls("bench.run_static"),
        "bench.run_dynamic_s": total("bench.run_dynamic"),
        "sensor.self_s": layer_self["sensor"],
        "sensor.check_hinge_failures_calls": calls("sensor.check_hinge_failures"),
        "sensor.check_hinge_failures_s": total("sensor.check_hinge_failures"),
        "sensor.displacement_at_force_calls": calls("sensor.displacement_at_force"),
        "fileio.self_s": layer_self["fileio"],
        "fileio.write_curve_s": write_curve_s,
        "fileio.write_curve_calls": calls("fileio.write_load_curve_csv"),
        "fileio.bytes_written": bytes_written,
        "fileio.write_mb_per_s": bytes_curve_written / 1e6 / write_curve_s if write_curve_s else 0.0,
        "fileio.read_curve_s": read_curve_s,
        "fileio.read_curve_calls": calls("fileio.read_load_curve_csv"),
        "fileio.bytes_read": bytes_read,
        "fileio.read_mb_per_s": bytes_curve_read / 1e6 / read_curve_s if read_curve_s else 0.0,
        "fileio.read_forces_s": total("fileio.read_force_column_csv"),
        "fileio.write_json_s": total("fileio.write_json"),
        "analysis.self_s": layer_self["analysis"],
        "analysis.fleet_summary_self_s": fleet_summary_self,
        "analysis.detect_failures_s": total("analysis.detect_failures"),
        "analysis.detect_failures_us_p99": _percentile(micros("analysis.detect_failures"), 99),
        "analysis.classify_failures_s": total("analysis.classify_failures"),
        "analysis.events": sum(events_per_curve),
        "analysis.unknown_arm_events": sum(extras("analysis.classify_failures")),
        "analysis.curves_used_ratio": curves_used / curves_in if curves_in else 0.0,
        "analysis.degradation_report_s": total("analysis.degradation_report"),
        "weibull.self_s": layer_self["weibull"],
        "weibull.fit_weibull_s": total("weibull.fit_weibull"),
        "weibull.fit_points": sum(extras("weibull.fit_weibull")),
        "weibull.invert_calls": calls("weibull.invert_failure_probability"),
    }
    return m, check(spans, spawn, trace["dump_start"], m)


def check(spans: list, spawn: float, dump_start: float, m: dict) -> str:
    """'' when the spans nest inside their parents and the process, and
    siblings do not overlap; then layer self times plus ``cli.self_s``
    account for the traced wall time exactly, which is checked last."""
    last_end: dict[int, float] = {}
    for s in spans:  # recorded in start order
        parent = s[PARENT]
        lo, hi = (spawn, dump_start) if parent < 0 else (spans[parent][START], spans[parent][END])
        if not lo <= s[START] <= s[END] <= hi:
            return f"span {s[NAME]} lies outside its parent or the process"
        if s[START] < last_end.get(parent, lo):
            return f"span {s[NAME]} overlaps a sibling"
        last_end[parent] = s[END]
    accounted = sum(m[f"{layer}.self_s"] for layer in LAYERS) + m["cli.dump_s"]
    if abs(accounted - m["cli.traced_wall_s"]) > 1e-6 * (len(spans) + 1):
        return "layer self times and cli.self_s do not add up to the traced wall"
    return ""


def median_metrics(runs: list[dict]) -> dict[str, float]:
    """Per-metric median over traced runs; counts stay whole numbers."""
    out = {}
    for key in runs[0]:
        values = [r[key] for r in runs]
        exact = all(isinstance(v, int) for v in values)
        out[key] = (statistics.median_low if exact else statistics.median)(values)
    return out


if __name__ == "__main__":
    raise SystemExit(child_main(sys.argv[1:]))
