"""Command line interface tying the virtual bench to the analysis pipeline.

Subcommands: simulate-static, simulate-dynamic, analyze, fit-weibull,
degradation, report.  Exit codes: 0 success, 2 usage/config/data error,
3 I/O error.  Simulation commands require a seed; reruns with identical
inputs produce byte-identical outputs.  simulate-static makes and writes
its fleet's blocks, and analyze reads and reduces its curve files, on
every usable CPU, with the bytes of one process (see :func:`_pooled`).
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import os
import sys
from collections.abc import Sequence
from pathlib import Path

import numpy as np

from . import __version__
from .analysis import (
    DEFAULT_DROP_FLOOR_N,
    DEFAULT_DROP_FRACTION,
    DEFAULT_SIGMA_MULTIPLE,
    FLEET_BLOCK,
    BlockReduction,
    DegradationReport,
    FleetSummary,
    degradation_report,
    fleet_summary,
    overload_factors,
    reduce_block,
)
from .bench import (
    DynamicProtocol,
    FleetParams,
    RigConfig,
    StaticProtocol,
    cycle_log,
    fleet_block,
    fleet_blocks,
)
from .errors import ForceBenchError
from .fileio import (
    json_text,
    manifest,
    provenance,
    read_curve_blocks,
    read_cycle_log_csv,
    read_force_column_csv,
    read_json_object,
    read_manifest,
    write_cycle_log_csv,
    write_json,
    write_load_curve_csv,
    write_manifest,
)
from .sensor import NONNEGATIVE_INT, SIDE, SIDES, SensorSpec, _check_value
from .weibull import WeibullFit, fit_weibull, invert_failure_probability

# The curve file of specimen i, as simulate-static names it.
_CURVE_FILE = "specimen_{:03d}.csv"

# Config keys of the FleetParams fields that the config names differently.
_CONFIG_KEY = {"count": "fleet", "master_seed": "seed"}

# Config keys and their types: the protocol and fleet dataclass fields plus
# the analysis parameters, typed by their defaults.
_DEFAULTS = {
    _CONFIG_KEY.get(f.name, f.name): f.default
    for cls in (StaticProtocol, DynamicProtocol, FleetParams)
    for f in dataclasses.fields(cls)
} | {
    "drop_fraction": DEFAULT_DROP_FRACTION,
    "drop_floor_n": DEFAULT_DROP_FLOOR_N,
    "sigma_multiple": DEFAULT_SIGMA_MULTIPLE,
}
CONFIG_TYPES = {key: type(default) for key, default in _DEFAULTS.items()}
# A seed has no default; simulations require one.
CONFIG_DEFAULTS = _DEFAULTS | {"seed": None}


class ConfigError(ForceBenchError):
    pass


def _given_config(args: argparse.Namespace) -> dict:
    """The config keys that an optional config file and flags set; flags win.

    A flag that sets a config key stores its value under that key's name.
    Each value is :func:`_cast` to its key's type, so the commands read and
    hash ``5.0`` and ``5`` for an integer alike; the reader refuses the rest."""
    given = {}
    if getattr(args, "config", None) is not None:
        if not args.config:  # Path("") would be the current directory
            raise ConfigError("--config expects a file name")
        path = Path(args.config)
        given = read_json_object(path)
        unknown = set(given) - set(CONFIG_DEFAULTS)
        if unknown:
            raise ConfigError(f"{path}: unknown config keys: {sorted(unknown)}")
    given.update((key, value) for key, value in vars(args).items()
                 if key in CONFIG_DEFAULTS and value is not None)
    return {key: _cast(key, value) for key, value in given.items()}


def load_config(args: argparse.Namespace) -> dict:
    """The defaults, overridden by :func:`_given_config`."""
    return CONFIG_DEFAULTS | _given_config(args)


def _cast(key: str, value):
    """``value`` cast to the type of ``key`` where it is a JSON number of that
    type (ints integral), else unchanged."""
    kind = CONFIG_TYPES[key]
    if kind is str or type(value) not in (int, float):
        return value
    try:
        cast = kind(value)
    except (ValueError, OverflowError):  # int of nan or inf, float of a huge int
        return value
    return value if kind is int and cast != value else cast


def _from_config(cls: type, config: dict):
    """An instance of a config dataclass; a value its field's rule refuses
    is named by its config key."""
    values = {}
    for f in dataclasses.fields(cls):
        key = _CONFIG_KEY.get(f.name, f.name)
        _check_value(key, config[key], f.metadata)
        values[f.name] = config[key]
    return cls(**values)


def require_seed(config: dict) -> int:
    if config["seed"] is None:
        raise ConfigError("a seed is required (--seed or config file)")
    _check_value("seed", config["seed"], NONNEGATIVE_INT)
    return config["seed"]


def _out_dir(args: argparse.Namespace) -> Path:
    """The required ``--out`` directory; it is made by the command's first
    file write, so a refused command leaves none, whatever refuses it."""
    if not getattr(args, "out", None):
        raise ConfigError("an output directory is required (--out)")
    return Path(args.out)


def _fit_payload(fit: WeibullFit | None) -> dict | None:
    if fit is None:
        return None
    r = None if np.isnan(fit.r) else fit.r
    return {"f0_n": fit.f0, "beta": fit.beta, "r": r}


def _fleet_payload(reductions: list[BlockReduction], spec: SensorSpec) -> tuple[dict, str]:
    """Summarise a fleet's block reductions: its JSON payload and its table,
    to print once every file is written."""
    summary = fleet_summary(reductions, spec)
    payload = dataclasses.asdict(summary) | {"weibull": _fit_payload(summary.fit)}
    del payload["fit"]
    if summary.fit is not None:
        disp_factor, force_factor = overload_factors(summary, spec)
        payload["overload"] = {
            "displacement_factor": disp_factor,
            "force_factor": force_factor,
        }
    return payload, _summary_table(summary)


def _summary_table(summary: FleetSummary) -> str:
    lines = [
        f"Fleet of {summary.n_curves} specimens, {summary.side} loading",
        f"  fracture force [N]  : {summary.fracture_force_mean_n:.2f}"
        f" +- {summary.fracture_force_std_n:.2f}",
        f"  fracture disp. [um] : {summary.fracture_dz_mean_um:.2f}"
        f" +- {summary.fracture_dz_std_um:.2f}",
        f"  failed hinges       : {summary.hinge_counts}",
    ]
    if summary.fit is not None:
        lines.append(
            f"  Weibull fit         : F0 = {summary.fit.f0:.2f} N,"
            f" beta = {summary.fit.beta:.2f}, R = {summary.fit.r:.4f}"
        )
        lines.append("  probability [ppm]   F_max [N]   dz_max [um]")
        lines.extend(
            f"  {row['probability_ppm']:>17.0f}   {row['f_max_N']:>9.2f}"
            f"   {row['dz_max_um']:>11.2f}"
            for row in summary.budget
        )
    return "\n".join(lines)


def _degradation_table(report: DegradationReport) -> str:
    lines = [f"Cycle log over {report.total_cycles} cycles: verdict {report.verdict}",
             "  channel          mean        std   rel.std[%]"]
    for name, stats in report.channels.items():
        rel = "undefined" if stats.rel_std_pct is None else f"{stats.rel_std_pct:.4f}"
        lines.append(f"  {name:<12} {stats.mean:>10.5f} {stats.std:>10.5f} {rel:>11}")
    return "\n".join(lines)


def _workers(tasks: int) -> int:
    """Processes that run ``tasks`` tasks: one per usable CPU, at most one
    per task, and 1 (the command's own) where fork is missing."""
    if not hasattr(os, "fork"):
        return 1
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return min(cpus or 1, tasks)


def _pooled(task, args: Sequence) -> list:
    """The list of ``task(arg)`` for each of ``args``, in order.

    The tasks run in forked processes, one per usable CPU (in this process
    where one suffices), and ``Executor.map`` returns their results in
    order.  At the first failure in order, every task still waiting in the
    pool is cancelled.  The tasks already handed to the processes still
    run: one per worker, and up to workers + 1 queued for them.  The
    failure is raised once every process has stopped.
    """
    workers = _workers(len(args))
    if workers < 2:
        return list(map(task, args))
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(workers, multiprocessing.get_context("fork")) as pool:
        return list(pool.map(task, args))


def _write_fleet_block(out: Path, params: FleetParams, protocol: StaticProtocol,
                       rig: RigConfig, first: int) -> None:
    """Make the fleet block from specimen ``first`` and write its curve files,
    each named by its specimen's index."""
    block = fleet_block(params, SensorSpec(), protocol, rig, first)
    for i in range(len(block)):
        write_load_curve_csv(out / _CURVE_FILE.format(first + i), block.curve(i))


def cmd_simulate_static(args: argparse.Namespace) -> int:
    """Write a fleet's curve files, then ``manifest.json``.

    The blocks are made by index and written by :func:`_pooled`, with no
    setting; the files are the bytes of a run in one process.  A block
    stops at its first failed write, the first failure in fleet order is
    raised, and no manifest is written: curve files of other blocks may
    remain.
    """
    config = load_config(args)
    seed = require_seed(config)
    out = _out_dir(args)
    protocol = _from_config(StaticProtocol, config)
    rig = RigConfig()
    params = _from_config(FleetParams, config)
    files = [_CURVE_FILE.format(i) for i in range(params.count)]
    # hashed before the pool forks: hashing after it raised this process's peak memory
    record = manifest("static-fleet", seed, protocol, rig, config, files, fleet=params.count)
    write_block = functools.partial(_write_fleet_block, out, params, protocol, rig)
    _pooled(write_block, range(0, params.count, FLEET_BLOCK))
    write_manifest(out, record)
    print(f"wrote {len(files)} curves and manifest.json to {out}")
    return 0


def cmd_simulate_dynamic(args: argparse.Namespace) -> int:
    config = load_config(args)
    seed = require_seed(config)
    out = _out_dir(args)
    protocol = _from_config(DynamicProtocol, config)
    rig = RigConfig()
    params = _from_config(FleetParams, config)
    log = cycle_log(params, SensorSpec(), protocol, rig, seed)
    write_cycle_log_csv(out / "cycles.csv", log)
    write_manifest(out, manifest("cycle-log", seed, protocol, rig, config, ["cycles.csv"]))
    print(f"wrote cycles.csv ({len(log)} records) and manifest.json to {out}")
    return 0


def _collect_curve_paths(inputs: list[str]) -> tuple[list[Path], str | None]:
    """Expand files/directories; a manifest supplies file list and side.
    A curve file that the inputs name twice, by any link to it, is refused
    before any is read; a path that cannot be stat'ed is compared spelled out."""
    paths: list[Path] = []
    side = None
    for item in inputs:
        p = Path(item)
        if p.is_dir():
            if (p / "manifest.json").exists():
                files, manifest_side = read_manifest(p)
                if side and manifest_side and manifest_side != side:
                    raise ConfigError(f"manifests name different load sides: {side!r}"
                                      f" and {manifest_side!r} (in {p / 'manifest.json'})")
                side = manifest_side or side
                paths.extend(p / name for name in files)
            else:
                paths.extend(sorted(p.glob("*.csv")))
        else:
            paths.append(p)
    seen: set = set()
    for path in paths:
        try:
            stat = os.stat(path)
            key = stat.st_dev, stat.st_ino
        except (OSError, ValueError):  # missing, or a name with a NUL: reported when read
            key = os.path.abspath(path)
        if key in seen:
            raise ConfigError(f"{path}: curve file named twice by the inputs")
        seen.add(key)
    return paths, side


def _reducer(config: dict):
    """:func:`reduce_block` at the config's drop thresholds."""
    return functools.partial(reduce_block, drop_fraction=config["drop_fraction"],
                             drop_floor_n=config["drop_floor_n"])


def _reduce_curve_files(reduce, side: str, paths: list[Path]) -> list[BlockReduction]:
    """``reduce`` of each block that ``read_curve_blocks`` reads from ``paths``."""
    return list(map(reduce, read_curve_blocks(paths, side)))


def cmd_analyze(args: argparse.Namespace) -> int:
    """Summarise curve files, read and reduced in groups of ``FLEET_BLOCK``
    by :func:`_pooled`; the first failure in order is raised, so every
    output and error is that of one process."""
    given = _given_config(args)
    config = CONFIG_DEFAULTS | given
    out = None if args.out is None else _out_dir(args)
    paths, manifest_side = _collect_curve_paths(args.inputs)
    if manifest_side and "side" in given and given["side"] != manifest_side:
        source = "--side" if args.side else f"{args.config}: side"
        raise ConfigError(f"{source} {given['side']!r} disagrees with the manifest's load side"
                          f" {manifest_side!r}")
    side = manifest_side or config["side"]  # a flag's or the file's, if given
    _check_value("side", side, SIDE)
    reduce_group = functools.partial(_reduce_curve_files, _reducer(config), side)
    groups = [paths[i:i + FLEET_BLOCK] for i in range(0, len(paths), FLEET_BLOCK)]
    reductions = [r for group in _pooled(reduce_group, groups) for r in group]
    payload, table = _fleet_payload(reductions, SensorSpec())
    if out is not None:  # first, so that a failed write prints nothing
        write_json(out / "analysis.json", payload)
        print(table)
    else:
        print(table, json_text(payload), sep="\n")
    return 0


def cmd_fit_weibull(args: argparse.Namespace) -> int:
    if args.params is not None and args.input:
        raise ConfigError("provide an input CSV or --params f0,beta, not both")
    if args.params is not None:
        try:
            f0, beta = (float(tok) for tok in args.params.split(","))
        except ValueError as exc:
            raise ConfigError("--params expects 'f0,beta'") from exc
        fit = WeibullFit(f0=f0, beta=beta)
    elif args.input:
        fit = fit_weibull(read_force_column_csv(Path(args.input)))
    else:
        raise ConfigError("provide an input CSV or --params f0,beta")
    payload = {"fit": _fit_payload(fit)}
    if args.invert is not None:
        try:
            probabilities = [float(tok) for tok in args.invert.split(",")]
        except ValueError as exc:
            raise ConfigError("--invert expects comma-separated probabilities") from exc
        payload["inversions"] = [
            {"probability": p, "f_max_N": invert_failure_probability(fit, p)}
            for p in probabilities
        ]
    print(json_text(payload))
    return 0


def cmd_degradation(args: argparse.Namespace) -> int:
    config = load_config(args)
    out = None if args.out is None else _out_dir(args)
    log = read_cycle_log_csv(Path(args.input))
    report = degradation_report(log, sigma_multiple=config["sigma_multiple"])
    payload = dataclasses.asdict(report)
    if out is not None:  # first, so that a failed write prints nothing
        write_json(out / "degradation.json", payload)
    print(json_text(payload))
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    """End-to-end chain: fleets on both sides, cycling run, one report."""
    config = load_config(args)
    seed = require_seed(config)
    out = _out_dir(args)
    spec = SensorSpec()
    rig = RigConfig()
    sub_seeds = np.random.SeedSequence(seed).generate_state(3)
    reduce = _reducer(config)
    sides_payload, tables = {}, []
    for side, side_seed in zip(SIDES, sub_seeds[:2]):
        side_config = dict(config, side=side, seed=int(side_seed))
        params = _from_config(FleetParams, side_config)
        protocol = _from_config(StaticProtocol, side_config)
        # each block is made, reduced and dropped in turn; only its reduction is kept
        reductions = list(map(reduce, fleet_blocks(params, spec, protocol, rig)))
        sides_payload[side], table = _fleet_payload(reductions, spec)
        tables.append(table)
    dyn_protocol = _from_config(DynamicProtocol, dict(config, side="front"))
    log = cycle_log(_from_config(FleetParams, config), spec, dyn_protocol, rig,
                    int(sub_seeds[2]))
    degradation = degradation_report(log, sigma_multiple=config["sigma_multiple"])
    tables.append(_degradation_table(degradation))
    report = {
        **provenance(seed, config),
        "sides": sides_payload,
        "dynamic": dataclasses.asdict(degradation),
    }
    write_json(out / "report.json", report)  # first, so that a failed write prints nothing
    print("\n\n".join(tables))
    print(f"\nwrote report.json to {out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="forcebench",
        description="Virtual electromechanical test bench for a three-axial "
        "silicon force sensor, with fracture statistics and degradation analysis.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser, seed: bool = False, side: bool = True) -> None:
        p.add_argument("--config", help="JSON config file; flags override it")
        if side:
            p.add_argument("--side", choices=SIDES, default=None)
        p.add_argument("--out", help="output directory")
        if seed:
            p.add_argument("--seed", type=int, default=None)

    p = sub.add_parser("simulate-static", help="destructive ramp on a seeded fleet")
    add_common(p, seed=True)
    p.add_argument("--fleet", type=int, default=None, help="number of specimens")

    p = sub.add_parser("simulate-dynamic", help="long-term cycling run")
    add_common(p, seed=True)
    p.add_argument("--cycles", dest="n_cycles", metavar="CYCLES", type=int, default=None,
                   help="total load cycles")
    p.add_argument("--drift", dest="drift_mv", metavar="DRIFT", type=float, default=None,
                   help="injected drift [mV] over the run")

    p = sub.add_parser("analyze", help="fleet statistics from load-curve CSVs")
    add_common(p)
    p.add_argument("inputs", nargs="+", help="curve CSVs, or a directory with a manifest")

    p = sub.add_parser("fit-weibull", help="fit fracture forces, optionally invert")
    p.add_argument("input", nargs="?", help="one-column CSV of fracture forces")
    p.add_argument("--params", help="skip fitting, use 'f0,beta'")
    p.add_argument("--invert", help="comma-separated probabilities to invert")

    p = sub.add_parser("degradation", help="degradation verdict from a cycle-log CSV")
    add_common(p, side=False)
    p.add_argument("input", help="cycle-log CSV")

    p = sub.add_parser("report", help="full simulate-and-analyze chain, both sides")
    add_common(p, seed=True, side=False)
    p.add_argument("--fleet", type=int, default=None)
    p.add_argument("--cycles", dest="n_cycles", metavar="CYCLES", type=int, default=None)
    p.add_argument("--drift", dest="drift_mv", metavar="DRIFT", type=float, default=None)

    return parser


COMMANDS = {
    "simulate-static": cmd_simulate_static,
    "simulate-dynamic": cmd_simulate_dynamic,
    "analyze": cmd_analyze,
    "fit-weibull": cmd_fit_weibull,
    "degradation": cmd_degradation,
    "report": cmd_report,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return COMMANDS[args.command](args)
    except (ForceBenchError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
