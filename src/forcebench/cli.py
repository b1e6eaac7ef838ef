"""Command line interface tying the virtual bench to the analysis pipeline.

Subcommands: simulate-static, simulate-dynamic, analyze, fit-weibull,
degradation, report.  Exit codes: 0 success, 2 usage/config/data error,
3 I/O error.  Simulation commands require a seed; reruns with identical
inputs produce byte-identical outputs.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from collections.abc import Iterable
from pathlib import Path

import numpy as np

from . import __version__
from .analysis import (
    DEFAULT_DROP_FLOOR_N,
    DEFAULT_DROP_FRACTION,
    DEFAULT_SIGMA_MULTIPLE,
    DegradationReport,
    FleetSummary,
    degradation_report,
    fleet_summary,
    overload_factors,
)
from .bench import (
    DynamicProtocol,
    FleetParams,
    RigConfig,
    StaticProtocol,
    cycle_log,
    fleet_blocks,
)
from .errors import ForceBenchError
from .fileio import (
    json_text,
    provenance,
    read_cycle_log_csv,
    read_force_column_csv,
    read_load_curve_csv,
    read_manifest,
    write_cycle_log_csv,
    write_json,
    write_load_curve_csv,
    write_manifest,
)
from .sensor import SIDES, SensorSpec
from .weibull import WeibullFit, fit_weibull, invert_failure_probability

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


def load_config(args: argparse.Namespace) -> dict:
    """Merge defaults, an optional config file and flags; flags win.

    A flag that sets a config key stores its value under that key's name."""
    config = dict(CONFIG_DEFAULTS)
    if getattr(args, "config", None):
        path = Path(args.config)
        try:
            loaded = json.loads(path.read_text())
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: invalid JSON: {exc}") from exc
        if not isinstance(loaded, dict):
            raise ConfigError(f"{path}: top level must be a JSON object")
        unknown = set(loaded) - set(config)
        if unknown:
            raise ConfigError(f"{path}: unknown config keys: {sorted(unknown)}")
        config.update(loaded)
    config.update((key, value) for key, value in vars(args).items()
                  if key in config and value is not None)
    return config


def _cast(key: str, value):
    """``value`` cast to the type of ``key``, or None unless it is a JSON
    number of that type (ints integral); strings pass unchanged."""
    kind = CONFIG_TYPES[key]
    if kind is str:
        return value
    try:
        cast = kind(value) if type(value) in (int, float) else None
    except (ValueError, OverflowError):  # int of nan or inf, float of a huge int
        return None
    return None if kind is int and cast != value else cast


def _config_value(config: dict, key: str):
    """``config[key]`` cast to the type of ``key``, or a ``ConfigError``."""
    cast = _cast(key, config[key])
    if cast is None:
        raise ConfigError(f"config key {key!r}: expected a JSON number"
                          f" ({CONFIG_TYPES[key].__name__}), got {config[key]!r}")
    return cast


def _hashed(config: dict) -> dict:
    """The config as the commands read it, for its hash: each value that casts
    to its key's type is cast, so ``5.0`` and ``5`` for an integer hash alike."""
    return {key: value if (cast := _cast(key, value)) is None else cast
            for key, value in config.items()}


def _from_config(cls: type, config: dict):
    """An instance of a config dataclass, each value cast to its field's type."""
    return cls(**{f.name: _config_value(config, _CONFIG_KEY.get(f.name, f.name))
                  for f in dataclasses.fields(cls)})


def require_seed(config: dict) -> int:
    if config["seed"] is None:
        raise ConfigError("a seed is required (--seed or config file)")
    return _config_value(config, "seed")


def _out_dir(args: argparse.Namespace) -> Path:
    """The required ``--out`` directory, not yet made: a command makes it
    once its config is cast and checked, so a refused one leaves none."""
    if not getattr(args, "out", None):
        raise ConfigError("an output directory is required (--out)")
    return Path(args.out)


def _fit_payload(fit: WeibullFit | None) -> dict | None:
    if fit is None:
        return None
    r = None if np.isnan(fit.r) else fit.r
    return {"f0_n": fit.f0, "beta": fit.beta, "r": r}


class _Fleet:
    """A fleet's curves, or blocks of them, made as they are iterated;
    ``len`` is the fleet size, known up front (perfbench counts curves by it)."""

    def __init__(self, curves: Iterable, count: int):
        self.curves, self.count = curves, count

    def __iter__(self):
        return iter(self.curves)

    def __len__(self) -> int:
        return self.count

    def drain(self) -> None:
        """Make every curve and drop it: for the errors of making them."""
        for _ in self:
            pass


def _fleet_payload(curves: _Fleet, spec: SensorSpec, config: dict) -> dict:
    """Summarise a fleet, print its table and return its JSON payload."""
    try:
        drop_fraction = _config_value(config, "drop_fraction")
        drop_floor_n = _config_value(config, "drop_floor_n")
    except ConfigError:
        curves.drain()  # an error making a curve (a bad file, the rig limit) comes first
        raise
    summary = fleet_summary(curves, spec, drop_fraction=drop_fraction,
                            drop_floor_n=drop_floor_n)
    payload = {
        "side": summary.side,
        "n_curves": summary.n_curves,
        "fracture_force_mean_n": summary.fracture_force_mean_n,
        "fracture_force_std_n": summary.fracture_force_std_n,
        "fracture_dz_mean_um": summary.fracture_dz_mean_um,
        "fracture_dz_std_um": summary.fracture_dz_std_um,
        "hinge_counts": dict(summary.hinge_counts),
        "weibull": _fit_payload(summary.fit),
        "budget": [
            {
                "probability_ppm": row["probability_ppm"],
                "f_max_N": row["f_max_n"],
                "dz_max_um": row["dz_max_um"],
            }
            for row in summary.budget
        ],
    }
    if summary.fit is not None:
        disp_factor, force_factor = overload_factors(summary, spec)
        payload["overload"] = {
            "displacement_factor": disp_factor,
            "force_factor": force_factor,
        }
    _print_summary_table(summary)
    return payload


def _print_summary_table(summary: FleetSummary) -> None:
    print(f"Fleet of {summary.n_curves} specimens, {summary.side} loading")
    print(
        f"  fracture force [N]  : {summary.fracture_force_mean_n:.2f}"
        f" +- {summary.fracture_force_std_n:.2f}"
    )
    print(
        f"  fracture disp. [um] : {summary.fracture_dz_mean_um:.2f}"
        f" +- {summary.fracture_dz_std_um:.2f}"
    )
    print(f"  failed hinges       : {summary.hinge_counts}")
    if summary.fit is not None:
        print(
            f"  Weibull fit         : F0 = {summary.fit.f0:.2f} N,"
            f" beta = {summary.fit.beta:.2f}, R = {summary.fit.r:.4f}"
        )
        print("  probability [ppm]   F_max [N]   dz_max [um]")
        for row in summary.budget:
            print(
                f"  {row['probability_ppm']:>17.0f}   {row['f_max_n']:>9.2f}"
                f"   {row['dz_max_um']:>11.2f}"
            )


def _print_degradation_table(report: DegradationReport) -> None:
    print(f"Cycle log over {report.total_cycles} cycles: verdict {report.verdict}")
    print("  channel          mean        std   rel.std[%]")
    for name, stats in report.channels.items():
        rel = "undefined" if stats.rel_std_pct is None else f"{stats.rel_std_pct:.4f}"
        print(f"  {name:<12} {stats.mean:>10.5f} {stats.std:>10.5f} {rel:>11}")


def cmd_simulate_static(args: argparse.Namespace) -> int:
    config = load_config(args)
    seed = require_seed(config)
    out = _out_dir(args)
    protocol = _from_config(StaticProtocol, config)
    rig = RigConfig()
    params = _from_config(FleetParams, config)
    out.mkdir(parents=True, exist_ok=True)
    files = []
    for block in fleet_blocks(params, SensorSpec(), protocol, rig):
        for i in range(len(block)):
            files.append(f"specimen_{len(files):03d}.csv")
            write_load_curve_csv(out / files[-1], block.curve(i))
        del block  # before the next one is made
    write_manifest(out, "static-fleet", seed, protocol, rig, _hashed(config), files,
                   fleet=params.count)
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
    out.mkdir(parents=True, exist_ok=True)
    write_cycle_log_csv(out / "cycles.csv", log)
    write_manifest(out, "cycle-log", seed, protocol, rig, _hashed(config),
                   ["cycles.csv"])
    print(f"wrote cycles.csv ({len(log)} records) and manifest.json to {out}")
    return 0


def _collect_curve_paths(inputs: list[str]) -> tuple[list[Path], str | None]:
    """Expand files/directories; a manifest supplies file list and side."""
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
    return paths, side


def cmd_analyze(args: argparse.Namespace) -> int:
    config = load_config(args)
    paths, manifest_side = _collect_curve_paths(args.inputs)
    if args.side and manifest_side and args.side != manifest_side:
        raise ConfigError(f"--side {args.side!r} disagrees with the manifest's load side"
                          f" {manifest_side!r}")
    side = manifest_side or config["side"]  # the flag, if given, is in the config
    curves = _Fleet((read_load_curve_csv(p, side) for p in paths), len(paths))
    if len(curves) < 3:
        curves.drain()  # a file's own error comes first
        raise ConfigError(f"need at least 3 curves to analyze, got {len(curves)}")
    payload = _fleet_payload(curves, SensorSpec(), config)
    if getattr(args, "out", None):
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        write_json(out / "analysis.json", payload)
    else:
        print(json_text(payload))
    return 0


def cmd_fit_weibull(args: argparse.Namespace) -> int:
    if args.params:
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
    if args.invert:
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
    log = read_cycle_log_csv(Path(args.input))
    report = degradation_report(
        log, sigma_multiple=_config_value(config, "sigma_multiple")
    )
    payload = dataclasses.asdict(report)
    print(json_text(payload))
    if getattr(args, "out", None):
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        write_json(out / "degradation.json", payload)
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    """End-to-end chain: fleets on both sides, cycling run, one report."""
    config = load_config(args)
    seed = require_seed(config)
    out = _out_dir(args)
    spec = SensorSpec()
    rig = RigConfig()
    sub_seeds = np.random.SeedSequence(seed).generate_state(3)
    sides_payload = {}
    for side, side_seed in zip(SIDES, sub_seeds[:2]):
        side_config = dict(config, side=side, seed=int(side_seed))
        params = _from_config(FleetParams, side_config)
        protocol = _from_config(StaticProtocol, side_config)
        blocks = fleet_blocks(params, spec, protocol, rig)
        sides_payload[side] = _fleet_payload(_Fleet(blocks, params.count), spec, config)
        print()
    dyn_protocol = _from_config(DynamicProtocol, dict(config, side="front"))
    log = cycle_log(_from_config(FleetParams, config), spec, dyn_protocol, rig,
                    int(sub_seeds[2]))
    degradation = degradation_report(
        log, sigma_multiple=_config_value(config, "sigma_multiple")
    )
    _print_degradation_table(degradation)
    report = {
        **provenance(seed, _hashed(config)),
        "sides": sides_payload,
        "dynamic": dataclasses.asdict(degradation),
    }
    out.mkdir(parents=True, exist_ok=True)
    write_json(out / "report.json", report)
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
