"""The four forcebench workloads: inputs, CLI command and output checks.

Each workload makes its inputs from the workload seed in ``setup`` (not
timed), names the CLI arguments of one timed run, and judges the outputs
of that run.  ``analyze`` also runs the ground-truth oracle in ``setup``.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np

from forcebench import FleetParams, RigConfig, SensorSpec, StaticProtocol
from forcebench import classify_failures, detect_failures, run_static, sample_specimen
from forcebench.bench import specimen_rngs
from forcebench.fileio import read_load_curve_csv, write_load_curve_csv

DEFAULT_SEED = 14
# Input sizes; "smoke" is for the benchmark's own tests.
SIZES = {
    "full": {"fleet": 1000, "forces": 1_000_000},
    "smoke": {"fleet": 12, "forces": 2000},
}
INVERT = "1e-6,1e-5,1e-4"

# SHA-256 of the outputs at DEFAULT_SEED and size "full" (see output_digest).
# A change that alters any output byte fails every run of the workload.
PINNED = {
    "simulate": "7065631eea7e2064ccb6924c41008f036ce2c5fe43347e3691f103eda614279b",
    "analyze": "0e18d33f30b3f51075c29eec9933d88381021d05db02ede05b271b1d8bf9cd0f",
    "report": "2898046d880f7c682123498c1f032a3942defea29ab6d047411561ff1965bbb2",
    "fit": "088a996bda2c3ed6e61e26bd4c37277a883d4ff3941aca4f2f84b0ab9d74491c",
}


def output_digest(out_dir: Path, stdout: bytes | None) -> str:
    """SHA-256 over every output file (name and bytes), plus stdout if given."""
    h = hashlib.sha256()
    for path in sorted(p for p in out_dir.rglob("*") if p.is_file()):
        h.update(path.relative_to(out_dir).as_posix().encode() + b"\0")
        h.update(hashlib.sha256(path.read_bytes()).digest())
    if stdout is not None:
        h.update(b"stdout\0" + hashlib.sha256(stdout).digest())
    return h.hexdigest()


def check_manifest(fleet: Path, count: int, side: str, seed: int) -> str:
    """The manifest matches the command and lists exactly the curves on disk."""
    try:
        manifest = _load_json(fleet / "manifest.json")
    except (OSError, ValueError) as exc:
        return f"manifest: {exc}"
    files = manifest.get("files", [])
    if (manifest.get("kind"), manifest.get("side"), manifest.get("seed")) != (
        "static-fleet", side, seed
    ):
        return "manifest kind, side or seed differs from the command"
    if manifest.get("fleet") != count or len(files) != count:
        return f"manifest lists {len(files)} curves, expected {count}"
    if {p.name for p in fleet.glob("*.csv")} != set(files):
        return "curve files on disk differ from the manifest"
    return ""


def check_fleet_dir(fleet: Path, count: int, side: str, seed: int) -> str:
    """Parse every curve with the library reader; row counts follow the protocol."""
    error = check_manifest(fleet, count, side, seed)
    if error:
        return error
    manifest = _load_json(fleet / "manifest.json")
    protocol = StaticProtocol(**manifest["protocol"])
    n_rows = int(math.floor(protocol.dz_max_um / protocol.step_um + 1e-9)) + 1
    for name in manifest["files"]:
        try:
            curve = read_load_curve_csv(fleet / name, side)
        except (OSError, ValueError) as exc:
            return f"{name}: {exc}"
        if len(curve) != n_rows:
            return f"{name}: {len(curve)} rows, expected {n_rows}"
    return ""


def _load_json(path: Path) -> dict:
    return json.loads(path.read_text())


def _check_summary(payload: dict, side: str, count: int) -> str:
    fit = payload.get("weibull") or {}
    if payload.get("side") != side:
        return f"summary side {payload.get('side')!r}, expected {side!r}"
    if not 3 <= payload.get("n_curves", 0) <= count:
        return f"summary n_curves {payload.get('n_curves')} outside 3..{count}"
    if not (fit.get("f0_n", 0) > 0 and fit.get("beta", 0) > 0):
        return "summary has no positive Weibull fit"
    if len(payload.get("budget", [])) != 3:
        return "summary budget does not have three rows"
    return ""


def fit_rel_err(fit: dict, side: str) -> float:
    """max(|f0/f0_gen - 1|, |beta/beta_gen - 1|) against the generator's law."""
    f0, beta = FleetParams().side_params(side)
    return max(abs(fit["f0_n"] / f0 - 1.0), abs(fit["beta"] / beta - 1.0))


class Workload:
    name = ""
    stdout_is_output = False

    def __init__(self, seed: int, size: str, work: Path, run_cli):
        self.seed = seed
        self.size = size
        self.n = SIZES[size]["fleet"]
        self.work = work
        self.run_cli = run_cli  # run_cli(argv) -> (exit code, stdout bytes, stderr bytes)
        self.first_arm_accuracy = 0.0  # set by the oracle of analyze
        self.fit_rel_err = 0.0  # set from the first output that passes its checks

    @property
    def items(self) -> int:
        return self.n

    @property
    def pinned(self) -> str | None:
        if self.seed == DEFAULT_SEED and self.size == "full":
            return PINNED[self.name]
        return None

    def setup(self) -> str:
        """Make the inputs; return an error message or ''."""
        return ""

    def argv(self, out: Path) -> list[str]:
        raise NotImplementedError

    def check(self, out: Path, stdout: bytes) -> str:
        raise NotImplementedError

    def rel_err(self, out: Path, stdout: bytes) -> float:
        """Weibull fit error of this workload's output; 0 if it outputs no fit."""
        return 0.0


class Simulate(Workload):
    name = "simulate"

    def argv(self, out):
        return ["simulate-static", "--side", "front", "--fleet", str(self.n),
                "--seed", str(self.seed), "--out", str(out)]

    def check(self, out, stdout):
        return check_fleet_dir(out, self.n, "front", self.seed)


class Analyze(Workload):
    name = "analyze"

    def setup(self):
        self.fleet = self.work / "fleet"
        code, _, err = self.run_cli(["simulate-static", "--side", "back", "--fleet",
                                     str(self.n), "--seed", str(self.seed),
                                     "--out", str(self.fleet)])
        if code != 0:
            return f"set-up simulate-static exited {code}: {err.decode(errors='replace')}"
        # the oracle compares every curve byte for byte, so no parse is needed here
        return check_manifest(self.fleet, self.n, "back", self.seed) or self.run_oracle()

    def run_oracle(self) -> str:
        """Regenerate the fleet in process; score the analyser against it.

        The regenerated curves must re-serialise byte for byte to the
        set-up files, so the ground truth belongs to the analysed data.
        """
        params = FleetParams(count=self.n, master_seed=self.seed)
        spec, protocol, rig = SensorSpec(), StaticProtocol(side="back"), RigConfig()
        files = _load_json(self.fleet / "manifest.json")["files"]
        scratch = self.work / "oracle.csv"
        broken = hits = 0
        for name, rng in zip(files, specimen_rngs(self.seed, self.n)):
            state = sample_specimen(params, "back", rng)
            curve = run_static(state, spec, protocol, rig, rng)
            write_load_curve_csv(scratch, curve)
            if scratch.read_bytes() != (self.fleet / name).read_bytes():
                return f"oracle: regenerated {name} differs from the set-up file"
            if not state.failure_order:
                continue
            broken += 1
            events = classify_failures(curve, detect_failures(curve), "back")
            hits += bool(events) and events[0].arm == state.failure_order[0].arm
        scratch.unlink()
        self.first_arm_accuracy = hits / broken if broken else 0.0
        return ""

    def argv(self, out):
        return ["analyze", str(self.fleet), "--out", str(out)]

    def check(self, out, stdout):
        try:
            payload = _load_json(out / "analysis.json")
        except (OSError, ValueError) as exc:
            return f"analysis.json: {exc}"
        return _check_summary(payload, "back", self.n)

    def rel_err(self, out, stdout):
        return fit_rel_err(_load_json(out / "analysis.json")["weibull"], "back")


class Report(Workload):
    name = "report"

    @property
    def items(self):
        return 2 * self.n

    def argv(self, out):
        return ["report", "--fleet", str(self.n), "--seed", str(self.seed), "--out", str(out)]

    def check(self, out, stdout):
        try:
            report = _load_json(out / "report.json")
        except (OSError, ValueError) as exc:
            return f"report.json: {exc}"
        if report.get("seed") != self.seed:
            return "report.json seed differs from the command"
        for side in ("front", "back"):
            err = _check_summary(report.get("sides", {}).get(side, {}), side, self.n)
            if err:
                return f"report {side}: {err}"
        if report.get("dynamic", {}).get("verdict") not in ("stable", "degraded"):
            return "report.json has no degradation verdict"
        return ""

    def rel_err(self, out, stdout):
        sides = _load_json(out / "report.json")["sides"]
        return max(fit_rel_err(sides[s]["weibull"], s) for s in ("front", "back"))


class Fit(Workload):
    name = "fit"
    stdout_is_output = True

    @property
    def items(self):
        return SIZES[self.size]["forces"]

    def setup(self):
        f0, beta = FleetParams().side_params("front")
        forces = f0 * np.random.default_rng(self.seed).weibull(beta, self.items)
        self.forces = self.work / "forces.csv"
        with open(self.forces, "w") as fh:
            fh.write("force_N\n")
            np.savetxt(fh, forces, fmt="%.10g")
        return ""

    def argv(self, out):
        return ["fit-weibull", str(self.forces), "--invert", INVERT]

    def check(self, out, stdout):
        try:
            payload = json.loads(stdout)
        except ValueError as exc:
            return f"stdout is not JSON: {exc}"
        fit = payload.get("fit") or {}
        if not (fit.get("f0_n", 0) > 0 and fit.get("beta", 0) > 0):
            return "no positive Weibull fit on stdout"
        loads = [row.get("f_max_N", 0) for row in payload.get("inversions", [])]
        if len(loads) != 3 or not 0 < loads[0] < loads[1] < loads[2]:
            return "inversions are not three increasing loads"
        return ""

    def rel_err(self, out, stdout):
        return fit_rel_err(json.loads(stdout)["fit"], "front")


WORKLOADS = {w.name: w for w in (Simulate, Analyze, Report, Fit)}
