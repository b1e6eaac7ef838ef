"""forcebench benchmark: one workload, closed loop, one CLI process at a time.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Set-up makes the workload's inputs from
the seed and times fresh interpreters importing ``forcebench.cli``
(``setup_s``).  The benchmark then starts the CLI, waits for it to exit,
checks its outputs and starts it again, until the next run would end
after ``--seconds``.  A run of ``reference.py`` goes between each import
and the next CLI run, and times are scaled to a fixed reference speed
(see ``REFERENCE_S``); the times as measured go to the record.  With
``--trace 0`` every run is untraced and the
end-to-end metrics are printed; with ``--trace 1`` untraced and traced
runs alternate and the per-layer metrics are printed.  The last line of
standard output is the JSON result; a record with the environment stamp,
every run and the spans of one traced run goes to ``.perfbench_results/``.
Metric names and units come from ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import collections
import datetime
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
# The child gets one thread per numeric library; nproc is 2 on the
# reference machine and the benchmark process itself takes one core.
THREADS = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
)}
# What the installed ``forcebench`` console script runs.
CLI_ENTRY = "import sys\nfrom forcebench.cli import main\nsys.exit(main())"
# Accuracy scores, printed in every mode; 0 where the workload has none.
ORACLE_SCORES = ("analysis.first_arm_accuracy", "analysis.fit_rel_err")
# Import timings taken before the first run; one more follows every run,
# so setup_s samples the machine over the same span as wall_s.
IMPORT_SAMPLES = 2
# The machine's speed drifts by up to 40 % within minutes (see README.md).
# A run of reference.py sits between every import and the next CLI run,
# and both are scaled by REFERENCE_S / (that reference time): seconds on a
# machine where the reference takes REFERENCE_S.
REFERENCE_S = 0.35
# A CLI run takes under 5 s on the 2-core reference machine; a hung one
# is killed and counts as failed.
CHILD_TIMEOUT_S = 60.0
# Counts that must repeat exactly between traced runs of one seed.
EXACT_COUNTS = (
    "bench.specimens", "sensor.check_hinge_failures_calls",
    "sensor.displacement_at_force_calls", "fileio.write_curve_calls",
    "fileio.read_curve_calls", "fileio.bytes_written", "fileio.bytes_read",
    "analysis.events", "analysis.unknown_arm_events", "weibull.fit_points",
    "weibull.invert_calls",
)


@dataclass
class Proc:
    code: int
    start: float
    end: float
    rss_mb: float
    stdout: bytes
    stderr: bytes

    @property
    def wall(self) -> float:
        return self.end - self.start


@dataclass
class Rep:
    traced: bool
    wall: float  # as measured
    rss_mb: float
    digest: str
    scaled: float = 0.0  # wall at the reference speed
    error: str = ""
    layers: dict = field(default_factory=dict)
    spans: list = field(default_factory=list)


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.update(THREADS, PYTHONPATH=str(SRC))
    return env


def spawn(argv: list[str], work: Path, env: dict[str, str]) -> Proc:
    """Run one child to completion; wall time from spawn to exit, and its max RSS."""
    out_path, err_path = work / "child.stdout", work / "child.stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=work)
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # interrupted: leave no child behind
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
        end = time.perf_counter()
    proc.returncode = code = os.waitstatus_to_exitcode(status)
    return Proc(code, start, end, usage.ru_maxrss / 1024.0,
                out_path.read_bytes(), err_path.read_bytes())


def import_time(work: Path, env: dict[str, str]) -> float:
    """Wall time of a fresh interpreter that imports forcebench.cli and exits."""
    proc = spawn([sys.executable, "-c", "import forcebench.cli"], work, env)
    if proc.code != 0:
        raise RuntimeError(f"importing forcebench.cli failed: {proc.stderr.decode()}")
    return proc.wall


@dataclass
class Speed:
    """Reference times in run order; the last one scales its neighbours."""

    work: Path
    env: dict[str, str]
    refs: list[float] = field(default_factory=list)

    def sample(self) -> None:
        proc = spawn([sys.executable, str(HERE / "reference.py"), str(self.work)],
                     self.work, self.env)
        if proc.code != 0:
            raise RuntimeError(f"reference.py failed: {proc.stderr.decode()}")
        self.refs.append(proc.wall)

    def scale(self) -> float:
        """REFERENCE_S over the last reference time."""
        return REFERENCE_S / self.refs[-1]


def env_stamp(args: argparse.Namespace) -> dict:
    import numpy
    import forcebench

    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    sources = hashlib.sha256()
    for path in sorted((SRC / "forcebench").glob("*.py")):
        sources.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": args.workload,
        "seed": args.seed,
        "size": args.size,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "forcebench": forcebench.__version__,
        "git_commit": commit,
        "src_sha256": sources.hexdigest(),
        "child_threads": THREADS,
        "machine": platform.machine(),
        "time_utc": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
    }


def sample_setup(speed: Speed, setup_samples: list[float]) -> None:
    """One import time, scaled by the reference run right after it."""
    wall = import_time(speed.work, speed.env)
    speed.sample()
    setup_samples.append(wall * speed.scale())


def run_reps(wl, speed: Speed, seconds: float, trace: bool,
             setup_samples: list[float]) -> list[Rep]:
    """Closed loop: start the next CLI run only after the previous one exited.

    Each CLI run is followed by one import and one reference run.  The
    reference scales the import before it and the CLI run after it: the
    machine's speed changes within seconds, so the nearest sample is best.
    """
    work, env = speed.work, speed.env
    from workloads import output_digest

    schedule = (False, True) if trace else (False,)
    verified: set[str] = set()
    reps: list[Rep] = []
    durations: list[float] = []
    deadline = time.perf_counter() + seconds
    while True:
        began = time.perf_counter()
        traced = schedule[len(reps) % len(schedule)]
        out = work / f"rep{len(reps)}"
        out.mkdir()
        spans_path = work / "spans.marshal"
        if traced:
            argv = [sys.executable, str(HERE / "tracing.py"), str(spans_path), *wl.argv(out)]
        else:
            argv = [sys.executable, "-c", CLI_ENTRY, *wl.argv(out)]
        scale = speed.scale()
        proc = spawn(argv, work, env)
        digest = output_digest(out, proc.stdout if wl.stdout_is_output else None)
        rep = Rep(traced, proc.wall, proc.rss_mb, digest, proc.wall * scale)
        if proc.code != 0:
            rep.error = f"exit code {proc.code}: {proc.stderr.decode(errors='replace')[-500:]}"
        elif wl.pinned and digest != wl.pinned:
            rep.error = "output digest differs from the digest pinned for this seed"
        elif digest not in verified:
            rep.error = wl.check(out, proc.stdout)
            if not rep.error:
                verified.add(digest)
                wl.fit_rel_err = wl.rel_err(out, proc.stdout)
        if traced and proc.code == 0:
            trace_record = tracing.load_spans(spans_path)
            rep.spans = trace_record["spans"]
            rep.layers, trace_error = tracing.layer_metrics(trace_record, proc.start, proc.end)
            rep.error = rep.error or trace_error
        shutil.rmtree(out)
        reps.append(rep)
        sample_setup(speed, setup_samples)
        durations.append(time.perf_counter() - began)
        enough = len(reps) >= len(schedule)
        if enough and time.perf_counter() + statistics.median(durations) > deadline:
            return reps


def judge_repeats(reps: list[Rep]) -> None:
    """Outputs of one seed must be identical across repeats; traced counts too."""
    digests = collections.Counter(r.digest for r in reps if not r.error)
    if digests:
        majority = digests.most_common(1)[0][0]
        for r in reps:
            if not r.error and r.digest != majority:
                r.error = "output digest differs between repeats of one seed"
    traced = [r for r in reps if r.traced and not r.error]
    for r in traced[1:]:
        for key in EXACT_COUNTS:
            if r.layers[key] != traced[0].layers[key]:
                r.error = f"{key} differs between traced runs of one seed"


def summarize(reps: list[Rep], setup_samples: list[float], wl) -> dict[str, float]:
    """Medians over the runs that passed their checks (over all if none did)."""
    plain = [r for r in reps if not r.traced]
    good = [r for r in plain if not r.error] or plain
    wall_s = statistics.median(r.scaled for r in good)
    setup_s = statistics.median(setup_samples)
    metrics = {
        "wall_s": wall_s,
        # throughput of the work itself: the interpreter start is set-up
        "items_per_s": wl.items / max(wall_s - setup_s, 1e-3),
        "setup_s": setup_s,
        "peak_rss_mb": statistics.median(r.rss_mb for r in good),
        "analysis.first_arm_accuracy": wl.first_arm_accuracy,
        "analysis.fit_rel_err": wl.fit_rel_err,
    }
    traced = [r for r in reps if r.traced and r.layers]
    layer_runs = [r.layers for r in traced if not r.error] or [r.layers for r in traced]
    if layer_runs:
        metrics.update(tracing.median_metrics(layer_runs))
        # each traced run minus the untraced run just before it, so that
        # drift of the machine's speed between the two cancels
        pairs = [b.scaled - a.scaled for a, b in zip(reps, reps[1:])
                 if b.traced and not a.traced and not a.error and not b.error]
        metrics["cli.tracing_overhead_s"] = statistics.median(pairs) if pairs else 0.0
    return metrics


def spread(values: list[float]) -> dict:
    if len(values) < 2:
        return {"n": len(values), "median": values[0] if values else None}
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"n": len(values), "q1": q1, "median": q2, "q3": q3}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full",
                        help="input size; 'smoke' is for the benchmark's own tests")
    args = parser.parse_args(argv)

    if not (SRC / "forcebench" / "cli.py").is_file():
        print(f"error: {SRC / 'forcebench'} not found; run from a forcebench checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = declared["per_layer" if args.trace else "end_to_end"]

    base = ROOT / ".perfbench_work"
    base.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=base))
    env = child_env()

    def run_cli(cli_args: list[str]) -> tuple[int, bytes, bytes]:
        proc = spawn([sys.executable, "-c", CLI_ENTRY, *cli_args], work, env)
        return proc.code, proc.stdout, proc.stderr

    try:
        stamp = env_stamp(args)
        wl = workloads.WORKLOADS[args.workload](args.seed, args.size, work, run_cli)
        setup_error = wl.setup()
        speed = Speed(work, env)
        import_time(work, env)  # warms the caches
        setup_samples: list[float] = []
        for _ in range(IMPORT_SAMPLES):
            sample_setup(speed, setup_samples)
        reps = run_reps(wl, speed, args.seconds, bool(args.trace), setup_samples)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    judge_repeats(reps)
    metrics = summarize(reps, setup_samples, wl)
    plain = [r for r in reps if not r.traced]
    traced = [r for r in reps if r.traced]
    good = [r for r in plain if not r.error] or plain
    failed = sum(1 for r in reps if r.error) + bool(setup_error)
    attempted = len(reps) + bool(setup_error)
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing and not failed:
        print(f"error: metrics not measured: {missing}", file=sys.stderr)
        return 1
    for name in missing:  # no traced run succeeded; the result is incorrect anyway
        metrics[name] = 0.0

    record = {
        "env": stamp,
        "items": wl.items,
        "setup_error": setup_error,
        "setup_samples_s": setup_samples,
        "reference_s": speed.refs,
        "wall_s": spread([r.scaled for r in good]),
        "raw_wall_s": spread([r.wall for r in good]),
        "metrics": metrics,
        "runs": [{"traced": r.traced, "wall_s": r.wall, "scaled_wall_s": r.scaled,
                  "peak_rss_mb": r.rss_mb,
                  "sha256": r.digest, "error": r.error} for r in reps],
        # one request's spans: [name, start, end, parent index, extra]
        "spans_run": reps.index(traced[0]) if traced else None,
        "spans": traced[0].spans if traced else [],
    }
    results = ROOT / ".perfbench_results"
    results.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}.json"
    (results / name).write_text(json.dumps(record) + "\n")

    print("env " + json.dumps(stamp, sort_keys=True))
    if setup_error:
        print(f"setup failed: {setup_error}")
    for r in reps:
        if r.error:
            print(f"run failed ({'traced' if r.traced else 'untraced'}): {r.error}")
    print(f"{args.workload}: {len(plain)} untraced and {len(traced)} traced runs, "
          f"{wl.items} items each")
    print(f"  fail_ratio {failed}/{attempted} = {failed / attempted:.4g}")
    print(f"  as measured: median wall {statistics.median(r.wall for r in good):.4f} s, "
          f"median reference {statistics.median(speed.refs):.4f} s "
          f"(times below are scaled to a {REFERENCE_S} s reference)")
    scores = [m for m in declared["per_layer"] if m["name"] in ORACLE_SCORES]
    for m in wanted + [m for m in scores if m not in wanted]:
        print(f"  {m['name']:<36} {metrics[m['name']]:.6g} {m['unit']}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
