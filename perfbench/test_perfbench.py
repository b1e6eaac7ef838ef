"""Tests of the benchmark itself: names, failure accounting and smoke runs."""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run

sys.path.insert(0, str(run.SRC))
import workloads  # noqa: E402  (needs src on the path)

DECLARED = json.loads((run.ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def last_json_line(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def bench(*argv: str, cwd: Path = run.ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *argv],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


def test_names_match_the_contract():
    names = [w["name"] for w in DECLARED["workloads"]]
    names += [m["name"] for m in DECLARED["end_to_end"] + DECLARED["per_layer"]]
    assert all(NAME.fullmatch(n) for n in names)
    assert len(names) == len(set(names))
    assert sorted(workloads.WORKLOADS) == sorted(w["name"] for w in DECLARED["workloads"])


def test_corrupted_output_fails_its_run(tmp_path, monkeypatch):
    real_spawn = run.spawn

    def spawn_then_corrupt(argv, work, env):
        proc = real_spawn(argv, work, env)
        if "simulate-static" in argv:
            curve = Path(argv[argv.index("--out") + 1]) / "specimen_003.csv"
            lines = curve.read_text().splitlines()
            lines[5] = lines[5].replace(",", ",x", 1)
            curve.write_text("\n".join(lines) + "\n")
        return proc

    monkeypatch.setattr(run, "spawn", spawn_then_corrupt)
    wl = workloads.Simulate(14, "smoke", tmp_path, run_cli=None)
    speed = run.Speed(tmp_path, run.child_env())
    speed.sample()  # the reference run every CLI run follows
    reps = run.run_reps(wl, speed, 0.0, False, [])
    assert len(reps) == 1
    assert "specimen_003.csv:6: not a number" in reps[0].error


def test_output_that_differs_between_repeats_fails_its_run():
    reps = [run.Rep(False, 1.0, 50.0, digest) for digest in ("a", "a", "b", "a")]
    run.judge_repeats(reps)
    assert [bool(r.error) for r in reps] == [False, False, True, False]


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_smoke_run_of_each_workload(workload):
    proc = bench("--workload", workload, "--seed", "3", "--seconds", "0",
                 "--trace", "1", "--size", "smoke")
    assert proc.returncode == 0, proc.stderr
    result = last_json_line(proc.stdout)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] == 2
    assert set(result["metrics"]) == {m["name"] for m in DECLARED["per_layer"]}


def test_smoke_run_prints_end_to_end_metrics():
    proc = bench("--workload", "fit", "--seed", "3", "--seconds", "0",
                 "--trace", "0", "--size", "smoke")
    assert proc.returncode == 0, proc.stderr
    result = last_json_line(proc.stdout)
    assert result["correct"] and result["attempted"] == 1
    for metric in DECLARED["end_to_end"]:
        value = result["metrics"][metric["name"]]
        assert value["unit"] == metric["unit"] and value["value"] > 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "fit", "--seed", "3", "--seconds", "1", "--trace", "0",
                 cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
