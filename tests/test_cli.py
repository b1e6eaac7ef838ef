import dataclasses
import functools
import json
import multiprocessing
import os
import shutil
import time
import tracemalloc

import numpy as np
import pytest

from forcebench.analysis import LoadCurve
from forcebench.bench import (
    FLEET_BLOCK,
    DynamicProtocol,
    FleetParams,
    StaticProtocol,
    fleet_blocks,
)
from forcebench import cli
from forcebench.cli import _CONFIG_KEY, CONFIG_DEFAULTS, CONFIG_TYPES, main
from forcebench.fileio import (
    read_cycle_log_csv,
    read_load_curve_csv,
    write_json,
    write_load_curve_csv,
)


def run_cli(*argv):
    return main(list(argv))


def read_dir_bytes(path):
    return {p.name: p.read_bytes() for p in sorted(path.iterdir())}


def three_copies(path):
    """``path`` and two copies of its file, as analyze inputs: a file named
    twice is refused before any is read."""
    copies = [path.with_name(f"copy{i}_{path.name}") for i in (1, 2)]
    for copy in copies:
        shutil.copyfile(path, copy)
    return [str(p) for p in (path, *copies)]


# -------------------------------------------------------------- simulate-static

def test_simulate_static_writes_fleet_and_manifest(tmp_path):
    out = tmp_path / "fleet"
    assert run_cli("simulate-static", "--seed", "1", "--fleet", "2",
                   "--out", str(out)) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["seed"] == 1
    assert manifest["files"] == ["specimen_000.csv", "specimen_001.csv"]
    assert all((out / name).exists() for name in manifest["files"])


def test_simulate_static_rerun_is_byte_identical(tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    run_cli("simulate-static", "--seed", "7", "--fleet", "2", "--out", str(out_a))
    run_cli("simulate-static", "--seed", "7", "--fleet", "2", "--out", str(out_b))
    assert read_dir_bytes(out_a) == read_dir_bytes(out_b)


def test_simulate_static_failed_write_leaves_no_temp_file(tmp_path, capsys):
    out = tmp_path / "fleet"
    (out / "specimen_001.csv").mkdir(parents=True)  # the rename onto it fails
    assert run_cli("simulate-static", "--seed", "1", "--fleet", "3", "--out", str(out)) == 3
    assert "i/o error" in capsys.readouterr().err
    assert sorted(p.name for p in out.iterdir()) == ["specimen_000.csv", "specimen_001.csv"]


@pytest.mark.parametrize("count", [FLEET_BLOCK + 1, 2 * FLEET_BLOCK + 44])
@pytest.mark.parametrize("side", ["front", "back"])
def test_simulate_static_bytes_do_not_depend_on_the_worker_count(tmp_path, monkeypatch,
                                                                  count, side):
    written = {}
    for workers in (1, 2, 3):
        monkeypatch.setattr(cli, "_workers", lambda blocks, workers=workers: workers)
        out = tmp_path / str(workers)
        assert run_cli("simulate-static", "--seed", "9", "--fleet", str(count),
                       "--side", side, "--out", str(out)) == 0
        assert not multiprocessing.active_children()
        written[workers] = read_dir_bytes(out)
    assert len(written[1]) == count + 1
    assert written[2] == written[1] and written[3] == written[1]


@pytest.mark.parametrize("workers", [1, 2, 3])
@pytest.mark.parametrize("first, later", [(1, 200), (FLEET_BLOCK - 1, FLEET_BLOCK + 1)])
def test_simulate_static_failed_writes_in_blocks(tmp_path, capsys, monkeypatch, workers,
                                                 first, later):
    # writes fail in two blocks of three; the first failure in fleet order
    # is reported, even where a later block fails sooner, once every block
    # has stopped
    monkeypatch.setattr(cli, "_workers", lambda blocks: workers)
    out = tmp_path / "fleet"
    for index in (first, later):
        (out / f"specimen_{index:03d}.csv").mkdir(parents=True)
    assert run_cli("simulate-static", "--seed", "1", "--fleet", "300", "--out", str(out)) == 3
    err = capsys.readouterr().err
    assert err.startswith("i/o error") and f"specimen_{first:03d}.csv" in err
    assert f"specimen_{later:03d}.csv" not in err
    assert not list(out.glob("*.tmp")) and not (out / "manifest.json").exists()
    assert not multiprocessing.active_children()


@pytest.mark.parametrize("workers", [1, 2])
def test_simulate_static_rig_limit_in_blocks(tmp_path, capsys, monkeypatch, workers):
    monkeypatch.setattr(cli, "_workers", lambda blocks: workers)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"dz_max_um": 300.0}))
    out = tmp_path / "fleet"
    assert run_cli("simulate-static", "--seed", "1", "--fleet", "300",
                   "--config", str(config), "--out", str(out)) == 2
    assert capsys.readouterr().err == "error: protocol ramps to 300.0 um, rig allows 200.0 um\n"
    assert not out.exists()
    assert not multiprocessing.active_children()


def _pid_and(arg):
    return os.getpid(), arg


@pytest.mark.parametrize("workers", [1, 2])
def test_pooled_results_come_in_order_from_forked_processes(monkeypatch, workers):
    # no pool where one process suffices
    monkeypatch.setattr(cli, "_workers", lambda tasks: workers)
    results = list(cli._pooled(_pid_and, range(5)))
    assert [arg for _, arg in results] == list(range(5))
    assert ({pid for pid, _ in results} == {os.getpid()}) == (workers == 1)
    assert not multiprocessing.active_children()


def _mark(directory, arg):
    """A task that leaves a marker file named ``arg``, then fails at 0 and
    takes a while otherwise."""
    (directory / str(arg)).touch()
    if arg == 0:
        raise ValueError("task 0 fails")
    time.sleep(0.2)
    return arg


def test_pooled_starts_few_tasks_after_a_failure_or_a_close(tmp_path, monkeypatch):
    # the tasks still waiting in the pool are cancelled, and every process has
    # stopped.  The tasks handed to the processes still run: the one each
    # worker runs and the workers + 1 queued for them.  So the failing run
    # leaves 1 + workers + (workers + 1) = 6 markers, the closed one, which
    # read two results, 2 + workers + (workers + 1) = 7; the bound of
    # 4 * workers = 8 leaves one for a task handed over as the close is made.
    workers = 2
    monkeypatch.setattr(cli, "_workers", lambda tasks: workers)
    failing, closed = tmp_path / "failing", tmp_path / "closed"
    for ran in (failing, closed):
        ran.mkdir()
    with pytest.raises(ValueError, match="^task 0 fails$"):
        list(cli._pooled(functools.partial(_mark, failing), range(200)))
    assert not multiprocessing.active_children()
    results = cli._pooled(functools.partial(_mark, closed), range(1, 201))
    assert [next(results), next(results)] == [1, 2]
    results.close()
    assert not multiprocessing.active_children()
    assert "0" in {p.name for p in failing.iterdir()}
    assert len(list(failing.iterdir())) <= 4 * workers
    assert len(list(closed.iterdir())) <= 4 * workers


def test_simulate_static_requires_seed(tmp_path):
    assert run_cli("simulate-static", "--out", str(tmp_path / "x")) == 2


def test_simulate_static_rejects_overlong_ramp(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"dz_max_um": 300.0}))
    code = run_cli("simulate-static", "--seed", "1", "--fleet", "2",
                   "--config", str(config), "--out", str(tmp_path / "x"))
    assert code == 2
    assert "300" in capsys.readouterr().err


def test_oversized_fleet_exits_two_and_writes_no_file(tmp_path, capsys):
    config = tmp_path / "config.json"
    for fleet in (2**63, 10**400):
        config.write_text(f'{{"fleet": {fleet}}}')
        for command in ("simulate-static", "simulate-dynamic", "report"):
            out = tmp_path / command
            assert run_cli(command, "--seed", "1", "--config", str(config),
                           "--out", str(out)) == 2
            assert "fleet" in capsys.readouterr().err
            assert not out.exists()


def test_output_directory_is_required_before_the_config_is_cast(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text('{"fleet": 0}')
    for command in ("simulate-static", "simulate-dynamic", "report"):
        assert run_cli(command, "--seed", "1", "--config", str(config)) == 2
        assert "an output directory is required" in capsys.readouterr().err


def test_drop_floor_below_the_noise_is_named(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text('{"drop_floor_n": 0}')
    out = tmp_path / "out"
    assert run_cli("report", "--seed", "4", "--fleet", "3", "--config", str(config),
                   "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert "drop_floor_n: 0.0 detects a first fracture at" in err
    assert "not a positive force" in err
    assert not out.exists()
    # where every first fracture stays positive, a floor of 0 still works
    data = tmp_path / "data"
    assert run_cli("simulate-static", "--seed", "14", "--fleet", "5", "--out", str(data)) == 0
    assert run_cli("analyze", str(data), "--config", str(config)) == 0


@pytest.mark.parametrize("command, record", [
    ("simulate-static", "manifest.json"), ("report", "report.json")])
def test_config_hash_is_of_the_values_read(tmp_path, command, record):
    digests = set()
    for name, text in [("float", '{"fleet": 4.0, "dz_max_um": 200}'),
                       ("int", '{"fleet": 4, "dz_max_um": 200.0}'), ("default", "{}")]:
        config, out = tmp_path / f"{name}.json", tmp_path / name
        config.write_text(text)
        assert run_cli(command, "--seed", "3", "--fleet", "4", "--config", str(config),
                       "--out", str(out)) == 0
        digests.add(json.loads((out / record).read_text())["config_sha256"])
    assert len(digests) == 1


def test_config_file_with_flag_override(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"seed": 3, "fleet": 4}))
    out = tmp_path / "fleet"
    assert run_cli("simulate-static", "--fleet", "2", "--config", str(config),
                   "--out", str(out)) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["seed"] == 3
    assert manifest["fleet"] == 2  # flag wins over config file


def test_unknown_config_key_rejected(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"sample_rate": 10}))
    assert run_cli("simulate-static", "--seed", "1", "--config", str(config),
                   "--out", str(tmp_path / "x")) == 2


def test_a_config_key_has_one_default_and_type():
    # a key that several config dataclasses declare (side, v_ges) must agree in
    # all of them, in its default, type and rule: the merged config defaults
    # keep one of them only
    declared, declarers = {}, {}
    for cls in (StaticProtocol, DynamicProtocol, FleetParams):
        for f in dataclasses.fields(cls):
            key = _CONFIG_KEY.get(f.name, f.name)
            declared.setdefault(key, set()).add(
                (f.default, type(f.default), f.type, f.metadata["rule"]))
            declarers.setdefault(key, []).append(cls.__name__)
    # not vacuous: both protocols declare these two
    assert {key for key, classes in declarers.items() if len(classes) > 1} >= {"side", "v_ges"}
    assert {key: found for key, found in declared.items() if len(found) > 1} == {}


@pytest.mark.parametrize(
    "command, content, message",
    [
        ("simulate-static", "5", "JSON object"),
        ("simulate-static", "[]", "JSON object"),
        ("simulate-static", '{"f0_front_n": "x"}', "f0_front_n"),
        ("simulate-static", '{"dz_max_um": NaN}', "dz_max_um"),
        ("simulate-dynamic", '{"n_cycles": 50000.5}', "n_cycles"),
        ("report", '{"sigma_multiple": [3]}', "sigma_multiple"),
        ("simulate-static", '{"fleet": true}', "fleet"),
        ("simulate-static", '{"f0_front_n": true}', "f0_front_n"),
        ("simulate-dynamic", '{"record_interval": false}', "record_interval"),
        ("report", '{"sigma_multiple": -1}', "sigma_multiple"),
        ("report", '{"drop_floor_n": -1}', "drop_floor_n"),
        ("simulate-static", '{"fleet": "5"}', "fleet"),
        ("simulate-static", '{"dz_max_um": "100"}', "dz_max_um"),
    ],
)
def test_malformed_config_rejected(tmp_path, capsys, command, content, message):
    config = tmp_path / "config.json"
    config.write_text(content)
    assert run_cli(command, "--seed", "1", "--config", str(config),
                   "--out", str(tmp_path / "x")) == 2
    assert message in capsys.readouterr().err


# A value each config key's rule refuses, and a command that reads the key.
REFUSED = {
    "side": ("x", "simulate-static"),
    "dz_max_um": (0, "simulate-static"),
    "step_um": (-0.5, "simulate-static"),
    "v_ges": (0, "simulate-dynamic"),
    "f_min_n": (0, "simulate-dynamic"),
    "f_max_n": (-1, "simulate-dynamic"),
    "frequency_hz": (0, "simulate-dynamic"),
    "n_cycles": (0, "simulate-dynamic"),
    "record_interval": (-500, "simulate-dynamic"),
    "drift_mv": (float("nan"), "simulate-dynamic"),
    "f0_front_n": (0, "simulate-static"),
    "beta_front": (-1, "simulate-static"),
    "f0_back_n": (0, "simulate-static"),
    "beta_back": (0, "simulate-static"),
    "fleet": (0, "simulate-static"),
    "seed": (-1, "report"),
    "drop_fraction": (-0.1, "report"),
    "drop_floor_n": (-1, "report"),
    "sigma_multiple": (0, "report"),
}


def test_every_config_key_has_a_refused_value():
    assert set(REFUSED) == set(CONFIG_DEFAULTS)


@pytest.mark.parametrize("key", REFUSED)
def test_refused_config_value_is_named_by_its_key(tmp_path, capsys, key):
    value, command = REFUSED[key]
    config, out = tmp_path / "config.json", tmp_path / "out"
    config.write_text(json.dumps({"seed": 1, "fleet": 5, key: value}))
    assert run_cli(command, "--config", str(config), "--out", str(out)) == 2
    assert capsys.readouterr().err.startswith(f"error: {key}: expected ")
    assert not out.exists()


@pytest.mark.parametrize("key", [key for key, kind in CONFIG_TYPES.items() if kind is float])
def test_a_number_beyond_the_float_range_is_refused_by_its_key(tmp_path, capsys, key):
    config, out = tmp_path / "config.json", tmp_path / "out"
    config.write_text(json.dumps({"seed": 1, "fleet": 5, key: 10**400}))
    assert run_cli(REFUSED[key][1], "--config", str(config), "--out", str(out)) == 2
    assert capsys.readouterr().err.startswith(f"error: {key}: expected ")
    assert not out.exists()


@pytest.mark.parametrize("side", ["x", None])
@pytest.mark.parametrize("command", ["simulate-static", "simulate-dynamic", "analyze"])
def test_a_bad_config_side_is_refused_by_the_side_rule(tmp_path, capsys, command, side):
    config, out = tmp_path / "config.json", tmp_path / "out"
    config.write_text(json.dumps({"seed": 1, "fleet": 5, "side": side}))
    # analyze reads curves without a manifest; one that cannot be read shows
    # that the side is checked before any curve is read
    (tmp_path / "curve.csv").write_text("not a curve\n")
    inputs = three_copies(tmp_path / "curve.csv") if command == "analyze" else []
    assert run_cli(command, *inputs, "--config", str(config), "--out", str(out)) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: side: expected one of ('front', 'back'), got {side!r}\n"
    assert captured.out == "" and not out.exists()


def test_a_config_integer_too_long_to_read_names_the_file(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text('{"seed": 1, "fleet": 1' + "0" * 5000 + "}")
    assert run_cli("simulate-static", "--config", str(config),
                   "--out", str(tmp_path / "x")) == 2
    assert capsys.readouterr().err.startswith(f"error: {config}: invalid JSON: ")


def test_a_config_file_that_is_not_utf8_names_the_file(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_bytes(b'{"seed": 1, "side": "\xff"}')
    assert run_cli("simulate-static", "--config", str(config),
                   "--out", str(tmp_path / "x")) == 2
    assert capsys.readouterr().err.startswith(f"error: {config}: not UTF-8 text: ")


def test_boolean_seed_rejected(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text('{"seed": true, "fleet": 2}')
    assert run_cli("simulate-static", "--config", str(config),
                   "--out", str(tmp_path / "x")) == 2
    assert capsys.readouterr().err.startswith(
        "error: seed: expected non-negative integer, got True")


# ------------------------------------------------------------------- analyze

@pytest.fixture(scope="module")
def fleet_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("fleet20")
    assert run_cli("simulate-static", "--seed", "14", "--fleet", "20",
                   "--out", str(out)) == 0
    return out


def test_analyze_reproduces_budget(fleet_dir, tmp_path):
    out = tmp_path / "analysis"
    assert run_cli("analyze", str(fleet_dir), "--out", str(out)) == 0
    payload = json.loads((out / "analysis.json").read_text())
    ten_ppm = next(
        row for row in payload["budget"] if row["probability_ppm"] == 10.0
    )
    assert abs(ten_ppm["f_max_N"] - 0.42) < 0.05
    assert payload["n_curves"] == 20
    assert payload["weibull"]["f0_n"] > 0
    assert "overload" in payload


def test_analyze_duplicated_curve_zero_spread(fleet_dir, tmp_path):
    curve = read_load_curve_csv(fleet_dir / "specimen_000.csv", "front")
    triple = tmp_path / "triple"
    triple.mkdir()
    for i in range(3):
        write_load_curve_csv(triple / f"copy_{i}.csv", curve)
    out = tmp_path / "analysis"
    assert run_cli("analyze", str(triple), "--side", "front", "--out", str(out)) == 0
    payload = json.loads((out / "analysis.json").read_text())
    assert payload["fracture_force_std_n"] == pytest.approx(0.0, abs=1e-9)
    assert payload["weibull"] is None


def test_analyze_refuses_a_curve_file_named_twice(fleet_dir, tmp_path, capsys):
    # the directory given twice, or with one of its files (spelled another way);
    # an unreadable first input shows that no curve is read before the refusal
    mangled, out = tmp_path / "mangled.csv", tmp_path / "out"
    mangled.write_text("not a curve\n")
    one_file = fleet_dir / ".." / fleet_dir.name / "specimen_007.csv"
    for again, repeated in [(fleet_dir, fleet_dir / "specimen_000.csv"), (one_file, one_file)]:
        assert run_cli("analyze", str(mangled), str(fleet_dir), str(again),
                       "--out", str(out)) == 2
        assert capsys.readouterr() == (
            "", f"error: {repeated}: curve file named twice by the inputs\n")
        assert not out.exists()


def test_analyze_refuses_a_curve_file_named_twice_through_a_link(fleet_dir, tmp_path, capsys):
    # a symbolic link to the fleet directory, and a hard link to one of its files
    linked_dir, linked_file = tmp_path / "link", tmp_path / "hard.csv"
    linked_dir.symlink_to(fleet_dir, target_is_directory=True)
    os.link(fleet_dir / "specimen_003.csv", linked_file)
    for again, repeated in [(linked_dir, linked_dir / "specimen_000.csv"),
                            (linked_file, linked_file)]:
        assert run_cli("analyze", str(fleet_dir), str(again)) == 2
        assert capsys.readouterr() == (
            "", f"error: {repeated}: curve file named twice by the inputs\n")


@pytest.fixture(scope="module")
def fleet300_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("fleet300")
    assert run_cli("simulate-static", "--seed", "14", "--fleet", str(2 * FLEET_BLOCK + 44),
                   "--out", str(out)) == 0
    return out


def analyze_at_each_worker_count(monkeypatch, capsys, *argv):
    """(exit code, stdout, stderr) of ``analyze ARGV``, the same whether 1, 2 or
    3 processes read and reduce the files; none is left running."""
    results = []
    for workers in (1, 2, 3):
        monkeypatch.setattr(cli, "_workers", lambda groups, workers=workers: workers)
        capsys.readouterr()
        code = run_cli("analyze", *argv)
        results.append((code, *capsys.readouterr()))
        assert not multiprocessing.active_children()
    assert results[1] == results[0] and results[2] == results[0]
    return results[0]


@pytest.mark.parametrize("count", [FLEET_BLOCK + 1, 2 * FLEET_BLOCK + 44])
@pytest.mark.parametrize("side", ["front", "back"])
def test_analyze_bytes_do_not_depend_on_the_worker_count(tmp_path, monkeypatch, capsys,
                                                         count, side):
    fleet = tmp_path / "fleet"
    assert run_cli("simulate-static", "--seed", "9", "--fleet", str(count),
                   "--side", side, "--out", str(fleet)) == 0
    written = {}
    for workers in (1, 2, 3):
        monkeypatch.setattr(cli, "_workers", lambda groups, workers=workers: workers)
        capsys.readouterr()
        out = tmp_path / str(workers)
        assert run_cli("analyze", str(fleet), "--out", str(out)) == 0
        assert not multiprocessing.active_children()
        written[workers] = capsys.readouterr(), read_dir_bytes(out)
    assert written[1][0].out.startswith("Fleet of ") and f"{side} loading" in written[1][0].out
    assert written[2] == written[1] and written[3] == written[1]


def test_analyze_reports_the_first_bad_group(fleet300_dir, tmp_path, monkeypatch, capsys):
    # bad files in the first and the third group of FLEET_BLOCK files
    fleet = tmp_path / "fleet"
    shutil.copytree(fleet300_dir, fleet)
    for index in (5, 2 * FLEET_BLOCK + 3):
        (fleet / f"specimen_{index:03d}.csv").write_text("not a curve\n")
    assert analyze_at_each_worker_count(monkeypatch, capsys, str(fleet)) == (
        2, "", f"error: {fleet / 'specimen_005.csv'}:1: bad or missing header\n")


def test_analyze_reports_the_first_error_that_one_process_meets(
        fleet300_dir, tmp_path, monkeypatch, capsys):
    config, fleet = tmp_path / "config.json", tmp_path / "fleet"
    config.write_text('{"drop_floor_n": 0}')
    shutil.copytree(fleet300_dir, fleet)
    code, out, err = analyze_at_each_worker_count(monkeypatch, capsys, str(fleet),
                                                  "--config", str(config))
    assert (code, out) == (2, "") and err.startswith("error: drop_floor_n: 0.0 detects")
    # a bad header in group 2 is met after group 0's block is reduced
    (fleet / f"specimen_{2 * FLEET_BLOCK + 10:03d}.csv").write_text("not a curve\n")
    assert analyze_at_each_worker_count(monkeypatch, capsys, str(fleet),
                                        "--config", str(config)) == (code, out, err)
    # one in group 0 is met first: a block is yielded once the next file is read
    (fleet / "specimen_010.csv").write_text("not a curve\n")
    assert analyze_at_each_worker_count(monkeypatch, capsys, str(fleet),
                                        "--config", str(config)) == (
        2, "", f"error: {fleet / 'specimen_010.csv'}:1: bad or missing header\n")


@pytest.mark.parametrize("defect", ["not UTF-8", "missing"])
def test_analyze_unreadable_file_at_every_worker_count(fleet300_dir, tmp_path, monkeypatch,
                                                       capsys, defect):
    fleet = tmp_path / "fleet"
    shutil.copytree(fleet300_dir, fleet)
    bad = fleet / "specimen_200.csv"
    if defect == "missing":
        bad.unlink()
    else:
        bad.write_bytes(b"index,dz_um\xff\n")
    code, out, err = analyze_at_each_worker_count(monkeypatch, capsys, str(fleet))
    assert (code, out) == ((3, "") if defect == "missing" else (2, ""))
    expected = ("i/o error: [Errno 2] No such file or directory" if defect == "missing"
                else f"error: {bad}: not UTF-8 text")
    assert err.startswith(expected) and str(bad) in err


def test_analyze_rejects_non_monotone_curve(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text(
        "index,dz_um,force_N,voffA_mV,voffB_mV,voffC_mV,voffD_mV,valid\n"
        "0,0.0,0.0,0,0,0,0,1\n"
        "1,2.0,0.01,0,0,0,0,1\n"
        "2,1.0,0.02,0,0,0,0,1\n"
    )
    code = run_cli("analyze", *three_copies(bad))
    assert code == 2
    err = capsys.readouterr().err
    assert "bad.csv" in err and ":4" in err


@pytest.mark.parametrize("rows, where", [
    ("0,0.0,zero,0,0,0,0,1\n", "mangled.csv:2: not a number: 'zero'"),
    ("0,0.0,0.0,0,0,0,0,1.0\n", "mangled.csv:2: valid flag"),
    ("0,0.0,0.0,0,0,0,0,2\n", "mangled.csv:2: valid flag"),
    ("x,0.0,0.0,0,0,0,0,1\n", "mangled.csv:2: not a number: 'x'"),
    ("0,0.0,0.0,0,0,0,0,1\n\n2,1.0,zero,0,0,0,0,1\n", "mangled.csv:4:"),
    ("0,0.0,1_0,0,0,0,0,1\n", "mangled.csv:2: not a number: '1_0'"),
    ("0,0.0,\u0661,0,0,0,0,1\n", "mangled.csv:2: not a number: '\u0661'"),
], ids=["force", "flag_float", "flag_two", "index", "after_blank_line",
        "digit_separator", "non_ascii_digit"])
def test_analyze_rejects_malformed_csv(tmp_path, capsys, rows, where):
    bad = tmp_path / "mangled.csv"
    bad.write_text(
        "index,dz_um,force_N,voffA_mV,voffB_mV,voffC_mV,voffD_mV,valid\n" + rows
    )
    assert run_cli("analyze", *three_copies(bad)) == 2
    assert where in capsys.readouterr().err


def copy_curves(fleet_dir, dest, count):
    for i in range(count):
        name = f"specimen_{i:03d}.csv"
        (dest / name).write_bytes((fleet_dir / name).read_bytes())


def test_analyze_rejects_non_finite_force(fleet_dir, tmp_path, capsys):
    copy_curves(fleet_dir, tmp_path, 3)
    curve = read_load_curve_csv(fleet_dir / "specimen_003.csv", "front")
    curve.force_n[:] = np.nan
    write_load_curve_csv(tmp_path / "specimen_003.csv", curve)
    assert run_cli("analyze", str(tmp_path), "--side", "front") == 2
    err = capsys.readouterr().err
    assert "specimen_003.csv" in err and "finite" in err


@pytest.mark.parametrize("content", [
    "[]",
    '{"files": [5]}',
    '{"files": "specimen_000.csv"}',
    '{"side": 3, "files": ["specimen_000.csv"]}',
    "{",
], ids=["list", "file_number", "files_string", "side_number", "invalid_json"])
def test_analyze_rejects_malformed_manifest(fleet_dir, tmp_path, capsys, content):
    copy_curves(fleet_dir, tmp_path, 3)
    (tmp_path / "manifest.json").write_text(content)
    assert run_cli("analyze", str(tmp_path)) == 2
    assert "manifest.json" in capsys.readouterr().err


def test_a_manifest_integer_too_long_to_read_names_the_file(fleet_dir, tmp_path, capsys):
    copy_curves(fleet_dir, tmp_path, 3)
    manifest = tmp_path / "manifest.json"
    manifest.write_text('{"files": [], "fleet": 1' + "0" * 5000 + "}")
    assert run_cli("analyze", str(tmp_path)) == 2
    assert capsys.readouterr().err.startswith(f"error: {manifest}: invalid JSON: ")


@pytest.mark.parametrize("order", [("front", "back"), ("back", "front")])
def test_analyze_refuses_manifests_of_different_sides(tmp_path, capsys, order):
    for side in ("front", "back"):
        assert run_cli("simulate-static", "--seed", "14", "--fleet", "3", "--side", side,
                       "--out", str(tmp_path / side)) == 0
        # a curve that cannot be read shows that no curve is read first
        (tmp_path / side / "specimen_000.csv").write_text("not a curve\n")
    capsys.readouterr()
    assert run_cli("analyze", *(str(tmp_path / side) for side in order)) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: manifests name different load sides:"
                                   f" {order[0]!r} and {order[1]!r}")


def test_analyze_refuses_a_side_flag_the_manifest_contradicts(fleet_dir, tmp_path, capsys):
    run_cli("analyze", str(fleet_dir))
    plain = capsys.readouterr().out
    assert run_cli("analyze", str(fleet_dir), "--side", "front") == 0  # an agreeing flag
    assert capsys.readouterr().out == plain
    copy_curves(fleet_dir, tmp_path, 20)
    (tmp_path / "manifest.json").write_bytes((fleet_dir / "manifest.json").read_bytes())
    # a curve that cannot be read shows that no curve is read first
    (tmp_path / "specimen_000.csv").write_text("not a curve\n")
    assert run_cli("analyze", str(tmp_path), "--side", "back",
                   "--out", str(tmp_path / "out")) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and not (tmp_path / "out").exists()
    assert captured.err.startswith(
        "error: --side 'back' disagrees with the manifest's load side 'front'")


def test_analyze_refuses_a_config_side_the_manifest_contradicts(fleet_dir, tmp_path, capsys):
    run_cli("analyze", str(fleet_dir))
    plain = capsys.readouterr().out
    agreeing, contradicting = tmp_path / "front.json", tmp_path / "back.json"
    agreeing.write_text('{"side": "front"}')
    contradicting.write_text('{"side": "back"}')
    assert run_cli("analyze", str(fleet_dir), "--config", str(agreeing)) == 0
    assert capsys.readouterr().out == plain
    # the flag wins over the file, as for every key
    assert run_cli("analyze", str(fleet_dir), "--config", str(contradicting),
                   "--side", "front") == 0
    assert capsys.readouterr().out == plain
    fleet = tmp_path / "fleet"
    fleet.mkdir()
    copy_curves(fleet_dir, fleet, 20)
    (fleet / "manifest.json").write_bytes((fleet_dir / "manifest.json").read_bytes())
    # a curve that cannot be read shows that no curve is read first
    (fleet / "specimen_000.csv").write_text("not a curve\n")
    assert run_cli("analyze", str(fleet), "--config", str(contradicting),
                   "--out", str(tmp_path / "out")) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and not (tmp_path / "out").exists()
    assert captured.err.startswith(
        f"error: {contradicting}: side 'back' disagrees with the manifest's load side 'front'")


@pytest.mark.parametrize("command, header", [
    ("analyze", "index,dz_um,force_N,voffA_mV,voffB_mV,voffC_mV,voffD_mV,valid"),
    ("degradation", "cycle,force_N,voffA_mV,voffB_mV,voffC_mV,voffD_mV"),
])
@pytest.mark.parametrize("text", ["", "{header},extra\n", "0,0,0,0,0,0\n"],
                         ids=["empty", "extra_column", "no_header"])
def test_a_bad_or_missing_header_is_refused_on_line_one(tmp_path, capsys, command, header,
                                                         text):
    path, out = tmp_path / "bad.csv", tmp_path / "out"
    path.write_text(text.format(header=header))
    assert run_cli(command, str(path), "--out", str(out)) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and not out.exists()
    assert captured.err == f"error: {path}:1: bad or missing header\n"


@pytest.mark.filterwarnings("error")
def test_header_only_files_exit_two_without_warning(tmp_path, capsys):
    curve, log, forces = tmp_path / "curve.csv", tmp_path / "cycles.csv", tmp_path / "f.csv"
    curve.write_text("index,dz_um,force_N,voffA_mV,voffB_mV,voffC_mV,voffD_mV,valid\n")
    log.write_text("cycle,force_N,voffA_mV,voffB_mV,voffC_mV,voffD_mV\n")
    forces.write_text("force_N\n")
    assert run_cli("analyze", *three_copies(curve)) == 2
    assert run_cli("degradation", str(log)) == 2
    assert run_cli("fit-weibull", str(forces)) == 2
    err = capsys.readouterr().err
    assert "cycles.csv: no data rows" in err and "f.csv: no numeric data" in err


def test_analyze_needs_three_curves(fleet_dir):
    assert run_cli("analyze", str(fleet_dir / "specimen_000.csv")) == 2


def test_analyze_of_a_manifest_that_lists_no_files(tmp_path, capsys):
    write_json(tmp_path / "manifest.json", {"files": [], "side": "front"})
    assert run_cli("analyze", str(tmp_path)) == 2
    assert capsys.readouterr() == (
        "", "error: need at least 3 curves with detected failures, got 0\n")


def test_analyze_missing_file_reported_before_too_few_curves(fleet_dir, tmp_path, capsys):
    missing = tmp_path / "missing.csv"
    assert run_cli("analyze", str(fleet_dir / "specimen_000.csv"), str(missing)) == 3
    assert "missing.csv" in capsys.readouterr().err


def test_analyze_malformed_file_reported_before_short_curve(fleet_dir, tmp_path,
                                                            monkeypatch, capsys):
    curve = read_load_curve_csv(fleet_dir / "specimen_000.csv", "front")
    short = LoadCurve(side="front", dz_um=curve.dz_um[:9], force_n=curve.force_n[:9],
                      voff_mv=curve.voff_mv[:9], valid=curve.valid[:9])
    write_load_curve_csv(tmp_path / "short.csv", short)
    mangled, missing = tmp_path / "mangled.csv", tmp_path / "missing.csv"
    mangled.write_text(
        "index,dz_um,force_N,voffA_mV,voffB_mV,voffC_mV,voffD_mV,valid\n0,0.0,zero,0,0,0,0,1\n")
    # the reader reads the next file before it yields the short curve's block
    assert analyze_at_each_worker_count(
        monkeypatch, capsys, str(tmp_path / "short.csv"), str(mangled),
        str(fleet_dir / "specimen_001.csv")) == (
        2, "", f"error: {mangled}:2: not a number: 'zero'\n")
    # a bad file further on, at the end of a block of curves or after it, is not read
    fleet = [str(tmp_path / "short.csv")]
    for k in range(FLEET_BLOCK + 1):
        fleet.append(str(tmp_path / f"specimen_{k:03d}.csv"))
        shutil.copyfile(fleet_dir / f"specimen_{k % 20:03d}.csv", fleet[-1])
    for bad in (mangled, missing):
        for position in (FLEET_BLOCK - 1, FLEET_BLOCK, len(fleet) - 1):
            paths = [str(bad) if k == position else path for k, path in enumerate(fleet)]
            assert analyze_at_each_worker_count(monkeypatch, capsys, *paths) == (
                2, "", "error: curves need at least 10 samples\n")


def test_analyze_missing_file_reported_before_bad_threshold(fleet_dir, tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text('{"drop_fraction": "x"}')
    assert run_cli("analyze", str(fleet_dir / "specimen_000.csv"),
                   str(fleet_dir / "specimen_001.csv"), str(tmp_path / "missing.csv"),
                   "--config", str(config)) == 3
    assert "missing.csv" in capsys.readouterr().err


def test_report_rig_limit_reported_before_bad_threshold(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text('{"drop_fraction": "x", "dz_max_um": 300.0}')
    assert run_cli("report", "--seed", "3", "--config", str(config),
                   "--out", str(tmp_path / "out")) == 2
    err = capsys.readouterr().err
    assert "300" in err and "drop_fraction" not in err


def test_a_refused_report_stops_at_the_block_that_meets_the_error(tmp_path, monkeypatch,
                                                                  capsys):
    made = []

    def counted(*args):
        for block in fleet_blocks(*args):
            made.append(len(block))
            yield block

    monkeypatch.setattr(cli, "fleet_blocks", counted)
    config = tmp_path / "config.json"
    config.write_text('{"drop_fraction": -1}')
    assert run_cli("report", "--seed", "3", "--fleet", "1000", "--config", str(config),
                   "--out", str(tmp_path / "out")) == 2
    assert capsys.readouterr() == (
        "", "error: drop_fraction: expected nonnegative finite number, got -1.0\n")
    assert made == [FLEET_BLOCK]


def test_curve_csv_schema(fleet_dir):
    text = (fleet_dir / "specimen_000.csv").read_text()
    lines = text.splitlines()
    assert lines[0] == "index,dz_um,force_N,voffA_mV,voffB_mV,voffC_mV,voffD_mV,valid"
    assert "," in lines[1] and ";" not in text
    # forces carry at least 9 significant digits (here: 10)
    force_field = lines[120].split(",")[2]
    digits = force_field.replace("-", "").replace(".", "").replace("e", "").lstrip("0")
    assert len(digits) >= 9


def test_cycle_csv_schema(tmp_path):
    out = tmp_path / "dyn"
    run_cli("simulate-dynamic", "--seed", "2", "--out", str(out))
    lines = (out / "cycles.csv").read_text().splitlines()
    assert lines[0] == "cycle,force_N,voffA_mV,voffB_mV,voffC_mV,voffD_mV"
    assert lines[1].split(",")[0] == "500"
    assert len(lines) == 1 + 100


def test_analyze_without_out_prints_json(fleet_dir, capsys):
    assert run_cli("analyze", str(fleet_dir)) == 0
    out = capsys.readouterr().out
    payload = json.loads(out[out.index("\n{") + 1:])
    assert payload["n_curves"] == 20


def test_curve_csv_round_trip(fleet_dir, tmp_path):
    curve = read_load_curve_csv(fleet_dir / "specimen_003.csv", "front")
    copy_path = tmp_path / "copy.csv"
    write_load_curve_csv(copy_path, curve)
    again = read_load_curve_csv(copy_path, "front")
    assert np.array_equal(curve.dz_um, again.dz_um)
    assert np.array_equal(curve.force_n, again.force_n)
    assert np.array_equal(curve.voff_mv, again.voff_mv, equal_nan=True)
    assert np.array_equal(curve.valid, again.valid)


# ---------------------------------------------------------------- fit-weibull

def test_fit_weibull_invert_with_params(capsys):
    assert run_cli("fit-weibull", "--params", "1.22,10.69",
                   "--invert", "1e-6,1e-5,1e-4") == 0
    payload = json.loads(capsys.readouterr().out)
    rounded = [round(row["f_max_N"], 2) for row in payload["inversions"]]
    assert rounded == [0.34, 0.42, 0.52]


@pytest.mark.parametrize("params, p, bound", [
    ("1,1e-300", "0.9", "beyond"), ("1e308,0.5", "0.9", "beyond"), ("1,1e-300", "0.5", "below"),
], ids=["overflow", "infinite", "underflow"])
def test_fit_weibull_refuses_a_load_beyond_the_float_range(params, p, bound, capsys):
    assert run_cli("fit-weibull", "--params", params, "--invert", p) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: probability {p} inverts to a load {bound}")


@pytest.mark.parametrize("params", ["inf,2", "nan,2", "1.22,inf", "1.22,nan"])
def test_fit_weibull_rejects_non_finite_params(params, capsys):
    assert run_cli("fit-weibull", "--params", params, "--invert", "1e-6") == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "finite" in captured.err


@pytest.mark.parametrize("argv, message", [
    (["--params", "1.22"], "--params expects 'f0,beta'"),
    (["--params", "1.22,10.69,3"], "--params expects 'f0,beta'"),
    (["--params", "1.22,x"], "--params expects 'f0,beta'"),
    ([], "provide an input CSV or --params f0,beta"),
    (["--invert", "1e-6"], "provide an input CSV or --params f0,beta"),
    (["--params", "1.22,10.69", "--invert", "1e-6,x"],
     "--invert expects comma-separated probabilities"),
    (["forces.csv", "--params", "1.22,10.69"],
     "provide an input CSV or --params f0,beta, not both"),
])
def test_fit_weibull_refuses_bad_arguments(argv, message, capsys):
    assert run_cli("fit-weibull", *argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_fit_weibull_recovers_exact_points(tmp_path, capsys):
    from forcebench import median_ranks

    p = median_ranks(3)
    forces = 1.0 * (-np.log1p(-p)) ** (1 / 2.0)
    data = tmp_path / "forces.csv"
    data.write_text("force_N\n" + "\n".join(repr(float(v)) for v in forces) + "\n")
    assert run_cli("fit-weibull", str(data)) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["fit"]["f0_n"] == pytest.approx(1.0, rel=1e-9)
    assert payload["fit"]["beta"] == pytest.approx(2.0, rel=1e-9)


def test_fit_weibull_large_sample(tmp_path, capsys):
    rng = np.random.default_rng(40)
    data = tmp_path / "forces.csv"
    data.write_text("\n".join(str(v) for v in 1.22 * rng.weibull(10.69, 10_000)))
    assert run_cli("fit-weibull", str(data)) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["fit"]["f0_n"] == pytest.approx(1.22, rel=0.01)


def test_fit_weibull_rejects_empty(tmp_path):
    data = tmp_path / "empty.csv"
    data.write_text("force_N\n")
    assert run_cli("fit-weibull", str(data)) == 2


def test_fit_weibull_names_bad_line(tmp_path, capsys):
    data = tmp_path / "forces.csv"
    data.write_text("force_N\n1.0\n\n1.5\n2.0x\n1.2\n")
    assert run_cli("fit-weibull", str(data)) == 2
    assert "forces.csv:5: not a number: '2.0x'" in capsys.readouterr().err


def test_fit_weibull_refuses_distinct_loads_of_equal_logarithms(tmp_path, capsys):
    data = tmp_path / "forces.csv"
    data.write_text("1e300\n1e300\n1.0000000000000002e300\n")
    assert run_cli("fit-weibull", str(data)) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ")
    assert "Traceback" not in captured.err


def test_fit_weibull_rejects_nonpositive(tmp_path, capsys):
    # one rule, in fit_weibull, whatever the reason a force is not positive
    data = tmp_path / "nonpositive.csv"
    for bad in ("0", "-2.0", "nan"):
        data.write_text(f"1.0\n{bad}\n1.5\n")
        assert run_cli("fit-weibull", str(data)) == 2
        assert capsys.readouterr().err == "error: fracture loads must be finite and positive\n"


# ---------------------------------------------------- simulate-dynamic + verdict

def test_dynamic_chain_means_and_verdict(tmp_path, capsys):
    out = tmp_path / "dyn"
    assert run_cli("simulate-dynamic", "--seed", "5", "--out", str(out)) == 0
    capsys.readouterr()
    assert run_cli("degradation", str(out / "cycles.csv")) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["verdict"] == "stable"
    channels = payload["channels"]
    assert channels["force_N"]["mean"] == pytest.approx(0.5035, abs=0.001)
    expected = {"voffA_mV": -191.32, "voffB_mV": -192.33,
                "voffC_mV": -190.36, "voffD_mV": -191.73}
    for name, mean in expected.items():
        assert channels[name]["mean"] == pytest.approx(mean, abs=0.15)
        assert channels[name]["rel_std_pct"] < 0.2
    assert channels["force_N"]["rel_std_pct"] < 0.1


def test_dynamic_drift_flag_degrades(tmp_path, capsys):
    out = tmp_path / "dyn"
    assert run_cli("simulate-dynamic", "--seed", "5", "--drift", "2.0",
                   "--out", str(out)) == 0
    capsys.readouterr()
    assert run_cli("degradation", str(out / "cycles.csv")) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["verdict"] == "degraded"


def test_dynamic_too_few_records_exit_two(tmp_path):
    out = tmp_path / "dyn"
    assert run_cli("simulate-dynamic", "--seed", "5", "--cycles", "500",
                   "--out", str(out)) == 0
    assert run_cli("degradation", str(out / "cycles.csv")) == 2


@pytest.mark.parametrize("cycle", [0, -500])
def test_one_row_cycle_log_is_too_short_for_a_verdict(tmp_path, capsys, cycle):
    log = tmp_path / "cycles.csv"
    log.write_text(f"cycle,force_N,voffA_mV,voffB_mV,voffC_mV,voffD_mV\n{cycle},0.5,1,2,3,4\n")
    assert run_cli("degradation", str(log)) == 2
    assert "need at least 10 log entries, got 1" in capsys.readouterr().err


def test_degradation_reads_no_supply_voltage(tmp_path, capsys):
    # a cycle log's offsets are recorded voltages: v_ges is a key of simulate-dynamic only
    out, config = tmp_path / "dyn", tmp_path / "config.json"
    assert run_cli("simulate-dynamic", "--seed", "5", "--out", str(out)) == 0
    config.write_text('{"v_ges": -1.0}')
    capsys.readouterr()
    assert run_cli("degradation", str(out / "cycles.csv"), "--config", str(config)) == 0
    assert json.loads(capsys.readouterr().out)["total_cycles"] == 50_000


@pytest.mark.parametrize("defect, message", [
    ("nan_offsets", "finite"),
    ("fractional_cycle", "cycles.csv:2:"),
])
def test_degradation_rejects_bad_cycle_log(tmp_path, capsys, defect, message):
    out = tmp_path / "dyn"
    assert run_cli("simulate-dynamic", "--seed", "5", "--out", str(out)) == 0
    lines = (out / "cycles.csv").read_text().splitlines()
    if defect == "nan_offsets":
        lines[1:] = [line.rsplit(",", 1)[0] + ",nan" for line in lines[1:]]
    else:
        lines[1] = "500.7," + lines[1].split(",", 1)[1]
    (out / "cycles.csv").write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert run_cli("degradation", str(out / "cycles.csv")) == 2
    assert message in capsys.readouterr().err


def test_degradation_writes_undefined_relative_std_as_null(tmp_path, capsys):
    out = tmp_path / "dyn"
    assert run_cli("simulate-dynamic", "--seed", "5", "--out", str(out)) == 0
    lines = (out / "cycles.csv").read_text().splitlines()
    # voffA_mV all zero: its mean is 0, so its relative std is undefined
    lines[1:] = [",".join(row[:2] + ["0"] + row[3:])
                 for row in (line.split(",") for line in lines[1:])]
    (out / "cycles.csv").write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert run_cli("degradation", str(out / "cycles.csv"), "--out", str(out)) == 0
    strict = dict(parse_constant=lambda name: pytest.fail(f"{name} is not JSON"))
    for text in (capsys.readouterr().out, (out / "degradation.json").read_text()):
        channels = json.loads(text, **strict)["channels"]
        assert channels["voffA_mV"]["rel_std_pct"] is None
        assert channels["voffB_mV"]["rel_std_pct"] < 0.2


def test_degradation_writes_its_file_before_it_prints(tmp_path, capsys):
    dyn, blocked = tmp_path / "dyn", tmp_path / "file"
    assert run_cli("simulate-dynamic", "--seed", "5", "--out", str(dyn)) == 0
    blocked.write_text("")  # --out names a file: the write fails
    capsys.readouterr()
    assert run_cli("degradation", str(dyn / "cycles.csv"), "--out", str(blocked)) == 3
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("i/o error")
    assert run_cli("degradation", str(dyn / "cycles.csv"), "--out", str(dyn)) == 0
    assert capsys.readouterr().out == (dyn / "degradation.json").read_text()


def test_analyze_writes_its_file_before_it_prints(fleet_dir, tmp_path, capsys):
    blocked = tmp_path / "file"
    blocked.write_text("")  # --out names a file: the write fails
    capsys.readouterr()
    assert run_cli("analyze", str(fleet_dir), "--out", str(blocked)) == 3
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("i/o error")
    assert run_cli("analyze", str(fleet_dir), "--out", str(tmp_path / "a")) == 0
    table = capsys.readouterr().out
    assert table.startswith("Fleet of 20 specimens, front loading\n")
    assert run_cli("analyze", str(fleet_dir)) == 0  # the table, then the payload
    assert capsys.readouterr().out == table + (tmp_path / "a" / "analysis.json").read_text()


def test_report_writes_its_file_before_it_prints(tmp_path, capsys):
    blocked, out_dir = tmp_path / "file", tmp_path / "report"
    blocked.write_text("")  # --out names a file: the write fails
    assert run_cli("report", "--seed", "3", "--out", str(blocked)) == 3
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("i/o error")
    assert run_cli("report", "--seed", "3", "--out", str(out_dir)) == 0
    front, back, cycles, wrote = capsys.readouterr().out.split("\n\n")
    assert front.startswith("Fleet of 20 specimens, front loading\n")
    assert back.startswith("Fleet of 20 specimens, back loading\n")
    assert cycles.startswith("Cycle log over 50000 cycles: verdict stable\n")
    assert wrote == f"wrote report.json to {out_dir}\n"


def test_json_output_refuses_non_finite_numbers(tmp_path):
    with pytest.raises(ValueError, match="not JSON compliant"):
        write_json(tmp_path / "out.json", {"x": float("inf")})
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("command", ["report", "degradation"])
def test_side_flag_is_a_usage_error_where_no_side_is_read(tmp_path, capsys, command):
    args = ["--seed", "3"] if command == "report" else [str(tmp_path / "cycles.csv")]
    with pytest.raises(SystemExit) as exc:
        run_cli(command, *args, "--side", "back", "--out", str(tmp_path / "out"))
    assert exc.value.code == 2
    assert "unrecognized arguments: --side back" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_dynamic_rerun_byte_identical(tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    run_cli("simulate-dynamic", "--seed", "9", "--out", str(out_a))
    run_cli("simulate-dynamic", "--seed", "9", "--out", str(out_b))
    assert read_dir_bytes(out_a) == read_dir_bytes(out_b)


def test_cycle_csv_round_trip(tmp_path):
    out = tmp_path / "dyn"
    run_cli("simulate-dynamic", "--seed", "13", "--out", str(out))
    log = read_cycle_log_csv(out / "cycles.csv")
    from forcebench.fileio import write_cycle_log_csv

    copy_path = tmp_path / "copy.csv"
    write_cycle_log_csv(copy_path, log)
    assert copy_path.read_bytes() == (out / "cycles.csv").read_bytes()


def test_unwritable_output_is_io_error(tmp_path):
    blocker = tmp_path / "blocker"
    blocker.write_text("not a directory")
    code = run_cli("simulate-dynamic", "--seed", "5",
                   "--out", str(blocker / "nested"))
    assert code == 3


# --------------------------------------------------------------------- report

def test_report_end_to_end(tmp_path):
    out = tmp_path / "report"
    assert run_cli("report", "--seed", "3", "--fleet", "10", "--out", str(out)) == 0
    payload = json.loads((out / "report.json").read_text())
    assert payload["seed"] == 3
    assert set(payload["sides"]) == {"front", "back"}
    assert payload["dynamic"]["verdict"] == "stable"
    assert payload["sides"]["front"]["weibull"]["f0_n"] > 0
    assert len(payload["config_sha256"]) == 64
    # serialized report round-trips losslessly
    assert json.loads(json.dumps(payload)) == payload


def test_report_memory_does_not_grow_with_the_fleet(tmp_path, capsys):
    # the fleets are streamed: a peak that grew with them would hold every curve;
    # the first run pays one-time allocations and is not measured
    peaks = []
    for fleet in (3, 150, 600):
        tracemalloc.start()
        try:
            assert run_cli("report", "--seed", "3", "--fleet", str(fleet),
                           "--out", str(tmp_path / str(fleet))) == 0
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[2] < 1.5 * peaks[1], peaks


def test_fleet_summary_is_given_a_fleet_whose_len_is_its_curve_count(tmp_path, monkeypatch):
    # perfbench counts the curves a fleet summary reduces by len() of its first
    # argument; here fleets of two blocks, read by analyze and made by report
    counts = []
    summary = cli.fleet_summary

    def counting(curves, *args, **kwargs):
        blocks = list(curves)
        counts.append((len(curves), sum(len(block) for block in blocks)))
        return summary(blocks, *args, **kwargs)

    monkeypatch.setattr(cli, "fleet_summary", counting)
    fleet, count = tmp_path / "fleet", FLEET_BLOCK + 1
    assert run_cli("simulate-static", "--seed", "14", "--fleet", str(count),
                   "--out", str(fleet)) == 0
    assert run_cli("analyze", str(fleet)) == 0
    assert run_cli("report", "--seed", "3", "--fleet", str(count),
                   "--out", str(tmp_path / "report")) == 0
    assert counts == [(count, count)] * 3


def assert_equal_within_rounding(got, want, where):
    """Equal keys, integers and strings, and floats within 1e-8 relative:
    the rounding of a curve file's ``%.10g``."""
    assert type(got) is type(want), where
    if isinstance(want, dict):
        assert got.keys() == want.keys(), where
        for key in want:
            assert_equal_within_rounding(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list):
        assert len(got) == len(want), where
        for i, (g, w) in enumerate(zip(got, want)):
            assert_equal_within_rounding(g, w, f"{where}[{i}]")
    elif isinstance(want, float):
        assert got == pytest.approx(want, rel=1e-8, abs=0), where
    else:
        assert got == want, where


def report_sides(out, seed, fleet, *config):
    assert run_cli("report", "--seed", str(seed), "--fleet", str(fleet), *config,
                   "--out", str(out)) == 0
    return json.loads((out / "report.json").read_text())["sides"]


THRESHOLDS = {"drop_fraction": 0.05, "drop_floor_n": 0.015}


@pytest.mark.parametrize("seed, fleet, thresholds", [
    pytest.param(seed, fleet, config, id=f"{seed}-{fleet}" + ("-thresholds" if config else ""))
    for config in (None, THRESHOLDS) for seed in (3, 7)
    for fleet in (20, 2 * FLEET_BLOCK + 44)])
def test_report_equals_simulate_static_then_analyze(tmp_path, seed, fleet, thresholds):
    # each side of a report is the fleet that simulate-static writes with the
    # side's sub-seed, as analyze summarises its curve files, at the thresholds
    # of the config that both commands are given
    config = ()
    if thresholds:
        (tmp_path / "config.json").write_text(json.dumps(thresholds))
        config = ("--config", str(tmp_path / "config.json"))
    sides = report_sides(tmp_path / "report", seed, fleet, *config)
    if thresholds and fleet > FLEET_BLOCK:
        # the thresholds reach report's reductions: a 300-curve back fleet holds
        # curves whose first drop they see otherwise (seed 3's 20 curves hold none)
        default = report_sides(tmp_path / "default", seed, fleet)
        assert sides["back"]["weibull"] != default["back"]["weibull"]
    sub_seeds = np.random.SeedSequence(seed).generate_state(3)[:2]
    assert sides.keys() == {"front", "back"}
    for side, side_seed in zip(["front", "back"], sub_seeds):  # the order report runs them
        curves, out = tmp_path / side, tmp_path / f"{side}_analysis"
        assert run_cli("simulate-static", "--seed", str(side_seed), "--fleet", str(fleet),
                       "--side", side, "--out", str(curves)) == 0
        assert run_cli("analyze", str(curves), *config, "--out", str(out)) == 0
        analysis = json.loads((out / "analysis.json").read_text())
        assert_equal_within_rounding(analysis, sides[side], side)


def test_report_rerun_identical(tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    run_cli("report", "--seed", "21", "--fleet", "8", "--out", str(out_a))
    run_cli("report", "--seed", "21", "--fleet", "8", "--out", str(out_b))
    assert (out_a / "report.json").read_bytes() == (out_b / "report.json").read_bytes()
