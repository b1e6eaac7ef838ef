import dataclasses
import json
import tracemalloc

import numpy as np
import pytest

from forcebench.analysis import LoadCurve
from forcebench.bench import DynamicProtocol, FleetParams, StaticProtocol
from forcebench.cli import _CONFIG_KEY, main
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
    # all of them: the merged config defaults keep one of them only
    declared = {}
    for cls in (StaticProtocol, DynamicProtocol, FleetParams):
        for f in dataclasses.fields(cls):
            declared.setdefault(_CONFIG_KEY.get(f.name, f.name), set()).add(
                (f.default, type(f.default), f.type))
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


def test_boolean_seed_rejected(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text('{"seed": true, "fleet": 2}')
    assert run_cli("simulate-static", "--config", str(config),
                   "--out", str(tmp_path / "x")) == 2
    assert "'seed'" in capsys.readouterr().err


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


def test_analyze_rejects_non_monotone_curve(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text(
        "index,dz_um,force_N,voffA_mV,voffB_mV,voffC_mV,voffD_mV,valid\n"
        "0,0.0,0.0,0,0,0,0,1\n"
        "1,2.0,0.01,0,0,0,0,1\n"
        "2,1.0,0.02,0,0,0,0,1\n"
    )
    code = run_cli("analyze", str(bad), str(bad), str(bad))
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
    assert run_cli("analyze", str(bad), str(bad), str(bad)) == 2
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


@pytest.mark.filterwarnings("error")
def test_header_only_files_exit_two_without_warning(tmp_path, capsys):
    curve, log, forces = tmp_path / "curve.csv", tmp_path / "cycles.csv", tmp_path / "f.csv"
    curve.write_text("index,dz_um,force_N,voffA_mV,voffB_mV,voffC_mV,voffD_mV,valid\n")
    log.write_text("cycle,force_N,voffA_mV,voffB_mV,voffC_mV,voffD_mV\n")
    forces.write_text("force_N\n")
    assert run_cli("analyze", str(curve), str(curve), str(curve)) == 2
    assert run_cli("degradation", str(log)) == 2
    assert run_cli("fit-weibull", str(forces)) == 2
    err = capsys.readouterr().err
    assert "cycles.csv: no data rows" in err and "f.csv: no numeric data" in err


def test_analyze_needs_three_curves(fleet_dir):
    assert run_cli("analyze", str(fleet_dir / "specimen_000.csv")) == 2


def test_analyze_missing_file_reported_before_too_few_curves(fleet_dir, tmp_path, capsys):
    missing = tmp_path / "missing.csv"
    assert run_cli("analyze", str(fleet_dir / "specimen_000.csv"), str(missing)) == 3
    assert "missing.csv" in capsys.readouterr().err


def test_analyze_malformed_file_reported_before_short_curve(fleet_dir, tmp_path, capsys):
    curve = read_load_curve_csv(fleet_dir / "specimen_000.csv", "front")
    short = LoadCurve(side="front", dz_um=curve.dz_um[:9], force_n=curve.force_n[:9],
                      voff_mv=curve.voff_mv[:9], valid=curve.valid[:9])
    write_load_curve_csv(tmp_path / "short.csv", short)
    (tmp_path / "mangled.csv").write_text(
        "index,dz_um,force_N,voffA_mV,voffB_mV,voffC_mV,voffD_mV,valid\n0,0.0,zero,0,0,0,0,1\n")
    assert run_cli("analyze", str(tmp_path / "short.csv"), str(tmp_path / "mangled.csv"),
                   str(fleet_dir / "specimen_001.csv")) == 2
    assert "mangled.csv:2: not a number: 'zero'" in capsys.readouterr().err


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


@pytest.mark.parametrize("params", ["1,1e-300", "1e308,0.5"], ids=["overflow", "infinite"])
def test_fit_weibull_refuses_a_load_beyond_the_float_range(params, capsys):
    assert run_cli("fit-weibull", "--params", params, "--invert", "0.9") == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: probability 0.9 inverts to a load beyond")


@pytest.mark.parametrize("params", ["inf,2", "nan,2", "1.22,inf", "1.22,nan"])
def test_fit_weibull_rejects_non_finite_params(params, capsys):
    assert run_cli("fit-weibull", "--params", params, "--invert", "1e-6") == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "finite" in captured.err


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


def test_report_rerun_identical(tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    run_cli("report", "--seed", "21", "--fleet", "8", "--out", str(out_a))
    run_cli("report", "--seed", "21", "--fleet", "8", "--out", str(out_b))
    assert (out_a / "report.json").read_bytes() == (out_b / "report.json").read_bytes()
