"""Golden outputs: SHA-256 of every file the CLI writes for fixed seeds.

The digests were taken before the hinge physics was gathered into one
kernel in ``forcebench.sensor`` (the analysis digests before the hinge
state became arrays, the fleet-300 ones before the fleet summary
reduced whole ramp blocks, and the fleet-300 ``simulate-static`` one
before it wrote curves straight off the ramp blocks); refactors must
leave them unchanged.  A deliberate change of an output format or of the
physics has to update them in the same change and say why.
"""

import hashlib
import json

import numpy as np
import pytest

from forcebench.cli import main

GOLDEN = {
    ("simulate-static", "--seed", "14", "--fleet", "50", "--side", "front"):
        "d8122074e557ec9d665261c7bb468c9023cdd36e8a361108854b9204492b2199",
    ("simulate-static", "--seed", "14", "--fleet", "50", "--side", "back"):
        "1bc70c4f0db17f2964dd2211810ab0e472af17b9fbaa7ada5754d64a4d74985a",
    # three ramp blocks, the last one partial
    ("simulate-static", "--seed", "21", "--fleet", "300", "--side", "back"):
        "93ead9af3df817e38dce12434733a7c26d452219aed0c3b83b2853b348949abc",
    ("simulate-dynamic", "--seed", "5"):
        "c92e1ec62e5d09a02e43994e57105f8a64c73b3ddd121d0654ec85d8a7ca5f4e",
    ("report", "--seed", "3", "--fleet", "50"):
        "6cb9c7cbefcd8f243a404be10d2a776284f91ed79895e14b11890669970964bb",
    # three ramp blocks per side, the last one partial
    ("report", "--seed", "21", "--fleet", "300"):
        "febbac46e3166e20127cb167786dcfa0edab7c8f0f60c42c232d1592e12f89b8",
}

# Analysis of simulated data: (simulation argv, analysis argv) -> digest of
# the analysis output directory plus its stdout; "{}" in the analysis argv
# stands for the simulation's output directory.
PIPELINE_GOLDEN = {
    (("simulate-static", "--seed", "14", "--fleet", "50"), ("analyze", "{}")):
        "2b3c83972e022d2d08342d16b0d1b83d17ca1a9994688689ddadd4b1ca01ecb6",
    (("simulate-static", "--seed", "14", "--fleet", "50", "--side", "back"), ("analyze", "{}")):
        "ff0d555f5b8c444a0ab1fb2f2fc306beab481210f6fecb4ae87136daccd9e69c",
    (("simulate-static", "--seed", "21", "--fleet", "300", "--side", "back"), ("analyze", "{}")):
        "6d24379adbcd53208c72c93c86a78ba4fd60ff734fe74cd5c8fae120c36e4b57",
    (("simulate-dynamic", "--seed", "5"), ("degradation", "{}/cycles.csv")):
        "4bad7540ee7e18fa2e114b8f6b546c848afe5a030dd1d00da1f107aeeb7c7c47",
    (("simulate-dynamic", "--seed", "5", "--drift", "1.5"), ("degradation", "{}/cycles.csv")):
        "4d7b562f26d166035a11ada6d3afaa9c3f9c23c589fe094ffb04617b2522a8e1",
}


def output_digest(out_dir):
    """SHA-256 over the sorted file names and each file's own SHA-256."""
    h = hashlib.sha256()
    for path in sorted(out_dir.iterdir()):
        h.update(path.name.encode() + b"\0")
        h.update(hashlib.sha256(path.read_bytes()).digest())
    return h.hexdigest()


@pytest.mark.parametrize("argv", list(GOLDEN), ids=lambda a: " ".join(a))
def test_cli_outputs_match_golden_digest(argv, tmp_path):
    out = tmp_path / "out"
    assert main([*argv, "--out", str(out)]) == 0
    assert output_digest(out) == GOLDEN[argv]


@pytest.mark.parametrize(
    "simulate, analyse", list(PIPELINE_GOLDEN), ids=lambda a: " ".join(a)
)
def test_analysis_outputs_match_golden_digest(simulate, analyse, tmp_path, capsys):
    data, out = tmp_path / "data", tmp_path / "out"
    assert main([*simulate, "--out", str(data)]) == 0
    capsys.readouterr()
    assert main([arg.format(data) for arg in analyse] + ["--out", str(out)]) == 0
    (out / "stdout.txt").write_text(capsys.readouterr().out)
    assert output_digest(out) == PIPELINE_GOLDEN[(simulate, analyse)]


# A cycle log recorded every 250 cycles, not the default 500: the
# degradation step reads the interval off the file's own cycle column.
INTERVAL_250_GOLDEN = "1558b011fc3a078b0e1890d55105398f00dda60cda08d0c11cd4e1780ea7b0b7"


def test_degradation_of_a_non_default_interval_matches_golden_digest(tmp_path, capsys):
    config, data, out = tmp_path / "config.json", tmp_path / "data", tmp_path / "out"
    config.write_text(json.dumps({"record_interval": 250}))
    assert main(["simulate-dynamic", "--seed", "5", "--config", str(config),
                 "--out", str(data)]) == 0
    capsys.readouterr()
    assert main(["degradation", str(data / "cycles.csv"), "--out", str(out)]) == 0
    (out / "stdout.txt").write_text(capsys.readouterr().out)
    assert output_digest(out) == INTERVAL_250_GOLDEN


# fit-weibull on seeded force files: (count, invert) -> digest of stdout,
# the same with and without a header line.  65 537 loads is 2^16 + 1: eight
# whole chunks of the fit's CDF and a last chunk of one load, and sums that
# split into leaves of 16 384, 16 384, 16 384, 8192 and 8193 loads.
FIT_GOLDEN = {
    (20, False): "2bcb2bcab3a1a8c775c1b1ddf4e4071cb505134c204bcd4d900ee9a0559dbd82",
    (20, True): "f6103ae95ee02da5a3ec87afc9c044af2d3ac980631df64bb5b87112aba69c22",
    (65537, False): "0dad0f89a921b86936da70cb238a3320bfbe9fbfb161a27981dfd7119e8996ee",
    (65537, True): "ff1c8384683af21986f1f7bd109df9f2fe5595febfb9a5519ad6c838c08bfa48",
    (200000, False): "e7f3d620c60edd669227ef10c1cc007aa72a28805331edca9167bacf68b15a61",
    (200000, True): "f2d82e5b1238694cdf9595a77553593bbdf732f5128204756fee1cff4ac90f24",
}


@pytest.mark.parametrize("header", [False, True], ids=["bare", "header"])
@pytest.mark.parametrize(
    "count, invert", list(FIT_GOLDEN),
    ids=lambda a: {False: "fit", True: "invert"}.get(a, a),
)
def test_fit_weibull_stdout_matches_golden_digest(count, invert, header, tmp_path, capsys):
    forces = 1.22 * np.random.default_rng(count).weibull(10.69, count)
    path = tmp_path / "forces.csv"
    with open(path, "w") as fh:
        fh.write("force_N\n" if header else "")
        np.savetxt(fh, forces, fmt="%.10g")
    argv = ["fit-weibull", str(path)] + (["--invert", "1e-6,1e-5,1e-4"] if invert else [])
    assert main(argv) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == FIT_GOLDEN[(count, invert)]
