import argparse
import json
import re
import warnings

import numpy as np
import pytest

from dickesim import cli, experiment, first_max_from_couplings
from dickesim.chain import LambDickeWarning, read_chain_file
from dickesim.cli import main, run_experiment


def write_chain(tmp_path, name="chain.cfg", masses="25, 25, 27",
                ancilla="ancilla_index = 2\n", omega="2.55e6", reference=0,
                k_projection="1.1e7"):
    path = tmp_path / name
    path.write_text(
        f"masses = {masses}\n"
        f"omega_z = {omega}\n"
        f"reference_index = {reference}\n"
        f"k_projection = {k_projection}\n"
        + ancilla)
    return str(path)


def read_csv(path):
    lines = path.read_text().strip().splitlines()
    assert lines[0].startswith("# ")
    header = lines[1].split(",")
    rows = [line.split(",") for line in lines[2:]]
    return lines[0], header, rows


# --- modes ----------------------------------------------------------------------


def test_modes_csv_mg_mg_al(tmp_path):
    cfg = write_chain(tmp_path)
    out = tmp_path / "modes.csv"
    assert main(["modes", "--config", cfg, "--out", str(out)]) == 0
    schema, header, rows = read_csv(out)
    assert schema == "# modes.v1"
    assert len(rows) == 3
    inphase = [r for r in rows if r[header.index("in_phase")] == "1"]
    assert len(inphase) == 1
    row = inphase[0]
    amp0 = float(row[header.index("amp_0")])
    amp1 = float(row[header.index("amp_1")])
    assert abs(amp0 / amp1 - 1.0) < 0.012  # Mg amplitudes equal at the % level
    freq = float(row[header.index("frequency")])
    assert freq == pytest.approx(0.986640639 * 2 * np.pi * 2.55e6, rel=1e-6)


def test_modes_equal_mass_inphase_at_omega_z(tmp_path):
    cfg = write_chain(tmp_path, masses="25, 25, 25", ancilla="")
    out = tmp_path / "modes.csv"
    assert main(["modes", "--config", cfg, "--out", str(out)]) == 0
    _, header, rows = read_csv(out)
    inphase = next(r for r in rows if r[header.index("in_phase")] == "1")
    assert float(inphase[header.index("frequency")]) == pytest.approx(
        2 * np.pi * 2.55e6, rel=1e-9)


def test_modes_json(tmp_path):
    cfg = write_chain(tmp_path)
    out = tmp_path / "modes.json"
    assert main(["modes", "--config", cfg, "--out", str(out),
                 "--format", "json"]) == 0
    data = json.loads(out.read_text())
    assert data["schema"] == "modes.v1"
    assert len(data["frequencies"]) == 3
    assert data["inphase_index"] == 0


def test_modes_malformed_config_exits_2(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("masses = banana\nomega_z = 1e6\n")
    assert main(["modes", "--config", str(bad)]) == 2


def test_modes_missing_file_exits_2(tmp_path):
    assert main(["modes", "--config", str(tmp_path / "nope.cfg")]) == 2


def test_modes_without_out_writes_stdout(tmp_path, capsys):
    cfg = write_chain(tmp_path)
    out = tmp_path / "modes.csv"
    assert main(["modes", "--config", cfg, "--out", str(out)]) == 0
    capsys.readouterr()
    assert main(["modes", "--config", cfg]) == 0
    assert capsys.readouterr().out == out.read_text()


def test_modes_empty_masses_exits_2(tmp_path, capsys):
    cfg = write_chain(tmp_path, masses="")
    assert main(["modes", "--config", cfg]) == 2
    assert "chain.cfg:1: bad value for masses: ''" in capsys.readouterr().err


def test_modes_masses_with_an_empty_entry_exits_2(tmp_path, capsys):
    # the empty entry is an error, not a 3-ion chain
    cfg = write_chain(tmp_path, masses="25,,25, 27")
    assert main(["modes", "--config", cfg]) == 2
    assert ("chain.cfg:1: bad value for masses: '25,,25, 27'"
            in capsys.readouterr().err)


@pytest.mark.parametrize("masses,omega", [
    ("25, 25, 27", "nan"),
    ("nan, 25", "2.55e6"),
    ("25, inf, 27", "2.55e6"),
    ("25, 25, 27", "1e400"),
])
def test_modes_nonfinite_config_exits_2(tmp_path, capsys, masses, omega):
    cfg = write_chain(tmp_path, masses=masses, omega=omega, ancilla="")
    out = tmp_path / "modes.json"
    assert main(["modes", "--config", cfg, "--out", str(out),
                 "--format", "json"]) == 2
    assert "finite" in capsys.readouterr().err
    assert not out.exists()


def test_modes_non_utf8_config_exits_2(tmp_path, capsys):
    cfg = tmp_path / "latin1.cfg"
    cfg.write_bytes("# café\nmasses = 25, 25\nomega_z = 2.55e6\n"
                    .encode("latin-1"))
    assert main(["modes", "--config", str(cfg)]) == 2
    assert "UTF-8" in capsys.readouterr().err


def test_usage_error_exits_1():
    with pytest.raises(SystemExit) as err:
        main(["modes"])  # missing --config
    assert err.value.code == 1
    with pytest.raises(SystemExit) as err:
        main(["frobnicate"])
    assert err.value.code == 1


# --- sweep ----------------------------------------------------------------------


def test_sweep_symmetric_config_all_unity(tmp_path):
    cfg = write_chain(tmp_path, masses="25, 25, 25",
                      ancilla="ancilla_index = 1\n")
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--config", cfg, "--m", "1",
                 "--mu-start", "0.1", "--mu-stop", "10", "--mu-points", "8",
                 "--mu-log", "--out", str(out)]) == 0
    schema, header, rows = read_csv(out)
    assert schema == "# sweep.v1"
    assert header == ["mu", "duration", "duration_s", "fidelity", "p0", "p1",
                      "error"]
    assert len(rows) == 8
    for row in rows:
        assert abs(float(row[header.index("fidelity")]) - 1.0) < 1e-9
        assert row[header.index("error")] == ""
    mus = [float(r[0]) for r in rows]
    assert mus == sorted(mus)
    assert mus[0] == pytest.approx(0.1)
    assert mus[-1] == pytest.approx(10.0)


def test_sweep_carrier_rate_converts_duration(tmp_path):
    cfg = write_chain(tmp_path, masses="25, 25, 25",
                      ancilla="ancilla_index = 1\n")
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--config", cfg, "--m", "1", "--mu-start", "1",
                 "--mu-stop", "1", "--mu-points", "1",
                 "--carrier-rate", "1e6", "--out", str(out)]) == 0
    _, header, rows = read_csv(out)
    dur = float(rows[0][header.index("duration")])
    dur_s = float(rows[0][header.index("duration_s")])
    assert dur_s == pytest.approx(dur / 1e6)


def test_sweep_json_includes_density(tmp_path):
    cfg = write_chain(tmp_path, masses="25, 25, 25",
                      ancilla="ancilla_index = 1\n")
    out = tmp_path / "sweep.json"
    assert main(["sweep", "--config", cfg, "--m", "1", "--mu-start", "0.5",
                 "--mu-stop", "2", "--mu-points", "3", "--out", str(out),
                 "--format", "json"]) == 0
    data = json.loads(out.read_text())
    assert data["m"] == 1
    assert len(data["rows"]) == 3
    density = data["rows"][0]["reduced_density"]
    assert density["n_qubits"] == 2
    assert len(density["matrix"]) == 4


def test_sweep_asymmetric_two_qubit_endpoint(tmp_path):
    # ancilla on the outside: fidelity stays high but dips with mass ratio;
    # the mu = 10 endpoint is 0.9792 for two qubits
    cfg = write_chain(tmp_path, masses="25, 25, 25",
                      ancilla="ancilla_index = 2\n")
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--config", cfg, "--m", "1", "--mu-start", "10",
                 "--mu-stop", "10", "--mu-points", "1",
                 "--out", str(out)]) == 0
    _, header, rows = read_csv(out)
    assert float(rows[0][header.index("fidelity")]) == pytest.approx(
        0.979235, abs=1e-5)


def test_sweep_four_qubit_two_excitations_at_equal_mass(tmp_path):
    # mu = 1 equals the no-ancilla equal-coupling case: F = 48/49 for N=4
    cfg = write_chain(tmp_path, masses="25, 25, 25, 25, 25",
                      ancilla="ancilla_index = 2\n")
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--config", cfg, "--m", "2", "--mu-start", "1",
                 "--mu-stop", "1", "--mu-points", "1",
                 "--out", str(out)]) == 0
    _, header, rows = read_csv(out)
    assert float(rows[0][header.index("fidelity")]) == pytest.approx(
        48.0 / 49.0, abs=1e-9)
    phonons = [float(rows[0][header.index(f"p{k}")]) for k in range(3)]
    assert sum(phonons) == pytest.approx(1.0, abs=1e-9)


def test_sweep_row_with_out_of_range_mass_ratio_names_it(tmp_path):
    # 1e-300 squared underflows, so the mass-weighted Hessian is undefined
    cfg = write_chain(tmp_path, masses="25, 25, 25",
                      ancilla="ancilla_index = 2\n")
    out, alone = tmp_path / "sweep.csv", tmp_path / "alone.csv"
    out_json, alone_json = tmp_path / "sweep.json", tmp_path / "alone.json"
    json_flags = ["--format", "json", "--carrier-rate", "1e5"]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["sweep", "--config", cfg, "--m", "1", "--mu-start",
                     "1e-300", "--mu-stop", "1", "--mu-points", "2",
                     "--out", str(out)]) == 0
        assert main(["sweep", "--config", cfg, "--m", "1", "--mu-start",
                     "1e-300", "--mu-stop", "1", "--mu-points", "2",
                     "--out", str(out_json)] + json_flags) == 0
    assert not caught
    _, header, rows = read_csv(out)
    assert "mass ratio 1e-300" in rows[0][header.index("error")]
    assert main(["sweep", "--config", cfg, "--m", "1", "--mu-start", "1",
                 "--mu-stop", "1", "--mu-points", "1",
                 "--out", str(alone)]) == 0
    assert rows[1] == read_csv(alone)[2][0]
    assert rows[1][header.index("error")] == ""

    failed, intact = json.loads(out_json.read_text())["rows"]
    assert "mass ratio 1e-300" in failed["error"]
    assert all(failed[key] is None
               for key in ("duration", "duration_s", "fidelity",
                           "phonon_distribution", "reduced_density"))
    assert main(["sweep", "--config", cfg, "--m", "1", "--mu-start", "1",
                 "--mu-stop", "1", "--mu-points", "1",
                 "--out", str(alone_json)] + json_flags) == 0
    assert [intact] == json.loads(alone_json.read_text())["rows"]
    assert intact["error"] is None and intact["reduced_density"] is not None


def test_sweep_row_whose_omega_prime_overflows_names_it(tmp_path, capsys):
    # every eta is about 1e292, so Omega'^2 overflows: the row used to
    # print numpy RuntimeWarnings and then read as a missed maximum
    cfg = write_chain(tmp_path, k_projection="1e300")
    out = tmp_path / "sweep.csv"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["sweep", "--config", cfg, "--m", "1", "--mu-start", "1",
                     "--mu-stop", "1", "--mu-points", "1",
                     "--out", str(out)]) == 0
    _, header, rows = read_csv(out)
    assert "Omega' = inf" in rows[0][header.index("error")]
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert "RuntimeWarning" not in capsys.readouterr().err
    # the peak eta is printed to three significant digits, not 298
    lamb_dicke = [str(w.message) for w in caught
                  if issubclass(w.category, LambDickeWarning)]
    short = re.compile(r"max \|eta\| = \d\.\d\de\+\d+ exceeds")
    assert lamb_dicke and all(short.match(m) for m in lamb_dicke)


@pytest.mark.parametrize("flags,message", [
    (["--m", "0"], "--m"),
    (["--m", "3"], "--m"),  # the chain has 2 qubit ions
    (["--m", "-1"], "--m"),
    (["--mu-stop", "inf"], "mass ratios"),
    (["--mu-start", "nan"], "mass ratios"),
    (["--mu-start=-inf", "--mu-points", "1"], "mass ratios"),
    (["--carrier-rate", "nan"], "--carrier-rate"),
    (["--carrier-rate", "inf"], "--carrier-rate"),
    (["--carrier-rate", "0"], "--carrier-rate"),
    (["--carrier-rate=-1e6"], "--carrier-rate"),
])
def test_sweep_bad_flag_exits_1(tmp_path, capsys, flags, message):
    cfg = write_chain(tmp_path)
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--config", cfg, "--mu-points", "3",
                 "--out", str(out)] + flags) == 1
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command,message", [
    ("sweep", "--mu-points must be >= 1"),
    ("synth", "--shots must be >= 0"),
])
def test_count_flag_below_range_exits_1(tmp_path, capsys, command, message):
    args = (["sweep", "--config", write_chain(tmp_path), "--mu-points", "0"]
            if command == "sweep" else
            ["synth", "--c0", "1", "--c1", "0", "--c2", "0", "--shots", "-1"])
    out = tmp_path / "out.txt"
    assert main(args + ["--out", str(out)]) == 1
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("n", [12, 13, 14])
def test_json_sweep_past_twelve_qubits_exits_1_before_solving(
        tmp_path, capsys, monkeypatch, n):
    # a JSON row holds the dense 2^N x 2^N reduced density, 1.1 GB at
    # N = 13 and 4.3 GB at N = 14
    def refuse(*args):
        raise AssertionError("the sweep ran")

    monkeypatch.setattr(cli, "fidelity_vs_mass_ratio", refuse)
    cfg = write_chain(tmp_path, masses=", ".join(["25"] * (n + 1)),
                      ancilla=f"ancilla_index = {n}\n")
    out = tmp_path / "sweep.json"
    sweep = ["sweep", "--config", cfg, "--m", "1", "--mu-points", "1",
             "--format", "json", "--out", str(out)]
    if n == 12:
        with pytest.raises(AssertionError, match="the sweep ran"):
            main(sweep)
        return
    assert main(sweep) == 1
    size = {13: "8192 x 8192 reduced density per row (1.1 GB at 13",
            14: "16384 x 16384 reduced density per row (4.3 GB at 14"}[n]
    err = capsys.readouterr().err
    assert size in err and "at most 12; use --format csv" in err
    assert not out.exists()


def test_csv_sweep_reaches_sixteen_qubits(tmp_path):
    # an edge-ancilla chain at (16, 8): 39,203 sector states per row; at
    # mu = 1 the couplings are equal
    cfg = write_chain(tmp_path, masses=", ".join(["25"] * 17),
                      ancilla="ancilla_index = 16\n")
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--config", cfg, "--m", "8", "--mu-start", "1",
                 "--mu-stop", "1.08", "--mu-points", "2",
                 "--out", str(out)]) == 0
    _, header, rows = read_csv(out)
    assert [row[header.index("error")] for row in rows] == ["", ""]
    equal = first_max_from_couplings(np.ones(16), 8)
    fids = [float(row[header.index("fidelity")]) for row in rows]
    assert fids[0] == pytest.approx(equal.fidelity, abs=1e-10)
    assert 0.9 < fids[1] < fids[0]
    for row in rows:
        probs = [float(row[header.index(f"p{k}")]) for k in range(9)]
        assert sum(probs) == pytest.approx(1.0, abs=1e-12)


# --- ancilla slot ---------------------------------------------------------------


@pytest.mark.parametrize("command,chain,code", [
    # experiment addresses the non-ancilla ions itself, so its reference
    # may be the ancilla; a sweep scales the ancilla by the reference mass
    ("experiment", {"reference": 2}, 0),
    ("sweep", {"reference": 2}, 2),
    ("experiment", {"ancilla": ""}, 2),
    ("sweep", {"ancilla": ""}, 2),
    ("experiment", {"masses": "25, 25, 25, 27",
                    "ancilla": "ancilla_index = 3\n"}, 2),
], ids=["experiment-reference-is-ancilla", "sweep-reference-is-ancilla",
        "experiment-no-ancilla", "sweep-no-ancilla", "experiment-3-qubits"])
def test_ancilla_slot_exit_codes(tmp_path, capsys, command, chain, code):
    cfg = write_chain(tmp_path, **chain)
    flags = (["--shots", "500", "--seed", "0"] if command == "experiment"
             else ["--mu-points", "3"])
    assert main([command, "--config", cfg, "--out", str(tmp_path / "out")]
                + flags) == code
    if code:
        assert capsys.readouterr().err.startswith("dickesim: data error:")


# --- experiment -----------------------------------------------------------------


def test_csv_sweep_builds_no_density(tmp_path, monkeypatch):
    # only the JSON rows read reduced_density, so a CSV sweep writes the
    # same bytes when tracing out the motion would fail
    from dickesim import sideband

    cfg = write_chain(tmp_path, masses="25, 25, 25",
                      ancilla="ancilla_index = 1\n")
    sweep = ["sweep", "--config", cfg, "--m", "1", "--mu-start", "1e-300",
             "--mu-stop", "10", "--mu-points", "4", "--mu-log",
             "--carrier-rate", "1e6"]
    plain, patched = tmp_path / "plain.csv", tmp_path / "patched.csv"
    assert main(sweep + ["--out", str(plain)]) == 0

    def refuse(*args):
        raise AssertionError("the sweep built a density")

    monkeypatch.setattr(sideband, "reduce_to_qubits", refuse)
    assert main(sweep + ["--out", str(patched)]) == 0
    assert patched.read_bytes() == plain.read_bytes()
    _, header, rows = read_csv(patched)
    errors = [row[header.index("error")] for row in rows]
    assert "" in errors and any(errors)  # intact and failed rows
    with pytest.raises(AssertionError, match="built a density"):
        main(sweep + ["--format", "json", "--out", str(tmp_path / "s.json")])


def test_experiment_report(tmp_path):
    cfg = write_chain(tmp_path)
    out = tmp_path / "report.json"
    assert main(["experiment", "--config", cfg, "--shots", "4000",
                 "--seed", "5", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["schema"] == "experiment.v1"
    f_sim = report["fidelity"]["simulated"]
    f_hat = report["fidelity"]["value"]
    assert f_sim == pytest.approx(0.99997, abs=1e-4)
    assert abs(f_hat - f_sim) < 0.05
    assert report["parity_scan"]["amplitude"] < 0.05
    assert report["parity_scan_double"]["period_estimate"] == pytest.approx(
        np.pi, rel=0.05)
    assert report["population_fit"]["n_samples"] == 4000
    # calibrated composites reproduce the truth even though the background
    # rate itself is only identified up to the documented ridge
    assert report["calibration"]["chi2_bright"] > 0


def test_experiment_byte_identical_under_seed(tmp_path):
    cfg = write_chain(tmp_path)
    out_a = tmp_path / "a.json"
    out_b = tmp_path / "b.json"
    args = ["experiment", "--config", cfg, "--shots", "2000", "--seed", "7"]
    assert main(args + ["--out", str(out_a)]) == 0
    assert main(args + ["--out", str(out_b)]) == 0
    assert out_a.read_bytes() == out_b.read_bytes()


def test_experiment_refuses_few_shots(tmp_path):
    cfg = write_chain(tmp_path)
    assert main(["experiment", "--config", cfg, "--shots", "10"]) == 1


@pytest.mark.parametrize("n_bootstrap", [0, 1, 3])
def test_run_experiment_needs_four_resamples(tmp_path, n_bootstrap):
    # the parity scans take n_bootstrap // 2 resamples, which need >= 2
    chain_file = read_chain_file(write_chain(tmp_path))
    with pytest.raises(ValueError, match="n_bootstrap"):
        run_experiment(chain_file, shots=1000, seed=0, n_bootstrap=n_bootstrap)


@pytest.mark.parametrize("n_bootstrap", [4.5, True, 8.0])
def test_run_experiment_takes_an_integer_resample_count_before_any_work(
        tmp_path, monkeypatch, n_bootstrap):
    # 4.5 once ran the pulse, synthesis, calibration and population fit
    # before the fit rejected it, and True was "must be >= 4, got True"
    def never(*args):
        raise AssertionError("the pulse search ran")

    monkeypatch.setattr(experiment, "first_max_fidelity", never)
    chain_file = read_chain_file(write_chain(tmp_path))
    with pytest.raises(ValueError, match="n_bootstrap must be an integer"):
        run_experiment(chain_file, shots=1000, seed=0, n_bootstrap=n_bootstrap)


def test_run_experiment_four_resamples_give_finite_errors(tmp_path):
    rep = run_experiment(read_chain_file(write_chain(tmp_path)), shots=1000,
                         seed=0, n_bootstrap=4)
    assert np.all(np.isfinite(rep["population_fit"]["std_errors"]))
    for scan in ("parity_scan", "parity_scan_double"):
        assert np.all(np.isfinite(rep[scan]["parity_errors"]))
    assert np.isfinite(rep["fidelity"]["error"])


# --- synth and fit --------------------------------------------------------------


def test_synth_deterministic(tmp_path):
    out_a = tmp_path / "a.txt"
    out_b = tmp_path / "b.txt"
    args = ["synth", "--c0", "0.08", "--c1", "0.80", "--c2", "0.12",
            "--shots", "500", "--seed", "3"]
    assert main(args + ["--out", str(out_a)]) == 0
    assert main(args + ["--out", str(out_b)]) == 0
    assert out_a.read_bytes() == out_b.read_bytes()
    values = [int(line) for line in out_a.read_text().splitlines()]
    assert len(values) == 500
    assert all(0 <= v <= 100 for v in values)


def test_synth_seed_comes_from_the_flag_alone(tmp_path, monkeypatch):
    # the environment is not a seed source: no --seed is --seed 0
    out_env = tmp_path / "env.txt"
    out_zero = tmp_path / "zero.txt"
    base = ["synth", "--c0", "0.1", "--c1", "0.8", "--c2", "0.1",
            "--shots", "200"]
    monkeypatch.setenv("DICKESIM_SEED", "42")
    assert main(base + ["--out", str(out_env)]) == 0
    monkeypatch.delenv("DICKESIM_SEED")
    assert main(base + ["--seed", "0", "--out", str(out_zero)]) == 0
    assert out_env.read_bytes() == out_zero.read_bytes()


def test_synth_rejects_bad_simplex():
    assert main(["synth", "--c0", "0.5", "--c1", "0.1", "--c2", "0.1",
                 "--shots", "10"]) == 1


def test_synth_rejects_nan_population(tmp_path, capsys):
    out = tmp_path / "s.txt"
    assert main(["synth", "--c0", "nan", "--c1", "0.5", "--c2", "0.5",
                 "--shots", "10", "--out", str(out)]) == 1
    assert "--c0/--c1/--c2" in capsys.readouterr().err
    assert not out.exists()


def _seeded_command(command, tmp_path):
    """Arguments of a short run of ``command`` that reads a seed."""
    if command == "synth":
        return ["synth", "--c0", "1", "--c1", "0", "--c2", "0",
                "--shots", "10"]
    if command == "experiment":
        return ["experiment", "--config", write_chain(tmp_path),
                "--shots", "100"]
    return _fit_inputs(tmp_path, 500, 2000) + ["--bootstrap", "2"]


@pytest.mark.parametrize("command", ["synth", "fit", "experiment"])
@pytest.mark.parametrize("source", ["--seed"])
def test_negative_seed_exits_1(tmp_path, capsys, command, source):
    out = tmp_path / "out.txt"
    args = _seeded_command(command, tmp_path) + ["--out", str(out),
                                                 source, "-1"]
    capsys.readouterr()
    assert main(args) == 1
    assert f"{source} must be >= 0" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("args,message", [
    (["experiment", "--seed", "-1"], "--seed must be >= 0"),
    (["experiment", "--lambda-bright", "0.1"], "readout model flags"),
    (["fit", "--seed", "-1"], "--seed must be >= 0"),
    (["sweep", "--carrier-rate", "0"], "--carrier-rate"),
    (["sweep", "--mu-points", "0"], "--mu-points must be >= 1"),
], ids=["experiment-seed", "experiment-model", "fit-seed",
        "sweep-carrier-rate", "sweep-mu-points"])
def test_usage_error_comes_before_any_file_is_read(tmp_path, capsys, args,
                                                   message):
    # every input file is missing, which reading would report as exit 2
    missing = str(tmp_path / "missing")
    files = (["--shots", missing, "--ref-bright", missing,
              "--ref-dark", missing] if args[0] == "fit"
             else ["--config", missing])
    out = tmp_path / "out"
    assert main(args + files + ["--out", str(out)]) == 1
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_synth_checks_its_seed_before_building_the_count_model(
        tmp_path, capsys, monkeypatch):
    def refuse(*args):
        raise AssertionError("the count model was built")

    monkeypatch.setattr(cli, "composite_dists", refuse)
    out = tmp_path / "s.txt"
    assert main(["synth", "--c0", "1", "--c1", "0", "--c2", "0",
                 "--seed", "-1", "--out", str(out)]) == 1
    assert "--seed must be >= 0" in capsys.readouterr().err
    assert not out.exists()


def _write_reference_histogram(path, counts):
    hist = np.bincount(counts, minlength=101)
    with open(path, "w") as fh:
        fh.write("n,count\n")
        for n, c in enumerate(hist):
            fh.write(f"{n},{c}\n")


def _fit_inputs(tmp_path, shots, ref_shots):
    """Synthetic shot and reference files; returns the `fit` arguments
    that name them."""
    shots_file = tmp_path / "shots.txt"
    assert main(["synth", "--c0", "0.08", "--c1", "0.80", "--c2", "0.12",
                 "--shots", str(shots), "--seed", "11",
                 "--out", str(shots_file)]) == 0
    bright_file = tmp_path / "bright.txt"
    dark_file = tmp_path / "dark.txt"
    assert main(["synth", "--c0", "0", "--c1", "0", "--c2", "1",
                 "--shots", str(ref_shots), "--seed", "12",
                 "--out", str(bright_file)]) == 0
    assert main(["synth", "--c0", "1", "--c1", "0", "--c2", "0",
                 "--shots", str(ref_shots), "--seed", "13",
                 "--out", str(dark_file)]) == 0
    _write_reference_histogram(
        tmp_path / "bright.csv",
        np.array([int(x) for x in bright_file.read_text().split()]))
    _write_reference_histogram(
        tmp_path / "dark.csv",
        np.array([int(x) for x in dark_file.read_text().split()]))
    return ["fit", "--shots", str(shots_file),
            "--ref-bright", str(tmp_path / "bright.csv"),
            "--ref-dark", str(tmp_path / "dark.csv")]


def test_fit_round_trip(tmp_path):
    out = tmp_path / "fit.json"
    assert main(_fit_inputs(tmp_path, 20000, 50000)
                + ["--seed", "14", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    c = report["populations"]
    assert abs(c[0] - 0.08) < 0.02
    assert abs(c[1] - 0.80) < 0.02
    assert abs(c[2] - 0.12) < 0.02
    assert report["parity"] == pytest.approx(-0.60, abs=0.04)


def test_every_option_has_help_and_t_detect_reads_alike():
    # every option of the program and of each subcommand says what it
    # does; fit's --t-detect is added by hand beside the generated
    # readout-model flags of experiment and synth, and must read as they do
    parser = cli.build_parser()
    commands = next(a for a in parser._actions
                    if isinstance(a, argparse._SubParsersAction)).choices
    assert list(commands) == ["modes", "sweep", "experiment", "fit", "synth"]
    for command in (parser, *commands.values()):
        assert all(action.help for action in command._actions
                   if action.option_strings)

    def t_detect_help(command):
        action, = (a for a in commands[command]._actions
                   if "--t-detect" in a.option_strings)
        return action.help

    assert (t_detect_help("fit") == t_detect_help("experiment")
            == t_detect_help("synth") == cli._MODEL_FLAG_HELP["t_detect"])


@pytest.mark.parametrize("n_bootstrap", ["1", "-3"])
def test_fit_bad_bootstrap_exits_1(tmp_path, capsys, n_bootstrap):
    out = tmp_path / "fit.json"
    assert main(_fit_inputs(tmp_path, 500, 2000)
                + ["--bootstrap", n_bootstrap, "--out", str(out)]) == 1
    assert "--bootstrap" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("n_max", ["0", "-5"])
def test_fit_n_max_below_one_exits_1(tmp_path, capsys, n_max):
    out = tmp_path / "fit.json"
    assert main(_fit_inputs(tmp_path, 500, 2000)
                + ["--n-max", n_max, "--out", str(out)]) == 1
    assert "--n-max" in capsys.readouterr().err
    assert not out.exists()


def test_fit_empty_shot_file_exits_2(tmp_path, capsys):
    shots = tmp_path / "shots.txt"
    shots.write_text("")
    refs = tmp_path / "ref.csv"
    refs.write_text("n,count\n0,10\n1,20\n")
    code = main(["fit", "--shots", str(shots), "--ref-bright", str(refs),
                 "--ref-dark", str(refs)])
    assert code == 2


@pytest.mark.parametrize("bad", ["shots", "ref"])
def test_fit_non_utf8_input_exits_2(tmp_path, capsys, bad):
    shots = tmp_path / "shots.txt"
    shots.write_text("3\n5\n")
    refs = tmp_path / "ref.csv"
    refs.write_text("n,count\n0,10\n1,20\n")
    target = shots if bad == "shots" else refs
    target.write_bytes(b"# caf\xe9\n" + target.read_bytes())
    code = main(["fit", "--shots", str(shots), "--ref-bright", str(refs),
                 "--ref-dark", str(refs)])
    assert code == 2
    assert "UTF-8" in capsys.readouterr().err


def test_fit_count_beyond_n_max_names_line(tmp_path, capsys):
    shots = tmp_path / "shots.txt"
    shots.write_text("3\n5\n400\n")
    refs = tmp_path / "ref.csv"
    refs.write_text("n,count\n0,10\n1,20\n")
    code = main(["fit", "--shots", str(shots), "--ref-bright", str(refs),
                 "--ref-dark", str(refs)])
    assert code == 2
    err = capsys.readouterr().err
    assert "shots.txt:3" in err
    assert "400" in err


@pytest.mark.parametrize("target,text,fragment", [
    ("shots", "3\n2.5\n", "shots.txt:2: not an integer count"),
    ("ref", "n,count\n0,10\n1,2,3\n", "ref.csv:3: expected 'n,count'"),
    ("ref", "n,count\n0,ten\n", "ref.csv:2: bad histogram row"),
    ("ref", "n,count\n0,10\n11,2\n", "ref.csv:3: bin 11 outside [0, 10]"),
], ids=["shot-not-integer", "three-fields", "non-numeric", "bin-above-n-max"])
def test_fit_bad_input_line_exits_2(tmp_path, capsys, target, text, fragment):
    shots = tmp_path / "shots.txt"
    shots.write_text("3\n5\n")
    refs = tmp_path / "ref.csv"
    refs.write_text("n,count\n0,10\n1,20\n")
    (shots if target == "shots" else refs).write_text(text)
    assert main(["fit", "--shots", str(shots), "--ref-bright", str(refs),
                 "--ref-dark", str(refs), "--n-max", "10"]) == 2
    assert fragment in capsys.readouterr().err


@pytest.mark.parametrize("count", ["nan", "inf", "-inf"])
def test_fit_nonfinite_histogram_count_exits_2(tmp_path, capsys, count):
    shots = tmp_path / "shots.txt"
    shots.write_text("3\n5\n")
    good = tmp_path / "good.csv"
    good.write_text("n,count\n0,10\n1,20\n")
    bad = tmp_path / "bad.csv"
    bad.write_text(f"n,count\n0,10\n1,{count}\n")
    out = tmp_path / "fit.json"
    code = main(["fit", "--shots", str(shots), "--ref-bright", str(bad),
                 "--ref-dark", str(good), "--out", str(out)])
    assert code == 2
    assert "bad.csv:3" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("value", ["nan", "0", "-1", "inf"])
def test_fit_bad_t_detect_exits_1(tmp_path, capsys, value):
    out = tmp_path / "fit.json"
    assert main(_fit_inputs(tmp_path, 500, 2000)
                + [f"--t-detect={value}", "--out", str(out)]) == 1
    assert "--t-detect" in capsys.readouterr().err
    assert not out.exists()


def test_fit_calibration_failure_exits_3(tmp_path, capsys, monkeypatch):
    from scipy import optimize

    def minimize(fun, x0, **kwargs):
        return optimize.OptimizeResult(
            x=x0, fun=fun(x0), success=False, message="ABNORMAL", nit=2,
            nfev=9)

    args = _fit_inputs(tmp_path, 500, 2000)
    monkeypatch.setattr(optimize, "minimize", minimize)
    assert main(args + ["--out", str(tmp_path / "fit.json")]) == 3
    assert "ABNORMAL (nit=2, nfev=9)" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["synth", "experiment"])
@pytest.mark.parametrize("flag,value", [
    ("--lambda-bright", "nan"),
    ("--t-detect", "inf"),
    ("--gamma", "-inf"),
    ("--lambda-bg", "-1"),
    ("--t-detect", "0"),
])
def test_bad_readout_model_flag_exits_1(tmp_path, capsys, command, flag,
                                        value):
    cfg = write_chain(tmp_path)
    args = {"synth": ["synth", "--c0", "1", "--c1", "0", "--c2", "0"],
            "experiment": ["experiment", "--config", cfg]}[command]
    assert main(args + [f"{flag}={value}"]) == 1
    assert "readout model flags" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["synth", "experiment"])
@pytest.mark.parametrize("flags", [
    ["--lambda-bright", "0"],
    ["--lambda-bright", "0.3", "--lambda-dark", "0.3"],
])
def test_unresolvable_readout_exits_1(tmp_path, capsys, command, flags):
    cfg = write_chain(tmp_path)
    out = tmp_path / "out"
    args = {"synth": ["synth", "--c0", "1", "--c1", "0", "--c2", "0"],
            "experiment": ["experiment", "--config", cfg]}[command]
    assert main(args + flags + ["--out", str(out)]) == 1
    assert "--lambda-bright must exceed --lambda-dark" in (
        capsys.readouterr().err)
    assert not out.exists()


def test_experiment_builds_no_count_model_after_calibration(tmp_path,
                                                            monkeypatch):
    # the fits reuse the distributions calibrate built for its own model
    from dickesim import detection, experiment

    misses = []

    def calibrate(*args, **kwargs):
        result = detection.calibrate(*args, **kwargs)
        misses.append(detection.composite_dists.cache_info().misses)
        return result

    monkeypatch.setattr(experiment, "calibrate", calibrate)
    detection.composite_dists.cache_clear()
    assert main(["experiment", "--config", write_chain(tmp_path),
                 "--shots", "2000", "--seed", "3",
                 "--out", str(tmp_path / "r.json")]) == 0
    assert detection.composite_dists.cache_info().misses == misses[0]
