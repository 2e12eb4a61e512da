import dataclasses
import inspect

import numpy as np
import pytest
from conftest import bright_populations_loop

import dickesim.cli
from dickesim import (ChainConfig, QubitDensity, ReadoutModel, experiment,
                      synthesize_shots)
from dickesim.chain import ChainFile

MG_MG_AL = ChainFile(
    config=ChainConfig(masses=(25.0, 25.0, 27.0), reference_index=0,
                       omega_z=2 * np.pi * 2.55e6, k_projection=1.1e7),
    ancilla_index=2, omega_z_hz=2.55e6)


@pytest.mark.parametrize("n_qubits", range(1, 7))
def test_bright_populations_equal_the_per_index_loop(n_qubits):
    rng = np.random.default_rng(40 + n_qubits)
    dim = 2**n_qubits
    for _ in range(10):
        a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        a[rng.integers(dim)] = 0.0  # one empty basis state ...
        rho = a @ a.conj().T
        rho /= np.trace(rho).real
        empty = np.flatnonzero(np.diag(rho).real == 0.0)[0]
        rho[empty, empty] = -1e-13  # ... that rounding left just below 0
        rho = QubitDensity(matrix=rho, n_qubits=n_qubits)
        c = experiment._bright_populations(rho)
        assert c.shape == (n_qubits + 1,)
        assert np.array_equal(c, bright_populations_loop(rho))


def test_cli_runs_the_library_experiment():
    assert dickesim.cli.run_experiment is experiment.run_experiment
    assert dickesim.run_experiment is experiment.run_experiment


def test_default_readout_model_is_one_readout_model():
    # run_experiment's default and every model flag's default read the
    # same ReadoutModel, and the flags' dests are its field names
    default = experiment.DEFAULT_MODEL
    assert isinstance(default, ReadoutModel)
    signature = inspect.signature(experiment.run_experiment)
    assert signature.parameters["model"].default is default
    parser = dickesim.cli.build_parser()
    for argv in (["experiment", "--config", "c"],
                 ["synth", "--c0", "1", "--c1", "0", "--c2", "0"]):
        args = parser.parse_args(argv)
        assert dickesim.cli._model_from_args(args) == default
    assert list(dataclasses.asdict(default)) == [
        f.name for f in dataclasses.fields(ReadoutModel)]


@pytest.mark.parametrize("shots", [100, 10_000, 50_000])
def test_experiment_records_bin_the_shots_of_synthesize_shots(monkeypatch,
                                                              shots):
    # each record bins its counts component by component as they are
    # drawn; it is the histogram of synthesize_shots' shot array for the
    # same populations and seed.  The references hold one component each.
    draws, hists = [], []

    def spy(name, take):
        real = getattr(experiment, name)

        def call(*args, **kwargs):
            take(*args)
            return real(*args, **kwargs)
        monkeypatch.setattr(experiment, name, call)

    spy("_shot_draws", lambda *args: draws.append(args))
    spy("calibrate", lambda bright, dark: hists.extend([bright, dark]))
    spy("ml_fit", lambda hist, cm: hists.append(hist))
    spy("parity_scan_analysis",
        lambda scan, cm: hists.extend(h for _, h in scan))
    experiment.run_experiment(MG_MG_AL, shots, seed=3, n_bootstrap=4)
    assert len(draws) == len(hists) == 3 + 2 * experiment.N_PHASES
    assert sum(np.count_nonzero(np.asarray(c) == 0.0) for c, *_ in draws) >= 4
    for (c, cm, n, seed), hist in zip(draws, hists):
        shot_array = synthesize_shots(c, cm, n, seed)
        assert np.array_equal(hist, np.bincount(shot_array,
                                                minlength=cm.shape[1]))


def test_certified_fidelity_over_seeds_pins_the_boundary_bias():
    # Monte Carlo oracle for the certified fidelity: 40 experiments on the
    # Mg-Mg-Al chain at 5,000 shots, z = (value - simulated) / error.  An
    # unbiased report with a faithful error gives mean z ~ 0 and |z| < 2 in
    # ~95% of seeds.  This pins a program defect as it stands: near F = 1
    # both the odd population and the coherence term sit at a physical
    # bound, and the report reads about one error low (mean z -0.95 and
    # 90% within 2 over seeds 0-199; these 40 seeds give -1.10 and 34 of
    # 40).  A boundary-aware lower bound should move these numbers.
    z = []
    for seed in range(40):
        f = experiment.run_experiment(MG_MG_AL, 5_000, seed=seed)["fidelity"]
        z.append((f["value"] - f["simulated"]) / f["error"])
    z = np.array(z)
    assert np.mean(z) == pytest.approx(-1.0973, abs=1e-3)
    # the |z| nearest 2 are 1.83 and 2.04
    assert int(np.sum(np.abs(z) < 2)) == 34
