import dataclasses
import inspect

import numpy as np
import pytest
from conftest import bright_populations_loop

import dickesim.cli
from dickesim import QubitDensity, ReadoutModel, experiment


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
