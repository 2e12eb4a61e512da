import numpy as np
import pytest
from conftest import bright_populations_loop

import dickesim.cli
from dickesim import QubitDensity, experiment


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
