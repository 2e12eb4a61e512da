import json

import numpy as np
import pytest
from conftest import (QubitState, assert_identity_semantics,
                      coherence_two_qubit, density_from_json_dict,
                      dicke_fidelity, dicke_state, fidelity_two_qubit,
                      parity_expectation, rotated_parity, state_from_json_dict,
                      state_to_json_dict, w_fidelity_analytic)

from dickesim import QubitDensity, collective_rotation, rotated_density
from dickesim.cli import _density_json, _json_default
from dickesim.dicke import weights


def random_density(n_qubits, rng):
    dim = 2**n_qubits
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = a @ a.conj().T
    rho /= np.trace(rho).real
    return QubitDensity(matrix=rho, n_qubits=n_qubits)


def w_state_from_couplings(couplings):
    """Single-excitation state with amplitudes proportional to the
    couplings (the state produced by the shared pulse at full transfer)."""
    om = np.asarray(couplings, dtype=float)
    n = len(om)
    amps = np.zeros(2**n, dtype=complex)
    for i in range(n):
        amps[1 << (n - 1 - i)] = om[i]
    amps /= np.linalg.norm(amps)
    return QubitState(amplitudes=amps, n_qubits=n)


# --- Dicke states -------------------------------------------------------------


def test_dicke_2_1_is_bell_like():
    state = dicke_state(2, 1)
    assert state.amplitudes == pytest.approx(
        np.array([0, 1, 1, 0]) / np.sqrt(2))


def test_dicke_3_0_is_all_down():
    state = dicke_state(3, 0)
    expected = np.zeros(8)
    expected[0] = 1.0
    assert state.amplitudes == pytest.approx(expected)


def test_dicke_4_2_has_six_equal_amplitudes():
    state = dicke_state(4, 2)
    nonzero = np.flatnonzero(np.abs(state.amplitudes) > 1e-15)
    assert [bin(b).count("1") for b in nonzero] == [2] * 6
    assert state.amplitudes[nonzero] == pytest.approx(
        np.full(6, 1 / np.sqrt(6)))


def test_dicke_state_rejects_bad_m():
    with pytest.raises(ValueError):
        dicke_state(3, 4)
    with pytest.raises(ValueError):
        dicke_state(3, -1)


def test_dicke_state_permutation_invariant():
    state = dicke_state(4, 2)
    for perm in [(1, 0, 2, 3), (3, 2, 1, 0), (2, 0, 3, 1)]:
        permuted = np.empty_like(state.amplitudes)
        for idx in range(16):
            bits = [(idx >> (3 - q)) & 1 for q in range(4)]
            new_idx = sum(bits[perm[q]] << (3 - q) for q in range(4))
            permuted[new_idx] = state.amplitudes[idx]
        assert permuted == pytest.approx(state.amplitudes)


# --- analytic W fidelity ------------------------------------------------------


def test_w_fidelity_equal_couplings_is_one():
    for n in range(1, 7):
        assert w_fidelity_analytic([1.0] * n) == pytest.approx(1.0)


def test_w_fidelity_single_coupling():
    assert w_fidelity_analytic([1.0, 0.0]) == pytest.approx(0.5)


def test_w_fidelity_hand_value():
    assert w_fidelity_analytic([3.0, 4.0]) == pytest.approx(0.98)


def test_w_fidelity_rejects_all_zero():
    with pytest.raises(ValueError):
        w_fidelity_analytic([0.0, 0.0])


def test_w_fidelity_matches_overlap_with_dicke_state():
    rng = np.random.default_rng(7)
    for _ in range(25):
        n = rng.integers(2, 7)
        om = rng.uniform(0.1, 2.0, size=n)
        rho = w_state_from_couplings(om).density()
        assert dicke_fidelity(rho, 1) == pytest.approx(
            w_fidelity_analytic(om), abs=1e-12)


# --- collective rotations -----------------------------------------------------


def test_rotation_zero_angle_is_identity():
    for n in (1, 2, 3):
        assert collective_rotation(0.0, 1.23, n) == pytest.approx(np.eye(2**n))


def test_rotation_pi_maps_down_to_minus_i_up():
    r = collective_rotation(np.pi, 0.0, 1)
    out = r @ np.array([1.0, 0.0])
    assert out == pytest.approx(np.array([0.0, -1.0j]))


def test_rotation_unitary():
    rng = np.random.default_rng(11)
    for _ in range(20):
        n = int(rng.integers(1, 6))
        theta, phi = rng.uniform(-np.pi, np.pi, size=2)
        r = collective_rotation(theta, phi, n)
        assert np.max(np.abs(r @ r.conj().T - np.eye(2**n))) < 1e-12


def test_half_pi_rotation_of_w_state_has_even_parity_any_phase():
    rho = dicke_state(2, 1).density()
    for phi in np.linspace(0, 2 * np.pi, 9):
        assert rotated_parity(rho, np.pi / 2, phi) == pytest.approx(1.0)


# --- parity -------------------------------------------------------------------


def test_parity_all_down_plus_one():
    rho = QubitDensity(matrix=np.diag([1.0, 0, 0, 0]).astype(complex),
                       n_qubits=2)
    assert parity_expectation(rho) == pytest.approx(1.0)


def test_parity_w_state_minus_one():
    assert parity_expectation(dicke_state(2, 1).density()) == pytest.approx(-1.0)


def test_parity_from_populations():
    # populations 0.08 (both up), 0.80 (odd), 0.12 (both down), no coherence
    rho = QubitDensity(matrix=np.diag([0.12, 0.40, 0.40, 0.08]).astype(complex),
                       n_qubits=2)
    assert parity_expectation(rho) == pytest.approx(-0.60)


def test_parity_bounds():
    rng = np.random.default_rng(3)
    for _ in range(30):
        rho = random_density(int(rng.integers(1, 4)), rng)
        assert abs(parity_expectation(rho)) <= 1.0 + 1e-12


def test_rotated_parity_identity_rotation():
    rho = QubitDensity(matrix=np.diag([1.0, 0, 0, 0]).astype(complex),
                       n_qubits=2)
    assert rotated_parity(rho, 0.0, 0.0) == pytest.approx(1.0)


def test_rotated_parity_maximally_mixed_is_zero():
    rho = QubitDensity(matrix=np.eye(4, dtype=complex) / 4, n_qubits=2)
    for theta, phi in [(0.3, 0.1), (np.pi / 2, 1.0), (2.0, -0.5)]:
        assert rotated_parity(rho, theta, phi) == pytest.approx(0.0, abs=1e-12)


def test_parity_oscillation_period_pi():
    # after one pi/2 pulse the W state acquires a parity fringe in the
    # second pulse phase with period pi and full contrast
    rho = rotated_density(dicke_state(2, 1).density(), np.pi / 2, 0.0)
    phis = np.arange(12) * np.pi / 12
    values = np.array([rotated_parity(rho, np.pi / 2, phi) for phi in phis])
    for phi, val in zip(phis, values):
        assert rotated_parity(rho, np.pi / 2, phi + np.pi) == pytest.approx(val)
    # discrete Fourier projection picks out a unit-amplitude 2 phi harmonic
    second_harmonic = 2.0 / len(phis) * np.abs(values @ np.exp(-2j * phis))
    mean = np.mean(values)
    assert second_harmonic == pytest.approx(1.0, abs=1e-10)
    assert mean == pytest.approx(0.0, abs=1e-10)


# --- coherence identity and fidelities -----------------------------------------


def test_coherence_identity_random_densities():
    rng = np.random.default_rng(5)
    for _ in range(30):
        rho = random_density(2, rng)
        two_phase = 0.5 * (rotated_parity(rho, np.pi / 2, 0.0)
                           + rotated_parity(rho, np.pi / 2, np.pi / 2))
        assert coherence_two_qubit(rho) == pytest.approx(two_phase, abs=1e-10)


def test_fidelity_two_qubit_pure_w():
    assert fidelity_two_qubit(dicke_state(2, 1).density()) == pytest.approx(1.0)


def test_fidelity_two_qubit_all_down_is_zero():
    rho = QubitDensity(matrix=np.diag([1.0, 0, 0, 0]).astype(complex),
                       n_qubits=2)
    assert fidelity_two_qubit(rho) == pytest.approx(0.0)


def test_fidelity_two_qubit_from_population_and_coherence():
    # odd population 0.80 plus coherence term 0.74 gives F = 0.77
    rho = np.diag([0.12, 0.40, 0.40, 0.08]).astype(complex)
    rho[1, 2] = rho[2, 1] = 0.37
    rho = QubitDensity(matrix=rho, n_qubits=2)
    assert fidelity_two_qubit(rho) == pytest.approx(0.77)
    assert coherence_two_qubit(rho) == pytest.approx(0.74)


def test_fidelity_two_qubit_equals_dicke_fidelity():
    rng = np.random.default_rng(9)
    for _ in range(20):
        rho = random_density(2, rng)
        assert fidelity_two_qubit(rho) == pytest.approx(
            dicke_fidelity(rho, 1), abs=1e-12)


def test_fidelity_two_qubit_rejects_other_sizes():
    rho = QubitDensity(matrix=np.eye(8, dtype=complex) / 8, n_qubits=3)
    with pytest.raises(ValueError):
        fidelity_two_qubit(rho)


def test_dicke_fidelity_pure_state_is_one():
    for n, m in [(2, 1), (4, 2), (5, 3)]:
        assert dicke_fidelity(dicke_state(n, m).density(), m) == pytest.approx(1.0)


def test_dicke_fidelity_maximally_mixed():
    rho = QubitDensity(matrix=np.eye(4, dtype=complex) / 4, n_qubits=2)
    assert dicke_fidelity(rho, 1) == pytest.approx(0.25)


def test_dicke_fidelity_rejects_bad_m():
    rho = QubitDensity(matrix=np.eye(4, dtype=complex) / 4, n_qubits=2)
    with pytest.raises(ValueError):
        dicke_fidelity(rho, 3)


# --- validation and serialization ----------------------------------------------


def test_qubit_state_requires_unit_norm():
    with pytest.raises(ValueError):
        QubitState(amplitudes=np.array([1.0, 1.0]), n_qubits=1)


def test_qubit_density_validation():
    with pytest.raises(ValueError):
        QubitDensity(matrix=np.eye(3, dtype=complex) / 3, n_qubits=2)
    bad_trace = np.eye(4, dtype=complex)
    with pytest.raises(ValueError):
        QubitDensity(matrix=bad_trace, n_qubits=2)
    not_hermitian = np.eye(4, dtype=complex) / 4
    not_hermitian[0, 1] = 0.2
    with pytest.raises(ValueError):
        QubitDensity(matrix=not_hermitian, n_qubits=2)
    not_psd = np.diag([0.75, 0.75, -0.25, -0.25]).astype(complex)
    with pytest.raises(ValueError):
        QubitDensity(matrix=not_psd, n_qubits=2)


def test_state_json_round_trip():
    state = dicke_state(3, 1)
    data = state_to_json_dict(state)
    assert data["n_qubits"] == 3
    assert len(data["amplitudes"]) == 8
    back = state_from_json_dict(data)
    assert back.amplitudes == pytest.approx(state.amplitudes)


def test_collective_rotation_needs_a_qubit():
    with pytest.raises(ValueError, match="at least one qubit"):
        collective_rotation(np.pi / 2, 0.0, 0)


def test_density_json_round_trip():
    rng = np.random.default_rng(21)
    rho = random_density(2, rng)
    back = density_from_json_dict(_density_json(rho))
    assert np.max(np.abs(back.matrix - rho.matrix)) < 1e-12


def test_density_json_writes_every_entry_as_its_float_pair():
    # signed zeros, a subnormal and ordinary entries keep their exact text
    rho = QubitDensity(matrix=np.array([
        [0.5, complex(0.1, -0.0), 5e-324, 0.0],
        [0.1, 0.25, 0.05j, 0.0],
        [5e-324, -0.05j, 0.25, complex(-0.0, 0.0)],
        [0.0, 0.0, complex(-0.0, -0.0), complex(-0.0, 0.0)],
    ]), n_qubits=2)
    entries = {"n_qubits": 2,
               "matrix": [[[float(v.real), float(v.imag)] for v in row]
                          for row in rho.matrix]}

    def dump(data):
        return json.dumps(data, indent=2, sort_keys=True,
                          default=_json_default)

    assert "-0.0" in dump(entries) and "5e-324" in dump(entries)
    assert dump(_density_json(rho)) == dump(entries)


def test_qubit_density_compares_by_identity():
    assert_identity_semantics(lambda: dicke_state(2, 1).density())


def test_weights_count_the_set_bits_of_every_index():
    for n in range(13):
        assert weights(n).tolist() == [q.bit_count() for q in range(2**n)]
