"""Exact constructions on the N-qubit space.

Dicke states, collective rotations, parity and fidelity measures.  Basis
convention: qubit 0 is the most significant bit of the computational basis
index and the leftmost label in kets, with down = 0 and up = 1, so for two
qubits the ordering is (dd, du, ud, uu).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

import numpy as np

from ._frozen import freeze


def weights(n_qubits):
    """Excitation count (number of up qubits, the set bits of the index)
    of every basis state, as an integer array."""
    return np.array([b.bit_count() for b in range(2**n_qubits)])


@dataclass(frozen=True)
class QubitState:
    """Pure N-qubit state: complex amplitudes over the 2^N basis."""

    amplitudes: np.ndarray
    n_qubits: int

    def __post_init__(self):
        freeze(self, complex, "amplitudes")
        if self.amplitudes.shape != (2**self.n_qubits,):
            raise ValueError("amplitude vector length must be 2**n_qubits")
        norm = np.linalg.norm(self.amplitudes)
        if abs(norm - 1.0) > 1e-12:
            raise ValueError(f"state norm {norm!r} is not 1")

    def density(self):
        """Projector |psi><psi| as a QubitDensity."""
        rho = np.outer(self.amplitudes, self.amplitudes.conj())
        return QubitDensity(matrix=rho, n_qubits=self.n_qubits)


@dataclass(frozen=True)
class QubitDensity:
    """N-qubit density matrix (Hermitian, unit trace, PSD within tolerance)."""

    matrix: np.ndarray
    n_qubits: int

    def __post_init__(self):
        freeze(self, complex, "matrix")
        rho = self.matrix
        dim = 2**self.n_qubits
        if rho.shape != (dim, dim):
            raise ValueError("density matrix must be 2^N x 2^N")
        if np.max(np.abs(rho - rho.conj().T)) > 1e-12:
            raise ValueError("density matrix must be Hermitian")
        tr = np.trace(rho).real
        if abs(tr - 1.0) > 1e-10:
            raise ValueError(f"density trace {tr!r} is not 1")
        min_eig = float(np.linalg.eigvalsh(rho)[0])
        if min_eig < -1e-10:
            raise ValueError(f"density matrix not PSD (min eigenvalue {min_eig:.3e})")

    def to_json_dict(self):
        return {
            "n_qubits": self.n_qubits,
            "matrix": [[[float(v.real), float(v.imag)] for v in row]
                       for row in self.matrix],
        }


def dicke_state(n, m):
    """The N-qubit Dicke state with m excitations: the equal superposition
    of all basis states of Hamming weight m."""
    if n < 1:
        raise ValueError("need at least one qubit")
    if not 0 <= m <= n:
        raise ValueError(f"excitation number m={m} outside 0..{n}")
    return QubitState(amplitudes=dicke_vector(n, m), n_qubits=n)


def dicke_vector(n, m):
    """Plain amplitude vector of :func:`dicke_state` (real dtype)."""
    v = np.zeros(2**n)
    v[weights(n) == m] = 1.0 / np.sqrt(comb(n, m))
    return v


def w_fidelity_analytic(couplings):
    """Closed-form fidelity of the single-excitation (W) state produced by a
    shared red-sideband pulse with per-ion couplings Omega_i:
    ``(sum Omega_i)^2 / (N * sum Omega_i^2)``."""
    om = np.asarray(couplings, dtype=float)
    if om.ndim != 1 or len(om) == 0:
        raise ValueError("couplings must be a non-empty 1-d sequence")
    ssq = float(np.sum(om * om))
    if ssq == 0.0:
        raise ValueError("at least one coupling must be nonzero")
    return float(np.sum(om)) ** 2 / (len(om) * ssq)


def collective_rotation(theta, phi, n):
    """The same rotation applied to every one of n qubits: R(theta,phi)^{(x)n},
    with the single-qubit R taking down -> cos(t/2) down - i e^{-i phi}
    sin(t/2) up and up -> -i e^{+i phi} sin(t/2) down + cos(t/2) up."""
    if n < 1:
        raise ValueError("need at least one qubit")
    c = np.cos(theta / 2.0)
    s = np.sin(theta / 2.0)
    r = np.array([
        [c, -1j * np.exp(+1j * phi) * s],
        [-1j * np.exp(-1j * phi) * s, c],
    ])
    full = np.array([[1.0 + 0j]])
    for _ in range(n):
        full = np.kron(full, r)
    return full


def rotated_density(rho, theta, phi):
    """Density matrix entering the rotated-parity trace,
    R^dagger(theta,phi) rho R(theta,phi)."""
    r = collective_rotation(theta, phi, rho.n_qubits)
    mat = r.conj().T @ rho.matrix @ r
    # re-hermitize to absorb rounding before validation
    mat = 0.5 * (mat + mat.conj().T)
    return QubitDensity(matrix=mat, n_qubits=rho.n_qubits)


def parity_expectation(rho):
    """Expectation of the parity operator: +1/-1 for an even/odd number of
    up qubits in each basis state (the two-qubit special case is
    dd + uu - du - ud)."""
    signs = (-1.0) ** weights(rho.n_qubits)
    return float(np.real(np.sum(signs * np.diag(rho.matrix))))


def rotated_parity(rho, theta, phi):
    """Parity after the collective analysis rotation:
    tr(R^dagger rho R Pi)."""
    return parity_expectation(rotated_density(rho, theta, phi))


def dicke_fidelity(rho, m):
    """Overlap <D(N,m)| rho |D(N,m)>."""
    if not 0 <= m <= rho.n_qubits:
        raise ValueError(f"excitation number m={m} outside 0..{rho.n_qubits}")
    d = dicke_vector(rho.n_qubits, m)
    val = np.real(d @ rho.matrix @ d)
    return float(val)
