"""Exact constructions on the N-qubit space.

The dense N-qubit density matrix, the excitation weight of each basis
state, and collective rotations.  Basis convention: qubit 0 is the most
significant bit of the computational basis index and the leftmost label in
kets, with down = 0 and up = 1, so for two qubits the ordering is
(dd, du, ud, uu).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._frozen import freeze


def weights(n_qubits):
    """Excitation count (number of up qubits, the set bits of the index)
    of every basis state, as an integer array."""
    bits = np.arange(2**n_qubits)[:, None] >> np.arange(n_qubits)
    return (bits & 1).sum(axis=1)


@dataclass(frozen=True, eq=False)
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
