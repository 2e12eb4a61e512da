"""Reference computations made apart from dickesim.

Nothing here imports the package under test.  The chain is solved with
scipy's trust-region Newton on an independently written potential, and the
pulse is propagated exactly in the conserved excitation sector (phonons
plus up-spins = m), which holds sum_{k<=m} C(N, k) states instead of the
program's 2^N (m + 1).
"""

from __future__ import annotations

from functools import lru_cache
from math import comb, pi, sqrt

import numpy as np
from scipy import optimize

HBAR = 1.054571817e-34  # J s (CODATA 2018, exact)
ATOMIC_MASS = 1.66053906660e-27  # kg (CODATA 2018)


# --- chain ------------------------------------------------------------------


def _potential(z):
    gaps = np.abs(z[None, :] - z[:, None])
    iu = np.triu_indices(len(z), 1)
    return 0.5 * z @ z + np.sum(1.0 / gaps[iu])


def _gradient(z):
    diff = z[:, None] - z[None, :]
    np.fill_diagonal(diff, 1.0)
    force = np.sign(diff) / diff**2
    np.fill_diagonal(force, 0.0)
    return z - force.sum(axis=1)


def _hessian(z):
    dist = np.abs(z[:, None] - z[None, :])
    np.fill_diagonal(dist, 1.0)
    k = 2.0 / dist**3
    np.fill_diagonal(k, 0.0)
    return np.diag(1.0 + k.sum(axis=1)) - k


@lru_cache(maxsize=None)
def equilibrium(n_ions):
    """Scaled equilibrium positions of n equal charges in one harmonic well
    (they depend on the ion count only)."""
    z0 = np.linspace(-1.0, 1.0, n_ions) * 1.2 * n_ions**0.56
    res = optimize.minimize(_potential, z0, jac=_gradient, hess=_hessian,
                            method="trust-exact", options={"gtol": 1e-13})
    z = np.sort(res.x)
    # the trust region stalls once the potential stops resolving changes;
    # plain Newton steps on the gradient finish the job quadratically
    for _ in range(8):
        z = z - np.linalg.solve(_hessian(z), _gradient(z))
    if np.linalg.norm(_gradient(z)) > 1e-11:
        raise RuntimeError(f"reference equilibrium for {n_ions} ions did not converge")
    return z


def inphase_couplings(masses, addressed, omega_z, k_projection,
                      reference_index=0):
    """Red-sideband couplings Omega_i / Omega_0 = eta_i of the addressed ions
    on the in-phase axial mode; ``masses`` in u, ``omega_z`` in rad/s."""
    masses = np.asarray(masses, dtype=float)
    rel = masses / masses[reference_index]
    dyn = _hessian(equilibrium(len(masses))) / np.sqrt(np.outer(rel, rel))
    evals, vecs = np.linalg.eigh(dyn)
    same_sign = [k for k in range(len(evals))
                 if np.all(vecs[:, k] > 0) or np.all(vecs[:, k] < 0)]
    k = same_sign[0]
    omega = sqrt(evals[k]) * omega_z
    amp = np.abs(vecs[:, k]) * np.sqrt(HBAR / (2.0 * masses * ATOMIC_MASS * omega))
    return k_projection * amp[list(addressed)]


# --- pulse --------------------------------------------------------------------


class SectorPulse:
    """Exact dynamics of H = sum_i (Omega_i/2)(sigma_i^+ a + h.c.) from
    |all down, m phonons>, restricted to the sector with m excitations."""

    def __init__(self, couplings, m):
        om = np.asarray(couplings, dtype=float)
        n = len(om)
        states = [q for q in range(2**n) if q.bit_count() <= m]
        index = {q: j for j, q in enumerate(states)}
        h = np.zeros((len(states), len(states)))
        for q in states:
            phonons = m - q.bit_count()
            for i in range(n):
                if phonons and not q >> i & 1:
                    a, b = index[q | 1 << i], index[q]
                    h[a, b] = h[b, a] = 0.5 * om[i] * sqrt(phonons)
        self.energies, vecs = np.linalg.eigh(h)
        self.phonons = np.array([m - q.bit_count() for q in states])
        self.m = m
        self.omega_prime = float(np.linalg.norm(om))
        self._start = vecs[index[0]]  # <E_k | all down, m phonons>
        self._vecs = vecs
        target = np.array([q.bit_count() == m for q in states]) / sqrt(comb(n, m))
        self._overlap = (target @ vecs) * self._start

    def fidelity(self, t):
        """F(t) = |<D(N,m), 0 phonons| psi(t)>|^2 for a scalar or array t."""
        t = np.asarray(t, dtype=float)
        amp = np.exp(-1j * np.multiply.outer(t, self.energies)) @ self._overlap
        return np.abs(amp) ** 2

    def phonon_distribution(self, t):
        psi = self._vecs @ (np.exp(-1j * self.energies * t) * self._start)
        return np.bincount(self.phonons, weights=np.abs(psi) ** 2,
                           minlength=self.m + 1)


def symmetric_ladder_fidelity(n_qubits, m):
    """First-maximum fidelity for equal couplings: the dynamics stay in the
    (m+1)-state ladder |D(N,k), m-k phonons>, k = 0..m."""
    h = np.zeros((m + 1, m + 1))
    for k in range(m):
        h[k, k + 1] = h[k + 1, k] = 0.5 * sqrt((m - k) * (k + 1) * (n_qubits - k))
    evals, vecs = np.linalg.eigh(h)
    weight = vecs[m] * vecs[0]

    def fid(t):
        return float(np.abs(weight @ np.exp(-1j * evals * t)) ** 2)

    step = pi / (400.0 * sqrt(n_qubits))
    t, f_prev = step, 0.0
    while fid(t) > f_prev:
        f_prev = fid(t)
        t += step
    res = optimize.minimize_scalar(lambda s: -fid(s), bounds=(t - 2 * step, t),
                                   method="bounded", options={"xatol": 1e-12})
    return -float(res.fun)


def w_fidelity(couplings):
    """Closed form for m = 1: (sum Omega)^2 / (N sum Omega^2)."""
    om = np.asarray(couplings, dtype=float)
    return float(np.sum(om) ** 2 / (len(om) * np.sum(om * om)))
