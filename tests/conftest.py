"""Shared independent oracles for the test suite.

These deliberately avoid the solver paths they check: the equilibrium
oracle is a cyclic single-coordinate relaxation (no Newton step, no
coupled Hessian), and the pulse oracle works on the whole qubit-times-Fock
space, not the conserved excitation sector, and propagates by dense
scaling-and-squaring (``scipy.linalg.expm``) instead of eigendecomposition.
The readout-fit oracle runs the plain EM update on one histogram at a
time, and draws and fits bootstrap resamples one after another, where the
program fits a whole stack of histograms in one batch with SQUAREM steps.
"""

import numpy as np
from scipy.linalg import expm
from scipy.optimize import brentq, minimize_scalar


def relax_equilibrium(n_ions, max_sweeps=2000, move_tol=1e-13):
    """Brute-force equilibrium of n equal-charge ions in the common scaled
    well: relax one coordinate at a time to its zero-force point until the
    whole chain stops moving."""
    u = (np.arange(n_ions) - (n_ions - 1) / 2.0) * 1.3

    def slope(x, i):
        s = x
        for j in range(n_ions):
            if j != i:
                s -= np.sign(x - u[j]) / (x - u[j]) ** 2
        return s

    for _ in range(max_sweeps):
        moved = 0.0
        for i in range(n_ions):
            lo = u[i - 1] + 1e-8 if i > 0 else u[i] - 3.0
            hi = u[i + 1] - 1e-8 if i < n_ions - 1 else u[i] + 3.0
            while i == 0 and slope(lo, i) > 0:
                lo -= 2.0
            while i == n_ions - 1 and slope(hi, i) < 0:
                hi += 2.0
            x = brentq(slope, lo, hi, args=(i,), xtol=1e-14, rtol=8.9e-16)
            moved = max(moved, abs(x - u[i]))
            u[i] = x
        if moved < move_tol:
            break
    return u


class FullSpace:
    """Tensor product of an N-qubit register and Fock states 0..cutoff.

    Basis index = qubit_index * (cutoff + 1) + phonon_number, with qubit 0
    the most significant bit (the convention of dickesim.dicke).
    """

    def __init__(self, n_qubits, cutoff):
        self.n_qubits = n_qubits
        self.cutoff = cutoff
        self.n_fock = cutoff + 1
        self.dimension = 2**n_qubits * self.n_fock
        self.ups = np.array([bin(q).count("1") for q in range(2**n_qubits)])

    def index(self, qubit_index, n_phonon):
        return qubit_index * self.n_fock + n_phonon

    def hamiltonian(self, couplings):
        """Dense red-sideband Hamiltonian sum_i (Omega_i/2)(sigma_i^+ a + h.c.),
        built element by element."""
        om = np.asarray(couplings, dtype=float)
        lower = np.zeros((self.dimension, self.dimension))  # sigma^+ a part
        for q in range(2**self.n_qubits):
            for n in range(1, self.n_fock):
                for i in range(self.n_qubits):
                    bit = 1 << (self.n_qubits - 1 - i)
                    if not q & bit:
                        lower[self.index(q | bit, n - 1), self.index(q, n)] += (
                            0.5 * om[i] * np.sqrt(n))
        return lower + lower.T

    def initial_state(self, m):
        """All qubits down, exactly m phonons."""
        if not 0 <= m <= self.cutoff:
            raise ValueError(f"initial phonon number {m} exceeds the Fock cutoff")
        psi = np.zeros(self.dimension, dtype=complex)
        psi[self.index(0, m)] = 1.0
        return psi

    def grid(self, psi):
        """Amplitudes as a (qubit basis, phonon number) array."""
        return np.reshape(psi, (2**self.n_qubits, self.n_fock))

    def phonon_distribution(self, psi):
        return np.sum(np.abs(self.grid(psi)) ** 2, axis=0)

    def total_excitation(self, psi):
        """Expectation of a^dagger a + sum_i up_i."""
        probs = np.abs(self.grid(psi)) ** 2
        return float(np.sum(probs @ np.arange(self.n_fock)) + np.sum(self.ups @ probs))

    def reduced_density(self, psi):
        """Partial trace over the Fock factor, as a plain matrix."""
        g = self.grid(psi)
        return g @ g.conj().T

    def dicke_fidelity(self, psi, m):
        """<D(N,m)| rho_qubits |D(N,m)>."""
        dicke = (self.ups == m) / np.sqrt(np.sum(self.ups == m))
        return float(np.sum(np.abs(dicke @ self.grid(psi)) ** 2))


def evolve(psi, hamiltonian, t):
    """exp(-i H t) psi by dense scaling-and-squaring."""
    h = np.asarray(hamiltonian)
    if h.shape != (len(psi), len(psi)):
        raise ValueError("Hamiltonian dimension does not match the state")
    if t < 0:
        raise ValueError("pulse duration must be >= 0")
    return expm(-1j * h * t) @ psi


def first_max_full_space(couplings, m, cutoff, grid_per_period=50):
    """Duration and fidelity of the first local maximum of the Dicke
    fidelity, from the full space: a scan that steps the state by
    expm(-i H dt), then a bounded Brent search over expm(-i H t) psi0
    converged far below the program's refine_tol."""
    om = np.asarray(couplings, dtype=float)
    space = FullSpace(len(om), cutoff)
    h = space.hamiltonian(om)
    psi0 = space.initial_state(m)

    def fid(t):
        return space.dicke_fidelity(evolve(psi0, h, t), m)

    dt = np.pi / (grid_per_period * np.linalg.norm(om))
    step = expm(-1j * h * dt)
    psi, fids = psi0, [space.dicke_fidelity(psi0, m)]
    for _ in range(100 * grid_per_period):
        psi = step @ psi
        fids.append(space.dicke_fidelity(psi, m))
        if len(fids) >= 3 and fids[-2] > fids[-3] and fids[-2] >= fids[-1]:
            break
    else:
        raise RuntimeError("no fidelity maximum in 100 periods")
    j = len(fids) - 2  # the grid point bracketed as the maximum
    res = minimize_scalar(lambda t: -fid(t), bounds=((j - 1) * dt, (j + 1) * dt),
                          method="bounded", options={"xatol": 1e-10})
    return float(res.x), -float(res.fun)


def em_fit(hist, pmat, c0=None, tol=1e-10, max_iter=200000):
    """Maximize sum_n h_n log(sum_i c_i P_in) over the simplex for one
    histogram: the scalar multiplicative (EM) loop, one fit at a time,
    stopping once an update gains at most ``tol`` in log-likelihood."""
    total = float(np.sum(hist))
    k = pmat.shape[0]
    c = np.full(k, 1.0 / k) if c0 is None else np.array(c0, dtype=float)
    c /= np.sum(c)
    ll_prev = -np.inf
    for _ in range(max_iter):
        mix = np.clip(c @ pmat, 1e-300, None)
        ll = float(hist @ np.log(mix))
        if ll - ll_prev <= tol:
            return c, ll
        ll_prev = ll
        c = c * (pmat @ (hist / mix)) / total
        c /= np.sum(c)
    raise RuntimeError(f"EM fit did not converge in {max_iter} iterations")


def ml_fit_sequential(samples, cm, n_bootstrap, seed):
    """Populations and bootstrap populations of one sample of counts, with
    every resample drawn and fit one after another, each fit run until an
    EM update gains nothing."""
    hist = np.bincount(samples, minlength=cm.n_max + 1).astype(float)
    pmat = cm.probability_matrix()
    c_hat, ll = em_fit(hist, pmat, tol=0.0)
    rng = np.random.default_rng(seed)
    n = int(np.sum(hist))
    boots = np.array([
        em_fit(rng.multinomial(n, hist / n).astype(float), pmat,
               c0=np.clip(c_hat, 1e-6, None), tol=0.0)[0]
        for _ in range(n_bootstrap)])
    return c_hat, ll, boots
