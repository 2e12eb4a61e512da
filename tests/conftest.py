"""Shared independent oracles for the test suite.

These deliberately avoid the solver paths they check: the equilibrium
oracle is a cyclic single-coordinate relaxation (no Newton step, no
coupled Hessian), and the pulse oracle works on the whole qubit-times-Fock
space, not the conserved excitation sector, and propagates by dense
scaling-and-squaring (``scipy.linalg.expm``) instead of eigendecomposition.
A second pulse reference runs the program's own F(t) scan over the whole
grid, where the program stops at the first chunk that holds a peak, and a
third takes the spectrum from a dense SVD of the sector Hamiltonian, where
the program grows a Krylov space.  The sector's states are enumerated as
combinations of up qubits and then sorted, where the program adds one
qubit at a time in index order.
The readout-fit oracle runs the plain EM update on one histogram at a
time, and draws and fits bootstrap resamples one after another, where the
program fits a whole stack of histograms in one batch with Newton steps.
A second readout reference climbs by SQUAREM-accelerated EM on a batch
(no Hessian, no active set), and the observed Fisher information at a fit
gives the Cramer-Rao bound that the bootstrap errors are checked against.

The last section holds quantities the package itself never needs, kept
here as references for the tests that check them: the chain's scaled
potential energy and SI length scale, pure qubit states and Dicke states,
the closed-form W fidelity, the parity and Dicke-fidelity expectations of
a density matrix, two-qubit fidelity and coherence from matrix elements,
purity, JSON readers for qubit states, the per-index loop that bins a
density diagonal by bright-ion count, and the count pmf of one ion that
starts dark on its own.
"""

from dataclasses import dataclass
from itertools import combinations
from math import comb

import numpy as np
from scipy.linalg import expm
from scipy.optimize import brentq, minimize_scalar

from dickesim import QubitDensity, detection, sideband
from dickesim._frozen import freeze
from dickesim.chain import ATOMIC_MASS
from dickesim.dicke import rotated_density, weights

E_CHARGE = 1.602176634e-19  # C
EPSILON_0 = 8.8541878128e-12  # F/m


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


def enumerated_sector(n_qubits, m):
    """The ``(qubits, phonons)`` of the N-qubit m-excitation sector: the
    indices with k = 0..m up qubits, enumerated as combinations of bits
    (qubit 0 the most significant), then sorted."""
    bits = 1 << (n_qubits - 1 - np.arange(n_qubits))
    by_count = [np.array(list(combinations(bits, k)), dtype=int)
                .reshape(comb(n_qubits, k), k).sum(axis=1)
                for k in range(min(m, n_qubits) + 1)]
    qubits = np.concatenate(by_count)
    ups = np.repeat(np.arange(len(by_count)), [len(q) for q in by_count])
    order = np.argsort(qubits)
    return qubits[order], m - ups[order]


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
    expm(-i H dt), then a bounded Brent search over expm(-i H t) psi0 to
    ``xatol`` 1e-10 in t."""
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


def krylov_spectrum(sector, om, t):
    """The pulse spectrum of a ``(B, N)`` coupling stack as the search
    solves it: a fresh :class:`dickesim.sideband._Krylov` on the sector's
    parity halves, stepped until each row's error bound is at most
    KRYLOV_TOL at its time ``t``.  Its ``s`` and ``weight`` give F(t)
    through ``sideband._fidelity``, and ``state(t)`` the pulse; the search
    grows one such basis block by block, which gives the same bits."""
    krylov = sideband._Krylov(sideband._Halves.of(sector), om,
                              sideband._omega_prime(om))
    krylov.cover(np.arange(len(om)), np.asarray(t, dtype=float))
    return krylov


def first_max_full_grid(couplings, m):
    """Duration and fidelity of the pulse search when it evaluates F(t) on
    every grid point up to the end of a scan block before it picks the
    first peak: the program's own sector, spectrum, grid, peak test, Newton
    refine and F(t) routine (read from :mod:`dickesim.sideband` at call
    time, so a patched Krylov path, spectrum, refine or F reaches both),
    one row at a time, without the scan's early stop.  The spectrum covers
    the block end, as the search's does; the first block end whose grid
    holds a peak is the search's, with the same spectrum."""
    om = np.asarray(couplings, dtype=float)
    sector = sideband.ExcitationSector(n_qubits=len(om), m=m)
    odd = m % 2 == 1
    dt = np.pi / (sideband.GRID_PER_PERIOD * float(np.linalg.norm(om)))
    steps_cap = int(np.ceil(sideband.GRID_PER_PERIOD * sideband.MAX_PERIODS))
    grid = np.arange(steps_cap + 1) * dt
    span = 2 * sideband.GRID_PER_PERIOD
    for first in range(0, steps_cap - 1, span - 1):
        end = min(first + span, steps_cap)
        krylov = krylov_spectrum(sector, om[None], grid[[end]])
        freqs, weight = krylov.s, krylov.weight
        f = sideband._fidelity(freqs, weight, odd, grid[None, :end + 1])[0]
        peaks = np.flatnonzero((f[1:-1] > f[:-2]) & (f[1:-1] >= f[2:]))
        if peaks.size:
            break
    j = peaks[0]
    t_star, f_star, _, _ = sideband._refine(
        freqs, weight, odd, grid[[j + 1]], grid[[j]], grid[[j + 2]])
    return float(t_star[0]), min(float(f_star[0]), 1.0), int(j + 1)


def dense_spectrum(sector, om):
    """The pulse spectrum of a ``(B, N)`` coupling stack from one stacked
    thin SVD ``B = U S V^T`` of the dense sector Hamiltonian's ``De x Do``
    block between its parity halves: ``(s, a, even)``, with all
    ``r = min(De, Do)`` frequencies, ``a_k = (D.u_k) U[0, k]`` for even m
    and ``(D.v_k) U[0, k]`` for odd m, and the mask of the even half."""
    even = (sector.m - sector.phonons) % 2 == 0
    e, o = np.flatnonzero(even), np.flatnonzero(~even)
    u, s, vt = np.linalg.svd(
        sideband.rsb_hamiltonian(sector, om)[:, e[:, None], o],
        full_matrices=False)
    dicke = sector.phonons == 0
    if sector.m % 2:
        overlap = vt[:, :, dicke[o]].sum(axis=2)
    else:
        overlap = u[:, dicke[e], :].sum(axis=1)
    weight = overlap / np.sqrt(comb(sector.n_qubits, sector.m)) * u[:, 0, :]
    return s, weight, even


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


def squarem_em(h, pmat, starts):
    """Maximize sum_n h_bn log(sum_i c_bi P_in) over the simplex for each
    histogram row b of ``h``, from ``starts``, by SQUAREM-accelerated EM;
    returns the (B, k) populations and (B,) log-likelihoods.

    Each cycle is one SQUAREM step (Varadhan & Roland, Scand. J. Stat. 35,
    335 (2008), scheme SqS3) on the EM map F: c1 = F(c), c2 = F(c1),
    r = c1 - c, v = c2 - c1 - r and alpha = min(-|r|/|v|, -1).  The point
    c - 2 alpha r + alpha^2 v, with alpha halved towards -1 (the point c2)
    until it lies on the simplex, takes one more EM map; a row falls back
    to c2 wherever that lowers its log-likelihood, so every cycle climbs.
    A row stops once the first EM map of a cycle gains at most 1e-10,
    and leaves the batch with the end point of that cycle; rows still
    running after 200000 cycles raise RuntimeError.
    """
    h = np.asarray(h, dtype=float)
    total = h.sum(axis=1, keepdims=True)

    def mixture(c):
        return np.maximum(np.matmul(c[:, None, :], pmat)[:, 0], 1e-300)

    def loglik(h, mix):
        return np.matmul(h[:, None, :], np.log(mix)[:, :, None])[:, 0, 0]

    def em_map(h, total, c, mix):
        c = c * np.matmul(pmat, (h / mix)[:, :, None])[:, :, 0] / total
        return c / c.sum(axis=1, keepdims=True)

    def norm(x):
        return np.sqrt(np.sum(x * x, axis=1, keepdims=True))

    c = starts / starts.sum(axis=1, keepdims=True)
    mix = mixture(c)
    ll = loglik(h, mix)
    out_c, out_ll = np.empty_like(c), np.empty(len(h))
    rows = np.arange(len(h))
    for _ in range(200000):
        c1 = em_map(h, total, c, mix)
        mix = mixture(c1)
        done = loglik(h, mix) - ll <= 1e-10
        c2 = em_map(h, total, c1, mix)
        r = c1 - c
        v = c2 - c1 - r
        nr, nv = norm(r), norm(v)
        alpha = -np.divide(nr, nv, out=np.ones_like(nr), where=nv > 0)
        np.minimum(alpha, -1.0, out=alpha)
        cp = c - 2.0 * alpha * r + alpha * alpha * v
        # halve a step that leaves the simplex towards alpha = -1, where
        # the point is c2: a population clipped to 0 could never regrow
        out = (cp < 0).any(axis=1) & (alpha[:, 0] < -1.0)
        while out.any():
            alpha[out] = 0.5 * (alpha[out] - 1.0)
            cp = c - 2.0 * alpha * r + alpha * alpha * v
            out = (cp < 0).any(axis=1) & (alpha[:, 0] < -1.0)
        c = np.maximum(cp, 0.0)
        c /= c.sum(axis=1, keepdims=True)
        c = em_map(h, total, c, mixture(c))
        mix = mixture(c)
        ll = loglik(h, mix)
        mix2 = mixture(c2)
        ll2 = loglik(h, mix2)
        worse = ll < ll2
        c[worse], ll[worse], mix[worse] = c2[worse], ll2[worse], mix2[worse]
        if done.any():
            out_c[rows[done]], out_ll[rows[done]] = c[done], ll[done]
            rows, h, total, c, mix, ll = (
                a[~done] for a in (rows, h, total, c, mix, ll))
            if not len(rows):
                return out_c, out_ll
    raise RuntimeError(f"SQUAREM fit: {len(rows)} of {len(out_ll)} "
                       "histograms did not converge in 200000 cycles")


def observed_information(hist, pmat, c):
    """Observed Fisher information of the mixture populations at ``c``:
    the negated Hessian sum_n h_n P_in P_jn / mix_n^2 of the
    log-likelihood, as a (k, k) matrix."""
    mix = c @ pmat
    return (pmat * (hist / mix**2)) @ pmat.T


def simplex_covariance(info):
    """Cramer-Rao covariance of populations constrained to sum to 1: the
    inverse of the information on the plane sum_i d_i = 0, spanned by
    e_i - e_k for i < k, mapped back to all k coordinates."""
    k = len(info)
    basis = np.vstack([np.eye(k - 1), -np.ones(k - 1)])
    return basis @ np.linalg.inv(basis.T @ info @ basis) @ basis.T


def ml_fit_sequential(hist, cm, n_bootstrap, seed):
    """Populations and bootstrap populations of one count histogram, with
    every resample drawn and fit one after another, each fit run until an
    EM update gains nothing."""
    hist = np.asarray(hist, dtype=float)
    c_hat, ll = em_fit(hist, cm, tol=0.0)
    rng = np.random.default_rng(seed)
    n = int(np.sum(hist))
    boots = np.array([
        em_fit(rng.multinomial(n, hist / n).astype(float), cm,
               c0=np.clip(c_hat, 1e-6, None), tol=0.0)[0]
        for _ in range(n_bootstrap)])
    return c_hat, ll, boots


def scaled_potential(positions):
    """Scaled axial potential energy of the chain at the given coordinates.

    Trap term plus mutual Coulomb repulsion, in units of
    ``m_ref * omega_z^2 * l^2``.  Equal charges share the static well, so
    every ion sees the same unit spring constant here.
    """
    u = np.asarray(positions, dtype=float)
    d = u[:, None] - u[None, :]
    iu = np.triu_indices(len(u), k=1)
    return 0.5 * float(np.sum(u * u)) + float(np.sum(1.0 / np.abs(d[iu])))


def length_scale(config):
    """Characteristic length l = (e^2/(4 pi eps0 m_ref omega_z^2))^(1/3) in
    metres (1.0 in scaled units, when ``omega_z`` is None)."""
    if config.omega_z is None:
        return 1.0
    m_ref = config.masses[config.reference_index] * ATOMIC_MASS
    return (E_CHARGE**2 / (4 * np.pi * EPSILON_0 * m_ref * config.omega_z**2)) ** (1.0 / 3.0)


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


def coherence_two_qubit(rho):
    """Sum of the two odd off-diagonal elements, rho_du,ud + rho_ud,du.

    Equals the two-phase parity average
    (Pi(pi/2, 0) + Pi(pi/2, pi/2)) / 2.
    """
    if rho.n_qubits != 2:
        raise ValueError("defined for exactly two qubits")
    return float(np.real(rho.matrix[1, 2] + rho.matrix[2, 1]))


def fidelity_two_qubit(rho):
    """Two-qubit single-excitation fidelity from density matrix elements:
    (rho_du,du + rho_ud,ud + rho_du,ud + rho_ud,du) / 2."""
    if rho.n_qubits != 2:
        raise ValueError("defined for exactly two qubits")
    m = rho.matrix
    return float(np.real(m[1, 1] + m[2, 2] + m[1, 2] + m[2, 1]) / 2.0)


def purity(rho):
    """tr(rho^2) of a QubitDensity."""
    return float(np.trace(rho.matrix @ rho.matrix).real)


def state_to_json_dict(state):
    return {
        "n_qubits": state.n_qubits,
        "amplitudes": [[float(a.real), float(a.imag)] for a in state.amplitudes],
    }


def state_from_json_dict(data):
    amps = np.array([complex(re, im) for re, im in data["amplitudes"]])
    return QubitState(amplitudes=amps, n_qubits=int(data["n_qubits"]))


def density_from_json_dict(data):
    """Reader for ``cli._density_json``, the ``reduced_density`` of a
    ``sweep --format json`` row."""
    rho = np.array([[complex(re, im) for re, im in row]
                    for row in data["matrix"]])
    return QubitDensity(matrix=rho, n_qubits=int(data["n_qubits"]))


def bright_populations_loop(rho):
    """Populations of 0..N bright (down) ions, added up one basis index at a
    time from the density matrix diagonal."""
    diag = np.real(np.diag(rho.matrix))
    ups = weights(rho.n_qubits)
    c = np.zeros(rho.n_qubits + 1)
    for idx, w in enumerate(ups):
        c[rho.n_qubits - w] += max(diag[idx], 0.0)
    return c / np.sum(c)


def dark_ion_dist(model, n_max=detection.DEFAULT_N_MAX):
    """Count pmf on 0..n_max of a single ion that starts dark (up): the
    first row of the program's ``detection._dark_ion``, which the
    composite distributions convolve."""
    return detection._dark_ion(model, n_max)[0]


def assert_identity_semantics(make):
    """Two equal-valued objects from ``make()`` that hold arrays compare
    and hash by identity: ``==`` and ``hash`` neither raise nor look
    inside the arrays."""
    a, b = make(), make()
    assert a == a and a != b
    assert hash(a) == hash(a)
    assert len({a, b, a}) == 2
