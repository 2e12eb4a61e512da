"""Quantum dynamics of a global resonant red-sideband pulse.

N qubits couple to a single motional mode through
``H = sum_i (Omega_i / 2)(sigma_i^+ a + sigma_i^- a^dagger)`` (rotating
frame, Lamb-Dicke limit).  The factor 1/2 makes the single-excitation
phonon population oscillate exactly at ``Omega' = sqrt(sum Omega_i^2)``.

H conserves the excitation number, phonons plus up qubits (the
Tavis-Cummings structure), so the pulse started from all qubits down with
m phonons never leaves the m-excitation sector: the states
``|q> (x) |m - popcount(q) phonons>`` with ``popcount(q) <= m``.  There are
``sum_{k<=m} C(N, k)`` of them (638 at N = 10, m = 5, against the
``2^N (m + 1)`` = 6144 of the qubit-times-Fock space), and the dynamics
are solved exactly on them.  Each term of H flips one qubit, so H links
only states whose up-qubit counts differ by one: the sector splits into an
even-count half E, which holds the start state, and an odd-count half O,
and H is ``[[0, B], [B^T, 0]]``.  One thin SVD ``B = U S V^T`` gives the
whole spectrum, ``+-s_k`` and ``|De - Do|`` zeros, and the pulse
``psi_E(t) = e_0 + U (cos St - 1) U[0]^T``,
``psi_O(t) = -i V sin St U[0]^T``.  The Dicke target lies in one half, by
the parity of m, so its amplitude is real up to a phase,
``A(t) = sum_k a_k g(s_k t)`` with g = sin for odd m and cos - 1 for even
m, and ``F = A^2`` is a sum over ``min(De, Do)`` real frequencies.  The
phonon number fixes the qubit weight, so the reduced qubit density is
block-diagonal by weight; it is built only when a caller reads it from a
pulse result (a sweep row is its pulse result or the exception the row
raised).

Times are dimensionless throughout, in units of 1/Omega_0, the carrier
Rabi rate in which the couplings are given.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import combinations
from math import comb

import numpy as np

from . import chain as chain_mod
from ._frozen import freeze
from .dicke import QubitDensity
from .errors import SearchError, _check_integer, unwrap

GRID_PER_PERIOD = 50  # F(t) grid points per pi / Omega'
MAX_PERIODS = 20.0  # the scan stops at MAX_PERIODS * pi / Omega'
NEWTON_RTOL = 1e-13  # the refine stops at a Newton step of at most this * t
NEWTON_CAP = 50  # Newton steps a row may take before it fails
# the search solves a coupling stack in chunks that hold this many bytes of
# each row's largest block: its D x D Hamiltonian or its F(t) scan block,
# counted at 16 bytes per (grid point, state), which covers the scan's real
# sines of r <= D / 2 frequencies and their temporaries
CHUNK_BYTES = 1 << 20


@dataclass(frozen=True)
class ExcitationSector:
    """The states of N qubits and one mode that hold exactly m excitations.

    State j is ``|qubits[j]> (x) |phonons[j]>``, with the qubit indices
    (popcount <= m) in ascending order and in the convention of
    :mod:`dickesim.dicke` (qubit 0 is the most significant bit).  State 0
    is all qubits down with m phonons.
    """

    n_qubits: int
    m: int
    qubits: np.ndarray = field(init=False, repr=False, compare=False)
    phonons: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        _check_integer(self.n_qubits, "n_qubits")
        _check_integer(self.m, "m")
        if self.n_qubits < 1:
            raise ValueError("need at least one qubit")
        if self.m < 0:
            raise ValueError("excitation number must be >= 0")
        # the indices with k = 0..m up qubits, enumerated, then sorted
        n = self.n_qubits
        bits = 1 << (n - 1 - np.arange(n))
        by_count = [np.array(list(combinations(bits, k)), dtype=int)
                    .reshape(comb(n, k), k).sum(axis=1)
                    for k in range(min(self.m, n) + 1)]
        qubits = np.concatenate(by_count)
        ups = np.repeat(np.arange(len(by_count)), [len(q) for q in by_count])
        order = np.argsort(qubits)
        object.__setattr__(self, "qubits", qubits[order])
        object.__setattr__(self, "phonons", self.m - ups[order])
        freeze(self, int, "qubits", "phonons")

    @property
    def dimension(self):
        return len(self.qubits)


@dataclass(frozen=True, eq=False)
class PulseResult:
    """Outcome of the first-maximum pulse search.

    ``duration`` is in units of 1/Omega_0; ``state`` holds the amplitudes
    over ``sector`` at that duration.
    """

    duration: float
    fidelity: float
    phonon_distribution: np.ndarray
    couplings: np.ndarray
    sector: ExcitationSector
    state: np.ndarray

    def __post_init__(self):
        freeze(self, float, "phonon_distribution", "couplings")
        freeze(self, complex, "state")
        if not -1e-9 <= self.fidelity <= 1.0 + 1e-9:
            raise ValueError(f"fidelity {self.fidelity!r} outside [0, 1]")
        if abs(float(np.sum(self.phonon_distribution)) - 1.0) > 1e-10:
            raise ValueError("phonon distribution must sum to 1")

    @cached_property
    def reduced_density(self):
        """Qubit state after tracing out the motion (built on first read)."""
        return reduce_to_qubits(self.sector, self.state)


def rsb_hamiltonian(sector, couplings):
    """Resonant red-sideband Hamiltonian on an excitation sector.

    Returns a real symmetric matrix over ``sector``'s basis (couplings must
    be real; time units 1/Omega_0).  A ``(B, N)`` stack of coupling vectors
    gives the ``(B, D, D)`` stack of their Hamiltonians.
    """
    om = np.asarray(couplings)
    if np.iscomplexobj(om) and np.max(np.abs(om.imag)) > 0:
        raise ValueError("couplings must be real")
    om = om.astype(float)
    n = sector.n_qubits
    if om.ndim not in (1, 2) or om.shape[-1] != n:
        raise ValueError(f"need exactly {n} couplings, got {om.shape}")
    # sigma_i^+ a takes |q, k> to |q with qubit i up, k - 1> with amplitude
    # sqrt(k); the target has one more up qubit, so it is in the sector too,
    # and the sorted qubit indices give its position
    bits = 1 << (n - 1 - np.arange(n))
    src, qubit = np.nonzero(((sector.qubits[:, None] & bits) == 0)
                            & (sector.phonons[:, None] > 0))
    dst = np.searchsorted(sector.qubits, sector.qubits[src] | bits[qubit])
    lower = np.zeros(om.shape[:-1] + (sector.dimension, sector.dimension))
    lower[..., dst, src] = 0.5 * om[..., qubit] * np.sqrt(sector.phonons[src])
    return lower + np.swapaxes(lower, -1, -2)


def reduce_to_qubits(sector, amplitudes):
    """Partial trace over the mode of a state on an excitation sector."""
    amps = np.asarray(amplitudes, dtype=complex)
    if amps.shape != (sector.dimension,):
        raise ValueError("amplitude vector does not match the sector dimension")
    # states with different phonon numbers are orthogonal in the mode, so
    # only pairs of equal qubit weight survive the trace
    same_weight = sector.phonons[:, None] == sector.phonons[None, :]
    rho = np.zeros((2**sector.n_qubits, 2**sector.n_qubits), dtype=complex)
    rho[np.ix_(sector.qubits, sector.qubits)] = np.where(
        same_weight, np.outer(amps, amps.conj()), 0.0)
    return QubitDensity(matrix=rho, n_qubits=sector.n_qubits)


def _spectrum(sector, om):
    """The pulse on a ``(B, N)`` coupling stack, solved on the sector's two
    parity halves from one stacked thin SVD ``B = U S V^T`` of the
    Hamiltonian's ``De x Do`` block between them.

    Returns each row's frequencies ``s`` and real Dicke weights ``a``,
    both ``(B, r)`` with ``r = min(De, Do)``, such that
    ``F(t) = (sum_k a_k g(s_k t))^2`` (see :func:`_wave`), then ``U``
    ``(B, De, r)``, ``V^T`` ``(B, r, Do)`` and the mask of the even half
    over the sector's states.  ``a_k = (D.u_k) U[0, k]`` for even m and
    ``(D.v_k) U[0, k]`` for odd m, with D the Dicke target: the
    phonon-free states over ``sqrt(C(N, m))``, which lie in the half of
    m's parity.  The scan, the refine and the full-grid test oracle all
    read the spectrum here.
    """
    even = (sector.m - sector.phonons) % 2 == 0
    e, o = np.flatnonzero(even), np.flatnonzero(~even)
    u, s, vt = np.linalg.svd(rsb_hamiltonian(sector, om)[:, e[:, None], o],
                             full_matrices=False)
    dicke = sector.phonons == 0
    if sector.m % 2:
        overlap = vt[:, :, dicke[o]].sum(axis=2)
    else:
        overlap = u[:, dicke[e], :].sum(axis=1)
    weight = overlap / np.sqrt(comb(sector.n_qubits, sector.m)) * u[:, 0, :]
    return s, weight, u, vt, even


def _wave(odd, x):
    """g(x) of the Dicke amplitude ``A(t) = sum_k a_k g(s_k t)``: sin for
    odd m, and for even m ``cos x - 1``, written ``-2 sin^2(x / 2)`` so
    that it loses no digits near x = 0."""
    return np.sin(x) if odd else -2.0 * np.sin(0.5 * x) ** 2


def _fidelity(freqs, weight, odd, t):
    """F(t_rj) = (sum_k weight_rk g(freqs_rk t_rj))^2 on a ``(rows,
    times)`` block of times ``t``, each row on its own spectrum, with g
    from :func:`_wave` by the parity of m.

    Each sum is a reduction over the last, contiguous axis, whose rounding
    depends on the r terms alone, not on the block's shape.  The scan, the
    refine and the full-grid test oracle all read F through here, so the
    grid-peak test, the refine's check against the grid peak and the
    oracle see the same bits.
    """
    terms = _wave(odd, freqs[:, None, :] * t[:, :, None])
    amp = (terms * weight[:, None, :]).sum(axis=2)
    return amp * amp


def _refine(freqs, weight, odd, t, lo, hi):
    """Newton's method on F'(t) = 0, each row on its own spectrum, run in
    lockstep from the times ``t`` with every step clipped to ``[lo, hi]``.

    With ``A = sum_k a_k g(s_k t)`` and ``A^(n) = sum_k a_k s_k^n
    g^(n)(s_k t)``, where ``(g', g'') = (cos, -sin)`` for odd m and
    ``(-sin, -cos)`` for even m, ``F' = 2 A A'`` and
    ``F'' = 2 (A'^2 + A A'')``.  A row stops once F'' >= 0 (no step leads
    to a maximum) or once its next step is at most ``NEWTON_RTOL * t``, a
    step it does not take.  Returns the end times, F there, F'' at each
    row's last evaluated time and the rows still stepping after
    ``NEWTON_CAP`` steps.
    """
    t = np.array(t, dtype=float)
    moments = weight[:, None, :] * freqs[:, None, :] ** np.arange(3)[:, None]
    curvature, rows = np.zeros(len(t)), np.arange(len(t))
    for _ in range(NEWTON_CAP):
        if not rows.size:
            break
        x = freqs[rows] * t[rows, None]
        sin, cos = np.sin(x), np.cos(x)
        waves = (sin, cos, -sin) if odd else (_wave(odd, x), -sin, -cos)
        a0, a1, a2 = (np.stack(waves, axis=1) * moments[rows]).sum(axis=2).T
        curvature[rows] = 2.0 * (a1 * a1 + a0 * a2)
        bent = curvature[rows] < 0.0
        step = (np.where(bent, 2.0 * a0 * a1, 0.0)
                / np.where(bent, curvature[rows], -1.0))
        new = np.clip(t[rows] - step, lo[rows], hi[rows])
        moving = np.abs(new - t[rows]) > NEWTON_RTOL * t[rows]
        t[rows[moving]] = new[moving]
        rows = rows[moving]
    return t, _fidelity(freqs, weight, odd, t[:, None])[:, 0], curvature, rows


def _check_m(m, n):
    """Raise ValueError unless the phonon number ``m`` is an int or numpy
    integer (a bool is neither) in 1..n, the number of qubits."""
    _check_integer(m, "m")
    if m < 1:
        raise ValueError("need at least one phonon to convert")
    if m > n:
        raise ValueError(f"{m} phonons cannot all be absorbed by {n} qubits")


def first_max_from_couplings(couplings, m):
    """Locate the first local maximum of F(t) = <D(N,m)| rho(t) |D(N,m)>
    under the red-sideband pulse, starting from all-down with m phonons.

    ``couplings`` are in units of Omega_0.  The fidelity is scanned on a
    grid of step pi/(GRID_PER_PERIOD * Omega') out to
    ``MAX_PERIODS * pi / Omega'``, stopping at the first detected local
    maximum.  Newton steps on the analytic F' and F'' refine it inside its
    two grid neighbours until a step is at most ``NEWTON_RTOL`` of t, so
    the duration is exact to rounding on any coupling scale.

    A ``(B, N)`` stack of coupling vectors is searched in chunks of as
    many rows as ``CHUNK_BYTES`` holds, counted by each row's largest
    block (its D x D Hamiltonian or its F(t) scan block): one
    stacked SVD, scan and refine per chunk, each row on its own grid.  A
    row's result does not depend on its chunk.  The call then returns a
    list that holds, per row, its PulseResult or the ValueError or
    SearchError the row raises on its own.

    Raises
    ------
    ValueError
        Before any solve, if ``m`` is not an int or numpy integer (a bool
        is neither) in 1..N.
    SearchError
        If no local maximum appears before the time cap, or if the refine
        ends where F'' >= 0, is still stepping after ``NEWTON_CAP``
        steps, or ends with F below the grid peak it started from.
    """
    om = np.asarray(couplings, dtype=float)
    stacked = om.ndim == 2
    om = om if stacked else om[None, :]
    n = om.shape[1]
    _check_m(m, n)
    outcomes = [None] * len(om)
    # Omega' as np.linalg.norm takes it for one vector: sqrt of a BLAS dot
    with np.errstate(invalid="ignore"):  # non-finite rows leave just below
        omega_prime = np.sqrt((om[:, None, :] @ om[:, :, None])[:, 0, 0])
    # a row that LAPACK cannot decompose would fail the whole stack
    finite = np.all(np.isfinite(om), axis=1)
    for r in np.flatnonzero(~finite):
        outcomes[r] = ValueError("couplings must be finite")
    for r in np.flatnonzero(finite & (omega_prime == 0.0)):
        outcomes[r] = ValueError("at least one coupling must be nonzero")
    rows = np.flatnonzero(finite & (omega_prime != 0.0))
    sector = ExcitationSector(n_qubits=n, m=m)
    dim = sector.dimension
    row_bytes = max(8 * dim * dim, 16 * (2 * GRID_PER_PERIOD + 1) * dim)
    chunk = max(1, CHUNK_BYTES // row_bytes)
    for first in range(0, len(rows), chunk):
        part = rows[first:first + chunk]
        found = _search_chunk(sector, om[part], omega_prime[part])
        for r, outcome in zip(part, found):
            outcomes[r] = outcome
    return outcomes if stacked else unwrap(outcomes[0])


def _search_chunk(sector, om, omega_prime):
    """The first-maximum search on a stack of finite, nonzero coupling
    rows with their Omega'; returns each row's PulseResult or SearchError.
    Its arrays go when it returns, so chunks do not pile up."""
    freqs, weight, u, vt, even = _spectrum(sector, om)
    odd = sector.m % 2 == 1

    dt = np.pi / (GRID_PER_PERIOD * omega_prime)
    steps_cap = int(np.ceil(GRID_PER_PERIOD * MAX_PERIODS))
    peak = np.zeros((len(om), 4))  # grid[j + 1], grid[j], grid[j + 2], f[j + 1]
    # the first maximum comes after about one period, so the grid is
    # scanned two periods at a time and a row leaves the scan at the first
    # block that holds one; consecutive blocks share the two grid points
    # that the peak test on their seam reads
    span = 2 * GRID_PER_PERIOD
    scanning = np.arange(len(om))
    for first in range(0, steps_cap - 1, span - 1):
        if not scanning.size:
            break
        steps = np.arange(first, min(first + span, steps_cap) + 1)
        grid = steps * dt[scanning, None]
        f = _fidelity(freqs[scanning], weight[scanning], odd, grid)
        # grid point j + 1 is a maximum, bracketed by its neighbours, when
        # F rose into it and does not rise out of it
        is_peak = (f[:, 1:-1] > f[:, :-2]) & (f[:, 1:-1] >= f[:, 2:])
        found = np.flatnonzero(is_peak.any(axis=1))
        j = np.argmax(is_peak[found], axis=1)
        peak[scanning[found]] = np.stack(
            [grid[found, j + 1], grid[found, j], grid[found, j + 2],
             f[found, j + 1]], axis=1)
        scanning = np.delete(scanning, found)
    outcomes = [None] * len(om)
    for k in scanning:
        outcomes[k] = SearchError(
            "no fidelity maximum found before "
            f"t = {steps_cap * dt[k]:.3f}/Omega_0")
    peaked = np.setdiff1d(np.arange(len(om)), scanning)
    t_star, f_star = np.zeros(len(om)), np.zeros(len(om))
    t_star[peaked], f_star[peaked], curvature, unsettled = _refine(
        freqs[peaked], weight[peaked], odd, *peak[peaked, :3].T)
    # every row of the stack, scan failures at t = 0 included, so that no
    # row subset copies the singular vectors: psi_E = e_0 + U (cos St - 1)
    # U[0]^T and psi_O = -i V sin St U[0]^T
    x = freqs * t_star[:, None]
    states = np.zeros((len(om), sector.dimension), dtype=complex)
    states[:, even] = (u @ (_wave(False, x) * u[:, 0, :])[:, :, None])[:, :, 0]
    states[:, 0] += 1.0
    states[:, ~even] = -1j * (np.swapaxes(vt, 1, 2)
                              @ (np.sin(x) * u[:, 0, :])[:, :, None])[:, :, 0]
    for i, k in enumerate(peaked):
        if curvature[i] >= 0.0:
            why = f"F'' = {float(curvature[i])!r} >= 0: not a maximum"
        elif i in unsettled:
            why = f"still stepping after {NEWTON_CAP} steps"
        elif f_star[k] < peak[k, 3]:
            why = (f"F = {float(f_star[k])!r}, below the grid peak's "
                   f"{float(peak[k, 3])!r}")
        else:
            outcomes[k] = PulseResult(
                duration=float(t_star[k]), fidelity=min(float(f_star[k]), 1.0),
                phonon_distribution=np.bincount(
                    sector.phonons, weights=np.abs(states[k]) ** 2,
                    minlength=sector.m + 1),
                couplings=om[k], sector=sector, state=states[k])
            continue
        outcomes[k] = SearchError(
            f"Newton refine ended at t = {t_star[k]:.6f}/Omega_0: {why}")
    return outcomes


def first_max_fidelity(config, addressed, m):
    """Full pipeline from one chain configuration: in-phase couplings of
    the addressed ions (about the chain's equilibrium) -> first-maximum
    search.  An ``m`` that is not an integer in 1..(distinct addressed
    ions) raises ValueError before the mode solve."""
    _check_m(m, len(chain_mod._addressed_ions(config, addressed)))
    return first_max_from_couplings(
        chain_mod.coupling_strengths(config, addressed), m)


def fidelity_vs_mass_ratio(template, mu_grid, m):
    """First-maximum fidelity across a grid of ancilla-to-qubit mass ratios.

    Takes the template's chain with one ancilla mass per mu, solves the
    in-phase couplings of its qubit ions as one mode stack (one
    equilibrium and one stacked mode solve for the whole grid), and
    searches them as one :func:`first_max_from_couplings` stack.  Returns,
    in grid order, each row's PulseResult or the exception the row raised;
    the sweep goes on past a failed row, and if the coupling stack fails
    as a whole (the equilibrium, say), every row holds that failure.  An
    ``m`` that is not an integer in 1..(qubit count), or a mass ratio that
    is not finite and positive, raises ValueError before any solve.
    """
    _check_m(m, template.n_qubits)
    masses = template._masses(mu_grid)
    try:
        outcomes = chain_mod._couplings(template.config, masses,
                                        list(template.addressed()))
    except Exception as exc:
        outcomes = [exc] * len(masses)
    rows = [r for r, eta in enumerate(outcomes)
            if not isinstance(eta, Exception)]
    pulses = first_max_from_couplings(
        np.reshape([outcomes[r] for r in rows], (-1, template.n_qubits)), m)
    for r, pulse in zip(rows, pulses):
        outcomes[r] = pulse
    return outcomes
