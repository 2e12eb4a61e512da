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
are solved exactly on them.  The phonon number fixes the qubit weight, so
the reduced qubit density is block-diagonal by weight; it is built only
when a caller reads it from a pulse result (a sweep row is its pulse
result or the exception the row raised).

Times are dimensionless throughout, in units of 1/Omega_0, the carrier
Rabi rate in which the couplings are given.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from math import comb

import numpy as np

from . import chain as chain_mod
from ._frozen import freeze
from .dicke import QubitDensity, weights
from .errors import SearchError, _check_integer, unwrap

GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0
GRID_PER_PERIOD = 50  # F(t) grid points per pi / Omega'
MAX_PERIODS = 20.0  # the scan stops at MAX_PERIODS * pi / Omega'
REFINE_TOL = 1e-6  # golden-section bracket width, in Omega_0 t
# the search solves a coupling stack in chunks that hold this many bytes of
# each row's largest block: its D x D Hamiltonian or its F(t) scan block
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
        if self.n_qubits < 1:
            raise ValueError("need at least one qubit")
        if self.m < 0:
            raise ValueError("excitation number must be >= 0")
        ups = weights(self.n_qubits)
        qubits = np.flatnonzero(ups <= self.m)
        object.__setattr__(self, "qubits", qubits)
        object.__setattr__(self, "phonons", self.m - ups[qubits])
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
    # sqrt(k); the target has one more up qubit, so it is in the sector too
    position = np.zeros(2**n, dtype=int)
    position[sector.qubits] = np.arange(sector.dimension)
    bits = 1 << (n - 1 - np.arange(n))
    src, qubit = np.nonzero(((sector.qubits[:, None] & bits) == 0)
                            & (sector.phonons[:, None] > 0))
    dst = position[sector.qubits[src] | bits[qubit]]
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


def _fidelity(evals, weight, t):
    """F(t_rj) = |sum_k weight_rk exp(-i E_rk t_rj)|^2 on a ``(rows,
    times)`` block of times ``t``, each row on its own spectrum.

    The sum is one BLAS product per row (a dot for a single time), and
    |z|^2 is hypot(Re z, Im z) squared by pow, which keeps the bits of
    ``abs(z) ** 2`` on a Python complex (``np.abs(z) ** 2`` differs in the
    last bit on some inputs).  The scan, the refine and the full-grid test
    oracle all read F through here, so their peak tests and golden steps
    see the same bits, and the frozen durations keep theirs.
    """
    phases = np.exp(-1j * evals[:, None, :] * t[:, :, None])
    amp = (phases @ weight[:, :, None])[:, :, 0]
    return np.float_power(np.hypot(amp.real, amp.imag), 2.0)


def _golden_max(f, a, b, tol):
    """Golden-section maximization of unimodal functions, one per row, on
    the brackets ``[a_r, b_r]``, run in lockstep.

    ``f(t, rows)`` evaluates the functions of ``rows`` at the times ``t``.
    Each row takes the steps a scalar search would and stops once its
    bracket is at most ``tol`` wide.  Returns the bracket midpoints and f
    there.
    """
    a, b = np.array(a, dtype=float), np.array(b, dtype=float)
    x1 = b - GOLDEN * (b - a)
    x2 = a + GOLDEN * (b - a)
    every = np.arange(len(a))
    f1, f2 = f(x1, every), f(x2, every)
    while (rows := np.flatnonzero(b - a > tol)).size:
        left = f1[rows] >= f2[rows]  # the maximum lies in [a, x2]
        lo, hi = rows[left], rows[~left]
        b[lo], x2[lo], f2[lo] = x2[lo], x1[lo], f1[lo]
        x1[lo] = b[lo] - GOLDEN * (b[lo] - a[lo])
        a[hi], x1[hi], f1[hi] = x1[hi], x2[hi], f2[hi]
        x2[hi] = a[hi] + GOLDEN * (b[hi] - a[hi])
        new = f(np.where(left, x1[rows], x2[rows]), rows)
        f1[lo], f2[hi] = new[left], new[~left]
    xm = 0.5 * (a + b)
    return xm, f(xm, every)


def first_max_from_couplings(couplings, m):
    """Locate the first local maximum of F(t) = <D(N,m)| rho(t) |D(N,m)>
    under the red-sideband pulse, starting from all-down with m phonons.

    ``couplings`` are in units of Omega_0.  The fidelity is scanned on a
    grid of step pi/(GRID_PER_PERIOD * Omega') out to
    ``MAX_PERIODS * pi / Omega'``, stopping at the first detected local
    maximum, which is refined by golden-section search to ``REFINE_TOL``
    in Omega_0 t.

    A ``(B, N)`` stack of coupling vectors is searched in chunks of as
    many rows as ``CHUNK_BYTES`` holds, counted by each row's largest
    block (its D x D Hamiltonian or its complex F(t) scan block): one
    stacked eigh, scan and refine per chunk, each row on its own grid.  A
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
        ends lower below the grid peak it started from than a unimodal
        F(t) allows.
    """
    om = np.asarray(couplings, dtype=float)
    stacked = om.ndim == 2
    om = om if stacked else om[None, :]
    n = om.shape[1]
    _check_integer(m, "m")
    if m < 1:
        raise ValueError("need at least one phonon to convert")
    if m > n:
        raise ValueError(f"{m} phonons cannot all be absorbed by {n} qubits")
    outcomes = [None] * len(om)
    # Omega' as np.linalg.norm takes it for one vector: sqrt of a BLAS dot
    with np.errstate(invalid="ignore"):  # non-finite rows leave just below
        omega_prime = np.sqrt((om[:, None, :] @ om[:, :, None])[:, 0, 0])
    # a row that LAPACK cannot diagonalize would fail the whole stack
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
    evals, vecs = np.linalg.eigh(rsb_hamiltonian(sector, om))
    start = vecs[:, 0, :]
    # |D(N,m)> with the mode in vacuum spans exactly the phonon-free states
    dicke = (vecs[:, sector.phonons == 0, :].sum(axis=1)
             / np.sqrt(comb(sector.n_qubits, sector.m)))
    weight = dicke * start  # F(t) = |sum_k weight_k exp(-i E_k t)|^2

    dt = np.pi / (GRID_PER_PERIOD * omega_prime)
    steps_cap = int(np.ceil(GRID_PER_PERIOD * MAX_PERIODS))
    bracket = np.zeros((len(om), 3))  # grid[j], grid[j + 2], f[j + 1]
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
        f = _fidelity(evals[scanning], weight[scanning], grid)
        # grid point j + 1 is a maximum, bracketed by its neighbours, when
        # F rose into it and does not rise out of it
        is_peak = (f[:, 1:-1] > f[:, :-2]) & (f[:, 1:-1] >= f[:, 2:])
        found = np.flatnonzero(is_peak.any(axis=1))
        j = np.argmax(is_peak[found], axis=1)
        bracket[scanning[found]] = np.stack(
            [grid[found, j], grid[found, j + 2], f[found, j + 1]], axis=1)
        scanning = np.delete(scanning, found)
    outcomes = [None] * len(om)
    for k in scanning:
        outcomes[k] = SearchError(
            "no fidelity maximum found before "
            f"t = {steps_cap * dt[k]:.3f}/Omega_0")
    peaked = np.setdiff1d(np.arange(len(om)), scanning)
    t_star, f_star = np.zeros(len(om)), np.zeros(len(om))
    t_star[peaked], f_star[peaked] = _golden_max(
        lambda t, sub: _fidelity(evals[peaked[sub]], weight[peaked[sub]],
                                 t[:, None])[:, 0],
        bracket[peaked, 0], bracket[peaked, 1], REFINE_TOL)
    # on a unimodal bracket the refine ends within REFINE_TOL / 2 of the
    # maximum, which is at least the grid peak f[j + 1], and
    # |F''| <= (E_max - E_min)^2 bounds how far F can fall off it there;
    # 1e-12 covers rounding
    floor = (bracket[:, 2] - 1e-12
             - ((evals[:, -1] - evals[:, 0]) * REFINE_TOL) ** 2 / 8.0)
    # every row of the stack, scan failures at t = 0 included, so that no
    # row subset copies the eigenvectors
    amps = np.exp(-1j * evals * t_star[:, None]) * start
    states = (vecs @ amps[:, :, None])[:, :, 0]
    for k in peaked:
        if f_star[k] < floor[k]:
            outcomes[k] = SearchError(
                f"golden-section refine ended at F = {float(f_star[k])!r} at "
                f"t = {t_star[k]:.6f}/Omega_0, below the {floor[k]!r} that a "
                "unimodal F(t) guarantees; F(t) is not unimodal on the "
                "bracket")
            continue
        outcomes[k] = PulseResult(
            duration=float(t_star[k]),
            fidelity=min(float(f_star[k]), 1.0),
            phonon_distribution=np.bincount(
                sector.phonons, weights=np.abs(states[k]) ** 2,
                minlength=sector.m + 1),
            couplings=om[k],
            sector=sector,
            state=states[k],
        )
    return outcomes


def first_max_fidelity(config, addressed, m):
    """Full pipeline from one chain configuration: in-phase couplings of
    the addressed ions (about the chain's equilibrium) -> first-maximum
    search.  A phonon number ``m`` that is not an integer raises ValueError
    before the mode solve."""
    _check_integer(m, "m")
    return first_max_from_couplings(
        chain_mod.coupling_strengths(config, addressed), m)


def fidelity_vs_mass_ratio(template, mu_grid, m):
    """First-maximum fidelity across a grid of ancilla-to-qubit mass ratios.

    Rebuilds the chain for every mu via ``template.config_for``, takes the
    in-phase couplings of the qubit ions of every chain that builds in one
    :func:`chain.coupling_strengths` stack (one equilibrium and one mode
    solve for the whole grid), and searches them as one
    :func:`first_max_from_couplings` stack.  Returns, in grid order, each
    row's PulseResult or the exception the row raised; the sweep goes on
    past a failed row, and if the coupling stack fails as a whole (the
    equilibrium, say), every row in it holds that failure.  A mass ratio
    that is not positive, or an ``m`` that is not an integer, raises
    ValueError before any solve.
    """
    mu_grid = [float(mu) for mu in mu_grid]
    if any(mu <= 0 for mu in mu_grid):
        raise ValueError("all mass ratios must be positive")
    _check_integer(m, "m")

    outcomes, configs = {}, {}
    for i, mu in enumerate(mu_grid):
        try:
            configs[i] = template.config_for(mu)
        except Exception as exc:
            outcomes[i] = exc
    if configs:
        try:
            etas = chain_mod.coupling_strengths(list(configs.values()),
                                                template.addressed())
        except Exception as exc:
            etas = [exc] * len(configs)
        outcomes.update(zip(configs, etas))
    couplings = {i: eta for i, eta in outcomes.items()
                 if not isinstance(eta, Exception)}
    pulses = first_max_from_couplings(
        np.reshape(list(couplings.values()), (-1, template.n_qubits)), m)
    outcomes.update(zip(couplings, pulses))
    return [outcomes[i] for i in range(len(mu_grid))]
