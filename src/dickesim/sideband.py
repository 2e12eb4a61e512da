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
when a caller reads it, from a pulse result or from a sweep row (which
holds its pulse result).

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
from .errors import SearchError

GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0
GRID_PER_PERIOD = 50  # F(t) grid points per pi / Omega'
MAX_PERIODS = 20.0  # the scan stops at MAX_PERIODS * pi / Omega'
REFINE_TOL = 1e-6  # golden-section bracket width, in Omega_0 t


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
        phonons = self.m - ups[qubits]
        for name, arr in (("qubits", qubits), ("phonons", phonons)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def dimension(self):
        return len(self.qubits)


@dataclass(frozen=True)
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
    be real; time units 1/Omega_0).
    """
    om = np.asarray(couplings)
    if np.iscomplexobj(om) and np.max(np.abs(om.imag)) > 0:
        raise ValueError("couplings must be real")
    om = om.astype(float)
    n = sector.n_qubits
    if om.shape != (n,):
        raise ValueError(f"need exactly {n} couplings, got {om.shape}")
    # sigma_i^+ a takes |q, k> to |q with qubit i up, k - 1> with amplitude
    # sqrt(k); the target has one more up qubit, so it is in the sector too
    position = np.zeros(2**n, dtype=int)
    position[sector.qubits] = np.arange(sector.dimension)
    bits = 1 << (n - 1 - np.arange(n))
    src, qubit = np.nonzero(((sector.qubits[:, None] & bits) == 0)
                            & (sector.phonons[:, None] > 0))
    dst = position[sector.qubits[src] | bits[qubit]]
    lower = np.zeros((sector.dimension, sector.dimension))
    lower[dst, src] = 0.5 * om[qubit] * np.sqrt(sector.phonons[src])
    return lower + lower.T


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


def _golden_max(f, a, b, tol, floor):
    """Golden-section maximization of a unimodal f on [a, b].

    Raises
    ------
    SearchError
        If the refined value falls below ``floor``, the least that a
        unimodal f can give at the end: f was not unimodal on the bracket,
        and the search lost its peak.
    """
    x1 = b - GOLDEN * (b - a)
    x2 = a + GOLDEN * (b - a)
    f1, f2 = f(x1), f(x2)
    while b - a > tol:
        if f1 >= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - GOLDEN * (b - a)
            f1 = f(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + GOLDEN * (b - a)
            f2 = f(x2)
    xm = 0.5 * (a + b)
    fm = f(xm)
    if fm < floor:
        raise SearchError(
            f"golden-section refine ended at F = {fm!r} at t = {xm:.6f}/Omega_0, "
            f"below the {floor!r} that a unimodal F(t) guarantees; F(t) is "
            "not unimodal on the bracket")
    return xm, fm


def first_max_from_couplings(couplings, m):
    """Locate the first local maximum of F(t) = <D(N,m)| rho(t) |D(N,m)>
    under the red-sideband pulse, starting from all-down with m phonons.

    ``couplings`` are in units of Omega_0.  The fidelity is scanned on a
    grid of step pi/(GRID_PER_PERIOD * Omega') out to
    ``MAX_PERIODS * pi / Omega'``, stopping at the first detected local
    maximum, which is refined by golden-section search to ``REFINE_TOL``
    in Omega_0 t.

    Raises
    ------
    SearchError
        If no local maximum appears before the time cap, or if the refine
        ends lower below the grid peak it started from than a unimodal
        F(t) allows.
    """
    om = np.asarray(couplings, dtype=float)
    if m < 1:
        raise ValueError("need at least one phonon to convert")
    if m > len(om):
        raise ValueError(f"{m} phonons cannot all be absorbed by {len(om)} qubits")
    omega_prime = float(np.linalg.norm(om))
    if omega_prime == 0.0:
        raise ValueError("at least one coupling must be nonzero")
    sector = ExcitationSector(n_qubits=len(om), m=m)
    evals, vecs = np.linalg.eigh(rsb_hamiltonian(sector, om))
    start = vecs[0]
    # |D(N,m)> with the mode in vacuum spans exactly the phonon-free states
    dicke = vecs[sector.phonons == 0].sum(axis=0) / np.sqrt(comb(len(om), m))
    weight = dicke * start  # F(t) = |sum_k weight_k exp(-i E_k t)|^2

    def fid(t):
        return float(abs(np.exp(-1j * evals * t) @ weight) ** 2)

    dt = np.pi / (GRID_PER_PERIOD * omega_prime)
    steps_cap = int(np.ceil(GRID_PER_PERIOD * MAX_PERIODS))
    # the first maximum comes after about one period, so the grid is
    # scanned two periods at a time and the scan stops at the first chunk
    # that holds one; consecutive chunks share the two grid points that
    # the peak test on their seam reads
    span = 2 * GRID_PER_PERIOD
    for first in range(0, steps_cap - 1, span - 1):
        grid = np.arange(first, min(first + span, steps_cap) + 1) * dt
        f = np.abs(np.exp(-1j * np.outer(grid, evals)) @ weight) ** 2
        # grid point j + 1 is a maximum, bracketed by its neighbours, when
        # F rose into it and does not rise out of it
        peaks = np.flatnonzero((f[1:-1] > f[:-2]) & (f[1:-1] >= f[2:]))
        if peaks.size:
            break
    else:
        raise SearchError(
            f"no fidelity maximum found before t = {steps_cap * dt:.3f}/Omega_0")
    j = peaks[0]
    # on a unimodal bracket the refine ends within REFINE_TOL / 2 of the
    # maximum, which is at least the grid peak f[j + 1], and
    # |F''| <= (E_max - E_min)^2 bounds how far F can fall off it there;
    # 1e-12 covers rounding
    floor = (f[j + 1] - 1e-12
             - ((evals[-1] - evals[0]) * REFINE_TOL) ** 2 / 8.0)
    t_star, f_star = _golden_max(fid, grid[j], grid[j + 2], REFINE_TOL, floor)

    state = vecs @ (np.exp(-1j * evals * t_star) * start)
    return PulseResult(
        duration=float(t_star),
        fidelity=min(f_star, 1.0),
        phonon_distribution=np.bincount(sector.phonons, weights=np.abs(state) ** 2,
                                        minlength=m + 1),
        couplings=om,
        sector=sector,
        state=state,
    )


def first_max_fidelity(config, addressed, m, equilibrium=None):
    """Full pipeline from a chain configuration: equilibrium -> modes ->
    in-phase couplings for the addressed ions -> first-maximum search.

    ``equilibrium`` reuses a solution of :func:`chain.solve_equilibrium`
    for a chain of the same ion count; the scaled positions depend on
    nothing else.
    """
    if equilibrium is None:
        equilibrium = chain_mod.solve_equilibrium(config)
    modes = chain_mod.solve_axial_modes(config, equilibrium)
    om = chain_mod.coupling_strengths(modes, addressed)
    return first_max_from_couplings(om, m)


@dataclass(frozen=True)
class SweepRow:
    """One point of a mass-ratio sweep: the row's ``pulse``, or ``error``
    in its place (and ``pulse`` None) when the row failed."""

    mu: float
    pulse: PulseResult | None = None
    error: str | None = None


def fidelity_vs_mass_ratio(template, mu_grid, m):
    """First-maximum fidelity across a grid of ancilla-to-qubit mass ratios.

    Rebuilds the chain for every mu via ``template.config_for`` and runs
    :func:`first_max_fidelity` on the qubit ions, with the equilibrium
    solved once for the whole grid.  Rows come back in grid order.  A row
    that fails records its error in :attr:`SweepRow.error` and the sweep
    goes on; if the equilibrium fails, every row records that failure.
    """
    mu_grid = [float(mu) for mu in mu_grid]
    if any(mu <= 0 for mu in mu_grid):
        raise ValueError("all mass ratios must be positive")
    addressed = template.addressed()

    try:
        equilibrium = chain_mod.solve_equilibrium(template.config_for(1.0))
    except Exception as exc:
        return [SweepRow(mu=mu, error=str(exc)) for mu in mu_grid]

    def run_row(mu):
        try:
            return SweepRow(mu=mu, pulse=first_max_fidelity(
                template.config_for(mu), addressed, m, equilibrium=equilibrium))
        except Exception as exc:
            return SweepRow(mu=mu, error=str(exc))

    return [run_row(mu) for mu in mu_grid]
