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
and H is ``[[0, B], [B^T, 0]]``.  The pulse lives in the Krylov space of H
started at ``e_0`` (short-iterative Lanczos: Park & Light, J. Chem. Phys.
85, 5870 (1986)).  On the bipartite H, Lanczos is a Golub-Kahan
bidiagonalisation of B, applied from one per-qubit link table per half
(which :func:`rsb_hamiltonian` fills its matrix from), with no dense
matrix: k steps give E and O bases ``Q_E``, ``Q_O`` and a ``(k + 1) x k``
bidiagonal ``L = X S Y^T``, so ``Q_E X`` and ``Q_O Y`` stand in for the
singular vectors of B.  The first row of ``Q_E`` is ``e_0``, so the pulse
is ``psi_E(t) = e_0 + Q_E X (cos St - 1) X[0]^T``,
``psi_O(t) = -i Q_O Y sin St X[0]^T``.  A row stops when its basis
closes (an invariant space, exact at every t) or when a bound on the
amplitude error at the end of the scan block falls below ``KRYLOV_TOL``;
it grows again for a later block, and fails past ``KRYLOV_CAP`` steps.
The Dicke target lies in one half, by the parity of m, so its amplitude
is real up to a phase, ``A(t) = sum_k a_k g(s_k t)`` with g = sin for odd
m and cos - 1 for even m, and ``F = A^2`` is a sum over at most k real
frequencies.  The same search runs from (2, 1) to (20, 10), 616,666
states, where a dense sector matrix would take 3 TB.  The search reads
the sector through one operator, ``_Halves``, built once per search: E's
mask with the start as E's state 0, the two link tables (links join E
and O only), the half that holds the Dicke target with the target's mask
over it and its norm ``sqrt(C(N, m))``, every state's phonon number and
the Krylov width; anything that keeps that contract runs through the
same Krylov growth, scan and refine.  The phonon number
fixes the qubit weight, so the reduced qubit density is block-diagonal by
weight; it is built only when a caller reads it from a pulse result (a
sweep row is its pulse result or the exception the row raised).

Times are dimensionless throughout, in units of 1/Omega_0, the carrier
Rabi rate in which the couplings are given.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from math import comb, lgamma

import numpy as np

from . import chain as chain_mod
from ._frozen import freeze
from .dicke import QubitDensity
from .errors import ConvergenceError, SearchError, _check_integer, unwrap

GRID_PER_PERIOD = 50  # F(t) grid points per pi / Omega'
MAX_PERIODS = 20.0  # the scan stops at MAX_PERIODS * pi / Omega'
NEWTON_RTOL = 1e-13  # the refine stops at a Newton step of at most this * t
NEWTON_CAP = 50  # Newton steps a row may take before it fails
KRYLOV_TOL = 1e-14  # a row's Krylov amplitude error bound over its block
KRYLOV_CAP = 128  # Golub-Kahan steps a row may take before it fails
CLOSURE = 1e-13  # a Lanczos coefficient below this * Omega' closes a basis
# the search solves a coupling stack in chunks that hold this many bytes of
# each row's Krylov width, w + 1 <= min(De, Do, KRYLOV_CAP) + 1 E vectors,
# not of its D states: 16 bytes per (state, Krylov vector), which covers
# its two bases (8) and as much again for its link amplitudes and the
# temporaries of a step, or per (grid point, Krylov vector) of its F(t)
# scan block, which covers the block's real sines and their temporaries,
# whichever is more (108 rows at (5, 2), one row from (10, 5) up)
CHUNK_BYTES = 1 << 20


def _check_qubits(n):
    """Raise ValueError unless an :class:`ExcitationSector` holds ``n``
    qubits: at least one, and at most 63, since its indices are int64."""
    if n < 1:
        raise ValueError("need at least one qubit")
    if n > 63:
        raise ValueError("the qubit indices are int64: at most 63 qubits")


@dataclass(frozen=True)
class ExcitationSector:
    """The states of N qubits and one mode that hold exactly m excitations.

    State j is ``|qubits[j]> (x) |phonons[j]>``, with the qubit indices
    (popcount <= m) in ascending order and in the convention of
    :mod:`dickesim.dicke` (qubit 0 is the most significant bit).  State 0
    is all qubits down with m phonons.  The indices are int64, so the
    sector holds at most 63 qubits.
    """

    n_qubits: int
    m: int
    qubits: np.ndarray = field(init=False, repr=False, compare=False)
    phonons: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        _check_integer(self.n_qubits, "n_qubits")
        _check_integer(self.m, "m")
        _check_qubits(self.n_qubits)
        if self.m < 0:
            raise ValueError("excitation number must be >= 0")
        # the qubits from the least significant up: the states that raise
        # the new top bit (from at most m - 1 up) go after those that do
        # not, so the indices come out ascending
        qubits = ups = np.zeros(1, dtype=int)
        for bit in range(self.n_qubits):
            room = ups < self.m
            qubits = np.concatenate([qubits, qubits[room] | 1 << bit])
            ups = np.concatenate([ups, ups[room] + 1])
        object.__setattr__(self, "qubits", qubits)
        object.__setattr__(self, "phonons", self.m - ups)
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
        if abs(float(self.phonon_distribution.sum()) - 1.0) > 1e-10:
            raise ValueError("phonon distribution must sum to 1")

    @cached_property
    def reduced_density(self):
        """Qubit state after tracing out the motion (built on first read)."""
        return reduce_to_qubits(self.sector, self.state)


def _check_couplings(couplings):
    """The C-ordered float array of a real ``(N,)`` coupling vector or
    ``(B, N)`` stack (a complex one passes if its imaginary part is zero);
    anything else raises ValueError.  The stacked dot of
    :func:`_omega_prime` adds a row up in an order that follows the stack's
    memory layout, so the copy is C-ordered whatever the caller's layout: a
    row then gives the bits of its one-row call in any stack."""
    om = np.asarray(couplings)
    if om.ndim not in (1, 2) or np.iscomplexobj(om) and np.any(om.imag):
        raise ValueError("couplings must be a real (N,) vector or (B, N) "
                         f"stack, got {om.dtype} of shape {om.shape}")
    return np.ascontiguousarray(om.real, dtype=float)


def rsb_hamiltonian(sector, couplings):
    """Resonant red-sideband Hamiltonian on an excitation sector.

    Returns a real symmetric matrix over ``sector``'s basis (couplings must
    be real; time units 1/Omega_0).  A ``(B, N)`` stack of coupling vectors
    gives the ``(B, D, D)`` stack of their Hamiltonians.  The pulse search
    never builds it; it applies the same link table as a sparse product.
    """
    om = _check_couplings(couplings)
    n = sector.n_qubits
    if om.shape[-1] != n:
        raise ValueError(f"need exactly {n} couplings, got {om.shape}")
    # each link joins an E state to an O state, so E's table holds it once
    halves = _Halves.of(sector)
    links = halves.into_even
    qubit, j = np.nonzero(links.amp)
    e, o = np.flatnonzero(halves.even), np.flatnonzero(~halves.even)
    lower = np.zeros(om.shape[:-1] + (sector.dimension, sector.dimension))
    lower[..., e[j], o[links.other[qubit, j]]] = (om[..., qubit]
                                                  * links.amp[qubit, j])
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


@dataclass(frozen=True, eq=False)
class _Links:
    """The links into each state j of one parity half from the other, as
    C-ordered ``(N, states)`` tables indexed by qubit: row q, one
    contiguous row that :func:`_apply` gathers from, holds the neighbour
    ``other[q, j]`` that differs from j in qubit q, and ``sqrt(n) / 2``
    with n the phonons of whichever of the two has qubit q down; the
    amplitude is 0 where that neighbour leaves the sector."""

    other: np.ndarray
    amp: np.ndarray


@dataclass(frozen=True, eq=False)
class _Halves:
    """The operator the pulse search reads: an excitation sector split by
    the parity of its up-qubit count, built once per search.  The search
    relies on this contract and reads the sector itself nowhere:

    - ``even`` masks the even half E over the states; E's state 0, which
      is also state 0 of the whole, is the start;
    - the links of H join E and O only: ``into_even`` (B, from O to E)
      and ``into_odd`` (B^T, from E to O);
    - the Dicke target is ``dicke``, a mask over the half that ``odd``
      names (O for odd m), divided by ``norm``, ``sqrt(C(N, m))``;
    - ``phonons`` labels every state with its phonon number;
    - ``width`` is the Golub-Kahan steps a row can take,
      ``min(De, Do, KRYLOV_CAP)``.

    ``sector`` is only handed on, unread, to :class:`PulseResult`."""

    sector: ExcitationSector
    even: np.ndarray
    into_even: _Links
    into_odd: _Links
    odd: bool
    dicke: np.ndarray
    norm: float
    phonons: np.ndarray
    width: int

    @classmethod
    def of(cls, sector):
        even, odd = (sector.m - sector.phonons) % 2 == 0, sector.m % 2 == 1
        bits = 1 << (sector.n_qubits - 1 - np.arange(sector.n_qubits))[:, None]

        def links(into, from_):
            qubits, phonons = sector.qubits[into], sector.phonons[into]
            # raising a down qubit takes a phonon, so from a phonon-free
            # state it leaves the sector: n = 0 there
            n = np.where(qubits & bits, phonons + 1, phonons)
            other = np.searchsorted(sector.qubits[from_], qubits ^ bits)
            return _Links(np.where(n > 0, other, 0), 0.5 * np.sqrt(n))

        return cls(
            sector=sector, even=even,
            into_even=links(even, ~even), into_odd=links(~even, even),
            odd=odd, dicke=(sector.phonons == 0)[~even if odd else even],
            norm=np.sqrt(comb(sector.n_qubits, sector.m)),
            phonons=sector.phonons,
            width=min(np.count_nonzero(even), np.count_nonzero(~even),
                      KRYLOV_CAP))


def _apply(links, amps, x):
    """One half of H on a stack of vectors ``x`` over the other half,
    added up qubit by qubit in elementwise steps into a C-ordered stack (the
    BLAS products that read it then take one path whatever the stack's
    height), so that a row's bits do not depend on its stack."""
    y = np.multiply(amps[:, 0], x[:, links.other[0]], order="C")
    for i in range(1, len(links.other)):
        y += amps[:, i] * x[:, links.other[i]]
    return y


def _omega_prime(om):
    """Omega' of each row of a ``(B, N)`` stack as np.linalg.norm takes it
    for one vector: sqrt of a BLAS dot.  A row whose square sum leaves
    double range gets 0 or inf, a non-finite row inf or NaN, all quietly:
    the search turns such rows away."""
    with np.errstate(invalid="ignore", over="ignore"):
        return np.sqrt((om[:, None, :] @ om[:, :, None])[:, 0, 0])


class _Krylov:
    """Golub-Kahan bidiagonalisation of each row's ``De x Do`` block B,
    started from ``e_0``: Lanczos on the bipartite H, whose tridiagonal
    has a zero diagonal and alternates E vectors ``u_j`` (``basis_e``) and
    O vectors ``v_j`` (``basis_o``), with ``B v_j = alpha_j u_j +
    beta_{j+1} u_{j+1}`` and ``B^T u_j = beta_j v_{j-1} + alpha_j v_j``.
    Both are reorthogonalised against their half in full.

    After k steps a row holds ``u_1 .. u_{k+1}``, ``v_1 .. v_{k+1}`` and
    the ``(k + 1) x k`` bidiagonal L of ``alpha_1 .. alpha_k`` and
    ``beta_2 .. beta_{k+1}``: ``n = 2k + 1`` Lanczos vectors, whose next
    coefficient is ``gamma_{n+1} = alpha_{k+1}``.  The rows of a stack step
    in lockstep, each with its own coefficients, so that a row's bits
    depend on the row alone.

    Once :meth:`cover` has solved a row, ``s`` holds its frequencies and
    ``weight`` its real Dicke weights ``a_k = (D.U_k) U[0, k]`` for even m
    and ``(D.V_k) U[0, k]`` for odd m (``U = Q_E X`` and ``V = Q_O Y``,
    never formed; D the Dicke target of :class:`_Halves`, its mask over
    ``norm``), so that ``F(t) = (sum_k a_k g(s_k t))^2`` with g from
    :func:`_wave`.  A row of k steps fills the first k of the width's
    columns of ``s``, ``weight``, X and ``Y^T``; the rest are zero.
    """

    def __init__(self, halves, om, omega_prime):
        self.halves = halves
        rows, width = len(om), halves.width
        # the (B, N, states) amplitudes (Omega_q / 2) sqrt(n) of each link
        self.to_e = halves.into_even.amp * om[:, :, None]
        self.to_o = halves.into_odd.amp * om[:, :, None]
        self.floor = CLOSURE * omega_prime
        self.basis_e = np.zeros((rows, width + 1, self.to_e.shape[2]))
        self.basis_o = np.zeros((rows, width + 1, self.to_o.shape[2]))
        self.alpha = np.zeros((rows, width + 1))
        self.beta = np.zeros((rows, width + 1))
        self.steps = np.zeros(rows, dtype=int)
        self.closed = np.zeros(rows, dtype=bool)
        # log of the product of the Lanczos coefficients so far
        self.log_gamma = np.zeros(rows)
        self.log_factorial = np.array([lgamma(n + 1.0)
                                       for n in range(2 * width + 2)])
        self.until = np.zeros(rows)  # the time each row's spectrum covers
        # each row's spectrum at its step count, zero-padded to the width
        self.s = np.zeros((rows, width))
        self.weight = np.zeros((rows, width))
        self.x = np.zeros((rows, width + 1, width))
        self.yt = np.zeros((rows, width, width))
        self.basis_e[:, 0, 0] = 1.0
        v = _apply(halves.into_odd, self.to_o, self.basis_e[:, 0])
        self.alpha[:, 0] = np.sqrt((v * v).sum(axis=1))
        self.basis_o[:, 0] = v / self.alpha[:, :1]
        self.log_gamma += np.log(self.alpha[:, 0])

    def bound(self, rows):
        """log of each row's bound on the amplitude error of its Krylov
        pulse at times up to its ``until``:
        ``t^n prod(gamma_2 .. gamma_{n+1}) / n!``.

        The error is ``gamma_{n+1} int_0^t |[exp(-i T_n s)]_{n,1}| ds``
        (Saad, SIAM J. Numer. Anal. 29, 209 (1992); Hochbruck & Lubich,
        SIAM J. Numer. Anal. 34, 1911 (1997)), and the Hermite-Genocchi
        formula bounds that entry of the tridiagonal's exponential by
        ``prod(gamma_2 .. gamma_n) s^(n-1) / (n-1)!``.  It grows with t, so
        a row that covers a later time never takes fewer steps.
        """
        n = 2 * self.steps[rows] + 1
        return (self.log_gamma[rows] + n * np.log(self.until[rows])
                - self.log_factorial[n])

    def cover(self, rows, t):
        """Step each row until its error bound at time t is at most
        KRYLOV_TOL or its basis closes, and solve its spectrum there.
        Each round steps the open rows above the bound that are short of
        the width, those at the lowest step count first.  Returns the rows
        at the width whose bound is still above KRYLOV_TOL."""
        self.until[rows] = t
        while True:
            need = rows[~self.closed[rows]]
            need = need[self.bound(need) > np.log(KRYLOV_TOL)]
            full = self.steps[need] == self.halves.width
            if full.all():
                break
            short = need[~full]
            self._step(short[self.steps[short] == self.steps[short].min()])
        self._solve(np.setdiff1d(rows, need))
        return need

    def _step(self, rows):
        """One Golub-Kahan step for rows at the same step count k: the
        next E vector from ``B v_{k+1}``, then the next O vector from
        ``B^T u_{k+2}``.  A coefficient below ``CLOSURE * Omega'`` closes
        the row's basis: its Krylov space is invariant under H."""
        k = self.steps[rows[0]]
        h = self.halves
        self.steps[rows] = k + 1
        # a slice, not a copy, while the whole chunk steps together
        at = rows if len(rows) < len(self.steps) else slice(None)
        u = _apply(h.into_even, self.to_e[at], self.basis_o[at, k])
        u -= self.alpha[at, k, None] * self.basis_e[at, k]
        beta = _orthogonalise(u, self.basis_e[at, :k + 1])
        rows, at, (u, beta) = self._close(rows, at, beta, u, beta)
        self.beta[at, k + 1] = beta
        self.basis_e[at, k + 1] = u / beta[:, None]
        v = _apply(h.into_odd, self.to_o[at], self.basis_e[at, k + 1])
        v -= beta[:, None] * self.basis_o[at, k]
        alpha = _orthogonalise(v, self.basis_o[at, :k + 1])
        rows, at, (v, beta, alpha) = self._close(rows, at, alpha, v, beta,
                                                 alpha)
        self.alpha[at, k + 1] = alpha
        self.basis_o[at, k + 1] = v / alpha[:, None]
        self.log_gamma[at] += np.log(beta) + np.log(alpha)

    def _close(self, rows, at, norm, *arrays):
        """Close the rows whose new coefficient ``norm`` is below
        ``CLOSURE * Omega'``; returns the rest, their index and their part
        of ``arrays``."""
        shut = norm < self.floor[at]
        if not shut.any():
            return rows, at, arrays
        self.closed[rows[shut]] = True
        rows = rows[~shut]
        return rows, rows, tuple(a[~shut] for a in arrays)

    def _solve(self, rows):
        """The spectrum of ``rows`` from the thin SVD ``L = X S Y^T`` of
        their bidiagonal: ``s``, X and ``Y^T``, zero-padded to the width,
        and the weights ``a_k`` of the class docstring, with ``U[0] = X[0]``
        (each E vector after ``e_0`` loses its e_0 part exactly) and the
        Dicke sums of the bases times X or Y.  The stacked SVD solves each
        matrix on its own, so a row re-solved at an unchanged step count
        gets the same bits."""
        h, odd = self.halves, self.halves.odd
        for k in np.unique(self.steps[rows]):
            group = rows[self.steps[rows] == k]
            lower = np.zeros((len(group), k + 1, k))
            diag = np.arange(k)
            lower[:, diag, diag] = self.alpha[group, :k]
            lower[:, diag + 1, diag] = self.beta[group, 1:k + 1]
            x, s, yt = np.linalg.svd(lower, full_matrices=False)
            # one C-ordered gather of the Dicke states (a masked gather
            # from a stack lays the mask axis out first, which would make
            # the order of the sum depend on the stack's height)
            basis = self.basis_o if odd else self.basis_e
            dicke = basis[np.ix_(group, np.arange(k + 1 - odd), h.dicke)
                          ].sum(axis=2)
            overlap = ((yt @ dicke[:, :, None])[:, :, 0] if odd
                       else (dicke[:, None, :] @ x)[:, 0])
            self.s[group, :k] = s
            self.x[group, :k + 1, :k] = x
            self.yt[group, :k, :k] = yt
            self.weight[group, :k] = overlap / h.norm * x[:, 0]

    def state(self, t):
        """Each row's state over the operator's states at its time ``t``,
        from its spectrum and bases:
        ``psi_E = e_0 + Q_E X (cos St - 1) X[0]^T`` and
        ``psi_O = -i Q_O Y sin St X[0]^T``.  It takes every row of the
        stack, so that no row subset copies the bases."""
        h = self.halves
        arg, head = (self.s * t[:, None])[:, None], self.x[:, :1]
        states = np.zeros((len(t), len(h.phonons)), dtype=complex)
        states[:, h.even] = (_wave(False, arg) * head
                             @ np.swapaxes(self.x, 1, 2) @ self.basis_e)[:, 0]
        states[:, 0] += 1.0
        states[:, ~h.even] = -1j * (np.sin(arg) * head @ self.yt
                                    @ self.basis_o[:, :h.width])[:, 0]
        return states


def _orthogonalise(x, basis):
    """Remove from each row of ``x`` its projection on the orthonormal rows
    of ``basis`` (one classical Gram-Schmidt pass, in place) and return the
    norms of what is left."""
    x -= (np.swapaxes(basis @ x[:, :, None], 1, 2) @ basis)[:, 0]
    return np.sqrt((x * x).sum(axis=1))


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
    integer (a bool is neither) in 1..n, the number of qubits, and an
    :class:`ExcitationSector` holds n qubits."""
    _check_integer(m, "m")
    if m < 1:
        raise ValueError("need at least one phonon to convert")
    if m > n:
        raise ValueError(f"{m} phonons cannot all be absorbed by {n} qubits")
    _check_qubits(n)


def first_max_from_couplings(couplings, m):
    """Locate the first local maximum of F(t) = <D(N,m)| rho(t) |D(N,m)>
    under the red-sideband pulse, starting from all-down with m phonons.

    ``couplings`` are in units of Omega_0.  The fidelity is scanned on a
    grid of step pi/(GRID_PER_PERIOD * Omega') out to
    ``MAX_PERIODS * pi / Omega'``, two periods at a time, stopping at the
    first detected local maximum.  Before each block a row's Krylov basis
    (Golub-Kahan steps on the sector's E-O block, see the module
    docstring) grows until it closes, or until the bound
    ``t^n prod(gamma) / n!`` on its amplitude error at the block's end
    (n Lanczos vectors with coefficients gamma) is at most ``KRYLOV_TOL``.
    Newton steps on the analytic F' and F'' refine the maximum inside its
    two grid neighbours until a step is at most ``NEWTON_RTOL`` of t, so
    the duration is exact to rounding on any coupling scale.

    A ``(B, N)`` stack of coupling vectors is searched in chunks of as
    many rows as ``CHUNK_BYTES`` holds, counted by each row's Krylov width:
    one lockstep Krylov growth, scan and refine per chunk, each row on its
    own grid with its own step count.  The stack is searched as a
    C-ordered copy, so a row's result depends neither on its chunk nor on
    the caller's memory layout (Fortran order, a step slice).  The call
    then returns a list that holds, per row, its PulseResult or the
    ValueError or SearchError the row raises on its own.

    A row is searched only if its Omega', taken as one double by
    :func:`_omega_prime`, has ``0 < Omega' < inf``.  Any other row (a NaN
    or inf coupling, all zeros, a square sum that under- or overflows) is
    a ValueError that names its Omega'.

    Raises
    ------
    ValueError
        Before any solve, if ``couplings`` is not a real ``(N,)`` vector
        or ``(B, N)`` stack, if ``m`` is not an int or numpy integer (a
        bool is neither) in 1..N, or if N is above 63, the bound of
        :class:`ExcitationSector`'s int64 qubit indices; and for a row
        whose Omega' is not in ``(0, inf)``, before that row's solve.
    SearchError
        If no local maximum appears before the time cap, if the Krylov
        bound is still above ``KRYLOV_TOL`` after ``KRYLOV_CAP`` steps, or
        if the refine ends where F'' >= 0, is still stepping after
        ``NEWTON_CAP`` steps, or ends with F below the grid peak it started
        from.
    """
    om = _check_couplings(couplings)
    stacked = om.ndim == 2
    om = om if stacked else om[None, :]
    n = om.shape[1]
    _check_m(m, n)
    omega_prime = _omega_prime(om)
    # a row that LAPACK cannot decompose would fail the whole stack
    admitted = (0.0 < omega_prime) & (omega_prime < np.inf)
    outcomes = [None if ok else ValueError(
        f"couplings need a finite nonzero Omega' in double range: got "
        f"Omega' = {w!r}") for ok, w in zip(admitted, omega_prime.tolist())]
    rows = np.flatnonzero(admitted)
    halves = _Halves.of(ExcitationSector(n_qubits=n, m=m))
    row_bytes = (16 * max(len(halves.phonons), 2 * GRID_PER_PERIOD + 1)
                 * (halves.width + 1))
    chunk = max(1, CHUNK_BYTES // row_bytes)
    for first in range(0, len(rows), chunk):
        part = rows[first:first + chunk]
        found = _search_chunk(halves, om[part], omega_prime[part])
        for r, outcome in zip(part, found):
            outcomes[r] = outcome
    return outcomes if stacked else unwrap(outcomes[0])


def _search_chunk(halves, om, omega_prime):
    """The first-maximum search on a stack of admitted coupling rows
    (``0 < Omega' < inf``) with their Omega'; returns each row's
    PulseResult or SearchError.  Its arrays go when it returns, so chunks
    do not pile up."""
    krylov, odd = _Krylov(halves, om, omega_prime), halves.odd

    dt = np.pi / (GRID_PER_PERIOD * omega_prime)
    steps_cap = int(np.ceil(GRID_PER_PERIOD * MAX_PERIODS))
    peak = np.zeros((len(om), 4))  # grid[j + 1], grid[j], grid[j + 2], f[j + 1]
    outcomes = [None] * len(om)
    # the first maximum comes after about one period, so the grid is
    # scanned two periods at a time and a row leaves the scan at the first
    # block that holds one; consecutive blocks share the two grid points
    # that the peak test on their seam reads.  A row's Krylov basis grows
    # to cover each block it scans.
    span = 2 * GRID_PER_PERIOD
    scanning = np.arange(len(om))
    for first in range(0, steps_cap - 1, span - 1):
        if not scanning.size:
            break
        steps = np.arange(first, min(first + span, steps_cap) + 1)
        stuck = krylov.cover(scanning, steps[-1] * dt[scanning])
        for k, bound in zip(stuck, np.exp(krylov.bound(stuck))):
            outcomes[k] = SearchError(
                f"Krylov basis not converged at k = {krylov.steps[k]} "
                f"steps: error bound {bound:.3g} at "
                f"t = {krylov.until[k]:.3f}/Omega_0")
        scanning = np.setdiff1d(scanning, stuck)
        grid = steps * dt[scanning, None]
        f = _fidelity(krylov.s[scanning], krylov.weight[scanning], odd, grid)
        # grid point j + 1 is a maximum, bracketed by its neighbours, when
        # F rose into it and does not rise out of it
        is_peak = (f[:, 1:-1] > f[:, :-2]) & (f[:, 1:-1] >= f[:, 2:])
        found = np.flatnonzero(is_peak.any(axis=1))
        j = np.argmax(is_peak[found], axis=1)
        peak[scanning[found]] = np.stack(
            [grid[found, j + 1], grid[found, j], grid[found, j + 2],
             f[found, j + 1]], axis=1)
        scanning = np.delete(scanning, found)
    for k in scanning:
        outcomes[k] = SearchError(
            "no fidelity maximum found before "
            f"t = {steps_cap * dt[k]:.3f}/Omega_0")
    peaked = np.flatnonzero(peak[:, 0])  # a grid peak lies at t > 0
    t_star, f_star = np.zeros(len(om)), np.zeros(len(om))
    t_star[peaked], f_star[peaked], curvature, unsettled = _refine(
        krylov.s[peaked], krylov.weight[peaked], odd, *peak[peaked, :3].T)
    states = krylov.state(t_star)  # failures at t = 0: e_0
    # each row's phonon distribution, added up in state order per row
    phonons = np.zeros((len(om), halves.phonons.max() + 1))
    np.add.at(phonons, (slice(None), halves.phonons), np.abs(states) ** 2)
    stepping = np.isin(np.arange(len(peaked)), unsettled).tolist()
    t_star, f_star = t_star.tolist(), f_star.tolist()
    grid_peak = peak[:, 3].tolist()
    for i, (k, bent) in enumerate(zip(peaked.tolist(), curvature.tolist())):
        if bent >= 0.0:
            why = f"F'' = {bent!r} >= 0: not a maximum"
        elif stepping[i]:
            why = f"still stepping after {NEWTON_CAP} steps"
        elif f_star[k] < grid_peak[k]:
            why = (f"F = {f_star[k]!r}, below the grid peak's "
                   f"{grid_peak[k]!r}")
        else:
            outcomes[k] = PulseResult(
                duration=t_star[k], fidelity=min(f_star[k], 1.0),
                phonon_distribution=phonons[k], couplings=om[k],
                sector=halves.sector, state=states[k])
            continue
        outcomes[k] = SearchError(
            f"Newton refine ended at t = {t_star[k]:.6f}/Omega_0: {why}")
    return outcomes


def first_max_fidelity(config, addressed, m):
    """Full pipeline from one chain configuration: in-phase couplings of
    the addressed ions (about the chain's equilibrium) -> first-maximum
    search.  An ``m`` that is not an integer in 1..(distinct addressed
    ions) raises ValueError before the mode solve."""
    addressed = chain_mod._addressed_ions(config, addressed)
    _check_m(m, len(addressed))
    outcomes, _, eta = chain_mod._couplings(config, [config.masses], addressed)
    unwrap(outcomes[0])
    return first_max_from_couplings(eta[0], m)


def fidelity_vs_mass_ratio(template, mu_grid, m):
    """First-maximum fidelity across a grid of ancilla-to-qubit mass ratios.

    Takes the template's chain with one ancilla mass per mu, solves the
    in-phase couplings of its qubit ions as one mode stack (one
    equilibrium and one stacked mode solve for the whole grid), and
    searches them as one :func:`first_max_from_couplings` stack.  Returns,
    in grid order, each row's PulseResult or the exception the row raised;
    the sweep goes on past a failed row, and if the equilibrium stalls
    (ConvergenceError), every row holds that failure; any other error of
    the coupling solve propagates.  An ``m`` that is not an integer in
    1..(qubit count), or a mass ratio that is not finite and positive,
    raises ValueError before any solve.
    """
    _check_m(m, template.n_qubits)
    masses = template._masses(mu_grid)
    try:
        outcomes, rows, eta = chain_mod._couplings(
            template.config, masses, list(template.addressed()))
    except ConvergenceError as exc:
        return [exc] * len(masses)
    for r, pulse in zip(rows, first_max_from_couplings(eta, m)):
        outcomes[r] = pulse
    return outcomes
