"""Classical mechanics of a linear mixed-species ion chain.

Equilibrium positions, axial normal modes and per-ion sideband coupling
strengths for a string of singly charged ions in a linear trap.  All ions
share the static axial well, so equal charges see equal spring constants
``k = m_ref * omega_z**2`` and the scaled equilibrium positions depend only
on the number of ions; the masses enter through the kinetic term and shape
the normal modes.

Internally everything is solved in scaled units: lengths in
``l = (e^2 / (4 pi eps0 m_ref omega_z^2))^(1/3)``, frequencies in units of
the reference ion's axial frequency ``omega_z``.  A chain whose
``omega_z`` is None reports results in those units (and ``hbar = 1`` for
ground-state amplitudes); otherwise frequencies come back in rad/s and
amplitudes in metres.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace

import numpy as np

from ._frozen import freeze
from .errors import (ConvergenceError, DataError, UnstableCrystalError,
                     _check_integer, _is_integer, unwrap)

HBAR = 1.054571817e-34  # J s
ATOMIC_MASS = 1.66053906660e-27  # kg

# Above this value the linear sideband-coupling model starts to break down.
LAMB_DICKE_THRESHOLD = 0.3

# Stopping rule of the equilibrium solver: gradient norm, iteration cap.
GRAD_TOL = 1e-12
MAX_ITER = 500


class LambDickeWarning(UserWarning):
    """Emitted when a coupling strength is requested outside the Lamb-Dicke
    regime (eta > 0.3), where the linear coupling model degrades."""


@dataclass(frozen=True)
class ChainConfig:
    """One physical ion chain.

    Parameters
    ----------
    masses : sequence of float
        Atomic masses in u, ordered by position along the chain axis.
    reference_index : int
        Index of the ion whose single-ion axial frequency is ``omega_z``:
        an int or a numpy integer (kept as an int), not a bool.
    omega_z : float or None
        Angular axial trap frequency of the reference ion alone (rad/s).
        None, the default, reports modes in scaled units: charge,
        reference mass, omega_z and hbar all equal to 1.
    k_projection : float
        Laser wavevector projection on the chain axis (1/m, or inverse
        scaled length units when ``omega_z`` is None).
    """

    masses: tuple
    reference_index: int = 0
    omega_z: float | None = None
    k_projection: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "masses", tuple(float(m) for m in self.masses))
        if len(self.masses) < 2:
            raise ValueError("a chain needs at least 2 ions")
        omega = () if self.omega_z is None else (self.omega_z,)
        if not np.all(np.isfinite((*self.masses, *omega, self.k_projection))):
            raise ValueError("masses, omega_z and k_projection must be finite")
        if any(m <= 0 for m in self.masses):
            raise ValueError("all masses must be positive")
        _check_integer(self.reference_index, "reference_index")
        object.__setattr__(self, "reference_index", int(self.reference_index))
        if not 0 <= self.reference_index < len(self.masses):
            raise ValueError("reference_index out of range")
        if self.omega_z is not None and self.omega_z <= 0:
            raise ValueError("omega_z must be positive")
        if self.k_projection < 0:
            raise ValueError("k_projection must be non-negative")

    @property
    def n_ions(self):
        return len(self.masses)


@dataclass(frozen=True, eq=False)
class EquilibriumSolution:
    """Equilibrium axial coordinates in scaled length units, ascending."""

    positions: np.ndarray
    residual_gradient_norm: float

    def __post_init__(self):
        freeze(self, float, "positions")
        if np.any(np.diff(self.positions) <= 0):
            raise ValueError("equilibrium positions must be strictly increasing")


@dataclass(frozen=True, eq=False)
class ModeSet:
    """Axial normal modes of one chain.

    ``eigenvectors[:, k]`` is the mass-weighted eigenvector of mode ``k``
    (orthonormal, sign-fixed so the component sum is positive), frequencies
    ascend, ``ground_state_amplitudes[i, k]`` is the zero-point amplitude
    z_i of ion i in mode k and ``lamb_dicke = k_projection * z``.  The
    in-phase mode is the lowest one, mode 0.  ``equilibrium`` is the
    solution the modes were solved at.  When the chain's ``omega_z`` is
    None, frequencies are in units of omega_z and amplitudes in scaled
    lengths (hbar = 1), otherwise in rad/s and metres.  Only
    :func:`solve_axial_modes` builds one.  The pulse layer reads no
    ModeSet: it takes its couplings from ``_couplings``, one mode stack
    for all of a sweep's rows and a one-row stack for a single chain, the
    route :func:`coupling_strengths` also takes.
    """

    frequencies: np.ndarray
    eigenvectors: np.ndarray
    ground_state_amplitudes: np.ndarray
    lamb_dicke: np.ndarray
    equilibrium: EquilibriumSolution

    def __post_init__(self):
        freeze(self, float, "frequencies", "eigenvectors",
               "ground_state_amplitudes", "lamb_dicke")

    @property
    def n_ions(self):
        return self.eigenvectors.shape[0]


def scaled_gradient(positions):
    """Gradient (analytic) of the scaled axial potential energy
    ``sum_i u_i^2 / 2 + sum_{i<j} 1 / |u_i - u_j|``: trap term plus mutual
    Coulomb repulsion, in units of ``m_ref * omega_z^2 * l^2``."""
    u = np.asarray(positions, dtype=float)
    d = u[:, None] - u[None, :]
    np.fill_diagonal(d, np.inf)
    return u - np.sum(np.sign(d) / (d * d), axis=1)


def scaled_hessian(positions):
    """Hessian (analytic) of the potential of :func:`scaled_gradient`."""
    u = np.asarray(positions, dtype=float)
    n = len(u)
    d = np.abs(u[:, None] - u[None, :])
    np.fill_diagonal(d, np.inf)
    off = 2.0 / d**3
    h = -off
    h[np.diag_indices(n)] = 1.0 + np.sum(off, axis=1)
    return h


def solve_equilibrium(config):
    """Find the equilibrium positions of the chain.

    Reads only the chain's ion count: every ion sits in the same axial
    well, so the scaled positions do not depend on the masses.  Damped
    Newton iteration on the scaled potential, seeded with uniform
    spacing.  The step is halved until it both preserves the ion ordering
    and decreases the gradient norm.

    Returns
    -------
    EquilibriumSolution
        Positions in scaled length units, strictly ascending.

    Raises
    ------
    ConvergenceError
        If the gradient norm is still above ``GRAD_TOL`` when the line
        search finds no step that lowers it, or after ``MAX_ITER``
        iterations; the message says which, and after how many iterations.
    """
    n = config.n_ions
    u = (np.arange(n) - (n - 1) / 2.0) * 1.3
    g = scaled_gradient(u)
    gnorm = np.linalg.norm(g)
    iterations = 0
    stalled = False
    while gnorm >= GRAD_TOL and iterations < MAX_ITER:
        step = np.linalg.solve(scaled_hessian(u), g)
        lam = 1.0
        while lam > 1e-14:
            trial = u - lam * step
            if np.all(np.diff(trial) > 0):
                g_trial = scaled_gradient(trial)
                trial_norm = np.linalg.norm(g_trial)
                if trial_norm < gnorm:
                    u, g, gnorm = trial, g_trial, trial_norm
                    break
            lam *= 0.5
        else:
            stalled = True
            break
        iterations += 1
    if gnorm >= GRAD_TOL:
        cause = ("the line search found no step that lowers it" if stalled
                 else f"the iteration cap MAX_ITER = {MAX_ITER} was reached")
        raise ConvergenceError(
            f"equilibrium solver stalled at gradient norm {gnorm:.3e} "
            f"(tolerance {GRAD_TOL:.1e}) after {iterations} Newton "
            f"iterations: {cause}",
            residual_norm=float(gnorm),
        )
    return EquilibriumSolution(positions=u, residual_gradient_norm=float(gnorm))


def _fix_eigenvector_signs(vectors):
    """Normalize the signs of a stack of eigenvector columns: component sum
    positive, falling back to the first significant component for
    sum-free (antisymmetric) modes."""
    s = vectors.sum(axis=-2)
    first = np.argmax(np.abs(vectors) > 1e-12, axis=-2)
    lead = np.take_along_axis(vectors, first[..., None, :], axis=-2)[..., 0, :]
    s = np.where(np.abs(s) < 1e-9, lead, s)
    return np.where(s[..., None, :] < 0, -vectors, vectors)


def _mode_stack(config, masses):
    """Modes of a chain with its masses replaced by each row of the
    ``(B, N)`` array ``masses``: one equilibrium solve, one stacked eigh,
    and the frequencies and ground-state amplitudes of the whole stack at
    once.

    Returns ``(outcomes, rows, eq, freqs, vecs, z)``: ``outcomes`` holds,
    per mass row, the UnstableCrystalError it raises on its own, or None,
    and the arrays hold the modes of the other rows, ``rows``, in order.
    The amplitudes ``z = b sqrt(hbar / (2 m omega))`` come from one
    expression for both unit systems, ``omega`` being the scaled
    frequency times a unit: ``(hbar, m, unit)`` is ``(1, m / m_ref, 1)``
    in scaled units and ``(HBAR, m u, omega_z)`` in SI.
    """
    eq = solve_equilibrium(config)
    masses = np.asarray(masses, dtype=float)
    outcomes = [None] * len(masses)
    mt = masses / masses[:, config.reference_index, None]
    with np.errstate(over="ignore"):  # reported just below
        mass_products = mt[:, :, None] * mt[:, None, :]
    # m_i m_j is in range for every pair once every m_i^2 is, and rows
    # that are not leave the stack before the division
    squares = np.diagonal(mass_products, axis1=1, axis2=2)
    out_of_range = ~((squares > 0) & np.isfinite(squares))
    for r in np.flatnonzero(out_of_range.any(axis=1)):
        i = int(np.argmax(out_of_range[r]))
        outcomes[r] = UnstableCrystalError(
            f"mass ratio {mt[r, i]:g} of ion {i} is out of range: its square "
            f"{squares[r, i]:g} leaves the mass-weighted Hessian "
            "undefined")
    rows = np.flatnonzero(~out_of_range.any(axis=1))
    d = scaled_hessian(eq.positions) / np.sqrt(mass_products[rows])
    del mass_products
    evals, vecs = np.linalg.eigh(d)
    vecs = _fix_eigenvector_signs(vecs)
    # D is positive definite with negative off-diagonals, so its lowest
    # eigenvector is single-signed (Perron-Frobenius): the in-phase mode
    resolved = (evals[:, 0] > 0) & np.all(vecs[:, :, 0] > 1e-10, axis=1)
    for k in np.flatnonzero(~resolved):
        r = rows[k]
        outcomes[r] = UnstableCrystalError(
            f"mass ratios spanning {mt[r].min():g} to {mt[r].max():g} are too "
            "far apart for double precision: the small mode curvatures are "
            f"lost to rounding (lowest eigenvalue {evals[k, 0]:.3e}, smallest "
            f"in-phase component {vecs[k, :, 0].min():.3e}; need > 0 and "
            "> 1e-10)")
    rows, evals, vecs = rows[resolved], evals[resolved], vecs[resolved]
    hbar, m, unit = ((1.0, mt[rows], 1.0) if config.omega_z is None else
                     (HBAR, masses[rows] * ATOMIC_MASS, config.omega_z))
    freqs = np.sqrt(evals) * unit
    z = vecs * np.sqrt(hbar / (2.0 * m[:, :, None] * freqs[:, None, :]))
    return outcomes, rows, eq, freqs, vecs, z


def solve_axial_modes(config):
    """Axial normal modes of a chain about its equilibrium.

    Solves the equilibrium (:func:`solve_equilibrium`), then diagonalizes
    the mass-weighted Hessian ``D = H_ij / sqrt(m_i m_j)`` (masses in units
    of the reference mass).  Ground-state amplitudes are
    ``z_i = b_ik * sqrt(hbar / (2 m_i omega_k))`` with ``b`` the
    mass-weighted eigenvector; Lamb-Dicke parameters are
    ``eta_i = k_projection * z_i``.

    Raises
    ------
    ConvergenceError
        If the equilibrium solve fails.
    UnstableCrystalError
        On a mass ratio whose square under- or overflows (the mass-weighted
        Hessian is then not finite), or on mass ratios so far apart that
        rounding loses the small mode curvatures: the lowest computed
        eigenvalue is then not positive, or its eigenvector has a component
        at or below 1e-10.
    """
    outcomes, _, eq, freqs, vecs, z = _mode_stack(config, [config.masses])
    unwrap(outcomes[0])
    return ModeSet(frequencies=freqs[0], eigenvectors=vecs[0],
                   ground_state_amplitudes=z[0],
                   lamb_dicke=config.k_projection * z[0], equilibrium=eq)


def _addressed_ions(config, addressed):
    """The distinct addressed ions, sorted, or the ValueError of
    :func:`coupling_strengths`."""
    addressed = tuple(addressed)
    for i in addressed:
        if not _is_integer(i):
            raise ValueError(f"addressed ion index {i!r} is not an integer")
    addressed = sorted(set(int(i) for i in addressed))
    if not addressed:
        raise ValueError("addressed ion set must not be empty")
    if addressed[0] < 0 or addressed[-1] >= config.n_ions:
        raise ValueError("addressed ion index out of range")
    return addressed


def _couplings(config, masses, addressed):
    """:func:`coupling_strengths` of the sorted ``addressed`` ions for
    every mass row of :func:`_mode_stack`, with one warning per SI row
    past 0.3.  Each public entry point calls it directly, so the warning
    names that entry point's caller.

    Returns ``(outcomes, rows, eta)`` in the form of :func:`_mode_stack`:
    ``outcomes`` holds, per mass row, its UnstableCrystalError or None,
    and the read-only ``(len(rows), len(addressed))`` array ``eta`` holds
    the couplings of the other rows, ``rows``, in order.  ``eta`` is a
    slice of the mode stack and Fortran-ordered; the pulse search makes
    its own C-ordered copy.
    """
    outcomes, rows, _, _, _, z = _mode_stack(config, masses)
    eta = config.k_projection * z[:, addressed, 0]
    eta.setflags(write=False)
    if config.omega_z is not None:
        peaks = np.max(np.abs(eta), axis=1)
        for peak in peaks[peaks > LAMB_DICKE_THRESHOLD]:
            warnings.warn(
                f"max |eta| = {peak:.3g} exceeds {LAMB_DICKE_THRESHOLD}; the "
                "linear sideband coupling model is unreliable here",
                LambDickeWarning, stacklevel=3)
    return outcomes, rows, eta


def coupling_strengths(config, addressed):
    """Red-sideband coupling strengths ``Omega_i / Omega_0 = eta_i`` of a
    chain's addressed ions, taken on the in-phase mode, in chain order, as
    a read-only array.

    The couplings are in units of the carrier Rabi rate Omega_0.  Emits a
    :class:`LambDickeWarning` when an addressed eta exceeds 0.3 on an SI chain
    (in scaled units eta is not a physical Lamb-Dicke parameter).  The
    errors are those of :func:`solve_axial_modes`, and a ValueError, raised
    before the mode solve, on an addressed set that is empty, holds an
    index that is not an integer (a numpy integer is one, a bool is not)
    or one out of range.
    """
    addressed = _addressed_ions(config, addressed)
    outcomes, _, eta = _couplings(config, [config.masses], addressed)
    unwrap(outcomes[0])
    return eta[0]


@dataclass(frozen=True)
class ChainTemplate:
    """A chain with one designated ancilla slot, parameterized by the
    ancilla-to-qubit mass ratio mu.

    The mass at ``ancilla_index`` in ``config`` is a placeholder that
    :meth:`config_for` replaces with ``mu * m_reference``; the reference
    ion must be a qubit ion.  The slot is an int or a numpy integer (kept
    as an int); a bool or any other value raises ValueError.
    """

    config: ChainConfig
    ancilla_index: int

    def __post_init__(self):
        _check_integer(self.ancilla_index, "ancilla_index")
        object.__setattr__(self, "ancilla_index", int(self.ancilla_index))
        if not 0 <= self.ancilla_index < self.config.n_ions:
            raise ValueError("ancilla_index out of range")
        if self.config.reference_index == self.ancilla_index:
            raise ValueError("the reference ion must be a qubit ion")

    @classmethod
    def symmetric(cls, n_qubits, placement="center", qubit_mass=1.0, **kwargs):
        """Equal-mass qubit chain with the ancilla at a standard slot.

        ``placement`` is ``"center"`` (for an odd qubit count the slot just
        below the midpoint), ``"edge"`` (last position), or an explicit
        integer slot (not a bool).  Other keyword arguments go to
        :class:`ChainConfig`.
        """
        _check_integer(n_qubits, "n_qubits")
        if n_qubits < 1:
            raise ValueError("need at least one qubit ion")
        n = n_qubits + 1
        if placement == "center":
            slot = n_qubits // 2
        elif placement == "edge":
            slot = n_qubits
        elif _is_integer(placement):
            slot = placement
        else:
            raise ValueError(f"unknown placement {placement!r}")
        reference = 0 if slot != 0 else 1
        return cls(ChainConfig(masses=(qubit_mass,) * n,
                               reference_index=reference, **kwargs), slot)

    @property
    def n_qubits(self):
        return self.config.n_ions - 1

    def addressed(self):
        """Indices of the qubit ions, in chain order."""
        return tuple(i for i in range(self.config.n_ions)
                     if i != self.ancilla_index)

    def _masses(self, mu_grid):
        """``(B, N)`` masses: per mass ratio mu, the template's masses with
        the ancilla's set to mu times the reference (qubit) mass.  A mu
        that is not finite and positive raises ValueError."""
        mus = np.array([float(mu) for mu in mu_grid])
        if not np.all((mus > 0) & (mus < np.inf)):
            raise ValueError("mass ratios must be finite and positive")
        cfg = self.config
        masses = np.tile(cfg.masses, (len(mus), 1))
        with np.errstate(over="ignore"):  # the mode solve names the row
            masses[:, self.ancilla_index] = (
                mus * cfg.masses[cfg.reference_index])
        return masses

    def config_for(self, mu):
        """ChainConfig with the ancilla mass set to ``mu`` times the
        reference (qubit) mass: one row of :meth:`_masses`."""
        return replace(self.config, masses=self._masses([mu])[0])


# --- plain-text config files ------------------------------------------------

_CHAIN_KEYS = {"masses", "reference_index", "omega_z", "k_projection",
               "ancilla_index"}


@dataclass(frozen=True)
class ChainFile:
    """Parsed chain config file: the ChainConfig plus the optional ancilla
    slot used by sweeps and the end-to-end experiment."""

    config: ChainConfig
    ancilla_index: int | None
    omega_z_hz: float


def text_lines(path):
    """Yield ``(line number, text)`` for each non-blank line of a UTF-8 text
    file, with ``#`` comments removed.  A leading byte order mark is
    dropped; bytes that are not UTF-8 raise a :class:`DataError`."""
    with open(path, "r", encoding="utf-8-sig") as fh:
        try:
            for lineno, raw in enumerate(fh, start=1):
                line = raw.split("#", 1)[0].strip()
                if line:
                    yield lineno, line
        except UnicodeDecodeError as exc:
            raise DataError(f"{path}: not UTF-8 text ({exc.reason})") from exc


def read_chain_file(path):
    """Read a plain-text key/value chain description.

    Recognized keys: ``masses`` (u), ``omega_z`` (Hz), ``reference_index``,
    ``k_projection`` (1/m), ``ancilla_index``.  ``masses`` is one comma
    list with a number in every entry, so an empty entry, a trailing comma
    or a whitespace-separated list is a line-numbered DataError.  ``#``
    starts a comment.  The resulting config is in SI units, with
    ``omega_z`` in rad/s.
    """
    entries = {}
    for lineno, line in text_lines(path):
        if "=" not in line:
            raise DataError(f"{path}:{lineno}: expected 'key = value'")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in _CHAIN_KEYS:
            raise DataError(f"{path}:{lineno}: unknown key {key!r}")
        if key in entries:
            raise DataError(f"{path}:{lineno}: duplicate key {key!r}")
        entries[key] = (lineno, value)

    def _parse(key, conv, default=None, required=False):
        if key not in entries:
            if required:
                raise DataError(f"{path}: missing required key {key!r}")
            return default
        lineno, value = entries[key]
        try:
            return conv(value)
        except ValueError as exc:
            raise DataError(f"{path}:{lineno}: bad value for {key}: {value!r}") from exc

    masses = _parse("masses", lambda v: tuple(map(float, v.split(","))),
                    required=True)
    omega_z_hz = _parse("omega_z", float, required=True)
    reference_index = _parse("reference_index", int, default=0)
    k_projection = _parse("k_projection", float, default=1.0)
    ancilla_index = _parse("ancilla_index", int, default=None)
    if ancilla_index is not None and not 0 <= ancilla_index < len(masses):
        raise DataError(f"{path}: ancilla_index out of range")

    try:
        config = ChainConfig(
            masses=masses,
            reference_index=reference_index,
            omega_z=2.0 * np.pi * omega_z_hz,
            k_projection=k_projection,
        )
    except ValueError as exc:
        raise DataError(f"{path}: {exc}") from exc
    return ChainFile(config=config, ancilla_index=ancilla_index,
                     omega_z_hz=omega_z_hz)
