import re
import tracemalloc
import warnings
from math import comb

import numpy as np
import pytest
from conftest import (FullSpace, assert_identity_semantics, dicke_fidelity,
                      dicke_vector, evolve,
                      first_max_full_grid, first_max_full_space, purity,
                      w_fidelity_analytic)
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dickesim import (ChainTemplate, ConvergenceError, ExcitationSector,
                      LambDickeWarning, SearchError, UnstableCrystalError,
                      fidelity_vs_mass_ratio, first_max_fidelity,
                      first_max_from_couplings, reduce_to_qubits,
                      rsb_hamiltonian, solve_equilibrium)
from dickesim import chain as chain_mod
from dickesim import sideband


def ladder_first_max(n, m):
    """Independent oracle: equal couplings confine the dynamics to the
    m+1-state symmetric ladder; diagonalize that tridiagonal system and
    locate the first maximum of the top-level population."""
    couplings_j = [0.5 * np.sqrt((m - k) * (k + 1) * (n - k)) for k in range(m)]
    h = np.zeros((m + 1, m + 1))
    for k, jk in enumerate(couplings_j):
        h[k, k + 1] = h[k + 1, k] = jk
    w, v = np.linalg.eigh(h)

    def top_pop(t):
        return np.abs(v[m] @ (np.exp(-1j * w * t) * v[0])) ** 2

    dt = np.pi / (50.0 * np.linalg.norm(couplings_j))
    f_prev = top_pop(dt)
    rising = f_prev > top_pop(0.0)
    j = 1
    while True:
        j += 1
        f_cur = top_pop(j * dt)
        if rising and f_prev >= f_cur:
            break
        rising = f_cur > f_prev
        f_prev = f_cur
    lo, hi = (j - 2) * dt, j * dt
    golden = (np.sqrt(5) - 1) / 2
    while hi - lo > 1e-10:
        x1 = hi - golden * (hi - lo)
        x2 = lo + golden * (hi - lo)
        if top_pop(x1) >= top_pop(x2):
            hi = x2
        else:
            lo = x1
    t = 0.5 * (lo + hi)
    return t, top_pop(t)


# --- full-space oracle: initial states ------------------------------------------


def test_initial_state_placement():
    space = FullSpace(n_qubits=2, cutoff=1)
    psi = space.initial_state(1)
    expected = np.zeros(8)
    expected[space.index(0, 1)] = 1.0
    assert psi == pytest.approx(expected)
    assert np.linalg.norm(psi) == pytest.approx(1.0)


def test_initial_state_ground_is_annihilated():
    space = FullSpace(n_qubits=3, cutoff=2)
    psi = space.initial_state(0)
    h = space.hamiltonian((0.7, 1.1, 0.4))
    assert np.max(np.abs(h @ psi)) == 0.0


def test_initial_state_rejects_m_beyond_cutoff():
    with pytest.raises(ValueError):
        FullSpace(n_qubits=2, cutoff=1).initial_state(2)


# --- excitation sector ----------------------------------------------------------


def test_sector_basis():
    sector = ExcitationSector(n_qubits=4, m=2)
    assert sector.dimension == 1 + 4 + 6
    assert sector.qubits[0] == 0 and sector.phonons[0] == 2
    assert [bin(q).count("1") for q in sector.qubits] == list(2 - sector.phonons)
    assert list(sector.qubits) == sorted(sector.qubits)
    # m >= N: the sector holds every qubit state
    assert ExcitationSector(n_qubits=3, m=5).dimension == 8


@pytest.mark.parametrize("n_qubits,m,name", [
    (2, 1.5, "m"), (2, True, "m"), (2, np.float64(1.0), "m"),
    (2.0, 1, "n_qubits"), (True, 1, "n_qubits"),
])
def test_sector_takes_integers(n_qubits, m, name):
    # m = 1.5 used to build the m = 1 states and keep m = 1.5
    with pytest.raises(ValueError, match=f"{name} must be an integer"):
        ExcitationSector(n_qubits=n_qubits, m=m)


@pytest.mark.parametrize("n_qubits,m,message", [
    (0, 1, "at least one qubit"), (2, -1, "excitation number must be >= 0"),
])
def test_sector_rejects_sizes_out_of_range(n_qubits, m, message):
    with pytest.raises(ValueError, match=message):
        ExcitationSector(n_qubits, m)


@pytest.mark.parametrize("n", range(1, 13))
def test_sector_equals_the_popcount_filter_of_all_qubit_states(n):
    ups = np.array([q.bit_count() for q in range(2**n)])
    for m in range(n + 2):
        sector = ExcitationSector(n_qubits=n, m=m)
        assert sector.qubits.tolist() == np.flatnonzero(ups <= m).tolist()
        assert sector.phonons.tolist() == (m - ups[ups <= m]).tolist()


def test_sector_size_does_not_scale_with_two_to_the_n():
    # 1 + 30 + 435 states; a 2^30 filter would hold a billion indices
    sector = ExcitationSector(n_qubits=30, m=2)
    assert sector.dimension == 466
    assert sector.qubits[-1] == 0b11 << 28
    assert list(sector.qubits) == sorted(sector.qubits)


def test_sector_accepts_numpy_integers():
    sector = ExcitationSector(n_qubits=np.int64(4), m=np.int32(2))
    assert sector == ExcitationSector(n_qubits=4, m=2)
    assert sector.phonons.tolist() == ExcitationSector(4, 2).phonons.tolist()


def test_sector_hamiltonian_is_full_space_restriction():
    rng = np.random.default_rng(19)
    for n, m in [(1, 1), (2, 1), (3, 2), (4, 3), (5, 2)]:
        om = rng.uniform(0.1, 1.5, size=n)
        sector = ExcitationSector(n_qubits=n, m=m)
        space = FullSpace(n_qubits=n, cutoff=m)
        rows = [space.index(q, k) for q, k in zip(sector.qubits, sector.phonons)]
        full = space.hamiltonian(om)
        assert np.array_equal(rsb_hamiltonian(sector, om), full[np.ix_(rows, rows)])


def test_hamiltonian_hermitian_and_real():
    sector = ExcitationSector(n_qubits=3, m=2)
    h = rsb_hamiltonian(sector, (0.5, 1.0, 0.25))
    assert np.max(np.abs(h - h.T)) < 1e-12
    assert np.isrealobj(h)


def test_hamiltonian_rejects_bad_couplings():
    sector = ExcitationSector(n_qubits=2, m=1)
    with pytest.raises(ValueError):
        rsb_hamiltonian(sector, (1.0,))
    with pytest.raises(ValueError):
        rsb_hamiltonian(sector, (1.0, 1.0j))


# --- full-space oracle: dynamics -------------------------------------------------


def test_single_ion_full_transfer_at_pi_time():
    # one ion, one phonon: Rabi flopping at Omega_0 * eta, complete
    # phonon-to-spin conversion at t = pi / (Omega_0 eta)
    eta = 0.37
    space = FullSpace(n_qubits=1, cutoff=1)
    h = space.hamiltonian((eta,))
    psi = space.initial_state(1)
    out = evolve(psi, h, np.pi / eta)
    up_idx = space.index(1, 0)
    assert abs(out[up_idx]) == pytest.approx(1.0, abs=1e-12)
    # halfway: equal populations
    half = evolve(psi, h, np.pi / (2 * eta))
    assert abs(half[up_idx]) ** 2 == pytest.approx(0.5, abs=1e-12)


def test_excitation_number_commutes():
    # the premise of the sector solver: H never changes the excitation number
    rng = np.random.default_rng(17)
    for _ in range(6):
        n = int(rng.integers(1, 5))
        cutoff = int(rng.integers(1, 4))
        space = FullSpace(n_qubits=n, cutoff=cutoff)
        h = space.hamiltonian(rng.uniform(0.1, 1.5, size=n))
        # N_exc = a^dag a + sum up projectors, diagonal in this basis
        diag = np.zeros(space.dimension)
        for q in range(2**n):
            for ph in range(cutoff + 1):
                diag[space.index(q, ph)] = bin(q).count("1") + ph
        n_exc = np.diag(diag)
        assert np.max(np.abs(h @ n_exc - n_exc @ h)) < 1e-12


def test_two_ion_phonon_rabi_at_omega_prime():
    # equal unit couplings: phonon population follows cos^2(Omega' t / 2)
    # with Omega'^2 = sum of squares = 2
    space = FullSpace(n_qubits=2, cutoff=1)
    h = space.hamiltonian((1.0, 1.0))
    psi = space.initial_state(1)
    omega_prime = np.sqrt(2.0)
    for t in np.linspace(0.0, 3.0, 16):
        pops = space.phonon_distribution(evolve(psi, h, t))
        assert pops[1] == pytest.approx(np.cos(omega_prime * t / 2) ** 2,
                                        abs=1e-10)


def test_effective_two_level_phonon_law_random_couplings():
    rng = np.random.default_rng(23)
    for _ in range(10):
        n = int(rng.integers(2, 6))
        om = rng.uniform(0.2, 1.5, size=n)
        omega_prime = np.linalg.norm(om)
        space = FullSpace(n_qubits=n, cutoff=1)
        h = space.hamiltonian(om)
        psi = space.initial_state(1)
        for t in rng.uniform(0.0, 4.0, size=4):
            pops = space.phonon_distribution(evolve(psi, h, t))
            assert pops[1] == pytest.approx(np.cos(omega_prime * t / 2) ** 2,
                                            abs=1e-8)


def test_w_state_amplitudes_proportional_to_couplings():
    # at full transfer the qubit amplitudes are Omega_i / Omega' up to a
    # global phase
    rng = np.random.default_rng(29)
    for _ in range(8):
        n = int(rng.integers(2, 6))
        om = rng.uniform(0.2, 1.5, size=n)
        omega_prime = np.linalg.norm(om)
        space = FullSpace(n_qubits=n, cutoff=1)
        h = space.hamiltonian(om)
        out = evolve(space.initial_state(1), h, np.pi / omega_prime)
        grid = space.grid(out)
        qubit_amps = grid[:, 0]  # phonon vacuum column
        expected = np.zeros(2**n)
        for i in range(n):
            expected[1 << (n - 1 - i)] = om[i] / omega_prime
        phase = qubit_amps[np.argmax(np.abs(qubit_amps))]
        phase /= abs(phase)
        assert qubit_amps / phase == pytest.approx(expected, abs=1e-8)
        assert space.phonon_distribution(out)[0] == pytest.approx(1.0, abs=1e-10)


# --- full-space oracle: propagator -------------------------------------------------


def test_evolve_zero_time_is_identity():
    space = FullSpace(n_qubits=2, cutoff=2)
    h = space.hamiltonian((0.3, 0.9))
    psi = space.initial_state(2)
    out = evolve(psi, h, 0.0)
    assert out == pytest.approx(psi)


def test_evolve_group_property():
    space = FullSpace(n_qubits=2, cutoff=2)
    h = space.hamiltonian((0.4, 1.2))
    psi = space.initial_state(2)
    one = evolve(evolve(psi, h, 0.7), h, 1.9)
    oneshot = evolve(psi, h, 2.6)
    assert one == pytest.approx(oneshot, abs=1e-10)


def test_evolve_norm_and_excitation_conserved():
    rng = np.random.default_rng(31)
    for _ in range(10):
        n = int(rng.integers(1, 4))
        m = int(rng.integers(1, 3))
        space = FullSpace(n_qubits=n, cutoff=m)
        h = space.hamiltonian(rng.uniform(0.1, 1.5, size=n))
        psi = space.initial_state(m)
        n0 = space.total_excitation(psi)
        for t in rng.uniform(0.0, 8.0, size=3):
            out = evolve(psi, h, t)
            assert np.linalg.norm(out) == pytest.approx(1.0, abs=1e-10)
            assert space.total_excitation(out) == pytest.approx(n0, abs=1e-10)


def test_evolve_matches_dense_expm():
    # scaling-and-squaring against an exact eigendecomposition
    rng = np.random.default_rng(37)
    for n, m in [(1, 1), (2, 2), (3, 2)]:
        space = FullSpace(n_qubits=n, cutoff=m)
        h = space.hamiltonian(rng.uniform(0.2, 1.4, size=n))
        psi = space.initial_state(m)
        evals, vecs = np.linalg.eigh(h)
        for t in (0.4, 1.7, 3.3):
            ours = evolve(psi, h, t)
            eig = vecs @ (np.exp(-1j * evals * t) * (vecs.T @ psi))
            assert ours == pytest.approx(eig, abs=1e-9)


def test_evolve_rejects_bad_inputs():
    space = FullSpace(n_qubits=2, cutoff=1)
    psi = space.initial_state(1)
    with pytest.raises(ValueError):
        evolve(psi, np.eye(3), 1.0)
    h = space.hamiltonian((1.0, 1.0))
    with pytest.raises(ValueError):
        evolve(psi, h, -0.1)


# --- reduction ----------------------------------------------------------------


def test_reduce_product_state_is_pure():
    sector = ExcitationSector(n_qubits=2, m=1)
    amps = np.zeros(sector.dimension)
    amps[0] = 1.0  # all down, one phonon
    rho = reduce_to_qubits(sector, amps)
    assert rho.matrix[0, 0] == pytest.approx(1.0)
    assert purity(rho) == pytest.approx(1.0)


def test_reduce_schmidt_pair_is_maximally_mixed():
    sector = ExcitationSector(n_qubits=2, m=1)
    amps = np.zeros(sector.dimension, dtype=complex)
    amps[list(sector.qubits).index(0b01)] = 1 / np.sqrt(2)  # |du>, vacuum
    amps[list(sector.qubits).index(0b00)] = 1 / np.sqrt(2)  # |dd>, one phonon
    rho = reduce_to_qubits(sector, amps)
    assert purity(rho) == pytest.approx(0.5)
    assert rho.matrix[0, 0] == pytest.approx(0.5)
    assert rho.matrix[1, 1] == pytest.approx(0.5)
    assert abs(rho.matrix[0, 1]) == pytest.approx(0.0, abs=1e-12)


def test_reduce_trace_one_random():
    rng = np.random.default_rng(41)
    for _ in range(5):
        sector = ExcitationSector(n_qubits=2, m=2)
        amps = rng.normal(size=sector.dimension) + 1j * rng.normal(size=sector.dimension)
        amps /= np.linalg.norm(amps)
        rho = reduce_to_qubits(sector, amps)
        assert np.trace(rho.matrix).real == pytest.approx(1.0, abs=1e-12)


def test_reduce_matches_full_space_trace():
    rng = np.random.default_rng(43)
    for n, m in [(2, 1), (3, 2), (4, 3)]:
        sector = ExcitationSector(n_qubits=n, m=m)
        space = FullSpace(n_qubits=n, cutoff=m)
        amps = rng.normal(size=sector.dimension) + 1j * rng.normal(size=sector.dimension)
        amps /= np.linalg.norm(amps)
        full = np.zeros(space.dimension, dtype=complex)
        full[[space.index(q, k) for q, k in zip(sector.qubits, sector.phonons)]] = amps
        rho = reduce_to_qubits(sector, amps)
        assert np.max(np.abs(rho.matrix - space.reduced_density(full))) < 1e-15


def test_reduce_rejects_wrong_length():
    with pytest.raises(ValueError):
        reduce_to_qubits(ExcitationSector(n_qubits=2, m=1), np.ones(4) / 2)


# --- first-maximum search -----------------------------------------------------


def test_first_max_m1_equals_analytic_fidelity():
    rng = np.random.default_rng(43)
    for _ in range(15):
        n = int(rng.integers(2, 7))
        om = rng.uniform(0.2, 1.5, size=n)
        res = first_max_from_couplings(om, 1)
        assert res.fidelity == pytest.approx(w_fidelity_analytic(om), abs=1e-8)
        assert res.duration == pytest.approx(np.pi / np.linalg.norm(om),
                                             abs=1e-5)


def test_first_max_equal_couplings_makes_w_state():
    res = first_max_from_couplings(np.full(3, 0.8), 1)
    assert res.fidelity == pytest.approx(1.0, abs=1e-10)
    assert res.phonon_distribution[0] == pytest.approx(1.0, abs=1e-9)
    assert dicke_fidelity(res.reduced_density, 1) == pytest.approx(1.0, abs=1e-10)


# coupling scales on which the refine must keep its relative accuracy
SCALES = (1e-6, 1e-3, 1.0, 1e3, 1e6)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 8])
def test_first_max_m2_matches_ladder_closed_form(n):
    # the symmetric three-level ladder with couplings Omega peaks at
    # t = 2 pi / (Omega sqrt(4N - 2)) with F = 4 N (N-1) / (2N-1)^2
    for scale in SCALES:
        res = first_max_from_couplings(np.full(n, scale), 2)
        assert res.fidelity == pytest.approx(
            4 * n * (n - 1) / (2 * n - 1) ** 2, abs=1e-9)
        assert res.duration == pytest.approx(
            2 * np.pi / (scale * np.sqrt(4 * n - 2)), rel=1e-12, abs=0)


@pytest.mark.parametrize("n,m", [(4, 3), (5, 3), (6, 3)])
def test_first_max_m3_matches_ladder_oracle(n, m):
    t_oracle, f_oracle = ladder_first_max(n, m)
    res = first_max_from_couplings(np.ones(n), m)
    assert res.fidelity == pytest.approx(f_oracle, abs=1e-9)
    assert res.duration == pytest.approx(t_oracle, abs=1e-5)


def test_first_max_matches_full_space_oracle_at_larger_cutoff():
    # Fock states up to 5 leave room outside the sector; none gets populated
    om = np.array([0.5, 1.0, 0.75, 0.9])
    res = first_max_from_couplings(om, 2)
    space = FullSpace(n_qubits=4, cutoff=5)
    psi = evolve(space.initial_state(2), space.hamiltonian(om), res.duration)
    assert space.dicke_fidelity(psi, 2) == pytest.approx(res.fidelity, abs=1e-12)
    pops = space.phonon_distribution(psi)
    assert pops[:3] == pytest.approx(res.phonon_distribution, abs=1e-12)
    assert np.max(pops[3:]) < 1e-24
    assert np.max(np.abs(space.reduced_density(psi)
                         - res.reduced_density.matrix)) < 1e-12
    t_oracle, _ = first_max_full_space(om, 2, cutoff=5)
    assert res.duration == pytest.approx(t_oracle, abs=1e-6)


def test_first_max_search_error_when_capped(monkeypatch):
    monkeypatch.setattr(sideband, "MAX_PERIODS", 0.02)
    with pytest.raises(SearchError):
        first_max_from_couplings(np.ones(2), 1)


@pytest.mark.parametrize("move,why", [
    # a quarter of the way to the peak F(t) is convex
    (lambda t, lo, hi: (t / 4, lo / 4, hi / 4),
     r"/Omega_0: F'' = .* >= 0: not a maximum"),
    # on F ~ sin^2(Omega' t / 2) Newton steps -tan(Omega' t) in Omega' t,
    # which from 0.6 pi clips to 1.4 pi and back, forever
    (lambda t, lo, hi: (0.6 * t, 0.6 * t, 1.4 * t),
     f"/Omega_0: still stepping after {sideband.NEWTON_CAP} steps"),
    # a bracket that starts half a grid step past the peak ends on its edge
    (lambda t, lo, hi: (t + 1.5 * (hi - t), t + 0.5 * (hi - t),
                        t + 2.5 * (hi - t)),
     r"/Omega_0: F = .*, below the grid peak's "),
], ids=["convex", "cap", "below grid peak"])
def test_refine_failure_stays_in_its_row(monkeypatch, move, why):
    # the refine starts the middle row at a moved time inside a moved
    # bracket; its stop rule fails that row alone
    stack = np.array([[0.7, 1.1, 0.4], [1.0, 0.5, 0.9], [0.3, 0.8, 1.2]])
    alone = [first_max_from_couplings(row, 1) for row in stack]
    refine = sideband._refine

    def moved(freqs, weight, odd, t, lo, hi):
        t, lo, hi = t.copy(), lo.copy(), hi.copy()
        t[1], lo[1], hi[1] = move(t[1], lo[1], hi[1])
        return refine(freqs, weight, odd, t, lo, hi)

    monkeypatch.setattr(sideband, "_refine", moved)
    first, failed, last = first_max_from_couplings(stack, 1)
    assert isinstance(failed, SearchError)
    assert re.search(why, str(failed))
    for res, one in ((first, alone[0]), (last, alone[2])):
        assert (res.duration, res.fidelity) == (one.duration, one.fidelity)
        assert res.state.tobytes() == one.state.tobytes()


def test_refine_check_allows_the_shortfall_of_strong_couplings():
    # F'' grows as Omega'^2, so a refine tolerance absolute in t would end
    # 2.3e-8 below the peak at Omega' ~ 1e3; the Newton refine stops on a
    # step relative to t and reaches the closed form to rounding
    om = 1e3 * np.array([0.5, 0.9])
    res = first_max_from_couplings(om, 1)
    assert res.fidelity == pytest.approx(w_fidelity_analytic(om), abs=1e-12)
    assert res.duration == pytest.approx(np.pi / np.linalg.norm(om),
                                         rel=1e-12, abs=0)


@pytest.mark.parametrize("peak_step", [99, 100, 101, 198, 199, 200])
def test_first_peak_scan_across_chunk_seams_matches_full_grid(monkeypatch,
                                                              peak_step):
    # scaling H by s leaves the grid alone and moves the single-phonon
    # peak from step 50 to step 50 / s, onto and beside the seams that
    # the two-period chunks share (steps 99-100 and 198-199)
    build = sideband.rsb_hamiltonian
    scale = 50.0 / peak_step
    monkeypatch.setattr(sideband, "rsb_hamiltonian",
                        lambda sector, om: scale * build(sector, om))
    t_star, f_star, step = first_max_full_grid(np.ones(3), 1)
    assert step == peak_step
    res = first_max_from_couplings(np.ones(3), 1)
    assert (res.duration, res.fidelity) == (t_star, f_star)


def test_stacked_search_keeps_bad_rows_to_themselves(monkeypatch):
    # a NaN or inf row would stop LAPACK for the whole stack, a zero row
    # has no Omega'; the good rows must come out as they do alone, whether
    # the stack is one chunk or a chunk per row
    stack = np.array([[1.0, np.nan], [0.7, 1.1], [np.inf, 0.0], [0.0, 0.0],
                      [1.3, 0.4]])
    for chunk_bytes in (sideband.CHUNK_BYTES, 1):
        monkeypatch.setattr(sideband, "CHUNK_BYTES", chunk_bytes)
        nan, good, inf, zero, other = first_max_from_couplings(stack, 1)
        for bad in (nan, inf):
            assert isinstance(bad, ValueError) and "finite" in str(bad)
        assert isinstance(zero, ValueError) and "nonzero" in str(zero)
        for res, row in ((good, stack[1]), (other, stack[4])):
            alone = first_max_from_couplings(row, 1)
            assert (res.duration, res.fidelity) == (alone.duration,
                                                    alone.fidelity)
            assert res.state.tobytes() == alone.state.tobytes()
    with pytest.raises(ValueError, match="finite"):
        first_max_from_couplings(stack[0], 1)


def test_stacked_search_chunks_bound_the_traced_peak():
    # measured with numpy 2.4: 3.0 MB, the returned results included,
    # against 39.6 MB when the whole stack is one chunk
    om = np.random.default_rng(3).uniform(0.2, 1.0, size=(3001, 5))
    first_max_from_couplings(om[:1], 2)
    tracemalloc.start()
    try:
        results = first_max_from_couplings(om, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert all(not isinstance(res, Exception) for res in results)
    assert peak < 8 * 2**20


def test_first_max_rejects_bad_args():
    with pytest.raises(ValueError):
        first_max_from_couplings(np.ones(2), 0)
    with pytest.raises(ValueError):
        first_max_from_couplings(np.zeros(2), 1)
    with pytest.raises(ValueError):
        first_max_from_couplings(np.ones(2), 3)


@pytest.mark.parametrize("m", [2.0, 1.5, True, np.int64(1) + 0.0])
def test_first_max_rejects_a_phonon_number_that_is_no_integer(m,
                                                              monkeypatch):
    # a float m reaches math.comb only after the sector eigh, and a bool
    # would run as 0 or 1 phonons
    def never(*args):
        raise AssertionError("the pulse search ran")

    monkeypatch.setattr(sideband, "rsb_hamiltonian", never)
    with pytest.raises(ValueError, match="m must be an integer"):
        first_max_from_couplings(np.array([0.5, 0.7, 0.9]), m)


@pytest.mark.parametrize("m", [1.5, True])
def test_pulse_search_from_chains_rejects_a_non_integer_m_before_solving(
        m, monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("the equilibrium solve ran")

    monkeypatch.setattr(chain_mod, "solve_equilibrium", never)
    template = ChainTemplate.symmetric(2, placement="center")
    with pytest.raises(ValueError, match="m must be an integer"):
        fidelity_vs_mass_ratio(template, [0.5, 1.0, 2.0], m)
    with pytest.raises(ValueError, match="m must be an integer"):
        first_max_fidelity(template.config_for(1.0), template.addressed(), m)


def test_pulse_search_from_chains_rejects_m_beyond_the_qubits_before_solving(
        monkeypatch):
    calls = []

    def counted(config):
        calls.append(config)
        return solve_equilibrium(config)

    monkeypatch.setattr(chain_mod, "solve_equilibrium", counted)
    template = ChainTemplate.symmetric(2, placement="center")
    cfg = template.config_for(1.0)
    for m, why in ((3, "3 phonons cannot all be absorbed by 2 qubits"),
                   (0, "need at least one phonon")):
        with pytest.raises(ValueError, match=why):
            fidelity_vs_mass_ratio(template, [0.5, 1.0, 2.0], m)
        with pytest.raises(ValueError, match=why):
            first_max_fidelity(cfg, template.addressed(), m)
    # the bound is the number of distinct addressed ions
    with pytest.raises(ValueError, match="2 phonons cannot all be absorbed "
                                         "by 1 qubits"):
        first_max_fidelity(cfg, (0, 0), 2)
    assert calls == []


def test_pulse_search_takes_a_numpy_integer_m():
    om = np.array([0.5, 0.7, 0.9])
    res = first_max_from_couplings(om, np.int64(2))
    assert res.fidelity == first_max_from_couplings(om, 2).fidelity
    template = ChainTemplate.symmetric(2, placement="center")
    rows = fidelity_vs_mass_ratio(template, [1.0], np.int64(1))
    assert rows[0].fidelity == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("n,m", [(4, 2), (4, 3), (5, 2)])
def test_symmetric_dynamics_stay_in_ladder(n, m):
    # equal couplings: population outside (Dicke state x Fock) span < 1e-10
    res = first_max_from_couplings(np.ones(n), m)
    space = FullSpace(n_qubits=n, cutoff=m)
    h = space.hamiltonian(np.ones(n))
    psi = space.initial_state(m)
    dicke_basis = np.stack([dicke_vector(n, k) for k in range(m + 1)])
    rng = np.random.default_rng(47)
    for t in rng.uniform(0.0, 3 * res.duration, size=6):
        grid = space.grid(evolve(psi, h, t))
        inside = np.sum(np.abs(dicke_basis @ grid) ** 2)
        assert inside == pytest.approx(1.0, abs=1e-10)


# --- properties ------------------------------------------------------------------


@st.composite
def couplings_and_m(draw, min_m=1, max_m=3):
    """Couplings of N <= 6 qubits, with m <= min(N, 3) phonons."""
    n = draw(st.integers(min_value=max(1, min_m), max_value=6))
    m = draw(st.integers(min_value=min_m, max_value=min(n, max_m)))
    om = draw(st.lists(st.floats(min_value=0.1, max_value=1.5), min_size=n,
                       max_size=n))
    return np.array(om), m


@settings(max_examples=30, deadline=None, derandomize=True)
@given(couplings_and_m())
def test_sector_search_matches_full_space_oracle(case):
    om, m = case
    res = first_max_from_couplings(om, m)
    space = FullSpace(n_qubits=len(om), cutoff=m)
    psi = evolve(space.initial_state(m), space.hamiltonian(om), res.duration)
    assert space.dicke_fidelity(psi, m) == pytest.approx(res.fidelity, abs=1e-10)
    assert space.phonon_distribution(psi) == pytest.approx(
        res.phonon_distribution, abs=1e-10)
    assert np.max(np.abs(space.reduced_density(psi)
                         - res.reduced_density.matrix)) < 1e-10
    # Brent stops within 2 (sqrt(eps) t + xatol / 3) of its optimum
    t_oracle, _ = first_max_full_space(om, m, cutoff=m)
    assert res.duration == pytest.approx(t_oracle, rel=3e-8, abs=1e-10)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(couplings_and_m(max_m=6))
def test_first_peak_scan_matches_full_grid_oracle(case):
    # stopping at the first chunk with a peak picks the same grid peak,
    # so duration and fidelity agree bit for bit
    om, m = case
    res = first_max_from_couplings(om, m)
    t_star, f_star, _ = first_max_full_grid(om, m)
    assert (res.duration, res.fidelity) == (t_star, f_star)


@st.composite
def equal_or_distinct_couplings(draw):
    """:func:`couplings_and_m`, with all couplings set equal (degenerate
    frequencies) in about half the draws."""
    om, m = draw(couplings_and_m())
    return (np.full(len(om), om[0]) if draw(st.booleans()) else om), m


@example((np.ones(1), 1))  # N = 1: one state in each half
@example((np.array([0.4, 0.9, 1.3, 0.7]), 2))  # De = 7 > Do = 4
@example((np.array([0.3, 1.1, 0.6, 0.9, 1.4]), 1))  # De = 1 < Do = 5
@example((np.full(6, 0.8), 3))  # De = 16 < Do = 26, degenerate s
@example((np.full(5, 1.2), 2))  # De = 11 > Do = 5, degenerate s
@settings(max_examples=40, deadline=None, derandomize=True)
@given(equal_or_distinct_couplings())
def test_parity_split_matches_the_dense_eigenbasis(case):
    # the SVD of the E-O block against eigh of the whole sector
    # Hamiltonian, and the state it builds against full-space expm
    om, m = case
    n, omega_prime = len(om), np.linalg.norm(om)
    sector = ExcitationSector(n_qubits=n, m=m)
    evals, vecs = np.linalg.eigh(rsb_hamiltonian(sector, om))
    freqs, weight, _, _, even = sideband._spectrum(sector, om[None])
    zeros = np.zeros(abs(np.count_nonzero(even) - np.count_nonzero(~even)))
    split = np.sort(np.concatenate([freqs[0], -freqs[0], zeros]))
    assert np.max(np.abs(split - evals)) < 1e-12 * omega_prime
    t = np.linspace(0.0, 3.0 * np.pi / omega_prime, 151)
    dicke = vecs[sector.phonons == 0].sum(axis=0) / np.sqrt(comb(n, m))
    amp = np.exp(-1j * np.outer(t, evals)) @ (dicke * vecs[0])
    f = sideband._fidelity(freqs, weight, m % 2 == 1, t[None])[0]
    assert np.max(np.abs(f - np.abs(amp) ** 2)) < 1e-12
    res = first_max_from_couplings(om, m)
    space = FullSpace(n_qubits=n, cutoff=m)
    psi = evolve(space.initial_state(m), space.hamiltonian(om), res.duration)
    rows = [space.index(q, k) for q, k in zip(sector.qubits, sector.phonons)]
    assert np.max(np.abs(psi[rows] - res.state)) < 1e-10


@settings(max_examples=40, deadline=None, derandomize=True)
@given(couplings_and_m(), st.randoms(use_true_random=False))
def test_search_invariant_under_coupling_permutation(case, random):
    om, m = case
    perm = list(range(len(om)))
    random.shuffle(perm)
    res = first_max_from_couplings(om, m)
    shuffled = first_max_from_couplings(om[perm], m)
    assert shuffled.fidelity == pytest.approx(res.fidelity, abs=1e-10)
    assert shuffled.duration == pytest.approx(res.duration, rel=1e-12, abs=0)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(couplings_and_m(), st.floats(min_value=0.25, max_value=4.0))
def test_search_time_scales_with_couplings(case, scale):
    # each search lands on its own maximum to rounding, relative to t
    om, m = case
    res = first_max_from_couplings(om, m)
    scaled = first_max_from_couplings(scale * om, m)
    assert scaled.fidelity == pytest.approx(res.fidelity, abs=1e-10)
    assert scaled.duration == pytest.approx(res.duration / scale, rel=1e-12,
                                            abs=0)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(couplings_and_m(max_m=1), st.sampled_from(SCALES))
def test_single_phonon_search_matches_closed_form(case, scale):
    # one phonon peaks at t = pi / Omega' on any coupling scale
    om = scale * case[0]
    res = first_max_from_couplings(om, 1)
    assert res.fidelity == pytest.approx(w_fidelity_analytic(om), abs=1e-12)
    assert res.duration == pytest.approx(np.pi / np.linalg.norm(om),
                                         rel=1e-12, abs=0)


# --- chain-driven pipeline and sweeps -------------------------------------------


def test_first_max_fidelity_from_chain_config():
    template = ChainTemplate.symmetric(2, placement="edge", qubit_mass=25.0)
    cfg = template.config_for(27.0 / 25.0)
    res = first_max_fidelity(cfg, template.addressed(), 1)
    assert res.fidelity == pytest.approx(0.9999667928, abs=1e-9)


def test_symmetric_config_perfect_for_any_mass_ratio():
    template = ChainTemplate.symmetric(2, placement="center")
    for mu in (0.1, 0.9, 3.7, 10.0):
        res = first_max_fidelity(template.config_for(mu), template.addressed(), 1)
        assert res.fidelity == pytest.approx(1.0, abs=1e-9)


def test_sweep_rows_in_grid_order_and_mu1_matches_no_ancilla():
    template = ChainTemplate.symmetric(3, placement="center")
    grid = [0.5, 1.0, 2.0]
    rows = fidelity_vs_mass_ratio(template, grid, 1)
    assert len(rows) == len(grid)
    for mu, row in zip(grid, rows):
        assert_same_outcome(row, first_max_fidelity(
            template.config_for(mu), template.addressed(), 1))
    # mu = 1 reproduces the equal-coupling (no ancilla needed) case
    assert rows[1].fidelity == pytest.approx(1.0, abs=1e-9)
    no_ancilla = first_max_from_couplings(np.ones(3), 1)
    assert rows[1].fidelity == pytest.approx(no_ancilla.fidelity, abs=1e-9)


def test_sweep_mass_ratio_degradation_m2():
    # heavier ancilla degrades the optimum: at mu=10 the m=2 fidelity drops
    # by one to a few percent relative to mu=1
    template = ChainTemplate.symmetric(4, placement="center")
    rows = fidelity_vs_mass_ratio(template, [1.0, 10.0], 2)
    drop = rows[0].fidelity - rows[1].fidelity
    assert 0.005 < drop < 0.03


def test_sweep_rejects_nonpositive_mu():
    template = ChainTemplate.symmetric(2, placement="center")
    with pytest.raises(ValueError):
        fidelity_vs_mass_ratio(template, [1.0, -2.0], 1)
    # a phonon number the qubits cannot absorb fails the call, not its
    # rows, whether or not a row builds a chain
    for grid in ([1.0, 2.0], [np.inf]):
        with pytest.raises(ValueError, match="cannot all be absorbed"):
            fidelity_vs_mass_ratio(template, grid, 3)


def test_sweep_records_errors_per_row(monkeypatch):
    monkeypatch.setattr(sideband, "MAX_PERIODS", 0.02)
    template = ChainTemplate.symmetric(2, placement="center")
    rows = fidelity_vs_mass_ratio(template, [1.0, 2.0], 1)
    assert all(isinstance(row, SearchError) for row in rows)


def test_sweep_solves_equilibrium_once(monkeypatch):
    calls = []

    def counted(config, **kwargs):
        calls.append(config.n_ions)
        return solve_equilibrium(config, **kwargs)

    monkeypatch.setattr(chain_mod, "solve_equilibrium", counted)
    template = ChainTemplate.symmetric(3, placement="edge")
    rows = fidelity_vs_mass_ratio(template, [0.5, 1.0, 2.0], 1)
    assert calls == [4]
    assert rows[1].fidelity == pytest.approx(1.0, abs=1e-9)


def test_sweep_equilibrium_failure_reaches_every_row(monkeypatch):
    def stalled(config, **kwargs):
        raise ConvergenceError("equilibrium solver stalled", residual_norm=1.0)

    monkeypatch.setattr(chain_mod, "solve_equilibrium", stalled)
    template = ChainTemplate.symmetric(2, placement="center")
    rows = fidelity_vs_mass_ratio(template, [0.5, 2.0], 1)
    assert len(rows) == 2
    assert all(isinstance(row, ConvergenceError) and "stalled" in str(row)
               for row in rows)


def test_sweep_without_a_chain_solves_no_equilibrium(monkeypatch):
    # a mass ratio that builds no chain fails the whole call before the
    # equilibrium solve
    calls = []
    monkeypatch.setattr(chain_mod, "solve_equilibrium", calls.append)
    template = ChainTemplate.symmetric(2, placement="center")
    for grid in ([np.inf, np.inf], [0.5, np.inf, 2.0], [0.5, np.nan],
                 [0.5, -np.inf], [0.0]):
        with pytest.raises(ValueError, match="finite and positive"):
            fidelity_vs_mass_ratio(template, grid, 1)
    assert calls == []


def test_sweep_equilibrium_failure_spares_rows_that_build_no_chain(
        monkeypatch):
    # a stalled equilibrium does not mask a mass ratio that builds no
    # chain: the call fails with that ratio's own error, not the stall
    def stalled(config, **kwargs):
        raise ConvergenceError("equilibrium solver stalled", residual_norm=1.0)

    monkeypatch.setattr(chain_mod, "solve_equilibrium", stalled)
    template = ChainTemplate.symmetric(2, placement="center")
    with pytest.raises(ValueError, match="finite and positive"):
        fidelity_vs_mass_ratio(template, [0.5, np.inf, 2.0], 1)
    # with every ratio finite, the stall reaches each row
    rows = fidelity_vs_mass_ratio(template, [0.5, 2.0], 1)
    assert all(isinstance(row, ConvergenceError) and "stalled" in str(row)
               for row in rows)


def test_sweep_row_whose_ancilla_mass_overflows_is_out_of_range():
    # a finite mu whose mass overflows double range is that row's error,
    # like a mu whose square does
    template = ChainTemplate.symmetric(2, placement="edge", qubit_mass=25.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        rows = fidelity_vs_mass_ratio(template, [0.5, 1e307, 2.0], 1)
    assert isinstance(rows[1], UnstableCrystalError)
    assert "of ion 2 is out of range" in str(rows[1])
    assert not isinstance(rows[0], Exception)
    assert not isinstance(rows[2], Exception)


def test_pulse_search_from_a_chain_builds_no_mode_set(monkeypatch):
    # the pulse layer reads only the in-phase couplings of the qubit ions
    def refused(self):
        raise AssertionError("a ModeSet was built")

    monkeypatch.setattr(chain_mod.ModeSet, "__post_init__", refused)
    template = ChainTemplate.symmetric(3, placement="edge")
    rows = fidelity_vs_mass_ratio(template, [0.5, 1.0, 2.0], 1)
    assert all(not isinstance(row, Exception) for row in rows)
    pulse = first_max_fidelity(template.config_for(2.0), template.addressed(),
                               1)
    assert_same_outcome(rows[2], pulse)


def test_sweep_keep_density():
    template = ChainTemplate.symmetric(2, placement="center")
    pulse, = fidelity_vs_mass_ratio(template, [1.0], 1)
    assert dicke_fidelity(pulse.reduced_density, 1) == pytest.approx(
        pulse.fidelity, abs=1e-12)


# --- batched sweeps: a row does not depend on its chunk ------------------------


def test_sweep_runs_without_a_dense_eigh(monkeypatch):
    # the mode solve takes its couplings from eigh, so they are solved
    # first; the pulse search on them then must not reach eigh
    template = ChainTemplate.symmetric(6, placement="edge")
    grid = np.geomspace(0.3, 3.0, 5)
    want = fidelity_vs_mass_ratio(template, grid, 3)
    couplings = chain_mod._couplings(template.config, template._masses(grid),
                                     list(template.addressed()))
    monkeypatch.setattr(chain_mod, "_couplings", lambda *args: couplings)

    def no_eigh(*args, **kwargs):
        raise AssertionError("the pulse search called np.linalg.eigh")

    monkeypatch.setattr(np.linalg, "eigh", no_eigh)
    rows = fidelity_vs_mass_ratio(template, grid, 3)
    assert all(not isinstance(row, Exception) for row in rows)
    for row, alone in zip(rows, want):
        assert_same_outcome(row, alone)


def assert_same_outcome(row, alone):
    """Bit-for-bit equality of two outcomes of the same row: the same
    exception type and message, or the same pulse."""
    if isinstance(alone, Exception):
        assert (type(row), str(row)) == (type(alone), str(alone))
        return
    assert (row.duration, row.fidelity) == (alone.duration, alone.fidelity)
    for name in ("phonon_distribution", "state", "couplings"):
        assert getattr(row, name).tobytes() == getattr(alone, name).tobytes()


@settings(max_examples=25, deadline=None, derandomize=True)
@given(st.integers(min_value=2, max_value=5),
       st.integers(min_value=1, max_value=3),
       st.sampled_from(["center", "edge"]),
       st.floats(min_value=-1.5, max_value=0.0),
       st.floats(min_value=0.0, max_value=1.5),
       st.integers(min_value=2, max_value=12),
       st.integers(min_value=1, max_value=100_000))
def test_sweep_row_does_not_depend_on_its_chunk(n, m, placement, lo, hi,
                                                points, chunk_bytes):
    # a budget of at most 100 kB splits these grids into chunks of 1 to 15
    # rows; each row must still equal the one-point sweep at its mu
    m = min(m, n)
    template = ChainTemplate.symmetric(n, placement=placement)
    grid = np.geomspace(10.0**lo, 10.0**hi, points)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sideband, "CHUNK_BYTES", chunk_bytes)
        rows = fidelity_vs_mass_ratio(template, grid, m)
    for mu, row in zip(grid, rows, strict=True):
        assert_same_outcome(row, fidelity_vs_mass_ratio(template, [mu], m)[0])


def test_failed_rows_inside_a_chunk_keep_their_own_errors(monkeypatch):
    # on a three-ion chain 1e-300 and 1e300 square out of range and 1e-16
    # loses the mode curvature to rounding; all three sit in the middle of
    # one chunk
    template = ChainTemplate.symmetric(2, placement="edge")
    grid = [0.3, 0.7, 1e-300, 1.5, 1e-16, 1e300, 3.0]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        rows = fidelity_vs_mass_ratio(template, grid, 1)
    assert isinstance(rows[2], UnstableCrystalError)
    assert "mass ratio 1e-300 of ion 2 is out of range" in str(rows[2])
    assert isinstance(rows[4], UnstableCrystalError)
    assert "lost to rounding" in str(rows[4])
    assert isinstance(rows[5], UnstableCrystalError)
    assert "mass ratio 1e+300 of ion 2 is out of range" in str(rows[5])
    assert [isinstance(row, Exception) for row in rows] == [
        False, False, True, False, True, True, False]
    for mu, row in zip(grid, rows):
        assert_same_outcome(row, fidelity_vs_mass_ratio(template, [mu], 1)[0])

    # the (3, 3) first peak falls at grid steps 61 to 63 over this grid,
    # so a cap of 63 steps fails some rows and not others
    template = ChainTemplate.symmetric(3, placement="edge")
    monkeypatch.setattr(sideband, "MAX_PERIODS", 1.255)
    grid = np.geomspace(0.1, 10.0, 7)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        rows = fidelity_vs_mass_ratio(template, grid, 3)
    failed = [row for row in rows if isinstance(row, Exception)]
    assert 0 < len(failed) < len(rows)
    assert all(isinstance(row, SearchError)
               and "no fidelity maximum found" in str(row) for row in failed)
    for mu, row in zip(grid, rows):
        assert_same_outcome(row, fidelity_vs_mass_ratio(template, [mu], 3)[0])


def test_sweep_warns_on_si_rows_outside_lamb_dicke():
    # at k = 1e8 / m the in-phase eta of a 25 u ion at 2.55 MHz passes 0.3
    template = ChainTemplate.symmetric(2, placement="edge", qubit_mass=25.0,
                                       omega_z=2 * np.pi * 2.55e6,
                                       k_projection=1e8)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rows = fidelity_vs_mass_ratio(template, [0.5, 1.0, 2.0], 1)
    assert all(not isinstance(row, Exception) for row in rows)
    assert np.max(rows[1].couplings) > 0.3
    # one warning per row past the threshold
    above = sum(np.max(row.couplings) > 0.3 for row in rows)
    assert above >= 1
    assert [w.category for w in caught] == [LambDickeWarning] * above


@pytest.mark.parametrize("n,m,points,bound_mb", [(5, 2, 301, 4.0),
                                                 (8, 4, 11, 4.0)])
def test_sweep_chunks_bound_the_traced_peak(n, m, points, bound_mb):
    # measured with numpy 2.4: 2.5 MB at (5, 2) and 2.2 MB at (8, 4) in
    # 1 MiB chunks, against 16.3 MB and 7.9 MB with the whole grid in one
    # chunk; results kept for the returned rows are included
    template = ChainTemplate.symmetric(n, placement="edge")
    grid = np.geomspace(0.1, 10.0, points)
    fidelity_vs_mass_ratio(template, grid[:1], m)
    tracemalloc.start()
    try:
        rows = fidelity_vs_mass_ratio(template, grid, m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert all(not isinstance(row, Exception) for row in rows)
    assert peak < bound_mb * 2**20


def test_pulse_result_compares_by_identity():
    template = ChainTemplate.symmetric(2, placement="center")
    assert_identity_semantics(lambda: first_max_fidelity(
        template.config_for(1.0), template.addressed(), 1))
