import tracemalloc

import numpy as np
import pytest
from conftest import (assert_identity_semantics, dark_ion_dist, dicke_state,
                      em_fit, ml_fit_sequential, observed_information,
                      simplex_covariance, squarem_em)
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import optimize, stats
from scipy.integrate import simpson

from dickesim import (ConvergenceError, DataError, FitResult,
                      IdentifiabilityError, ParityScanResult,
                      ReadoutModel, calibrate,
                      composite_dists, estimate_period,
                      ml_fit, parity_from_fit, parity_scan_analysis,
                      parity_std_from_fit, rotated_density,
                      synthesize_shots)
from dickesim import detection
from dickesim.detection import _fold_convolve, _folded_poisson, _newton
from dickesim.dicke import weights


def tv_distance(p, q):
    return 0.5 * float(np.sum(np.abs(np.asarray(p) - np.asarray(q))))


def mean_count(p):
    return float(np.arange(len(p)) @ p)


def folded_pmf(mean, n_max):
    n = np.arange(n_max + 1).reshape((-1,) + (1,) * np.ndim(mean))
    p = stats.poisson.pmf(n, mean)
    p[-1] += stats.poisson.sf(n_max, mean)
    return p


def simpson_dark_ion_dist(model, n_max=100):
    """Quadrature oracle for dark_ion_dist: scipy's Simpson rule on the
    tau grid, with the decayed branch rescaled to its exact mass."""
    gt = model.gamma_t
    if gt == 0.0:
        return folded_pmf(model.lambda_dark, n_max)
    x = np.linspace(0.0, 1.0, detection.QUAD_NODES)
    means = model.lambda_dark * x + model.lambda_bright * (1.0 - x)
    density = gt * np.exp(-gt * x)
    decayed = simpson(folded_pmf(means, n_max) * density, x=x, axis=1)
    decayed *= (1.0 - np.exp(-gt)) / simpson(density, x=x)
    return np.exp(-gt) * folded_pmf(model.lambda_dark, n_max) + decayed


def repump_oracle(model, n_max, extra_mean=0.0, n_samples=1_000_000, seed=0):
    """Monte-Carlo oracle for the repumped dark-ion counts: sample decay
    times from the exponential law, then average the exact conditional
    Poisson distribution (optionally shifted by an independent Poisson
    background/bright contribution of mean ``extra_mean``)."""
    rng = np.random.default_rng(seed)
    gt = model.gamma * model.t_detect
    x = rng.exponential(1.0 / gt, size=n_samples)  # decay time over window
    survived = x >= 1.0
    p = np.sum(survived) * folded_pmf(model.lambda_dark + extra_mean, n_max)
    for chunk in np.array_split(x[~survived], 20):
        means = (model.lambda_dark * chunk
                 + model.lambda_bright * (1.0 - chunk) + extra_mean)
        pm = stats.poisson.pmf(np.arange(n_max + 1)[:, None], means[None, :])
        pm[-1, :] += stats.poisson.sf(n_max, means)
        p += np.sum(pm, axis=1)
    return p / n_samples


def bright_populations(rho):
    """(c0, c1, c2) = probabilities of 0/1/2 ions bright (down)."""
    diag = np.real(np.diag(rho.matrix))
    ups = weights(rho.n_qubits)
    c = np.zeros(3)
    for idx, w in enumerate(ups):
        c[2 - w] += max(diag[idx], 0.0)
    return c / np.sum(c)


MODEL = ReadoutModel(lambda_bright=30.0, lambda_dark=0.3, lambda_bg=2.0,
                     gamma=500.0, t_detect=200e-6)  # gamma T = 0.1


# --- folded Poisson kernel -----------------------------------------------------


def test_poisson_zero_mean_is_delta():
    p = _folded_poisson(0.0, 20)
    assert p[0] == pytest.approx(1.0)
    assert np.sum(p[1:]) == 0.0


def test_poisson_mode_location():
    assert np.argmax(_folded_poisson(10.0, 60)) in (9, 10)


def test_poisson_normalized():
    assert np.sum(_folded_poisson(30.0, 100)) == pytest.approx(1.0, abs=1e-12)


def test_folded_poisson_equals_scipy_stats():
    # the kernel is scipy.stats.poisson's pmf/sf arithmetic, bit for bit
    rng = np.random.default_rng(80)
    for mean in (0.0, 1e-300, 0.3, 30.0, 99.5, 250.0):
        assert np.array_equal(_folded_poisson(mean, 100),
                              folded_pmf(mean, 100))
    for _ in range(20):
        means = np.concatenate([[0.0], rng.uniform(0.0, 120.0, size=512)])
        assert np.array_equal(_folded_poisson(means, 100),
                              folded_pmf(means, 100))


KERNEL_MODELS = [
    MODEL,
    ReadoutModel(lambda_bright=30.0, lambda_dark=0.0, lambda_bg=0.0,
                 gamma=500.0),  # lambda = 0
    ReadoutModel(lambda_bright=30.0, lambda_dark=0.3, lambda_bg=2.0,
                 gamma=0.0),  # no repump
    ReadoutModel(lambda_bright=30.0, lambda_dark=0.2, lambda_bg=2.0,
                 gamma=500.0 / 200e-6),  # gamma T = 500
]


@pytest.mark.parametrize("model", KERNEL_MODELS)
def test_dark_ion_dist_equals_scipy_stats_kernel(model, monkeypatch):
    p = dark_ion_dist(model)
    monkeypatch.setattr(detection, "_folded_poisson", folded_pmf)
    assert np.array_equal(p, dark_ion_dist(model))


@pytest.mark.parametrize("model", KERNEL_MODELS)
def test_dark_ion_quadrature_equals_scipy_simpson(model):
    assert np.max(np.abs(dark_ion_dist(model)
                         - simpson_dark_ion_dist(model))) <= 1e-15


# --- fold-convolution ----------------------------------------------------------


def test_convolve_delta_is_identity():
    d = _folded_poisson(7.0, 50)
    delta = _folded_poisson(0.0, 50)
    assert _fold_convolve(d, delta) == pytest.approx(d, abs=1e-15)


def test_convolve_poisson_additivity():
    a = _folded_poisson(3.0, 80)
    b = _folded_poisson(5.0, 80)
    assert tv_distance(_fold_convolve(a, b), _folded_poisson(8.0, 80)) < 1e-10


def test_convolve_commutative_and_associative():
    a = _folded_poisson(2.0, 60)
    b = _folded_poisson(4.5, 60)
    c = _folded_poisson(1.2, 60)
    assert np.max(np.abs(_fold_convolve(a, b) - _fold_convolve(b, a))) < 1e-12
    left = _fold_convolve(_fold_convolve(a, b), c)
    right = _fold_convolve(a, _fold_convolve(b, c))
    assert np.max(np.abs(left - right)) < 1e-12


def test_convolve_mean_additivity():
    a = _folded_poisson(2.0, 80)
    b = _folded_poisson(4.5, 80)
    assert mean_count(_fold_convolve(a, b)) == pytest.approx(6.5, abs=1e-9)


# --- dark-ion distribution ------------------------------------------------------


def test_dark_ion_no_repump_is_poisson():
    model = ReadoutModel(lambda_bright=30.0, lambda_dark=0.2, lambda_bg=0.0,
                         gamma=0.0)
    d = dark_ion_dist(model, n_max=60)
    assert d == pytest.approx(folded_pmf(0.2, 60), abs=1e-12)


def test_dark_ion_fast_repump_approaches_bright():
    model = ReadoutModel(lambda_bright=30.0, lambda_dark=0.2, lambda_bg=0.0,
                         gamma=500.0 / 200e-6)  # gamma T = 500
    d = dark_ion_dist(model, n_max=100)
    assert tv_distance(d, folded_pmf(30.0, 100)) < 0.02


def test_dark_ion_matches_monte_carlo():
    model = ReadoutModel(lambda_bright=30.0, lambda_dark=0.2, lambda_bg=0.0,
                         gamma=1.0 / 200e-6)  # gamma T = 1
    d = dark_ion_dist(model, n_max=100)
    oracle = repump_oracle(model, n_max=100, seed=12)
    assert tv_distance(d, oracle) < 2e-3


@pytest.mark.parametrize("gamma_t", [0.0, 1e-3, 0.1, 2.0, 15.0])
def test_dark_ion_derivative_rows_match_differences(gamma_t):
    # rows 1-3 of _dark_ion are d/d(lambda_bright, lambda_dark, gamma T) of
    # dark_ion_dist; at gamma T = 0 only a one-sided difference exists
    point = np.array([30.0, 0.3, gamma_t])

    # n_max = 35 leaves mass in the folded last bin
    def dist(k, step):
        b, d, gt = point + step * np.eye(3)[k]
        return dark_ion_dist(ReadoutModel(b, d, 2.0, gamma=gt / 200e-6), 35)

    rows = detection._dark_ion(ReadoutModel(30.0, 0.3, 2.0,
                                            gamma_t / 200e-6), 35)
    h = 1e-6
    for k, row in enumerate(rows[1:]):
        if point[k] == 0.0:
            diff = (4 * dist(k, h) - dist(k, 2 * h)
                    - 3 * dist(k, 0.0)) / (2 * h)
        else:
            diff = (dist(k, h) - dist(k, -h)) / (2 * h)
        assert np.max(np.abs(row - diff)) < 1e-9


def test_dark_ion_normalized_even_for_fast_decay():
    for gt in (0.01, 1.0, 5.0, 50.0):
        model = ReadoutModel(lambda_bright=25.0, lambda_dark=0.1,
                             lambda_bg=0.0, gamma=gt / 200e-6)
        d = dark_ion_dist(model, n_max=90)
        assert np.sum(d) == pytest.approx(1.0, abs=1e-9)


# --- composite distributions ----------------------------------------------------


def test_composites_all_rates_zero():
    model = ReadoutModel(lambda_bright=0.0, lambda_dark=0.0, lambda_bg=0.0,
                         gamma=0.0)
    cm = composite_dists(model, n_max=10)
    assert cm[:, 0] == pytest.approx(1.0)


def test_composite_bright_mean_adds():
    model = ReadoutModel(lambda_bright=8.0, lambda_dark=0.1, lambda_bg=1.5,
                         gamma=0.0)
    cm = composite_dists(model, n_max=100)
    assert mean_count(cm[2]) == pytest.approx(1.5 + 16.0, abs=1e-8)
    assert mean_count(cm[0]) == pytest.approx(1.5 + 0.2, abs=1e-8)


_RATE = st.floats(0.0, 100.0)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(_RATE, _RATE, _RATE, st.floats(0.0, 50.0), st.integers(1, 150))
def test_composite_rows_are_read_only_distributions(bright, dark, bg, gt,
                                                    n_max):
    model = ReadoutModel(lambda_bright=bright, lambda_dark=dark,
                         lambda_bg=bg, gamma=gt / 200e-6)
    p = composite_dists(model, n_max)
    assert p.shape == (3, n_max + 1)
    assert np.all(p >= -1e-12)
    assert np.all(np.abs(np.sum(p, axis=1) - 1.0) <= 1e-9)
    assert not p.flags.writeable


def test_composite_dists_hands_every_caller_one_read_only_array():
    # composite_dists is an lru_cache, so all callers share its result
    p = composite_dists(MODEL, 60)
    assert composite_dists(MODEL, 60) is p
    with pytest.raises(ValueError, match="read-only"):
        p[1, 0] = 0.5
    with pytest.raises(ValueError, match="read-only"):
        p[2] *= 2.0
    assert composite_dists(MODEL, 60) is p
    assert np.array_equal(p, detection._composites(MODEL, 60)[0])


def test_composite_one_bright_matches_monte_carlo():
    cm = composite_dists(MODEL, n_max=100)
    oracle = repump_oracle(MODEL, n_max=100,
                           extra_mean=MODEL.lambda_bg + MODEL.lambda_bright,
                           seed=34)
    assert tv_distance(cm[1], oracle) < 2e-3


# --- synthesize -----------------------------------------------------------------


def test_synthesize_deterministic_under_seed():
    cm = composite_dists(MODEL)
    a = synthesize_shots((0.2, 0.5, 0.3), cm, 500, seed=99)
    b = synthesize_shots((0.2, 0.5, 0.3), cm, 500, seed=99)
    assert np.array_equal(a, b)
    c = synthesize_shots((0.2, 0.5, 0.3), cm, 500, seed=100)
    assert not np.array_equal(a, c)


def test_synthesize_zero_shots():
    cm = composite_dists(MODEL)
    assert len(synthesize_shots((1.0, 0.0, 0.0), cm, 0, seed=1)) == 0


def test_synthesize_rejects_bad_simplex():
    cm = composite_dists(MODEL)
    with pytest.raises(ValueError):
        synthesize_shots((0.5, 0.2, 0.1), cm, 10, seed=1)
    with pytest.raises(ValueError):
        synthesize_shots((-0.2, 0.6, 0.6), cm, 10, seed=1)


def test_synthesize_rejects_nan_population():
    # refused by the population check, before the draw sees the NaN
    cm = composite_dists(MODEL)
    with pytest.raises(ValueError, match="populations must be non-negative"):
        synthesize_shots((np.nan, 0.5, 0.5), cm, 10, seed=1)


def test_synthesize_law_of_large_numbers():
    cm = composite_dists(MODEL, n_max=100)
    shots = synthesize_shots((1.0, 0.0, 0.0), cm, 100_000, seed=5)
    hist = np.bincount(shots, minlength=101) / len(shots)
    assert tv_distance(hist, cm[0]) < 0.01


def test_synthesize_mixture_converges_to_p_rho():
    cm = composite_dists(MODEL, n_max=100)
    c = np.array([0.08, 0.80, 0.12])
    p_rho = c @ cm
    tvs = []
    for n in (1_000, 100_000):
        shots = synthesize_shots(c, cm, n, seed=6)
        hist = np.bincount(shots, minlength=101) / n
        tvs.append(tv_distance(hist, p_rho))
    assert tvs[1] < tvs[0] / 3
    assert tvs[1] < 0.02


# --- ml_fit ---------------------------------------------------------------------


def test_ml_fit_pure_component():
    cm = composite_dists(MODEL, n_max=100)
    shots = synthesize_shots((0.0, 1.0, 0.0), cm, 100_000, seed=7)
    fit = ml_fit(shots, cm, n_bootstrap=0)
    assert fit.populations[1] >= 0.99


def test_ml_fit_operating_point():
    cm = composite_dists(MODEL, n_max=100)
    truth = np.array([0.08, 0.80, 0.12])
    shots = synthesize_shots(truth, cm, 10_000, seed=8)
    fit = ml_fit(shots, cm, n_bootstrap=100, seed=9)
    assert np.max(np.abs(fit.populations - truth)) < 0.02
    assert np.all(fit.std_errors < 0.02)
    assert fit.n_samples == 10_000


def test_ml_fit_likelihood_at_optimum_beats_truth():
    cm = composite_dists(MODEL, n_max=100)
    truth = np.array([0.08, 0.80, 0.12])
    shots = synthesize_shots(truth, cm, 5_000, seed=10)
    fit = ml_fit(shots, cm, n_bootstrap=0)
    hist = np.bincount(shots, minlength=101)
    ll_truth = float(hist @ np.log(truth @ cm))
    assert fit.log_likelihood >= ll_truth - 1e-9


def test_ml_fit_error_shrinks_with_samples():
    cm = composite_dists(MODEL, n_max=100)
    truth = np.array([0.08, 0.80, 0.12])
    errs = []
    for n, seed in ((1_000, 11), (10_000, 12), (100_000, 13)):
        shots = synthesize_shots(truth, cm, n, seed=seed)
        fit = ml_fit(shots, cm, n_bootstrap=60, seed=seed)
        errs.append(np.max(fit.std_errors))
    assert errs[0] > errs[1] > errs[2]
    # roughly 1/sqrt(n): a factor 100 in samples shrinks errors ~10x
    assert errs[2] < errs[0] / 5


def test_ml_fit_all_dark_sample():
    model = ReadoutModel(lambda_bright=20.0, lambda_dark=0.05, lambda_bg=0.05,
                         gamma=0.0)
    cm = composite_dists(model, n_max=60)
    fit = ml_fit(np.zeros(300, dtype=int), cm, n_bootstrap=0)
    assert fit.populations[0] > 0.98


def test_ml_fit_on_a_readout_without_dark_counts():
    # with no dark or background counts P(n|0) is 0 above n = 0, so a
    # step onto the all-dark vertex leaves the mixture 0 on every bin
    # above 0; bins that hold no counts must not spoil that step's score
    model = ReadoutModel(lambda_bright=2.0, lambda_dark=0.0, lambda_bg=0.0,
                         gamma=0.0)
    cm = composite_dists(model, n_max=30)
    fit = ml_fit(np.zeros(500, dtype=int), cm, n_bootstrap=20, seed=2)
    assert np.array_equal(fit.populations, [1.0, 0.0, 0.0])
    assert fit.log_likelihood == 0.0


def test_ml_fit_deterministic():
    cm = composite_dists(MODEL, n_max=100)
    shots = synthesize_shots((0.3, 0.4, 0.3), cm, 2_000, seed=14)
    a = ml_fit(shots, cm, n_bootstrap=30, seed=15)
    b = ml_fit(shots, cm, n_bootstrap=30, seed=15)
    assert np.array_equal(a.populations, b.populations)
    assert np.array_equal(a.std_errors, b.std_errors)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.lists(st.integers(0, 100), min_size=1, max_size=300),
       st.integers(0, 2**32 - 1))
def test_ml_fit_populations_stay_on_simplex(samples, seed):
    fit = ml_fit(np.array(samples), composite_dists(MODEL), n_bootstrap=3,
                 seed=seed)
    for c in (fit.populations, *fit.bootstrap_populations):
        assert np.all(c >= 0.0)
        assert np.sum(c) == pytest.approx(1.0, abs=1e-12)


def _histograms(cm, populations, shots, seed):
    return np.array([
        np.bincount(synthesize_shots(c, cm, shots, seed=seed + j),
                    minlength=cm.shape[1])
        for j, c in enumerate(populations)], dtype=float)


def assert_em_optimal(h, pmat, c, tol=1e-10):
    """KKT conditions of the fit on the simplex: g_i = resp_i / total is 1
    where c_i > 0 and at most 1 where c_i = 0.  One EM update multiplies
    c_i by g_i and gains at least N KL(c g || c) ~ N/2 sum_i c_i (g_i - 1)^2,
    so a fit that stops on a gain <= tol has N c_i (g_i - 1)^2 <= 2 tol."""
    n = np.sum(h)
    g = pmat @ (h / np.maximum(c @ pmat, 1e-300)) / n
    support = c > 1e-9
    assert np.all(n * c[support] * (g[support] - 1.0) ** 2 <= 2 * tol)
    assert np.all(g[~support] <= 1.0)


def test_em_engine_matches_scalar_oracle():
    # pure and two-component truths pin fits at the simplex boundary,
    # where plain EM crawls for thousands of iterations
    cm = composite_dists(MODEL)
    truths = [(0.3, 0.4, 0.3), (0.08, 0.80, 0.12), (0.0, 0.9, 0.1),
              (0.0, 1.0, 0.0), (1.0, 0.0, 0.0), (0.0, 0.0, 1.0)]
    hists = np.concatenate([_histograms(cm, truths, shots, seed=60 + shots)
                            for shots in (50, 2_000, 20_000)])
    rng = np.random.default_rng(61)
    starts = np.vstack([np.full((len(truths), 3), 1.0 / 3.0),
                        rng.dirichlet(np.ones(3), size=2 * len(truths))])
    pops, lls = _newton(hists, cm, starts)
    assert np.min(pops) == 0.0  # some fits did end on a face exactly
    for h, start, c, ll in zip(hists, starts, pops, lls):
        _, ll_em = em_fit(h, cm, c0=start)
        assert ll >= ll_em - 1e-12 * abs(ll_em)
        # the optimum, as plain EM run until an update gains nothing:
        # plain EM under a 1e-10 stop rule sits up to 3.5e-7 from it on
        # these histograms, the Newton fit at most 2.8e-8
        c_opt, _ = em_fit(h, cm, c0=start, tol=0.0)
        assert np.max(np.abs(c - c_opt)) < 1e-7
        assert_em_optimal(h, cm, c)


def test_em_engine_keeps_small_populations_alive():
    # a Newton step from the uniform start overshoots a small interior
    # population below 0.  Pinned at 0, it could regrow only about
    # twofold per iteration once freed (these fits took up to 89
    # iterations that way), so the step stops short of the boundary where
    # the likelihood falls there; they now take at most 20
    cm = composite_dists(MODEL)
    hists = np.concatenate([
        _histograms(cm, [(1e-3, 0.998, 1e-3), (1e-4, 0.9998, 1e-4),
                         (0.01, 0.0, 0.99), (0.005, 0.0, 0.995),
                         (0.01, 0.98, 0.01)], shots, seed=68)
        for shots in (5_000, 50_000)])
    starts = np.full((len(hists), 3), 1.0 / 3.0)
    pops, lls = _newton(hists, cm, starts, max_iter=25)
    for h, start, c, ll in zip(hists, starts, pops, lls):
        _, ll_em = em_fit(h, cm, c0=start)
        assert ll >= ll_em - 1e-12 * abs(ll_em)
        assert_em_optimal(h, cm, c)


def test_em_engine_frees_one_population_at_a_time():
    # from a vertex both pinned populations can have wrong-signed
    # multipliers; freed together, the step on the whole simplex may
    # point one of them below 0, where it would be pinned again at once
    cm = composite_dists(MODEL)
    hists = _histograms(cm, [(0.3, 0.4, 0.3), (0.08, 0.80, 0.12),
                             (0.0, 0.9, 0.1), (0.5, 0.0, 0.5)], 5_000,
                        seed=69)
    for vertex in np.eye(3):
        pops, _ = _newton(hists, cm, np.tile(vertex, (len(hists), 1)))
        for h, c in zip(hists, pops):
            c_opt, _ = em_fit(h, cm, tol=0.0)
            assert np.max(np.abs(c - c_opt)) < 1e-7
            assert_em_optimal(h, cm, c)


def test_em_engine_raises_at_iteration_cap():
    cm = composite_dists(MODEL)
    hists = _histograms(cm, [(0.3, 0.4, 0.3), (0.0, 1.0, 0.0),
                             (0.3, 0.4, 0.3)], 5_000, seed=62)
    starts = np.full((3, 3), 1.0 / 3.0)
    # the boundary-pinned histogram takes 14 Newton iterations, the
    # interior ones stop after 4
    with pytest.raises(ConvergenceError, match="1 of 3 histograms"):
        _newton(hists, cm, starts, max_iter=10)
    with pytest.raises(ConvergenceError, match="1 of 1 histograms"):
        _newton(hists[1:2], cm, starts[1:2], max_iter=10)
    _newton(hists[::2], cm, starts[::2], max_iter=10)
    _newton(hists, cm, starts)


def test_em_engine_row_does_not_depend_on_its_batch():
    cm = composite_dists(MODEL)
    # crawling, interior and boundary-pinned fits in one stack
    hists = _histograms(cm, [(0.0, 1.0, 0.0), (0.3, 0.4, 0.3),
                             (0.0, 0.9, 0.1), (1.0, 0.0, 0.0),
                             (0.08, 0.80, 0.12)], 5_000, seed=66)
    starts = np.random.default_rng(67).dirichlet(np.ones(3), size=len(hists))
    for order in (np.arange(len(hists)), np.arange(len(hists))[::-1]):
        pops, lls = _newton(hists[order], cm, starts[order])
        for j, k in enumerate(order):
            c, ll = _newton(hists[k:k + 1], cm, starts[k:k + 1])
            assert np.array_equal(c[0], pops[j])
            assert ll[0] == lls[j]


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.lists(st.integers(0, 100), min_size=1, max_size=300),
       st.tuples(*[st.floats(0.01, 1.0)] * 3))
def test_em_engine_climbs_at_least_as_high_as_plain_em(samples, weights_):
    pmat = composite_dists(MODEL)
    h = np.bincount(samples, minlength=pmat.shape[1]).astype(float)
    start = np.array(weights_) / np.sum(weights_)
    c, ll = _newton(h[None], pmat, start[None])
    _, ll_em = em_fit(h, pmat, c0=start)
    assert ll[0] >= ll_em - 1e-12 * abs(ll_em)
    assert np.all(c >= 0.0)
    assert np.sum(c) == pytest.approx(1.0, abs=1e-12)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.lists(st.integers(0, 100), min_size=1, max_size=300),
       st.tuples(*[st.floats(0.01, 1.0)] * 3),
       st.sampled_from([(0.3, 0.4, 0.3), (0.0, 0.97, 0.03), (0.0, 1.0, 0.0),
                        (0.02, 0.0, 0.98)]),
       st.integers(0, 2**32 - 1))
def test_newton_fit_reaches_the_squarem_optimum(samples, weights_, truth,
                                                seed):
    # one histogram of arbitrary counts and one drawn from the model, each
    # fit from the same start by both engines
    pmat = composite_dists(MODEL)
    hists = np.stack([
        np.bincount(samples, minlength=pmat.shape[1]),
        np.bincount(synthesize_shots(truth, pmat, 2_000, seed=seed),
                    minlength=pmat.shape[1])]).astype(float)
    starts = np.tile(np.array(weights_) / np.sum(weights_), (2, 1))
    pops, lls = _newton(hists, pmat, starts)
    _, lls_sq = squarem_em(hists, pmat, starts)
    for h, c, ll, ll_sq in zip(hists, pops, lls, lls_sq):
        assert ll >= ll_sq - 1e-9
        assert_em_optimal(h, pmat, c)


@pytest.mark.parametrize("truth, seed", [((0.3, 0.4, 0.3), 74),
                                         ((0.05, 0.9, 0.05), 75),
                                         ((0.1, 0.6, 0.3), 76)])
def test_bootstrap_errors_match_the_cramer_rao_bound(truth, seed):
    # interior fits: the inverse observed information on the simplex
    # predicts the bootstrap spread; 400 resamples carry about 3.5%
    # sampling error of their own
    cm = composite_dists(MODEL)
    shots = synthesize_shots(truth, cm, 10_000, seed=seed)
    fit = ml_fit(shots, cm, n_bootstrap=400, seed=seed + 1)
    info = observed_information(np.bincount(shots, minlength=cm.shape[1]),
                                cm, fit.populations)
    bound = np.sqrt(np.diag(simplex_covariance(info)))
    assert np.all(np.abs(fit.std_errors / bound - 1.0) <= 0.15)


def test_fit_working_set_stays_within_the_squarem_peak():
    # the traced peak of one parity-scan call shape, 12 histograms of
    # 10,000 shots with 100 resamples each; the SQUAREM EM fit that the
    # Newton fit replaced peaked at 4,255,272 bytes on this call
    cm = composite_dists(MODEL)
    scans = _scan_shots(dicke_state(2, 1).density(),
                        np.arange(12) * np.pi / 12, 10_000, seed=90)
    hists = np.stack([detection._histogram(s, cm) for _, s in scans])
    seeds = np.random.SeedSequence(91).spawn(len(scans))
    detection._fit(hists, cm, 100, seeds)  # first-call allocations
    tracemalloc.start()
    try:
        detection._fit(hists, cm, 100, seeds)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.05 * 4_255_272


def test_ml_fit_matches_sequential_bootstrap_oracle():
    cm = composite_dists(MODEL)
    for truth, seed in (((0.08, 0.80, 0.12), 63), ((0.0, 0.9, 0.1), 64)):
        shots = synthesize_shots(truth, cm, 5_000, seed=seed)
        fit = ml_fit(shots, cm, n_bootstrap=40, seed=seed)
        c_ref, ll_ref, boots_ref = ml_fit_sequential(shots, cm, 40, seed)
        assert np.max(np.abs(fit.populations - c_ref)) < 1e-8
        assert fit.log_likelihood == pytest.approx(ll_ref, rel=1e-12)
        assert np.max(np.abs(fit.bootstrap_populations - boots_ref)) < 1e-8
        assert np.max(np.abs(fit.std_errors
                             - np.std(boots_ref, axis=0, ddof=1))) < 1e-8


@settings(max_examples=25, deadline=None, derandomize=True)
@given(st.tuples(*[st.floats(0.1, 1.0)] * 3), st.integers(2_000, 20_000),
       st.integers(0, 2**32 - 1))
def test_synthesize_then_fit_recovers_populations(weights_, shots, seed):
    truth = np.array(weights_) / np.sum(weights_)
    cm = composite_dists(MODEL)
    fit = ml_fit(synthesize_shots(truth, cm, shots, seed=seed), cm,
                 n_bootstrap=50, seed=seed + 1)
    assert np.all(np.abs(fit.populations - truth)
                  <= 5 * fit.std_errors + 2e-3)


def test_ml_fit_rejects_bad_samples():
    cm = composite_dists(MODEL, n_max=100)
    with pytest.raises(ValueError):
        ml_fit(np.array([], dtype=int), cm)
    with pytest.raises(DataError):
        ml_fit(np.array([5, 200]), cm)
    with pytest.raises(DataError):
        ml_fit(np.array([-3, 5]), cm)
    with pytest.raises(DataError):
        ml_fit(np.array([1.5, 2.0]), cm)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_fits_reject_non_finite_counts(bad):
    # a non-finite count must not reach the integer cast, which warns and
    # reports a range of -2^63
    cm = composite_dists(MODEL, n_max=100)
    samples = np.array([1.0, bad, 3.0])
    with pytest.raises(DataError, match="photon counts must be finite"):
        ml_fit(samples, cm)
    scans = [(phi, np.array([1.0, 2.0, 3.0]))
             for phi in np.arange(4) * np.pi / 4]
    scans[2] = (scans[2][0], samples)
    with pytest.raises(DataError, match="photon counts must be finite"):
        parity_scan_analysis(scans, cm, n_bootstrap=0)


@pytest.mark.parametrize("bad, why", [
    (np.array([1 + 0j, 2]), "real numbers"),
    (np.array([[1, 2], [3, 4]]), "flat sample"),
    (np.array(["1", "2"]), "real numbers"),
])
def test_fits_reject_malformed_count_arrays(bad, why):
    # complex counts would lose their imaginary part in the integer cast,
    # a 2-d array would fail inside bincount, and strings in isfinite
    cm = composite_dists(MODEL, n_max=100)
    with pytest.raises(DataError, match=f"photon counts must be (a )?{why}"):
        ml_fit(bad, cm)
    scans = [(phi, np.array([1, 2, 3])) for phi in np.arange(4) * np.pi / 4]
    scans[1] = (scans[1][0], bad)
    with pytest.raises(DataError, match="photon counts"):
        parity_scan_analysis(scans, cm, n_bootstrap=0)


@pytest.mark.parametrize("n_bootstrap", [1, -3, 2.5, 3.0, True])
def test_bootstrap_count_must_be_zero_or_two_or_more(n_bootstrap):
    # one resample has no standard deviation; a negative count has no
    # meaning; 2.5 resamples used to fail inside numpy
    cm = composite_dists(MODEL)
    shots = synthesize_shots((0.1, 0.8, 0.1), cm, 500, seed=70)
    with pytest.raises(ValueError, match="n_bootstrap"):
        ml_fit(shots, cm, n_bootstrap=n_bootstrap)
    scans = _scan_shots(dicke_state(2, 1).density(), np.arange(4) * np.pi / 4,
                        300, seed=71)
    with pytest.raises(ValueError, match="n_bootstrap"):
        parity_scan_analysis(scans, cm, n_bootstrap=n_bootstrap)


@pytest.mark.parametrize("bad", [2.5, 3.0, True, "3"])
def test_shot_count_must_be_an_integer(bad):
    # 2.5 shots used to draw 2
    with pytest.raises(ValueError, match="n_shots must be an integer"):
        synthesize_shots((0.1, 0.8, 0.1), composite_dists(MODEL), bad,
                         seed=74)


def test_count_arguments_accept_numpy_integers():
    cm = composite_dists(MODEL)
    shots = synthesize_shots((0.1, 0.8, 0.1), cm, np.int64(300), seed=76)
    assert np.array_equal(shots,
                          synthesize_shots((0.1, 0.8, 0.1), cm, 300, seed=76))
    fit = ml_fit(shots, cm, n_bootstrap=np.int32(3), seed=77)
    assert fit.bootstrap_populations.shape == (3, 3)
    assert np.array_equal(fit.std_errors,
                          ml_fit(shots, cm, n_bootstrap=3, seed=77).std_errors)


def test_two_bootstrap_resamples_give_finite_errors():
    cm = composite_dists(MODEL)
    fit = ml_fit(synthesize_shots((0.1, 0.8, 0.1), cm, 500, seed=72), cm,
                 n_bootstrap=2, seed=73)
    assert np.all(np.isfinite(fit.std_errors))
    assert np.isfinite(parity_std_from_fit(fit))


# --- calibration ----------------------------------------------------------------


def _reference_histograms(model, shots, seed, n_max=100):
    cm = composite_dists(model, n_max=n_max)
    bright = synthesize_shots((0.0, 0.0, 1.0), cm, shots, seed=seed)
    dark = synthesize_shots((1.0, 0.0, 0.0), cm, shots, seed=seed + 1)
    return (np.bincount(bright, minlength=n_max + 1),
            np.bincount(dark, minlength=n_max + 1))


@pytest.mark.parametrize("fix", [None, {"lambda_bg": MODEL.lambda_bg}])
def test_calibrated_likelihood_is_that_of_composite_dists(fix):
    # the objective and composite_dists build their rows on one path, so
    # the reported likelihood is that of the cached composite array
    hb, hd = (np.asarray(h, dtype=float)
              for h in _reference_histograms(MODEL, 20_000, seed=82))
    cal = calibrate(hb, hd, t_detect=MODEL.t_detect, fix=fix)
    cm = composite_dists(cal.model, len(hb) - 1)
    assert cal.log_likelihood == hb @ np.log(cm[2]) + hd @ np.log(cm[0])


def _calibration_objective(hb, hd, fix, monkeypatch):
    """The (value, gradient) objective that calibrate hands to L-BFGS-B."""
    seen = []
    minimize = optimize.minimize

    def capture(fun, x0, **kwargs):
        seen.append(fun)
        return minimize(fun, x0, **kwargs)

    monkeypatch.setattr(optimize, "minimize", capture)
    calibrate(hb, hd, t_detect=MODEL.t_detect, fix=fix)
    return seen[0]


@pytest.mark.parametrize("fix", [None, {"lambda_bg": MODEL.lambda_bg},
                                 {"gamma": MODEL.gamma}])
def test_calibration_gradient_matches_central_differences(fix, monkeypatch):
    # n_max = 60 folds a third of the bright counts into the last bin
    hb, hd = _reference_histograms(MODEL, 20_000, seed=86, n_max=60)
    nll = _calibration_objective(hb, hd, fix, monkeypatch)
    free = [p for p in detection._CAL_PARAMS if p not in (fix or {})]
    # (lambda_bright, lambda_dark, lambda_bg, gamma T), none at an optimum
    for point in ((28.0, 0.5, 2.5, 0.2), (31.0, 0.2, 1.5, 0.05),
                  (30.5, 1.0, 3.0, 1.5)):
        theta = np.array([v for p, v in zip(detection._CAL_PARAMS, point)
                          if p in free])
        grad = nll(theta)[1]
        diff = np.empty_like(theta)
        for k, step in enumerate(1e-6 * theta):
            e = np.zeros_like(theta)
            e[k] = step
            diff[k] = (nll(theta + e)[0] - nll(theta - e)[0]) / (2 * step)
        np.testing.assert_allclose(grad, diff, rtol=1e-6)


def test_readout_results_compare_by_value_or_by_identity():
    # calibration results hold floats only and compare by value; fit and
    # scan results hold arrays and compare by identity
    hb, hd = _reference_histograms(MODEL, 5_000, seed=88)
    cal = calibrate(hb, hd, t_detect=MODEL.t_detect)
    assert cal == calibrate(hb, hd, t_detect=MODEL.t_detect)
    assert hash(cal.model) == hash(ReadoutModel(**vars(cal.model)))
    assert_identity_semantics(lambda: _fake_fit([0.2, 0.5, 0.3]))
    assert_identity_semantics(lambda: ParityScanResult(
        phases=np.arange(4.0), parities=np.zeros(4),
        parity_errors=np.ones(4), amplitude=0.0, amplitude_error=0.1,
        phase_offset=0.0, offset=0.0, offset_error=0.1))


def test_calibrate_raises_when_lbfgsb_fails(monkeypatch):
    hb, hd = _reference_histograms(MODEL, 5_000, seed=84)
    minimize = optimize.minimize

    def failing(*args, **kwargs):
        res = minimize(*args, **kwargs)
        res.success = False
        res.message = "ABNORMAL_TERMINATION_IN_LNSRCH"
        return res

    monkeypatch.setattr(optimize, "minimize", failing)
    with pytest.raises(ConvergenceError,
                       match=r"ABNORMAL_TERMINATION_IN_LNSRCH \(nit=\d+, "
                             r"nfev=\d+\)"):
        calibrate(hb, hd, t_detect=MODEL.t_detect)


@pytest.mark.parametrize("value", [-1.0, np.nan, np.inf])
@pytest.mark.parametrize("name", detection._CAL_PARAMS)
def test_calibrate_rejects_a_fixed_rate_readout_model_rejects(name, value,
                                                              monkeypatch):
    # a negative fixed rate used to be clamped to 0 and fit silently; now
    # it raises ReadoutModel's error before the optimizer starts
    hb, hd = _reference_histograms(MODEL, 2_000, seed=80)

    def never(*args, **kwargs):
        raise AssertionError("the optimizer started")

    monkeypatch.setattr(optimize, "minimize", never)
    with pytest.raises(ValueError, match=f"{name} must be finite and >= 0"):
        calibrate(hb, hd, t_detect=MODEL.t_detect, fix={name: value})


@pytest.mark.parametrize("lambda_bg", [0.0, 1.7])
def test_calibrate_keeps_a_fixed_rate_as_given(lambda_bg):
    hb, hd = _reference_histograms(MODEL, 5_000, seed=82)
    cal = calibrate(hb, hd, t_detect=MODEL.t_detect,
                    fix={"lambda_bg": lambda_bg})
    assert cal.model.lambda_bg == lambda_bg
    assert cal.model.t_detect == MODEL.t_detect


@pytest.mark.parametrize("gamma", [13.0, 21.0])
def test_calibrate_keeps_a_fixed_gamma_as_given(gamma):
    # the fit works in gamma * t_detect, and these two rates do not
    # survive the round trip (gamma * 200e-6) / 200e-6
    assert gamma * MODEL.t_detect / MODEL.t_detect != gamma
    hb, hd = _reference_histograms(MODEL, 3_000, seed=82)
    cal = calibrate(hb, hd, t_detect=MODEL.t_detect, fix={"gamma": gamma})
    assert cal.model.gamma == gamma


def test_calibrate_rejects_unknown_or_all_fixed_rates():
    hb, hd = _reference_histograms(MODEL, 2_000, seed=83)
    with pytest.raises(ValueError,
                       match=r"^unknown parameters in fix: \['gamma_t'\]$"):
        calibrate(hb, hd, fix={"gamma_t": 0.1})
    every = {p: getattr(MODEL, p) for p in detection._CAL_PARAMS}
    with pytest.raises(ValueError,
                       match="^at least one parameter must be free$"):
        calibrate(hb, hd, fix=every)


def test_calibrate_round_trip_with_known_background():
    hb, hd = _reference_histograms(MODEL, 100_000, seed=20)
    cal = calibrate(hb, hd, t_detect=MODEL.t_detect,
                    fix={"lambda_bg": MODEL.lambda_bg})
    assert cal.model.lambda_bright == pytest.approx(MODEL.lambda_bright,
                                                    rel=0.02)
    assert cal.model.lambda_dark == pytest.approx(MODEL.lambda_dark, rel=0.15)
    assert cal.model.gamma == pytest.approx(MODEL.gamma, rel=0.10)


@pytest.mark.parametrize("gamma_t,seed", [(0.05, 22), (0.4, 24)])
def test_calibrate_recovers_gamma(gamma_t, seed):
    model = ReadoutModel(lambda_bright=30.0, lambda_dark=0.3, lambda_bg=2.0,
                         gamma=gamma_t / 200e-6)
    hb, hd = _reference_histograms(model, 100_000, seed=seed)
    cal = calibrate(hb, hd, t_detect=model.t_detect,
                    fix={"lambda_bg": model.lambda_bg})
    assert cal.model.gamma == pytest.approx(model.gamma, rel=0.10)


def test_calibrate_free_fit_recovers_identifiable_combinations():
    # background trades exactly against the per-ion rates, so compare the
    # gauge-invariant combinations and the resulting distributions
    hb, hd = _reference_histograms(MODEL, 100_000, seed=26)
    cal = calibrate(hb, hd, t_detect=MODEL.t_detect)
    fitted = cal.model
    assert (fitted.lambda_bg + 2 * fitted.lambda_dark) == pytest.approx(
        MODEL.lambda_bg + 2 * MODEL.lambda_dark, rel=0.02)
    assert (fitted.lambda_bg + 2 * fitted.lambda_bright) == pytest.approx(
        MODEL.lambda_bg + 2 * MODEL.lambda_bright, rel=0.02)
    assert fitted.gamma == pytest.approx(MODEL.gamma, rel=0.10)
    cm_true = composite_dists(MODEL, n_max=100)
    cm_fit = composite_dists(fitted, n_max=100)
    for i in range(3):
        assert tv_distance(cm_fit[i], cm_true[i]) < 5e-3


def test_calibrate_goodness_of_fit_reasonable():
    hb, hd = _reference_histograms(MODEL, 50_000, seed=28)
    cal = calibrate(hb, hd, t_detect=MODEL.t_detect)
    assert cal.chi2_bright < 3.0 * cal.dof_bright
    assert cal.chi2_dark < 3.0 * cal.dof_dark


def test_calibrate_rejects_degenerate_references():
    good = np.bincount(
        synthesize_shots((0.0, 0.0, 1.0), composite_dists(MODEL), 1000, seed=30),
        minlength=101)
    with pytest.raises(IdentifiabilityError):
        calibrate(good, np.zeros(101))
    single_bin = np.zeros(101)
    single_bin[4] = 500
    with pytest.raises(IdentifiabilityError):
        calibrate(good, single_bin)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_calibrate_rejects_non_finite_reference_bins(bad):
    good = np.bincount(
        synthesize_shots((0.0, 0.0, 1.0), composite_dists(MODEL), 1000, seed=30),
        minlength=101)
    dark = np.bincount(
        synthesize_shots((1.0, 0.0, 0.0), composite_dists(MODEL), 1000, seed=31),
        minlength=101).astype(float)
    dark[7] = bad
    with pytest.raises(DataError, match="dark histogram must be 1-d, finite"):
        calibrate(good, dark)
    with pytest.raises(DataError, match="bright histogram must be 1-d, finite"):
        calibrate(dark, good)


# --- parity helpers -------------------------------------------------------------


def _fake_fit(c):
    return FitResult(populations=np.asarray(c, dtype=float),
                     log_likelihood=0.0, std_errors=np.zeros(3), n_samples=1)


def test_parity_from_fit_extremes():
    assert parity_from_fit(_fake_fit([1.0, 0.0, 0.0])) == pytest.approx(1.0)
    assert parity_from_fit(_fake_fit([0.0, 1.0, 0.0])) == pytest.approx(-1.0)


def test_parity_from_fit_operating_point():
    assert parity_from_fit(_fake_fit([0.08, 0.80, 0.12])) == pytest.approx(-0.60)


def _scan_shots(rho, phases, shots_per_phase, seed, double=False):
    cm = composite_dists(MODEL, n_max=100)
    seeds = np.random.SeedSequence(seed).spawn(len(phases))
    base = rotated_density(rho, np.pi / 2, 0.0) if double else rho
    scans = []
    for phi, s in zip(phases, seeds):
        rotated = rotated_density(base, np.pi / 2, phi)
        scans.append((phi, synthesize_shots(bright_populations(rotated),
                                            cm, shots_per_phase, s)))
    return scans


def test_parity_scan_ideal_w_state_is_flat():
    rho = dicke_state(2, 1).density()
    phases = np.arange(12) * np.pi / 12
    scans = _scan_shots(rho, phases, 20_000, seed=40)
    res = parity_scan_analysis(scans, composite_dists(MODEL), n_bootstrap=40,
                               seed=41)
    assert res.amplitude < 0.02
    # even-parity plateau at +1: the offset is the coherence term
    assert res.offset == pytest.approx(1.0, abs=0.02)


def test_parity_scan_double_rotation_full_contrast():
    rho = dicke_state(2, 1).density()
    phases = np.arange(12) * np.pi / 12
    scans = _scan_shots(rho, phases, 20_000, seed=42, double=True)
    res = parity_scan_analysis(scans, composite_dists(MODEL), n_bootstrap=40,
                               seed=43)
    assert res.amplitude == pytest.approx(1.0, abs=0.03)
    period = estimate_period(res.phases, res.parities)
    assert period == pytest.approx(np.pi, rel=0.02)


@pytest.mark.parametrize("double", [False, True])
def test_parity_scan_matches_per_phase_ml_fit(double):
    rho = dicke_state(2, 1).density()
    phases = np.arange(6) * np.pi / 6
    scans = _scan_shots(rho, phases, 3_000, seed=45, double=double)
    cm = composite_dists(MODEL)
    res = parity_scan_analysis(scans, cm, n_bootstrap=30, seed=46)
    seeds = np.random.SeedSequence(46).spawn(len(scans))
    for j, (_, samples) in enumerate(scans):
        fit = ml_fit(samples, cm, n_bootstrap=30, seed=seeds[j])
        assert abs(res.parities[j] - parity_from_fit(fit)) < 1e-8
        assert abs(res.parity_errors[j] - parity_std_from_fit(fit)) < 1e-8


def test_parity_scan_offset_error_matches_the_spread_of_offsets():
    # an oracle for offset_error that does not use its weighted least
    # squares: R = 60 independent scans of one interior state, 12 phases
    # of 2,000 shots and 50 resamples each.  The sample std of R offsets
    # carries a relative error of 1 / sqrt(2 (R - 1)) = 9.2%, so the band
    # on median(offset_error) / std(offset) is three of those, 28%; the
    # ratio was 0.89 to 1.07 over twelve seeds.  The mean offset sits
    # within 3 standard errors of the state's coherence term, 0.7.
    from dickesim import QubitDensity

    r_scans = 60
    mat = 0.7 * dicke_state(2, 1).density().matrix + 0.3 * np.eye(4) / 4
    rho = QubitDensity(matrix=mat, n_qubits=2)
    phases = np.arange(12) * np.pi / 12
    cm = composite_dists(MODEL)
    results = [parity_scan_analysis(_scan_shots(rho, phases, 2_000, seed=s),
                                    cm, n_bootstrap=50, seed=s + 1)
               for s in np.random.SeedSequence(0).generate_state(r_scans)]
    offsets = np.array([res.offset for res in results])
    spread = float(np.std(offsets, ddof=1))
    median_error = float(np.median([res.offset_error for res in results]))
    assert abs(median_error / spread - 1.0) <= 3.0 / np.sqrt(2 * (r_scans - 1))
    assert abs(np.mean(offsets) - 0.7) <= 3.0 * spread / np.sqrt(r_scans)


def test_parity_scan_without_bootstrap_weights_residuals():
    rho = dicke_state(2, 1).density()
    phases = np.arange(6) * np.pi / 6
    scans = _scan_shots(rho, phases, 3_000, seed=47, double=True)
    res = parity_scan_analysis(scans, composite_dists(MODEL), n_bootstrap=0)
    assert np.all(np.isnan(res.parity_errors))
    assert res.amplitude == pytest.approx(1.0, abs=0.05)
    assert res.offset_error > 0


def test_parity_scan_needs_four_phases():
    rho = dicke_state(2, 1).density()
    scans = _scan_shots(rho, [0.0, 0.5, 1.0], 500, seed=44)
    with pytest.raises(IdentifiabilityError):
        parity_scan_analysis(scans, composite_dists(MODEL))


def test_estimate_period_on_clean_sinusoid():
    phis = np.linspace(0, np.pi, 16)
    values = 0.7 * np.cos(2 * phis - 0.4) + 0.05
    assert estimate_period(phis, values) == pytest.approx(np.pi, rel=1e-6)


@pytest.mark.parametrize("phases", [[0.0, 1.0, 2.0],
                                    [0.0, 0.0, 1.0, 1.0, 2.0]])
def test_estimate_period_needs_four_distinct_phases(phases):
    # four parameters cannot be fit to three points
    with pytest.raises(IdentifiabilityError,
                       match="need at least 4 distinct analysis phases"):
        estimate_period(phases, np.cos(2 * np.asarray(phases)))


def test_parity_scan_on_imperfect_state_recovers_coherence():
    # a mixed state with populations {0.08, 0.80, 0.12} (up-up, odd,
    # down-down) and odd coherence 0.74: the first-rotation scan is flat
    # at the coherence value and the double-rotation fringe has exact
    # amplitude 0.67 for this density matrix
    from dickesim import QubitDensity

    mat = np.diag([0.12, 0.40, 0.40, 0.08]).astype(complex)
    mat[1, 2] = mat[2, 1] = 0.37
    rho = QubitDensity(matrix=mat, n_qubits=2)
    phases = np.arange(12) * np.pi / 12

    cm = composite_dists(MODEL)
    scans = _scan_shots(rho, phases, 30_000, seed=50)
    res = parity_scan_analysis(scans, cm, n_bootstrap=40, seed=51)
    assert res.offset == pytest.approx(0.74, abs=0.02)
    assert res.amplitude < 0.02

    double = _scan_shots(rho, phases, 30_000, seed=52, double=True)
    res2 = parity_scan_analysis(double, cm, n_bootstrap=40, seed=53)
    assert res2.amplitude == pytest.approx(0.67, abs=0.02)
    assert estimate_period(res2.phases, res2.parities) == pytest.approx(
        np.pi, rel=0.03)

    # full fidelity assembly: fitted odd population plus coherence, halved
    direct = synthesize_shots(bright_populations(rho), cm, 30_000, seed=54)
    fit = ml_fit(direct, cm, n_bootstrap=0)
    fidelity = 0.5 * (fit.populations[1] + res.offset)
    assert fidelity == pytest.approx(0.77, abs=0.015)
