import numpy as np
import pytest
from conftest import em_fit, ml_fit_sequential
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from dickesim import (ConvergenceError, CountDistribution, DataError,
                      FitResult, IdentifiabilityError, ReadoutModel, calibrate,
                      composite_dists, convolve, dark_ion_dist, dicke_state,
                      estimate_period, ml_fit, parity_from_fit,
                      parity_scan_analysis, parity_std_from_fit,
                      poisson_dist, rotated_density, synthesize_shots)
from dickesim import detection
from dickesim.detection import _em, _folded_poisson
from dickesim.dicke import weights


def tv_distance(p, q):
    return 0.5 * float(np.sum(np.abs(np.asarray(p) - np.asarray(q))))


def folded_pmf(mean, n_max):
    n = np.arange(n_max + 1).reshape((-1,) + (1,) * np.ndim(mean))
    p = stats.poisson.pmf(n, mean)
    p[-1] += stats.poisson.sf(n_max, mean)
    return p


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


# --- poisson_dist --------------------------------------------------------------


def test_poisson_zero_mean_is_delta():
    d = poisson_dist(0.0, n_max=20)
    assert d.probabilities[0] == pytest.approx(1.0)
    assert np.sum(d.probabilities[1:]) == 0.0


def test_poisson_mode_location():
    d = poisson_dist(10.0, n_max=60)
    assert np.argmax(d.probabilities) in (9, 10)


def test_poisson_normalized():
    d = poisson_dist(30.0, n_max=100)
    assert np.sum(d.probabilities) == pytest.approx(1.0, abs=1e-12)


def test_poisson_rejects_negative_mean():
    with pytest.raises(ValueError):
        poisson_dist(-1.0)


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


@pytest.mark.parametrize("model", [
    MODEL,
    ReadoutModel(lambda_bright=30.0, lambda_dark=0.0, lambda_bg=0.0,
                 gamma=500.0),  # lambda = 0
    ReadoutModel(lambda_bright=30.0, lambda_dark=0.3, lambda_bg=2.0,
                 gamma=0.0),  # no repump
    ReadoutModel(lambda_bright=30.0, lambda_dark=0.2, lambda_bg=2.0,
                 gamma=500.0 / 200e-6),  # gamma T = 500
])
def test_dark_ion_dist_equals_scipy_stats_kernel(model, monkeypatch):
    p = dark_ion_dist(model).probabilities
    monkeypatch.setattr(detection, "_folded_poisson", folded_pmf)
    assert np.array_equal(p, dark_ion_dist(model).probabilities)


def test_count_distribution_validation():
    with pytest.raises(ValueError):
        CountDistribution(np.array([0.5, 0.4]))  # sums to 0.9
    with pytest.raises(ValueError):
        CountDistribution(np.array([1.2, -0.2]))


# --- convolution ----------------------------------------------------------------


def test_convolve_delta_is_identity():
    d = poisson_dist(7.0, n_max=50)
    delta = poisson_dist(0.0, n_max=50)
    assert convolve(d, delta).probabilities == pytest.approx(
        d.probabilities, abs=1e-15)


def test_convolve_poisson_additivity():
    a = poisson_dist(3.0, n_max=80)
    b = poisson_dist(5.0, n_max=80)
    direct = poisson_dist(8.0, n_max=80)
    assert tv_distance(convolve(a, b).probabilities,
                       direct.probabilities) < 1e-10


def test_convolve_commutative_and_associative():
    a = poisson_dist(2.0, n_max=60)
    b = poisson_dist(4.5, n_max=60)
    c = poisson_dist(1.2, n_max=60)
    ab = convolve(a, b)
    ba = convolve(b, a)
    assert np.max(np.abs(ab.probabilities - ba.probabilities)) < 1e-12
    left = convolve(convolve(a, b), c)
    right = convolve(a, convolve(b, c))
    assert np.max(np.abs(left.probabilities - right.probabilities)) < 1e-12


def test_convolve_mean_additivity():
    a = poisson_dist(2.0, n_max=80)
    b = poisson_dist(4.5, n_max=80)
    assert convolve(a, b).mean() == pytest.approx(6.5, abs=1e-9)


def test_convolve_rejects_length_mismatch():
    with pytest.raises(ValueError):
        convolve(poisson_dist(1.0, n_max=10), poisson_dist(1.0, n_max=20))


# --- dark-ion distribution ------------------------------------------------------


def test_dark_ion_no_repump_is_poisson():
    model = ReadoutModel(lambda_bright=30.0, lambda_dark=0.2, lambda_bg=0.0,
                         gamma=0.0)
    d = dark_ion_dist(model, n_max=60)
    assert d.probabilities == pytest.approx(
        folded_pmf(0.2, 60), abs=1e-12)


def test_dark_ion_fast_repump_approaches_bright():
    model = ReadoutModel(lambda_bright=30.0, lambda_dark=0.2, lambda_bg=0.0,
                         gamma=500.0 / 200e-6)  # gamma T = 500
    d = dark_ion_dist(model, n_max=100)
    assert tv_distance(d.probabilities, folded_pmf(30.0, 100)) < 0.02


def test_dark_ion_matches_monte_carlo():
    model = ReadoutModel(lambda_bright=30.0, lambda_dark=0.2, lambda_bg=0.0,
                         gamma=1.0 / 200e-6)  # gamma T = 1
    d = dark_ion_dist(model, n_max=100)
    oracle = repump_oracle(model, n_max=100, seed=12)
    assert tv_distance(d.probabilities, oracle) < 2e-3


def test_dark_ion_normalized_even_for_fast_decay():
    for gt in (0.01, 1.0, 5.0, 50.0):
        model = ReadoutModel(lambda_bright=25.0, lambda_dark=0.1,
                             lambda_bg=0.0, gamma=gt / 200e-6)
        d = dark_ion_dist(model, n_max=90)
        assert np.sum(d.probabilities) == pytest.approx(1.0, abs=1e-9)


# --- composite distributions ----------------------------------------------------


def test_composites_all_rates_zero():
    model = ReadoutModel(lambda_bright=0.0, lambda_dark=0.0, lambda_bg=0.0,
                         gamma=0.0)
    cm = composite_dists(model, n_max=10)
    for d in cm.dists:
        assert d.probabilities[0] == pytest.approx(1.0)


def test_composite_bright_mean_adds():
    model = ReadoutModel(lambda_bright=8.0, lambda_dark=0.1, lambda_bg=1.5,
                         gamma=0.0)
    cm = composite_dists(model, n_max=100)
    assert cm.dists[2].mean() == pytest.approx(1.5 + 16.0, abs=1e-8)
    assert cm.dists[0].mean() == pytest.approx(1.5 + 0.2, abs=1e-8)


def test_composite_one_bright_matches_monte_carlo():
    cm = composite_dists(MODEL, n_max=100)
    oracle = repump_oracle(MODEL, n_max=100,
                           extra_mean=MODEL.lambda_bg + MODEL.lambda_bright,
                           seed=34)
    assert tv_distance(cm.dists[1].probabilities, oracle) < 2e-3


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
    assert tv_distance(hist, cm.dists[0].probabilities) < 0.01


def test_synthesize_mixture_converges_to_p_rho():
    cm = composite_dists(MODEL, n_max=100)
    c = np.array([0.08, 0.80, 0.12])
    p_rho = c @ cm.probability_matrix()
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
    ll_truth = float(hist @ np.log(truth @ cm.probability_matrix()))
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
                    minlength=cm.n_max + 1)
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
    pmat = cm.probability_matrix()
    truths = [(0.3, 0.4, 0.3), (0.08, 0.80, 0.12), (0.0, 0.9, 0.1),
              (0.0, 1.0, 0.0), (1.0, 0.0, 0.0), (0.0, 0.0, 1.0)]
    hists = np.concatenate([_histograms(cm, truths, shots, seed=60 + shots)
                            for shots in (50, 2_000, 20_000)])
    rng = np.random.default_rng(61)
    starts = np.vstack([np.full((len(truths), 3), 1.0 / 3.0),
                        rng.dirichlet(np.ones(3), size=2 * len(truths))])
    pops, lls = _em(hists, pmat, starts)
    assert np.min(pops) < 1e-12  # some fits did reach the boundary
    for h, start, c, ll in zip(hists, starts, pops, lls):
        _, ll_em = em_fit(h, pmat, c0=start)
        assert ll >= ll_em - 1e-12 * abs(ll_em)
        # the optimum, as plain EM run until an update gains nothing:
        # plain EM under the engine's stop rule sits up to 3.5e-7 from it
        # on these histograms, the engine at most 2.5e-8
        c_opt, _ = em_fit(h, pmat, c0=start, tol=0.0)
        assert np.max(np.abs(c - c_opt)) < 1e-7
        assert_em_optimal(h, pmat, c)


def test_em_engine_keeps_small_populations_alive():
    # extrapolation overshoots a small interior population below 0; a
    # clip to 0 there would pin it, since EM updates are multiplicative
    cm = composite_dists(MODEL)
    pmat = cm.probability_matrix()
    hists = np.concatenate([
        _histograms(cm, [(1e-3, 0.998, 1e-3), (1e-4, 0.9998, 1e-4),
                         (0.01, 0.0, 0.99)], shots, seed=68)
        for shots in (5_000, 50_000)])
    starts = np.full((len(hists), 3), 1.0 / 3.0)
    pops, lls = _em(hists, pmat, starts)
    for h, start, c, ll in zip(hists, starts, pops, lls):
        _, ll_em = em_fit(h, pmat, c0=start)
        assert ll >= ll_em - 1e-12 * abs(ll_em)
        assert_em_optimal(h, pmat, c)


def test_em_engine_raises_at_iteration_cap():
    cm = composite_dists(MODEL)
    pmat = cm.probability_matrix()
    hists = _histograms(cm, [(0.3, 0.4, 0.3), (0.0, 1.0, 0.0),
                             (0.3, 0.4, 0.3)], 5_000, seed=62)
    starts = np.full((3, 3), 1.0 / 3.0)
    # the boundary-pinned histogram crawls for 30 cycles, the interior
    # ones stop after 3
    with pytest.raises(ConvergenceError, match="1 of 3 histograms"):
        _em(hists, pmat, starts, max_iter=10)
    with pytest.raises(ConvergenceError, match="1 of 1 histograms"):
        _em(hists[1:2], pmat, starts[1:2], max_iter=10)
    _em(hists[::2], pmat, starts[::2], max_iter=10)
    _em(hists, pmat, starts)


def test_em_engine_row_does_not_depend_on_its_batch():
    cm = composite_dists(MODEL)
    pmat = cm.probability_matrix()
    # crawling, interior and boundary-pinned fits in one stack
    hists = _histograms(cm, [(0.0, 1.0, 0.0), (0.3, 0.4, 0.3),
                             (0.0, 0.9, 0.1), (1.0, 0.0, 0.0),
                             (0.08, 0.80, 0.12)], 5_000, seed=66)
    starts = np.random.default_rng(67).dirichlet(np.ones(3), size=len(hists))
    for order in (np.arange(len(hists)), np.arange(len(hists))[::-1]):
        pops, lls = _em(hists[order], pmat, starts[order])
        for j, k in enumerate(order):
            c, ll = _em(hists[k:k + 1], pmat, starts[k:k + 1])
            assert np.array_equal(c[0], pops[j])
            assert ll[0] == lls[j]


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.lists(st.integers(0, 100), min_size=1, max_size=300),
       st.tuples(*[st.floats(0.01, 1.0)] * 3))
def test_em_engine_climbs_at_least_as_high_as_plain_em(samples, weights_):
    pmat = composite_dists(MODEL).probability_matrix()
    h = np.bincount(samples, minlength=pmat.shape[1]).astype(float)
    start = np.array(weights_) / np.sum(weights_)
    c, ll = _em(h[None], pmat, start[None])
    _, ll_em = em_fit(h, pmat, c0=start)
    assert ll[0] >= ll_em - 1e-12 * abs(ll_em)
    assert np.all(c >= 0.0)
    assert np.sum(c) == pytest.approx(1.0, abs=1e-12)


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


@pytest.mark.parametrize("n_bootstrap", [1, -3])
def test_bootstrap_count_must_be_zero_or_two_or_more(n_bootstrap):
    # one resample has no standard deviation; a negative count has no
    # meaning
    cm = composite_dists(MODEL)
    shots = synthesize_shots((0.1, 0.8, 0.1), cm, 500, seed=70)
    with pytest.raises(ValueError, match="n_bootstrap"):
        ml_fit(shots, cm, n_bootstrap=n_bootstrap)
    scans = _scan_shots(dicke_state(2, 1).density(), np.arange(4) * np.pi / 4,
                        300, seed=71)
    with pytest.raises(ValueError, match="n_bootstrap"):
        parity_scan_analysis(scans, cm, n_bootstrap=n_bootstrap)


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
def test_calibrate_equals_a_fit_through_composite_dists(fix, monkeypatch):
    # the likelihood builds only P(n|0) and P(n|2); building all three
    # through composite_dists must give the same fit, bit for bit
    hb, hd = _reference_histograms(MODEL, 20_000, seed=82)
    cal = calibrate(hb, hd, t_detect=MODEL.t_detect, fix=fix)
    build = detection._composites

    def through_composite_dists(model, n_max, bright):
        if bright == (0, 1, 2):  # composite_dists' own call
            return build(model, n_max, bright)
        return tuple(composite_dists(model, n_max).dists[i] for i in bright)

    monkeypatch.setattr(detection, "_composites", through_composite_dists)
    assert calibrate(hb, hd, t_detect=MODEL.t_detect, fix=fix) == cal


def test_calibrate_raises_when_lbfgsb_fails(monkeypatch):
    hb, hd = _reference_histograms(MODEL, 5_000, seed=84)
    minimize = detection.optimize.minimize

    def failing(*args, **kwargs):
        res = minimize(*args, **kwargs)
        res.success = False
        res.message = "ABNORMAL_TERMINATION_IN_LNSRCH"
        return res

    monkeypatch.setattr(detection.optimize, "minimize", failing)
    with pytest.raises(ConvergenceError,
                       match=r"ABNORMAL_TERMINATION_IN_LNSRCH \(nit=\d+, "
                             r"nfev=\d+\)"):
        calibrate(hb, hd, t_detect=MODEL.t_detect)


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
        assert tv_distance(cm_fit.dists[i].probabilities,
                           cm_true.dists[i].probabilities) < 5e-3


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
    # even-parity plateau at +1: the coherence term equals the offset
    assert res.offset == pytest.approx(1.0, abs=0.02)
    assert res.coherence_term == res.offset


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
    assert res.coherence_term == pytest.approx(0.74, abs=0.02)
    assert res.amplitude < 0.02

    double = _scan_shots(rho, phases, 30_000, seed=52, double=True)
    res2 = parity_scan_analysis(double, cm, n_bootstrap=40, seed=53)
    assert res2.amplitude == pytest.approx(0.67, abs=0.02)
    assert estimate_period(res2.phases, res2.parities) == pytest.approx(
        np.pi, rel=0.03)

    # full fidelity assembly: fitted odd population plus coherence, halved
    direct = synthesize_shots(bright_populations(rho), cm, 30_000, seed=54)
    fit = ml_fit(direct, cm, n_bootstrap=0)
    fidelity = 0.5 * (fit.populations[1] + res.coherence_term)
    assert fidelity == pytest.approx(0.77, abs=0.015)
