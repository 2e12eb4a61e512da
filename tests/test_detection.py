import dataclasses
import tracemalloc
import warnings

import numpy as np
import pytest
from conftest import (assert_identity_semantics, bright_populations_loop,
                      dark_ion_dist, dicke_state, em_fit, ml_fit_sequential,
                      observed_information, simplex_covariance, squarem_em)
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import optimize, special, stats
from scipy.integrate import simpson

from dickesim import (ConvergenceError, DataError, FitResult,
                      IdentifiabilityError, ParityScanResult,
                      ReadoutModel, calibrate,
                      composite_dists, estimate_period,
                      ml_fit, parity_from_fit, parity_scan_analysis,
                      parity_std_from_fit, rotated_density,
                      synthesize_shots)
from dickesim import detection
from dickesim.detection import (_fold_convolve, _folded_poisson,
                                _log_likelihood, _newton)


def _binned(shots, cm):
    """The count histogram of ``shots`` over the columns of ``cm``."""
    return np.bincount(shots, minlength=cm.shape[1])


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


MODEL = ReadoutModel(lambda_bright=30.0, lambda_dark=0.3, lambda_bg=2.0,
                     gamma=500.0, t_detect=200e-6)  # gamma T = 0.1


@pytest.mark.parametrize("value", [-1.0, np.nan, np.inf])
@pytest.mark.parametrize("name", detection._CAL_PARAMS)
def test_readout_model_rejects_a_negative_or_non_finite_rate(name, value):
    with pytest.raises(ValueError, match=f"{name} must be finite and >= 0"):
        ReadoutModel(**{**vars(MODEL), name: value})


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


@pytest.mark.parametrize("n_max", [1, 100])
def test_folded_poisson_takes_one_log_per_mean(n_max):
    # n * log(mean) matches xlogy(n, mean) bit for bit, at the extreme
    # means too, and a zero mean raises no floating-point warning
    means = np.array([0.0, 5e-324, 1e-300, 1e-10, 0.3, 30.0, 1e300])
    n = np.arange(n_max + 1)[:, None]
    with np.errstate(divide="ignore"):
        log_p = special.xlogy(n, means)
    expected = np.exp(log_p - special.gammaln(n + 1) - means)
    expected[-1] += special.pdtrc(n_max, means)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert np.array_equal(_folded_poisson(means, n_max), expected)
        for j, mean in enumerate(means):
            assert np.array_equal(_folded_poisson(mean, n_max),
                                  expected[:, j])


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


@pytest.mark.parametrize("n_max,message", [
    (2.5, "n_max must be an integer"), (True, "n_max must be an integer"),
    (0, "n_max must be >= 1"), (-1, "n_max must be >= 1"),
], ids=["2.5", "True", "0", "-1"])
def test_composite_dists_takes_a_positive_integer_n_max(n_max, message):
    # 2.5 gave rows summing to 1.19 and True a (3, 2) array, even past
    # the cached entry of n_max = 1; -1 gave a bare IndexError
    composite_dists(MODEL, 1)
    with pytest.raises(ValueError, match=message):
        composite_dists(MODEL, n_max)


def test_composite_dists_caches_a_numpy_integer_n_max_as_its_int():
    p = composite_dists(MODEL, 60)
    size = composite_dists.cache_info().currsize
    assert composite_dists(MODEL, np.int64(60)) is p
    assert composite_dists.cache_info().currsize == size


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


def _choice_shots(populations, cm, n_shots, seed):
    """synthesize_shots' draws made by Generator.choice itself."""
    rng = np.random.default_rng(seed)
    component = rng.choice(len(cm), size=n_shots, p=populations)
    counts = np.zeros(n_shots, dtype=int)
    for i, p in enumerate(cm):
        mask = component == i
        if np.any(mask):
            counts[mask] = rng.choice(cm.shape[1], size=int(np.sum(mask)),
                                      p=p)
    return counts


def _edge_rows():
    """Rows whose cdf steps sit on guide-bucket edges k / 4096, some of
    them holding zero entries, and a row with a step inside a bucket."""
    on_edges = np.zeros(9)
    on_edges[[0, 2, 3, 6, 8]] = np.array([1, 2, 1021, 2048, 1024]) / 4096
    zeros = np.zeros(9)
    zeros[[4, 5]] = 0.25, 0.75
    inside = np.full(9, 1.0 / 9.0)
    return np.array([on_edges, zeros, inside])


def test_guide_table_draws_match_searchsorted_at_bucket_edges():
    # uniforms on every bucket edge, either side of it, and on every cdf
    # step, where side="right" matters
    cdfs = np.cumsum(_edge_rows(), axis=1)
    cdfs /= cdfs[:, -1:]
    edges = np.arange(4096) / 4096
    u = np.concatenate([edges, np.nextafter(edges[1:], 0.0),
                        np.nextafter(edges, 1.0), [np.nextafter(1.0, 0.0)],
                        cdfs[cdfs < 1.0],
                        np.random.default_rng(3).random(1000)])
    for p, cdf in zip(_edge_rows(), cdfs):
        assert np.array_equal(detection._draw(p, u),
                              np.searchsorted(cdf, u, side="right"))


@pytest.mark.parametrize("n_shots", [0, 1, 7, 5_000])
@pytest.mark.parametrize("populations", [(0.2, 0.5, 0.3), (1.0, 0.0, 0.0),
                                         (0.0, 0.0, 1.0)])
def test_synthesize_replays_generator_choice(populations, n_shots):
    # the same uniforms in the same order as Generator.choice, so the
    # same shots, on the model's rows and on rows with steps on bucket
    # edges and zero entries
    for cm in (composite_dists(MODEL), composite_dists(KERNEL_MODELS[1], 30),
               _edge_rows()):
        for seed in range(3):
            shots = synthesize_shots(populations, cm, n_shots, seed)
            assert shots.dtype == int
            assert np.array_equal(
                shots, _choice_shots(populations, cm, n_shots, seed))


@pytest.mark.parametrize("row, message", [
    ([0.5, -0.1, 0.6], "non-negative"),
    ([0.5, 0.2, 0.2], "sum to 1"),
    ([0.5, np.nan, 0.5], "NaN|sum to 1"),
])
def test_synthesize_rejects_a_drawn_row_that_choice_rejects(row, message):
    # rows that hold no draw are not read, as in Generator.choice
    cm = np.array([row, [0.25, 0.25, 0.5], [0.0, 1.0, 0.0]])
    with pytest.raises(ValueError, match=message):
        np.random.default_rng(0).choice(3, size=5, p=np.array(row))
    with pytest.raises(ValueError, match=message):
        synthesize_shots((0.5, 0.5, 0.0), cm, 10, seed=1)
    assert np.array_equal(synthesize_shots((0.0, 0.5, 0.5), cm, 10, seed=1),
                          _choice_shots((0.0, 0.5, 0.5), cm, 10, seed=1))


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


@pytest.mark.parametrize("populations,n_shots,message", [
    ((0.1, 0.8, 0.1), -1, "n_shots must be >= 0"),
    ((0.5, 0.5), 10, "populations length"),
])
def test_synthesize_rejects_bad_sizes(populations, n_shots, message):
    with pytest.raises(ValueError, match=message):
        synthesize_shots(populations, composite_dists(MODEL), n_shots, seed=1)


def test_pearson_chi2_merges_a_small_histogram_into_one_bin():
    # an expected count of 3 never reaches 5, so every bin merges into
    # one, whose observed count equals its expected one; unmerged, the
    # three bins would give chi^2 = 12
    hist = np.array([3.0, 0.0, 0.0])
    assert detection._pearson_chi2(hist, np.array([0.2, 0.3, 0.5])) == (0.0, 0)


def test_pearson_chi2_keeps_the_counts_of_a_zero_probability_tail():
    # the tail expects 0 counts but holds 3, which join the last full bin
    # (200 expected, 197 + 3 observed); dropped, they would give 0.045
    hist = np.array([500.0, 300.0, 197.0, 0.0, 3.0])
    probs = np.array([0.5, 0.3, 0.2, 0.0, 0.0])
    assert detection._pearson_chi2(hist, probs) == (0.0, 2)


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
    fit = ml_fit(_binned(shots, cm), cm, n_bootstrap=0)
    assert fit.populations[1] >= 0.99


def test_ml_fit_operating_point():
    cm = composite_dists(MODEL, n_max=100)
    truth = np.array([0.08, 0.80, 0.12])
    shots = synthesize_shots(truth, cm, 10_000, seed=8)
    fit = ml_fit(_binned(shots, cm), cm, n_bootstrap=100, seed=9)
    assert np.max(np.abs(fit.populations - truth)) < 0.02
    assert np.all(fit.std_errors < 0.02)
    assert fit.n_samples == 10_000


def test_ml_fit_likelihood_at_optimum_beats_truth():
    cm = composite_dists(MODEL, n_max=100)
    truth = np.array([0.08, 0.80, 0.12])
    shots = synthesize_shots(truth, cm, 5_000, seed=10)
    hist = np.bincount(shots, minlength=101)
    fit = ml_fit(hist, cm, n_bootstrap=0)
    ll_truth = float(hist @ np.log(truth @ cm))
    assert fit.log_likelihood >= ll_truth - 1e-9


def test_ml_fit_error_shrinks_with_samples():
    cm = composite_dists(MODEL, n_max=100)
    truth = np.array([0.08, 0.80, 0.12])
    errs = []
    for n, seed in ((1_000, 11), (10_000, 12), (100_000, 13)):
        shots = synthesize_shots(truth, cm, n, seed=seed)
        fit = ml_fit(_binned(shots, cm), cm, n_bootstrap=60, seed=seed)
        errs.append(np.max(fit.std_errors))
    assert errs[0] > errs[1] > errs[2]
    # roughly 1/sqrt(n): a factor 100 in samples shrinks errors ~10x
    assert errs[2] < errs[0] / 5


def test_ml_fit_all_dark_sample():
    model = ReadoutModel(lambda_bright=20.0, lambda_dark=0.05, lambda_bg=0.05,
                         gamma=0.0)
    cm = composite_dists(model, n_max=60)
    fit = ml_fit(_binned(np.zeros(300, dtype=int), cm), cm, n_bootstrap=0)
    assert fit.populations[0] > 0.98


def test_ml_fit_on_a_readout_without_dark_counts():
    # with no dark or background counts P(n|0) is 0 above n = 0, so a
    # step onto the all-dark vertex leaves the mixture 0 on every bin
    # above 0; bins that hold no counts must not spoil that step's score
    model = ReadoutModel(lambda_bright=2.0, lambda_dark=0.0, lambda_bg=0.0,
                         gamma=0.0)
    cm = composite_dists(model, n_max=30)
    fit = ml_fit(_binned(np.zeros(500, dtype=int), cm), cm, n_bootstrap=20,
                 seed=2)
    assert np.array_equal(fit.populations, [1.0, 0.0, 0.0])
    assert fit.log_likelihood == 0.0


def test_ml_fit_deterministic():
    cm = composite_dists(MODEL, n_max=100)
    hist = _binned(synthesize_shots((0.3, 0.4, 0.3), cm, 2_000, seed=14), cm)
    a = ml_fit(hist, cm, n_bootstrap=30, seed=15)
    b = ml_fit(hist, cm, n_bootstrap=30, seed=15)
    assert np.array_equal(a.populations, b.populations)
    assert np.array_equal(a.std_errors, b.std_errors)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.lists(st.integers(0, 100), min_size=1, max_size=300),
       st.integers(0, 2**32 - 1))
def test_ml_fit_populations_stay_on_simplex(samples, seed):
    cm = composite_dists(MODEL)
    fit = ml_fit(_binned(np.array(samples), cm), cm, n_bootstrap=3,
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
    pops = _newton(hists, cm, starts)
    lls = _log_likelihood(hists, pops, cm)
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


def test_em_engine_keeps_small_populations_alive(monkeypatch):
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
    monkeypatch.setattr(detection, "FIT_CAP", 25)
    pops = _newton(hists, cm, starts)
    lls = _log_likelihood(hists, pops, cm)
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
        pops = _newton(hists, cm, np.tile(vertex, (len(hists), 1)))
        for h, c in zip(hists, pops):
            c_opt, _ = em_fit(h, cm, tol=0.0)
            assert np.max(np.abs(c - c_opt)) < 1e-7
            assert_em_optimal(h, cm, c)


def test_em_engine_raises_at_iteration_cap(monkeypatch):
    cm = composite_dists(MODEL)
    hists = _histograms(cm, [(0.3, 0.4, 0.3), (0.0, 1.0, 0.0),
                             (0.3, 0.4, 0.3)], 5_000, seed=62)
    starts = np.full((3, 3), 1.0 / 3.0)
    # the boundary-pinned histogram takes 14 Newton iterations, the
    # interior ones stop after 4
    monkeypatch.setattr(detection, "FIT_CAP", 10)
    with pytest.raises(ConvergenceError, match="1 of 3 histograms"):
        _newton(hists, cm, starts)
    with pytest.raises(ConvergenceError, match="1 of 1 histograms"):
        _newton(hists[1:2], cm, starts[1:2])
    _newton(hists[::2], cm, starts[::2])
    monkeypatch.undo()
    _newton(hists, cm, starts)


def test_em_engine_row_does_not_depend_on_its_batch():
    cm = composite_dists(MODEL)
    # crawling, interior and boundary-pinned fits in one stack
    hists = _histograms(cm, [(0.0, 1.0, 0.0), (0.3, 0.4, 0.3),
                             (0.0, 0.9, 0.1), (1.0, 0.0, 0.0),
                             (0.08, 0.80, 0.12)], 5_000, seed=66)
    starts = np.random.default_rng(67).dirichlet(np.ones(3), size=len(hists))
    for order in (np.arange(len(hists)), np.arange(len(hists))[::-1]):
        pops = _newton(hists[order], cm, starts[order])
        lls = _log_likelihood(hists[order], pops, cm)
        for j, k in enumerate(order):
            c = _newton(hists[k:k + 1], cm, starts[k:k + 1])
            ll = _log_likelihood(hists[k:k + 1], c, cm)
            assert np.array_equal(c[0], pops[j])
            assert ll[0] == lls[j]


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.lists(st.integers(0, 100), min_size=1, max_size=300),
       st.tuples(*[st.floats(0.01, 1.0)] * 3))
def test_em_engine_climbs_at_least_as_high_as_plain_em(samples, weights_):
    pmat = composite_dists(MODEL)
    h = np.bincount(samples, minlength=pmat.shape[1]).astype(float)
    start = np.array(weights_) / np.sum(weights_)
    c = _newton(h[None], pmat, start[None])
    ll = _log_likelihood(h[None], c, pmat)
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
    pops = _newton(hists, pmat, starts)
    lls = _log_likelihood(hists, pops, pmat)
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
    fit = ml_fit(_binned(shots, cm), cm, n_bootstrap=400, seed=seed + 1)
    info = observed_information(_binned(shots, cm), cm, fit.populations)
    bound = np.sqrt(np.diag(simplex_covariance(info)))
    assert np.all(np.abs(fit.std_errors / bound - 1.0) <= 0.15)


def test_fit_working_set_stays_within_the_squarem_peak():
    # the traced peak of one parity-scan call shape, 12 histograms of
    # 10,000 shots with 100 resamples each; the SQUAREM EM fit that the
    # Newton fit replaced peaked at 4,255,272 bytes on this call
    cm = composite_dists(MODEL)
    scans = _scan_histograms(dicke_state(2, 1).density(),
                             np.arange(12) * np.pi / 12, 10_000, seed=90)
    hists = np.stack([h for _, h in scans]).astype(float)
    seeds = np.random.SeedSequence(91).spawn(len(scans))
    detection._fit(hists, cm, 100, seeds)  # first-call allocations
    tracemalloc.start()
    try:
        detection._fit(hists, cm, 100, seeds)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.05 * 4_255_272


def test_bootstrap_working_set_does_not_grow_with_the_resample_count():
    # 20,000 resamples of a 20,000-shot histogram reach the Newton fit
    # _BLOCK_ROWS rows at a time; built all at once they traced 60 MB, in
    # blocks of 400 rows 2.1 MB, of which 0.5 MB are the fits themselves
    cm = composite_dists(MODEL)
    hist = _binned(synthesize_shots((0.1, 0.8, 0.1), cm, 20_000, seed=92), cm)
    ml_fit(hist, cm, n_bootstrap=2, seed=93)  # first-call allocations
    tracemalloc.start()
    try:
        fit = ml_fit(hist, cm, n_bootstrap=20_000, seed=93)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert fit.bootstrap_populations.shape == (20_000, 3)
    assert peak < 8_000_000


@pytest.mark.parametrize("block", [1, 7, 150, 10**6])
def test_fits_do_not_depend_on_the_block_size(monkeypatch, block):
    # one histogram's 40 resamples, and nine scan histograms of 10
    # resamples each: 7-row blocks end inside one histogram's resamples
    # (after the 7th) and between two histograms' (after the 70th),
    # 150-row blocks hold all of a call's resamples, and 10**6 rows are
    # one batch.  Without resamples the nine point fits are all the rows
    # that reach the Newton fit, whatever the block size
    cm = composite_dists(MODEL)
    hist = _binned(synthesize_shots((0.0, 0.9, 0.1), cm, 5_000, seed=94), cm)
    scans = _scan_histograms(dicke_state(2, 1).density(),
                             np.arange(9) * np.pi / 9, 2_000, seed=95)
    hists = np.stack([h for _, h in scans]).astype(float)
    newton, newton_rows = detection._newton, []

    def counted(h, pmat, starts):
        newton_rows.append(len(h))
        return newton(h, pmat, starts)

    def run():
        seeds = np.random.SeedSequence(97).spawn(len(scans))
        newton_rows.clear()
        point_fits = detection._fit(hists, cm, 0, seeds)
        assert sum(newton_rows) == len(hists)
        return (ml_fit(hist, cm, n_bootstrap=40, seed=96),
                parity_scan_analysis(scans, cm, n_bootstrap=10, seed=97),
                detection._fit(hists, cm, 10, seeds), point_fits)

    monkeypatch.setattr(detection, "_newton", counted)
    fit, scan, scan_fits, point_fits = run()
    monkeypatch.setattr(detection, "_BLOCK_ROWS", block)
    fit_b, scan_b, scan_fits_b, point_fits_b = run()
    for a, b in zip([fit, *scan_fits], [fit_b, *scan_fits_b]):
        for name in ("populations", "std_errors", "bootstrap_populations",
                     "log_likelihood"):
            assert np.array_equal(getattr(a, name), getattr(b, name))
    for a, b, boot in zip(point_fits, point_fits_b, scan_fits):
        assert a.bootstrap_populations is b.bootstrap_populations is None
        assert not np.any(a.std_errors) and not np.any(b.std_errors)
        for name in ("populations", "log_likelihood"):
            assert np.array_equal(getattr(a, name), getattr(b, name))
            assert np.array_equal(getattr(a, name), getattr(boot, name))
    for field in dataclasses.fields(ParityScanResult):
        assert np.array_equal(getattr(scan, field.name),
                              getattr(scan_b, field.name))


def test_ml_fit_matches_sequential_bootstrap_oracle():
    cm = composite_dists(MODEL)
    for truth, seed in (((0.08, 0.80, 0.12), 63), ((0.0, 0.9, 0.1), 64)):
        hist = _binned(synthesize_shots(truth, cm, 5_000, seed=seed), cm)
        fit = ml_fit(hist, cm, n_bootstrap=40, seed=seed)
        c_ref, ll_ref, boots_ref = ml_fit_sequential(hist, cm, 40, seed)
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
    fit = ml_fit(_binned(synthesize_shots(truth, cm, shots, seed=seed), cm),
                 cm, n_bootstrap=50, seed=seed + 1)
    assert np.all(np.abs(fit.populations - truth)
                  <= 5 * fit.std_errors + 2e-3)


def _fits_of(hist, cm):
    """ml_fit of ``hist``, and a four-phase parity scan that holds ``hist``
    at its third phase, each as a call without arguments."""
    good = _binned(np.array([1, 2, 3]), cm)
    scans = [(phi, hist if k == 2 else good)
             for k, phi in enumerate(np.arange(4) * np.pi / 4)]
    return (lambda: ml_fit(hist, cm),
            lambda: parity_scan_analysis(scans, cm, n_bootstrap=2))


def test_ml_fit_rejects_bad_samples():
    # the histogram forms of an empty sample, a count above n_max and a
    # negative count; a count of 1.5 photons has no histogram form
    cm = composite_dists(MODEL, n_max=100)
    beyond = np.zeros(201)
    beyond[[5, 200]] = 1
    negative = _binned(np.array([5]), cm)
    negative[3] = -1
    for fit in _fits_of(np.zeros(101), cm):
        with pytest.raises(ValueError, match="holds no counts"):
            fit()
    for bad in (beyond, np.array([], dtype=int), negative):
        for fit in _fits_of(bad, cm):
            with pytest.raises(DataError, match="photon-count histogram"):
                fit()


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_fits_reject_non_finite_counts(bad):
    # a non-finite bin must not reach the bootstrap's multinomial
    cm = composite_dists(MODEL, n_max=100)
    hist = _binned(np.array([1, 2, 3]), cm).astype(float)
    hist[2] = bad
    for fit in _fits_of(hist, cm):
        with pytest.raises(DataError, match="histogram must be 1-d, finite"):
            fit()


@pytest.mark.parametrize("bad, why", [
    (np.ones(101, dtype=complex), "real numbers"),
    (np.ones((2, 101)), "1-d"),
    (np.array(["1"] * 101), "real numbers"),
])
def test_fits_reject_malformed_count_arrays(bad, why):
    # complex bins would lose their imaginary part in the float cast, a
    # stack of histograms is not one, and strings would fail in isfinite
    cm = composite_dists(MODEL, n_max=100)
    for fit in _fits_of(bad, cm):
        with pytest.raises(DataError,
                           match=f"photon-count histogram must be .*{why}"):
            fit()


@pytest.mark.parametrize("n_bins", [0, 1, 100, 102])
def test_fits_reject_a_histogram_of_another_bin_count(n_bins):
    # one bin per column of the composite array, counts 0..n_max
    cm = composite_dists(MODEL, n_max=100)
    for fit in _fits_of(np.ones(n_bins), cm):
        with pytest.raises(DataError, match=f"must have 101 bins.*got {n_bins}"):
            fit()


def test_fits_take_a_histogram_with_fractional_bins():
    # the likelihood weighs each bin by its count, whole or not
    cm = composite_dists(MODEL, n_max=100)
    hist = _binned(synthesize_shots((0.1, 0.8, 0.1), cm, 500, seed=78), cm)
    whole = ml_fit(hist, cm, n_bootstrap=0)
    halves = ml_fit(hist / 2.0, cm, n_bootstrap=0)
    assert np.max(np.abs(halves.populations - whole.populations)) < 1e-8
    assert halves.log_likelihood == pytest.approx(whole.log_likelihood / 2.0,
                                                  rel=1e-12)


@pytest.mark.parametrize("n_bootstrap", [1, -3, 2.5, 3.0, True])
def test_bootstrap_count_must_be_zero_or_two_or_more(n_bootstrap):
    # one resample has no standard deviation; a negative count has no
    # meaning; 2.5 resamples used to fail inside numpy
    cm = composite_dists(MODEL)
    hist = _binned(synthesize_shots((0.1, 0.8, 0.1), cm, 500, seed=70), cm)
    with pytest.raises(ValueError, match="n_bootstrap"):
        ml_fit(hist, cm, n_bootstrap=n_bootstrap)


@pytest.mark.parametrize("n_bootstrap", [0, 1, -3, 2.5, 3.0, True])
def test_parity_scan_needs_two_or_more_resamples_before_any_fit(
        n_bootstrap, monkeypatch):
    # a scan weights each phase by its bootstrap parity error, so it needs
    # a standard deviation at every phase; the count is refused before
    # the first Newton fit
    def no_fit(*args):
        raise AssertionError("a Newton fit ran")

    monkeypatch.setattr(detection, "_newton", no_fit)
    scans = _scan_histograms(dicke_state(2, 1).density(),
                             np.arange(4) * np.pi / 4, 300, seed=71)
    with pytest.raises(ValueError, match="n_bootstrap"):
        parity_scan_analysis(scans, composite_dists(MODEL),
                             n_bootstrap=n_bootstrap)


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
    hist = _binned(shots, cm)
    fit = ml_fit(hist, cm, n_bootstrap=np.int32(3), seed=77)
    assert fit.bootstrap_populations.shape == (3, 3)
    assert np.array_equal(fit.std_errors,
                          ml_fit(hist, cm, n_bootstrap=3, seed=77).std_errors)


def test_two_bootstrap_resamples_give_finite_errors():
    cm = composite_dists(MODEL)
    shots = synthesize_shots((0.1, 0.8, 0.1), cm, 500, seed=72)
    fit = ml_fit(_binned(shots, cm), cm, n_bootstrap=2, seed=73)
    assert np.all(np.isfinite(fit.std_errors))
    assert np.isfinite(parity_std_from_fit(fit))


# --- calibration ----------------------------------------------------------------


def _reference_histograms(model, shots, seed, n_max=100):
    cm = composite_dists(model, n_max=n_max)
    bright = synthesize_shots((0.0, 0.0, 1.0), cm, shots, seed=seed)
    dark = synthesize_shots((1.0, 0.0, 0.0), cm, shots, seed=seed + 1)
    return (np.bincount(bright, minlength=n_max + 1),
            np.bincount(dark, minlength=n_max + 1))


def _calibrate_capturing(hb, hd, monkeypatch):
    """calibrate's result, the (value, gradient) objective it hands to
    L-BFGS-B and the optimizer's result."""
    seen = []
    minimize = optimize.minimize

    def capture(fun, x0, **kwargs):
        res = minimize(fun, x0, **kwargs)
        seen.append((fun, res))
        return res

    monkeypatch.setattr(optimize, "minimize", capture)
    cal = calibrate(hb, hd, t_detect=MODEL.t_detect)
    return (cal, *seen[0])


def _with_rates(x, fix):
    """The objective's point ``x`` (lambda_bright, lambda_dark, lambda_bg,
    gamma T) with the rates named in ``fix`` set to the given values."""
    x = np.array(x, dtype=float)
    for name, value in (fix or {}).items():
        x[detection._CAL_PARAMS.index(name)] = (
            value * MODEL.t_detect if name == "gamma" else value)
    return x


@pytest.mark.parametrize("fix", [None, {"lambda_bg": MODEL.lambda_bg}])
def test_calibrated_likelihood_is_that_of_composite_dists(fix, monkeypatch):
    # the objective and composite_dists build their rows on one path, so
    # the reported likelihood is that of the cached composite array, and
    # so is the objective where ``fix`` moves a fitted rate off the optimum
    hb, hd = (np.asarray(h, dtype=float)
              for h in _reference_histograms(MODEL, 20_000, seed=82))
    cal, nll, res = _calibrate_capturing(hb, hd, monkeypatch)
    model = ReadoutModel(**{**vars(cal.model), **(fix or {})})
    cm = composite_dists(model, len(hb) - 1)
    log_likelihood = (cal.log_likelihood if fix is None
                      else -nll(_with_rates(res.x, fix))[0])
    assert log_likelihood == hb @ np.log(cm[2]) + hd @ np.log(cm[0])


@pytest.mark.parametrize("fix", [None, {"lambda_bg": MODEL.lambda_bg},
                                 {"gamma": MODEL.gamma}])
def test_calibration_gradient_matches_central_differences(fix, monkeypatch):
    # n_max = 60 folds a third of the bright counts into the last bin
    hb, hd = _reference_histograms(MODEL, 20_000, seed=86, n_max=60)
    _, nll, _ = _calibrate_capturing(hb, hd, monkeypatch)
    # (lambda_bright, lambda_dark, lambda_bg, gamma T), none at an optimum;
    # ``fix`` puts one rate at its reference value and the gradient is
    # still checked in all four
    for point in ((28.0, 0.5, 2.5, 0.2), (31.0, 0.2, 1.5, 0.05),
                  (30.5, 1.0, 3.0, 1.5)):
        theta = _with_rates(point, fix)
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


def assert_identifiable_rates(fitted, model):
    """The rates the references pin: background trades exactly against
    the per-ion rates, so the fit is compared on gamma and on the
    combinations lambda_bg + 2 lambda_dark and lambda_bg + 2
    lambda_bright, which that trade leaves unchanged."""
    assert (fitted.lambda_bg + 2 * fitted.lambda_dark) == pytest.approx(
        model.lambda_bg + 2 * model.lambda_dark, rel=0.02)
    assert (fitted.lambda_bg + 2 * fitted.lambda_bright) == pytest.approx(
        model.lambda_bg + 2 * model.lambda_bright, rel=0.02)
    assert fitted.gamma == pytest.approx(model.gamma, rel=0.10)


@pytest.mark.parametrize("gamma_t,seed", [(0.05, 22), (0.4, 24)])
def test_calibrate_recovers_gamma(gamma_t, seed):
    model = ReadoutModel(lambda_bright=30.0, lambda_dark=0.3, lambda_bg=2.0,
                         gamma=gamma_t / 200e-6)
    hb, hd = _reference_histograms(model, 100_000, seed=seed)
    cal = calibrate(hb, hd, t_detect=model.t_detect)
    assert_identifiable_rates(cal.model, model)


def test_calibrate_free_fit_recovers_identifiable_combinations():
    hb, hd = _reference_histograms(MODEL, 100_000, seed=26)
    fitted = calibrate(hb, hd, t_detect=MODEL.t_detect).model
    assert_identifiable_rates(fitted, MODEL)
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


def _scan_histograms(rho, phases, shots_per_phase, seed, double=False):
    cm = composite_dists(MODEL, n_max=100)
    seeds = np.random.SeedSequence(seed).spawn(len(phases))
    base = rotated_density(rho, np.pi / 2, 0.0) if double else rho
    scans = []
    for phi, s in zip(phases, seeds):
        rotated = rotated_density(base, np.pi / 2, phi)
        shots = synthesize_shots(bright_populations_loop(rotated), cm,
                                 shots_per_phase, s)
        scans.append((phi, _binned(shots, cm)))
    return scans


def test_parity_scan_ideal_w_state_is_flat():
    rho = dicke_state(2, 1).density()
    phases = np.arange(12) * np.pi / 12
    scans = _scan_histograms(rho, phases, 20_000, seed=40)
    res = parity_scan_analysis(scans, composite_dists(MODEL), n_bootstrap=40,
                               seed=41)
    assert res.amplitude < 0.02
    # even-parity plateau at +1: the offset is the coherence term
    assert res.offset == pytest.approx(1.0, abs=0.02)


def test_parity_scan_double_rotation_full_contrast():
    rho = dicke_state(2, 1).density()
    phases = np.arange(12) * np.pi / 12
    scans = _scan_histograms(rho, phases, 20_000, seed=42, double=True)
    res = parity_scan_analysis(scans, composite_dists(MODEL), n_bootstrap=40,
                               seed=43)
    assert res.amplitude == pytest.approx(1.0, abs=0.03)
    period = estimate_period(res.phases, res.parities)
    assert period == pytest.approx(np.pi, rel=0.02)


@pytest.mark.parametrize("double", [False, True])
def test_parity_scan_matches_per_phase_ml_fit(double):
    rho = dicke_state(2, 1).density()
    phases = np.arange(6) * np.pi / 6
    scans = _scan_histograms(rho, phases, 3_000, seed=45, double=double)
    cm = composite_dists(MODEL)
    res = parity_scan_analysis(scans, cm, n_bootstrap=30, seed=46)
    seeds = np.random.SeedSequence(46).spawn(len(scans))
    for j, (_, hist) in enumerate(scans):
        fit = ml_fit(hist, cm, n_bootstrap=30, seed=seeds[j])
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
    results = [parity_scan_analysis(
                   _scan_histograms(rho, phases, 2_000, seed=s), cm,
                   n_bootstrap=50, seed=s + 1)
               for s in np.random.SeedSequence(0).generate_state(r_scans)]
    offsets = np.array([res.offset for res in results])
    spread = float(np.std(offsets, ddof=1))
    median_error = float(np.median([res.offset_error for res in results]))
    assert abs(median_error / spread - 1.0) <= 3.0 / np.sqrt(2 * (r_scans - 1))
    assert abs(np.mean(offsets) - 0.7) <= 3.0 * spread / np.sqrt(r_scans)


def test_parity_scan_of_one_histogram_at_every_phase_has_no_amplitude():
    # equal parities fit a flat curve, whose amplitude has no direction:
    # its error is the larger standard error of the cos and sin terms of
    # the 1 / sigma^2-weighted least squares
    cm = composite_dists(MODEL)
    hist = _binned(synthesize_shots((0.1, 0.8, 0.1), cm, 2_000, seed=50), cm)
    phases = np.arange(6) * np.pi / 6
    res = parity_scan_analysis([(phi, hist) for phi in phases], cm,
                               n_bootstrap=20, seed=51)
    assert np.all(res.parities == res.parities[0])
    assert res.amplitude < 1e-12
    design = np.column_stack([np.cos(2 * phases), np.sin(2 * phases),
                              np.ones_like(phases)])
    floor = max(1e-3 * np.max(res.parity_errors), 1e-6)
    w = 1.0 / np.maximum(res.parity_errors, floor) ** 2
    cov = np.linalg.inv(design.T @ (w[:, None] * design))
    assert np.isfinite(res.amplitude_error)
    assert res.amplitude_error == pytest.approx(
        np.sqrt(max(cov[0, 0], cov[1, 1])), rel=1e-12)


def test_parity_scan_needs_four_phases():
    rho = dicke_state(2, 1).density()
    scans = _scan_histograms(rho, [0.0, 0.5, 1.0], 500, seed=44)
    with pytest.raises(IdentifiabilityError):
        parity_scan_analysis(scans, composite_dists(MODEL))


@pytest.mark.parametrize("phases", [
    np.arange(4) * np.pi / 2,  # two distinct phases modulo pi
    np.arange(4) * np.pi,  # one
], ids=["two-mod-pi", "one-mod-pi"])
def test_parity_scan_needs_three_phases_modulo_pi(phases):
    # four distinct phases, but the pi-periodic fit's design has rank 2
    # (resp. 1); the first set gave amplitude 1.5e14 +- 8.7e13
    rho = dicke_state(2, 1).density()
    scans = _scan_histograms(rho, phases, 500, seed=49)
    with pytest.raises(IdentifiabilityError, match="modulo pi"):
        parity_scan_analysis(scans, composite_dists(MODEL), n_bootstrap=2)


def test_parity_scan_fits_four_phases_with_three_modulo_pi():
    rho = dicke_state(2, 1).density()
    scans = _scan_histograms(rho, [0.0, np.pi / 4, np.pi / 2, np.pi], 500,
                             seed=49)
    res = parity_scan_analysis(scans, composite_dists(MODEL), n_bootstrap=2)
    assert np.isfinite(res.amplitude) and np.isfinite(res.offset)
    assert res.amplitude < 1.0


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_analysis_phases_must_be_finite(bad):
    # a nan phase used to give a nan offset and amplitude, an inf phase a
    # RuntimeWarning from cos, and estimate_period a scipy error
    rho = dicke_state(2, 1).density()
    phases = np.arange(6) * np.pi / 6
    scans = _scan_histograms(rho, phases, 500, seed=48)
    scans = [(bad if k == 2 else phi, hist)
             for k, (phi, hist) in enumerate(scans)]
    with pytest.raises(DataError, match="analysis phases must be finite"):
        parity_scan_analysis(scans, composite_dists(MODEL), n_bootstrap=2)
    phases = np.where(np.arange(6) == 2, bad, phases)
    with pytest.raises(DataError, match="analysis phases must be finite"):
        estimate_period(phases, np.cos(2 * np.arange(6) * np.pi / 6))


def test_estimate_period_on_clean_sinusoid():
    phis = np.linspace(0, np.pi, 16)
    values = 0.7 * np.cos(2 * phis - 0.4) + 0.05
    assert estimate_period(phis, values) == pytest.approx(np.pi, rel=1e-6)


def test_estimate_period_reports_a_fit_that_does_not_converge(monkeypatch):
    def failing(*args, **kwargs):
        raise RuntimeError("Optimal parameters not found")

    monkeypatch.setattr(optimize, "curve_fit", failing)
    phis = np.linspace(0, np.pi, 16)
    with pytest.raises(DataError, match="period fit did not converge: "
                       "Optimal parameters not found"):
        estimate_period(phis, np.cos(2 * phis))


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
    scans = _scan_histograms(rho, phases, 30_000, seed=50)
    res = parity_scan_analysis(scans, cm, n_bootstrap=40, seed=51)
    assert res.offset == pytest.approx(0.74, abs=0.02)
    assert res.amplitude < 0.02

    double = _scan_histograms(rho, phases, 30_000, seed=52, double=True)
    res2 = parity_scan_analysis(double, cm, n_bootstrap=40, seed=53)
    assert res2.amplitude == pytest.approx(0.67, abs=0.02)
    assert estimate_period(res2.phases, res2.parities) == pytest.approx(
        np.pi, rel=0.03)

    # full fidelity assembly: fitted odd population plus coherence, halved
    direct = synthesize_shots(bright_populations_loop(rho), cm, 30_000,
                              seed=54)
    fit = ml_fit(_binned(direct, cm), cm, n_bootstrap=0)
    fidelity = 0.5 * (fit.populations[1] + res.offset)
    assert fidelity == pytest.approx(0.77, abs=0.015)
