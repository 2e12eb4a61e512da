"""Photon-count statistics and maximum-likelihood readout for two ions.

Counts from one detection window are modeled as Poisson: one bright (down)
ion contributes ``lambda_bright`` mean counts per window, background
contributes ``lambda_bg``.  A dark (up) ion may be repumped to the bright
state during the window at rate gamma; conditioned on a decay at time tau
its mean count is the time-weighted mix
``lambda_dark * tau/T + lambda_bright * (1 - tau/T)``, and the decay time
is integrated out numerically (a fixed composite-Simpson weight vector
over a uniform tau grid, validated against Monte Carlo sampling in the
test suite).

Every count distribution is a plain array over n = 0..n_max with the tail
mass folded into the last bin.  The composite distributions for 0/1/2
bright ions are discrete convolutions of the background and single-ion
arrays, built once per readout model by :func:`composite_dists` as the
rows of one read-only (3, n_max+1) array; shot synthesis, fits and parity
scans all read the rows of that array, and n_max from its shape;
calibration builds the same rows, and with them the exact derivatives of
the two reference rows that its gradient needs, for each trial model.
Observed counts are histograms over n = 0..n_max, for the calibration
references and for the records fit with the three-component mixture by
maximizing the log-likelihood over the population simplex.  The problem
is concave, so the optimum is global, and Newton steps with the exact
Hessian on the face of the simplex that holds the free populations reach
it in a few iterations, where EM-style updates crawl near the boundary.
Uncertainties come from a nonparametric bootstrap of 0 (none) or at least
2 resamples.  The fits of a call go through two loops over blocks of at
most ``_BLOCK_ROWS`` rows: the point fits (one sample, or every phase of
a parity scan), then their bootstrap resamples, each resample block drawn
from the histograms' own Generators as it is reached, so that the working
set does not grow with the resample count.  A fit stops after the step whose
Newton decrement is at most 1e-10, and its result does not depend on the
rest of its block.

scipy is imported inside the three functions that call it (the Poisson
kernel, calibration's L-BFGS-B and the period fit), not at module level,
so importing the package (which imports this module) and running the
chain and pulse commands, which never read counts, load numpy only.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from ._frozen import freeze
from .errors import (ConvergenceError, DataError, IdentifiabilityError,
                     _check_integer)

DEFAULT_N_MAX = 100
DEFAULT_T_DETECT = 200e-6  # s
DEFAULT_N_BOOTSTRAP = 200
_BLOCK_ROWS = 400  # most rows (point fits or resamples) per Newton fit call
FIT_CAP = 100  # Newton iterations before a fit raises ConvergenceError
QUAD_NODES = 513  # 512 Simpson intervals over the detection window
_TAU = np.linspace(0.0, 1.0, QUAD_NODES)  # decay time over the window
# composite Simpson weights on _TAU: (1, 4, 2, 4, ..., 2, 4, 1) h / 3
_SIMPSON = np.where(np.arange(QUAD_NODES) % 2, 4.0, 2.0)
_SIMPSON[[0, -1]] = 1.0
_SIMPSON /= 3.0 * (QUAD_NODES - 1)
# the four rates, in ReadoutModel's field order and in the order of the
# derivative rows of _composites (where gamma stands for gamma T)
_CAL_PARAMS = ("lambda_bright", "lambda_dark", "lambda_bg", "gamma")
_GUIDE = 4096  # buckets of the shot sampler's guide table
_EDGES = np.arange(_GUIDE + 1) / _GUIDE


@dataclass(frozen=True)
class ReadoutModel:
    """Per-window count rates and the repump rate of one detection setup.

    ``lambda_*`` are mean counts per detection window (bright ion, dark
    ion, background); ``gamma`` is the dark-to-bright repump rate in 1/s
    over a window of ``t_detect`` seconds.
    """

    lambda_bright: float
    lambda_dark: float
    lambda_bg: float
    gamma: float
    t_detect: float = DEFAULT_T_DETECT

    def __post_init__(self):
        for name in _CAL_PARAMS:
            if not 0 <= getattr(self, name) < np.inf:
                raise ValueError(f"{name} must be finite and >= 0")
        if not 0 < self.t_detect < np.inf:
            raise ValueError("t_detect must be finite and positive")

    @property
    def gamma_t(self):
        return self.gamma * self.t_detect


def _folded_poisson(mean, n_max):
    """Poisson pmf on 0..n_max, one column per entry of ``mean``, with the
    tail mass folded into the last bin: the closed forms that
    scipy.stats.poisson evaluates, without its argument handling."""
    from scipy import special

    n = np.arange(n_max + 1).reshape((-1,) + (1,) * np.ndim(mean))
    # n log(mean) from one log per mean, bit for bit xlogy(n, mean); a
    # zero mean logs -inf, and its n = 0 row is 0 * log(mean) = 0
    with np.errstate(divide="ignore", invalid="ignore"):
        log_p = n * special.xlogy(1, mean)
    log_p[0] = 0.0
    # in place, so that a grid of means holds one (n_max+1, len(mean))
    # array, not four
    log_p -= special.gammaln(n + 1)
    log_p -= mean
    p = np.exp(log_p, out=log_p)
    p[-1] += special.pdtrc(n_max, mean)
    return p


def _fold_convolve(g, h):
    """Discrete convolution (g*h)(n) = sum_{m<=n} g(n-m) h(m) of two pmfs
    on 0..n_max, with the tail beyond n_max folded into the last bin."""
    full = np.convolve(g, h)
    out = full[: len(g)].copy()
    out[-1] += float(np.sum(full[len(g):]))
    return out


def _shift_diff(p):
    """d/d lambda of a folded pmf ``p`` (along axis 0) that depends on
    lambda through one Poisson(lambda) factor: p(n-1) - p(n), and
    p(n_max-1) in the folded last bin.  It commutes with
    :func:`_fold_convolve`, so it differentiates composites too."""
    d = np.zeros_like(p)
    d[1:] = p[:-1]
    d[:-1] -= p[:-1]
    return d


def _dark_ion(model, n_max):
    """Count pmf on 0..n_max of a single ion that starts dark (up), and
    its derivatives along lambda_bright, lambda_dark and gamma T, as a
    (4, n_max+1) array.

    With probability exp(-gamma T) the ion survives the window dark and
    contributes Poisson(lambda_dark).  Otherwise it decays at time tau and
    contributes Poisson counts with the time-weighted mean.  The decay
    time x = tau/T has density gamma T exp(-gamma T x); on the grid it
    becomes the Simpson weights times exp(-gamma T x), normalised to sum
    1, so that the decayed branch carries the exact mass
    1 - exp(-gamma T).  The normaliser is at least the first weight, so
    no gamma T >= 0 divides by zero.  One (n_max+1, QUAD_NODES) product with
    the columns x nu and (1 - x) nu gives the decayed row (their sum) and,
    through the shift difference, its derivatives in lambda_dark and
    lambda_bright; nu's own derivative in gamma T is -(x - <x>) nu.
    """
    s = model.gamma_t
    survive, decay = np.exp(-s), -np.expm1(-s)
    dark = _folded_poisson(model.lambda_dark, n_max)
    nu = _SIMPSON * np.exp(-s * _TAU)
    nu /= np.sum(nu)
    pmf = _folded_poisson(model.lambda_dark * _TAU
                          + model.lambda_bright * (1.0 - _TAU), n_max)
    at_dark, at_bright = (pmf @ np.column_stack([nu * _TAU,
                                                 nu * (1.0 - _TAU)])).T
    decayed = at_dark + at_bright
    return np.stack([
        survive * dark + decay * decayed,
        decay * _shift_diff(at_bright),
        survive * _shift_diff(dark) + decay * _shift_diff(at_dark),
        survive * (decayed - dark)
        - decay * (at_dark - float(nu @ _TAU) * decayed),
    ])


def _composites(model, n_max):
    """The composite rows P(n|i), i = 0, 1, 2, as a (3, n_max+1) array, and
    the derivatives of P(n|0) and P(n|2) along lambda_bright, lambda_dark,
    lambda_bg and gamma T, as a (2, 4, n_max+1) array."""
    bg = _folded_poisson(model.lambda_bg, n_max)
    up, *d_up = _dark_ion(model, n_max)
    down = _folded_poisson(model.lambda_bright, n_max)
    bg_up = _fold_convolve(bg, up)
    bg_down = _fold_convolve(bg, down)
    rows = np.stack([_fold_convolve(bg_up, up), _fold_convolve(bg_up, down),
                     _fold_convolve(bg_down, down)])
    # P0 = bg * up * up and P2 = bg * down * down; the shift difference
    # differentiates a Poisson factor inside a convolution
    d_bright, d_dark, d_gamma = (2.0 * _fold_convolve(bg_up, d) for d in d_up)
    d_down = _shift_diff(rows[2])
    zero = np.zeros_like(d_down)
    return rows, np.array([[d_bright, d_dark, _shift_diff(rows[0]), d_gamma],
                           [2.0 * d_down, zero, d_down, zero]])


@lru_cache(maxsize=32)
def _cached_composites(model, n_max):
    pmat = _composites(model, n_max)[0]
    pmat.setflags(write=False)
    return pmat


def composite_dists(model, n_max=DEFAULT_N_MAX):
    """Composite count distributions for two equally illuminated ions, as
    one read-only (3, n_max+1) array whose row i holds P(n|i) for i bright
    (down) ions:

    P(n|0) = P_bg * P_up * P_up,
    P(n|1) = P_bg * P_up * P_down,
    P(n|2) = P_bg * P_down * P_down.

    The array is cached per (model, n_max): every caller gets the same
    object back, which is why it is read-only.  ``n_max`` is an int or a
    numpy integer (a bool is neither) of at least 1; anything else raises
    ValueError before the cache is read.
    """
    _check_integer(n_max, "n_max")
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    return _cached_composites(model, int(n_max))


# the cache's counters and reset, under the public name
composite_dists.cache_info = _cached_composites.cache_info
composite_dists.cache_clear = _cached_composites.cache_clear


@dataclass(frozen=True, eq=False)
class FitResult:
    """Maximum-likelihood mixture populations with bootstrap uncertainties."""

    populations: np.ndarray
    log_likelihood: float
    std_errors: np.ndarray
    n_samples: int
    bootstrap_populations: np.ndarray | None = None

    def __post_init__(self):
        freeze(self, float, "populations", "std_errors")
        c = self.populations
        if np.any(c < -1e-12) or np.any(c > 1.0 + 1e-12):
            raise ValueError("populations must lie in [0, 1]")
        if abs(float(np.sum(c)) - 1.0) > 1e-9:
            raise ValueError("populations must sum to 1")


def _mixture(c, pmat):
    """The mixture sum_i c_bi P_in of each population row, floored at
    1e-300 so that its log is finite."""
    return np.maximum(np.einsum("bi,in->bn", c, pmat), 1e-300)


def _log_likelihood(h, c, pmat):
    """sum_n h_bn log(mixture_bn) for each histogram row b of ``h``."""
    return np.einsum("bn,bn->b", h, np.log(_mixture(c, pmat)))


def _newton(h, pmat, starts):
    """Maximize sum_n h_bn log(sum_i c_bi P_in) over the simplex for each
    histogram row b of ``h``, from ``starts``; returns the (B, k)
    populations.

    The objective is concave, so each iteration takes one Newton step with
    the exact Hessian on the free face of the simplex (Redner & Walker,
    SIAM Rev. 26, 195 (1984)).  The gradient g_i = sum_n h_n P_in / mix_n
    and the curvature Q_ij = sum_n h_n P_in P_jn / mix_n^2 (the negated
    Hessian) give the step d and the multiplier nu of sum_i c_i = 1 from
    one (k+1) x (k+1) KKT system, in which a pinned coordinate (c_i = 0)
    keeps d_i = 0.  The step is cut where it reaches the simplex boundary,
    and the coordinate that reaches 0 there is pinned.  A step is halved
    while it gains less than 1e-4 of the Newton decrement g.d, or ends on
    the boundary where the likelihood no longer climbs (a pin there could
    only be undone by crawling back from 0).  Once g.d <= 1e-10 the
    face is solved: the pinned coordinate whose multiplier has the most
    wrong sign (g_j > nu) is freed, and a row with none stops after
    taking that last step whole.  Rows still running after ``FIT_CAP``
    iterations raise ConvergenceError.
    """
    h = np.asarray(h, dtype=float)
    k = pmat.shape[0]
    pairs = (pmat[:, None] * pmat[None]).reshape(k * k, -1)  # P_in P_jn
    diag = np.arange(k)

    # elementwise products, last-axis reductions, einsum without optimize
    # and stacked solves: a row's arithmetic is that of a one-histogram
    # fit, whatever the batch
    def along(sel, t, d, mix, slope=False):
        # for the rows ``sel``: the gain sum_n h_n log(1 + t s_n) of the
        # step t d, where s = dmix / mix (exact for short steps), or with
        # ``slope`` its derivative in t, sum_n h_n / (1 / s_n + t).  A bin
        # without counts adds nothing, and a step onto a bin the mixture
        # cannot reach scores nan or -inf.
        r = np.einsum("bi,in->bn", d[sel], pmat)
        r /= mix[sel]
        hs = h[sel]
        held = hs > 0
        with np.errstate(divide="ignore", invalid="ignore"):
            if slope:
                np.reciprocal(r, out=r, where=held)
                r += t[:, None]
                np.reciprocal(r, out=r, where=held)
            else:
                r *= t[:, None]
                np.log1p(r, out=r, where=held)
        return np.einsum("bn,bn->b", hs, r)

    c = starts / starts.sum(axis=1, keepdims=True)
    free = c > 0
    out = np.empty_like(c)
    rows = np.arange(len(h))
    for _ in range(FIT_CAP):
        mix = _mixture(c, pmat)
        w = h / mix
        g = np.einsum("bn,in->bi", w, pmat)
        w /= mix
        q = np.einsum("bn,mn->bm", w, pairs).reshape(-1, k, k)
        del w
        # the face system; a ridge of 1e-12 of the largest free curvature
        # keeps it solvable where Q is singular (a one-bin histogram), and
        # a pinned row holds that curvature alone, so its d_i is 0
        top = np.max(np.where(free, q[:, diag, diag], 0.0), axis=1,
                     keepdims=True)
        kkt = np.zeros((len(c), k + 1, k + 1))
        kkt[:, :k, :k] = np.where(free[:, :, None] & free[:, None, :], q, 0.0)
        kkt[:, diag, diag] += np.where(free, 1e-12 * top, top)
        kkt[:, :k, k] = kkt[:, k, :k] = free
        rhs = np.zeros((len(c), k + 1, 1))
        rhs[:, :k, 0] = np.where(free, g, 0.0)
        x = np.linalg.solve(kkt, rhs)[:, :, 0]
        d = np.where(free, x[:, :k], 0.0)
        dec = np.einsum("bi,bi->b", g, d)
        solved = dec <= 1e-10
        # the pinned coordinate whose multiplier is most wrong, if any
        excess = np.where(free, 0.0, g - x[:, k:])
        worst = np.argmax(excess, axis=1)
        wrong = (excess[np.arange(len(c)), worst] > 0) & solved

        ratio = np.divide(c, -d, out=np.full_like(c, np.inf), where=d < 0)
        block = np.argmin(ratio, axis=1)
        t_max = ratio[np.arange(len(c)), block]
        t = np.minimum(t_max, 1.0)
        # a running row halves its step until it gains 1e-4 of g.d, and
        # stops on the boundary only where the likelihood climbs there
        run = np.flatnonzero(~solved)
        for _ in range(60):
            ok = along(run, t[run], d, mix) >= 1e-4 * t[run] * dec[run]
            edge = np.flatnonzero(ok & (t[run] == t_max[run]))
            ok[edge] = along(run[edge], t[run[edge]], d, mix,
                             slope=True) >= 0.0
            run = run[~ok]
            if not len(run):
                break
            t[run] *= 0.5
        else:
            t[run] = 0.0  # no climb left: the row runs on to the cap
        del mix

        c = c + t[:, None] * d
        hit = np.flatnonzero(t == t_max)
        c[hit, block[hit]] = 0.0
        np.maximum(c, 0.0, out=c)
        c /= c.sum(axis=1, keepdims=True)
        free &= c > 0
        free[np.flatnonzero(wrong), worst[wrong]] = True
        done = solved & ~wrong
        if done.any():
            out[rows[done]] = c[done]
            keep = ~done
            rows, h, c, free = rows[keep], h[keep], c[keep], free[keep]
            if not len(rows):
                return out
    raise ConvergenceError(f"Newton fit: {len(rows)} of {len(out)} "
                           f"histograms did not converge in {FIT_CAP} "
                           "iterations")


def _check_histogram(hist, name, n_bins):
    """``hist`` as a float array, once it is a histogram of photon counts
    over n = 0..n_bins - 1: 1-d, real, finite and non-negative, with
    ``n_bins`` bins."""
    h = np.asarray(hist)
    if (h.ndim != 1 or h.dtype.kind not in "iuf"
            or not np.all(np.isfinite(h)) or np.any(h < 0)):
        raise DataError(f"{name} histogram must be 1-d, finite and "
                        "non-negative real numbers")
    if len(h) != n_bins:
        raise DataError(f"{name} histogram must have {n_bins} bins, one per "
                        f"count 0..{n_bins - 1}; got {len(h)}")
    return h.astype(float)


def _fit(hists, cm, n_bootstrap, seeds):
    """One FitResult per histogram in ``hists``: each is checked against
    the columns of ``cm`` (a DataError) and must hold at least one count,
    a total of at least 1 (a ValueError), so that a bootstrap resample
    draws at least one shot.  The histograms are fit from the uniform
    populations, then their bootstrap resamples (drawn for histogram j
    from ``np.random.default_rng(seeds[j])``) each from its histogram's
    fit, in two loops over blocks of at most _BLOCK_ROWS Newton rows, so
    that the working set does not grow with ``n_bootstrap``.
    ``n_bootstrap`` is 0 (no errors, and no resample block) or >= 2 (a
    ddof=1 std)."""
    hists = np.stack([_check_histogram(h, "photon-count", cm.shape[1])
                      for h in hists])
    totals = np.sum(hists, axis=1)
    if np.any(totals < 1):
        raise ValueError("photon-count histogram holds no counts: its total "
                         f"{totals.min():g} is below one")
    _check_integer(n_bootstrap, "n_bootstrap")
    if n_bootstrap != 0 and n_bootstrap < 2:
        raise ValueError(f"n_bootstrap must be 0 or >= 2, got {n_bootstrap}")
    n, k = len(hists), cm.shape[0]
    rngs = [np.random.default_rng(seed) for seed in seeds]
    c_hat = np.empty((n, k))
    for lo in range(0, n, _BLOCK_ROWS):
        hi = min(lo + _BLOCK_ROWS, n)
        c_hat[lo:hi] = _newton(hists[lo:hi], cm, np.full((hi - lo, k), 1 / k))
    # row j * n_bootstrap + b is resample b of hists[j], which starts from
    # that histogram's fit; a Generator's successive multinomial draws of
    # some rows each are the rows of one draw of all of them, and a row's
    # fit does not depend on its block
    boots = np.empty((n * n_bootstrap, k))
    for lo in range(0, len(boots), _BLOCK_ROWS):
        hi = min(lo + _BLOCK_ROWS, len(boots))
        j = np.arange(lo, hi) // n_bootstrap
        h = np.concatenate([
            rngs[i].multinomial(int(totals[i]), hists[i] / totals[i], size=m)
            for i, m in zip(*np.unique(j, return_counts=True))], dtype=float)
        boots[lo:hi] = _newton(h, cm, np.clip(c_hat[j], 1e-6, None))
    boots = boots.reshape(n, n_bootstrap, k) if n_bootstrap else [None] * n
    lls = _log_likelihood(hists, c_hat, cm)
    return [FitResult(populations=c, log_likelihood=float(l),
                      std_errors=(np.zeros(k) if b is None
                                  else np.std(b, axis=0, ddof=1)),
                      n_samples=int(np.sum(h)), bootstrap_populations=b)
            for c, l, b, h in zip(c_hat, lls, boots, hists)]


def ml_fit(hist, cm, n_bootstrap=DEFAULT_N_BOOTSTRAP, seed=0):
    """Fit mixture populations (c0, c1, c2) to a histogram of photon
    counts: the maximum-likelihood point on the simplex, found by Newton
    steps with the exact Hessian.

    ``cm`` is the array from :func:`composite_dists`, and ``hist`` has one
    bin per column of it, for the counts 0..n_max.  Standard errors are
    the bootstrap standard deviations over ``n_bootstrap`` multinomial
    resamples (0 for none, else at least 2), drawn from
    ``np.random.default_rng(seed)``: an int, SeedSequence or Generator.
    A histogram with another bin count, or one that is not 1-d, finite
    and non-negative, is a DataError; one whose total is below one count
    is a ValueError.
    """
    return _fit([hist], cm, n_bootstrap, [seed])[0]


def _parity(c):
    """Two-qubit parity c0 + c2 - c1 of bright-ion populations along the
    last axis of ``c``."""
    return c[..., 0] + c[..., 2] - c[..., 1]


def parity_from_fit(fit):
    """Two-qubit parity from fitted bright-ion populations: c0 + c2 - c1."""
    return float(_parity(fit.populations))


def parity_std_from_fit(fit):
    """Bootstrap standard deviation of the parity (None without bootstrap)."""
    b = fit.bootstrap_populations
    if b is None:
        return None
    return float(np.std(_parity(b), ddof=1))


def _draw(p, u):
    """Generator.choice(len(p), p=p)'s draws for uniforms ``u`` and its
    checks of ``p`` (a sum within 2**-26 = sqrt(eps) of 1); a draw is
    searched only in a guide bucket with a cdf step (u * _GUIDE is exact);
    bucket b starts at ``#{j: cdf_j <= b / _GUIDE}``, counted from each cdf
    entry's place among the edges."""
    if np.any(p < 0) or not abs(float(np.sum(p)) - 1.0) <= 2.0**-26:
        raise ValueError("probabilities must be non-negative and sum to 1")
    cdf = np.cumsum(p)
    cdf /= cdf[-1]
    lo = np.cumsum(np.bincount(np.searchsorted(_EDGES, cdf, side="left"),
                               minlength=_GUIDE + 1))[:_GUIDE]
    below = np.cumsum(np.bincount(np.searchsorted(_EDGES, cdf, side="right"),
                                  minlength=_GUIDE + 2))[1:_GUIDE + 1]
    stepped = below > lo
    bucket = (u * _GUIDE).astype(np.intp)
    out = lo[bucket]
    search = np.flatnonzero(stepped[bucket])
    out[search] = np.searchsorted(cdf, u[search], side="right")
    return out


def _shot_draws(populations, cm, n_shots, seed):
    """``n_shots`` shots drawn from the mixture of the rows of ``cm``, as
    the normalised populations ``c``, the uniforms ``u`` with which
    ``_draw(c, u)`` picks each shot's component, and for each row the
    counts of the shots that picked it, in shot order: the one sampler of
    :func:`synthesize_shots`, which puts the counts in shot order, and of
    histograms that bin them as drawn, without any shot's component."""
    c = np.asarray(populations, dtype=float)
    if not np.all(c >= -1e-12):  # NaN fails this too
        raise ValueError("populations must be non-negative")
    if abs(float(np.sum(c)) - 1.0) > 1e-9:
        raise ValueError("populations must sum to 1")
    _check_integer(n_shots, "n_shots")
    if n_shots < 0:
        raise ValueError("n_shots must be >= 0")
    if len(c) != len(cm):
        raise ValueError("populations length must match the model components")
    rng = np.random.default_rng(seed)
    c = np.clip(c, 0.0, None)
    c /= np.sum(c)
    # rng.choice's uniforms: the components, then each one's counts in
    # turn; a row that holds no draw is not read.  _draw(c, u) picks
    # #{j: cdf_j <= u} on _draw's cdf, so #{u < cdf_j} shots pick j or less
    u = rng.random(n_shots)
    cdf = np.cumsum(c)
    cdf /= cdf[-1]
    sizes = np.diff([np.count_nonzero(u < x) for x in cdf], prepend=0)
    return c, u, [_draw(p, rng.random(m)) if m else np.zeros(0, int)
                  for p, m in zip(cm, sizes)]


def synthesize_shots(populations, cm, n_shots, seed):
    """Draw i.i.d. photon counts from the mixture sum_i c_i P(n|i) of the
    rows of the :func:`composite_dists` array ``cm``.

    Reproducible for a fixed seed (an int, SeedSequence or Generator).
    """
    c, u, draws = _shot_draws(populations, cm, n_shots, seed)
    component = _draw(c, u)
    counts = np.zeros(n_shots, dtype=int)
    for i, d in enumerate(draws):
        counts[component == i] = d
    return counts


# --- calibration against reference histograms --------------------------------


@dataclass(frozen=True)
class CalibrationResult:
    """Fitted readout model plus goodness-of-fit diagnostics: the Pearson
    chi^2 of each reference histogram, whose bins merge from the left until
    each expects at least 5 counts, a short remainder joining the last bin,
    and whose degrees of freedom are the number of merged bins - 1."""

    model: ReadoutModel
    log_likelihood: float
    chi2_bright: float
    chi2_dark: float
    dof_bright: int
    dof_dark: int


def _pearson_chi2(hist, probs):
    """Pearson chi^2 and its bins - 1 degrees of freedom, bins merged from
    the left until each expects at least 5 counts."""
    bins = []
    for row in np.column_stack((hist, probs * float(np.sum(hist)))):
        if bins and bins[-1][1] < 5.0:
            bins[-1] += row
        else:
            bins.append(row)
    # a short remainder joins the last full bin, so no count is dropped
    if len(bins) > 1 and bins[-1][1] < 5.0:
        remainder = bins.pop()
        bins[-1] += remainder
    obs, exp = np.array(bins).T
    return float(np.sum((obs - exp) ** 2 / exp)), len(bins) - 1


def calibrate(ref_bright, ref_dark, t_detect=DEFAULT_T_DETECT):
    """Joint maximum-likelihood fit of the four readout rates to two
    reference histograms: an all-bright preparation (both ions down,
    P(n|2)) and an all-dark preparation (both ions up, P(n|0)).  Both
    share one count range, 0..n_max, set by the bright one: a dark
    reference with another bin count is a DataError, and a reference that
    occupies fewer than two bins an IdentifiabilityError.

    The two references constrain only three combinations of the four
    rates: gamma, lambda_bg + 2 lambda_dark and lambda_bg + 2
    lambda_bright.  Trading background against the per-ion rates along
    (d lambda_bg, d lambda_dark, d lambda_bright) = (2e, -e, -e) leaves
    every component distribution unchanged, so the reported rates are
    one point of that ridge.  The composite distributions (and any
    population fit built on them) are unaffected.
    """
    from scipy import optimize

    hb = _check_histogram(ref_bright, "bright", np.size(ref_bright))
    hd = _check_histogram(ref_dark, "dark", len(hb))
    for h, name in ((hb, "bright"), (hd, "dark")):
        # two occupied bins fix the rates
        if np.count_nonzero(h) < 2:
            raise IdentifiabilityError(f"{name} reference histogram " + (
                "occupies a single bin; rates are not identifiable"
                if np.any(h) else "is empty"))
    n_max = len(hb) - 1

    # the start values; gamma is fit as gamma * t_detect, the only way it
    # enters the likelihood
    mean_b = float(np.arange(len(hb)) @ hb / np.sum(hb))
    mean_d = float(np.arange(len(hd)) @ hd / np.sum(hd))
    theta = np.array([max((mean_b - 0.5 * mean_d) / 2.0, 0.1),
                      max(0.25 * mean_d, 1e-3), max(0.5 * mean_d, 1e-3), 0.1])

    def model_at(x):
        return ReadoutModel(*x[:3], gamma=x[3] / t_detect, t_detect=t_detect)

    def nll(x):
        """Negative log-likelihood and its exact gradient in ``x``."""
        rows, grads = _composites(model_at(x), n_max)
        p0 = np.maximum(rows[0], 1e-300)
        p2 = np.maximum(rows[2], 1e-300)
        grad = grads[1] @ (hb / p2) + grads[0] @ (hd / p0)
        return -(hb @ np.log(p2) + hd @ np.log(p0)), -grad

    res = optimize.minimize(nll, theta, jac=True, method="L-BFGS-B",
                            bounds=[(1e-9, None)] * 3 + [(0.0, 20.0)])
    if not res.success:
        raise ConvergenceError(f"calibration fit did not converge: "
                               f"{res.message} (nit={res.nit}, "
                               f"nfev={res.nfev})")
    model = model_at(res.x)
    cm = composite_dists(model, n_max)
    chi2_b, dof_b = _pearson_chi2(hb, cm[2])
    chi2_d, dof_d = _pearson_chi2(hd, cm[0])
    return CalibrationResult(model=model, log_likelihood=float(-res.fun),
                             chi2_bright=chi2_b, chi2_dark=chi2_d,
                             dof_bright=dof_b, dof_dark=dof_d)


# --- parity scans -------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class ParityScanResult:
    """Sinusoid fit of parity versus analysis phase, period pi enforced:
    parity(phi) = amplitude * cos(2 phi - phase_offset) + offset."""

    phases: np.ndarray
    parities: np.ndarray
    parity_errors: np.ndarray
    amplitude: float
    amplitude_error: float
    phase_offset: float
    offset: float
    offset_error: float


def _check_phases(phases):
    """Raise DataError on a phase that is not finite, and
    IdentifiabilityError on fewer than four distinct phases, the parameter
    count of the free-period fit."""
    if not np.all(np.isfinite(phases)):
        raise DataError("analysis phases must be finite")
    if len(np.unique(np.round(phases, 12))) < 4:
        raise IdentifiabilityError("need at least 4 distinct analysis phases")


def parity_scan_analysis(scans, cm, n_bootstrap=100, seed=0):
    """Per-phase ML parity estimates and a least-squares sinusoid fit.

    ``scans`` is an iterable of (phi, hist), each histogram checked and
    fit as by :func:`ml_fit` against the :func:`composite_dists` array
    ``cm`` (all histograms are checked before any fit) with
    ``n_bootstrap`` resamples, at least 2 (``ValueError`` before any fit
    otherwise); phase j's resamples are drawn from stream j of
    ``np.random.default_rng(seed).spawn(len(scans))``, for a ``seed`` that
    is an int, SeedSequence or Generator.  The sinusoid weights each phase
    by 1 / sigma^2 of its bootstrap parity error, floored at 1e-3 of the
    largest (and at 1e-6).  The fit enforces the pi period of a two-qubit
    parity oscillation, so its offset is the coherence term: the two-phase
    average (parity(0) + parity(pi/2)) / 2 of the fitted curve.  Phases
    that leave its three parameters unidentified, such as fewer than three
    distinct phases modulo pi, raise IdentifiabilityError before any fit.
    """
    _check_integer(n_bootstrap, "n_bootstrap")
    if n_bootstrap < 2:
        raise ValueError(f"n_bootstrap must be >= 2, got {n_bootstrap}")
    scans = list(scans)
    phases = np.array([float(phi) for phi, _ in scans])
    _check_phases(phases)
    design = np.column_stack([np.cos(2 * phases), np.sin(2 * phases),
                              np.ones_like(phases)])
    if np.linalg.matrix_rank(design) < 3:
        raise IdentifiabilityError(
            "the analysis phases do not fix the pi-periodic fit: need at "
            "least 3 distinct phases modulo pi")

    fits = _fit([hist for _, hist in scans], cm, n_bootstrap,
                np.random.default_rng(seed).spawn(len(scans)))
    parities = np.array([parity_from_fit(fit) for fit in fits])
    errors = np.array([parity_std_from_fit(fit) for fit in fits])

    # boundary-pinned fits can bootstrap to sigma ~ 0; floor the weights
    # so no single phase dominates the normal equations
    floor = max(float(np.max(errors)) * 1e-3, 1e-6)
    w = 1.0 / np.maximum(errors, floor) ** 2
    a_mat = design.T @ (w[:, None] * design)
    beta = np.linalg.solve(a_mat, design.T @ (w * parities))
    cov = np.linalg.inv(a_mat)

    a, b, offset = beta
    amplitude = float(np.hypot(a, b))
    if amplitude > 1e-12:
        amp_var = (a * a * cov[0, 0] + b * b * cov[1, 1]
                   + 2 * a * b * cov[0, 1]) / amplitude**2
    else:
        amp_var = max(cov[0, 0], cov[1, 1])
    return ParityScanResult(
        phases=phases, parities=parities, parity_errors=errors,
        amplitude=amplitude, amplitude_error=float(np.sqrt(max(amp_var, 0.0))),
        phase_offset=float(np.arctan2(b, a)), offset=float(offset),
        offset_error=float(np.sqrt(max(cov[2, 2], 0.0))))


def estimate_period(phases, parities):
    """Free-frequency cosine fit A cos(k phi - phi0) + B; returns the
    period 2 pi / k.  Used to verify the pi periodicity of a parity
    oscillation without assuming it.  The fit has four parameters, so
    fewer than 4 distinct phases raise IdentifiabilityError, as in
    :func:`parity_scan_analysis`."""
    from scipy import optimize

    phases = np.asarray(phases, dtype=float)
    parities = np.asarray(parities, dtype=float)
    _check_phases(phases)

    def f(phi, amp, k, phi0, off):
        return amp * np.cos(k * phi - phi0) + off

    p0 = [max((parities.max() - parities.min()) / 2.0, 1e-3), 2.0, 0.0,
          float(np.mean(parities))]
    try:
        popt, _ = optimize.curve_fit(
            f, phases, parities, p0=p0,
            bounds=([0.0, 0.2, -2 * np.pi, -1.5], [2.0, 10.0, 2 * np.pi, 1.5]),
            maxfev=20000)
    except RuntimeError as exc:
        raise DataError(f"period fit did not converge: {exc}") from exc
    return float(2 * np.pi / popt[1])
