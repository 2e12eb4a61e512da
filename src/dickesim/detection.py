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
An observed sample of counts is fit with the three-component mixture by
maximizing the log-likelihood over the population simplex.  The problem
is concave, so the optimum is global, and Newton steps with the exact
Hessian on the face of the simplex that holds the free populations reach
it in a few iterations, where EM-style multiplicative updates crawl near
the boundary.
Uncertainties come from a nonparametric bootstrap of 0 (none) or at least
2 resamples.  The fits of a call run in two batches through one Newton
loop: the point fits (one sample, or every phase of a parity scan), then
all of their bootstrap resamples.  A fit stops after the step whose Newton
decrement is at most 1e-10, and its result does not depend on the rest of
its batch.

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
_BLOCK_ROWS = 256  # rows per block of the Newton fit's line search
QUAD_NODES = 513  # 512 Simpson intervals over the detection window
_TAU = np.linspace(0.0, 1.0, QUAD_NODES)  # decay time over the window
# composite Simpson weights on _TAU: (1, 4, 2, 4, ..., 2, 4, 1) h / 3
_SIMPSON = np.where(np.arange(QUAD_NODES) % 2, 4.0, 2.0)
_SIMPSON[[0, -1]] = 1.0
_SIMPSON /= 3.0 * (QUAD_NODES - 1)
# the four rates, in ReadoutModel's field order and in the order of the
# derivative rows of _composites (where gamma stands for gamma T)
_CAL_PARAMS = ("lambda_bright", "lambda_dark", "lambda_bg", "gamma")


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
    p = np.exp(special.xlogy(n, mean) - special.gammaln(n + 1) - mean)
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
    1, so that the decayed branch carries the exact mass 1 - exp(-gamma T).  The normaliser is at least the first weight, so no
    gamma T >= 0 divides by zero.  One (n_max+1, QUAD_NODES) product with
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
def composite_dists(model, n_max=DEFAULT_N_MAX):
    """Composite count distributions for two equally illuminated ions, as
    one read-only (3, n_max+1) array whose row i holds P(n|i) for i bright
    (down) ions:

    P(n|0) = P_bg * P_up * P_up,
    P(n|1) = P_bg * P_up * P_down,
    P(n|2) = P_bg * P_down * P_down.

    The array is cached per (model, n_max): every caller gets the same
    object back, which is why it is read-only.
    """
    pmat = _composites(model, n_max)[0]
    pmat.setflags(write=False)
    return pmat


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


def _newton(h, pmat, starts, max_iter=100):
    """Maximize sum_n h_bn log(sum_i c_bi P_in) over the simplex for each
    histogram row b of ``h``, from ``starts``; returns the (B, k)
    populations and (B,) log-likelihoods.

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
    taking that last step whole.  Rows still running after ``max_iter``
    iterations raise ConvergenceError.
    """
    h = np.asarray(h, dtype=float)
    k = pmat.shape[0]
    pairs = (pmat[:, None] * pmat[None]).reshape(k * k, -1)  # P_in P_jn
    diag = np.arange(k)

    # elementwise products, last-axis reductions, einsum without optimize
    # and stacked solves: a row's arithmetic is that of a one-histogram
    # fit, whatever the batch
    def mixture(c):
        return np.maximum(np.einsum("bi,in->bn", c, pmat), 1e-300)

    def along(sel, t, d, mix, slope=False):
        # for the rows ``sel``: the gain sum_n h_n log(1 + t s_n) of the
        # step t d, where s = dmix / mix (exact for short steps), or with
        # ``slope`` its derivative in t, sum_n h_n / (1 / s_n + t).  A bin
        # without counts adds nothing, and a step onto a bin the mixture
        # cannot reach scores nan or -inf.  The rows go in blocks of
        # _BLOCK_ROWS, so that the copies they need stay small.
        out = np.empty(len(sel))
        for lo in range(0, len(sel), _BLOCK_ROWS):
            part = sel[lo:lo + _BLOCK_ROWS]
            tp = t[lo:lo + _BLOCK_ROWS, None]
            r = np.einsum("bi,in->bn", d[part], pmat)
            r /= mix[part]
            hs = h[part]
            held = hs > 0
            with np.errstate(divide="ignore", invalid="ignore"):
                if slope:
                    np.reciprocal(r, out=r, where=held)
                    r += tp
                    np.reciprocal(r, out=r, where=held)
                else:
                    r *= tp
                    np.log1p(r, out=r, where=held)
                out[lo:lo + _BLOCK_ROWS] = np.einsum("bn,bn->b", hs, r)
        return out

    c = starts / starts.sum(axis=1, keepdims=True)
    free = c > 0
    out_c, out_ll = np.empty_like(c), np.empty(len(h))
    rows = np.arange(len(h))
    for _ in range(max_iter):
        mix = mixture(c)
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
            out_c[rows[done]] = c[done]
            out_ll[rows[done]] = np.einsum("bn,bn->b", h[done],
                                           np.log(mixture(c[done])))
            keep = ~done
            rows, h, c, free = rows[keep], h[keep], c[keep], free[keep]
            if not len(rows):
                return out_c, out_ll
    raise ConvergenceError(f"Newton fit: {len(rows)} of {len(out_ll)} "
                           f"histograms did not converge in {max_iter} "
                           "iterations")


def _histogram(samples, cm):
    """Bin a sample of photon counts on 0..n_max, the columns of the
    composite array ``cm``, rejecting a sample that is not one flat run of
    real numbers, and counts that are not integers in that range."""
    counts = np.asarray(samples)
    if counts.ndim != 1:
        raise DataError("photon counts must be a flat sample; "
                        f"got an array of shape {counts.shape}")
    if counts.dtype.kind not in "iuf":
        raise DataError("photon counts must be real numbers; "
                        f"got dtype {counts.dtype}")
    if counts.size == 0:
        raise ValueError("need at least one sample")
    if counts.dtype.kind == "f":
        if not np.all(np.isfinite(counts)):
            raise DataError("photon counts must be finite")
        rounded = np.rint(counts)
        if np.max(np.abs(counts - rounded)) > 0:
            raise DataError("photon counts must be integers")
        counts = rounded.astype(int)
    n_max = cm.shape[1] - 1
    if counts.min() < 0 or counts.max() > n_max:
        raise DataError(
            f"photon counts must lie in [0, {n_max}]; "
            f"got range [{counts.min()}, {counts.max()}]")
    return np.bincount(counts, minlength=n_max + 1).astype(float)


def _fit(hists, cm, n_bootstrap, seeds):
    """One FitResult per row of ``hists``: all rows are fit in one Newton
    batch from the uniform populations, then all bootstrap resamples
    (drawn for row j from ``seeds[j]``) in another, each from its row's
    fit.  ``n_bootstrap`` is 0 (no errors) or >= 2 (a ddof=1 std)."""
    _check_integer(n_bootstrap, "n_bootstrap")
    if n_bootstrap != 0 and n_bootstrap < 2:
        raise ValueError(f"n_bootstrap must be 0 or >= 2, got {n_bootstrap}")
    k = cm.shape[0]
    c_hat, ll = _newton(hists, cm, np.full((len(hists), k), 1.0 / k))
    boots = [None] * len(hists)
    if n_bootstrap > 0:
        starts = np.repeat(np.clip(c_hat, 1e-6, None), n_bootstrap, axis=0)
        # resamples built inside the call, so that _newton holds their only
        # reference and frees them as its working set shrinks
        boots = _newton(np.concatenate([
            np.random.default_rng(seed).multinomial(int(n), h / n,
                                                    size=n_bootstrap)
            for seed, h, n in zip(seeds, hists, np.sum(hists, axis=1))],
            dtype=float), cm, starts)[0].reshape(len(hists), -1, k)
    return [FitResult(populations=c, log_likelihood=float(l),
                      std_errors=(np.zeros(k) if b is None
                                  else np.std(b, axis=0, ddof=1)),
                      n_samples=int(np.sum(h)), bootstrap_populations=b)
            for c, l, b, h in zip(c_hat, ll, boots, hists)]


def ml_fit(samples, cm, n_bootstrap=DEFAULT_N_BOOTSTRAP, seed=0):
    """Fit mixture populations (c0, c1, c2) to a sample of photon counts:
    the maximum-likelihood point on the simplex, found by Newton steps
    with the exact Hessian.

    ``cm`` is the array from :func:`composite_dists`.  Standard errors
    are the bootstrap standard deviations over ``n_bootstrap`` multinomial
    resamples (0 for none, else at least 2).
    """
    return _fit(_histogram(samples, cm)[None], cm, n_bootstrap, [seed])[0]


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


def synthesize_shots(populations, cm, n_shots, seed):
    """Draw i.i.d. photon counts from the mixture sum_i c_i P(n|i) of the
    rows of the :func:`composite_dists` array ``cm``.

    Reproducible for a fixed seed (an int, SeedSequence or Generator).
    """
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
    component = rng.choice(len(c), size=n_shots, p=c)
    counts = np.zeros(n_shots, dtype=int)
    support = np.arange(cm.shape[1])
    for i, p in enumerate(cm):
        mask = component == i
        if np.any(mask):
            counts[mask] = rng.choice(support, size=int(np.sum(mask)), p=p)
    return counts


# --- calibration against reference histograms --------------------------------


@dataclass(frozen=True)
class CalibrationResult:
    """Fitted readout model plus goodness-of-fit diagnostics (Pearson chi^2
    with tail bins merged to expected counts >= 5)."""

    model: ReadoutModel
    log_likelihood: float
    chi2_bright: float
    chi2_dark: float
    dof_bright: int
    dof_dark: int


def _check_reference(hist, name):
    h = np.asarray(hist, dtype=float)
    if h.ndim != 1 or not np.all(np.isfinite(h)) or np.any(h < 0):
        raise DataError(f"{name} histogram must be 1-d, finite and "
                        "non-negative")
    if np.sum(h) <= 0:
        raise IdentifiabilityError(f"{name} reference histogram is empty")
    if np.count_nonzero(h) < 2:
        raise IdentifiabilityError(
            f"{name} reference histogram occupies a single bin; "
            "rates are not identifiable")
    return h


def _pearson_chi2(hist, probs):
    """Pearson chi^2 after merging low-expectation bins (from the right)."""
    n = float(np.sum(hist))
    expected = probs * n
    obs_m, exp_m = [], []
    acc_o = acc_e = 0.0
    for o, e in zip(hist, expected):
        acc_o += o
        acc_e += e
        if acc_e >= 5.0:
            obs_m.append(acc_o)
            exp_m.append(acc_e)
            acc_o = acc_e = 0.0
    if acc_e > 0:
        if exp_m:
            obs_m[-1] += acc_o
            exp_m[-1] += acc_e
        else:
            obs_m.append(acc_o)
            exp_m.append(acc_e)
    obs_m = np.asarray(obs_m)
    exp_m = np.asarray(exp_m)
    chi2 = float(np.sum((obs_m - exp_m) ** 2 / exp_m))
    return chi2, max(len(obs_m) - 1, 1)


def calibrate(ref_bright, ref_dark, t_detect=DEFAULT_T_DETECT, fix=None):
    """Joint maximum-likelihood fit of the readout model to two reference
    histograms: an all-bright preparation (both ions down, P(n|2)) and an
    all-dark preparation (both ions up, P(n|0)).  The longer histogram
    sets n_max; the shorter one is padded with empty bins.

    ``fix`` optionally pins parameters (by name: lambda_bright,
    lambda_dark, lambda_bg, gamma) instead of fitting them; a fixed rate
    must be finite and non-negative, and anything else raises ValueError
    before the fit starts.  A fixed rate comes back in the model exactly
    as given.  Note that the two references constrain only
    three combinations of the four rates: trading background against the
    per-ion rates along (d lambda_bg, d lambda_dark, d lambda_bright) =
    (2e, -e, -e) leaves every component distribution unchanged, so the
    free four-parameter fit returns one point of that ridge.  The
    composite distributions (and any population fit built on them) are
    unaffected; fix lambda_bg from an independent background measurement
    when the individual rates matter.
    """
    from scipy import optimize

    hb = _check_reference(ref_bright, "bright")
    hd = _check_reference(ref_dark, "dark")
    n_max = max(len(hb), len(hd)) - 1
    hb = np.pad(hb, (0, n_max + 1 - len(hb)))
    hd = np.pad(hd, (0, n_max + 1 - len(hd)))

    fix = dict(fix or {})
    unknown = set(fix) - set(_CAL_PARAMS)
    if unknown:
        raise ValueError(f"unknown parameters in fix: {sorted(unknown)}")
    free = [i for i, p in enumerate(_CAL_PARAMS) if p not in fix]
    if not free:
        raise ValueError("at least one parameter must be free")

    # the start values, then the fixed rates over them; a free gamma is
    # fit as gamma * t_detect, the only way it enters the likelihood, and a
    # fixed one is kept as given
    mean_b = float(np.arange(len(hb)) @ hb / np.sum(hb))
    mean_d = float(np.arange(len(hd)) @ hd / np.sum(hd))
    theta = np.array([max((mean_b - 0.5 * mean_d) / 2.0, 0.1),
                      max(0.25 * mean_d, 1e-3), max(0.5 * mean_d, 1e-3), 0.1])
    for i, p in enumerate(_CAL_PARAMS):
        if p in fix:
            theta[i] = fix[p]

    def model_at(x):
        rates = theta.copy()
        rates[free] = x
        if "gamma" not in fix:
            rates[-1] /= t_detect  # gamma T back to gamma
        return ReadoutModel(**dict(zip(_CAL_PARAMS, rates)),
                            t_detect=t_detect)

    model_at(theta[free])  # a fixed rate ReadoutModel rejects raises here

    def nll(x):
        """Negative log-likelihood and its exact gradient in ``x``."""
        rows, grads = _composites(model_at(x), n_max)
        p0 = np.maximum(rows[0], 1e-300)
        p2 = np.maximum(rows[2], 1e-300)
        grad = grads[1] @ (hb / p2) + grads[0] @ (hd / p0)
        return -(hb @ np.log(p2) + hd @ np.log(p0)), -grad[free]

    bounds = [(1e-9, None)] * 3 + [(0.0, 20.0)]
    res = optimize.minimize(nll, theta[free], jac=True, method="L-BFGS-B",
                            bounds=[bounds[i] for i in free])
    if not res.success:
        raise ConvergenceError(f"calibration fit did not converge: "
                               f"{res.message} (nit={res.nit}, "
                               f"nfev={res.nfev})")
    model = model_at(res.x)
    cm = composite_dists(model, n_max)
    chi2_b, dof_b = _pearson_chi2(hb, cm[2])
    chi2_d, dof_d = _pearson_chi2(hd, cm[0])
    return CalibrationResult(
        model=model,
        log_likelihood=float(-res.fun),
        chi2_bright=chi2_b,
        chi2_dark=chi2_d,
        dof_bright=dof_b,
        dof_dark=dof_d,
    )


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
    """Raise IdentifiabilityError on fewer than four distinct phases, the
    parameter count of the free-period fit."""
    if len(np.unique(np.round(phases, 12))) < 4:
        raise IdentifiabilityError("need at least 4 distinct analysis phases")


def parity_scan_analysis(scans, cm, n_bootstrap=100, seed=0):
    """Per-phase ML parity estimates and a least-squares sinusoid fit.

    ``scans`` is an iterable of (phi, samples), each fit against the
    :func:`composite_dists` array ``cm`` with ``n_bootstrap`` resamples
    (0, or at least 2).
    The fit enforces the pi period of a two-qubit parity oscillation, so
    its offset is the coherence term: the two-phase average
    (parity(0) + parity(pi/2)) / 2 of the fitted curve.
    """
    scans = list(scans)
    phases = np.array([float(phi) for phi, _ in scans])
    _check_phases(phases)

    root = (seed if isinstance(seed, np.random.SeedSequence)
            else np.random.SeedSequence(seed))
    hists = np.stack([_histogram(samples, cm) for _, samples in scans])
    fits = _fit(hists, cm, n_bootstrap, root.spawn(len(scans)))
    parities = np.array([parity_from_fit(fit) for fit in fits])
    errors = np.array([parity_std_from_fit(fit) for fit in fits], dtype=float)

    design = np.column_stack([np.cos(2 * phases), np.sin(2 * phases),
                              np.ones_like(phases)])
    have_errors = bool(np.all(np.isfinite(errors)))
    if have_errors:
        # boundary-pinned fits can bootstrap to sigma ~ 0; floor the
        # weights so no single phase dominates the normal equations
        floor = max(float(np.max(errors)) * 1e-3, 1e-6)
        w = 1.0 / np.maximum(errors, floor) ** 2
    else:
        w = np.ones_like(parities)
    a_mat = design.T @ (w[:, None] * design)
    beta = np.linalg.solve(a_mat, design.T @ (w * parities))
    cov = np.linalg.inv(a_mat)
    if not have_errors:
        resid = parities - design @ beta
        dof = max(len(parities) - 3, 1)
        cov = cov * float(resid @ resid) / dof

    a, b, offset = beta
    amplitude = float(np.hypot(a, b))
    if amplitude > 1e-12:
        amp_var = (a * a * cov[0, 0] + b * b * cov[1, 1]
                   + 2 * a * b * cov[0, 1]) / amplitude**2
    else:
        amp_var = max(cov[0, 0], cov[1, 1])
    return ParityScanResult(
        phases=phases,
        parities=parities,
        parity_errors=errors,
        amplitude=amplitude,
        amplitude_error=float(np.sqrt(max(amp_var, 0.0))),
        phase_offset=float(np.arctan2(b, a)),
        offset=float(offset),
        offset_error=float(np.sqrt(max(cov[2, 2], 0.0))),
    )


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
