"""Photon-count statistics and maximum-likelihood readout for two ions.

Counts from one detection window are modeled as Poisson: one bright (down)
ion contributes ``lambda_bright`` mean counts per window, background
contributes ``lambda_bg``.  A dark (up) ion may be repumped to the bright
state during the window at rate gamma; conditioned on a decay at time tau
its mean count is the time-weighted mix
``lambda_dark * tau/T + lambda_bright * (1 - tau/T)``, and the decay time
is integrated out numerically (Simpson rule over a uniform tau grid,
validated against Monte Carlo sampling in the test suite).

Composite distributions for 0/1/2 bright ions are discrete convolutions of
background and single-ion distributions, built once per readout model by
:func:`composite_dists` as a :class:`CountModel`; shot synthesis, fits and
parity scans all take that CountModel; calibration builds only the two
reference distributions for each trial model.  An observed sample of
counts is fit with the three-component mixture by maximizing the
log-likelihood over the population simplex (EM-style multiplicative
updates; the problem is concave, so the interior optimum is global).
Uncertainties come from a nonparametric bootstrap of 0 (none) or at least
2 resamples.  The fits of a call run in two batches through one EM loop:
the point fits (one sample, or every phase of a parity scan), then all of
their bootstrap resamples.  Plain EM crawls where a fit is pinned near the
simplex boundary, so each cycle of the loop is a SQUAREM extrapolation of
two EM updates, with a fall-back to the plain updates wherever the
extrapolation scores lower; a fit stops once one EM update gains at most
1e-10, and its result does not depend on the rest of its batch.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy import optimize, special
from scipy.integrate import simpson

from ._frozen import freeze
from .errors import ConvergenceError, DataError, IdentifiabilityError

DEFAULT_N_MAX = 100
QUAD_NODES = 513  # 512 Simpson intervals over the detection window


@dataclass(frozen=True)
class CountDistribution:
    """Probabilities of observing n = 0..n_max photons (tail mass beyond
    n_max folded into the last bin)."""

    probabilities: np.ndarray

    def __post_init__(self):
        freeze(self, float, "probabilities")
        p = self.probabilities
        if p.ndim != 1 or len(p) < 1:
            raise ValueError("probabilities must be a 1-d array")
        if np.any(p < -1e-12):
            raise ValueError("probabilities must be non-negative")
        total = float(np.sum(p))
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"probabilities sum to {total!r}, not 1")

    @property
    def n_max(self):
        return len(self.probabilities) - 1

    def mean(self):
        return float(np.arange(len(self.probabilities)) @ self.probabilities)


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
    t_detect: float = 200e-6

    def __post_init__(self):
        for name in ("lambda_bright", "lambda_dark", "lambda_bg", "gamma"):
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
    n = np.arange(n_max + 1).reshape((-1,) + (1,) * np.ndim(mean))
    p = np.exp(special.xlogy(n, mean) - special.gammaln(n + 1) - mean)
    p[-1] += special.pdtrc(n_max, mean)
    return p


def poisson_dist(mean, n_max=DEFAULT_N_MAX):
    """Poisson count distribution with the tail folded into the last bin."""
    if mean < 0:
        raise ValueError("mean must be >= 0")
    return CountDistribution(_folded_poisson(mean, n_max))


def convolve(g, h):
    """Discrete convolution (G*H)(n) = sum_{m<=n} G(n-m) H(m), tail-folded
    back to the common n_max."""
    if g.n_max != h.n_max:
        raise ValueError("distributions must share the same n_max")
    full = np.convolve(g.probabilities, h.probabilities)
    out = full[: g.n_max + 1].copy()
    out[-1] += float(np.sum(full[g.n_max + 1:]))
    return CountDistribution(out)


def dark_ion_dist(model, n_max=DEFAULT_N_MAX):
    """Counts from a single ion that starts dark (up).

    With probability exp(-gamma T) the ion survives the window dark and
    contributes Poisson(lambda_dark).  Otherwise it decays at time tau
    (exponential density) and contributes Poisson counts with the
    time-weighted mean; the tau integral is a Simpson quadrature whose
    decayed-branch mass is rescaled to the exact 1 - exp(-gamma T).
    """
    gt = model.gamma_t
    if gt == 0.0:
        return poisson_dist(model.lambda_dark, n_max)
    x = np.linspace(0.0, 1.0, QUAD_NODES)  # tau / T
    means = model.lambda_dark * x + model.lambda_bright * (1.0 - x)
    density = gt * np.exp(-gt * x)
    pmf = _folded_poisson(means, n_max)
    decayed = simpson(pmf * density[None, :], x=x, axis=1)
    raw_mass = simpson(density, x=x)
    exact_mass = 1.0 - np.exp(-gt)
    if raw_mass > 0:
        decayed *= exact_mass / raw_mass
    p = np.exp(-gt) * _folded_poisson(model.lambda_dark, n_max) + decayed
    return CountDistribution(p)


@dataclass(frozen=True)
class CountModel:
    """The three composite distributions P(n|i) for i = 0, 1, 2 bright ions
    (index = number of ions in the down state)."""

    dists: tuple
    model: ReadoutModel
    n_max: int

    def probability_matrix(self):
        """(3, n_max+1) array of P(n|i)."""
        return np.stack([d.probabilities for d in self.dists])


def _composites(model, n_max, bright):
    """The composite distributions P(n|i) for each i in ``bright``."""
    bg = poisson_dist(model.lambda_bg, n_max)
    up = dark_ion_dist(model, n_max)
    down = poisson_dist(model.lambda_bright, n_max)
    ions = ((up, up), (up, down), (down, down))  # index = bright ions
    return tuple(convolve(convolve(bg, ions[i][0]), ions[i][1])
                 for i in bright)


@lru_cache(maxsize=32)
def composite_dists(model, n_max=DEFAULT_N_MAX):
    """Composite count distributions for two equally illuminated ions:

    P(n|0) = P_bg * P_up * P_up,
    P(n|1) = P_bg * P_up * P_down,
    P(n|2) = P_bg * P_down * P_down.
    """
    return CountModel(dists=_composites(model, n_max, (0, 1, 2)),
                      model=model, n_max=n_max)


@dataclass(frozen=True)
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


def _em(h, pmat, starts, tol=1e-10, max_iter=200000):
    """Maximize sum_n h_bn log(sum_i c_bi P_in) over the simplex for each
    histogram row b of ``h``, from ``starts``; returns the (B, k)
    populations and (B,) log-likelihoods.

    Each cycle is one SQUAREM step (Varadhan & Roland, Scand. J. Stat. 35,
    335 (2008), scheme SqS3) on the EM map F: c1 = F(c), c2 = F(c1),
    r = c1 - c, v = c2 - c1 - r and alpha = min(-|r|/|v|, -1).  The point
    c - 2 alpha r + alpha^2 v, with alpha halved towards -1 (the point c2)
    until it lies on the simplex, takes one more EM map; a row falls back
    to c2 wherever that lowers its log-likelihood, so every cycle climbs.
    A row stops once the first EM map of a cycle gains at most ``tol``,
    and leaves the batch with the end point of that cycle; rows still
    running after ``max_iter`` cycles raise ConvergenceError.
    """
    h = np.asarray(h, dtype=float)
    total = h.sum(axis=1, keepdims=True)

    # stacked matmuls take one BLAS vector product per row and every other
    # reduction runs along a row, so a row's arithmetic is that of a
    # one-histogram fit, whatever the batch
    def mixture(c):
        return np.maximum(np.matmul(c[:, None, :], pmat)[:, 0], 1e-300)

    def loglik(h, mix):
        return np.matmul(h[:, None, :], np.log(mix)[:, :, None])[:, 0, 0]

    def em_map(h, total, c, mix):
        c = c * np.matmul(pmat, (h / mix)[:, :, None])[:, :, 0] / total
        return c / c.sum(axis=1, keepdims=True)

    def norm(x):
        return np.sqrt(np.sum(x * x, axis=1, keepdims=True))

    c = starts / starts.sum(axis=1, keepdims=True)
    mix = mixture(c)
    ll = loglik(h, mix)
    out_c, out_ll = np.empty_like(c), np.empty(len(h))
    rows = np.arange(len(h))
    for _ in range(max_iter):
        c1 = em_map(h, total, c, mix)
        mix = mixture(c1)
        done = loglik(h, mix) - ll <= tol
        c2 = em_map(h, total, c1, mix)
        r = c1 - c
        v = c2 - c1 - r
        nr, nv = norm(r), norm(v)
        alpha = -np.divide(nr, nv, out=np.ones_like(nr), where=nv > 0)
        np.minimum(alpha, -1.0, out=alpha)
        cp = c - 2.0 * alpha * r + alpha * alpha * v
        # halve a step that leaves the simplex towards alpha = -1, where
        # the point is c2: a population clipped to 0 could never regrow
        out = (cp < 0).any(axis=1) & (alpha[:, 0] < -1.0)
        while out.any():
            alpha[out] = 0.5 * (alpha[out] - 1.0)
            cp = c - 2.0 * alpha * r + alpha * alpha * v
            out = (cp < 0).any(axis=1) & (alpha[:, 0] < -1.0)
        c = np.maximum(cp, 0.0)
        c /= c.sum(axis=1, keepdims=True)
        c = em_map(h, total, c, mixture(c))
        mix = mixture(c)
        ll = loglik(h, mix)
        ll2 = loglik(h, mixture(c2))
        worse = ll < ll2
        if worse.any():
            c[worse], ll[worse] = c2[worse], ll2[worse]
            mix[worse] = mixture(c2[worse])
        if done.any():
            out_c[rows[done]], out_ll[rows[done]] = c[done], ll[done]
            rows, h, total, c, mix, ll = (
                a[~done] for a in (rows, h, total, c, mix, ll))
            if not len(rows):
                return out_c, out_ll
    raise ConvergenceError(f"EM fit: {len(rows)} of {len(out_ll)} histograms "
                           f"did not converge in {max_iter} SQUAREM cycles")


def _histogram(samples, cm):
    """Bin a sample of photon counts on 0..cm.n_max, rejecting counts that
    are not integers in that range."""
    counts = np.asarray(samples)
    if counts.size == 0:
        raise ValueError("need at least one sample")
    if not np.issubdtype(counts.dtype, np.integer):
        rounded = np.rint(counts)
        if np.max(np.abs(counts - rounded)) > 0:
            raise DataError("photon counts must be integers")
        counts = rounded.astype(int)
    if counts.min() < 0 or counts.max() > cm.n_max:
        raise DataError(
            f"photon counts must lie in [0, {cm.n_max}]; "
            f"got range [{counts.min()}, {counts.max()}]")
    return np.bincount(counts, minlength=cm.n_max + 1).astype(float)


def _fit(hists, cm, n_bootstrap, seeds):
    """One FitResult per row of ``hists``: all rows are fit in one batch,
    then all bootstrap resamples (drawn for row j from ``seeds[j]``) in
    another.  ``n_bootstrap`` is 0 (no errors) or >= 2 (a ddof=1 std)."""
    if n_bootstrap != 0 and n_bootstrap < 2:
        raise ValueError(f"n_bootstrap must be 0 or >= 2, got {n_bootstrap}")
    pmat = cm.probability_matrix()
    c_hat, ll = _em(hists, pmat, np.full((len(hists), 3), 1.0 / 3.0))
    boots = [None] * len(hists)
    if n_bootstrap > 0:
        starts = np.repeat(np.clip(c_hat, 1e-6, None), n_bootstrap, axis=0)
        # resamples built inside the call, so that _em holds their only
        # reference and frees them as its working set shrinks
        boots = _em(np.concatenate([
            np.random.default_rng(seed).multinomial(int(n), h / n,
                                                    size=n_bootstrap)
            for seed, h, n in zip(seeds, hists, np.sum(hists, axis=1))],
            dtype=float), pmat, starts)[0].reshape(len(hists), -1, 3)
    return [FitResult(populations=c, log_likelihood=float(l),
                      std_errors=(np.zeros(3) if b is None
                                  else np.std(b, axis=0, ddof=1)),
                      n_samples=int(np.sum(h)), bootstrap_populations=b)
            for c, l, b, h in zip(c_hat, ll, boots, hists)]


def ml_fit(samples, cm, n_bootstrap=200, seed=0):
    """Fit mixture populations (c0, c1, c2) to a sample of photon counts.

    ``cm`` is the CountModel from :func:`composite_dists`.  Standard errors
    are the bootstrap standard deviations over ``n_bootstrap`` multinomial
    resamples (0 for none, else at least 2).
    """
    return _fit(_histogram(samples, cm)[None], cm, n_bootstrap, [seed])[0]


def parity_from_fit(fit):
    """Two-qubit parity from fitted bright-ion populations: c0 + c2 - c1."""
    c = fit.populations
    return float(c[0] + c[2] - c[1])


def parity_std_from_fit(fit):
    """Bootstrap standard deviation of the parity (None without bootstrap)."""
    b = fit.bootstrap_populations
    if b is None:
        return None
    return float(np.std(b[:, 0] + b[:, 2] - b[:, 1], ddof=1))


def synthesize_shots(populations, cm, n_shots, seed):
    """Draw i.i.d. photon counts from the mixture sum_i c_i P(n|i) of the
    CountModel ``cm``.

    Reproducible for a fixed seed (an int, SeedSequence or Generator).
    """
    c = np.asarray(populations, dtype=float)
    if not np.all(c >= -1e-12):  # NaN fails this too
        raise ValueError("populations must be non-negative")
    if abs(float(np.sum(c)) - 1.0) > 1e-9:
        raise ValueError("populations must sum to 1")
    if n_shots < 0:
        raise ValueError("n_shots must be >= 0")
    if len(c) != len(cm.dists):
        raise ValueError("populations length must match the model components")
    rng = np.random.default_rng(seed)
    c = np.clip(c, 0.0, None)
    c /= np.sum(c)
    component = rng.choice(len(c), size=int(n_shots), p=c)
    counts = np.zeros(int(n_shots), dtype=int)
    support = np.arange(cm.n_max + 1)
    for i, dist in enumerate(cm.dists):
        mask = component == i
        if np.any(mask):
            counts[mask] = rng.choice(support, size=int(np.sum(mask)),
                                      p=dist.probabilities)
    return counts


# --- calibration against reference histograms --------------------------------

_CAL_PARAMS = ("lambda_bright", "lambda_dark", "lambda_bg", "gamma")


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
    if h.ndim != 1 or np.any(h < 0):
        raise DataError(f"{name} histogram must be 1-d and non-negative")
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


def calibrate(ref_bright, ref_dark, t_detect=200e-6, fix=None):
    """Joint maximum-likelihood fit of the readout model to two reference
    histograms: an all-bright preparation (both ions down, P(n|2)) and an
    all-dark preparation (both ions up, P(n|0)).  The longer histogram
    sets n_max; the shorter one is padded with empty bins.

    ``fix`` optionally pins parameters (by name: lambda_bright,
    lambda_dark, lambda_bg, gamma) instead of fitting them.  Note that the
    two references constrain only three combinations of the four rates:
    trading background against the per-ion rates along
    (d lambda_bg, d lambda_dark, d lambda_bright) = (2e, -e, -e) leaves
    every component distribution unchanged, so the free four-parameter fit
    returns one point of that ridge.  The composite distributions (and any
    population fit built on them) are unaffected; fix lambda_bg from an
    independent background measurement when the individual rates matter.
    """
    hb = _check_reference(ref_bright, "bright")
    hd = _check_reference(ref_dark, "dark")
    n_max = max(len(hb), len(hd)) - 1
    hb = np.pad(hb, (0, n_max + 1 - len(hb)))
    hd = np.pad(hd, (0, n_max + 1 - len(hd)))

    fix = dict(fix or {})
    unknown = set(fix) - set(_CAL_PARAMS)
    if unknown:
        raise ValueError(f"unknown parameters in fix: {sorted(unknown)}")
    # gamma enters the likelihood only through gamma * t_detect
    if "gamma" in fix:
        fix["gamma"] = fix["gamma"] * t_detect

    mean_b = float(np.arange(len(hb)) @ hb / np.sum(hb))
    mean_d = float(np.arange(len(hd)) @ hd / np.sum(hd))
    start = {
        "lambda_bright": max((mean_b - 0.5 * mean_d) / 2.0, 0.1),
        "lambda_dark": max(0.25 * mean_d, 1e-3),
        "lambda_bg": max(0.5 * mean_d, 1e-3),
        "gamma": 0.1,  # gamma * t_detect
    }
    free = [p for p in _CAL_PARAMS if p not in fix]
    if not free:
        raise ValueError("at least one parameter must be free")

    def build(theta):
        vals = dict(fix)
        vals.update(dict(zip(free, theta)))
        return ReadoutModel(
            lambda_bright=max(vals["lambda_bright"], 0.0),
            lambda_dark=max(vals["lambda_dark"], 0.0),
            lambda_bg=max(vals["lambda_bg"], 0.0),
            gamma=max(vals["gamma"], 0.0) / t_detect,
            t_detect=t_detect,
        )

    def nll(theta):
        # every evaluation is a new model, so build only the two references
        d0, d2 = _composites(build(theta), n_max, (0, 2))
        p2 = np.clip(d2.probabilities, 1e-300, None)
        p0 = np.clip(d0.probabilities, 1e-300, None)
        return -(hb @ np.log(p2) + hd @ np.log(p0))

    x0 = np.array([start[p] for p in free])
    bounds = [(1e-9, None) if p != "gamma" else (0.0, 20.0) for p in free]
    res = optimize.minimize(nll, x0, method="L-BFGS-B", bounds=bounds)
    if not res.success:
        raise ConvergenceError(f"calibration fit did not converge: "
                               f"{res.message} (nit={res.nit}, "
                               f"nfev={res.nfev})")
    model = build(res.x)
    cm = composite_dists(model, n_max)
    chi2_b, dof_b = _pearson_chi2(hb, cm.dists[2].probabilities)
    chi2_d, dof_d = _pearson_chi2(hd, cm.dists[0].probabilities)
    return CalibrationResult(
        model=model,
        log_likelihood=float(-res.fun),
        chi2_bright=chi2_b,
        chi2_dark=chi2_d,
        dof_bright=dof_b,
        dof_dark=dof_d,
    )


# --- parity scans -------------------------------------------------------------


@dataclass(frozen=True)
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
    coherence_term: float


def parity_scan_analysis(scans, cm, n_bootstrap=100, seed=0):
    """Per-phase ML parity estimates and a least-squares sinusoid fit.

    ``scans`` is an iterable of (phi, samples), each fit against the
    CountModel ``cm`` with ``n_bootstrap`` resamples (0, or at least 2).
    The fit enforces the pi period of a two-qubit parity oscillation; the
    coherence term reported is the two-phase average
    (parity(0) + parity(pi/2)) / 2 evaluated from the fit, which equals the
    fitted offset.
    """
    scans = list(scans)
    phases = np.array([float(phi) for phi, _ in scans])
    if len(np.unique(np.round(phases, 12))) < 4:
        raise IdentifiabilityError("need at least 4 distinct analysis phases")

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
        coherence_term=float(offset),
    )


def estimate_period(phases, parities):
    """Free-frequency cosine fit A cos(k phi - phi0) + B; returns the
    period 2 pi / k.  Used to verify the pi periodicity of a parity
    oscillation without assuming it."""
    phases = np.asarray(phases, dtype=float)
    parities = np.asarray(parities, dtype=float)

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
