"""The readout reports: the synthetic end-to-end D(2,1) experiment as
``experiment.v1`` (the pulse, then the certification of the state it
makes by calibration, population fit and parity scans), and the
calibration and population fit of recorded counts as ``fit.v1``."""

from __future__ import annotations

import dataclasses

import numpy as np

from .detection import (_CAL_PARAMS, DEFAULT_N_BOOTSTRAP, DEFAULT_T_DETECT,
                        ReadoutModel, _shot_draws, calibrate, composite_dists,
                        estimate_period, ml_fit, parity_from_fit,
                        parity_scan_analysis, parity_std_from_fit)
from .dicke import rotated_density, weights
from .errors import DataError, _check_integer
from .sideband import first_max_fidelity

N_PHASES = 12  # analysis phases k pi / N_PHASES per experiment parity scan

DEFAULT_MODEL = ReadoutModel(lambda_bright=30.0, lambda_dark=0.3,
                             lambda_bg=2.0, gamma=500.0,
                             t_detect=DEFAULT_T_DETECT)


def _calibration_section(cal):
    """The calibration entries of both reports: rates and chi^2."""
    return {**{name: getattr(cal.model, name) for name in _CAL_PARAMS},
            "chi2_bright": cal.chi2_bright,
            "chi2_dark": cal.chi2_dark}


def _population_fit_entries(fit):
    """The population-fit entries of both reports."""
    return {
        "std_errors": fit.std_errors,
        "log_likelihood": fit.log_likelihood,
        "n_samples": fit.n_samples,
        "parity": parity_from_fit(fit),
    }


def _scan_entries(res):
    """The entries of both parity scans of the experiment report."""
    return {
        "phases": res.phases,
        "parity": res.parities,
        "parity_errors": res.parity_errors,
        "amplitude": res.amplitude,
        "amplitude_error": res.amplitude_error,
        "offset": res.offset,
    }


def _bright_populations(rho):
    """Populations c_k of k = 0..N bright (down) ions from the diagonal of
    an N-qubit density matrix."""
    n = rho.n_qubits
    diag = np.maximum(np.real(np.diag(rho.matrix)), 0.0)
    c = np.bincount(n - weights(n), weights=diag)
    return c / np.sum(c)


def fit_report(hist, ref_bright, ref_dark, t_detect, n_bootstrap, seed):
    """The ``fit.v1`` report: calibrate on the two reference histograms,
    then fit the populations of ``hist``, whose last bin is n_max."""
    cal = calibrate(ref_bright, ref_dark, t_detect=t_detect)
    fit = ml_fit(hist, composite_dists(cal.model, len(hist) - 1),
                 n_bootstrap=n_bootstrap, seed=seed)
    return {
        "schema": "fit.v1",
        "populations": fit.populations,
        **_population_fit_entries(fit),
        "parity_std": parity_std_from_fit(fit),
        "calibration": {**_calibration_section(cal),
                        "t_detect": cal.model.t_detect},
    }


def _check_resample_count(n_bootstrap):
    """Raise ValueError unless ``n_bootstrap`` is an integer of at least 4,
    as each parity scan takes ``n_bootstrap // 2`` resamples."""
    _check_integer(n_bootstrap, "n_bootstrap")
    if n_bootstrap < 4:
        raise ValueError(f"n_bootstrap must be >= 4, got {n_bootstrap}")


def certify_state(rho, shots, seed, model=DEFAULT_MODEL,
                  n_bootstrap=DEFAULT_N_BOOTSTRAP):
    """Certify the two-qubit state ``rho`` from photon counts alone; returns
    the readout entries of ``experiment.v1``.

    Draws reference, experiment and parity-scan count histograms from the
    true readout ``model``, calibrates against the references, fits the
    populations and both parity scans, and reports the fidelity ``(c1 +
    coherence) / 2`` with its statistical error.  Seeds are spawned from
    ``SeedSequence(seed)`` in order of use: both references, the
    experiment shots, the population fit, every phase of the single then
    the double scan, and the two scan analyses.  Another qubit count or a
    bad ``n_bootstrap`` raises ValueError before any draw.
    """
    _check_resample_count(n_bootstrap)
    if rho.n_qubits != 2:
        raise ValueError(f"the readout models exactly 2 qubits, got "
                         f"{rho.n_qubits}")
    phases = [k * np.pi / N_PHASES for k in range(N_PHASES)]
    seed_iter = iter(np.random.SeedSequence(seed).spawn(6 + 2 * N_PHASES))

    cm_true = composite_dists(model)
    n_max = cm_true.shape[1] - 1

    def record(c, n_shots):
        """The count histogram of a shot record drawn from the next seed,
        binned component by component as drawn."""
        *_, draws = _shot_draws(c, cm_true, n_shots, next(seed_iter))
        return sum(np.bincount(d, minlength=n_max + 1) for d in draws)

    cal = calibrate(record((0.0, 0.0, 1.0), shots),
                    record((1.0, 0.0, 0.0), shots), t_detect=model.t_detect)
    # calibrate's own (model, n_max) cache key, as the references have
    # n_max + 1 bins, so its last build is reused
    cm_fit = composite_dists(cal.model, n_max)

    fit = ml_fit(record(_bright_populations(rho), shots), cm_fit,
                 n_bootstrap=n_bootstrap, seed=next(seed_iter))

    # the single scan rotates the prepared state once, the double scan
    # rotates it after a first pi/2 pulse at phase 0
    shots_per_phase = max(shots // 5, 200)
    scans = [[(phi, record(
                 _bright_populations(rotated_density(start, np.pi / 2, phi)),
                 shots_per_phase))
              for phi in phases]
             for start in (rho, rotated_density(rho, np.pi / 2, 0.0))]
    res_single, res_double = [
        parity_scan_analysis(scan, cm_fit, n_bootstrap=n_bootstrap // 2,
                             seed=next(seed_iter))
        for scan in scans]
    period = estimate_period(res_double.phases, res_double.parities)

    c1_hat = float(fit.populations[1])
    c1_err = float(fit.std_errors[1])
    coherence = res_single.offset
    coherence_err = res_single.offset_error
    return {
        "calibration": {
            **_calibration_section(cal),
            "log_likelihood": cal.log_likelihood,
            "dof_bright": cal.dof_bright,
            "dof_dark": cal.dof_dark,
        },
        "population_fit": {
            "c": fit.populations,
            **_population_fit_entries(fit),
        },
        "parity_scan": {
            **_scan_entries(res_single),
            "offset_error": res_single.offset_error,
        },
        "parity_scan_double": {
            **_scan_entries(res_double),
            "phase_offset": res_double.phase_offset,
            "period_estimate": period,
        },
        "fidelity": {
            "coherence_term": coherence,
            "coherence_error": coherence_err,
            "odd_population": c1_hat,
            "odd_population_error": c1_err,
            "value": 0.5 * (c1_hat + coherence),
            "error": 0.5 * float(np.hypot(c1_err, coherence_err)),
        },
        "shots": {"per_reference": shots, "experiment": shots,
                  "per_phase": shots_per_phase},
    }


def run_experiment(chain_file, shots, seed, model=DEFAULT_MODEL,
                   n_bootstrap=DEFAULT_N_BOOTSTRAP):
    """End-to-end synthetic run on one chain config; returns the
    ``experiment.v1`` report dict: the preparation pulse on the chain's
    two qubit ions, then :func:`certify_state` of the state it makes.
    ``n_bootstrap`` (an integer of at least 4), the ancilla and the qubit
    count are checked before the pulse.
    """
    _check_resample_count(n_bootstrap)
    if chain_file.ancilla_index is None:
        raise DataError("experiment needs an ancilla_index entry in the config")
    config = chain_file.config
    addressed = tuple(i for i in range(config.n_ions)
                      if i != chain_file.ancilla_index)
    if len(addressed) != 2:
        raise DataError("the readout pipeline models exactly 2 qubit ions")

    pulse = first_max_fidelity(config, addressed, m=1)
    rho = pulse.reduced_density
    readout = certify_state(rho, shots, seed, model, n_bootstrap)
    readout["fidelity"]["simulated"] = pulse.fidelity
    return {
        "schema": "experiment.v1",
        "chain": {
            "masses": list(config.masses),
            "ancilla_index": chain_file.ancilla_index,
            "omega_z_hz": chain_file.omega_z_hz,
            "k_projection": config.k_projection,
        },
        "simulation": {
            "couplings": pulse.couplings,
            "pulse_duration": pulse.duration,
            "fidelity": pulse.fidelity,
            "populations": _bright_populations(rho),
        },
        "readout_model_true": dataclasses.asdict(model),
        **readout,
        "seed": seed,
    }
