"""The synthetic end-to-end D(2,1) experiment: pulse simulation,
calibration, population fit and parity scans, as the ``experiment.v1``
report."""

from __future__ import annotations

import dataclasses

import numpy as np

from .detection import (_CAL_PARAMS, DEFAULT_N_BOOTSTRAP, DEFAULT_T_DETECT,
                        ReadoutModel, calibrate, composite_dists,
                        estimate_period, ml_fit, parity_from_fit,
                        parity_scan_analysis, synthesize_shots)
from .dicke import rotated_density, weights
from .errors import DataError
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


def run_experiment(chain_file, shots, seed, model=DEFAULT_MODEL,
                   n_bootstrap=DEFAULT_N_BOOTSTRAP):
    """End-to-end synthetic run on one chain config; returns the report dict.

    Simulates the preparation pulse, generates reference/experiment/parity
    shot records from the true readout model, calibrates against the
    references, fits populations and parity scans, and assembles the
    final fidelity with its statistical error.  Each parity scan takes
    ``n_bootstrap // 2`` resamples, so ``n_bootstrap`` must be >= 4.
    """
    if n_bootstrap < 4:
        raise ValueError(f"n_bootstrap must be >= 4, got {n_bootstrap}")
    if chain_file.ancilla_index is None:
        raise DataError("experiment needs an ancilla_index entry in the config")
    config = chain_file.config
    addressed = tuple(i for i in range(config.n_ions)
                      if i != chain_file.ancilla_index)
    if len(addressed) != 2:
        raise DataError("the readout pipeline models exactly 2 qubit ions")

    pulse = first_max_fidelity(config, addressed, m=1)
    rho = pulse.reduced_density
    populations = _bright_populations(rho)

    phases = [k * np.pi / N_PHASES for k in range(N_PHASES)]
    # seeds in order of use: both references, the experiment shots, the
    # population fit, every phase of the single then the double scan, and
    # the two scan analyses
    seed_iter = iter(np.random.SeedSequence(seed).spawn(6 + 2 * N_PHASES))

    cm_true = composite_dists(model)
    n_max = cm_true.shape[1] - 1
    ref_bright = synthesize_shots((0.0, 0.0, 1.0), cm_true, shots, next(seed_iter))
    ref_dark = synthesize_shots((1.0, 0.0, 0.0), cm_true, shots, next(seed_iter))
    hist_bright = np.bincount(ref_bright, minlength=n_max + 1)
    hist_dark = np.bincount(ref_dark, minlength=n_max + 1)
    cal = calibrate(hist_bright, hist_dark, t_detect=model.t_detect)
    # calibrate's own (model, n_max) cache key, as the references have
    # n_max + 1 bins, so its last build is reused
    cm_fit = composite_dists(cal.model, n_max)

    exp_shots = synthesize_shots(populations, cm_true, shots, next(seed_iter))
    fit = ml_fit(exp_shots, cm_fit, n_bootstrap=n_bootstrap, seed=next(seed_iter))

    # the single scan rotates the prepared state once, the double scan
    # rotates it after a first pi/2 pulse at phase 0
    shots_per_phase = max(shots // 5, 200)
    scans = [[(phi, synthesize_shots(
                 _bright_populations(rotated_density(start, np.pi / 2, phi)),
                 cm_true, shots_per_phase, next(seed_iter)))
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
    fidelity = 0.5 * (c1_hat + coherence)
    fidelity_err = 0.5 * float(np.hypot(c1_err, coherence_err))

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
            "populations": populations,
        },
        "readout_model_true": dataclasses.asdict(model),
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
            "value": fidelity,
            "error": fidelity_err,
            "simulated": pulse.fidelity,
        },
        "shots": {"per_reference": shots, "experiment": shots,
                  "per_phase": shots_per_phase},
        "seed": seed,
    }
