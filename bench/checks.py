"""Correctness checks on dickesim's outputs, against bench/oracle.py.

Checks return messages, one per violation; none means the output passed.
No check compares against stored output.
"""

from __future__ import annotations

import csv
import io
import json
from math import pi

import numpy as np

import oracle
from workloads import K_PROJECTION, OMEGA_Z_HZ

OMEGA_Z = 2.0 * pi * OMEGA_Z_HZ
SWEEP_SCHEMA = "# sweep.v1"

FID_TOL = 1e-8  # reported F against the oracle's F(duration)
CLOSED_FORM_TOL = 1e-9  # against the ladder value and the m = 1 formula
PROB_TOL = 1e-9  # phonon probabilities: sign and normalisation


def parse_sweep(text, m):
    """Rows of a sweep.v1 CSV table as dicts of floats (``error`` is a str)."""
    lines = text.splitlines()
    if not lines or lines[0] != SWEEP_SCHEMA:
        raise ValueError(f"missing {SWEEP_SCHEMA!r} schema line")
    rows = list(csv.DictReader(io.StringIO("\n".join(lines[1:]))))
    expected = ["mu", "duration", "duration_s", "fidelity"]
    expected += [f"p{k}" for k in range(m + 1)] + ["error"]
    if rows and list(rows[0]) != expected:
        raise ValueError(f"unexpected columns {list(rows[0])}")
    parsed = []
    for row in rows:
        if row["error"]:
            parsed.append({"mu": float(row["mu"]), "error": row["error"]})
            continue
        parsed.append({
            "mu": float(row["mu"]),
            "duration": float(row["duration"]),
            "fidelity": float(row["fidelity"]),
            "phonons": np.array([float(row[f"p{k}"]) for k in range(m + 1)]),
            "error": "",
        })
    return parsed


def _row_couplings(call, mu):
    masses = list(call.masses)
    masses[call.ancilla_index] = mu * masses[0]
    addressed = [i for i in range(len(masses)) if i != call.ancilla_index]
    return oracle.inphase_couplings(masses, addressed, OMEGA_Z, K_PROJECTION)


def check_sweep_row(call, row):
    """Every check of one successful sweep row."""
    mu, t_star, f_rep, probs = row["mu"], row["duration"], row["fidelity"], row["phonons"]
    where = f"N={call.n_qubits} m={call.m} mu={mu!r}"
    bad = []
    if np.any(probs < -PROB_TOL) or abs(float(np.sum(probs)) - 1.0) > PROB_TOL:
        bad.append(f"{where}: phonon probabilities {probs.tolist()} are not a distribution")
    if not 0.0 <= f_rep <= 1.0:
        bad.append(f"{where}: fidelity {f_rep!r} outside [0, 1]")

    om = _row_couplings(call, mu)
    pulse = oracle.SectorPulse(om, call.m)
    f_star = float(pulse.fidelity(t_star))
    if abs(f_star - f_rep) > FID_TOL:
        bad.append(f"{where}: F(duration) = {f_star!r} from the excitation "
                   f"sector, reported {f_rep!r}")
    p_star = pulse.phonon_distribution(t_star)
    if np.max(np.abs(p_star - probs)) > FID_TOL:
        bad.append(f"{where}: phonon distribution {probs.tolist()} differs "
                   f"from the sector's {p_star.tolist()}")

    # F rises from F(0) = 0, so "no earlier local maximum" means F never
    # decreases on [0, duration]; checked on a grid 8x finer than the
    # program's scan.
    step = pi / (400.0 * pulse.omega_prime)
    grid = np.append(np.arange(0.0, t_star, step), t_star)
    f_grid = pulse.fidelity(grid)
    drops = np.flatnonzero(np.diff(f_grid) < -1e-12)
    if drops.size:
        bad.append(f"{where}: F has a local maximum near t = "
                   f"{grid[drops[0]]!r}, before the reported {t_star!r}")
    eps = 1e-3 * pi / pulse.omega_prime
    f_side = pulse.fidelity(np.array([t_star - eps, t_star + eps]))
    if np.max(f_side) > f_star + 1e-12:
        bad.append(f"{where}: F(duration +- {eps:.2e}) = {f_side.tolist()} "
                   f"exceeds F(duration) = {f_star!r}")

    if abs(mu - 1.0) < 1e-12:
        ladder = oracle.symmetric_ladder_fidelity(call.n_qubits, call.m)
        if abs(ladder - f_rep) > CLOSED_FORM_TOL:
            bad.append(f"{where}: equal couplings give the ladder value "
                       f"{ladder!r}, reported {f_rep!r}")
    if call.m == 1:
        closed = oracle.w_fidelity(om)
        if abs(closed - f_rep) > CLOSED_FORM_TOL:
            bad.append(f"{where}: (sum Omega)^2/(N sum Omega^2) = {closed!r}, "
                       f"reported {f_rep!r}")
    return bad


def check_sweep(call, text):
    """Returns (failed row count, violations) for one sweep table; a row
    whose ``error`` cell is filled is a failed operation, not a violation."""
    try:
        rows = parse_sweep(text, call.m)
    except (ValueError, KeyError) as exc:
        return call.operations, [f"{call.out_name}: unreadable table: {exc}"]
    bad = []
    mus = [row["mu"] for row in rows]
    if len(mus) != len(call.mu_grid) or not np.allclose(mus, call.mu_grid,
                                                        rtol=1e-12, atol=0):
        bad.append(f"{call.out_name}: mass ratios {mus} differ from the "
                   f"requested grid {list(call.mu_grid)}")
    failed = sum(1 for row in rows if row["error"])
    for row in rows:
        if not row["error"]:
            bad += check_sweep_row(call, row)
    return failed, bad


def check_experiment(report):
    """Every check of one experiment.v1 report (a parsed dict)."""
    bad = []
    sim = report["simulation"]
    chain = report["chain"]
    addressed = [i for i in range(len(chain["masses"]))
                 if i != chain["ancilla_index"]]
    om = oracle.inphase_couplings(chain["masses"], addressed,
                                  2.0 * pi * chain["omega_z_hz"],
                                  chain["k_projection"])
    if np.max(np.abs(np.asarray(sim["couplings"]) / om - 1.0)) > CLOSED_FORM_TOL:
        bad.append(f"simulation.couplings {sim['couplings']} differ from the "
                   f"reference chain's {om.tolist()}")
    closed = oracle.w_fidelity(sim["couplings"])
    if abs(closed - sim["fidelity"]) > CLOSED_FORM_TOL:
        bad.append(f"simulation.fidelity {sim['fidelity']!r} differs from "
                   f"the closed form {closed!r} of its couplings")

    fit = report["population_fit"]
    for i, (c, err, true) in enumerate(zip(fit["c"], fit["std_errors"],
                                           sim["populations"])):
        window = max(5.0 * err, 2e-3)
        if abs(c - true) > window:
            bad.append(f"population c{i} = {c!r} is {abs(c - true):.3e} "
                       f"from the simulated {true!r} (window {window:.3e})")

    fid = report["fidelity"]
    window = 5.0 * fid["error"] + 2e-3
    if abs(fid["value"] - fid["simulated"]) > window:
        bad.append(f"fidelity {fid['value']!r} is more than {window:.3e} "
                   f"from the simulated {fid['simulated']!r}")

    cal = report["calibration"]
    for side in ("bright", "dark"):
        ratio = cal[f"chi2_{side}"] / cal[f"dof_{side}"]
        if not ratio < 3.0:
            bad.append(f"calibration chi2/dof ({side}) = {ratio:.3f} is not below 3")

    period = report["parity_scan_double"]["period_estimate"]
    if abs(period - pi) > 0.05 * pi:
        bad.append(f"double-rotation period {period!r} is not within 5% of pi")
    return bad


def check_output(call, data):
    """Returns (failed operations, violations) for one call's output bytes."""
    text = data.decode("utf-8")
    if call.kind == "sweep":
        return check_sweep(call, text)
    try:
        report = json.loads(text)
    except ValueError as exc:
        return 1, [f"{call.out_name}: unreadable report: {exc}"]
    return 0, check_experiment(report)

