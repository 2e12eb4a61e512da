"""Command-line interface.

Subcommands wire plain-text chain configs to the numeric modules and emit
plot-ready CSV tables or JSON reports.  Physical inputs are SI (masses in
u, frequencies in Hz in config files); simulator times are dimensionless
in units of 1/Omega_0 unless a carrier rate is supplied for conversion.

Exit codes: 0 success, 1 usage error, 2 data error, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from contextlib import contextmanager

import numpy as np

from . import __version__
from .chain import (MODES_CSV_SCHEMA, ChainTemplate, modes_to_csv,
                    read_chain_file, solve_axial_modes, text_lines)
from .detection import (DEFAULT_N_BOOTSTRAP, DEFAULT_N_MAX, DEFAULT_T_DETECT,
                        ReadoutModel, calibrate, composite_dists, ml_fit,
                        parity_from_fit, parity_std_from_fit,
                        synthesize_shots)
from .errors import (ConvergenceError, DataError, IdentifiabilityError,
                     SearchError, UnstableCrystalError)
from .experiment import DEFAULT_MODEL, run_experiment
from .sideband import fidelity_vs_mass_ratio

SWEEP_CSV_SCHEMA = "sweep.v1"
SEED_ENV_VAR = "DICKESIM_SEED"


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


@contextmanager
def _open_out(path):
    if path in (None, "-"):
        yield sys.stdout
    else:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            yield fh


def _resolve_seed(args_seed):
    if args_seed is not None:
        if args_seed < 0:
            raise _UsageError(f"--seed must be >= 0, got {args_seed}")
        return args_seed
    env = os.environ.get(SEED_ENV_VAR)
    if env is None:
        return 0
    try:
        seed = int(env)
    except ValueError as exc:
        raise _UsageError(f"{SEED_ENV_VAR} must be an integer, got {env!r}") from exc
    if seed < 0:
        raise _UsageError(f"{SEED_ENV_VAR} must be >= 0, got {seed}")
    return seed


def _json_default(value):
    """``json.dumps`` hook for the numpy values in reports; ``np.float64``
    is a ``float`` and needs none."""
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, np.integer):
        return int(value)
    raise TypeError(f"{type(value).__name__} is not JSON serializable")


def _write_json(data, stream):
    stream.write(json.dumps(data, indent=2, sort_keys=True,
                            default=_json_default))
    stream.write("\n")


def _model_from_args(args):
    try:
        model = ReadoutModel(**{f.name: getattr(args, f.name)
                                for f in dataclasses.fields(ReadoutModel)})
    except ValueError as exc:
        raise _UsageError(f"readout model flags: {exc}") from exc
    # ReadoutModel itself allows this: calibrate's trial models may cross
    if model.lambda_bright <= model.lambda_dark:
        raise _UsageError("readout model flags: --lambda-bright must exceed "
                          "--lambda-dark (a bright ion must give more counts "
                          "than a dark one)")
    return model


def _add_model_flags(parser):
    parser.add_argument("--lambda-bright", type=float,
                        default=DEFAULT_MODEL.lambda_bright,
                        help="mean counts per window from one bright ion")
    parser.add_argument("--lambda-dark", type=float,
                        default=DEFAULT_MODEL.lambda_dark,
                        help="mean counts per window from one dark ion")
    parser.add_argument("--lambda-bg", type=float,
                        default=DEFAULT_MODEL.lambda_bg,
                        help="mean background counts per window")
    parser.add_argument("--gamma", type=float, default=DEFAULT_MODEL.gamma,
                        help="dark-to-bright repump rate (1/s)")
    parser.add_argument("--t-detect", type=float,
                        default=DEFAULT_MODEL.t_detect,
                        help="detection window (s)")


# --- modes --------------------------------------------------------------------


def cmd_modes(args):
    chain_file = read_chain_file(args.config)
    modes = solve_axial_modes(chain_file.config)
    with _open_out(args.out) as out:
        if args.format == "csv":
            modes_to_csv(modes, out)
        else:
            _write_json({
                "schema": MODES_CSV_SCHEMA,
                "frequencies": modes.frequencies,
                "inphase_index": 0,
                "eigenvectors": modes.eigenvectors,
                "ground_state_amplitudes": modes.ground_state_amplitudes,
                "lamb_dicke": modes.lamb_dicke,
                "equilibrium_positions_scaled": modes.equilibrium.positions,
            }, out)
    return 0


# --- sweep --------------------------------------------------------------------


def _template_from_file(chain_file, path):
    if chain_file.ancilla_index is None:
        raise DataError(f"{path}: sweep needs an ancilla_index entry")
    try:
        return ChainTemplate(chain_file.config, chain_file.ancilla_index)
    except ValueError as exc:
        raise DataError(f"{path}: {exc}") from exc


def _mu_grid(args):
    if args.mu_points < 1:
        raise _UsageError("--mu-points must be >= 1")
    if not (0 < args.mu_start < np.inf and 0 < args.mu_stop < np.inf):
        raise _UsageError("mass ratios must be finite and positive")
    if args.mu_log:
        return np.geomspace(args.mu_start, args.mu_stop, args.mu_points)
    return np.linspace(args.mu_start, args.mu_stop, args.mu_points)


def _write_sweep_csv(grid, outcomes, m, out, carrier_rate=None):
    out.write(f"# {SWEEP_CSV_SCHEMA}\n")
    cols = ["mu", "duration", "duration_s", "fidelity"]
    cols += [f"p{k}" for k in range(m + 1)]
    cols += ["error"]
    out.write(",".join(cols) + "\n")
    for mu, pulse in zip(grid, outcomes):
        mu = repr(float(mu))  # the CLI grid holds np.float64
        if isinstance(pulse, Exception):
            cells = [mu] + [""] * (3 + m + 1) + [str(pulse).replace(",", ";")]
        else:
            dur_s = repr(pulse.duration / carrier_rate) if carrier_rate else ""
            cells = [mu, repr(pulse.duration), dur_s, repr(pulse.fidelity)]
            cells += [repr(float(p)) for p in pulse.phonon_distribution]
            cells += [""]
        out.write(",".join(cells) + "\n")


def _sweep_json_row(mu, pulse, carrier_rate):
    if isinstance(pulse, Exception):
        return {"mu": float(mu), "duration": None, "duration_s": None,
                "fidelity": None, "phonon_distribution": None,
                "reduced_density": None, "error": str(pulse)}
    return {
        "mu": float(mu),
        "duration": pulse.duration,
        "duration_s": (pulse.duration / carrier_rate if carrier_rate
                       else None),
        "fidelity": pulse.fidelity,
        "phonon_distribution": pulse.phonon_distribution,
        "reduced_density": pulse.reduced_density.to_json_dict(),
        "error": None,
    }


def cmd_sweep(args):
    chain_file = read_chain_file(args.config)
    template = _template_from_file(chain_file, args.config)
    if not 1 <= args.m <= template.n_qubits:
        raise _UsageError(f"--m must lie in 1..{template.n_qubits}, the "
                          "qubit ion count")
    if args.carrier_rate is not None and not 0 < args.carrier_rate < np.inf:
        raise _UsageError("--carrier-rate must be finite and positive")
    grid = _mu_grid(args)
    outcomes = fidelity_vs_mass_ratio(template, grid, args.m)
    with _open_out(args.out) as out:
        if args.format == "csv":
            _write_sweep_csv(grid, outcomes, args.m, out,
                             carrier_rate=args.carrier_rate)
        else:
            payload = {
                "schema": SWEEP_CSV_SCHEMA,
                "m": args.m,
                "rows": [_sweep_json_row(mu, pulse, args.carrier_rate)
                         for mu, pulse in zip(grid, outcomes)],
            }
            _write_json(payload, out)
    return 0


# --- experiment ---------------------------------------------------------------


def cmd_experiment(args):
    if args.shots < 100:
        raise _UsageError("need at least 100 shots per record")
    chain_file = read_chain_file(args.config)
    report = run_experiment(chain_file, args.shots, _resolve_seed(args.seed),
                            model=_model_from_args(args))
    with _open_out(args.out) as out:
        _write_json(report, out)
    return 0


# --- fit ----------------------------------------------------------------------


def _read_shot_file(path, n_max):
    counts = []
    for lineno, line in text_lines(path):
        try:
            value = int(line)
        except ValueError as exc:
            raise DataError(f"{path}:{lineno}: not an integer count: "
                            f"{line!r}") from exc
        if value < 0 or value > n_max:
            raise DataError(f"{path}:{lineno}: count {value} outside "
                            f"[0, {n_max}]")
        counts.append(value)
    if not counts:
        raise DataError(f"{path}: no shot records found")
    return np.array(counts, dtype=int)


def _read_histogram(path, n_max):
    hist = np.zeros(n_max + 1)
    for lineno, line in text_lines(path):
        if line.lower().startswith("n,"):
            continue
        parts = line.split(",")
        if len(parts) != 2:
            raise DataError(f"{path}:{lineno}: expected 'n,count'")
        try:
            n, count = int(parts[0]), float(parts[1])
        except ValueError as exc:
            raise DataError(f"{path}:{lineno}: bad histogram row "
                            f"{line!r}") from exc
        if n < 0 or n > n_max:
            raise DataError(f"{path}:{lineno}: bin {n} outside [0, {n_max}]")
        if not 0 <= count < np.inf:
            raise DataError(f"{path}:{lineno}: count must be finite and >= 0")
        hist[n] += count
    return hist


def cmd_fit(args):
    if args.bootstrap != 0 and args.bootstrap < 2:
        raise _UsageError("--bootstrap must be 0 or >= 2")
    if not 0 < args.t_detect < np.inf:
        raise _UsageError("--t-detect must be finite and positive")
    if args.n_max < 1:
        raise _UsageError("--n-max must be >= 1")
    shots = _read_shot_file(args.shots, args.n_max)
    hist_bright = _read_histogram(args.ref_bright, args.n_max)
    hist_dark = _read_histogram(args.ref_dark, args.n_max)
    cal = calibrate(hist_bright, hist_dark, t_detect=args.t_detect)
    cm = composite_dists(cal.model, args.n_max)
    fit = ml_fit(shots, cm, n_bootstrap=args.bootstrap,
                 seed=_resolve_seed(args.seed))
    report = {
        "schema": "fit.v1",
        "populations": fit.populations,
        "std_errors": fit.std_errors,
        "log_likelihood": fit.log_likelihood,
        "n_samples": fit.n_samples,
        "parity": parity_from_fit(fit),
        "parity_std": parity_std_from_fit(fit),
        "calibration": {
            "lambda_bright": cal.model.lambda_bright,
            "lambda_dark": cal.model.lambda_dark,
            "lambda_bg": cal.model.lambda_bg,
            "gamma": cal.model.gamma,
            "t_detect": cal.model.t_detect,
            "chi2_bright": cal.chi2_bright,
            "chi2_dark": cal.chi2_dark,
        },
    }
    with _open_out(args.out) as out:
        _write_json(report, out)
    return 0


# --- synth --------------------------------------------------------------------


def cmd_synth(args):
    c = np.array([args.c0, args.c1, args.c2])
    if not (np.all(c >= 0) and abs(float(np.sum(c)) - 1.0) <= 1e-9):
        raise _UsageError("--c0/--c1/--c2 must be non-negative and sum to 1")
    if args.shots < 0:
        raise _UsageError("--shots must be >= 0")
    cm = composite_dists(_model_from_args(args))
    counts = synthesize_shots(c, cm, args.shots, _resolve_seed(args.seed))
    with _open_out(args.out) as out:
        for value in counts:
            out.write(f"{value}\n")
    return 0


# --- parser -------------------------------------------------------------------


def build_parser():
    parser = _Parser(prog="dickesim",
                     description="Mixed-species ion chain Dicke-state "
                                 "preparation simulator and readout analysis")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_modes = sub.add_parser("modes", help="axial mode table for one chain")
    p_modes.add_argument("--config", required=True, help="chain config file")
    p_modes.add_argument("--out", default="-")
    p_modes.add_argument("--format", choices=("csv", "json"), default="csv")
    p_modes.set_defaults(func=cmd_modes)

    p_sweep = sub.add_parser("sweep", help="fidelity versus ancilla mass ratio")
    p_sweep.add_argument("--config", required=True,
                         help="chain config file (needs ancilla_index)")
    p_sweep.add_argument("--m", type=int, default=1,
                         help="number of excitations in the target state")
    p_sweep.add_argument("--mu-start", type=float, default=0.1)
    p_sweep.add_argument("--mu-stop", type=float, default=10.0)
    p_sweep.add_argument("--mu-points", type=int, default=20)
    p_sweep.add_argument("--mu-log", action="store_true",
                         help="log-spaced mass-ratio grid")
    p_sweep.add_argument("--carrier-rate", type=float, default=None,
                         help="carrier Rabi rate Omega_0 (rad/s) for "
                              "converting durations to seconds")
    p_sweep.add_argument("--out", default="-")
    p_sweep.add_argument("--format", choices=("csv", "json"), default="csv")
    p_sweep.set_defaults(func=cmd_sweep)

    p_exp = sub.add_parser("experiment",
                           help="synthetic end-to-end preparation and readout")
    p_exp.add_argument("--config", required=True,
                       help="chain config file (needs ancilla_index)")
    p_exp.add_argument("--shots", type=int, default=50000)
    p_exp.add_argument("--seed", type=int, default=None)
    p_exp.add_argument("--out", default="-")
    _add_model_flags(p_exp)
    p_exp.set_defaults(func=cmd_experiment)

    p_fit = sub.add_parser("fit", help="fit populations to external shot data")
    p_fit.add_argument("--shots", required=True, help="one integer count per line")
    p_fit.add_argument("--ref-bright", required=True,
                       help="bright reference histogram CSV (n,count)")
    p_fit.add_argument("--ref-dark", required=True,
                       help="dark reference histogram CSV (n,count)")
    p_fit.add_argument("--n-max", type=int, default=DEFAULT_N_MAX)
    p_fit.add_argument("--t-detect", type=float, default=DEFAULT_T_DETECT)
    p_fit.add_argument("--bootstrap", type=int, default=DEFAULT_N_BOOTSTRAP)
    p_fit.add_argument("--seed", type=int, default=None)
    p_fit.add_argument("--out", default="-")
    p_fit.set_defaults(func=cmd_fit)

    p_synth = sub.add_parser("synth", help="generate synthetic shot records")
    p_synth.add_argument("--c0", type=float, required=True)
    p_synth.add_argument("--c1", type=float, required=True)
    p_synth.add_argument("--c2", type=float, required=True)
    p_synth.add_argument("--shots", type=int, default=10000)
    p_synth.add_argument("--seed", type=int, default=None)
    p_synth.add_argument("--out", default="-")
    _add_model_flags(p_synth)
    p_synth.set_defaults(func=cmd_synth)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _UsageError as exc:
        print(f"dickesim: error: {exc}", file=sys.stderr)
        return 1
    except (DataError, IdentifiabilityError) as exc:
        print(f"dickesim: data error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"dickesim: {exc}", file=sys.stderr)
        return 2
    except (ConvergenceError, UnstableCrystalError, SearchError,
            np.linalg.LinAlgError, ValueError) as exc:
        print(f"dickesim: numeric failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
