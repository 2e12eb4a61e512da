"""Command-line interface.

Subcommands wire plain-text chain configs to the numeric modules and emit
plot-ready CSV tables or JSON reports.  Physical inputs are SI (masses in
u, frequencies in Hz in config files); simulator times are dimensionless
in units of 1/Omega_0 unless a carrier rate is supplied for conversion.

Exit codes: 0 success, 1 usage error, 2 data error, 3 numeric failure,
which includes a request too large for memory (numpy's MemoryError): each
failure is one ``dickesim:`` line on stderr, with no traceback.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from contextlib import contextmanager

import numpy as np

from . import __version__
from .chain import (ChainTemplate, read_chain_file, solve_axial_modes,
                    text_lines)
from .detection import (DEFAULT_N_BOOTSTRAP, DEFAULT_N_MAX, DEFAULT_T_DETECT,
                        ReadoutModel, composite_dists, synthesize_shots)
from .errors import (ConvergenceError, DataError, IdentifiabilityError,
                     SearchError, UnstableCrystalError)
from .experiment import DEFAULT_MODEL, fit_report, run_experiment
from .sideband import fidelity_vs_mass_ratio


# a JSON sweep row holds the dense 2^N x 2^N reduced density, 1 GB of
# complex numbers at N = 13
JSON_MAX_QUBITS = 12

# the help text of each readout-model flag, by ReadoutModel field
_MODEL_FLAG_HELP = {
    "lambda_bright": "mean counts per window from one bright ion",
    "lambda_dark": "mean counts per window from one dark ion",
    "lambda_bg": "mean background counts per window",
    "gamma": "dark-to-bright repump rate (1/s)",
    "t_detect": "detection window (s)",
}


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


def _checked_seed(seed):
    if seed < 0:
        raise _UsageError(f"--seed must be >= 0, got {seed}")
    return seed


def _json_default(value):
    """``json.dumps`` hook for the arrays in reports; ``np.float64`` is a
    ``float`` and needs none."""
    if isinstance(value, np.ndarray):
        return value.tolist()
    raise TypeError(f"{type(value).__name__} is not JSON serializable")


def _density_json(rho):
    """A QubitDensity as ``{"n_qubits", "matrix"}``, each matrix entry a
    ``[real, imag]`` pair."""
    m = rho.matrix
    return {"n_qubits": rho.n_qubits,
            "matrix": np.stack([m.real, m.imag], axis=-1)}


def _write_json(data, path):
    with _open_out(path) as out:
        out.write(json.dumps(data, indent=2, sort_keys=True,
                             default=_json_default))
        out.write("\n")


def _write_table(path, schema, header, rows):
    """Write a CSV table: a ``# schema`` line, the header, then one line
    per row.  A None cell is empty, text has its commas made semicolons
    and a number is written as ``repr(float(x))``."""
    with _open_out(path) as out:
        out.write(f"# {schema}\n{','.join(header)}\n")
        for row in rows:
            out.write(",".join(
                "" if c is None
                else c.replace(",", ";") if isinstance(c, str)
                else repr(float(c)) for c in row) + "\n")


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
    for f in dataclasses.fields(ReadoutModel):
        parser.add_argument("--" + f.name.replace("_", "-"), type=float,
                            default=getattr(DEFAULT_MODEL, f.name),
                            help=_MODEL_FLAG_HELP[f.name])


# --- modes --------------------------------------------------------------------


def cmd_modes(args):
    """The ``modes.v1`` table: per mode its frequency, the in-phase marker,
    then per-ion ground-state amplitudes and Lamb-Dicke parameters (rad/s
    and metres, as the chain file is SI)."""
    modes = solve_axial_modes(read_chain_file(args.config).config)
    n = modes.n_ions
    if args.format == "csv":
        header = (["mode", "frequency", "in_phase"]
                  + [f"amp_{i}" for i in range(n)]
                  + [f"eta_{i}" for i in range(n)])
        _write_table(args.out, "modes.v1", header, (
            [str(k), modes.frequencies[k], "1" if k == 0 else "0",
             *modes.ground_state_amplitudes[:, k], *modes.lamb_dicke[:, k]]
            for k in range(n)))
    else:
        _write_json({
            "schema": "modes.v1",
            "frequencies": modes.frequencies,
            "inphase_index": 0,
            "eigenvectors": modes.eigenvectors,
            "ground_state_amplitudes": modes.ground_state_amplitudes,
            "lamb_dicke": modes.lamb_dicke,
            "equilibrium_positions_scaled": modes.equilibrium.positions,
        }, args.out)
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


def _sweep_row(mu, outcome, carrier_rate):
    """One ``sweep.v1`` row, the record behind both the CSV and the JSON
    row: a failed row holds its error and None in every other cell.  Only
    the JSON row adds the qubit state, so a CSV sweep builds no density."""
    if isinstance(outcome, Exception):
        return {"mu": float(mu), "duration": None, "duration_s": None,
                "fidelity": None, "phonon_distribution": None,
                "error": str(outcome)}
    return {
        "mu": float(mu),
        "duration": outcome.duration,
        "duration_s": (outcome.duration / carrier_rate if carrier_rate
                       else None),
        "fidelity": outcome.fidelity,
        "phonon_distribution": outcome.phonon_distribution,
        "error": None,
    }


def cmd_sweep(args):
    if args.carrier_rate is not None and not 0 < args.carrier_rate < np.inf:
        raise _UsageError("--carrier-rate must be finite and positive")
    grid = _mu_grid(args)
    chain_file = read_chain_file(args.config)
    template = _template_from_file(chain_file, args.config)
    if not 1 <= args.m <= template.n_qubits:
        raise _UsageError(f"--m must lie in 1..{template.n_qubits}, the "
                          "qubit ion count")
    n = template.n_qubits
    if args.format == "json" and n > JSON_MAX_QUBITS:
        raise _UsageError(
            f"--format json writes a dense {2**n} x {2**n} reduced density "
            f"per row ({16 * 4**n / 1e9:.1f} GB at {n} qubit ions) and "
            f"takes at most {JSON_MAX_QUBITS}; use --format csv")
    outcomes = fidelity_vs_mass_ratio(template, grid, args.m)
    rows = [_sweep_row(mu, outcome, args.carrier_rate)
            for mu, outcome in zip(grid, outcomes)]
    if args.format == "csv":
        cols = ["mu", "duration", "duration_s", "fidelity"]
        missing = [None] * (args.m + 1)
        header = cols + [f"p{k}" for k in range(args.m + 1)] + ["error"]
        _write_table(args.out, "sweep.v1", header, (
            [*(row[c] for c in cols),
             *(missing if row["phonon_distribution"] is None
               else row["phonon_distribution"]),
             row["error"]] for row in rows))
    else:
        for row, outcome in zip(rows, outcomes):
            row["reduced_density"] = (
                None if isinstance(outcome, Exception)
                else _density_json(outcome.reduced_density))
        _write_json({"schema": "sweep.v1", "m": args.m, "rows": rows},
                    args.out)
    return 0


# --- experiment ---------------------------------------------------------------


def cmd_experiment(args):
    if args.shots < 100:
        raise _UsageError("need at least 100 shots per record")
    seed, model = _checked_seed(args.seed), _model_from_args(args)
    report = run_experiment(read_chain_file(args.config), args.shots, seed,
                            model=model)
    _write_json(report, args.out)
    return 0


# --- fit ----------------------------------------------------------------------


def _read_shot_file(path, n_max):
    """The count histogram over 0..n_max of one integer count per line."""
    hist = np.zeros(n_max + 1, dtype=int)
    for lineno, line in text_lines(path):
        try:
            value = int(line)
        except ValueError as exc:
            raise DataError(f"{path}:{lineno}: not an integer count: "
                            f"{line!r}") from exc
        if value < 0 or value > n_max:
            raise DataError(f"{path}:{lineno}: count {value} outside "
                            f"[0, {n_max}]")
        hist[value] += 1
    if not np.any(hist):
        raise DataError(f"{path}: no shot records found")
    return hist


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
    seed = _checked_seed(args.seed)
    _write_json(fit_report(_read_shot_file(args.shots, args.n_max),
                           _read_histogram(args.ref_bright, args.n_max),
                           _read_histogram(args.ref_dark, args.n_max),
                           args.t_detect, args.bootstrap, seed), args.out)
    return 0


# --- synth --------------------------------------------------------------------


def cmd_synth(args):
    c = np.array([args.c0, args.c1, args.c2])
    if not (np.all(c >= 0) and abs(float(np.sum(c)) - 1.0) <= 1e-9):
        raise _UsageError("--c0/--c1/--c2 must be non-negative and sum to 1")
    if args.shots < 0:
        raise _UsageError("--shots must be >= 0")
    seed, model = _checked_seed(args.seed), _model_from_args(args)
    counts = synthesize_shots(c, composite_dists(model), args.shots, seed)
    with _open_out(args.out) as out:
        for value in counts:
            out.write(f"{value}\n")
    return 0


# --- parser -------------------------------------------------------------------


def build_parser():
    parser = _Parser(prog="dickesim",
                     description="Mixed-species ion chain Dicke-state "
                                 "preparation simulator and readout analysis")
    parser.add_argument("--version", action="version", version=__version__,
                        help="print the version and exit")
    sub = parser.add_subparsers(dest="command", required=True)

    p_modes = sub.add_parser("modes", help="axial mode table for one chain")
    p_modes.add_argument("--config", required=True, help="chain config file")
    p_modes.add_argument("--out", default="-",
                         help="output file ('-' for stdout)")
    p_modes.add_argument("--format", choices=("csv", "json"), default="csv",
                         help="modes.v1 as a CSV table or as JSON")
    p_modes.set_defaults(func=cmd_modes)

    p_sweep = sub.add_parser("sweep", help="fidelity versus ancilla mass ratio")
    p_sweep.add_argument("--config", required=True,
                         help="chain config file (needs ancilla_index)")
    p_sweep.add_argument("--m", type=int, default=1,
                         help="number of excitations in the target state")
    p_sweep.add_argument("--mu-start", type=float, default=0.1,
                         help="first ancilla-to-qubit mass ratio of the grid")
    p_sweep.add_argument("--mu-stop", type=float, default=10.0,
                         help="last mass ratio of the grid (included)")
    p_sweep.add_argument("--mu-points", type=int, default=20,
                         help="number of mass ratios in the grid (>= 1)")
    p_sweep.add_argument("--mu-log", action="store_true",
                         help="log-spaced mass-ratio grid")
    p_sweep.add_argument("--carrier-rate", type=float, default=None,
                         help="carrier Rabi rate Omega_0 (rad/s) for "
                              "converting durations to seconds")
    p_sweep.add_argument("--out", default="-",
                         help="output file ('-' for stdout)")
    p_sweep.add_argument("--format", choices=("csv", "json"), default="csv",
                         help="sweep.v1 as a CSV table or as JSON, which "
                              "adds each row's reduced qubit density")
    p_sweep.set_defaults(func=cmd_sweep)

    p_exp = sub.add_parser("experiment",
                           help="synthetic end-to-end preparation and readout")
    p_exp.add_argument("--config", required=True,
                       help="chain config file (needs ancilla_index)")
    p_exp.add_argument("--shots", type=int, default=50000,
                       help="shots per record: each of the two references "
                            "and the population record take this many, "
                            "each parity-scan phase max(shots // 5, 200) "
                            "(>= 100)")
    p_exp.add_argument("--seed", type=int, default=0,
                       help="seed of every draw: the reference, population "
                            "and scan records and the bootstrap resamples "
                            "of the fits (>= 0)")
    p_exp.add_argument("--out", default="-",
                       help="output JSON file ('-' for stdout)")
    _add_model_flags(p_exp)
    p_exp.set_defaults(func=cmd_experiment)

    p_fit = sub.add_parser("fit", help="fit populations to external shot data")
    p_fit.add_argument("--shots", required=True, help="one integer count per line")
    p_fit.add_argument("--ref-bright", required=True,
                       help="bright reference histogram CSV (n,count)")
    p_fit.add_argument("--ref-dark", required=True,
                       help="dark reference histogram CSV (n,count)")
    p_fit.add_argument("--n-max", type=int, default=DEFAULT_N_MAX,
                       help="largest photon count in the shot file and "
                            "histograms")
    p_fit.add_argument("--t-detect", type=float, default=DEFAULT_T_DETECT,
                       help=_MODEL_FLAG_HELP["t_detect"])
    p_fit.add_argument("--bootstrap", type=int, default=DEFAULT_N_BOOTSTRAP,
                       help="bootstrap resamples for the population errors "
                            "(0 for none, else at least 2)")
    p_fit.add_argument("--seed", type=int, default=0,
                       help="seed of the bootstrap resamples (>= 0)")
    p_fit.add_argument("--out", default="-",
                       help="output JSON file ('-' for stdout)")
    p_fit.set_defaults(func=cmd_fit)

    p_synth = sub.add_parser("synth", help="generate synthetic shot records")
    for k in range(3):
        p_synth.add_argument(f"--c{k}", type=float, required=True,
                             help=f"population with {k} of the two ions "
                                  "bright (the three sum to 1)")
    p_synth.add_argument("--shots", type=int, default=10000,
                         help="number of shots in all, one count per "
                              "output line (>= 0)")
    p_synth.add_argument("--seed", type=int, default=0,
                         help="seed of the shot draws (>= 0)")
    p_synth.add_argument("--out", default="-",
                         help="output file ('-' for stdout)")
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
            np.linalg.LinAlgError, ValueError, MemoryError) as exc:
        print(f"dickesim: numeric failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
