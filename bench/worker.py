"""Runs one workload in this process and prints one JSON line of results.

Started by bench/run.py, one process per workload, so that peak_rss_mb is
the workload's own.  Usage:

    python3 bench/worker.py --workload NAME --seed N --seconds S --trace 0|1
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
REPO = BENCH.parent
SRC = REPO / "src"
OUT = BENCH / "out"

sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import dickesim  # noqa: E402
import dickesim.cli  # noqa: E402
import dickesim.detection  # noqa: E402

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

# the lru_cache itself, kept while tracing patches the module attribute
COMPOSITE_DISTS = dickesim.detection.composite_dists


BLAS_SYMBOLS = (  # (thread count, build string) per OpenBLAS flavour
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_config64_"),
    ("scipy_openblas_get_num_threads", "scipy_openblas_get_config"),
    ("openblas_get_num_threads64_", "openblas_get_config64_"),
    ("openblas_get_num_threads", "openblas_get_config"),
)


def blas_info():
    """Build string and thread count of each OpenBLAS loaded here."""
    with open("/proc/self/maps", encoding="utf-8") as fh:
        paths = sorted({line.split()[-1] for line in fh
                        if "openblas" in line.lower() and "/" in line})
    found = []
    for path in paths:
        lib = ctypes.CDLL(path)
        entry = {"library": os.path.basename(path)}
        for threads, config in BLAS_SYMBOLS:
            if hasattr(lib, threads) and hasattr(lib, config):
                getattr(lib, threads).restype = ctypes.c_int
                getattr(lib, config).restype = ctypes.c_char_p
                entry["threads"] = getattr(lib, threads)()
                entry["config"] = getattr(lib, config)().decode()
                break
        found.append(entry)
    return found


def run_pass(calls, outdir, tracer=None):
    """One pass over the workload's calls, writing into the new directory
    ``outdir``; returns (seconds, return codes, output hashes,
    composite_dists cache misses)."""
    # Fresh output files: ext4 flushes a file that is truncated and
    # rewritten when it is closed, which would put the shared disk's
    # latency into wall_s.
    outdir.mkdir(parents=True)
    outs = [outdir / call.out_name for call in calls]
    COMPOSITE_DISTS.cache_clear()  # a CLI user starts every run cold
    codes = []
    t0 = time.perf_counter()
    for call, out in zip(calls, outs):
        if tracer is None:
            codes.append(dickesim.cli.main(call.argv_to(out)))
        else:
            with tracer.span(tracing.ROOT):
                codes.append(dickesim.cli.main(call.argv_to(out)))
    seconds = time.perf_counter() - t0
    hashes = [hashlib.sha256(out.read_bytes()).hexdigest() if out.exists()
              else None for out in outs]
    return seconds, codes, hashes, COMPOSITE_DISTS.cache_info().misses


def layer_metrics(tracer, misses):
    """The per-layer metrics of one traced pass (trace.overhead_s aside)."""
    by = tracer.summary()
    out = {}
    for key in ("chain.solve_equilibrium", "chain.solve_axial_modes",
                "sideband.first_max_fidelity", "dicke.rotated_density",
                "detection.ml_fit", "detection.composite_dists"):
        out[f"{key}.calls"] = by[key]["calls"]
    for key in ("chain.solve_equilibrium", "chain.solve_axial_modes",
                "sideband.first_max_fidelity", "sideband.rsb_hamiltonian",
                "sideband.reduce_to_qubits", "dicke.rotated_density",
                "detection.ml_fit", "detection.synthesize_shots",
                "detection.calibrate", "detection.composite_dists"):
        out[f"{key}.s"] = by[key]["s"]
    out["sideband.search.self_s"] = by["sideband.first_max_from_couplings"]["self_s"]
    out["detection.em_fits"] = by["detection.ml_fit"]["em_fits"]
    out["detection.parity_scan_analysis.self_s"] = by["detection.parity_scan_analysis"]["self_s"]
    out["detection.composite_dists.misses"] = misses
    out["cli.self_s"] = by[tracing.ROOT]["self_s"]
    return out


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    if not Path(dickesim.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"dickesim imported from {dickesim.__file__}, not {SRC}")
    workdir = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(workdir, ignore_errors=True)
    calls = workloads.build(args.workload, args.seed, workdir)

    # Whole rounds until the time is up.  Without tracing a round is one
    # pass.  With --trace 1 it is a traced pass and then an untraced one of
    # the same inputs, after one untraced pass that pays the process's
    # first-call costs, so that trace.overhead_s compares two warm passes.
    walls, layers, overheads, hashes = [], [], [], []
    attempted = failed = 0

    def untraced():
        seconds, codes, digest, _ = run_pass(calls, workdir / f"pass{len(hashes)}")
        walls.append(seconds)
        hashes.append(digest)
        return seconds, codes

    start = time.perf_counter()
    if args.trace:
        untraced()
    while True:
        if args.trace:
            tracer = tracing.Tracer()
            with tracing.patched(tracer):
                traced_s, _, digest, misses = run_pass(
                    calls, workdir / f"pass{len(hashes)}", tracer)
            hashes.append(digest)
            layers.append(layer_metrics(tracer, misses))
            (workdir / "spans.json").write_text(json.dumps(tracer.as_json()))
        seconds, codes = untraced()
        if args.trace:
            overheads.append(traced_s - seconds)
        if time.perf_counter() - start >= args.seconds:
            break

    passes = len(hashes)
    last = workdir / f"pass{passes - 1}"
    violations = [f"pass {i}: output bytes differ from the first pass"
                  for i, digest in enumerate(hashes) if digest != hashes[0]]
    for call, code in zip(calls, codes):
        attempted += call.operations * passes
        if code != 0:
            failed += call.operations * passes
            continue
        # every pass wrote these same bytes (checked above), so the rows
        # of the last pass stand for all of them
        row_failures, bad = checks.check_output(call, (last / call.out_name).read_bytes())
        failed += row_failures * passes
        violations += bad

    result = {
        "correct": not violations,
        "attempted": attempted,
        "failed": failed,
        "violations": violations[:20],
        "untraced_pass_seconds": walls,
        "record": {
            "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "blas": blas_info(),
        },
    }
    if args.trace:
        metrics = {name: statistics.median_low(layer[name] for layer in layers)
                   for name in layers[0]}
        metrics["trace.overhead_s"] = statistics.median(overheads)
    else:
        metrics = {
            "wall_s": statistics.median(walls),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    result["metrics"] = metrics
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
