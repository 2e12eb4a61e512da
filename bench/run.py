"""dickesim benchmark: end-to-end and per-layer figures for one workload.

    python3 bench/run.py --workload experiment --seed 0 --seconds 20 --trace 0

Run from the repository root; dickesim is imported from ./src.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: with ``--trace 0`` the metrics
are setup_s, wall_s and peak_rss_mb, with ``--trace 1`` the per-layer
figures of a traced pass.  The line before it is the run record (machine,
versions, BLAS, seed, operations).  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
REPO = BENCH.parent
SRC = REPO / "src"
OUT = BENCH / "out"

SETUP_SAMPLES = 5
DEADLINE_S = 170.0  # the whole run, set-up samples included


def _env():
    env = dict(os.environ)
    # One BLAS thread: with OpenBLAS's default of one thread per core,
    # sweep-dense passes ran 20-40% slower and spread +-15% from pass to
    # pass on the 2-core reference machine (small eigh calls pay the
    # threads' hand-off), which would drown every bound.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def measure_setup(env):
    """Median wall time of a fresh interpreter importing dickesim.cli
    (numpy and scipy included), after one untimed import that leaves the
    bytecode caches warm.  No timeout: waiting with one polls every 50 ms,
    which would round every sample up to that step."""
    cmd = [sys.executable, "-c", "import dickesim.cli"]
    subprocess.run(cmd, env=env, cwd=REPO, check=True)
    samples = []
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        subprocess.run(cmd, env=env, cwd=REPO, check=True)
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples), samples


def main(argv=None):
    t_start = time.perf_counter()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "dickesim" / "cli.py").is_file():
        print(f"bench: no dickesim sources under {SRC}", file=sys.stderr)
        return 2
    env = _env()
    setup = None
    if not args.trace:
        setup = measure_setup(env)

    cmd = [sys.executable, str(BENCH / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    remaining = DEADLINE_S - (time.perf_counter() - t_start)
    try:
        proc = subprocess.run(cmd, env=env, cwd=REPO, stdout=subprocess.PIPE,
                              text=True, timeout=remaining)
    except subprocess.TimeoutExpired:
        print(f"bench: {args.workload} did not finish within {DEADLINE_S} s",
              file=sys.stderr)
        return 3
    if proc.returncode != 0 or not proc.stdout.strip():
        print(f"bench: worker exited with code {proc.returncode}", file=sys.stderr)
        return 3
    child = json.loads(proc.stdout.strip().splitlines()[-1])

    values = dict(child["metrics"])
    if setup is not None:
        values["setup_s"] = setup[0]
    declared = json.loads((REPO / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = declared["per_layer" if args.trace else "end_to_end"]
    if {m["name"] for m in declared} != set(values):
        print(f"bench: measured {sorted(values)}, BENCHMARK.json declares "
              f"{sorted(m['name'] for m in declared)}", file=sys.stderr)
        return 3
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in declared}

    record = dict(child["record"])
    record.update({
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "operations": {args.workload: {"attempted": child["attempted"],
                                       "failed": child["failed"]}},
        "untraced_pass_seconds": child["untraced_pass_seconds"],
        "setup_samples_s": setup[1] if setup else None,
        "violations": child["violations"],
    })
    OUT.mkdir(parents=True, exist_ok=True)
    name = f"record-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    for line in child["violations"]:
        print(f"bench: check failed: {line}", file=sys.stderr)

    print(json.dumps({"run_record": record}))
    print(json.dumps({"correct": child["correct"], "attempted": child["attempted"],
                      "failed": child["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
