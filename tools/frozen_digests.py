"""Digests of the frozen outputs: one line per command output.

Usage::

    python tools/frozen_digests.py SRC_DIR
    python tools/frozen_digests.py SRC_DIR --against OTHER_SRC

Imports ``dickesim`` from ``SRC_DIR`` (the directory that holds the
``dickesim`` package), runs a fixed list of ``dickesim`` commands in a
temporary directory, and prints for each output its name, the command's
exit code and the first 16 hex digits of the sha256 of the output file.
A command that writes no file (a rejected input) is digested by its
stderr message instead.  Diffing the printout of two source trees checks
that their ``modes.v1``, ``sweep.v1``, ``experiment.v1``, ``fit.v1`` and
``synth`` outputs and exit codes are byte-identical.

With ``--against`` both trees run, each in its own interpreter, and the
printout names every output whose exit code or digest differs between
them (``OTHER_SRC`` first, ``SRC_DIR`` second).  For a JSON output it
adds the largest absolute change over the numeric leaves, the field
that has it and that change relative to the leaf's size (``|a - b| /
max(|a|, |b|)``), then the largest relative change and its field (often
a leaf that is zero up to rounding); a change of shape or of a
non-numeric leaf reads ``inf``.
It exits 0 only when every output and exit code is the same in both
trees, so ``frozen_digests.py src --against OTHER_SRC && ...`` gates on
byte-identical outputs.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import subprocess
import sys
import tempfile
from pathlib import Path

OMEGA_Z_HZ = "2.55e6"
K_PROJECTION = "1.1e7"
CARRIER_RATE = "1e6"  # rad/s


def _chain(name, masses, ancilla=None, reference=0):
    text = (f"masses = {', '.join(str(m) for m in masses)}\n"
            f"omega_z = {OMEGA_Z_HZ}\nreference_index = {reference}\n"
            f"k_projection = {K_PROJECTION}\n")
    if ancilla is not None:
        text += f"ancilla_index = {ancilla}\n"
    Path(name).write_text(text, encoding="utf-8")
    return name


def _sweep(config, m, lo, hi, points, fmt, *extra):
    return ["sweep", "--config", config, "--m", str(m), "--mu-start", lo,
            "--mu-stop", hi, "--mu-points", str(points), "--mu-log",
            "--format", fmt, *extra]


def _histogram(shots_file, name):
    counts = [int(x) for x in Path(shots_file).read_text().split()]
    bins = [0] * (max(counts) + 1)
    for n in counts:
        bins[n] += 1
    Path(name).write_text(
        "n,count\n" + "".join(f"{n},{c}\n" for n, c in enumerate(bins)),
        encoding="utf-8")
    return name


def commands():
    """Yield ``(name, argv)`` for every frozen output, writing the chain
    and reference files they read into the working directory first."""
    mg_mg_al = _chain("mg_mg_al.cfg", (25, 25, 27), ancilla=2)
    five = _chain("five.cfg", (25,) * 5, ancilla=4)
    nine = _chain("nine.cfg", (25,) * 9, ancilla=8)
    fifteen = _chain("fifteen.cfg", (25,) * 15, ancilla=14)
    unstable = _chain("unstable.cfg", (25, 25, 1e-290))
    # unequal qubit masses, the ancilla in the centre and the reference
    # off ion 0: the ancilla mass is mu times ion 1's
    centre = _chain("centre.cfg", (25, 24, 27, 25, 26), ancilla=2,
                    reference=1)
    for tag, cfg in (("mg_mg_al", mg_mg_al), ("five", five), ("nine", nine)):
        for fmt in ("csv", "json"):
            yield f"modes-{tag}.{fmt}", ["modes", "--config", cfg,
                                         "--format", fmt]
    yield "modes-unstable.csv", ["modes", "--config", unstable]

    yield "sweep-4-2.csv", _sweep(five, 2, "0.1", "10", 15, "csv",
                                  "--carrier-rate", CARRIER_RATE)
    yield "sweep-4-2.json", _sweep(five, 2, "0.1", "10", 15, "json")
    yield "sweep-8-4.csv", _sweep(nine, 4, "0.1", "10", 9, "csv")
    yield "sweep-8-4.json", _sweep(nine, 4, "0.1", "10", 5, "json")
    # rows from mu = 1e-20 to 1e20 include every per-row error kind
    yield "sweep-4-2-errors.csv", _sweep(five, 2, "1e-20", "1e20", 41, "csv")
    yield "sweep-4-2-errors.json", _sweep(five, 2, "1e-20", "1e20", 41,
                                          "json")
    yield "sweep-8-4-errors.csv", _sweep(nine, 4, "1e-20", "1e20", 41, "csv")
    yield "sweep-8-4-errors.json", _sweep(nine, 4, "1e-20", "1e20", 21,
                                          "json")
    # 9908 sector states a row: a dense sector solve takes about a minute
    # and over 1.5 GB per row here
    yield "sweep-14-7.csv", _sweep(fifteen, 7, "0.1", "10", 3, "csv")
    yield "sweep-centre-4-2-errors.csv", _sweep(centre, 2, "1e-20", "1e20",
                                                41, "csv")
    yield "sweep-centre-4-2-errors.json", _sweep(centre, 2, "1e-20", "1e20",
                                                 41, "json")

    for seed in range(4):
        yield f"experiment-seed{seed}.json", [
            "experiment", "--config", mg_mg_al, "--shots", "50000",
            "--seed", str(seed)]
    yield "experiment-seed5-short.json", [
        "experiment", "--config", mg_mg_al, "--shots", "500", "--seed", "5",
        "--gamma", "0", "--t-detect", "1e-4"]

    yield "synth.txt", ["synth", "--c0", "0.2", "--c1", "0.5", "--c2", "0.3",
                        "--shots", "5000", "--seed", "7"]
    yield "bright.txt", ["synth", "--c0", "0", "--c1", "0", "--c2", "1",
                         "--shots", "20000", "--seed", "8"]
    yield "dark.txt", ["synth", "--c0", "1", "--c1", "0", "--c2", "0",
                       "--shots", "20000", "--seed", "9"]
    fit = ["fit", "--shots", "synth.txt",
           "--ref-bright", _histogram("bright.txt", "bright.csv"),
           "--ref-dark", _histogram("dark.txt", "dark.csv")]
    yield "fit-defaults.json", fit + ["--seed", "3"]
    yield "fit-options.json", fit + ["--bootstrap", "0", "--n-max", "120",
                                     "--t-detect", "1e-4"]
    yield "fit-bootstrap-1.json", fit + ["--bootstrap", "1"]
    yield "fit-n-max-10.json", fit + ["--n-max", "10"]


def run(src, workdir):
    """Import dickesim from ``src``, run every command in ``workdir``
    (where the outputs stay) and print one digest line per output."""
    src = Path(src).resolve()
    sys.path.insert(0, str(src))
    import dickesim.cli

    if not Path(dickesim.__file__).resolve().is_relative_to(src):
        print(f"dickesim imported from {dickesim.__file__}, not {src}",
              file=sys.stderr)
        return 1
    with contextlib.chdir(workdir):
        for name, args in commands():
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                code = dickesim.cli.main([*args, "--out", name])
            out = Path(name)
            data = out.read_bytes() if out.exists() else err.getvalue().encode()
            print(name, code, hashlib.sha256(data).hexdigest()[:16])
    return 0


def _is_number(x):
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def largest_change(a, b, field="", relative=False):
    """``(change, relative change, field)`` of the numeric leaf that moved
    most between two parsed JSON values, by its absolute change or, with
    ``relative``, by ``|a - b| / max(|a|, |b|)``, and the dotted path of
    that leaf.  A leaf that differs but is not a number on both sides, or
    a change of shape, counts as an infinite change; two NaNs are equal."""
    if isinstance(a, dict) and isinstance(b, dict) and a.keys() == b.keys():
        pairs = [(a[k], b[k], f"{field}.{k}" if field else k) for k in a]
    elif isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        pairs = [(x, y, f"{field}[{i}]") for i, (x, y) in enumerate(zip(a, b))]
    elif _is_number(a) and _is_number(b):
        if a == b or (math.isnan(a) and math.isnan(b)):
            return 0.0, 0.0, field
        change = abs(a - b)
        moves = (change, change / max(abs(a), abs(b)))
        return (*(math.inf if math.isnan(x) else x for x in moves), field)
    else:
        change = 0.0 if a == b else math.inf
        return change, change, field
    return max((largest_change(x, y, f, relative) for x, y, f in pairs),
               key=lambda c: c[relative], default=(0.0, 0.0, field))


def compare(src, other):
    """Run both trees and print the outputs that differ between them;
    returns 0 when none does, 1 otherwise."""
    with tempfile.TemporaryDirectory() as tmp:
        digests = []
        for tree, sub in ((other, "other"), (src, "src")):
            workdir = Path(tmp, sub)
            workdir.mkdir()
            proc = subprocess.run(
                [sys.executable, "-c",
                 "import sys, frozen_digests; "
                 "sys.exit(frozen_digests.run(*sys.argv[1:]))",
                 str(Path(tree).resolve()), str(workdir)],
                cwd=Path(__file__).resolve().parent, capture_output=True,
                text=True)
            if proc.returncode != 0:
                print(proc.stderr, end="", file=sys.stderr)
                return 1
            lines = (line.split() for line in proc.stdout.splitlines())
            digests.append({name: (code, digest)
                            for name, code, digest in lines})
        before, after = digests
        same = 0
        for name, old in before.items():
            new = after[name]
            if new == old:
                same += 1
                continue
            print(f"{name}: exit {old[0]} -> {new[0]}, "
                  f"digest {old[1]} -> {new[1]}")
            paths = [Path(tmp, sub, name) for sub in ("other", "src")]
            if name.endswith(".json") and all(p.exists() for p in paths):
                old_out, new_out = (json.loads(p.read_text()) for p in paths)
                change, rel, field = largest_change(old_out, new_out)
                _, most, most_field = largest_change(old_out, new_out,
                                                     relative=True)
                print(f"  largest change {change:.3g} at {field} "
                      f"({rel:.3g} relative); largest relative change "
                      f"{most:.3g} at {most_field}")
        print(f"{same} of {len(before)} outputs identical")
    return 0 if same == len(before) else 1


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) == 3 and argv[1] == "--against":
        return compare(argv[0], argv[2])
    if len(argv) != 1:
        print("usage: python tools/frozen_digests.py SRC_DIR "
              "[--against OTHER_SRC]", file=sys.stderr)
        return 1
    with tempfile.TemporaryDirectory() as tmp:
        return run(argv[0], tmp)


if __name__ == "__main__":
    sys.exit(main())
