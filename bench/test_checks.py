"""The benchmark's own tests: every correctness check passes on real
program output and rejects a deliberately perturbed copy of it.

    python3 -m pytest bench
"""

from __future__ import annotations

import copy
import hashlib
import json
import sys
from math import pi
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

from dickesim.chain import read_chain_file  # noqa: E402
from dickesim.cli import main as dickesim_main  # noqa: E402
from dickesim.cli import run_experiment  # noqa: E402

import checks  # noqa: E402
import oracle  # noqa: E402
import workloads  # noqa: E402


def _sweep(tmp_path, n_qubits, m, lo, hi, points):
    call = workloads._sweep_call(tmp_path, f"t{n_qubits}{m}", n_qubits, m,
                                 lo, hi, points)
    out = tmp_path / call.out_name
    assert dickesim_main(call.argv_to(out)) == 0
    rows = checks.parse_sweep(out.read_text(), m)
    assert [checks.check_sweep_row(call, row) for row in rows] == [[]] * len(rows)
    return call, rows, out.read_text()


@pytest.fixture(scope="module")
def sweep_m2(tmp_path_factory):
    return _sweep(tmp_path_factory.mktemp("m2"), 4, 2, 0.2, 5.0, 3)


@pytest.fixture(scope="module")
def sweep_m1(tmp_path_factory):
    return _sweep(tmp_path_factory.mktemp("m1"), 3, 1, 0.5, 2.0, 3)


@pytest.fixture(scope="module")
def report(tmp_path_factory):
    cfg = tmp_path_factory.mktemp("exp") / "chain.cfg"
    workloads._write_config(cfg, workloads.MG_MG_AL, 2)
    rep = run_experiment(read_chain_file(cfg), shots=5000, seed=3, n_bootstrap=30)
    parsed = json.loads(json.dumps(rep, default=lambda a: np.asarray(a).tolist()))
    assert checks.check_experiment(parsed) == []
    return parsed


def _rejected(call, row, **changes):
    bad = dict(row, **changes)
    return checks.check_sweep_row(call, bad)


def test_sweep_rejects_fidelity_moved_by_1e6(sweep_m2):
    call, rows, _ = sweep_m2
    for row in rows:
        assert _rejected(call, row, fidelity=row["fidelity"] + 1e-6)


def test_sweep_rejects_duration_past_the_maximum(sweep_m2):
    call, rows, _ = sweep_m2
    row = rows[0]
    period = pi / np.linalg.norm(checks._row_couplings(call, row["mu"]))
    assert _rejected(call, row, duration=row["duration"] + 0.05 * period)


def test_sweep_rejects_a_later_maximum(sweep_m2):
    # duration and fidelity moved together to the second local maximum:
    # F matches, but an earlier maximum exists
    call, rows, _ = sweep_m2
    row = rows[0]
    pulse = oracle.SectorPulse(checks._row_couplings(call, row["mu"]), call.m)
    t = np.linspace(row["duration"] * 1.05, row["duration"] * 4, 40001)
    f = pulse.fidelity(t)
    j = 1 + np.flatnonzero((f[1:-1] > f[:-2]) & (f[1:-1] >= f[2:]))[0]
    later = dict(row, duration=float(t[j]), fidelity=float(f[j]),
                 phonons=pulse.phonon_distribution(t[j]))
    messages = checks.check_sweep_row(call, later)
    assert any("local maximum" in msg for msg in messages)


def test_sweep_rejects_a_duration_short_of_the_maximum(sweep_m2):
    call, rows, _ = sweep_m2
    row = rows[0]
    pulse = oracle.SectorPulse(checks._row_couplings(call, row["mu"]), call.m)
    t = row["duration"] * 0.995
    early = dict(row, duration=t, fidelity=float(pulse.fidelity(t)),
                 phonons=pulse.phonon_distribution(t))
    messages = checks.check_sweep_row(call, early)
    assert any("exceeds F(duration)" in msg for msg in messages)


def test_sweep_rejects_bad_phonon_probabilities(sweep_m2):
    call, rows, _ = sweep_m2
    row = rows[0]
    p = row["phonons"].copy()
    p[0] += 1e-6
    assert _rejected(call, row, phonons=p)
    p = row["phonons"].copy()
    p[-1], p[0] = -1e-6, p[0] + p[-1] + 1e-6
    assert any("not a distribution" in msg
               for msg in _rejected(call, row, phonons=p))


def test_sweep_rejects_fidelity_above_one(sweep_m2):
    call, rows, _ = sweep_m2
    assert any("outside [0, 1]" in msg
               for msg in _rejected(call, rows[0], fidelity=1.0 + 1e-6))


def test_ladder_check_catches_what_the_1e8_match_lets_through(sweep_m2):
    call, rows, _ = sweep_m2
    (row,) = [r for r in rows if abs(r["mu"] - 1.0) < 1e-12]
    messages = _rejected(call, row, fidelity=row["fidelity"] + 5e-9)
    assert messages and all("ladder" in msg for msg in messages)


def test_ladder_matches_the_m2_closed_form():
    for n in range(2, 9):
        assert oracle.symmetric_ladder_fidelity(n, 2) == pytest.approx(
            4 * n * (n - 1) / (2 * n - 1) ** 2, abs=1e-12)


def test_m1_check_catches_what_the_1e8_match_lets_through(sweep_m1):
    call, rows, _ = sweep_m1
    for row in rows:
        messages = _rejected(call, row, fidelity=row["fidelity"] + 5e-9)
        assert any("sum Omega" in msg for msg in messages)


def test_sweep_table_rejects_wrong_grid_and_counts_error_rows(sweep_m1):
    call, _, text = sweep_m1
    failed, bad = checks.check_sweep(call, text)
    assert (failed, bad) == (0, [])
    lines = text.splitlines()
    cells = lines[2].split(",")
    lines[2] = ",".join([cells[0]] + [""] * (len(cells) - 2) + ["boom"])
    failed, bad = checks.check_sweep(call, "\n".join(lines))
    assert (failed, bad) == (1, [])
    short = "\n".join(text.splitlines()[:-1])
    assert checks.check_sweep(call, short)[1]


@pytest.mark.parametrize("path, delta", [
    (("simulation", "fidelity"), 1e-6),
    (("simulation", "couplings", 0), 1e-9),
    (("population_fit", "c", 1), -0.3),
    (("fidelity", "value"), -0.3),
    (("calibration", "chi2_dark"), 1e4),
    (("parity_scan_double", "period_estimate"), 0.06 * pi),
])
def test_experiment_rejects_perturbed_report(report, path, delta):
    bad = copy.deepcopy(report)
    node = bad
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] += delta
    assert checks.check_experiment(bad)


def test_check_output_flags_unreadable_report(tmp_path):
    call = workloads.build("experiment", 0, tmp_path)[0]
    assert checks.check_output(call, b"{not json")[1]


def test_same_seed_same_inputs_and_bytes(tmp_path):
    a = workloads.build("sweep-dense", 5, tmp_path / "a")
    b = workloads.build("sweep-dense", 5, tmp_path / "b")
    c = workloads.build("sweep-dense", 6, tmp_path / "c")
    assert [x.mu_grid for x in a] == [x.mu_grid for x in b]
    assert [x.mu_grid for x in a] != [x.mu_grid for x in c]
    for x in a:
        assert any(abs(mu - 1.0) < 1e-12 for mu in x.mu_grid)
        assert 0.1 <= min(x.mu_grid) and max(x.mu_grid) <= 10.0
    digests = []
    for k in range(2):
        out = tmp_path / f"{k}.csv"
        assert dickesim_main(a[0].argv_to(out)) == 0
        digests.append(hashlib.sha256(out.read_bytes()).hexdigest())
    assert digests[0] == digests[1]


def test_sweep_large_off_unity_point_and_experiment_order(tmp_path):
    for seed in range(20):
        single = workloads.build("sweep-large", seed, tmp_path / str(seed))[-1]
        (mu,) = single.mu_grid
        assert 0.1 <= mu <= 10.0 and abs(np.log10(mu)) >= 0.1
        exp = workloads.build("experiment", seed, tmp_path / f"e{seed}")
        assert sorted(c.argv[c.argv.index("--seed") + 1] for c in exp) == \
            sorted(str(s) for s in workloads.EXPERIMENT_SEEDS)


def test_tracer_reaches_callers_and_restores(tmp_path):
    import dickesim.sideband as sideband
    import tracing

    original = sideband.first_max_fidelity
    tracer = tracing.Tracer()
    call = workloads._sweep_call(tmp_path, "t", 3, 1, 0.5, 2.0, 3)
    with tracing.patched(tracer):
        with tracer.span(tracing.ROOT):
            assert dickesim_main(call.argv_to(tmp_path / "out.csv")) == 0
    assert sideband.first_max_fidelity is original
    by = tracer.summary()
    for name in ("sideband.first_max_fidelity", "chain.solve_equilibrium",
                 "sideband.rsb_hamiltonian"):
        assert by[name]["calls"] == 3
    root = by[tracing.ROOT]
    assert 0.0 < root["self_s"] < root["s"]


def test_traced_metrics_are_the_declared_ones():
    import tracing
    import worker

    declared = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    measured = set(worker.layer_metrics(tracing.Tracer(), 0)) | {"trace.overhead_s"}
    assert measured == {m["name"] for m in declared["per_layer"]}
