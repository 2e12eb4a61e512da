"""tools/frozen_digests.py runs every frozen command on the working tree,
and its leaf diff names the field that moved most between two outputs."""

import importlib.util
import math
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

EXIT_CODES = {
    "modes-mg_mg_al.csv": 0, "modes-mg_mg_al.json": 0,
    "modes-five.csv": 0, "modes-five.json": 0,
    "modes-nine.csv": 0, "modes-nine.json": 0,
    "modes-unstable.csv": 3,
    "sweep-4-2.csv": 0, "sweep-4-2.json": 0,
    "sweep-8-4.csv": 0, "sweep-8-4.json": 0,
    "sweep-4-2-errors.csv": 0, "sweep-4-2-errors.json": 0,
    "sweep-8-4-errors.csv": 0, "sweep-8-4-errors.json": 0,
    "experiment-seed0.json": 0, "experiment-seed1.json": 0,
    "experiment-seed2.json": 0, "experiment-seed3.json": 0,
    "experiment-seed5-short.json": 0,
    "synth.txt": 0, "bright.txt": 0, "dark.txt": 0,
    "fit-defaults.json": 0, "fit-options.json": 0,
    "fit-bootstrap-1.json": 1, "fit-n-max-10.json": 2,
}


def test_frozen_digests_pin_every_exit_code():
    run = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "frozen_digests.py"),
         str(ROOT / "src")],
        capture_output=True, text=True, check=True, timeout=300)
    lines = [line.split() for line in run.stdout.splitlines()]
    assert all(len(fields) == 3 and len(fields[2]) == 16 for fields in lines)
    assert {name: int(code) for name, code, _ in lines} == EXIT_CODES
    assert len(lines) == len(EXIT_CODES)


def test_largest_change_names_the_leaf_that_moved_most():
    spec = importlib.util.spec_from_file_location(
        "frozen_digests", ROOT / "tools" / "frozen_digests.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    largest_change = tool.largest_change
    old = {"schema": "fit.v1", "n": 3, "ok": True, "nan": math.nan,
           "fit": {"c": [0.2, 0.5, 0.3], "ll": -100.0}}
    new = {"schema": "fit.v1", "n": 3, "ok": True, "nan": math.nan,
           "fit": {"c": [0.2, 0.5004, 0.2999], "ll": -100.0001}}
    change, field = largest_change(old, new)
    assert field == "fit.c[1]"
    assert change == abs(0.5004 - 0.5)
    assert largest_change(old, old) == (0.0, "schema")
    for edit in ({"schema": "fit.v2"}, {"ok": False}, {"n": None},
                 {"fit": {"c": [0.2, 0.5], "ll": -100.0}}):
        assert largest_change(old, {**old, **edit})[0] == math.inf
