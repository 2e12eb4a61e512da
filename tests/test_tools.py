"""tools/frozen_digests.py runs every frozen command on the working tree,
its leaf diff names the field that moved most between two outputs, and
its tree comparison exits 1 when any output differs; tools/code_lines.py
counts the lines that hold code."""

import hashlib
import importlib.util
import json
import math
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

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
    "sweep-14-7.csv": 0,
    "sweep-centre-4-2-errors.csv": 0, "sweep-centre-4-2-errors.json": 0,
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


def load_tool():
    spec = importlib.util.spec_from_file_location(
        "frozen_digests", ROOT / "tools" / "frozen_digests.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def test_largest_change_names_the_leaf_that_moved_most():
    largest_change = load_tool().largest_change
    old = {"schema": "fit.v1", "n": 3, "ok": True, "nan": math.nan,
           "fit": {"c": [0.2, 0.5, 0.3], "ll": -100.0}}
    new = {"schema": "fit.v1", "n": 3, "ok": True, "nan": math.nan,
           "fit": {"c": [0.2, 0.5004, 0.2999], "ll": -100.0001}}
    change, rel, field = largest_change(old, new)
    assert field == "fit.c[1]"
    assert change == abs(0.5004 - 0.5)
    assert rel == change / 0.5004
    # a small leaf can move least in absolute terms and most relative to
    # its size
    big_small = ({"a": 1000.0, "b": [0.001]}, {"a": 1000.1, "b": [0.002]})
    assert largest_change(*big_small)[2] == "a"
    assert largest_change(*big_small, relative=True) == (0.001, 0.5, "b[0]")
    for relative in (False, True):
        assert largest_change(old, old, relative=relative) == (0.0, 0.0,
                                                               "schema")
        for edit in ({"schema": "fit.v2"}, {"ok": False}, {"n": None},
                     {"fit": {"c": [0.2, 0.5], "ll": -100.0}},
                     {"n": math.inf}):
            assert largest_change(old, {**old, **edit},
                                  relative=relative)[:2] == (math.inf,
                                                             math.inf)


def fake_runs(trees):
    """A stand-in for ``subprocess.run`` on ``frozen_digests.run``: for the
    tree named in the command it writes that tree's outputs into the work
    directory and prints their digest lines, as the real run does."""
    def run(argv, **kwargs):
        tree, workdir = Path(argv[-2]).name, Path(argv[-1])
        if tree not in trees:
            return SimpleNamespace(returncode=1, stdout="",
                                   stderr=f"no tree {tree}\n")
        lines = []
        for name, (code, payload) in trees[tree].items():
            text = json.dumps(payload)
            (workdir / name).write_text(text)
            digest = hashlib.sha256(text.encode()).hexdigest()[:16]
            lines.append(f"{name} {code} {digest}")
        return SimpleNamespace(returncode=0, stdout="\n".join(lines) + "\n",
                               stderr="")
    return run


@pytest.mark.parametrize("edit,status,printed", [
    ({}, 0, "2 of 2 outputs identical"),
    ({"b.json": (0, {"x": [1.0, 2.5]})}, 1, "largest change 0.5 at x[1]"),
    ({"a.json": (3, {"y": 1})}, 1, "a.json: exit 0 -> 3"),
    # the leaf that moved most in absolute terms is not the one that moved
    # most relative to its size
    ({"b.json": (0, {"x": [1.4, 2.5]})}, 1,
     "largest change 0.5 at x[1] (0.2 relative); largest relative change "
     "0.286 at x[0]"),
])
def test_compare_exits_1_when_an_output_differs(monkeypatch, capsys, edit,
                                                status, printed):
    tool = load_tool()
    old = {"a.json": (0, {"y": 1}), "b.json": (0, {"x": [1.0, 2.0]})}
    monkeypatch.setattr(tool.subprocess, "run",
                        fake_runs({"old": old, "new": {**old, **edit}}))
    assert tool.compare("new", "old") == status
    out = capsys.readouterr().out
    assert printed in out
    assert out.endswith(f"{2 - status} of 2 outputs identical\n")


def test_compare_exits_1_when_a_tree_fails(monkeypatch, capsys):
    tool = load_tool()
    monkeypatch.setattr(tool.subprocess, "run", fake_runs({}))
    assert tool.compare("new", "old") == 1
    assert "no tree old" in capsys.readouterr().err


CODE_LINES_SAMPLE = '''"""A module docstring
over two lines."""

import os  # a trailing comment leaves its line a code line

# a comment line


class Thing:
    """A class docstring."""

    def path(self):
        """A function docstring
        over two lines."""
        note = """a string that is no docstring:

        each of its lines is code"""
        return os.path.join(
            "a",
            note)
'''


def test_code_lines_counts_the_lines_that_hold_code(tmp_path):
    # import, class, def, the three lines of the note and the three of the
    # call
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "sample.py").write_text(CODE_LINES_SAMPLE)
    (tmp_path / "first.py").write_text('"""Only a docstring."""\nx = 1\n')
    (tmp_path / "notes.txt").write_text("x = 1\n")
    run = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "code_lines.py"), str(tmp_path)],
        capture_output=True, text=True, check=True, timeout=60)
    assert run.stdout.splitlines() == ["     1 first.py",
                                       "     9 pkg/sample.py",
                                       "    10 total"]
