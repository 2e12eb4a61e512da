"""The chain and pulse paths run on numpy alone: importing the package and
running `modes` or `sweep` loads no scipy module, and the readout commands
load scipy on first use.  Each check runs in a fresh interpreter, since
this test session has scipy loaded already.  The CLI only parses,
dispatches and writes: the readout pipeline is the library's."""

import ast
import json
import os
import subprocess
import sys
import types
from pathlib import Path

import dickesim

SRC = str(Path(dickesim.__file__).resolve().parent.parent)

SCIPY_MODULES = ("sorted(name for name in sys.modules "
                 "if name == 'scipy' or name.startswith('scipy.'))")


def write_chain(tmp_path, ancilla_index):
    path = tmp_path / "chain.cfg"
    path.write_text("masses = 25, 25, 27\nomega_z = 2.55e6\n"
                    "reference_index = 0\nk_projection = 1.1e7\n"
                    f"ancilla_index = {ancilla_index}\n")
    return str(path)


def run_fresh(code, tmp_path):
    """Run ``code`` in a new interpreter; return its last stdout line as
    JSON."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=env,
                          capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_chain_and_pulse_commands_load_no_scipy(tmp_path):
    cfg = write_chain(tmp_path, ancilla_index=1)
    code = f"""
import json, sys
loaded = {{}}
import dickesim
loaded["import dickesim"] = {SCIPY_MODULES}
import dickesim.cli
loaded["import dickesim.cli"] = {SCIPY_MODULES}
from dickesim.cli import main
assert main(["modes", "--config", {cfg!r}, "--out", "modes.csv"]) == 0
loaded["modes"] = {SCIPY_MODULES}
assert main(["sweep", "--config", {cfg!r}, "--m", "1", "--mu-points", "3",
             "--format", "json", "--out", "sweep.json"]) == 0
loaded["sweep"] = {SCIPY_MODULES}
print(json.dumps(loaded))
"""
    loaded = run_fresh(code, tmp_path)
    assert loaded == {step: [] for step in
                      ("import dickesim", "import dickesim.cli", "modes",
                       "sweep")}
    assert (tmp_path / "modes.csv").read_text().startswith("# modes.v1")
    assert json.loads((tmp_path / "sweep.json").read_text())["rows"]


def test_experiment_loads_scipy_on_first_use(tmp_path):
    cfg = write_chain(tmp_path, ancilla_index=2)
    code = f"""
import json, sys
from dickesim.cli import main
assert main(["experiment", "--config", {cfg!r}, "--shots", "500",
             "--seed", "0", "--out", "report.json"]) == 0
print(json.dumps({SCIPY_MODULES}))
"""
    assert "scipy.optimize" in run_fresh(code, tmp_path)
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["schema"] == "experiment.v1"


def test_cli_reaches_the_library_through_public_names_only():
    tree = ast.parse((Path(dickesim.__file__).parent / "cli.py").read_text(
        "utf-8"))
    private = [alias.name for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom)
               and (node.level or (node.module or "").startswith("dickesim"))
               for alias in node.names
               if alias.name.startswith("_") and not alias.name.endswith("__")]
    assert private == []
    called = {node.func.id if isinstance(node.func, ast.Name)
              else getattr(node.func, "attr", None)
              for node in ast.walk(tree) if isinstance(node, ast.Call)}
    assert not called & {"calibrate", "ml_fit"}
    # bench/test_checks.py imports run_experiment from the CLI module
    from dickesim.cli import run_experiment
    assert run_experiment is dickesim.run_experiment


def test_star_import_binds_the_public_names_and_no_module():
    # __all__ is every name the package imports from its submodules, and
    # none of the submodules those imports bind
    tree = ast.parse(Path(dickesim.__file__).read_text("utf-8"))
    imported = {alias.name for node in tree.body
                if isinstance(node, ast.ImportFrom) and node.level == 1
                for alias in node.names}
    namespace = {}
    exec("from dickesim import *", namespace)
    del namespace["__builtins__"]
    assert not [name for name, value in namespace.items()
                if isinstance(value, types.ModuleType)]
    assert set(namespace) == set(dickesim.__all__) == imported
