"""Spans around dickesim's public functions, recorded from outside the
package: each traced name is patched in every dickesim module that holds
it, which is where its callers look it up."""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

# (module, function) pairs wrapped during a traced pass.
TRACED = (
    ("chain", "solve_equilibrium"),
    ("chain", "solve_axial_modes"),
    ("sideband", "fidelity_vs_mass_ratio"),
    ("sideband", "first_max_fidelity"),
    ("sideband", "first_max_from_couplings"),
    ("sideband", "rsb_hamiltonian"),
    ("sideband", "reduce_to_qubits"),
    ("dicke", "rotated_density"),
    ("detection", "composite_dists"),
    ("detection", "calibrate"),
    ("detection", "synthesize_shots"),
    ("detection", "ml_fit"),
    ("detection", "parity_scan_analysis"),
    ("detection", "estimate_period"),
)
ROOT = "cli.main"


class Tracer:
    """Spans kept in memory: [name, start, end, parent index, em_fits]."""

    def __init__(self):
        self.spans = []
        self._open = []

    @contextmanager
    def span(self, name, em_fits=0):
        parent = self._open[-1] if self._open else None
        record = [name, time.perf_counter(), None, parent, em_fits]
        self._open.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._open.pop()

    def wrap(self, name, fn):
        count_fits = name == "detection.ml_fit"
        signature = inspect.signature(fn) if count_fits else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            fits = 0
            if count_fits:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                fits = 1 + bound.arguments["n_bootstrap"]
            with self.span(name, fits):
                return fn(*args, **kwargs)

        return traced

    def as_json(self):
        return [{"name": n, "start": s, "end": e, "parent": p}
                for n, s, e, p, _ in self.spans]

    def summary(self):
        """Per span name: calls, inclusive seconds, self seconds, em_fits."""
        child = defaultdict(float)
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        out = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0, "em_fits": 0})
        for i, (name, start, end, _, fits) in enumerate(self.spans):
            row = out[name]
            row["calls"] += 1
            row["s"] += end - start
            row["self_s"] += end - start - child[i]
            row["em_fits"] += fits
        return out


@contextmanager
def patched(tracer):
    """Replace every TRACED function, in every loaded dickesim module that
    refers to it, with a span-recording wrapper; restore on exit."""
    modules = [mod for name, mod in list(sys.modules.items())
               if name == "dickesim" or name.startswith("dickesim.")]
    undo = []
    try:
        for mod_name, fn_name in TRACED:
            original = getattr(sys.modules[f"dickesim.{mod_name}"], fn_name)
            wrapper = tracer.wrap(f"{mod_name}.{fn_name}", original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        undo.append((mod, attr, original))
                        setattr(mod, attr, wrapper)
        yield
    finally:
        for mod, attr, original in reversed(undo):
            setattr(mod, attr, original)
