"""Run-time tracing of sppal's public functions, from outside the package.

``Tracer.install()`` replaces each target with a wrapper wherever the name
is bound: in its defining module, in every sppal module that imported it by
name (``nlfield`` imports ``pressure_grid``, ``transducer`` imports
``piston_radiation_impedance``), or on its class for methods.  Each call
records a span (id, parent id, iteration id, name, layer, start, end) in
memory; ``write()`` dumps them as JSON lines at the end of each iteration.  A
layer's self time is the time of its spans minus the time of their child
spans.  Everything runs on one thread, so nothing waits in a queue.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from collections import defaultdict
from pathlib import Path

LAYERS = ("medium", "radiator", "linfield", "nlfield", "transducer",
          "optimizer", "config", "io", "cli")


def _grid_points(args, res):
    return len(args["rho_obs"]) * len(args["z_obs"])


def _off_axis_points(args, res):
    return int((res.abscissa != 0.0).sum())


def _file_bytes(args, res):
    return Path(res).stat().st_size


# span name -> (module, attribute or Class.method); the layer is the module
TARGETS = {
    "medium.build_medium": ("medium", "build_medium"),
    "medium.absorption_coeff": ("medium", "absorption_coeff"),
    "medium.absorption_coeff_db": ("medium", "absorption_coeff_db"),
    "radiator.radial_sample_count": ("radiator", "radial_sample_count"),
    "radiator.piston_profile": ("radiator", "piston_profile"),
    "radiator.plate_mode_shape": ("radiator", "plate_mode_shape"),
    "radiator.size_plate_for": ("radiator", "size_plate_for"),
    "radiator.stepped_profile": ("radiator", "stepped_profile"),
    "radiator.first_local_max": ("radiator", "first_local_max"),
    "radiator.aperture_for_cd": ("radiator", "aperture_for_cd"),
    "linfield.pressure_grid": ("linfield", "pressure_grid"),
    "linfield.equivalence_ratio": ("linfield", "equivalence_ratio"),
    "linfield.piston_radiation_impedance": ("linfield", "piston_radiation_impedance"),
    "linfield.propagation_curve": ("linfield", "propagation_curve"),
    "linfield.beam_pattern": ("linfield", "beam_pattern"),
    "linfield.rayleigh_field": ("linfield", "rayleigh_field"),
    "linfield.rayleigh_pressure": ("linfield", "rayleigh_pressure"),
    "linfield.axial_piston_pressure": ("linfield", "axial_piston_pressure"),
    "linfield.farfield_pressure": ("linfield", "farfield_pressure"),
    "nlfield.build_volume_grid": ("nlfield", "build_volume_grid"),
    "nlfield.solver_init": ("nlfield", "QuasilinearSolver.__init__"),
    "nlfield.on_axis": ("nlfield", "QuasilinearSolver.propagation_curve"),
    "nlfield.off_axis": ("nlfield", "QuasilinearSolver.beam_pattern"),
    "nlfield.audio_propagation_curve": ("nlfield", "audio_propagation_curve"),
    "nlfield.audio_beam_pattern": ("nlfield", "audio_beam_pattern"),
    "nlfield.find_audio_cd": ("nlfield", "find_audio_cd"),
    "transducer.build_stack": ("transducer", "build_stack"),
    "transducer.frf_transfer_matrix": ("transducer", "frf_transfer_matrix"),
    "transducer.extract_dr_features": ("transducer", "extract_dr_features"),
    "transducer.plate_load_impedance": ("transducer", "plate_load_impedance"),
    "transducer.objectives": ("transducer", "objectives"),
    "transducer.langevin_initial_lengths": ("transducer", "langevin_initial_lengths"),
    "optimizer.evaluate_design": ("optimizer", "evaluate_design"),
    "optimizer.nsga2": ("optimizer", "nsga2"),
    "optimizer.optimize_lengths": ("optimizer", "optimize_lengths"),
    "optimizer.design_context": ("optimizer", "DesignContext.__init__"),
    "optimizer.audio_capability": ("optimizer", "audio_capability"),
    "optimizer.select_knee": ("optimizer", "select_knee"),
    "optimizer.design_sweep": ("optimizer", "design_sweep"),
    "config.load_config": ("config", "load_config"),
    "config.validate_config": ("config", "validate_config"),
    "config.require_blocks": ("config", "require_blocks"),
    "config.medium": ("config", "RunConfig.medium"),
    "io.metadata_block": ("io", "metadata_block"),
    "io.write_curve": ("io", "write_curve"),
    "io.write_csv": ("io", "write_csv"),
    "io.write_json": ("io", "write_json"),
    "io.write_matrix_csv": ("io", "write_matrix_csv"),
    "cli.dispatch": ("cli", "dispatch"),
}

# span name -> [(counter, f(bound arguments, result) -> amount)]
COUNTERS = {
    "linfield.pressure_grid": [("linfield.pressure_grid.points", _grid_points)],
    "nlfield.build_volume_grid": [("nlfield.grid_cells", lambda a, r: r.n_cells)],
    "nlfield.on_axis": [("nlfield.on_axis.points", lambda a, r: r.abscissa.size)],
    "nlfield.off_axis": [("nlfield.off_axis.points", _off_axis_points)],
    "optimizer.evaluate_design": [("optimizer.infeasible", lambda a, r: bool(r.flags))],
    "optimizer.nsga2": [("optimizer.nsga2.generations",
                         lambda a, r: a["config"].generations)],
    "optimizer.select_knee": [("optimizer.window_hits", lambda a, r: r is not None)],
    "optimizer.optimize_lengths": [("optimizer.front_points",
                                    lambda a, r: len(r.points))],
    "io.write_csv": [("io.bytes", _file_bytes)],
    "io.write_json": [("io.bytes", _file_bytes)],
    "io.write_matrix_csv": [("io.bytes", _file_bytes)],
}


class Tracer:
    """In-memory span recorder of one worker process, one iteration at a time."""

    def __init__(self):
        self.problems = []       # targets not found, counters that failed
        self.reset(None)

    def reset(self, iteration):
        """Drop the spans and counters recorded so far; start ``iteration``."""
        self.iteration = iteration
        self.spans = []          # (id, parent, name, layer, t0, t1)
        self.counters = defaultdict(int)
        self._stack = []
        self._next_id = 0

    def install(self):
        """Wrap every target in the already imported sppal package."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "sppal" or n.startswith("sppal."))]
        for name, (mod_name, attr) in TARGETS.items():
            try:
                owner = importlib.import_module(f"sppal.{mod_name}")
                for part in attr.split(".")[:-1]:
                    owner = getattr(owner, part)
                original = getattr(owner, attr.split(".")[-1])
            except (ImportError, AttributeError):
                self.problems.append(f"target {mod_name}.{attr} not found")
                continue
            wrapper = self._wrap(original, name, mod_name)
            if inspect.isclass(owner):
                setattr(owner, attr.split(".")[-1], wrapper)
                continue
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is original:
                        setattr(mod, key, wrapper)

    def _wrap(self, fn, name, layer):
        counters = COUNTERS.get(name, ())
        signature = inspect.signature(fn) if counters else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self._next_id
            self._next_id += 1
            parent = self._stack[-1] if self._stack else None
            self._stack.append(sid)
            t0 = time.perf_counter()
            try:
                res = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                self._stack.pop()
                self.spans.append((sid, parent, name, layer, t0, t1))
            if counters:
                bound = signature.bind(*args, **kwargs).arguments
                for counter, amount in counters:
                    try:
                        self.counters[counter] += amount(bound, res)
                    except Exception as e:  # a changed return type must not stop the run
                        self.problems.append(f"counter {counter}: {type(e).__name__}: {e}")
            return res

        return traced

    def summary(self) -> dict:
        """Per span name: calls, inclusive and self seconds, call durations;
        per layer: self seconds; plus the counters."""
        child = defaultdict(float)
        for sid, parent, name, layer, t0, t1 in self.spans:
            if parent is not None:
                child[parent] += t1 - t0
        names = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0, "durations": []})
        layers = {layer: 0.0 for layer in LAYERS}
        for sid, parent, name, layer, t0, t1 in self.spans:
            d = t1 - t0
            own = d - child[sid]
            entry = names[name]
            entry["calls"] += 1
            entry["s"] += d
            entry["self_s"] += own
            entry["durations"].append(d)
            layers[layer] += own
        return {"names": dict(names), "layers": layers,
                "counters": dict(self.counters), "problems": self.problems}

    def write(self, path):
        """Write the spans as JSON lines (one object per span)."""
        with open(path, "w") as fh:
            for sid, parent, name, layer, t0, t1 in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent,
                                     "iteration": self.iteration, "name": name,
                                     "layer": layer, "start": t0, "end": t1}) + "\n")
