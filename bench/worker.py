"""The benchmark's worker process: set-up, then iterations on request.

Started by run.py:

    python3 bench/worker.py --workload NAME --seed N --run-dir DIR
                            --trace 0|1 --spawn-time T [--setup-only]

It pins the BLAS threads before numpy loads, imports sppal from the
checkout's src/, loads the configs run.py wrote and builds the medium, then
prints one JSON line with its set-up time.  ``--setup-only`` exits there.
Otherwise it reads iteration numbers from standard input, one a line, and
for each empties sppal's caches, runs the workload's subcommands through
``sppal.cli.dispatch``, checks the outputs and prints one JSON line.  It
exits at the end of its input.  With ``--trace 1`` every iteration is
traced (bench/spans.py).
"""

from __future__ import annotations

import os

THREADS = 1
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(THREADS)

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import workloads  # noqa: E402

#: audio SPL tolerance against the reference: the solver's stated accuracy
#: (acceptance test 06, fast path vs 3-D brute force, 0.5 dB)
SPL_TOL_DB = 0.5
#: seeded fronts must not move (ROADMAP aim 3); 1e-3 leaves room only for
#: last-bit changes in the objectives, not for a different search path
HV_TOL_REL = 1e-3
#: +-theta pairs of audio-bp are the same observation point
SYMMETRY_TOL_REL = 1e-9


def import_sppal():
    import sppal
    from sppal import cli, config
    if Path(sppal.__file__).resolve().parent != ROOT / "src" / "sppal":
        raise ImportError(f"sppal imported from {sppal.__file__}, not from {ROOT / 'src'}")
    return cli, config


def _env() -> dict:
    import scipy
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    with open("/proc/self/status") as fh:
        threads = next(int(line.split()[1]) for line in fh if line.startswith("Threads:"))
    return {"blas_threads": THREADS, "process_threads": threads,
            "nproc": os.cpu_count(), "python": sys.version.split()[0],
            "numpy": np.__version__, "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}"}


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------

def _reference(workload: str) -> dict:
    return json.loads((BENCH / "reference" / f"{workload}.json").read_text())


def _complex(doc: dict) -> np.ndarray:
    return np.asarray(doc["re_p"], dtype=float) + 1j * np.asarray(doc["im_p"], dtype=float)


def hypervolume(f1, f2, ref) -> float:
    """Area dominated by the points (both minimized) up to ``ref``."""
    pts = sorted((a, b) for a, b in zip(f1, f2) if a < ref[0] and b < ref[1])
    hv, best_f2 = 0.0, ref[1]
    for a, b in pts:
        if b < best_f2:
            hv += (ref[0] - a) * (best_f2 - b)
            best_f2 = b
    return hv


def check_audio_field(out: Path, seed: int, commands: list) -> dict:
    """Points against the reference scaled by conj(s1)*s2, and +-theta symmetry."""
    ref = _reference("audio_field")
    s1, s2 = workloads.audio_scalings(seed)
    scale = s1.conjugate() * s2
    bad = {}
    spl_dev = rel_dev = sym_dev = 0.0
    for cmd in commands:
        name = cmd["command"].replace("-", "_")
        want = scale * _complex(ref[name])
        try:
            doc = json.loads((out / f"{name}.json").read_text())
            got = _complex(doc)
            spl = np.asarray(doc["spl_db"], dtype=float)
        except (OSError, KeyError, ValueError) as e:
            bad[cmd["command"]] = f"unreadable output: {e}"
            continue
        if got.shape != want.shape:
            bad[cmd["command"]] = f"{got.size} points, want {want.size}"
            continue
        spl_want = np.asarray(ref[name]["spl_db"]) + 20.0 * math.log10(abs(scale))
        dev = np.abs(spl - spl_want)
        fail = ~np.isfinite(got) | ~np.isfinite(spl) | ~(dev <= SPL_TOL_DB)
        spl_dev = max(spl_dev, float(np.max(np.where(np.isfinite(dev), dev, np.inf))))
        rel_dev = max(rel_dev, float(np.max(np.abs(got - want)) / np.max(np.abs(want))))
        if name == "audio_bp":
            sym = np.abs(got - got[::-1]) / np.max(np.abs(got))
            sym_dev = float(np.max(sym))
            fail |= ~(sym <= SYMMETRY_TOL_REL)
        if fail.any():
            bad[cmd["command"]] = f"{int(fail.sum())} of {fail.size} points failed"
        cmd["failed_ops"] = int(fail.sum())
    return {"bad": bad, "audio_spl_dev_db": spl_dev, "audio_rel_dev": rel_dev,
            "audio_bp_symmetry_dev": sym_dev}


def check_design_loop(out: Path, seed: int, commands: list) -> dict:
    """Front non-dominated, feasible, trade-off monotone; hypervolume vs reference."""
    ref = _reference("design_loop")
    try:
        doc = json.loads((out / "pareto.json").read_text())
        f1 = np.asarray(doc["f1_ms"], dtype=float)
        f2 = np.asarray(doc["f2_hz"], dtype=float)
        flags = list(doc["flags"])
    except (OSError, KeyError, ValueError) as e:
        return {"bad": {"pareto": f"unreadable output: {e}"}}
    problems = []
    if f1.size == 0:
        problems.append("empty front")
    if not (np.all(np.isfinite(f1)) and np.all(np.isfinite(f2))):
        problems.append("non-finite objectives")
    if any(flags):
        problems.append(f"flagged front points: {sorted(set(flags))}")
    # written sorted by F2: a non-dominated 2-objective front then has F1
    # strictly falling while F2 strictly rises
    if not (np.all(np.diff(f2) > 0) and np.all(np.diff(f1) < 0)):
        problems.append("front not trade-off monotone (or dominated points)")
    hv = hypervolume(f1, f2, ref["hv_ref_point"])
    result = {"front_size": int(f1.size), "hypervolume": hv}
    ref_hv = ref["hypervolume"].get(str(seed))
    if ref_hv is not None:
        result["front_hv_rel_dev"] = abs(hv - ref_hv) / ref_hv
        if not result["front_hv_rel_dev"] <= HV_TOL_REL:
            problems.append(f"hypervolume {hv:.6g} vs reference {ref_hv:.6g}")
    result["bad"] = {"pareto": "; ".join(problems)} if problems else {}
    return result


def check_sweep(out: Path, seed: int, commands: list) -> dict:
    """Row count and order, finite values, flags; L_pa,c against the 1 V
    reference moved by 40*log10(V) dB (audio pressure goes as V squared)."""
    ref_rows = _reference("sweep")["rows"]
    shift_db = 40.0 * math.log10(workloads.sweep_voltage(seed))
    try:
        rows = json.loads((out / "sweep.json").read_text())["rows"]
    except (OSError, KeyError, ValueError) as e:
        return {"bad": {"sweep": f"unreadable output: {e}"}}
    cells = [(f, r) for f in workloads.SWEEP_F_U0_HZ for r in workloads.SWEEP_R_P_M]
    if [(row["f_u0_hz"], row["r_p_m"]) for row in rows] != cells:
        return {"bad": {"sweep": f"rows {[(r['f_u0_hz'], r['r_p_m']) for r in rows]} "
                                 f"do not match the grid {cells}"}}
    lo, hi = workloads.SWEEP_WINDOW_HZ
    problems, failed, spl_dev, reached = [], 0, 0.0, 0
    for row, want in zip(rows, ref_rows):
        why = None
        if row["flags"] == "no_design_in_window":
            if any(row[k] != "" for k in ("l_pa_c_db", "d_ac_m", "f_dist_hz")):
                why = "values on a cell without design"
        elif row["flags"] != "":
            why = f"flags {row['flags']}"
        else:
            reached += 1
            vals = [row[k] for k in ("l_pa_c_db", "d_ac_m", "f_dist_hz", "f1_ms")]
            if not all(isinstance(v, (int, float)) and math.isfinite(v) for v in vals):
                why = f"non-finite or missing values {vals}"
            elif not (row["d_ac_m"] > 0 and lo < row["f_dist_hz"] < hi and row["f1_ms"] < 0):
                why = "values out of range"
        if why is None:
            if row["flags"] != want["flags"]:
                why = f"flags {row['flags']!r}, reference {want['flags']!r}"
            elif row["flags"] == "":
                dev = abs(row["l_pa_c_db"] - (want["l_pa_c_db"] + shift_db))
                spl_dev = max(spl_dev, dev)
                if not dev <= SPL_TOL_DB:
                    why = f"L_pa,c off the reference by {dev:.3g} dB"
        if why is not None:
            failed += 1
            problems.append(f"cell ({row['f_u0_hz']:g} Hz, {row['r_p_m']:g} m): {why}")
    commands[0]["failed_ops"] = failed
    return {"bad": {"sweep": "; ".join(problems)} if problems else {},
            "cells_reached_audio": reached, "audio_spl_dev_db": spl_dev}


CHECKS = {"audio_field": check_audio_field, "design_loop": check_design_loop,
          "sweep": check_sweep}


# ---------------------------------------------------------------------------
# per-layer metrics of a traced iteration
# ---------------------------------------------------------------------------

def layer_metrics(summary: dict, commands: list) -> dict:
    """The per_layer metrics of BENCHMARK.json from one traced iteration."""
    names, layers, counters = summary["names"], summary["layers"], summary["counters"]

    def calls(name):
        return names.get(name, {}).get("calls", 0)

    def secs(name, kind="s"):
        return names.get(name, {}).get(kind, 0.0)

    def ratio(num, den):
        return num / den if den else 0.0

    evaluations = calls("optimizer.evaluate_design")
    knees = calls("optimizer.select_knee")
    fronts = calls("optimizer.optimize_lengths")
    return {
        "linfield.pressure_grid.calls": calls("linfield.pressure_grid"),
        "linfield.pressure_grid.s": secs("linfield.pressure_grid"),
        "linfield.pressure_grid.points": counters.get("linfield.pressure_grid.points", 0),
        "linfield.equivalence_ratio.calls": calls("linfield.equivalence_ratio"),
        "linfield.equivalence_ratio.s": secs("linfield.equivalence_ratio"),
        "linfield.piston_radiation_impedance.calls": calls("linfield.piston_radiation_impedance"),
        "linfield.piston_radiation_impedance.s": secs("linfield.piston_radiation_impedance"),
        "nlfield.build_volume_grid.s": secs("nlfield.build_volume_grid"),
        "nlfield.grid_cells": counters.get("nlfield.grid_cells", 0),
        "nlfield.solver_init.calls": calls("nlfield.solver_init"),
        "nlfield.solver_init.self_s": secs("nlfield.solver_init", "self_s"),
        "nlfield.on_axis.points": counters.get("nlfield.on_axis.points", 0),
        "nlfield.on_axis.s": secs("nlfield.on_axis"),
        "nlfield.off_axis.points": counters.get("nlfield.off_axis.points", 0),
        "nlfield.off_axis.s": secs("nlfield.off_axis"),
        "nlfield.tail_warnings": sum(len(c["warnings"]) for c in commands),
        "transducer.frf_transfer_matrix.calls": calls("transducer.frf_transfer_matrix"),
        "transducer.frf_transfer_matrix.s": secs("transducer.frf_transfer_matrix"),
        "transducer.build_stack.s": secs("transducer.build_stack"),
        "transducer.extract_dr_features.s": secs("transducer.extract_dr_features"),
        "transducer.plate_load_impedance.s": secs("transducer.plate_load_impedance"),
        "optimizer.evaluations": evaluations,
        "optimizer.evaluate_design.self_s": secs("optimizer.evaluate_design", "self_s"),
        "optimizer.infeasible_ratio": ratio(counters.get("optimizer.infeasible", 0), evaluations),
        "optimizer.nsga2.generations": counters.get("optimizer.nsga2.generations", 0),
        "optimizer.nsga2.self_s": secs("optimizer.nsga2", "self_s"),
        "optimizer.design_context.builds": calls("optimizer.design_context"),
        "optimizer.audio_capability.calls": calls("optimizer.audio_capability"),
        "optimizer.audio_capability.s": secs("optimizer.audio_capability"),
        "optimizer.window_hit_ratio": ratio(counters.get("optimizer.window_hits", 0), knees),
        "optimizer.front_size": ratio(counters.get("optimizer.front_points", 0), fronts),
        "radiator.calls": sum(v["calls"] for k, v in names.items() if k.startswith("radiator.")),
        "io.bytes": counters.get("io.bytes", 0),
        "cli.exit_nonzero": sum(1 for c in commands if c["status"] != 0),
        "radiator.s": layers["radiator"],
        "medium.s": layers["medium"],
        "config.s": layers["config"],
        "io.write.s": layers["io"],
        "cli.dispatch.self_s": layers["cli"],
        "linfield.self_s": layers["linfield"],
        "nlfield.self_s": layers["nlfield"],
        "transducer.self_s": layers["transducer"],
        "optimizer.self_s": layers["optimizer"],
    }


# ---------------------------------------------------------------------------
# main
# ---------------------------------------------------------------------------

def load(args, config) -> list:
    """Load and validate the run's configs and build the medium (set-up)."""
    run_dir = Path(args.run_dir)
    loaded = []
    for i, (cmd, _) in enumerate(workloads.commands(args.workload, args.seed)):
        cfg = config.load_config(run_dir / f"config_{i}_{cmd}.json")
        config.require_blocks(cfg, cmd, cfg.raw)
        loaded.append((cmd, cfg))
    loaded[0][1].medium()
    return loaded


def reset_caches():
    """Empty sppal's in-process caches, so that every iteration does the
    work of a fresh ``sppal`` process: the ``functools`` caches of every
    module and every class-level ``_cache`` dict (``DesignContext``)."""
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "sppal" or name.startswith("sppal.")):
            continue
        for val in list(vars(mod).values()):
            if callable(getattr(val, "cache_clear", None)):
                val.cache_clear()
            elif isinstance(val, type) and isinstance(vars(val).get("_cache"), dict):
                val._cache.clear()
    gc.collect()


def iteration(args, cli, loaded, index: int, tracer) -> dict:
    """Run the workload's subcommands once, check the outputs."""
    reset_caches()
    if tracer is not None:
        tracer.reset(index)
    out = Path(args.run_dir) / f"iter{index}"
    ops = workloads.operations(args.workload)
    commands = []
    t_start, cpu_start = time.perf_counter(), time.process_time()
    for cmd, cfg in loaded:
        t0 = time.perf_counter()
        entry = {"command": cmd, "ops": ops[cmd], "failed_ops": 0, "warnings": [],
                 "status": None, "error": None}
        try:
            status, _, caught = cli.dispatch(cmd, cfg, out)
            entry.update(status=status, warnings=caught)
        except Exception:  # recorded as failed operations, the run goes on
            entry["error"] = traceback.format_exc(limit=4)
        entry["s"] = time.perf_counter() - t0
        commands.append(entry)
    result = {"iteration": index, "traced": tracer is not None,
              "wall_s": time.perf_counter() - t_start,
              "cpu_s": time.process_time() - cpu_start,
              "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}

    checks = CHECKS[args.workload](out, args.seed, commands)
    for c in commands:
        # a raised command, a non-zero exit or an output that cannot be
        # checked point by point fails all of the command's operations
        if (c["error"] is not None or c["status"] != 0
                or (c["command"] in checks["bad"] and c["failed_ops"] == 0)):
            c["failed_ops"] = c["ops"]
    result.update(commands=commands, checks=checks)
    if tracer is not None:
        summary = tracer.summary()
        result["layers"] = layer_metrics(summary, commands)
        result["span_durations"] = {k: v["durations"] for k, v in summary["names"].items()}
        result["trace_problems"] = summary["problems"]
        tracer.write(Path(args.run_dir) / f"spans-iter{index}.jsonl")
    return result


def _reply(obj):
    sys.stdout.write(json.dumps(obj) + "\n")
    sys.stdout.flush()


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--run-dir", required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--spawn-time", type=float, required=True)
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)
    cli, config = import_sppal()
    loaded = load(args, config)
    ready = {"setup_s": time.time() - args.spawn_time, "env": _env()}
    if args.setup_only:
        _reply(ready)
        return 0
    tracer = None
    if args.trace:
        from spans import Tracer
        tracer = Tracer()
        tracer.install()
    _reply(ready)
    for line in sys.stdin:
        _reply(iteration(args, cli, loaded, int(line), tracer))
    return 0


if __name__ == "__main__":
    sys.exit(main())
