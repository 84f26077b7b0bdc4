"""Write the reference outputs the benchmark checks against.

    python3 bench/make_reference.py [--workload NAME] [--seeds 32]

audio_field stores the outputs of seed 0 (the reference drive); every other
seed is checked against them through the bilinear law.  sweep stores the
per-cell flags and L_pa,c at the 1 V reference drive; every seed is checked
against them through the V-squared law.  design_loop stores the front's
hypervolume for each of the seeds 0 .. seeds-1; other seeds get the
structural checks only.

Regenerate only with a change that is meant to move the outputs, and say by
how much in its description.
"""

from __future__ import annotations

import argparse
import json
import shutil

import worker
import workloads

SPL_FIELDS = ("re_p", "im_p", "spl_db")


def run_outputs(cli, config, workload: str, seed: int):
    out = worker.BENCH / "out" / f"reference-{workload}-seed{seed}"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    for i, (cmd, raw) in enumerate(workloads.commands(workload, seed)):
        path = out / f"config_{i}_{cmd}.json"
        path.write_text(json.dumps(raw))
        status, _, caught = cli.dispatch(cmd, config.load_config(path), out)
        if status != 0:
            raise SystemExit(f"{workload} seed {seed}: {cmd} exited {status}: {caught}")
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=workloads.WORKLOADS, action="append")
    p.add_argument("--seeds", type=int, default=32)
    args = p.parse_args(argv)
    cli, config = worker.import_sppal()
    ref_dir = worker.BENCH / "reference"
    ref_dir.mkdir(exist_ok=True)
    for workload in args.workload or workloads.WORKLOADS:
        if workload == "audio_field":
            out = run_outputs(cli, config, workload, 0)
            doc = {}
            for name in ("audio_pc", "audio_bp"):
                src = json.loads((out / f"{name}.json").read_text())
                doc[name] = {k: src[k] for k in ("abscissa",) + SPL_FIELDS}
        elif workload == "design_loop":
            hv_ref = [0.0, 0.4 * workloads.REFERENCE_CELL["f_u0_hz"]]
            doc = {"hv_ref_point": hv_ref, "hypervolume": {}}
            for seed in range(args.seeds):
                src = json.loads((run_outputs(cli, config, workload, seed)
                                  / "pareto.json").read_text())
                doc["hypervolume"][str(seed)] = worker.hypervolume(
                    src["f1_ms"], src["f2_hz"], hv_ref)
                print(workload, seed, doc["hypervolume"][str(seed)], flush=True)
        else:
            rows = json.loads((run_outputs(cli, config, workload, None)
                               / "sweep.json").read_text())["rows"]
            doc = {"drive_voltage_v": 1.0,
                   "rows": [{k: r[k] for k in ("f_u0_hz", "r_p_m", "flags", "f_dist_hz",
                                               "l_pa_c_db")} for r in rows]}
            print(workload, [r["flags"] or r["l_pa_c_db"] for r in rows], flush=True)
        (ref_dir / f"{workload}.json").write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
