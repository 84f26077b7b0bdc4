"""sppal benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload audio_field|design_loop|sweep
                         --seed N --seconds S --trace 0|1

Runs closed-loop iterations of the workload in one long-lived worker process
(bench/worker.py) until S seconds have passed, with set-up-only workers and
runs of a reference process spread over the run, then prints a report and,
as its last line, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end_to_end metrics of BENCHMARK.json,
taken from untraced iterations.  With --trace 1 the run alternates
iterations between an untraced and a traced worker and the metrics are the
per_layer ones, from the traced iterations, plus trace.overhead_s (traced
minus untraced wall time).  Everything the run writes goes to bench/out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import select
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import workloads  # noqa: E402

#: a run must end within 180 s; no iteration starts that would not fit
RUN_LIMIT_S = 165.0
#: set-up samples per run, from set-up-only workers spread over the run,
#: each followed by one sample of the reference process
SETUP_SAMPLES = 8
#: the reference process: the third-party imports sppal makes, nothing of
#: sppal.  Its time measures how fast the machine runs during the run.
REFERENCE_ARGV = [sys.executable, "-c", "import numpy, scipy.optimize, scipy.special"]
#: the reference process's time at the reference speed [s]; gated times
#: are measured times scaled by REFERENCE_S / the run's median reference
#: time (README, "Noise")
REFERENCE_S = 0.8
#: the output deviation each workload reports against its reference
DEVIATION = {"audio_field": ("audio_spl_dev_db", "dB"),
             "design_loop": ("front_hv_rel_dev", "1"),
             "sweep": ("audio_spl_dev_db", "dB")}


def _tail(values):
    """(percentile, value) of the highest percentile with >= 10 samples beyond it."""
    n = len(values)
    if n < 11:
        return None
    return 100.0 * (n - 10) / n, sorted(values)[n - 11]


def _source_identity() -> dict:
    """git SHA when the checkout is a repository, and a hash of src/ always."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.TimeoutExpired):
        sha = None
    return {"git_sha": sha, "src_sha256": digest.hexdigest()[:16]}


class Worker:
    """A worker process that runs iterations on request (bench/worker.py)."""

    def __init__(self, run: "Run", trace: bool, setup_only: bool = False):
        self.run = run
        argv = [sys.executable, str(BENCH / "worker.py"),
                "--workload", run.args.workload, "--seed", str(run.args.seed),
                "--run-dir", str(run.dir), "--trace", str(int(trace)),
                "--spawn-time", repr(time.time())]
        if setup_only:
            argv.append("--setup-only")
        self.stderr = open(run.dir / f"worker-{'setup' if setup_only else trace}.log", "a")
        self.proc = subprocess.Popen(argv, cwd=ROOT, stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, stderr=self.stderr, text=True)

    def reply(self):
        """The worker's next JSON object line (other output is skipped), or
        None if it ended, failed or ran past the run's time limit (then it
        is stopped)."""
        while True:
            remaining = RUN_LIMIT_S - self.run.elapsed()
            ready, _, _ = select.select([self.proc.stdout], [], [], max(remaining, 0.0))
            line = self.proc.stdout.readline() if ready else ""
            if not line:
                self.stop()
                return None
            try:
                obj = json.loads(line)
            except ValueError:
                continue
            if isinstance(obj, dict):
                return obj

    def ask(self, index: int):
        try:
            self.proc.stdin.write(f"{index}\n")
            self.proc.stdin.flush()
        except OSError:
            return None
        return self.reply()

    def failure(self) -> str:
        """The last lines of the worker's standard error."""
        if not self.stderr.closed:
            self.stderr.flush()
        lines = Path(self.stderr.name).read_text().strip().splitlines()
        return f"worker exit {self.proc.returncode}: " + " | ".join(lines[-3:])

    def stop(self):
        """End the worker and wait for it (closing its input ends it)."""
        if self.proc.stdin and not self.proc.stdin.closed:
            try:
                self.proc.stdin.close()
            except OSError:
                pass
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()
        self.stderr.close()


class Run:
    def __init__(self, args):
        self.args = args
        self.dir = BENCH / "out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
        self.t_begin = time.perf_counter()
        self.iterations = []      # worker results of iterations
        self.setups = []          # setup_s samples
        self.references = []      # reference process samples
        self.setup_attempts = 0
        self.failures = []        # iterations or set-ups that gave no result
        self.env = {}

    def elapsed(self) -> float:
        return time.perf_counter() - self.t_begin

    def prepare(self):
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        for i, (cmd, cfg) in enumerate(workloads.commands(self.args.workload, self.args.seed)):
            (self.dir / f"config_{i}_{cmd}.json").write_text(json.dumps(cfg, indent=1))

    def setup_sample(self):
        """One set-up-only worker, from spawn to ready."""
        self.setup_attempts += 1
        worker = Worker(self, trace=False, setup_only=True)
        ready = worker.reply()
        worker.stop()
        if ready is None:
            self.failures.append("set-up: " + worker.failure())
            return
        self.setups.append(ready["setup_s"])
        self.env = ready["env"]
        self.reference_sample()

    def reference_sample(self):
        """One run of the reference process, from spawn to exit."""
        env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
                   MKL_NUM_THREADS="1")
        t0 = time.perf_counter()
        try:
            proc = subprocess.run(REFERENCE_ARGV, cwd=ROOT, env=env, capture_output=True,
                                  timeout=max(RUN_LIMIT_S - self.elapsed(), 1.0))
        except subprocess.TimeoutExpired:
            self.failures.append("reference process timed out")
            return
        if proc.returncode != 0:
            self.failures.append(f"reference process exit {proc.returncode}")
            return
        self.references.append(time.perf_counter() - t0)

    def execute(self):
        """Iterations back to back in long-lived workers, with set-up samples
        spread evenly over the run, until the next iteration would end after
        --seconds.  With --trace 1 the iterations alternate between an
        untraced and a traced worker."""
        seconds = self.args.seconds
        workers = [Worker(self, trace=False)]
        if self.args.trace:
            workers.append(Worker(self, trace=True))
        try:
            for w in workers:
                ready = w.reply()
                if ready is None:
                    self.failures.append("start: " + w.failure())
                    return
                self.env = ready["env"]
            i = 0
            while True:
                # set-up samples spread evenly over the run
                while self.setup_attempts < min(SETUP_SAMPLES,
                                                SETUP_SAMPLES * self.elapsed() / seconds):
                    self.setup_sample()
                w = workers[i % len(workers)]
                t0 = self.elapsed()
                result = w.ask(i)
                if result is None:
                    self.failures.append(f"iteration {i}: " + w.failure())
                    return
                self.iterations.append(result)
                i += 1
                took = self.elapsed() - t0
                if ((self.elapsed() + took > seconds and i >= len(workers))
                        or self.elapsed() + 1.2 * took > RUN_LIMIT_S):
                    break
            while self.setup_attempts < SETUP_SAMPLES and self.elapsed() + 5.0 < RUN_LIMIT_S:
                self.setup_sample()
        finally:
            for w in workers:
                w.stop()


def _median(values):
    return statistics.median(values) if values else None




def summarize(run: Run, spec: dict) -> tuple:
    """(report lines, final JSON object)."""
    args = run.args
    plain = [r for r in run.iterations if not r["traced"]]
    traced = [r for r in run.iterations if r["traced"]]
    ops = workloads.operations(args.workload)
    attempted = failed = 0
    bad = []
    for r in run.iterations:
        for c in r["commands"]:
            attempted += c["ops"]
            failed += c["failed_ops"]
            if c["error"]:
                bad.append(f"{c['command']} raised: {c['error'].strip().splitlines()[-1]}")
        bad += [f"{k}: {v}" for k, v in r["checks"]["bad"].items()]
    # an iteration, set-up or reference run that gave no result counts as an
    # iteration whose operations all failed
    attempted += len(run.failures) * sum(ops.values())
    failed += len(run.failures) * sum(ops.values())
    bad += run.failures
    if args.trace and not traced:
        bad.append("no traced iteration completed")

    # measured times -> seconds at the reference speed
    speed = REFERENCE_S / _median(run.references)

    def cmd_times(name):
        return [c["s"] * speed for r in plain for c in r["commands"] if c["command"] == name]

    rows = [("setup_s", "s", [t * speed for t in run.setups]),
            ("iteration_s", "s", [r["wall_s"] * speed for r in plain]),
            ("setup_raw_s", "s", run.setups),
            ("iteration_raw_s", "s", [r["wall_s"] for r in plain]),
            ("iteration_cpu_s", "s", [r["cpu_s"] for r in plain]),
            ("reference_s", "s", run.references)]
    if args.workload == "audio_field":
        rows += [("audio_pc_s", "s", cmd_times("audio-pc")),
                 ("audio_bp_s", "s", cmd_times("audio-bp"))]
    elif args.workload == "design_loop":
        rows.append(("pareto_s", "s", cmd_times("pareto")))
    else:
        rows.append(("sweep_cells_per_h", "1/h",
                     [ops["sweep"] * 3600.0 / s for s in cmd_times("sweep")]))
    # ru_maxrss of the long-lived worker: its peak over all iterations so far
    rows.append(("peak_rss_mb", "MB", [plain[-1]["rss_mb"]] if plain else []))

    lines = [f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
             f"iterations {len(plain)} untraced + {len(traced)} traced  "
             f"run {run.elapsed():.1f} s",
             "env " + json.dumps(dict(run.env, **_source_identity()), sort_keys=True),
             f"{'metric':34s} {'unit':6s} {'median':>14s}  {'n':>4s}  tail"]
    for name, unit, vals in rows:
        tail = _tail(vals)
        tail_txt = f"p{tail[0]:.1f}={tail[1]:.6g}" if tail else "n/a (n < 11)"
        med = _median(vals)
        lines.append(f"{name:34s} {unit:6s} {med if med is not None else float('nan'):14.6g}"
                     f"  {len(vals):4d}  {tail_txt}")
    key, unit = DEVIATION[args.workload]
    vals = [r["checks"][key] for r in run.iterations if key in r["checks"]]
    lines.append(f"{key:34s} {unit:6s} {max(vals):14.6g}  {len(vals):4d}  (max)" if vals else
                 f"{key:34s} {unit:6s} {'absent':>14s}  (no reference for seed {args.seed})")
    lines.append(f"{'failed_fraction':34s} {'1':6s} {failed / max(attempted, 1):14.6g}"
                 f"  {attempted:4d}  ({failed} of {attempted} operations)")
    statuses = [c["status"] for r in run.iterations for c in r["commands"]]
    warnings = sum(len(c["warnings"]) for r in run.iterations for c in r["commands"])
    lines.append(f"counts [count]: cli exit statuses {statuses}, "
                 f"tail warnings {warnings}")
    for r in run.iterations[:1]:
        extra = {k: v for k, v in r["checks"].items() if k != "bad"}
        lines.append("checks " + json.dumps(extra, sort_keys=True))
    lines += [f"FAILED {b}" for b in bad]

    metrics = {}
    if args.trace:
        lines += _layer_report(traced, plain, spec, metrics)
    else:
        for m in spec["end_to_end"]:
            vals = dict((n, v) for n, _, v in rows).get(m["name"])
            if vals:
                metrics[m["name"]] = {"value": _median(vals), "unit": m["unit"]}
    result = {"correct": not bad, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    return lines, result


def _layer_report(traced, plain, spec, metrics) -> list:
    lines = []
    if not traced:
        return lines
    for m in spec["per_layer"]:
        name, unit = m["name"], m["unit"]
        if name == "trace.overhead_s":
            if plain:
                value = (_median([r["wall_s"] for r in traced])
                         - _median([r["wall_s"] for r in plain]))
                metrics[name] = {"value": value, "unit": unit}
            continue
        vals = [r["layers"][name] for r in traced]
        metrics[name] = {"value": _median(vals), "unit": unit}
        if unit == "count" and len(set(vals)) > 1:
            lines.append(f"NOTE count {name} differs between iterations: {vals}")
    lines.append(f"{'per-layer metric':44s} {'unit':6s} {'median':>14s}")
    for name, entry in metrics.items():
        tag = " [count]" if entry["unit"] == "count" else ""
        lines.append(f"{name:44s} {entry['unit']:6s} {entry['value']:14.6g}{tag}")

    def per(total, count, label):
        t, c = metrics[total]["value"], metrics[count]["value"]
        lines.append(f"{label:44s} {'s':6s} " + (f"{t / c:14.6g}" if c else f"{'absent':>14s}"))

    per("nlfield.on_axis.s", "nlfield.on_axis.points", "nlfield.on_axis.s_per_point")
    per("nlfield.off_axis.s", "nlfield.off_axis.points", "nlfield.off_axis.s_per_point")
    per("optimizer.nsga2.self_s", "optimizer.nsga2.generations",
        "optimizer.nsga2.self_s_per_generation")
    # per-call durations of the spans with many calls
    durations = {}
    for r in traced:
        for k, v in r["span_durations"].items():
            durations.setdefault(k, []).extend(v)
    for name in ("optimizer.evaluate_design", "transducer.frf_transfer_matrix",
                 "linfield.pressure_grid", "nlfield.solver_init"):
        vals = durations.get(name, [])
        if vals:
            tail = _tail(vals)
            tail_txt = f"p{tail[0]:.1f}={tail[1]:.6g}" if tail else "n/a (n < 11)"
            lines.append(f"span {name:39s} {'s':6s} {_median(vals):14.6g}  "
                         f"n={len(vals)}  {tail_txt}")
    problems = sorted({p for r in traced for p in r["trace_problems"]})
    lines += [f"NOTE trace: {p}" for p in problems]
    return lines


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="sppal benchmark (see bench/README.md)")
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    if not (ROOT / "src" / "sppal" / "__init__.py").is_file():
        print(f"error: no sppal sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    run = Run(args)
    run.prepare()
    run.execute()
    if not run.iterations or not run.references:
        print("error: no iteration or no reference sample completed:\n  "
              + "\n  ".join(run.failures), file=sys.stderr)
        return 1
    lines, result = summarize(run, spec)
    (run.dir / "result.json").write_text(json.dumps(
        {"report": lines, "result": result, "iterations": run.iterations,
         "setup_s": run.setups, "failures": run.failures}, indent=1, default=str))
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
