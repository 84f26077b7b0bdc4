"""Regenerate the expected artifacts of the golden check.

    PYTHONPATH=src python tests/golden/regenerate.py [case ...]
    PYTHONPATH=src python tests/golden/regenerate.py --out DIR
    PYTHONPATH=src python tests/golden/regenerate.py --diff [case ...]

Runs each case's ``config.json`` through ``sppal.cli.dispatch`` with BLAS
pinned to one thread (the last digits of BLAS products depend on the
thread count), writes its CSV files next to the config, and records the
exit status and the numpy, scipy and BLAS versions in ``manifest.json``.
Tolerances in the manifest are left as they are.  With no case named
every case is regenerated.  A change that regenerates a file must say
which, with its tolerance and the reason, in CHANGES.md.

With ``--out DIR`` every case runs into ``DIR/<case>/`` instead and the
exit statuses go to ``DIR/status.json``; ``tests/test_golden.py`` runs
it that way and leaves the expected files alone.

With ``--diff`` the cases run into a temporary directory and a table of
the largest absolute and relative (to the column's largest magnitude)
deviation of every numeric column from the committed files is printed,
naming every text column that changed; nothing is written.  It gives the per-file, per-column figures CHANGES.md
lists when a change moves the expected files.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import json  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

from golden_csv import deviations, format_deviations  # noqa: E402
from sppal import cli  # noqa: E402
from sppal.config import load_config  # noqa: E402

GOLDEN = Path(__file__).resolve().parent
MANIFEST = GOLDEN / "manifest.json"


def run_case(name: str, out_dir) -> tuple:
    """Run one case into ``out_dir``; returns (exit status, written paths)."""
    cmd = json.loads(MANIFEST.read_text())["cases"][name]["command"]
    cfg = load_config(GOLDEN / name / "config.json")
    formats = tuple(cfg.block("output")["formats"])
    status, written, _ = cli.dispatch(cmd, cfg, out_dir, formats)
    return status, written


def versions() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__, "scipy": scipy.__version__,
            "blas": f"{blas['name']} {blas['version']}"}


def main(args) -> int:
    manifest = json.loads(MANIFEST.read_text())
    if args[:1] == ["--out"]:
        out = Path(args[1])
        status = {name: run_case(name, out / name)[0] for name in sorted(manifest["cases"])}
        (out / "status.json").write_text(json.dumps(status) + "\n")
        return 0
    if args[:1] == ["--diff"]:
        names = args[1:] or sorted(manifest["cases"])
        with tempfile.TemporaryDirectory() as tmp:
            for name in names:
                run_case(name, Path(tmp) / name)
            print(format_deviations(deviations(GOLDEN, tmp, names)))
        return 0
    for name in args or sorted(manifest["cases"]):
        case_dir = GOLDEN / name
        for old in case_dir.glob("*.csv"):
            old.unlink()
        status, written = run_case(name, case_dir)
        manifest["cases"][name]["status"] = status
        print(f"{name}: exit {status}, " + ", ".join(p.name for p in map(Path, written)))
    manifest["written_with"] = versions()
    MANIFEST.write_text(json.dumps(manifest, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
