"""Golden-artifact check: every subcommand against its committed outputs.

Each case under ``tests/golden/`` holds a small ``config.json`` and the
CSV files that ``sppal.cli.dispatch`` wrote for it when the expected
files were made (``tests/golden/regenerate.py``, which this check also
uses to run the cases, with BLAS pinned to one thread; ``manifest.json``
records the command, the exit status, the numpy, scipy and BLAS versions
and a tolerance per file).  The check compares parsed values, not bytes,
so that a different BLAS build can be judged by the declared tolerance:

* metadata lines must match exactly, except ``config``/``config_hash``
  (the echo of the configuration) and ``versions``;
* a cell that is not a number must match exactly;
* a numeric cell must match exactly unless the file's tolerance names
  its column (or ``*`` for every column): ``["abs", t]`` allows
  ``|actual - expected| <= t`` and ``["rel_max", t]`` allows
  ``t`` times the largest magnitude in the expected column.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

GOLDEN = Path(__file__).resolve().parent / "golden"
MANIFEST = json.loads((GOLDEN / "manifest.json").read_text())
CASES = sorted(MANIFEST["cases"])
_SKIP_META = ("config", "config_hash", "versions")


def parse_csv(text: str) -> tuple:
    """(metadata lines kept for comparison, column names, columns).

    Each column is (values, numeric, cells): ``values`` a float array
    with NaN where a cell is not a number, ``numeric`` its mask, and
    ``cells`` the raw strings, compared as text where not numeric.
    """
    lines = text.splitlines()
    meta = [ln for ln in lines
            if ln.startswith("#") and ln[2:].split(":", 1)[0] not in _SKIP_META]
    body = [ln.split(",") for ln in lines if not ln.startswith("#")]
    names, rows = body[0], body[1:]
    columns = {}
    for j, name in enumerate(names):
        cells = [row[j] for row in rows]
        values = np.full(len(cells), np.nan)
        numeric = np.zeros(len(cells), dtype=bool)
        for i, cell in enumerate(cells):
            try:
                values[i] = float(cell)
                numeric[i] = True
            except ValueError:
                pass
        columns[name] = (values, numeric, cells)
    return meta, names, columns


def mismatches(expected: tuple, actual: tuple, tolerance: dict) -> list:
    """Human-readable differences between two parsed CSV files."""
    (meta_e, names_e, cols_e), (meta_a, names_a, cols_a) = expected, actual
    out = []
    if meta_e != meta_a:
        out.append(f"metadata differs: {sorted(set(meta_e) ^ set(meta_a))}")
    if names_e != names_a:
        return out + [f"columns {names_a} != {names_e}"]
    for name in names_e:
        ve, ne, ce = cols_e[name]
        va, na, ca = cols_a[name]
        if ve.size != va.size:
            out.append(f"{name}: {va.size} rows, expected {ve.size}")
            continue
        if not np.array_equal(ne, na):
            out.append(f"{name}: numeric cells at other rows")
            continue
        text = [i for i in np.flatnonzero(~ne) if ce[i] != ca[i]]
        if text:
            out.append(f"{name}: row {text[0]} {ca[text[0]]!r} != {ce[text[0]]!r}")
        kind, tol = tolerance.get(name, tolerance.get("*", ("abs", 0.0)))
        e, a = ve[ne], va[na]
        if kind == "rel_max":
            tol = tol * (np.max(np.abs(e)) if e.size else 0.0)
        with np.errstate(invalid="ignore"):
            bad = ~((a == e) | (np.abs(a - e) <= tol) | (np.isnan(a) & np.isnan(e)))
        if np.any(bad):
            i = int(np.flatnonzero(bad)[0])
            out.append(f"{name}: {int(bad.sum())} values off, first {a[i]!r} != "
                       f"{e[i]!r} ({kind} tolerance {tol:.3g})")
    return out


def expected_files(name: str) -> list:
    return sorted(p.name for p in (GOLDEN / name).glob("*.csv"))


@pytest.fixture(scope="module")
def golden_run(tmp_path_factory):
    """All cases run once, in a child process with BLAS pinned to one
    thread exactly as when the expected files were written."""
    out = tmp_path_factory.mktemp("golden")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    subprocess.run([sys.executable, str(GOLDEN / "regenerate.py"), "--out", str(out)],
                   env=env, check=True, timeout=600)
    return out, json.loads((out / "status.json").read_text())


@pytest.mark.parametrize("name", CASES)
def test_golden_case(name, golden_run):
    out, status = golden_run
    case = MANIFEST["cases"][name]
    assert status[name] == case["status"]
    assert sorted(p.name for p in (out / name).glob("*.csv")) == expected_files(name)
    for fname in expected_files(name):
        diff = mismatches(parse_csv((GOLDEN / name / fname).read_text()),
                          parse_csv((out / name / fname).read_text()),
                          case["tolerance"].get(fname, {}))
        assert not diff, f"{name}/{fname}: " + "; ".join(diff)


def test_one_ulp_is_caught():
    """Every exactly compared value fails the check when moved by one ulp;
    a toleranced value fails when moved past its tolerance."""
    checked = 0
    for name in CASES:
        tolerances = MANIFEST["cases"][name]["tolerance"]
        for fname in expected_files(name):
            tolerance = tolerances.get(fname, {})
            parsed = parse_csv((GOLDEN / name / fname).read_text())
            meta, names, cols = parsed
            for col in names:
                values, numeric, cells = cols[col]
                kind, tol = tolerance.get(col, tolerance.get("*", ("abs", 0.0)))
                if kind == "rel_max":
                    tol = tol * np.max(np.abs(values[numeric]))
                for i in np.flatnonzero(numeric & np.isfinite(values)):
                    moved = values.copy()
                    moved[i] = (np.nextafter(values[i], np.inf) if tol == 0.0
                                else values[i] + 2.0 * tol)
                    perturbed = dict(cols)
                    perturbed[col] = (moved, numeric, cells)
                    assert mismatches(parsed, (meta, names, perturbed), tolerance), \
                        f"{name}/{fname}: {col}[{i}] moved unnoticed"
                    checked += 1
    assert checked > 900
