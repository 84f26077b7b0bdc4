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
sys.path.insert(0, str(GOLDEN))
from golden_csv import deviations, format_deviations, parse_csv  # noqa: E402
from sppal.__main__ import BLAS_THREAD_VARS  # noqa: E402

MANIFEST = json.loads((GOLDEN / "manifest.json").read_text())
CASES = sorted(MANIFEST["cases"])


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


def test_cli_entry_pins_blas_threads(tmp_path):
    """``python -m sppal`` with no thread variable set writes the golden
    bytes: the entry point pins BLAS to one thread before numpy loads."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARS}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    proc = subprocess.run([sys.executable, "-m", "sppal", "audio-pc", "--config",
                           str(GOLDEN / "audio_pc" / "config.json"), "--out", str(tmp_path)],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == MANIFEST["cases"]["audio_pc"]["status"], proc.stderr
    diff = mismatches(parse_csv((GOLDEN / "audio_pc" / "audio_pc.csv").read_text()),
                      parse_csv((tmp_path / "audio_pc.csv").read_text()), {})
    assert not diff, "; ".join(diff)


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="needs CPU affinity")
def test_one_cpu_writes_the_golden_values(tmp_path):
    """A child restricted to one CPU writes the golden values of every case
    that evaluates audio points: the solver's two primaries and the blocks
    of its audio sums run on two threads, and their bits do not depend on
    the number of cores those threads share."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    env.update(dict.fromkeys(BLAS_THREAD_VARS, "1"))
    code = ("import os, sys; os.sched_setaffinity(0, {min(os.sched_getaffinity(0))}); "
            "from sppal.__main__ import main; sys.exit(main(sys.argv[1:]))")
    for name in ("audio_pc", "audio_bp", "audio_fr", "cd_contour", "sweep"):
        case = MANIFEST["cases"][name]
        proc = subprocess.run([sys.executable, "-c", code, case["command"], "--config",
                               str(GOLDEN / name / "config.json"), "--out", str(tmp_path)],
                              env=env, capture_output=True, text=True, timeout=300)
        assert proc.returncode == case["status"], proc.stderr
        for fname in expected_files(name):
            diff = mismatches(parse_csv((GOLDEN / name / fname).read_text()),
                              parse_csv((tmp_path / fname).read_text()), {})
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


def test_deviation_table_of_two_directories(tmp_path):
    """``regenerate.py --diff`` reports the largest absolute and relative
    move of every numeric column, and flags changed text and what cannot
    be compared."""
    header = "# sppal: demo\n# config_hash: {}\n"
    files = {
        "expected": {"a.csv": "x,spl_db,label\n1.0,60.0,on\n2.0,-50.0,off\n3.0,nan,on\n",
                     "b.csv": "x,y\n1.0,2.0\n", "gone.csv": "x\n1.0\n"},
        "actual": {"a.csv": "x,spl_db,label\n1.0,60.5,on\n2.0,-50.0,off\n3.0,nan,off\n",
                   "b.csv": "x,y\n1.0,n/a\n"},
    }
    for side, content in files.items():
        case = tmp_path / side / "case"
        case.mkdir(parents=True)
        for i, (fname, body) in enumerate(content.items()):
            (case / fname).write_text(header.format(i) + body)
    rows = deviations(tmp_path / "expected", tmp_path / "actual", ["case"])
    assert rows == [
        ("case/a.csv", "x", 0.0, 0.0),
        ("case/a.csv", "spl_db", 0.5, 0.5 / 60.0),
        ("case/a.csv", "label", None, None),
        ("case/b.csv", "x", 0.0, 0.0),
        ("case/b.csv", "y", None, None),
        ("case/gone.csv", "(file on one side only)", None, None),
    ]
    table = format_deviations(rows).splitlines()
    assert table[0].split() == ["file", "column", "max_abs", "rel_max"]
    assert table[2].split() == ["case/a.csv", "spl_db", "0.5", "0.00833"]
    assert table[5].split() == ["case/b.csv", "y", "differs"]
