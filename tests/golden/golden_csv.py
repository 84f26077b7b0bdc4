"""Parsing and comparison of the golden check's CSV files.

Shared by ``tests/test_golden.py``, which compares a fresh run against
the committed files within the manifest's tolerances, and by
``regenerate.py --diff``, which prints how far each column moved.
Importing it has no side effects.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

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


def deviations(expected_root, actual_root, cases) -> list:
    """How far each numeric column of each case's CSV files moved.

    Returns rows ``(case/file, column, max_abs, rel_max)``: the largest
    |actual - expected| over the column and that divided by the largest
    |expected| in it (the manifest's ``rel_max`` convention).  Equal cells,
    infinities and NaNs count as 0.  A file or column on one side only,
    numeric cells at other rows, or a text column (such as ``x_m`` or
    ``flags``) whose cells differ gives a row with ``None`` deviations;
    an unchanged text column gives no row.
    """
    rows = []
    for case in cases:
        files = {p.name for root in (expected_root, actual_root)
                 for p in (Path(root) / case).glob("*.csv")}
        for fname in sorted(files):
            label = f"{case}/{fname}"
            paths = [Path(root) / case / fname for root in (expected_root, actual_root)]
            if not all(p.exists() for p in paths):
                rows.append((label, "(file on one side only)", None, None))
                continue
            (_, names_e, cols_e), (_, _, cols_a) = (parse_csv(p.read_text()) for p in paths)
            for name in names_e:
                ve, ne, ce = cols_e[name]
                va, na, ca = cols_a.get(name, (None, None, None))
                if va is not None and not ne.any() and ce == ca:
                    continue
                if va is None or not ne.any() or not np.array_equal(ne, na):
                    rows.append((label, name, None, None))
                    continue
                e, a = ve[ne], va[ne]
                with np.errstate(invalid="ignore"):
                    same = (a == e) | (np.isnan(a) & np.isnan(e))
                    diff = np.where(same, 0.0, np.abs(a - e))
                max_abs = float(np.max(diff))
                scale = float(np.max(np.abs(e[np.isfinite(e)]), initial=0.0))
                rows.append((label, name, max_abs, max_abs / scale if scale else max_abs))
    return rows


def format_deviations(rows) -> str:
    """The rows of :func:`deviations` as an aligned text table."""
    lines = [f"{'file':<40} {'column':<24} {'max_abs':>10} {'rel_max':>10}"]
    for label, column, max_abs, rel in rows:
        nums = ("differs", "") if max_abs is None else (f"{max_abs:.3g}", f"{rel:.3g}")
        lines.append(f"{label:<40} {column:<24} {nums[0]:>10} {nums[1]:>10}")
    return "\n".join(lines)
