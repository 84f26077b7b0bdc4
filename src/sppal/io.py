"""CSV/JSON artifact writers with self-describing metadata.

Every output carries the resolved run configuration (hash and echo),
the seed and package versions, so re-running the embedded configuration
reproduces the file byte for byte.  No timestamps, locale-independent
full-precision numbers, LF line endings.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

from .linfield import FieldCurve


def _fmt(x) -> str:
    """Full-precision, locale-independent scalar formatting."""
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, (float, np.floating)):
        return repr(float(x))
    return str(x)


def config_hash(config: dict) -> str:
    """Stable hash of a JSON-compatible configuration mapping."""
    canon = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()[:16]


def _version_block() -> dict:
    import numpy
    import scipy

    from . import __version__

    return {"sppal": __version__, "numpy": numpy.__version__,
            "scipy": scipy.__version__}


def metadata_block(config: dict | None, seed=None) -> dict:
    meta = {"versions": _version_block()}
    if config is not None:
        meta["config_hash"] = config_hash(config)
        meta["config"] = config
    if seed is not None:
        meta["seed"] = int(seed)
    return meta


def write_csv(path, columns: dict, meta: dict | None = None) -> Path:
    """Write named columns with '#'-prefixed metadata header lines."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    names = list(columns)
    arrays = [np.atleast_1d(np.asarray(columns[k])) for k in names]
    n = arrays[0].size
    if any(a.size != n for a in arrays):
        raise ValueError("all CSV columns must share one length")
    lines = []
    if meta:
        flat = dict(meta)
        cfg = flat.pop("config", None)
        for k in sorted(flat):
            lines.append(f"# {k}: {json.dumps(flat[k], sort_keys=True)}")
        if cfg is not None:
            lines.append(f"# config: {json.dumps(cfg, sort_keys=True)}")
    lines.append(",".join(names))
    for i in range(n):
        lines.append(",".join(_fmt(a[i]) for a in arrays))
    path.write_text("\n".join(lines) + "\n", newline="\n")
    return path


def write_json(path, payload: dict, meta: dict | None = None) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    doc = {"meta": meta or {}, **payload}
    path.write_text(json.dumps(doc, sort_keys=True, indent=1, default=_json_default)
                    + "\n", newline="\n")
    return path


def _json_default(o):
    if isinstance(o, (np.integer,)):
        return int(o)
    if isinstance(o, (np.floating,)):
        return float(o)
    if isinstance(o, np.ndarray):
        return o.tolist()
    if isinstance(o, complex):
        return [o.real, o.imag]
    raise TypeError(f"not JSON-serializable: {type(o)}")


def curve_columns(curve: FieldCurve) -> dict:
    """The standard curve column set: abscissa, re_p, im_p, spl_db."""
    return {
        "abscissa": curve.abscissa,
        "re_p": curve.pressure.real,
        "im_p": curve.pressure.imag,
        "spl_db": curve.spl,
    }


def write_columns(path_base, columns: dict, meta: dict | None = None,
                  formats=("csv", "json")) -> list:
    """Write named columns as ``<path_base>.csv`` and/or ``<path_base>.json``."""
    written = []
    if "csv" in formats:
        written.append(write_csv(f"{path_base}.csv", columns, meta))
    if "json" in formats:
        written.append(write_json(f"{path_base}.json", columns, meta))
    return written


def write_curve(path_base, curve: FieldCurve, medium_state: dict,
                meta: dict | None = None, formats=("csv", "json")) -> list:
    """Write a field curve as CSV and/or JSON next to each other."""
    full_meta = dict(meta or {})
    full_meta.setdefault("f_hz", curve.f)
    full_meta.setdefault("kind", curve.kind)
    full_meta.setdefault("medium", medium_state)
    full_meta.update({k: v for k, v in curve.meta.items()})
    return write_columns(path_base, curve_columns(curve), full_meta, formats)


def write_matrix_csv(path, row_labels, col_labels, matrix, corner: str,
                     meta: dict | None = None) -> Path:
    """Contour-ready matrix: first row/column carry the grid labels."""
    matrix = np.asarray(matrix)
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = []
    if meta:
        for k in sorted(meta):
            lines.append(f"# {k}: {json.dumps(meta[k], sort_keys=True)}")
    lines.append(",".join([corner] + [_fmt(c) for c in col_labels]))
    for lbl, row in zip(row_labels, matrix):
        lines.append(",".join([_fmt(lbl)] + [_fmt(v) for v in row]))
    path.write_text("\n".join(lines) + "\n", newline="\n")
    return path
