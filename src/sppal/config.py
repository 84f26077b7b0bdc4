"""Run configuration: strict JSON schema with defaults and validation.

All physical quantities are SI with unit-suffixed field names.  Unknown
fields are errors (never silently ignored) and semantic validation
reports every violated rule at once.  Defaults the library also has are
read from the library (``SolverSettings``, ``NsgaConfig``, the sweep
grid, window and ``design_sweep`` arguments), never restated.
"""

from __future__ import annotations

import inspect
import json
from dataclasses import dataclass, field
from pathlib import Path

from .errors import ConfigError
from .medium import ABSORPTION_MODELS, Medium, build_medium
from .nlfield import SolverSettings
from .optimizer import DEFAULT_SWEEP_GRID, F_DIST_WINDOW, NsgaConfig, design_sweep
from .radiator import Boundary, StepPolicy
from .transducer import PzgKind, StackConfig

_REQUIRED = object()
_SWEEP_ARGS = inspect.signature(design_sweep).parameters

# block -> field -> default (_REQUIRED marks mandatory-on-use fields)
_SCHEMA = {
    "medium": {
        "temperature_c": 20.0,
        "relative_humidity": 0.70,
        "pressure_kpa": 101.325,
        "beta": 1.2,
        "absorption": "iso9613-1",
    },
    "source": {
        "kind": "piston",            # piston | plate
        "radius_m": None,            # piston: explicit or from d_uc/f
        "velocity_ms": [0.1, 0.0],   # complex as [re, im]
        "d_uc_m": None,
        "f_u0_hz": None,
        "mode_m": 8,
        "material": "aluminum",
        "boundary": "free",
        "steps": "standard",         # standard | none
    },
    "pair": {
        "f_carrier_hz": _REQUIRED,
        "f_audio_hz": None,
        "f_audio_grid_hz": None,
        "v1_ms": [0.1, 0.0],
        "v2_ms": [0.1, 0.0],
        "surrogate": None,           # nested block, see _SURROGATE_SCHEMA
    },
    "solver": {
        "ppw_axial": SolverSettings.ppw_axial,
        "ppw_radial": SolverSettings.ppw_radial,
        "audio_ppw": SolverSettings.audio_ppw,
        "truncation_db": SolverSettings.truncation_db,
        "tail_warn_fraction": SolverSettings.tail_warn_fraction,
        # z_* feed only pc and audio-pc: audio-fr and cd-contour locate the
        # maximum on each pair's own grid (nlfield.critical_point)
        "z_start_m": 0.05,
        "z_stop_m": 2.0,
        "z_points": 60,
        "theta_max_deg": 30.0,
        "theta_points": 61,
        "range_m": 1.0,
        "f_lo_hz": None,
        "f_hi_hz": None,
        "f_points": 41,
    },
    "optimizer": {
        "pop": NsgaConfig.pop,
        "generations": NsgaConfig.generations,
        "seed": NsgaConfig.seed,
        "d_uc_m": 0.45,
        "f_u0_hz": 60e3,
        "mode_m": 8,
        "config": "full",
        "r_p_m": 9e-3,
        "l_p_m": _SWEEP_ARGS["l_p"].default,
        "r_h_m": 0.75e-3,
        "f_dist_window_hz": list(F_DIST_WINDOW),
        "drive_voltage_v": _SWEEP_ARGS["drive_voltage"].default,
        "sweep_d_uc_m": list(DEFAULT_SWEEP_GRID["d_uc"]),
        "sweep_f_u0_hz": list(DEFAULT_SWEEP_GRID["f_u0"]),
        "sweep_mode_m": list(DEFAULT_SWEEP_GRID["mode_m"]),
        "sweep_config": [c.value for c in DEFAULT_SWEEP_GRID["config"]],
        "sweep_r_p_m": list(DEFAULT_SWEEP_GRID["r_p"]),
        "sweep_r_h_m": list(DEFAULT_SWEEP_GRID["r_h"]),
        "sweep_f_a_hz": list(_SWEEP_ARGS["f_a_grid"].default),
    },
    "cr": {
        "modal_freqs_hz": [],
        "audio_band_hz": [100.0, 6000.0],
        "tol_hz": 100.0,
    },
    "output": {
        "directory": "out",
        "formats": ["csv", "json"],
    },
}

_SURROGATE_SCHEMA = {
    "kind": _REQUIRED,        # SR | DR
    "gain": 1.0,
    "f_r1_hz": None,
    "f_r2_hz": _REQUIRED,
    "f_anti_hz": None,
    "loss_factor": 0.05,
}

#: blocks each subcommand needs beyond the always-present defaults
COMMAND_BLOCKS = {
    "pc": ("source",),
    "bp": ("source",),
    "er": ("source",),
    "audio-pc": ("pair", "source"),
    "audio-bp": ("pair", "source"),
    "audio-fr": ("pair", "source"),
    "cd-contour": (),
    "pareto": ("optimizer",),
    "sweep": ("optimizer",),
    "cr-screen": ("cr",),
}


@dataclass
class RunConfig:
    """Validated configuration with all defaults resolved."""

    raw: dict
    resolved: dict = field(default_factory=dict)

    def block(self, name: str) -> dict:
        return self.resolved[name]

    def medium(self) -> Medium:
        b = self.block("medium")
        med = build_medium(b["temperature_c"], b["relative_humidity"],
                           b["pressure_kpa"], b["beta"])
        if b["absorption"] == "none":
            med = med.lossless()
        return med

    def echo(self) -> dict:
        """The fully resolved configuration (reproducibility record)."""
        return self.resolved


def _validate_block(name: str, schema: dict, given: dict, errors: list) -> dict:
    out = {}
    for key, val in given.items():
        if key not in schema:
            errors.append(f"{name}.{key}: unknown field (strict schema)")
    for key, default in schema.items():
        if key in given:
            out[key] = given[key]
        elif default is _REQUIRED:
            out[key] = None  # checked on use by the command
        else:
            out[key] = default
    return out


def _is_complex_pair(v) -> bool:
    """A complex value given as [re, im]: two numbers, not booleans."""
    return (isinstance(v, (list, tuple)) and len(v) == 2
            and all(isinstance(c, (int, float)) and not isinstance(c, bool)
                    for c in v))


def _check_choice(errors: list, name: str, value, allowed) -> None:
    """Report ``value`` unless it is one of ``allowed``, values or enum members."""
    allowed = [getattr(v, "value", v) for v in allowed]
    if value not in allowed:
        errors.append(f"{name}: must be " + " or ".join(map(repr, allowed)))


def _semantic_checks(resolved: dict, errors: list, provided=()):
    med = resolved["medium"]
    if not -20.0 <= med["temperature_c"] <= 50.0:
        errors.append("medium.temperature_c: outside [-20, 50]")
    if not 0.0 <= med["relative_humidity"] <= 1.0:
        errors.append("medium.relative_humidity: outside [0, 1]")
    if not 0.0 < med["pressure_kpa"] <= 200.0:
        errors.append("medium.pressure_kpa: outside (0, 200]")
    _check_choice(errors, "medium.absorption", med["absorption"], ABSORPTION_MODELS)

    src = resolved["source"]
    _check_choice(errors, "source.kind", src["kind"], ("piston", "plate"))
    if "source" in provided:
        if src["kind"] == "plate":
            for k in ("d_uc_m", "f_u0_hz"):
                if src[k] is None:
                    errors.append(f"source.{k}: required for plate sources")
            if src["mode_m"] < 1:
                errors.append("source.mode_m: must be >= 1")
            _check_choice(errors, "source.boundary", src["boundary"], Boundary)
            _check_choice(errors, "source.steps", src["steps"], StepPolicy)
        if src["kind"] == "piston" and src["radius_m"] is None:
            if src["d_uc_m"] is None or src["f_u0_hz"] is None:
                errors.append("source.radius_m: required (or give d_uc_m + f_u0_hz)")

    for block, key in (("source", "velocity_ms"), ("pair", "v1_ms"),
                       ("pair", "v2_ms")):
        if not _is_complex_pair(resolved[block][key]):
            errors.append(f"{block}.{key}: must be [re, im], two numbers")

    pair = resolved["pair"]
    sur = pair.get("surrogate")
    if sur is not None:
        sub = _validate_block("pair.surrogate", _SURROGATE_SCHEMA, sur, errors)
        _check_choice(errors, "pair.surrogate.kind", sub["kind"], PzgKind)
        if sub["kind"] == "DR":
            for k in ("f_r1_hz", "f_anti_hz"):
                if sub.get(k) is None:
                    errors.append(f"pair.surrogate.{k}: required for DR")
        if sub.get("f_r2_hz") is None:
            errors.append("pair.surrogate.f_r2_hz: required")
        pair["surrogate"] = sub

    opt = resolved["optimizer"]
    if opt["pop"] < 8 or opt["pop"] % 2:
        errors.append("optimizer.pop: must be even and >= 8")
    if opt["generations"] < 1:
        errors.append("optimizer.generations: must be >= 1")
    _check_choice(errors, "optimizer.config", opt["config"], StackConfig)
    w = opt["f_dist_window_hz"]
    if not (isinstance(w, (list, tuple)) and len(w) == 2 and w[0] < w[1]):
        errors.append("optimizer.f_dist_window_hz: must be [lo, hi] with lo < hi")

    cr = resolved["cr"]
    band = cr["audio_band_hz"]
    if not (isinstance(band, (list, tuple)) and len(band) == 2 and band[0] < band[1]):
        errors.append("cr.audio_band_hz: must be [lo, hi] with lo < hi")
    if cr["tol_hz"] <= 0:
        errors.append("cr.tol_hz: must be positive")

    out = resolved["output"]
    bad = [f for f in out["formats"] if f not in ("csv", "json")]
    if bad:
        errors.append(f"output.formats: unknown formats {bad}")


def validate_config(raw: dict) -> RunConfig:
    """Resolve defaults and run the strict schema + semantic validation."""
    if not isinstance(raw, dict):
        raise ConfigError("configuration root must be a JSON object")
    errors = []
    for key in raw:
        if key not in _SCHEMA:
            errors.append(f"{key}: unknown block (strict schema)")
    resolved = {}
    for name, schema in _SCHEMA.items():
        given = raw.get(name, {})
        if not isinstance(given, dict):
            errors.append(f"{name}: must be an object")
            given = {}
        resolved[name] = _validate_block(name, schema, given, errors)
    _semantic_checks(resolved, errors, provided=tuple(raw))
    if errors:
        raise ConfigError("invalid configuration:\n  - " + "\n  - ".join(errors))
    return RunConfig(raw=raw, resolved=resolved)


def load_config(path) -> RunConfig:
    """Parse and validate a configuration file."""
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        raw = json.loads(path.read_text())
    except json.JSONDecodeError as e:
        raise ConfigError(f"{path}: parse error at line {e.lineno}, "
                          f"column {e.colno}: {e.msg}") from e
    return validate_config(raw)


def require_blocks(cfg: RunConfig, command: str, raw: dict):
    """Commands must have their blocks present in the raw config."""
    missing = [b for b in COMMAND_BLOCKS.get(command, ()) if b not in raw]
    if missing:
        raise ConfigError(
            f"command {command!r} needs config block(s): {', '.join(missing)}"
        )
