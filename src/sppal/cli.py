"""Command-line front end.

Subcommands mirror the figure-class outputs: linear propagation curves
and beam patterns, equivalence-ratio sweeps, audio-field curves, the
critical-distance contour grid, Pareto optimization, the design sweep
and combination-resonance screening.  Every artifact embeds the
resolved configuration and seed so reruns are byte-identical.
"""

from __future__ import annotations

import argparse
import sys
import warnings
from pathlib import Path

import numpy as np

from . import io, linfield, nlfield, optimizer, radiator, transducer
from .config import COMMAND_BLOCKS, RunConfig, load_config, require_blocks
from .errors import ConfigError, SppalError, TruncationTailWarning
from .medium import Medium
from .transducer import PzgKind, StackConfig


def _medium_state(cfg: RunConfig) -> dict:
    return dict(cfg.block("medium"))


def _piston_radius(cfg: RunConfig, medium: Medium) -> float:
    """``source.radius_m``, or the aperture of ``source.d_uc_m`` at ``source.f_u0_hz``."""
    src = cfg.block("source")
    if src["radius_m"] is not None:
        return float(src["radius_m"])
    return radiator.aperture_for_cd(src["d_uc_m"], src["f_u0_hz"], medium)


def _build_source_profile(cfg: RunConfig, medium: Medium, f: float):
    src = cfg.block("source")
    if src["kind"] == "piston":
        a = _piston_radius(cfg, medium)
        v = complex(*src["velocity_ms"])
        n = radiator.radial_sample_count(a, f, medium)
        return radiator.piston_profile(radiator.PistonSpec(a, v), n)
    plate = radiator.size_plate_for(src["f_u0_hz"], src["d_uc_m"], src["mode_m"],
                                    src["material"], medium,
                                    radiator.Boundary(src["boundary"]))
    mode = radiator.plate_mode_shape(plate)
    v = complex(*src["velocity_ms"])
    policy = radiator.StepPolicy(src["steps"])
    n = radiator.radial_sample_count(plate.radius_a, f, medium)
    return radiator.stepped_profile(mode, v, policy, n_samples=n)


def _solver_settings(cfg: RunConfig) -> nlfield.SolverSettings:
    s = cfg.block("solver")
    return nlfield.SolverSettings(
        ppw_axial=s["ppw_axial"], ppw_radial=s["ppw_radial"],
        audio_ppw=s["audio_ppw"], truncation_db=s["truncation_db"],
        tail_warn_fraction=s["tail_warn_fraction"],
    )


def _z_grid(cfg: RunConfig) -> np.ndarray:
    s = cfg.block("solver")
    return np.geomspace(s["z_start_m"], s["z_stop_m"], int(s["z_points"]))


def _theta_grid(cfg: RunConfig) -> np.ndarray:
    s = cfg.block("solver")
    return np.linspace(-s["theta_max_deg"], s["theta_max_deg"],
                       int(s["theta_points"]))


def _pair_from_config(cfg: RunConfig, medium: Medium, f_a: float):
    p = cfg.block("pair")
    f_u1, f_u2 = nlfield.lsb_am_pair(p["f_carrier_hz"], f_a)
    sur = p["surrogate"]
    if sur is not None:
        v1, v2 = transducer.pzg_frf(PzgKind(sur["kind"]), sur["gain"],
                                    sur["f_r1_hz"] or 0.0, sur["f_r2_hz"],
                                    sur["f_anti_hz"], sur["loss_factor"],
                                    [f_u1, f_u2]).center_velocity
    else:
        v1 = complex(*p["v1_ms"])
        v2 = complex(*p["v2_ms"])
    return nlfield.PrimaryPair(f_u1, f_u2, _piston_radius(cfg, medium), v1, v2)


def _audio_freq_grid(cfg: RunConfig) -> np.ndarray:
    p = cfg.block("pair")
    if p["f_audio_grid_hz"] is not None:
        return np.asarray(p["f_audio_grid_hz"], dtype=float)
    if p["f_audio_hz"] is not None:
        return np.asarray([p["f_audio_hz"]], dtype=float)
    raise ConfigError("pair.f_audio_hz or pair.f_audio_grid_hz is required")


# ---------------------------------------------------------------------------
# subcommand implementations
# ---------------------------------------------------------------------------

def _cmd_pc(cfg: RunConfig, out: Path, meta: dict, formats) -> list:
    medium = cfg.medium()
    src = cfg.block("source")
    f = src["f_u0_hz"] or cfg.block("pair").get("f_carrier_hz")
    if f is None:
        raise ConfigError("source.f_u0_hz is required for 'pc'")
    profile = _build_source_profile(cfg, medium, f)
    curve = linfield.propagation_curve(profile, medium, f, _z_grid(cfg))
    return io.write_curve(out / "pc", curve, _medium_state(cfg), meta, formats)


def _cmd_bp(cfg: RunConfig, out: Path, meta: dict, formats) -> list:
    medium = cfg.medium()
    src = cfg.block("source")
    f = src["f_u0_hz"] or cfg.block("pair").get("f_carrier_hz")
    if f is None:
        raise ConfigError("source.f_u0_hz is required for 'bp'")
    profile = _build_source_profile(cfg, medium, f)
    r = cfg.block("solver")["range_m"]
    curve = linfield.beam_pattern(profile, medium, f, r, _theta_grid(cfg))
    return io.write_curve(out / "bp", curve, _medium_state(cfg), meta, formats)


def _cmd_er(cfg: RunConfig, out: Path, meta: dict, formats) -> list:
    medium = cfg.medium()
    src = cfg.block("source")
    if src["kind"] != "plate":
        raise ConfigError("'er' needs a plate source")
    s = cfg.block("solver")
    f0 = src["f_u0_hz"]
    f_lo = s["f_lo_hz"] if s["f_lo_hz"] is not None else f0 - 10e3
    f_hi = s["f_hi_hz"] if s["f_hi_hz"] is not None else f0
    freqs = np.linspace(f_lo, f_hi, int(s["f_points"]))
    profile = _build_source_profile(cfg, medium, f0)
    er = [linfield.equivalence_ratio(profile, medium, f, src["d_uc_m"]).er_db
          for f in freqs]
    cols = {"f_hz": freqs, "er_db": np.asarray(er)}
    return io.write_columns(out / "er", cols, meta, formats)


def _cmd_audio_pc(cfg: RunConfig, out: Path, meta: dict, formats) -> list:
    medium = cfg.medium()
    f_a = float(_audio_freq_grid(cfg)[0])
    pair = _pair_from_config(cfg, medium, f_a)
    curve = nlfield.audio_propagation_curve(pair, medium, _z_grid(cfg),
                                            _solver_settings(cfg))
    return io.write_curve(out / "audio_pc", curve, _medium_state(cfg),
                          meta, formats)


def _cmd_audio_bp(cfg: RunConfig, out: Path, meta: dict, formats) -> list:
    medium = cfg.medium()
    f_a = float(_audio_freq_grid(cfg)[0])
    pair = _pair_from_config(cfg, medium, f_a)
    r = cfg.block("solver")["range_m"]
    curve = nlfield.audio_beam_pattern(pair, medium, r, _theta_grid(cfg),
                                       _solver_settings(cfg))
    return io.write_curve(out / "audio_bp", curve, _medium_state(cfg),
                          meta, formats)


def _cmd_audio_fr(cfg: RunConfig, out: Path, meta: dict, formats) -> list:
    medium = cfg.medium()
    f_grid = _audio_freq_grid(cfg)
    settings = _solver_settings(cfg)
    cds = [nlfield.critical_point(_pair_from_config(cfg, medium, float(f_a)), medium, settings)
           for f_a in f_grid]
    cols = {"f_a_hz": f_grid, "spl_db": np.array([cd.spl for cd in cds]),
            "d_ac_m": np.array([cd.distance for cd in cds])}
    return io.write_columns(out / "audio_fr", cols, meta, formats)


def _cmd_cd_contour(cfg: RunConfig, out: Path, meta: dict, formats) -> list:
    medium = cfg.medium()
    opt = cfg.block("optimizer")
    pairb = cfg.block("pair")
    f_a = pairb["f_audio_hz"] if pairb["f_audio_hz"] is not None else 1000.0
    contour = optimizer.audio_cd_contour(opt["sweep_d_uc_m"],
                                         opt["sweep_f_u0_hz"], f_a,
                                         abs(complex(*pairb["v1_ms"])),
                                         abs(complex(*pairb["v2_ms"])),
                                         medium, _solver_settings(cfg))
    written = []
    if "csv" in formats:
        for name, mat in (("l_pa_c_db", contour.l_pa_c),
                          ("d_ac_m", contour.d_ac),
                          ("aperture_m", contour.aperture)):
            written.append(io.write_matrix_csv(
                out / f"cd_contour_{name}.csv", contour.d_uc, contour.f_u2,
                mat, "d_uc_m\\f_u2_hz", meta))
    if "json" in formats:
        written.append(io.write_json(out / "cd_contour.json", {
            "d_uc_m": contour.d_uc, "f_u2_hz": contour.f_u2,
            "l_pa_c_db": contour.l_pa_c, "d_ac_m": contour.d_ac,
            "aperture_m": contour.aperture, "f_a_hz": contour.f_a,
        }, meta))
    return written


def _opt_params(cfg: RunConfig) -> optimizer.DesignParams:
    o = cfg.block("optimizer")
    return optimizer.DesignParams(
        d_uc=o["d_uc_m"], f_u0=o["f_u0_hz"], mode_m=o["mode_m"],
        config=StackConfig(o["config"]), r_p=o["r_p_m"], l_p=o["l_p_m"],
        r_h=o["r_h_m"],
    )


def _nsga_config(cfg: RunConfig, meta: dict) -> optimizer.NsgaConfig:
    """The NSGA-II settings, with the seed :func:`dispatch` resolved into ``meta``."""
    o = cfg.block("optimizer")
    return optimizer.NsgaConfig(pop=o["pop"], generations=o["generations"],
                                seed=meta["seed"])


def _cmd_pareto(cfg: RunConfig, out: Path, meta: dict, formats) -> list:
    ctx = optimizer.DesignContext(_opt_params(cfg), cfg.medium())
    front = optimizer.optimize_lengths(ctx, _nsga_config(cfg, meta))
    pts = front.sorted_by_f2()
    cols = {
        "f1_ms": [p.objectives[0] for p in pts],
        "f2_hz": [p.objectives[1] for p in pts],
        "f_dist_hz": [p.objectives[1] if p.feasible else "" for p in pts],
        "x_m": [";".join(f"{v:.9e}" for v in p.x) for p in pts],
        "flags": ["|".join(p.flags) for p in pts],
    }
    return io.write_columns(out / "pareto", cols, meta, formats)


def _cmd_sweep(cfg: RunConfig, out: Path, meta: dict, formats) -> list:
    medium = cfg.medium()
    o = cfg.block("optimizer")
    grid = {
        "d_uc": o["sweep_d_uc_m"], "f_u0": o["sweep_f_u0_hz"],
        "mode_m": o["sweep_mode_m"], "config": o["sweep_config"],
        "r_p": o["sweep_r_p_m"], "r_h": o["sweep_r_h_m"],
    }
    window = tuple(o["f_dist_window_hz"])
    result = optimizer.design_sweep(grid, medium, _nsga_config(cfg, meta),
                                    l_p=o["l_p_m"],
                                    f_a_grid=o["sweep_f_a_hz"],
                                    drive_voltage=o["drive_voltage_v"],
                                    settings=_solver_settings(cfg),
                                    f_dist_window=window)
    rows = result.table()
    sweep_meta = dict(meta)
    sweep_meta["note"] = ("levels are model trends from the 1D stack and "
                          "equivalence-ratio pipeline, not absolute "
                          "calibrated output")
    written = []
    if "csv" in formats:
        cols = {k: [r[k] for r in rows] for k in rows[0]} if rows else {"empty": []}
        written.append(io.write_csv(out / "sweep.csv", cols, sweep_meta))
    if "json" in formats:
        written.append(io.write_json(out / "sweep.json", {"rows": rows},
                                     sweep_meta))
    return written


def _cmd_cr_screen(cfg: RunConfig, out: Path, meta: dict, formats) -> list:
    cr = cfg.block("cr")
    flagged = transducer.cr_screen(cr["modal_freqs_hz"],
                                   tuple(cr["audio_band_hz"]), cr["tol_hz"])
    cols = {"flagged_f_a_hz": np.asarray(flagged, dtype=float)}
    written = []
    if "csv" in formats:
        written.append(io.write_csv(out / "cr_screen.csv", cols, meta))
    if "json" in formats:
        written.append(io.write_json(out / "cr_screen.json", {
            "flagged_f_a_hz": list(map(float, flagged)),
            "modal_freqs_hz": cr["modal_freqs_hz"],
            "audio_band_hz": cr["audio_band_hz"],
            "tol_hz": cr["tol_hz"],
        }, meta))
    return written


_COMMANDS = {
    "pc": _cmd_pc,
    "bp": _cmd_bp,
    "er": _cmd_er,
    "audio-pc": _cmd_audio_pc,
    "audio-bp": _cmd_audio_bp,
    "audio-fr": _cmd_audio_fr,
    "cd-contour": _cmd_cd_contour,
    "pareto": _cmd_pareto,
    "sweep": _cmd_sweep,
    "cr-screen": _cmd_cr_screen,
}


def dispatch(command: str, cfg: RunConfig, out_dir, formats=("csv", "json"),
             seed=None) -> tuple:
    """Run one subcommand; returns (exit_status, written_paths, warnings)."""
    out = Path(out_dir)
    meta = io.metadata_block(cfg.echo(),
                             seed=seed if seed is not None
                             else cfg.block("optimizer")["seed"])
    caught = []
    with warnings.catch_warnings(record=True) as wlist:
        warnings.simplefilter("always", TruncationTailWarning)
        written = _COMMANDS[command](cfg, out, meta, formats)
        caught = [str(w.message) for w in wlist
                  if issubclass(w.category, TruncationTailWarning)]
    status = 0 if not caught else 3
    return status, written, caught


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="sppal",
        description="Stepped-plate parametric array loudspeaker design toolkit",
    )
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("--config", required=True, metavar="PATH")
    parser.add_argument("--out", default=None, metavar="DIR")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--format", choices=("csv", "json", "both"),
                        help="default: the configuration's output.formats")
    args = parser.parse_args(argv)

    try:
        cfg = load_config(args.config)
        require_blocks(cfg, args.command, cfg.raw)
    except ConfigError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2

    out_dir = args.out or cfg.block("output")["directory"]
    if args.format is None:
        formats = cfg.block("output")["formats"]
    else:
        formats = ("csv", "json") if args.format == "both" else (args.format,)
    try:
        status, written, caught = dispatch(args.command, cfg, out_dir,
                                           formats, seed=args.seed)
    except SppalError as e:
        print(f"error [{args.command}]: {e}", file=sys.stderr)
        return 1
    for path in written:
        print(path)
    for msg in caught:
        print(f"warning: {msg}", file=sys.stderr)
    return status

