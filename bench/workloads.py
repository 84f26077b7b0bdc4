"""The benchmark's workloads: which commands each runs, on which configs.

Everything here is derived from the workload name and the seed alone, with
the standard library only, so that run.py can write the configs without
loading numpy.  The configs go to disk and every worker loads them through
``sppal.config.load_config``, the way ``sppal`` users run the tool.
"""

from __future__ import annotations

import cmath
import math
import random

#: reference primary velocity of the audio_field case [m/s]
AUDIO_V_MS = 0.1

#: audio_field grids: 60 on-axis points and 3 polar angles (-30, 0, +30 deg)
AUDIO_Z_POINTS = 60
AUDIO_THETA_POINTS = 3

DESIGN_POP, DESIGN_GENERATIONS = 24, 10
SWEEP_POP, SWEEP_GENERATIONS = 12, 5
SWEEP_F_U0_HZ = (40e3, 60e3)
SWEEP_R_P_M = (9e-3,)
SWEEP_F_A_HZ = (1000.0,)
SWEEP_WINDOW_HZ = (800.0, 8000.0)
#: the sweep's NSGA-II base seed is fixed, so every seed selects the same
#: designs and does the same work; the seed draws the drive voltage instead
SWEEP_NSGA_SEED = 0

#: the paper's reference cell (60 kHz, mode 8, full stack)
REFERENCE_CELL = {
    "d_uc_m": 0.45, "f_u0_hz": 60e3, "mode_m": 8, "config": "full",
    "r_p_m": 9e-3, "l_p_m": 8e-3, "r_h_m": 0.75e-3,
}

WORKLOADS = ("audio_field", "design_loop", "sweep")


def audio_scalings(seed: int) -> tuple:
    """Complex drive scalings (sideband s1, carrier s2) for a seed.

    Seed 0 is the reference case itself (both 1).  Other seeds draw a
    magnitude in [0.5, 2] and a uniform phase for each primary; grid sizes
    and work do not depend on them, and the audio pressure scales exactly
    by conj(s1) * s2.
    """
    if seed == 0:
        return 1.0 + 0.0j, 1.0 + 0.0j
    rng = random.Random(seed)
    return tuple(rng.uniform(0.5, 2.0) * cmath.exp(1j * rng.uniform(-math.pi, math.pi))
                 for _ in range(2))


def sweep_voltage(seed: int) -> float:
    """Drive voltage [V] of the sweep for a seed, in [0.5, 2].

    The NSGA-II objectives do not depend on it, so the selected designs do
    not either, and every L_pa,c moves by exactly 40*log10(V) dB from the
    reference at 1 V.  Every seed, seed 0 too, draws a voltage other than
    1 V, so every seed builds the same DesignContexts.
    """
    return random.Random(f"sweep-{seed}").uniform(0.5, 2.0)


def commands(workload: str, seed: int) -> list:
    """The (subcommand, raw config) pairs one iteration runs, in order.

    ``seed=None`` gives the sweep's reference drive of 1 V.
    """
    if workload == "audio_field":
        s1, s2 = audio_scalings(seed)
        v1, v2 = AUDIO_V_MS * s1, AUDIO_V_MS * s2
        cfg = {
            "source": {"kind": "piston", "d_uc_m": 0.45, "f_u0_hz": 60e3},
            "pair": {"f_carrier_hz": 60e3, "f_audio_hz": 1e3,
                     "v1_ms": [v1.real, v1.imag], "v2_ms": [v2.real, v2.imag]},
            "solver": {"z_start_m": 0.05, "z_stop_m": 2.0,
                       "z_points": AUDIO_Z_POINTS, "theta_max_deg": 30.0,
                       "theta_points": AUDIO_THETA_POINTS, "range_m": 1.0},
        }
        return [("audio-pc", cfg), ("audio-bp", cfg)]
    if workload == "design_loop":
        opt = dict(REFERENCE_CELL, pop=DESIGN_POP,
                   generations=DESIGN_GENERATIONS, seed=seed)
        return [("pareto", {"optimizer": opt})]
    if workload == "sweep":
        opt = {
            "pop": SWEEP_POP, "generations": SWEEP_GENERATIONS, "seed": SWEEP_NSGA_SEED,
            "drive_voltage_v": sweep_voltage(seed) if seed is not None else 1.0,
            "l_p_m": 8e-3, "sweep_d_uc_m": [0.45],
            "sweep_f_u0_hz": list(SWEEP_F_U0_HZ), "sweep_mode_m": [8],
            "sweep_config": ["full"], "sweep_r_p_m": list(SWEEP_R_P_M),
            "sweep_r_h_m": [0.75e-3], "sweep_f_a_hz": list(SWEEP_F_A_HZ),
            "f_dist_window_hz": list(SWEEP_WINDOW_HZ),
        }
        return [("sweep", {"optimizer": opt})]
    raise ValueError(f"unknown workload {workload!r}")


def operations(workload: str) -> dict:
    """Operations attempted per command of one iteration (for failed_fraction).

    audio_field counts observation points, design_loop NSGA-II evaluations,
    sweep design cells.
    """
    if workload == "audio_field":
        return {"audio-pc": AUDIO_Z_POINTS, "audio-bp": AUDIO_THETA_POINTS}
    if workload == "design_loop":
        return {"pareto": DESIGN_POP * (DESIGN_GENERATIONS + 1)}
    if workload == "sweep":
        return {"sweep": len(SWEEP_F_U0_HZ) * len(SWEEP_R_P_M)}
    raise ValueError(f"unknown workload {workload!r}")
