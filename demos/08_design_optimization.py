"""Multi-objective length optimization of one design cell.

NSGA-II trades the (negative) geometric-mean peak velocity F1 against
the resonance spacing F2 for the full-wavelength stack; the selected
design then goes through the audio-capability pipeline (effective
piston velocities via the equivalence ratio, quasilinear field, audio
critical distance).  Small budgets keep the demo around a minute.
"""

import numpy as np

from sppal import nlfield, optimizer, transducer
from sppal.medium import build_medium

air = build_medium()
params = optimizer.DesignParams(
    d_uc=0.45, f_u0=60e3, mode_m=8, config=transducer.StackConfig.FULL,
    r_p=9e-3, l_p=8e-3, r_h=0.75e-3)

ctx = optimizer.DesignContext(params, air)  # built once, used by every step
cfg = optimizer.NsgaConfig(pop=16, generations=8, seed=1)
front = optimizer.optimize_lengths(ctx, cfg)
print(f"Pareto front: {len(front.points)} designs")
print("   F1 [m/s/V]    F2 [Hz]   lengths [mm]")
for p in front.sorted_by_f2()[:8]:
    print(f"  {p.objectives[0]:10.4f} {p.objectives[1]:10.0f}   "
          + " ".join(f"{v*1e3:.2f}" for v in p.x))

# the model's achievable spacing floor sits above the production window
# (800, 1250) Hz; widen the window here to pick a design for the demo
knee = optimizer.select_knee(front, (800.0, 6000.0))
print(f"\nselected design: F1 = {knee.objectives[0]:.4f}, "
      f"F2 = {knee.objectives[1]:.0f} Hz")

coarse = nlfield.SolverSettings(ppw_axial=10, audio_ppw=16, truncation_db=50,
                                tail_warn_fraction=0.1)
cap = optimizer.audio_capability(knee, ctx, [500.0, 1000.0, 2000.0],
                                 drive_voltage=20.0, settings=coarse)
print(f"carrier at the upper resonance: {cap.carrier_hz/1e3:.2f} kHz")
print("f_a [Hz]   audio SPL at its critical distance [dB]   D_ac [m]")
for f_a, spl, d in zip(cap.f_a, cap.spl_at_cd, cap.d_ac):
    print(f"{f_a:8.0f}   {spl:10.1f}   {d:26.3f}")
print("(trend-level values: the 1D stack model underpredicts absolute"
      " velocities)")
