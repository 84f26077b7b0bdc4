"""Audio critical-distance map over carrier frequency and aperture.

A reduced version of the piston design map: per cell the aperture
follows from the ultrasonic critical distance, and the audio curve
yields the critical audio SPL and its location.  The same table is
available from the command line as `sppal cd-contour`.
"""

import numpy as np

from sppal import nlfield, optimizer
from sppal.medium import build_medium

air = build_medium()
d_uc = (0.35, 0.45)
f_u2 = (40e3, 60e3, 90e3)
coarse = nlfield.SolverSettings(ppw_axial=10, ppw_radial=8, audio_ppw=16,
                                tail_warn_fraction=0.05)
contour = optimizer.audio_cd_contour(d_uc, f_u2, 1e3, 0.1, 0.1, air,
                                     settings=coarse)

print("critical audio SPL [dB] (rows: D_uc, cols: f_u2)")
header = "         " + "  ".join(f"{f/1e3:6.0f}k" for f in f_u2)
print(header)
for i, d in enumerate(d_uc):
    print(f"D={d:.2f}  " + "  ".join(f"{v:7.1f}" for v in contour.l_pa_c[i]))

print("\naudio critical distance [m]")
print(header)
for i, d in enumerate(d_uc):
    print(f"D={d:.2f}  " + "  ".join(f"{v:7.3f}" for v in contour.d_ac[i]))

print("\nlower carrier frequency -> higher audio SPL at a given distance;")
print("the full 20-cell map is the acceptance-gated design chart.")
print("\nEquivalent CLI run:")
print("  sppal cd-contour --config my.json --out out/")
