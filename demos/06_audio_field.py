"""Self-demodulated audio field of a two-tone ultrasonic beam.

A 60 kHz carrier with a lower sideband 1 kHz below it drives the
quasilinear solver; the on-axis audio curve peaks at the audio critical
distance, and the far-field slope over audio frequency follows the
+12 dB/octave envelope-demodulation law.
"""

import warnings

import numpy as np

from sppal import nlfield, radiator
from sppal.medium import build_medium

air = build_medium()
f_carrier, f_a = 60e3, 1e3
a = radiator.aperture_for_cd(0.45, f_carrier, air)
f1, f2 = nlfield.lsb_am_pair(f_carrier, f_a)
# one piston of radius a drives both primaries at 0.1 m/s
pair = nlfield.PrimaryPair(f1, f2, a, 0.1, 0.1)

solver = nlfield.QuasilinearSolver(pair, air)
g = solver.grid
print(f"virtual-source grid: {g.z_nodes.size} axial x {g.r_nodes.size} radial "
      f"nodes, domain to z = {g.z_nodes[-1]:.2f} m")

z = np.geomspace(0.07, 2.5, 40)
curve = solver.propagation_curve(z)
cd = nlfield.find_audio_cd(curve)
print(f"audio critical distance {cd.distance:.3f} m, SPL there {cd.spl:.1f} dB")

print("\n  z [m]   audio SPL [dB]")
for j in range(0, z.size, 5):
    print(f"  {z[j]:5.2f}   {curve.spl[j]:8.2f}")

print("\nfar-field slope cross-check (z = 6 m):")
mags = []
with warnings.catch_warnings():
    warnings.simplefilter("ignore")
    for fa in (500.0, 1000.0, 2000.0):
        f1, f2 = nlfield.lsb_am_pair(f_carrier, fa)
        p = nlfield.PrimaryPair(f1, f2, a, 0.1, 0.1)
        s = nlfield.QuasilinearSolver(p, air)
        mag = abs(s.pressures([0.0], [6.0])[0])
        bk = nlfield.berktay_farfield(p, air, 6.0)
        mags.append(mag)
        print(f"  f_a {fa:6.0f} Hz: solver {mag:.3e} Pa, "
              f"envelope model {bk:.3e} Pa")
slope = np.polyfit(np.log2([500.0, 1000.0, 2000.0]), 20 * np.log10(mags), 1)[0]
print(f"solver slope {slope:.2f} dB/oct (envelope-demodulation law: +12)")
