"""Transducer frequency responses: transfer-matrix stack and surrogates.

Builds the full-wavelength double-stack transducer coupled to the
mode-8 plate load and extracts its dual-resonance features; then the
pole-zero-gain surrogates show why two close resonances lift the low
audio band relative to a single-resonance device.
"""

import numpy as np

from sppal import optimizer, transducer
from sppal.medium import build_medium

air = build_medium()
params = optimizer.DesignParams(
    d_uc=0.45, f_u0=60e3, mode_m=8, config=transducer.StackConfig.FULL,
    r_p=9e-3, l_p=8e-3, r_h=0.75e-3)
ctx = optimizer.DesignContext(params, air)
x0, bounds = transducer.langevin_initial_lengths(60e3, params.config, 8e-3)
print("initial segment lengths [mm]:", np.round(x0 * 1e3, 2))

frf = ctx.frf(x0)
feats = transducer.extract_dr_features(frf)
f1_obj, f2_obj = transducer.objectives(feats)
print(f"dual resonance: f_r1 = {feats.f_r1/1e3:.2f} kHz, "
      f"f_r2 = {feats.f_r2/1e3:.2f} kHz, spacing {feats.f_dist:.0f} Hz")
print(f"objectives: F1 = {f1_obj:.4f} m/s per volt, F2 = {f2_obj:.0f} Hz")

print("\npole-zero-gain surrogates (matched carrier velocity):")
freqs = np.arange(55e3, 62e3, 10.0)
dr = transducer.pzg_frf(transducer.PzgKind.DR, 4e11, 58.6e3, 60e3, 59.3e3,
                        0.05, freqs)
sr = transducer.pzg_frf(transducer.PzgKind.SR, 1.0, None, 60e3, None, 0.05,
                        freqs)
sr = sr.scaled(abs(dr.interp(60e3)) / abs(sr.interp(60e3)))
print("f_a [Hz]   |v_DR|/|v_SR| at the sideband [dB]")
for f_a in (100.0, 350.0, 700.0, 1050.0, 1400.0):
    ratio = abs(dr.interp(60e3 - f_a)) / abs(sr.interp(60e3 - f_a))
    print(f"{f_a:8.0f}   {20*np.log10(ratio):+10.2f}")
print("(positive values: the second resonance lifts the low audio band)")
