import logging
import re

import numpy as np
import pytest
from scipy import special

from sppal import _quad
from sppal import linfield as lf
from sppal import nlfield as nl
from sppal import radiator as rad
from sppal.errors import ParameterDomainError


@pytest.fixture(scope="module")
def piston_60k(std_air):
    a = rad.aperture_for_cd(0.45, 60e3, std_air)
    n = rad.radial_sample_count(a, 60e3, std_air)
    return rad.piston_profile(rad.PistonSpec(a, 0.1), n)


@pytest.fixture(scope="module")
def stepped_60k(std_air):
    plate = rad.size_plate_for(60e3, 0.45, 8, "aluminum", std_air)
    mode = rad.plate_mode_shape(plate)
    n = rad.radial_sample_count(plate.radius_a, 60e3, std_air)
    return rad.stepped_profile(mode, 1.0, n_samples=max(n, 513))


class TestRayleighQuadrature:
    def test_matches_closed_form_lossless(self, lossless_air):
        a, f = 0.0508, 60e3
        spec = rad.PistonSpec(a, 0.1)
        prof = rad.piston_profile(spec, rad.radial_sample_count(a, f, lossless_air))
        z1 = rad.first_local_max(a, f, lossless_air)
        z = np.linspace(a / 2.0, 10.0 * z1, 301)
        p_quad = lf.rayleigh_field(prof, lossless_air, f, np.zeros_like(z), z)
        p_cf = lf.axial_piston_pressure(spec, lossless_air, f, z)
        assert np.max(np.abs(lf.spl_db(p_quad) - lf.spl_db(p_cf))) < 0.1

    def test_zero_velocity_gives_zero(self, std_air):
        prof = rad.piston_profile(rad.PistonSpec(0.05, 0.0), 65)
        p = lf.rayleigh_pressure(prof, std_air, 60e3, lf.FieldPoint(0.01, 0.3))
        assert p == 0.0

    def test_linearity_in_velocity(self, std_air, piston_60k):
        prof2 = rad.piston_profile(
            rad.PistonSpec(piston_60k.radius_a, 0.2), len(piston_60k.radii))
        pt = lf.FieldPoint(0.02, 0.4)
        p1 = lf.rayleigh_pressure(piston_60k, std_air, 60e3, pt)
        p2 = lf.rayleigh_pressure(prof2, std_air, 60e3, pt)
        assert abs(p2 / p1) == pytest.approx(2.0, rel=1e-12)

    def test_offaxis_matches_onaxis_limit(self, std_air, piston_60k):
        p_on = lf.rayleigh_pressure(piston_60k, std_air, 60e3,
                                    lf.FieldPoint(0.0, 0.5))
        p_off = lf.rayleigh_pressure(piston_60k, std_air, 60e3,
                                     lf.FieldPoint(1e-10, 0.5))
        assert abs(p_off - p_on) / abs(p_on) < 1e-10

    def test_azimuthal_refinement_rule(self, std_air, piston_60k):
        # halving the azimuthal step (doubling the converged order) moves
        # any SPL by less than the 0.05 dB budget: rerun at the point and
        # compare against a very high fixed order
        pt = lf.FieldPoint(0.05, 0.3)
        p = lf.rayleigh_pressure(piston_60k, std_air, 60e3, pt)
        # brute reference: dense azimuthal trapezoid
        kc = std_air.complex_wavenumber(60e3)
        r = piston_60k.radii
        w = _quad.simpson_weights(r) * r * piston_60k.velocity
        phi = np.linspace(0.0, np.pi, 16385)
        bigr = np.sqrt(0.3 ** 2 + 0.05 ** 2 + r[:, None] ** 2
                       - 2 * 0.05 * r[:, None] * np.cos(phi[None, :]))
        kern = np.trapezoid(np.exp(-1j * kc * bigr) / bigr, phi, axis=1)
        ref = 1j * 2 * np.pi * 60e3 * std_air.density / (2 * np.pi) * 2 * (kern @ w)
        assert abs(lf.spl_db(p) - lf.spl_db(ref)) < 0.05


class TestAxialPiston:
    def test_peak_value_at_z1(self, lossless_air):
        a, f, v = 0.0508, 60e3, 0.1
        z1 = rad.first_local_max(a, f, lossless_air)
        p = lf.axial_piston_pressure(rad.PistonSpec(a, v), lossless_air, f, z1)
        want = 2.0 * lossless_air.density * lossless_air.sound_speed * v
        assert abs(p) == pytest.approx(want, rel=1e-6)

    def test_inverse_law_far_field(self, lossless_air):
        a, f = 0.0508, 60e3
        spec = rad.PistonSpec(a, 0.1)
        z1 = rad.first_local_max(a, f, lossless_air)
        p1 = abs(lf.axial_piston_pressure(spec, lossless_air, f, 40 * z1))
        p2 = abs(lf.axial_piston_pressure(spec, lossless_air, f, 80 * z1))
        assert p1 / p2 == pytest.approx(2.0, rel=0.01)

    def test_amplitude_bound(self, std_air):
        spec = rad.PistonSpec(0.03, 0.1)
        z = np.linspace(0.0, 3.0, 500)
        p = lf.axial_piston_pressure(spec, std_air, 40e3, z)
        bound = 2.0 * std_air.density * std_air.sound_speed * 0.1
        assert np.all(np.abs(p) <= bound * (1 + 1e-12))


class TestPropagationCurve:
    def test_argmax_near_z1(self, lossless_air, piston_60k):
        # the z1 identity belongs to the lossless closed form; absorption
        # tilts the curve and moves the maximum a couple of centimetres in
        z1 = rad.first_local_max(piston_60k.radius_a, 60e3, lossless_air)
        z = np.linspace(0.7 * z1, 1.3 * z1, 601)
        curve = lf.propagation_curve(piston_60k, lossless_air, 60e3, z)
        assert z[np.argmax(curve.spl)] == pytest.approx(z1, abs=z[1] - z[0])

    def test_sp_and_piston_converge_beyond_cd(self, std_air, stepped_60k):
        # beyond the critical distance the stepped-plate and piston curves
        # track each other up to the constant equivalence-ratio offset
        v0 = stepped_60k.center_velocity
        piston = rad.piston_profile(rad.PistonSpec(stepped_60k.radius_a, v0),
                                    len(stepped_60k.radii))
        z = np.linspace(0.45, 3 * 0.45, 25)
        c_sp = lf.propagation_curve(stepped_60k, std_air, 60e3, z)
        c_rp = lf.propagation_curve(piston, std_air, 60e3, z)
        offset = c_sp.spl - c_rp.spl
        assert np.max(offset) - np.min(offset) < 1.0

    def test_rejects_bad_grids(self, std_air, piston_60k):
        with pytest.raises(ParameterDomainError):
            lf.propagation_curve(piston_60k, std_air, 60e3, [])
        with pytest.raises(ParameterDomainError):
            lf.propagation_curve(piston_60k, std_air, 60e3, [0.3, 0.2])


class TestBeamPattern:
    def test_symmetry(self, std_air, piston_60k):
        th = np.linspace(-10.0, 10.0, 41)
        bp = lf.beam_pattern(piston_60k, std_air, 60e3, 1.0, th)
        np.testing.assert_allclose(np.abs(bp.pressure), np.abs(bp.pressure[::-1]),
                                   rtol=1e-9)

    def test_piston_far_field_first_null(self, lossless_air, piston_60k):
        a = piston_60k.radius_a
        ka = lossless_air.wavenumber(60e3) * a
        th_null = np.degrees(np.arcsin(special.jn_zeros(1, 1)[0] / ka))
        z1 = rad.first_local_max(a, 60e3, lossless_air)
        th = np.linspace(th_null - 0.3, th_null + 0.3, 241)
        bp = lf.beam_pattern(piston_60k, lossless_air, 60e3, 40 * z1, th,
                             method="quadrature")
        found = th[np.argmin(np.abs(bp.pressure))]
        assert found == pytest.approx(th_null, abs=0.1)

    def test_farfield_kernel_matches_quadrature_on_main_lobe(self, std_air,
                                                             piston_60k):
        z1 = rad.first_local_max(piston_60k.radius_a, 60e3, std_air)
        th = np.linspace(0.0, 3.0, 16)
        r = 25 * z1
        bq = lf.beam_pattern(piston_60k, std_air, 60e3, r, th, method="quadrature")
        bf = lf.beam_pattern(piston_60k, std_air, 60e3, r, th, method="farfield")
        assert np.max(np.abs(bq.spl - bf.spl)) < 0.25

    def test_auto_switch(self, std_air, piston_60k):
        z1 = rad.first_local_max(piston_60k.radius_a, 60e3, std_air)
        near = lf.beam_pattern(piston_60k, std_air, 60e3, 1.0, [0.0, 1.0])
        far = lf.beam_pattern(piston_60k, std_air, 60e3, 25 * z1, [0.0, 1.0])
        assert near.meta["method"] == "quadrature"
        assert far.meta["method"] == "farfield"

    def test_stepped_plate_quarter_power_width(self, std_air, stepped_60k):
        th = np.linspace(0.0, 12.0, 481)
        bp = lf.beam_pattern(stepped_60k, std_air, 60e3, 1.0, th)
        rel = bp.spl_rel
        j = int(np.flatnonzero(rel <= -6.0)[0])
        th6 = np.interp(-6.0, [rel[j], rel[j - 1]], [th[j], th[j - 1]])
        # full quarter-power beamwidth around 5-6 degrees at 1 m
        assert 2.0 * th6 == pytest.approx(5.2, abs=1.2)


class TestRadiationImpedance:
    def test_high_ka_asymptote(self, std_air):
        a = 0.05
        z = lf.piston_radiation_impedance(a, 300e3, std_air)
        z0 = std_air.density * std_air.sound_speed * np.pi * a * a
        assert z.real / z0 == pytest.approx(1.0, abs=0.01)
        assert abs(z.imag) / z0 < 0.05

    def test_low_ka_expansions(self, std_air):
        # R ~ z0 (ka)^2/2, X ~ z0 8ka/(3 pi) for small ka
        a = 0.01
        f = 0.01 * std_air.sound_speed / (2 * np.pi * a)  # ka = 0.01
        ka = std_air.wavenumber(f) * a
        z = lf.piston_radiation_impedance(a, f, std_air)
        z0 = std_air.density * std_air.sound_speed * np.pi * a * a
        assert z.real / z0 == pytest.approx(ka ** 2 / 2.0, rel=1e-3)
        assert z.imag / z0 == pytest.approx(8.0 * ka / (3.0 * np.pi), rel=1e-3)

    def test_array_equals_scalar_loop(self, std_air):
        # the reference cell's load grid: 0.8-1.2 f_u0 in 10 Hz steps
        plate = rad.size_plate_for(60e3, 0.45, 8, "aluminum", std_air)
        f = np.arange(0.8 * 60e3, 1.2 * 60e3, 10.0)
        z = lf.piston_radiation_impedance(plate.radius_a, f, std_air)
        loop = [lf.piston_radiation_impedance(plate.radius_a, fi, std_air)
                for fi in f]
        assert all(type(zi) is complex for zi in loop)
        assert np.array_equal(z, np.array(loop))

    def test_nonpositive_frequency_rejected(self, std_air):
        for f in (0.0, -1.0, np.array([1e3, 0.0, 2e3])):
            with pytest.raises(ParameterDomainError):
                lf.piston_radiation_impedance(0.01, f, std_air)

    def test_positive_parts_sweep(self, std_air):
        a = 0.02
        for ka in np.linspace(0.05, 50.0, 120):
            f = ka * std_air.sound_speed / (2 * np.pi * a)
            z = lf.piston_radiation_impedance(a, f, std_air)
            assert z.real > 0 and z.imag > 0


class TestEquivalenceRatio:
    def test_piston_self_comparison_is_zero(self, std_air, piston_60k):
        er = lf.equivalence_ratio(piston_60k, std_air, 60e3, 0.45)
        assert er.er_db == pytest.approx(0.0, abs=1e-9)

    def test_mode8_anchor(self, std_air, stepped_60k):
        er = lf.equivalence_ratio(stepped_60k, std_air, 60e3, 0.45)
        assert -23.0 <= er.er_db <= -17.0

    def test_band_variation(self, std_air, stepped_60k):
        ers = [lf.equivalence_ratio(stepped_60k, std_air, f, 0.45).er_db
               for f in np.linspace(50e3, 60e3, 9)]
        assert max(ers) - min(ers) <= 3.0

    def test_effective_velocity(self, std_air, stepped_60k):
        er = lf.equivalence_ratio(stepped_60k, std_air, 60e3, 0.45)
        v_eff = er.effective_velocity(stepped_60k.center_velocity)
        assert abs(v_eff) == pytest.approx(
            abs(stepped_60k.center_velocity) * 10 ** (er.er_db / 20.0))


class TestPressureGrid:
    def test_matches_pointwise_quadrature(self, std_air, piston_60k):
        zg = np.array([0.004, 0.02, 0.1, 0.45, 2.0, 5.0])
        rg = np.array([0.0, 0.01, 0.05, 0.2, 0.6])
        grid = lf.pressure_grid(piston_60k, std_air, 60e3, rg, zg)
        for i, z in enumerate(zg):
            ref = lf.rayleigh_field(piston_60k, std_air, 60e3, rg,
                                    np.full(rg.shape, z))
            assert np.max(np.abs(grid[i] - ref) / np.abs(ref)) < 1e-6

    def test_plate_profile_grid(self, std_air, stepped_60k):
        zg = np.array([0.05, 0.45, 1.5])
        rg = np.array([0.0, 0.03, 0.1])
        grid = lf.pressure_grid(stepped_60k, std_air, 60e3, rg, zg)
        for i, z in enumerate(zg):
            ref = lf.rayleigh_field(stepped_60k, std_air, 60e3, rg,
                                    np.full(rg.shape, z))
            assert np.max(np.abs(grid[i] - ref) / np.max(np.abs(ref))) < 1e-6

    def test_radial_refinement_stability(self, std_air):
        # halving the radial profile step moves SPL by < 0.05 dB
        a = 0.0508
        n = rad.radial_sample_count(a, 60e3, std_air)
        p1 = rad.piston_profile(rad.PistonSpec(a, 0.1), n)
        p2 = rad.piston_profile(rad.PistonSpec(a, 0.1), 2 * n - 1)
        pts_r = np.array([0.0, 0.02, 0.05])
        pts_z = np.array([0.3, 0.3, 0.3])
        f1 = lf.rayleigh_field(p1, std_air, 60e3, pts_r, pts_z)
        f2 = lf.rayleigh_field(p2, std_air, 60e3, pts_r, pts_z)
        assert np.max(np.abs(lf.spl_db(f1) - lf.spl_db(f2))) < 0.05


def _parent_pressure_grid(profile, medium, f, rho_obs, z_obs, skirt_cut_db=None,
                          refine=1):
    """The dense-grid evaluator as it was before the plane recursion: every
    block evaluates its own node set, its source transform by direct J0
    sums and exp(-i k_z z) on every plane, and sums it with two products on
    the real and imaginary parts.  ``refine`` multiplies the panel counts of
    both branches (floors and rates), for a reference of higher order."""
    rho_obs = np.asarray(rho_obs, dtype=float)
    z_obs = np.asarray(z_obs, dtype=float)
    order = np.argsort(z_obs, kind="stable")
    z_sorted = z_obs[order]
    k0, kc = medium.wavenumber(f), medium.complex_wavenumber(f)
    lam, a, r_src = medium.wavelength(f), profile.radius_a, profile.radii
    w_src = _quad.simpson_weights(r_src) * r_src * profile.velocity
    rho_max = float(np.max(rho_obs))
    pref = medium.density * 2.0 * np.pi * f
    sin_cut = 1.0
    if skirt_cut_db is not None and profile.kind is rad.SourceKind.PISTON:
        x_cut = (1.6 * 10.0 ** (skirt_cut_db / 20.0)) ** (2.0 / 3.0)
        sin_cut = min(1.0, x_cut / (k0 * a))
    out = np.zeros((z_sorted.size, rho_obs.size), dtype=complex)
    edges = [float(z_sorted[-1])]
    while edges[-1] > max(2.0 * lam, float(z_sorted[0]) * 1.5):
        edges.append(edges[-1] / 2.0)
    edges = [0.0] + edges[::-1]
    blocks, lo_idx = [], 0
    for hi in edges[1:]:
        hi_idx = int(np.searchsorted(z_sorted, hi, side="right"))
        if hi_idx > lo_idx:
            blocks.append((lo_idx, hi_idx, hi))
        lo_idx = hi_idx

    def spectrum(lo_idx, hi_idx, sel, krho, jac):
        kz = -1j * np.sqrt(krho.astype(complex) ** 2 - kc * kc)
        vh = special.j0(np.outer(krho, r_src)) @ w_src
        wk = pref * vh * (krho / kz) * jac
        bmat = special.j0(np.outer(rho_obs[sel], krho))
        ew = wk[:, None] * np.exp(np.outer(-1j * kz, z_sorted[lo_idx:hi_idx]))
        return (bmat @ ew.real + 1j * (bmat @ ew.imag)).T

    for lo_idx, hi_idx, z_hi in blocks:
        rho_cut = rho_max
        if sin_cut < 1.0:
            rho_cut = min(rho_max, a + z_hi * sin_cut / np.sqrt(1.0 - sin_cut ** 2))
        sel = rho_obs <= rho_cut * (1.0 + 1e-12)
        n_pan = refine * max(24, int(np.ceil(k0 * np.hypot(z_hi, rho_cut) / 12.0)))
        out[lo_idx:hi_idx, sel] = spectrum(lo_idx, hi_idx, sel,
                                           *_quad.wavenumber_nodes(k0, n_pan))
    for lo_idx, hi_idx, _ in blocks:
        u_max = min(float(np.arccosh(4.0)),
                    float(np.arcsinh(18.0 / (k0 * max(z_sorted[lo_idx], 1e-9)))))
        if u_max <= 1e-6:
            continue
        rho_cut = rho_max
        if skirt_cut_db is not None and u_max >= 0.5:
            rho_cut = min(rho_max, 2.0 * a + 4.0 * lam)
        sel = rho_obs <= rho_cut * (1.0 + 1e-12)
        n_pan = refine * (int(np.ceil((np.cosh(u_max) - 1.0) * k0 * rho_cut / 10.0)) + 8)
        out[lo_idx:hi_idx, sel] += spectrum(
            lo_idx, hi_idx, sel, *_quad.wavenumber_nodes(k0, n_pan, (0.0, u_max)))
    result = np.empty_like(out)
    result[order] = out
    return result


class TestPressureGridRecursion:
    """The plane recursion, the stacked product and the shared node sets
    against the per-plane evaluation they replace."""

    # one-plane blocks (0.05, 0.4), a duplicate plane (0.41), planes out of
    # order, a uniform run of repeated gaps and, past 2.5 m, a far block
    # of 300 planes on about 7600 nodes, which takes three plane chunks
    Z = np.concatenate([[0.41, 0.003, 0.0031, 0.05, 0.4, 0.41, 0.42],
                        np.linspace(0.6, 0.8, 41), np.linspace(2.6, 5.0, 300)])
    RHO = np.array([0.0, 0.004, 0.011, 0.02, 0.035, 0.06, 0.15, 0.4])

    @pytest.mark.parametrize("source, skirt", [("piston", None), ("piston", 40.0),
                                               ("plate", None)])
    def test_matches_per_plane_evaluation(self, std_air, piston_60k, stepped_60k,
                                          source, skirt):
        profile = piston_60k if source == "piston" else stepped_60k
        got = lf.pressure_grid(profile, std_air, 60e3, self.RHO, self.Z, skirt)
        want = _parent_pressure_grid(profile, std_air, 60e3, self.RHO, self.Z, skirt)
        assert got.shape == want.shape
        col_max = np.max(np.abs(want), axis=0)
        assert np.all(np.abs(got - want) <= 1e-12 * col_max)
        assert np.array_equal(got[0], got[5])  # the duplicate plane

    @pytest.mark.parametrize("skirt", [None, 40.0])
    def test_matches_refined_oracle(self, std_air, piston_60k, skirt):
        # against the per-plane evaluator on 4x the panels of both branches:
        # the shared node sets and the interpolated source transform buy no
        # speed with accuracy (measured 3.3e-13; the per-block node sets of
        # the oracle itself are 5.4e-13 off without the skirt)
        got = lf.pressure_grid(piston_60k, std_air, 60e3, self.RHO, self.Z, skirt)
        want = _parent_pressure_grid(piston_60k, std_air, 60e3, self.RHO, self.Z, skirt,
                                     refine=4)
        col_max = np.max(np.abs(want), axis=0)
        assert np.all(np.abs(got - want) <= 1e-12 * col_max)

    def test_kernel_matches_per_plane_evaluation(self, std_air, piston_60k, monkeypatch):
        # dense columns, in no order, take most runs through a kernel; under
        # the skirt some blocks select fewer columns than their run's kernel
        # holds (measured 1.4e-13)
        splits, kernel_split = [], lf._kernel_split

        def split(n_k, k_top, rho_s, run):
            splits.append(([n for _, _, n in run], kernel_split(n_k, k_top, rho_s, run)))
            return splits[-1][1]

        monkeypatch.setattr(lf, "_kernel_split", split)
        rho = np.random.default_rng(5).permutation(np.linspace(0.0, 0.2, 300))
        got = lf.pressure_grid(piston_60k, std_air, 60e3, rho, self.Z, 40.0)
        assert any(0 < n < n_in for n_sel, (n_in, _) in splits for n in n_sel)
        want = _parent_pressure_grid(piston_60k, std_air, 60e3, rho, self.Z, 40.0)
        col_max = np.max(np.abs(want), axis=0)
        assert np.all(np.abs(got - want) <= 1e-12 * col_max)

    def test_90khz_grid_matches_per_plane_evaluation(self, std_air, caplog):
        # the reference piston at 90 kHz on every column and every fourth
        # plane of its volume grid, where kernels carry most columns
        # (measured 6.3e-13, as without kernels: the shared node sets)
        f = 90e3
        a = rad.aperture_for_cd(0.45, f, std_air)
        n = rad.radial_sample_count(a, f, std_air)
        f1, f2 = nl.lsb_am_pair(f, 1e3)
        pair = nl.PrimaryPair(f1, f2, rad.piston_profile(rad.PistonSpec(a, 0.1), n),
                              rad.piston_profile(rad.PistonSpec(a, 0.1), n))
        g = nl.build_volume_grid(pair, std_air)
        z = g.z_nodes[::4]
        with caplog.at_level(logging.DEBUG, logger="sppal.linfield"):
            got = lf.pressure_grid(pair.profile_2, std_air, f, g.r_nodes, z, 40.0)
        n_kern = int(re.search(r"kernel on (\d+) columns", caplog.records[0].getMessage())[1])
        assert n_kern > g.r_nodes.size // 2
        want = _parent_pressure_grid(pair.profile_2, std_air, f, g.r_nodes, z, 40.0)
        col_max = np.max(np.abs(want), axis=0)
        assert np.all(np.abs(got - want) <= 1e-12 * col_max)

    def test_each_bessel_pair_evaluated_once(self, std_air, piston_60k, monkeypatch,
                                             caplog):
        # the call evaluates J0 exactly at the source transform's Chebyshev
        # points on [0, k_top] (n x n_src values), at each run's kernel points
        # on its node range for its kernel columns and at each run's nodes
        # for its direct columns, each value once; the DEBUG record counts
        # them
        seen, node_sets, cheb, splits = [], [], [], []
        kernel_split = lf._kernel_split

        def j0(x, **kwargs):
            seen.append(np.array(x, copy=True).ravel())
            return special.j0(x, **kwargs)

        def nodes(*args):
            node_sets.append(_quad.wavenumber_nodes(*args)[0])
            return _quad.wavenumber_nodes(*args)

        def points(n, hi, lo=0.0):
            cheb.append(_quad.chebyshev_points(n, hi, lo))
            return cheb[-1]

        def split(n_k, k_span, rho_s, run):
            splits.append((n_k, k_span, [n for _, _, n in run],
                           kernel_split(n_k, k_span, rho_s, run)))
            return splits[-1][-1]

        monkeypatch.setattr(lf, "special", type("Special", (), {"j0": staticmethod(j0)}))
        monkeypatch.setattr(lf, "wavenumber_nodes", nodes)
        monkeypatch.setattr(lf, "chebyshev_points", points)
        monkeypatch.setattr(lf, "_kernel_split", split)
        # columns in a shuffled order, dense enough near the axis for kernels
        rho = np.random.default_rng(3).permutation(np.linspace(0.0, 0.15, 200))
        rho_s = np.sort(rho)
        r_src = piston_60k.radii
        for z, skirt in (
            # every propagating block at the 24-panel floor: six blocks
            # share one node set
            (np.concatenate([[0.004], np.geomspace(0.008, 0.2, 12)]), None),
            # node sets of different sizes, skirt selections of several widths
            (np.geomspace(0.004, 1.5, 30), 40.0),
        ):
            seen.clear()
            node_sets.clear()
            cheb.clear()
            splits.clear()
            caplog.clear()
            with caplog.at_level(logging.DEBUG, logger="sppal.linfield"):
                lf.pressure_grid(piston_60k, std_air, 60e3, rho, z, skirt)
            k_src, *k_kern = cheb
            kr = np.concatenate(node_sets)
            assert k_src[-1] == kr.max()
            assert k_src.size == _quad.chebyshev_count(kr.max(), r_src[-1])
            want = [np.outer(k_src, r_src).ravel()]
            assert len(splits) == len(node_sets)
            for krho, (n_k, k_span, n_sel, (n_in, n_c)) in zip(node_sets, splits):
                assert n_k == krho.size and k_span == krho[-1] - krho[0]
                n_u = max(n_sel)
                if n_in:
                    k_c = k_kern.pop(0)
                    assert k_c.size == n_c < n_in <= n_u
                    assert k_c[0] == krho[0] and k_c[-1] == krho[-1]
                    want.append(np.outer(rho_s[:n_in], k_c).ravel())
                want.append(np.outer(rho_s[n_in:n_u], krho).ravel())
            assert not k_kern
            assert any(n_in for *_, (n_in, _) in splits)
            # under the skirt, blocks whose selection ends inside the kernel's
            # columns
            assert skirt is None or any(0 < n < n_in for _, _, n_sel, (n_in, _) in splits
                                        for n in n_sel)
            got = np.sort(np.concatenate(seen))
            assert np.array_equal(got, np.sort(np.concatenate(want)))
            (rec,) = caplog.records
            msg = rec.getMessage()
            n_kern = max(n_in for *_, (n_in, _) in splits)
            rank = max(n_c for *_, (_, n_c) in splits)
            assert f"grid {z.size} x {rho.size}" in msg
            assert f"{len(node_sets)} node sets, {np.unique(kr).size} nodes" in msg
            assert f"{got.size} J0 values, {k_src.size} Chebyshev points" in msg
            assert f"kernel on {n_kern} columns at rank <= {rank}" in msg
            assert re.search(r", \d+\.\d{3} s$", msg)

    def test_silent_by_default(self, std_air, piston_60k, caplog):
        with caplog.at_level(logging.INFO, logger="sppal.linfield"):
            lf.pressure_grid(piston_60k, std_air, 60e3, self.RHO, [0.05, 0.3])
        assert not caplog.records

    @pytest.mark.parametrize("rho, skirt", [([], None), ([], 40.0), ([3.0, 4.0], 40.0)])
    def test_no_column_in_reach(self, std_air, piston_60k, rho, skirt):
        # no column, or every column beyond the skirt: a zero field
        got = lf.pressure_grid(piston_60k, std_air, 60e3, rho, [0.003, 0.01], skirt)
        assert got.shape == (2, len(rho)) and not got.any()

    @pytest.mark.parametrize("rho, z", [
        ([0.0, 0.01], [0.1, np.nan]),
        ([0.0, np.nan], [0.1, 0.2]),
        ([0.0, 0.01], [0.1, np.inf]),
        ([0.0, np.inf], [0.1, 0.2]),
        ([0.0, 0.01], []),
        ([0.0, -0.01], [0.1, 0.2]),
        ([0.0, 0.01], [0.0, 0.2]),
    ])
    def test_rejects_bad_points(self, std_air, piston_60k, rho, z):
        with pytest.raises(ParameterDomainError):
            lf.pressure_grid(piston_60k, std_air, 60e3, rho, z)


class TestFieldCurve:
    def test_validation(self):
        with pytest.raises(ParameterDomainError):
            lf.FieldCurve(np.array([1.0, 0.5]), np.array([1j, 2j]), 1e3)
        with pytest.raises(ParameterDomainError):
            lf.FieldCurve(np.array([]), np.array([]), 1e3)

    def test_spl_convention(self):
        # peak amplitude sqrt(2)*20e-6 Pa corresponds to 0 dB
        c = lf.FieldCurve(np.array([1.0]),
                          np.array([np.sqrt(2) * 20e-6 + 0j]), 1e3)
        assert c.spl[0] == pytest.approx(0.0, abs=1e-12)
