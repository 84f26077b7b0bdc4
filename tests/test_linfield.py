import numpy as np
import pytest
from scipy import special

from sppal import linfield as lf
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
        w = lf._radial_weights(r) * r * piston_60k.velocity
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
