import numpy as np
import pytest
from scipy import optimize, special

from sppal import _quad, radiator as rad
from sppal.errors import InfeasibleDesignError, ParameterDomainError


def free_plate_eigenvalues_bruteforce(nu, lam_max=30.0):
    """Oracle: scan the 2x2 free-edge boundary determinant for roots."""

    def det(lam):
        j0, j1 = special.j0(lam), special.j1(lam)
        i0, i1 = special.i0(lam), special.i1(lam)
        moment_j = -j0 + (1 - nu) * j1 / lam
        moment_i = i0 - (1 - nu) * i1 / lam
        return moment_j * i1 - moment_i * j1

    lams = np.linspace(1.0, lam_max, 40000)
    vals = np.array([det(x) for x in lams])
    roots = []
    for i in np.flatnonzero(np.sign(vals[:-1]) * np.sign(vals[1:]) < 0):
        roots.append(optimize.brentq(det, lams[i], lams[i + 1], xtol=1e-12))
    return roots


class TestPistonProfile:
    def test_uniform_velocity(self):
        p = rad.piston_profile(rad.PistonSpec(0.05, 0.1), 64)
        assert np.all(p.velocity == 0.1 + 0j)
        assert p.radii[0] == 0.0 and p.radii[-1] == 0.05

    def test_complex_phase_passthrough(self):
        p = rad.piston_profile(rad.PistonSpec(0.05, 0.1j), 64)
        assert np.all(p.velocity == 0.1j)

    def test_needs_two_samples(self):
        with pytest.raises(ParameterDomainError):
            rad.piston_profile(rad.PistonSpec(0.05, 0.1), 1)


class TestPlateModes:
    def test_free_eigenvalue_against_bruteforce(self):
        # oracle at nu = 0.33: first axisymmetric root of the free plate
        roots = free_plate_eigenvalues_bruteforce(0.33, lam_max=8.0)
        assert roots[0] ** 2 == pytest.approx(9.0689, abs=2e-3)
        lam = rad._eigenvalue_for_mode(rad.Boundary.FREE, 0.33, 1)
        assert lam == pytest.approx(roots[0], rel=1e-9)

    def test_free_eigenvalue_nu_030(self):
        # the classical lambda^2 = 9.003 tabulated value belongs to nu = 0.30
        lam = rad._eigenvalue_for_mode(rad.Boundary.FREE, 0.30, 1)
        assert lam ** 2 == pytest.approx(9.003, abs=1e-3)

    @pytest.mark.parametrize("mode_m", [1, 2, 4, 6, 8])
    def test_nodal_circle_count(self, mode_m):
        spec = rad.PlateSpec(0.05, 0.001, 70e9, 0.33, 2700, mode_m)
        ms = rad.plate_mode_shape(spec)
        assert len(ms.nodal_radii) == mode_m
        signs = np.sign(ms.deflection[np.abs(ms.deflection) > 1e-12])
        assert int(np.sum(signs[1:] != signs[:-1])) == mode_m

    def test_normalized_center(self):
        ms = rad.plate_mode_shape(rad.PlateSpec(0.05, 0.001, 70e9, 0.33, 2700, 3))
        assert ms.deflection[0] == pytest.approx(1.0, rel=1e-12)

    def test_frequency_scales_linearly_with_thickness(self):
        s1 = rad.PlateSpec(0.06, 0.0008, 70e9, 0.33, 2700, 4)
        s2 = rad.PlateSpec(0.06, 0.0016, 70e9, 0.33, 2700, 4)
        f1 = rad.plate_mode_shape(s1).natural_frequency
        f2 = rad.plate_mode_shape(s2).natural_frequency
        assert f2 / f1 == pytest.approx(2.0, rel=1e-9)

    def test_clamped_fundamental(self):
        # clamped plate: lowest mode has no interior nodal circle, so the
        # one-circle mode is the second root (lambda ~ 6.3064)
        lam = rad._eigenvalue_for_mode(rad.Boundary.CLAMPED, 0.33, 1)
        assert lam == pytest.approx(6.3064, abs=2e-3)

    def test_clamped_edge_is_not_a_nodal_circle(self):
        # the clamped deflection vanishes at r = a, where its last scan
        # sample is rounding noise of either sign (modes 7 and 8 used to
        # report a radius at 0.99999999999995 a)
        a = 0.05
        for m in range(1, 11):
            ms = rad.plate_mode_shape(rad.PlateSpec(a, 0.001, 70e9, 0.33, 2700, m,
                                                    boundary=rad.Boundary.CLAMPED))
            assert len(ms.nodal_radii) == m
            assert all(x < a for x in ms.nodal_radii)

    def test_free_nodal_radii_from_the_full_scan(self):
        # the free edge keeps its last scan sample: the radii equal those
        # of a sign scan over all 4096 samples, root by root
        a = 0.05
        rho = np.linspace(0.0, 1.0, 4096)
        for m in range(1, 11):
            ms = rad.plate_mode_shape(rad.PlateSpec(a, 0.001, 70e9, 0.33, 2700, m))
            lam = ms.eigenvalue
            w = rad._mode_profile(lam, rad.Boundary.FREE, rho)

            def w_at(x):
                return float(rad._mode_profile(lam, rad.Boundary.FREE, np.array([0.0, x]))[1])

            want = [a * _quad.brentq(w_at, rho[i], rho[i + 1], xtol=1e-14)
                    for i in np.flatnonzero(np.sign(w[:-1]) * np.sign(w[1:]) < 0)]
            assert ms.nodal_radii == tuple(want)

    def test_thin_plate_guard(self):
        with pytest.raises(ParameterDomainError):
            rad.PlateSpec(0.05, 0.02, 70e9, 0.33, 2700, 2)


class TestSizePlate:
    def test_aperture_from_cd(self, std_air):
        spec = rad.size_plate_for(60e3, 0.45, 8, "aluminum", std_air)
        lam = std_air.wavelength(60e3)
        want = np.sqrt((0.45 + lam / 4.0) * lam)
        assert spec.radius_a == pytest.approx(want, rel=1e-12)
        assert spec.radius_a == pytest.approx(0.0508, abs=2e-4)

    def test_round_trip_frequency(self, std_air):
        spec = rad.size_plate_for(60e3, 0.45, 8, "aluminum", std_air)
        f = rad.plate_mode_shape(spec).natural_frequency
        assert abs(f - 60e3) / 60e3 < 1e-4  # 0.01 %

    def test_higher_mode_is_thinner(self, std_air):
        t8 = rad.size_plate_for(60e3, 0.45, 8, "aluminum", std_air).thickness
        t6 = rad.size_plate_for(60e3, 0.45, 6, "aluminum", std_air).thickness
        assert t8 < t6

    def test_infeasible_when_too_thick(self, std_air):
        # very low mode at high frequency and large aperture needs t > a/5
        with pytest.raises(InfeasibleDesignError):
            rad.size_plate_for(90e3, 0.45, 1, "aluminum", std_air)


class TestSteppedProfile:
    @pytest.fixture(scope="class")
    def mode8(self, ):
        spec = rad.PlateSpec(0.0508, 0.00099, 70e9, 0.33, 2700, 8)
        return rad.plate_mode_shape(spec)

    @pytest.fixture(scope="class")
    def mode7(self):
        spec = rad.PlateSpec(0.0508, 0.0012, 70e9, 0.33, 2700, 7)
        return rad.plate_mode_shape(spec)

    def test_even_mode_fully_compensated(self, mode8):
        v0 = 0.5 * np.exp(1j * 0.3)
        prof = rad.stepped_profile(mode8, v0)
        assert prof.kind is rad.SourceKind.STEPPED_PLATE
        projected = (prof.velocity * np.conj(v0)).real
        assert np.min(projected) >= -1e-15

    def test_even_mode_constant_phase(self, mode8):
        prof = rad.stepped_profile(mode8, 1.0)
        nz = np.abs(prof.velocity) > 1e-9
        phases = np.angle(prof.velocity[nz])
        assert np.max(np.abs(phases)) < 1e-12

    def test_odd_mode_outer_zone_uncompensated(self, mode7):
        prof = rad.stepped_profile(mode7, 1.0)
        outer = prof.radii > mode7.nodal_radii[-1]
        # odd mode: outermost annulus keeps its negative-phase velocity
        assert np.min(prof.velocity[outer].real) < 0

    def test_none_policy_is_raw_mode(self, mode8):
        # without n_samples the profile is the mode's own samples, bit for bit
        prof = rad.stepped_profile(mode8, 2.0, rad.StepPolicy.NONE)
        assert prof.kind is rad.SourceKind.FLAT_PLATE
        assert np.array_equal(prof.radii, mode8.radii)
        assert np.array_equal(prof.velocity.real, 2.0 * mode8.deflection)

    def test_sample_floor(self, mode8):
        # a requested count gets at least MIN_PLATE_SAMPLES radii; None keeps
        # the mode's own samples
        for n, size in ((None, mode8.radii.size), (65, rad.MIN_PLATE_SAMPLES),
                        (1025, 1025)):
            assert rad.stepped_profile(mode8, 1.0, n_samples=n).radii.size == size

    @pytest.mark.parametrize("boundary", list(rad.Boundary))
    def test_resampled_profile_is_the_analytic_mode(self, boundary):
        # w = J0(lam rho) + c I0(lam rho) at the requested radii, not an
        # interpolation of the mode's samples (off by ~1e-4 at 1025)
        mode = rad.plate_mode_shape(rad.PlateSpec(0.0508, 0.00099, 70e9, 0.33, 2700, 8,
                                                  boundary=boundary))
        prof = rad.stepped_profile(mode, 1.0, rad.StepPolicy.NONE, n_samples=1025)
        lam, rho = mode.eigenvalue, prof.radii / mode.radius_a
        if boundary is rad.Boundary.FREE:
            c = -special.j1(lam) / special.i1(lam)
        else:
            c = -special.j0(lam) / special.i0(lam)
        w = special.j0(lam * rho) + c * special.i0(lam * rho)
        np.testing.assert_allclose(prof.velocity.real, w / w[0], rtol=0, atol=1e-10)

    def test_center_zone_bare(self, mode8):
        prof = rad.stepped_profile(mode8, 1.0)
        inner = prof.radii < mode8.nodal_radii[0]
        np.testing.assert_allclose(prof.velocity[inner].real,
                                   mode8.deflection[prof.radii < mode8.nodal_radii[0]],
                                   atol=1e-14)


class TestCriticalDistance:
    def test_z1_value(self, std_air):
        # a = 0.0508, 60 kHz: z1 = a^2/lambda - lambda/4, direct evaluation
        lam = std_air.wavelength(60e3)
        want = 0.0508 ** 2 / lam - lam / 4.0
        assert rad.first_local_max(0.0508, 60e3, std_air) == pytest.approx(want)
        assert want == pytest.approx(0.45, abs=3e-3)

    def test_z1_is_argmax_of_closed_form(self, lossless_air):
        from sppal.linfield import axial_piston_pressure

        a, f = 0.0508, 60e3
        z1 = rad.first_local_max(a, f, lossless_air)
        z = np.linspace(0.8 * z1, 1.3 * z1, 4001)
        p = np.abs(axial_piston_pressure(rad.PistonSpec(a, 0.1),
                                         lossless_air, f, z))
        assert z[np.argmax(p)] == pytest.approx(z1, abs=z[1] - z[0])

    def test_small_aperture_infeasible(self, std_air):
        with pytest.raises(InfeasibleDesignError):
            rad.first_local_max(0.001, 40e3, std_air)

    def test_aperture_examples(self, std_air):
        a60 = rad.aperture_for_cd(0.45, 60e3, std_air)
        a40 = rad.aperture_for_cd(0.45, 40e3, std_air)
        assert a60 == pytest.approx(0.0508, abs=2e-4)
        assert a40 > a60

    def test_round_trip(self, std_air):
        for d_uc, f in [(0.3, 40e3), (0.45, 60e3), (0.35, 90e3)]:
            a = rad.aperture_for_cd(d_uc, f, std_air)
            assert rad.first_local_max(a, f, std_air) == pytest.approx(d_uc,
                                                                       rel=1e-12)
