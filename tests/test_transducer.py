import numpy as np
import pytest

from sppal import radiator as rad
from sppal import transducer as td
from sppal.errors import (
    InfeasibleDesignError,
    NoDualResonanceError,
    ParameterDomainError,
)
from sppal.linfield import EquivalenceRatio
from sppal.materials import Material, PiezoProps, get_material


def quiet_material(name, density, modulus, loss=0.0):
    return Material(name, density=density, youngs_modulus=modulus,
                    poisson_ratio=0.3, loss_factor=loss)


def quiet_pzt(loss=0.0):
    pz = PiezoProps(s33_e=13.9e-12, d33=225e-12, eps33_s=5.2e-9, s11_e=11.5e-12)
    return Material("tpzt", density=7600.0, youngs_modulus=1.0 / pz.s33_e,
                    poisson_ratio=0.31, loss_factor=loss, piezo=pz)


class TestPzgFrf:
    FREQS = np.arange(40e3, 80e3, 10.0)

    def test_low_frequency_limit(self):
        frf = td.pzg_frf(td.PzgKind.SR, 1.0, None, 60e3, None, 0.01,
                         np.array([1.0, 10.0, 100.0]))
        mags = np.abs(frf.center_velocity)
        assert mags[0] < mags[1] < mags[2]
        assert mags[0] < 1e-10

    def test_anti_resonance_notch(self):
        f_anti = 59.3e3
        v_small = td.pzg_frf(td.PzgKind.DR, 1.0, 58.6e3, 60e3, f_anti, 1e-4,
                             np.array([f_anti]))
        v_big = td.pzg_frf(td.PzgKind.DR, 1.0, 58.6e3, 60e3, f_anti, 1e-2,
                           np.array([f_anti]))
        assert abs(v_small.center_velocity[0]) < 0.02 * abs(v_big.center_velocity[0])

    def test_sr_peak_scales_inverse_eta(self):
        peaks = []
        for eta in (0.001, 0.002):
            frf = td.pzg_frf(td.PzgKind.SR, 1.0, None, 60e3, None, eta, self.FREQS)
            peaks.append(np.max(np.abs(frf.center_velocity)))
        assert peaks[0] / peaks[1] == pytest.approx(2.0, rel=1e-3)

    def test_dr_parameter_ordering(self):
        with pytest.raises(ParameterDomainError):
            td.pzg_frf(td.PzgKind.DR, 1.0, 58e3, 60e3, 61e3, 0.01, self.FREQS)
        with pytest.raises(ParameterDomainError):
            td.pzg_frf(td.PzgKind.DR, 1.0, 58e3, 60e3, None, 0.01, self.FREQS)


class TestBuildStack:
    def test_arity(self):
        with pytest.raises(ParameterDomainError):
            td.build_stack(td.StackConfig.HALF, 9e-3, 8e-3, 0.75e-3, [0.02] * 4)
        with pytest.raises(ParameterDomainError):
            td.build_stack(td.StackConfig.FULL, 9e-3, 8e-3, 0.75e-3, [0.02] * 3)

    def test_reference_design_valid(self):
        spec = td.build_stack(td.StackConfig.FULL, 9e-3, 8e-3, 0.75e-3,
                              [0.015, 0.015, 0.02, 0.02], f_u0=60e3)
        assert spec.tip_radius == 0.75e-3
        assert sum(1 for s in spec.segments if s.is_piezo) == 2

    def test_piezo_radius_band(self):
        lam_r = get_material("pzt").radial_speed() / 60e3
        with pytest.raises(InfeasibleDesignError):
            td.build_stack(td.StackConfig.HALF, lam_r / 10.0, 8e-3, 0.75e-3,
                           [0.02] * 3, f_u0=60e3)
        with pytest.raises(InfeasibleDesignError):
            td.build_stack(td.StackConfig.HALF, lam_r / 3.0, 8e-3, 0.75e-3,
                           [0.02] * 3, f_u0=60e3)


class TestInitialLengths:
    MATS = {"back": "aluminum", "front": "aluminum", "horn": "aluminum"}

    def test_uniform_rod_half_wave(self):
        x0, _ = td.langevin_initial_lengths(60e3, td.StackConfig.HALF, 0.0,
                                            self.MATS)
        c = get_material("aluminum").rod_speed
        assert np.sum(x0) == pytest.approx(c / (2 * 60e3), rel=1e-12)

    def test_bounds_bracket(self):
        x0, (lo, hi) = td.langevin_initial_lengths(60e3, td.StackConfig.FULL,
                                                   8e-3)
        assert np.all(lo < x0) and np.all(x0 < hi)
        np.testing.assert_allclose(lo, 0.5 * x0)
        np.testing.assert_allclose(hi, 1.5 * x0)

    def test_full_twice_half(self):
        xh, _ = td.langevin_initial_lengths(60e3, td.StackConfig.HALF, 0.0,
                                            self.MATS)
        xf, _ = td.langevin_initial_lengths(60e3, td.StackConfig.FULL, 0.0,
                                            self.MATS)
        assert np.sum(xf) / np.sum(xh) == pytest.approx(2.0, rel=1e-12)


class TestComplexTrig:
    """The chain's real-arithmetic cos/sin of a complex angle."""

    A = np.concatenate([np.arange(-4, 9) * (np.pi / 2),
                        np.arange(-4, 8) * (np.pi / 2) + 0.37, [1e-9, 123.4]])

    @pytest.mark.parametrize("b", [0.0, 1e-3, -1e-3, 1.0, -1.0, 10.0, -10.0,
                                   1e-6, -5e-4])
    def test_matches_complex_cos_sin(self, b):
        # real parts within 4 eps cosh b; the imaginary parts, which carry a
        # lossy rod's damping, within 4 eps |sinh b| (<= 4 eps cosh b)
        a = self.A
        cos, sin = td._cos_sin(a, np.full_like(a, b))
        eps = np.finfo(float).eps
        for got, want in ((cos, np.cos(a + 1j * b)), (sin, np.sin(a + 1j * b))):
            assert np.max(np.abs(got.real - want.real)) <= 4 * eps * np.cosh(b)
            assert np.max(np.abs(got.imag - want.imag)) <= 4 * eps * abs(np.sinh(b))


class TestTransferMatrix:
    def test_half_wave_rod_resonance(self):
        # uniform free-free rod driven through vanishing piezo coupling:
        # velocity peak at c/(2L) within 0.1 %
        alu = get_material("aluminum")
        pz = Material("probe", density=alu.density,
                      youngs_modulus=alu.youngs_modulus, poisson_ratio=0.3,
                      loss_factor=1e-4,
                      piezo=PiezoProps(s33_e=1.0 / alu.youngs_modulus,
                                       d33=1e-13, eps33_s=5e-9,
                                       s11_e=1.0 / alu.youngs_modulus))
        f0 = 60e3
        length = alu.rod_speed / (2 * f0)
        spec = td.TransducerSpec(td.StackConfig.HALF,
                                 (td.Segment(length, 0.01, pz, is_piezo=True),))
        freqs = np.arange(0.9 * f0, 1.1 * f0, 5.0)
        frf = td.frf_transfer_matrix(spec, 0.0, freqs)
        f_peak = freqs[np.argmax(np.abs(frf.center_velocity))]
        assert abs(f_peak - f0) / f0 < 1e-3

    def test_split_composition(self):
        seg = td.Segment(0.021, 0.007, get_material("steel"))
        s1, s2 = seg.split(0.3)
        f = np.array([30e3, 55e3, 80e3])
        t_full = td.segment_matrix(seg, f)
        t_split = np.einsum("nij,njk->nik", td.segment_matrix(s1, f),
                            td.segment_matrix(s2, f))
        scale = np.max(np.abs(t_full))
        assert np.max(np.abs(t_full - t_split)) / scale < 1e-10

    def test_determinant_unity_lossless(self):
        seg = td.Segment(0.015, 0.006, quiet_material("m0", 2700, 70e9, 0.0))
        t = td.segment_matrix(seg, np.array([20e3, 60e3, 95e3]))
        det = t[:, 0, 0] * t[:, 1, 1] - t[:, 0, 1] * t[:, 1, 0]
        np.testing.assert_allclose(det, 1.0, atol=1e-10)

    def test_voltage_linearity(self):
        spec1 = td.build_stack(td.StackConfig.HALF, 9e-3, 8e-3, 1e-3,
                               [0.015, 0.015, 0.02], drive_voltage=1.0)
        spec2 = td.build_stack(td.StackConfig.HALF, 9e-3, 8e-3, 1e-3,
                               [0.015, 0.015, 0.02], drive_voltage=2.0)
        freqs = np.arange(45e3, 75e3, 50.0)
        v1 = td.frf_transfer_matrix(spec1, 0.0, freqs).center_velocity
        v2 = td.frf_transfer_matrix(spec2, 0.0, freqs).center_velocity
        np.testing.assert_allclose(v2, 2.0 * v1, rtol=1e-12)

    def test_singular_frequency_filled_from_neighbours(self):
        spec = td.build_stack(td.StackConfig.HALF, 9e-3, 8e-3, 1e-3,
                              [0.015, 0.015, 0.02])
        freqs = np.linspace(55e3, 55.4e3, 5)
        chain = td.StackChain(spec.segments, freqs)
        load = np.full(freqs.size, 50.0 + 20.0j)
        clean = chain.frf(spec, load).center_velocity
        load[2] = np.nan
        v = chain.frf(spec, load).center_velocity
        assert np.array_equal(np.delete(v, 2), np.delete(clean, 2))
        assert v[2] == pytest.approx(0.5 * (clean[1] + clean[3]), rel=1e-12)
        with pytest.raises(ParameterDomainError, match="singular everywhere"):
            chain.frf(spec, np.full(freqs.size, np.nan + 0j))

    @pytest.mark.parametrize("config", list(td.StackConfig))
    def test_subset_equals_whole_lattice(self, config):
        # any increasing index subset evaluates each frequency to the bits
        # of the whole-lattice call, as does a chain built on every 8th
        # frequency (the design loop's coarse scan)
        x0, _ = td.langevin_initial_lengths(60e3, config, 8e-3)
        spec = td.build_stack(config, 9e-3, 8e-3, 0.75e-3, 1.03 * x0,
                              drive_voltage=1.7)
        freqs = np.arange(48e3, 72e3, td.PEAK_GRID_STEP)
        load = (40.0 + 3e-4 * freqs) + 1j * (freqs - 60e3) * 1e-3
        chain = td.StackChain(spec.segments, freqs)
        rng = np.random.default_rng(8)
        subsets = [np.sort(rng.choice(freqs.size, size=k, replace=False))
                   for k in (1, 7, 76, 300, 1111)]
        subsets += [np.arange(a, a + 19) for a in (0, 1181, freqs.size - 19)]
        subsets.append(np.arange(0, freqs.size, 8))
        for z_load in (load, 35.0 + 2.0j):
            whole = chain.frf(spec, z_load).center_velocity
            assert np.all(np.isfinite(whole))
            for index in subsets:
                part = chain.frf(spec, z_load, index)
                assert np.array_equal(part.freqs, freqs[index])
                assert np.array_equal(part.center_velocity, whole[index])
        coarse = td.StackChain(spec.segments, freqs[::8])
        assert np.array_equal(coarse.frf(spec, load[::8]).center_velocity,
                              chain.frf(spec, load).center_velocity[::8])

    def test_subset_reports_singular_frequency(self):
        # the whole lattice fills a singular frequency from its neighbours;
        # a subset reports it as non-finite and leaves the rest untouched
        spec = td.build_stack(td.StackConfig.HALF, 9e-3, 8e-3, 1e-3,
                              [0.015, 0.015, 0.02])
        freqs = np.linspace(55e3, 55.4e3, 5)
        chain = td.StackChain(spec.segments, freqs)
        load = np.full(freqs.size, 50.0 + 20.0j)
        load[2] = np.nan
        whole = chain.frf(spec, load).center_velocity
        part = chain.frf(spec, load, [1, 2, 3]).center_velocity
        assert np.isfinite(whole[2]) and not np.isfinite(part[1])
        assert np.array_equal(part[[0, 2]], whole[[1, 3]])
        alone = chain.frf(spec, load, [2]).center_velocity
        assert alone.shape == (1,) and not np.isfinite(alone[0])

    def test_sandwich_against_impedance_recursion(self):
        # independent oracle: transmission-line impedance recursion with the
        # Mason shunt (voltage-driven piezo = acoustic line + extra shunt)
        steel = quiet_material("s0", 7930, 193e9, 0.0)
        alu = quiet_material("a0", 2700, 70e9, 0.0)
        pzt = quiet_pzt(0.0)
        r = 0.009
        segs = (td.Segment(0.020, r, steel),
                td.Segment(0.008, r, pzt, is_piezo=True),
                td.Segment(0.030, r, alu))
        spec = td.TransducerSpec(td.StackConfig.HALF, segs)
        freqs = np.arange(20e3, 60e3, 2.0)
        frf = td.frf_transfer_matrix(spec, 0.0, freqs)
        f_peak = freqs[np.argmax(np.abs(frf.center_velocity))]

        area = np.pi * r * r
        pz = pzt.piezo

        def z_line(z_right, zc, kl):
            t = np.tan(kl)
            return zc * (z_right + 1j * zc * t) / (zc + 1j * z_right * t)

        def z_tee(z_right, zc, kl, z_shunt_extra):
            # series-shunt-series tee of a line plus the Mason shunt term
            z_ser = zc / (1j * np.tan(kl)) - zc / (1j * np.sin(kl))
            z_sh = zc / (1j * np.sin(kl)) + z_shunt_extra
            z_mid = z_right + z_ser
            z_par = z_sh * z_mid / (z_sh + z_mid)
            return z_par + z_ser

        def back_impedance(f):
            om = 2 * np.pi * f
            z = 0.0  # free front face
            c_al = alu.rod_speed
            z = z_line(z, alu.density * c_al * area, om / c_al * 0.030)
            s33d = pz.s33_e * (1 - pz.k33_sq)
            c_pz = 1.0 / np.sqrt(pzt.density * s33d)
            n_ratio = pz.d33 * area / (pz.s33_e * 0.008)
            c0 = pz.eps33_s * area / 0.008
            z = z_tee(z, pzt.density * c_pz * area, om / c_pz * 0.008,
                      -n_ratio ** 2 / (1j * om * c0))
            c_st = steel.rod_speed
            z = z_line(z, steel.density * c_st * area, om / c_st * 0.020)
            return z

        # free back face: resonance where the input impedance vanishes
        scan = np.arange(20e3, 60e3, 2.0)
        vals = np.array([back_impedance(f).imag for f in scan])
        roots = []
        from scipy.optimize import brentq
        for i in np.flatnonzero(np.sign(vals[:-1]) * np.sign(vals[1:]) < 0):
            # keep zeros of Z (resonances), skip poles (anti-resonances)
            if abs(vals[i]) < 1e7 and abs(vals[i + 1]) < 1e7:
                roots.append(brentq(lambda f: back_impedance(f).imag,
                                    scan[i], scan[i + 1], xtol=1e-6))
        assert roots, "oracle found no resonance in band"
        nearest = min(roots, key=lambda r0: abs(r0 - f_peak))
        assert abs(nearest - f_peak) / f_peak < 1e-3

    def test_mass_load_lowers_resonance(self):
        alu = quiet_material("a1", 2700, 70e9, 1e-5)
        pz = quiet_pzt(1e-5)
        segs = (td.Segment(0.01, 0.008, alu),
                td.Segment(0.008, 0.008, pz, is_piezo=True),
                td.Segment(0.02, 0.008, alu))
        spec = td.TransducerSpec(td.StackConfig.HALF, segs)
        freqs = np.arange(30e3, 90e3, 10.0)
        f_free = freqs[np.argmax(np.abs(
            td.frf_transfer_matrix(spec, 0.0, freqs).center_velocity))]
        f_mass = freqs[np.argmax(np.abs(
            td.frf_transfer_matrix(
                spec, 1j * 2 * np.pi * freqs * 0.005, freqs
            ).center_velocity))]
        assert f_mass < f_free


class TestPlateLoad:
    @pytest.fixture(scope="class")
    def plate_mode(self, std_air):
        plate = rad.size_plate_for(60e3, 0.45, 8, "aluminum", std_air)
        return plate, rad.plate_mode_shape(plate)

    def test_reactive_zero_at_resonance(self, std_air, plate_mode):
        plate, mode = plate_mode
        lossless_plate = rad.PlateSpec(plate.radius_a, plate.thickness,
                                       plate.youngs_modulus, plate.poisson_ratio,
                                       plate.density, plate.mode_m,
                                       loss_factor=0.0)
        er_none = EquivalenceRatio(-300.0, 60e3, 0.45)  # radiation suppressed
        f_m = mode.natural_frequency
        z = td.plate_load_impedance(lossless_plate, mode, er_none, std_air,
                                    np.array([f_m]))
        scale = abs(td.plate_load_impedance(lossless_plate, mode, er_none,
                                            std_air, np.array([1.05 * f_m]))[0])
        assert abs(z[0].imag) < 1e-6 * scale

    def test_resonant_magnitude_grows_with_loss(self, std_air, plate_mode):
        plate, mode = plate_mode
        er_none = EquivalenceRatio(-300.0, 60e3, 0.45)
        f_m = np.array([mode.natural_frequency])
        mags = []
        for eta in (0.001, 0.01):
            p = rad.PlateSpec(plate.radius_a, plate.thickness,
                              plate.youngs_modulus, plate.poisson_ratio,
                              plate.density, plate.mode_m, loss_factor=eta)
            mags.append(abs(td.plate_load_impedance(p, mode, er_none,
                                                    std_air, f_m)[0]))
        assert mags[1] > mags[0]

    def test_mode8_smaller_than_mode6(self, std_air):
        zs = {}
        for mm in (6, 8):
            plate = rad.size_plate_for(60e3, 0.45, mm, "aluminum", std_air)
            mode = rad.plate_mode_shape(plate)
            er = EquivalenceRatio(-18.0, 60e3, 0.45)
            f = np.linspace(59e3, 61e3, 21)
            zs[mm] = np.min(np.abs(td.plate_load_impedance(plate, mode, er,
                                                           std_air, f)))
        assert zs[8] < zs[6]


class TestDrFeatures:
    FREQS = np.arange(50e3, 70e3, td.PEAK_GRID_STEP)

    def test_pzg_dr_recovery(self):
        frf = td.pzg_frf(td.PzgKind.DR, 1e9, 58.6e3, 60e3, 59.3e3, 0.002,
                         self.FREQS)
        feats = td.extract_dr_features(frf)
        assert feats.f_r1 == pytest.approx(58.6e3, abs=3 * td.PEAK_GRID_STEP)
        assert feats.f_r2 == pytest.approx(60e3, abs=3 * td.PEAK_GRID_STEP)
        assert feats.f_r1 < feats.f_m < feats.f_r2

    def test_sr_raises(self):
        frf = td.pzg_frf(td.PzgKind.SR, 1e9, None, 60e3, None, 0.002, self.FREQS)
        with pytest.raises(NoDualResonanceError):
            td.extract_dr_features(frf)

    def test_ordering_invariant_random(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            f1 = rng.uniform(52e3, 58e3)
            fd = rng.uniform(0.5e3, 6e3)
            fa = f1 + fd * rng.uniform(0.2, 0.8)
            eta = rng.uniform(0.001, 0.004)
            frf = td.pzg_frf(td.PzgKind.DR, 1e9, f1, f1 + fd, fa, eta, self.FREQS)
            feats = td.extract_dr_features(frf)
            assert feats.f_r1 < feats.f_m < feats.f_r2
            assert feats.v_m <= min(feats.v_r1, feats.v_r2) + 1e-12
            assert feats.f_dist == pytest.approx(feats.f_r2 - feats.f_r1)


    def test_equal_peaks_rank_higher_frequency_first(self):
        mag = np.array([0.0, 5.0, 0.0, 7.0, 0.0, 5.0, 0.0, 1.0])
        assert td.interior_peaks(mag).tolist() == [3, 5, 1]
        _, used = td.lattice_dr_features(np.arange(8.0), mag)
        assert used == (3, 5, 4)

    def test_unevaluated_samples_neither_peak_nor_minimum(self):
        # NaN marks a sample that was not evaluated: with only the chosen
        # samples and their neighbours kept, the features are the same;
        # without a peak's neighbour that peak is not found
        frf = td.pzg_frf(td.PzgKind.DR, 1e9, 58.6e3, 60e3, 59.3e3, 0.002,
                         self.FREQS)
        mag = np.abs(frf.center_velocity)
        want, used = td.lattice_dr_features(frf.freqs, mag)
        assert want == td.extract_dr_features(frf)
        keep = np.add.outer(np.array(used), [-1, 0, 1]).ravel()
        sparse = np.full(mag.size, np.nan)
        sparse[keep] = mag[keep]
        assert td.lattice_dr_features(frf.freqs, sparse) == (want, used)
        sparse[used[1] + 1] = np.nan
        with pytest.raises(NoDualResonanceError):
            td.lattice_dr_features(frf.freqs, sparse)

class TestObjectives:
    def test_geometric_mean_identities(self):
        f1, f2 = td.objectives(td.DrFeatures(59e3, 60e3, 1.0, 1.0, 59.5e3, 1.0))
        assert f1 == -1.0 and f2 == 1e3
        f1, _ = td.objectives(td.DrFeatures(59e3, 60e3, 8.0, 1.0, 59.5e3, 1.0))
        assert f1 == pytest.approx(-2.0, rel=1e-14)

    def test_scale_property_random_frfs(self):
        rng = np.random.default_rng(11)
        freqs = np.arange(50e3, 70e3, td.PEAK_GRID_STEP)
        for _ in range(100):
            f1 = rng.uniform(52e3, 60e3)
            fd = rng.uniform(1e3, 5e3)
            frf = td.pzg_frf(td.PzgKind.DR, 10 ** rng.uniform(6, 10), f1,
                             f1 + fd, f1 + 0.5 * fd, rng.uniform(0.001, 0.005),
                             freqs)
            s = 10 ** rng.uniform(-2, 2)
            base = td.objectives(td.extract_dr_features(frf))
            scaled = td.objectives(td.extract_dr_features(frf.scaled(s)))
            assert scaled[0] == pytest.approx(s * base[0], rel=1e-9)
            assert scaled[1] == pytest.approx(base[1], rel=1e-9)

    def test_rejects_nonpositive(self):
        with pytest.raises(ParameterDomainError):
            td.objectives(td.DrFeatures(59e3, 60e3, 1.0, 1.0, 59.5e3, 0.0))


class TestCrScreen:
    def test_flags_modal_set(self):
        flagged = td.cr_screen([400.0, 2000.0, 5000.0], (100.0, 6000.0), 100.0)
        assert flagged == [400.0, 2000.0, 5000.0]

    def test_grid_flags_within_tolerance(self):
        grid = np.arange(100.0, 6000.0, 50.0)
        flagged = td.cr_screen([400.0, 2000.0, 5000.0], (100.0, 6000.0),
                               100.0, grid)
        assert 3500.0 not in flagged
        for f in flagged:
            assert min(abs(f - m) for m in (400.0, 2000.0, 5000.0)) <= 100.0
        for center in (400.0, 2000.0, 5000.0):
            assert any(abs(f - center) <= 100.0 for f in flagged)

    def test_empty_modes(self):
        assert td.cr_screen([], (100.0, 6000.0), 100.0) == []

    def test_band_filter(self):
        assert td.cr_screen([50.0, 400.0, 8000.0], (100.0, 6000.0), 100.0) \
            == [400.0]
