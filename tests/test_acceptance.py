"""Acceptance suite: one test per criterion, one printed verdict line each.

Heavy field computations run at the library's default quadrature
settings unless a criterion states its own budget; every criterion
carries its stated tolerance inline.
"""

import time
import warnings

import numpy as np
import pytest
from scipy import special
from scipy.optimize import brentq

from sppal import _quad
from sppal import linfield as lf
from sppal import nlfield as nl
from sppal import optimizer as opt
from sppal import radiator as rad
from sppal import transducer as td
from sppal.errors import NoDualResonanceError
from sppal.materials import Material, PiezoProps
from sppal.medium import absorption_coeff, build_medium

from chain_oracle import segment_matrix, split
from pareto_oracle import hypervolume_2d


def verdict(num, name, ok, detail):
    line = f"ACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def air():
    return build_medium()


@pytest.fixture(scope="module")
def air0():
    return build_medium().lossless()


def piston(a, v, f, medium):
    return rad.piston_profile(rad.PistonSpec(a, v),
                              rad.radial_sample_count(a, f, medium))


def test_01_piston_oracle(air0):
    t0 = time.time()
    a, f = 0.0508, 60e3
    spec = rad.PistonSpec(a, 0.1)
    prof = piston(a, 0.1, f, air0)
    z1 = rad.first_local_max(a, f, air0)
    z = np.linspace(a / 2.0, 10.0 * z1, 201)
    p_quad = lf.rayleigh_field(prof, air0, f, np.zeros_like(z), z)
    p_cf = lf.axial_piston_pressure(spec, air0, f, z)
    dmax = float(np.max(np.abs(lf.spl_db(p_quad) - lf.spl_db(p_cf))))
    elapsed = time.time() - t0
    verdict(1, "piston quadrature vs closed form", dmax < 0.1 and elapsed < 5.0,
            f"max|dSPL|={dmax:.4f} dB (<0.1), runtime={elapsed:.2f}s (<5)")


def test_02_z1_identity(air0):
    combos = [(0.30, 40e3), (0.35, 50e3), (0.40, 60e3), (0.45, 75e3),
              (0.45, 90e3)]
    worst = 0.0
    for d_uc, f in combos:
        a = rad.aperture_for_cd(d_uc, f, air0)
        z1 = rad.first_local_max(a, f, air0)
        z = np.linspace(0.75 * z1, 1.25 * z1, 501)
        curve = lf.propagation_curve(piston(a, 0.1, f, air0), air0, f, z)
        dz = z[1] - z[0]
        err = abs(z[np.argmax(curve.spl)] - z1)
        worst = max(worst, err / dz)
    verdict(2, "z1 identity on 5 design cells", worst <= 1.0,
            f"worst |argmax-z1| = {worst:.2f} grid steps (<=1)")


@pytest.mark.slow
def test_03_contour_delta(air):
    t0 = time.time()
    contour = opt.audio_cd_contour(
        (0.30, 0.35, 0.40, 0.45), (40e3, 50e3, 60e3, 75e3, 90e3),
        1e3, 0.1, 0.1, air)
    elapsed = time.time() - t0

    def level_at(fi, d_target=0.45):
        d = contour.d_ac[:, fi]
        lv = contour.l_pa_c[:, fi]
        order = np.argsort(d)
        return float(np.interp(d_target, d[order], lv[order]))

    delta = level_at(0) - level_at(4)  # 40 kHz minus 90 kHz columns
    ok = (3.0 <= delta <= 7.0) and elapsed < 600.0
    verdict(3, "carrier-frequency contour delta", ok,
            f"L(40k)-L(90k) at D_ac=0.45 m: {delta:.2f} dB (5+-2), "
            f"runtime={elapsed:.0f}s (<600)")


def test_04_berktay_slope(air):
    a = rad.aperture_for_cd(0.45, 60e3, air)
    z_far = 6.0
    f_as = np.array([500.0, 707.0, 1000.0, 1414.0, 2000.0])
    mags = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for f_a in f_as:
            pair = nl.PrimaryPair(*nl.lsb_am_pair(60e3, f_a), a, 0.1, 0.1)
            solver = nl.QuasilinearSolver(pair, air)
            mags.append(abs(solver.pressures([0.0], [z_far])[0]))
    slope = float(np.polyfit(np.log2(f_as), 20 * np.log10(mags), 1)[0])
    bk = [nl.berktay_farfield(nl.PrimaryPair(*nl.lsb_am_pair(60e3, f_a), a, 0.1, 0.1),
                              air, z_far)
          for f_a in f_as]
    slope_bk = float(np.polyfit(np.log2(f_as), 20 * np.log10(bk), 1)[0])
    ok = abs(slope - 12.04) <= 1.0
    verdict(4, "far-field audio slope", ok,
            f"solver {slope:.2f} dB/oct (12+-1), analytic check "
            f"{slope_bk:.2f} dB/oct")


def test_05_bilinearity(air):
    a, f2, f_a = 0.012, 60e3, 2e3
    f1 = f2 - f_a
    dz = air.wavelength(f2) / 12.0
    z_nodes = np.arange(dz / 2.0, 0.1, dz)
    r_nodes = np.arange(dz / 2.0, 0.04, dz)
    grid = nl.VolumeGrid(z_nodes, r_nodes, _quad.simpson_weights(z_nodes),
                         _quad.simpson_weights(r_nodes))

    def audio(v1, v2):
        s = nl.QuasilinearSolver(nl.PrimaryPair(f1, f2, a, v1, v2), air, grid=grid)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            return s.pressures([0.0], [0.06])[0]

    rng = np.random.default_rng(42)
    base_v1 = 0.1 * np.exp(0.4j)
    base_v2 = 0.08 * np.exp(-0.9j)
    p_base = audio(base_v1, base_v2)
    worst = 0.0
    for _ in range(200):
        s1 = rng.uniform(0.2, 3.0) * np.exp(1j * rng.uniform(-np.pi, np.pi))
        s2 = rng.uniform(0.2, 3.0) * np.exp(1j * rng.uniform(-np.pi, np.pi))
        got = audio(s1 * base_v1, s2 * base_v2)
        # audio amplitude is linear in the carrier drive and
        # conjugate-linear in the sideband drive
        want = np.conj(s1) * s2 * p_base
        worst = max(worst, abs(got - want) / abs(want))
    verdict(5, "bilinearity over 200 random scalings", worst < 1e-9,
            f"worst relative deviation {worst:.2e} (<1e-9)")


@pytest.mark.slow
def test_06_quasilinear_oracle(air):
    t0 = time.time()
    a, f2, f_a = 0.012, 60e3, 2e3
    f1 = f2 - f_a
    lam = air.wavelength(f2)
    z_cap, r_cap = 0.12, 0.045

    dz = lam / 12.0
    dr = lam / 10.0
    z_nodes = np.arange(dz / 2, z_cap, dz)
    r_nodes = np.arange(dr / 2, r_cap, dr)
    wz = _quad.simpson_weights(z_nodes)
    wz[0] += z_nodes[0]
    wz[-1] += z_cap - z_nodes[-1]
    wr = _quad.simpson_weights(r_nodes)
    wr[0] += r_nodes[0]
    wr[-1] += r_cap - r_nodes[-1]
    grid = nl.VolumeGrid(z_nodes, r_nodes, wz, wr)
    pair = nl.PrimaryPair(f1, f2, a, 0.1, 0.1)
    solver = nl.QuasilinearSolver(pair, air, grid=grid)
    rho_p = np.array([0.0, 0.0, 0.0, 0.008, 0.016])
    z_p = np.array([0.03, 0.06, 0.10, 0.05, 0.08])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        p_fast = solver.pressures(rho_p, z_p)

    # brute force: Cartesian source patches x Cartesian volume, coded
    # without any of the solver machinery
    dxs = lam / 8.0
    xs = np.arange(-a, a + dxs, dxs)
    sx, sy = np.meshgrid(xs, xs, indexing="ij")
    keep = sx ** 2 + sy ** 2 <= a * a
    sx, sy = sx[keep], sy[keep]
    dxv = lam / 6.0
    xv = np.arange(-r_cap + dxv / 2, r_cap, dxv)
    zv = np.arange(dxv / 2, z_cap, dxv)
    rho0, c0 = air.density, air.sound_speed

    def brute_primary(f, v):
        kc = air.wavenumber(f) - 1j * absorption_coeff(air, f)
        om = 2 * np.pi * f
        out = np.empty((zv.size, xv.size, xv.size), dtype=complex)
        cx = xv[:, None, None]
        cy = xv[None, :, None]
        for iz, z in enumerate(zv):
            big_r = np.sqrt((cx - sx[None, None, :]) ** 2
                            + (cy - sy[None, None, :]) ** 2 + z * z)
            out[iz] = (1j * om * rho0 / (2 * np.pi) * v * dxs * dxs
                       * np.sum(np.exp(-1j * kc * big_r) / big_r, axis=-1))
        return out

    p1v = brute_primary(f1, 0.1)
    p2v = brute_primary(f2, 0.1)
    ka_c = air.wavenumber(f_a) - 1j * absorption_coeff(air, f_a)
    coef = air.beta * (2 * np.pi * f_a) ** 2 / (rho0 * c0 ** 4)
    src = coef * np.conj(p1v) * p2v * dxv ** 3
    deltas = []
    cx = xv[None, :, None]
    cy = xv[None, None, :]
    for rr, zz in zip(rho_p, z_p):
        acc = 0j
        for iz, z in enumerate(zv):
            big_r = np.sqrt((rr - cx) ** 2 + cy ** 2 + (zz - z) ** 2)
            acc += np.sum(src[iz] * np.exp(-1j * ka_c * big_r)
                          / (4 * np.pi * big_r))
        deltas.append(abs(20 * np.log10(abs(p_fast[len(deltas)]) / abs(acc))))
    elapsed = time.time() - t0
    worst = max(deltas)
    verdict(6, "fast path vs 3D Cartesian brute force",
            worst < 0.5 and elapsed < 300.0,
            f"worst |dSPL| on 5 probes = {worst:.3f} dB (<0.5), "
            f"runtime={elapsed:.0f}s (<300)")


@pytest.fixture(scope="module")
def stepped_design(air):
    plate = rad.size_plate_for(60e3, 0.45, 8, "aluminum", air)
    mode = rad.plate_mode_shape(plate)
    n = rad.radial_sample_count(plate.radius_a, 60e3, air)
    return rad.stepped_profile(mode, 1.0, n_samples=n)


def test_07_equivalence_ratio_anchor(air, stepped_design):
    er0 = lf.equivalence_ratio(stepped_design, air, 60e3, 0.45).er_db
    band = [lf.equivalence_ratio(stepped_design, air, f, 0.45).er_db
            for f in np.linspace(50e3, 60e3, 11)]
    spread = max(band) - min(band)
    dists = np.linspace(0.45, 1.35, 13)
    v0 = stepped_design.center_velocity
    ref = rad.piston_profile(rad.PistonSpec(stepped_design.radius_a, v0),
                             len(stepped_design.radii))
    p_sp = lf.rayleigh_field(stepped_design, air, 60e3, np.zeros_like(dists),
                             dists)
    p_rp = lf.rayleigh_field(ref, air, 60e3, np.zeros_like(dists), dists)
    axial = 20 * np.log10(np.abs(p_sp) / np.abs(p_rp))
    axial_spread = float(np.max(axial) - np.min(axial))
    ok = (-23.0 <= er0 <= -17.0) and spread <= 3.0 and axial_spread <= 1.0
    verdict(7, "equivalence-ratio anchor", ok,
            f"er={er0:.2f} dB (-20+-3), band spread={spread:.2f} dB (<=3), "
            f"axial spread={axial_spread:.2f} dB (<=1)")


def test_08_beam_anchors(air, air0, stepped_design):
    # stepped plate: quarter-power (-6 dB) beamwidth at the design
    # frequency, 1 m range; the printed ~6 degree figure reads as the
    # full width (a 6 degree half-angle would sit beyond the first null
    # of the matching piston, contradicting the piston anchor below)
    th = np.linspace(0.0, 12.0, 481)
    bp = lf.beam_pattern(stepped_design, air, 60e3, 1.0, th)
    rel = bp.spl_rel
    j = int(np.flatnonzero(rel <= -6.0)[0])
    th6 = float(np.interp(-6.0, [rel[j], rel[j - 1]], [th[j], th[j - 1]]))
    width = 2.0 * th6

    a = stepped_design.radius_a
    prof = piston(a, 0.1, 60e3, air0)
    ka = air0.wavenumber(60e3) * a
    th_null = float(np.degrees(np.arcsin(special.jn_zeros(1, 1)[0] / ka)))
    z1 = rad.first_local_max(a, 60e3, air0)
    th_scan = np.linspace(th_null - 0.3, th_null + 0.3, 301)
    # the Rayleigh integral at every angle, not the far-field kernel
    th_rad = np.deg2rad(th_scan)
    pq = lf.rayleigh_field(prof, air0, 60e3, 40 * z1 * np.abs(np.sin(th_rad)),
                           40 * z1 * np.cos(th_rad))
    found = float(th_scan[np.argmin(np.abs(pq))])
    ok = (4.5 <= width <= 7.5) and abs(found - th_null) <= 0.1
    verdict(8, "beam-pattern anchors", ok,
            f"SP quarter-power width={width:.2f} deg (6+-1.5), piston null "
            f"{found:.3f} vs {th_null:.3f} deg (+-0.1)")


def test_09_objective_formulas():
    f1, _ = td.objectives(td.DrFeatures(59e3, 60e3, 8.0, 1.0, 59.5e3, 1.0))
    exact = f1 == pytest.approx(-2.0, rel=1e-14)
    rng = np.random.default_rng(17)
    freqs = np.arange(50e3, 70e3, td.PEAK_GRID_STEP)
    worst_f1 = worst_f2 = 0.0
    for _ in range(100):
        fr1 = rng.uniform(52e3, 60e3)
        fd = rng.uniform(1e3, 5e3)
        frf = td.pzg_frf(td.PzgKind.DR, 10 ** rng.uniform(6, 10), fr1,
                         fr1 + fd, fr1 + 0.5 * fd,
                         rng.uniform(0.001, 0.005), freqs)
        s = 10 ** rng.uniform(-2, 2)
        b1, b2 = td.objectives(td.extract_dr_features(frf))
        s1, s2 = td.objectives(td.extract_dr_features(frf.scaled(s)))
        worst_f1 = max(worst_f1, abs(s1 - s * b1) / abs(s * b1))
        worst_f2 = max(worst_f2, abs(s2 - b2) / b2)
    ok = exact and worst_f1 < 1e-9 and worst_f2 < 1e-9
    verdict(9, "objective formulas", ok,
            f"F1(8,1,1)=-2 exact={exact}, scale-property dev: "
            f"F1 {worst_f1:.1e}, F2 {worst_f2:.1e} (<1e-9)")


def test_10_transfer_matrix_oracle():
    # half-wave rod through near-zero piezo coupling
    alu = Material("a", density=2700.0, youngs_modulus=70e9, poisson_ratio=0.3,
                   loss_factor=1e-4,
                   piezo=PiezoProps(s33_e=1.0 / 70e9, d33=1e-13, eps33_s=5e-9,
                                    s11_e=1.0 / 70e9))
    f0 = 60e3
    length = alu.rod_speed / (2 * f0)
    spec = td.TransducerSpec(
        td.StackConfig.HALF, (td.Segment(length, 0.01, alu, is_piezo=True),))
    freqs = np.arange(0.95 * f0, 1.05 * f0, 2.0)
    frf = td.frf_transfer_matrix(spec, 0.0, freqs)
    f_peak = freqs[np.argmax(np.abs(frf.center_velocity))]
    rod_err = abs(f_peak - f0) / f0

    seg = td.Segment(0.021, 0.007, Material("s", 7930, 193e9, 0.29, 0.002))
    s1, s2 = split(seg, 0.37)
    fgrid = np.array([25e3, 60e3, 95e3])
    t_full = segment_matrix(seg, fgrid)
    t_split = np.einsum("nij,njk->nik", segment_matrix(s1, fgrid),
                        segment_matrix(s2, fgrid))
    split_err = float(np.max(np.abs(t_full - t_split))
                      / np.max(np.abs(t_full)))

    # mass-loaded sandwich vs the independent impedance recursion
    steel = Material("st", 7930, 193e9, 0.29, 0.0)
    alu0 = Material("al", 2700, 70e9, 0.33, 0.0)
    pz_props = PiezoProps(s33_e=13.9e-12, d33=225e-12, eps33_s=5.2e-9,
                          s11_e=11.5e-12)
    pzt = Material("pz", 7600, 1.0 / pz_props.s33_e, 0.31, 0.0,
                   piezo=pz_props)
    r = 0.009
    area = np.pi * r * r
    lb, lp_len, lf_len = 0.020, 0.008, 0.030
    sandwich = td.TransducerSpec(td.StackConfig.HALF, (
        td.Segment(lb, r, steel), td.Segment(lp_len, r, pzt, is_piezo=True),
        td.Segment(lf_len, r, alu0)))
    fgrid2 = np.arange(20e3, 60e3, 2.0)
    frf2 = td.frf_transfer_matrix(sandwich, 0.0, fgrid2)
    f_pk2 = fgrid2[np.argmax(np.abs(frf2.center_velocity))]

    def z_line(z_right, zc, kl):
        t = np.tan(kl)
        return zc * (z_right + 1j * zc * t) / (zc + 1j * z_right * t)

    def z_tee(z_right, zc, kl, shunt_extra):
        z_ser = zc / (1j * np.tan(kl)) - zc / (1j * np.sin(kl))
        z_sh = zc / (1j * np.sin(kl)) + shunt_extra
        z_mid = z_right + z_ser
        return z_sh * z_mid / (z_sh + z_mid) + z_ser

    def back_impedance(f):
        om = 2 * np.pi * f
        z = 0.0
        c_al = alu0.rod_speed
        z = z_line(z, alu0.density * c_al * area, om / c_al * lf_len)
        s33d = pz_props.s33_e * (1 - pz_props.k33_sq)
        c_pz = 1.0 / np.sqrt(pzt.density * s33d)
        n_ratio = pz_props.d33 * area / (pz_props.s33_e * lp_len)
        c0cap = pz_props.eps33_s * area / lp_len
        z = z_tee(z, pzt.density * c_pz * area, om / c_pz * lp_len,
                  -n_ratio ** 2 / (1j * om * c0cap))
        c_st = steel.rod_speed
        return z_line(z, steel.density * c_st * area, om / c_st * lb)

    scan = np.arange(20e3, 60e3, 2.0)
    vals = np.array([back_impedance(f).imag for f in scan])
    roots = []
    for i in np.flatnonzero(np.sign(vals[:-1]) * np.sign(vals[1:]) < 0):
        if abs(vals[i]) < 1e7 and abs(vals[i + 1]) < 1e7:
            roots.append(brentq(lambda f: back_impedance(f).imag,
                                scan[i], scan[i + 1], xtol=1e-6))
    sandwich_err = min(abs(r0 - f_pk2) / f_pk2 for r0 in roots)
    ok = rod_err < 1e-3 and split_err < 1e-10 and sandwich_err < 1e-3
    verdict(10, "transfer-matrix oracles", ok,
            f"rod peak err={rod_err:.2e} (<1e-3), split err={split_err:.1e} "
            f"(<1e-10), sandwich vs root-finder err={sandwich_err:.2e} (<1e-3)")


def test_11_nsga2(air, monkeypatch):
    def bi(xs):
        # one generation at a time: a row of objectives per design vector
        return [(x[0] ** 2, (x[0] - 2.0) ** 2) for x in xs]

    # the archive after each generation, as the loop keeps it: one run
    # recorded, where 50 runs cut at 1..50 generations would take 54 s
    archives, update = [], opt._archive_update

    def recording(*args):
        archives.append(update(*args))
        return archives[-1]

    cfg = opt.NsgaConfig(pop=40, generations=50, seed=7)
    with monkeypatch.context() as m:
        m.setattr(opt, "_archive_update", recording)
        res = opt.nsga2(bi, ([-5.0], [5.0]), cfg)
    hv_true = 15.0 + 1.0 / 3.0 + 0.5 * 4.5
    hv_err = abs(hypervolume_2d(res.f, (4.5, 4.5)) - hv_true) / hv_true
    res_b = opt.nsga2(bi, ([-5.0], [5.0]), cfg)
    reproducible = (np.array_equal(res.x, res_b.x)
                    and np.array_equal(res.f, res_b.f))
    hv_history = [hypervolume_2d(np.array(f), (4.5, 4.5)) for _, f in archives]
    hv_monotone = (len(hv_history) == cfg.generations + 1
                   and bool(np.all(np.diff(hv_history) >= -1e-12)))

    params = opt.DesignParams(d_uc=0.45, f_u0=60e3, mode_m=8,
                              config=td.StackConfig.FULL, r_p=9e-3,
                              l_p=8e-3, r_h=0.75e-3)
    run_cfg = opt.NsgaConfig(pop=12, generations=5, seed=2)
    ctx = opt.DesignContext(params, air)
    front = opt.optimize_lengths(ctx, run_cfg)
    front_b = opt.optimize_lengths(ctx, run_cfg)
    same = all(np.array_equal(p.x, q.x) and p.objectives == q.objectives
               for p, q in zip(front.points, front_b.points))
    pts = front.sorted_by_f2()
    f1s = [p.objectives[0] for p in pts]
    tradeoff = all(f1s[i] >= f1s[i + 1] - 1e-15 for i in range(len(f1s) - 1))
    nondom = True
    f_arr = np.array([p.objectives for p in front.points])
    for i in range(f_arr.shape[0]):
        for j in range(f_arr.shape[0]):
            if i != j and np.all(f_arr[j] <= f_arr[i]) and np.any(f_arr[j] < f_arr[i]):
                nondom = False
    ok = hv_err < 0.01 and hv_monotone and reproducible and same \
        and tradeoff and nondom
    verdict(11, "NSGA-II", ok,
            f"hv err={hv_err:.4%} (<1%), monotone={hv_monotone}, "
            f"seed-reproducible={reproducible and same}, front non-dominated="
            f"{nondom}, trade-off monotone={tradeoff}")


def test_12_dual_resonance_benefit(air, monkeypatch):
    f_r2, f_dist = 60e3, 1.4e3
    f_r1 = f_r2 - f_dist
    f_anti = 0.5 * (f_r1 + f_r2)
    eta = 0.05
    freqs = np.arange(55e3, 62e3, 5.0)
    dr = td.pzg_frf(td.PzgKind.DR, 4.0e11, f_r1, f_r2, f_anti, eta, freqs)
    sr = td.pzg_frf(td.PzgKind.SR, 1.0, None, f_r2, None, eta, freqs)
    # matched carrier: equalize the velocity magnitude at the carrier
    scale = abs(dr.interp(f_r2)) / abs(sr.interp(f_r2))
    sr = sr.scaled(scale)

    # dense velocity-level check: the audio level difference at matched
    # carrier equals the sideband velocity ratio exactly
    f_a_dense = np.arange(10.0, f_dist + 5.0, 10.0)
    v_dr = np.abs(dr.interp(f_r2 - f_a_dense))
    v_sr = np.abs(sr.interp(f_r2 - f_a_dense))
    dense_ok = bool(np.all(v_dr > v_sr))
    margin_db = float(np.min(20 * np.log10(v_dr / v_sr)))

    # field check through the full audio pipeline at a few frequencies
    a = rad.aperture_for_cd(0.45, f_r2, air)
    monkeypatch.setattr(nl, "_Z_MAX_CAP", 1.5)
    st = nl.SolverSettings()
    z = np.geomspace(0.1, 1.2, 17)
    lift = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for f_a in (100.0, 700.0, 1400.0):
            spl = {}
            for name, frf in (("dr", dr), ("sr", sr)):
                v1 = frf.interp(f_r2 - f_a)
                v2 = frf.interp(f_r2)
                pair = nl.PrimaryPair(f_r2 - f_a, f_r2, a, v1, v2)
                solver = nl.QuasilinearSolver(pair, air, settings=st)
                spl[name] = nl.find_audio_cd(solver.propagation_curve(z)).spl
            lift.append(spl["dr"] - spl["sr"])
    field_ok = all(dv > 0 for dv in lift)
    verdict(12, "dual-resonance low-band benefit", dense_ok and field_ok,
            f"velocity check min margin {margin_db:.3f} dB > 0 over "
            f"f_a<=f_dist; field lift at 0.1/0.7/1.4 kHz: "
            + "/".join(f"{v:+.2f}" for v in lift) + " dB")


def test_13_cr_screening():
    modes = [400.0, 2000.0, 5000.0]
    grid = np.arange(100.0, 6000.0, 25.0)
    flagged = td.cr_screen(modes, (100.0, 6000.0), 100.0, grid)
    near_modes = all(min(abs(f - m) for m in modes) <= 100.0 for f in flagged)
    covers = all(any(abs(f - m) <= 100.0 for f in flagged) for m in modes)
    control_clear = all(abs(f - 3500.0) > 1e-9 for f in flagged)
    default_list = td.cr_screen(modes, (100.0, 6000.0), 100.0)
    ok = near_modes and covers and control_clear and default_list == modes
    verdict(13, "combination-resonance screening", ok,
            f"flags cover {modes} Hz within +-100 Hz, 3.5 kHz control clear="
            f"{control_clear}")
