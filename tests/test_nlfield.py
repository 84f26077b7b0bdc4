import logging
import re
import sys
import threading
import time
import tracemalloc
import warnings
from functools import partial

import numpy as np
import pytest
from scipy import special

from sppal import _quad
from sppal import linfield as lf
from sppal import nlfield as nl
from sppal import radiator as rad
from sppal.errors import (
    BoundaryPeakWarning,
    NumericalFailureError,
    ParameterDomainError,
    TruncationTailWarning,
)

#: the golden check's tolerance on audio SPL columns [dB]
SPL_TOL_DB = 0.01


def desk_pair(medium, v1=0.1, v2=0.1, f2=60e3, f_a=2e3, a=0.012):
    n = rad.radial_sample_count(a, f2, medium)
    f1, f2 = nl.lsb_am_pair(f2, f_a)
    return nl.PrimaryPair(
        f1, f2,
        rad.piston_profile(rad.PistonSpec(a, v1), n),
        rad.piston_profile(rad.PistonSpec(a, v2), n),
    )


@pytest.fixture(scope="module")
def desk_settings():
    # truncated desk-scale domain keeps solver builds around a second
    return nl.SolverSettings(z_max_cap=0.15)


@pytest.fixture(scope="module")
def desk_solver(std_air, desk_settings):
    return nl.QuasilinearSolver(desk_pair(std_air), std_air, desk_settings)


def pointwise_pressure(solver, rho, z, order=64):
    """The volume sum cell by cell, which the Hankel-domain path must match.

    On axis the azimuthal integral of every ring is exact; off axis it is
    a fixed Gauss-Legendre rule over phi in [0, pi], doubled by symmetry.
    """
    g = solver.grid
    zz, rr = np.meshgrid(g.z_nodes, g.r_nodes, indexing="ij")
    sw = solver._sw_ri[:g.z_nodes.size] + 1j * solver._sw_ri[g.z_nodes.size:]
    cz, cr, sw = zz.ravel(), rr.ravel(), sw.ravel()
    k = solver._k_audio

    def ring_sum(bigr):
        return np.sum(sw * np.exp(-1j * k * bigr) / (4.0 * np.pi * bigr))

    if rho == 0.0:
        return 2.0 * np.pi * ring_sum(np.sqrt((z - cz) ** 2 + cr ** 2))
    x, w = _quad.gauss_legendre(order)
    acc = 0.0 + 0.0j
    for cp, wp in zip(np.cos(0.5 * np.pi * (x + 1.0)), w * (np.pi / 2.0)):
        acc += wp * ring_sum(np.sqrt((z - cz) ** 2 + rho ** 2 + cr ** 2
                                     - 2.0 * rho * cr * cp))
    return 2.0 * acc


class TestLsbAm:
    def test_placement(self):
        assert nl.lsb_am_pair(60e3, 1e3) == (59e3, 60e3)

    def test_difference_identity(self):
        for fc, fa in [(40e3, 500.0), (90e3, 4e3), (61e3, 1.0)]:
            f1, f2 = nl.lsb_am_pair(fc, fa)
            assert f2 - f1 == pytest.approx(fa)

    def test_bounds(self):
        with pytest.raises(ParameterDomainError):
            nl.lsb_am_pair(60e3, 0.0)
        with pytest.raises(ParameterDomainError):
            nl.lsb_am_pair(60e3, 60e3)


class TestPrimaryPair:
    def test_ordering(self, std_air):
        prof = rad.piston_profile(rad.PistonSpec(0.01, 0.1), 65)
        with pytest.raises(ParameterDomainError):
            nl.PrimaryPair(60e3, 59e3, prof, prof)

    def test_shared_aperture(self):
        p1 = rad.piston_profile(rad.PistonSpec(0.01, 0.1), 65)
        p2 = rad.piston_profile(rad.PistonSpec(0.02, 0.1), 65)
        with pytest.raises(ParameterDomainError):
            nl.PrimaryPair(59e3, 60e3, p1, p2)

    @pytest.mark.parametrize("policy", [rad.StepPolicy.STANDARD, rad.StepPolicy.NONE])
    def test_plate_profiles_rejected(self, policy):
        # the audio field is that of the equivalence-ratio piston: a
        # stepped- or flat-plate profile is refused, on either primary
        mode = rad.plate_mode_shape(rad.PlateSpec(0.0508, 0.00099, 70e9, 0.33, 2700, 8))
        plate = rad.stepped_profile(mode, 0.1, policy)
        piston = rad.piston_profile(rad.PistonSpec(mode.radius_a, 0.1), 65)
        for p1, p2 in ((plate, piston), (piston, plate)):
            with pytest.raises(ParameterDomainError, match="pistons"):
                nl.PrimaryPair(59e3, 60e3, p1, p2)


class TestVolumeGrid:
    def test_truncation_extends_domain(self, std_air):
        pair = desk_pair(std_air)
        g40 = nl.build_volume_grid(pair, std_air, nl.SolverSettings(truncation_db=40))
        g60 = nl.build_volume_grid(pair, std_air, nl.SolverSettings(truncation_db=60))
        assert g60.z_nodes[-1] > g40.z_nodes[-1]

    def test_weights_positive(self, std_air):
        g = nl.build_volume_grid(desk_pair(std_air), std_air, nl.SolverSettings())
        assert np.all(g.wz > 0) and np.all(g.wr > 0)

    def test_weight_sum_matches_extent(self, std_air):
        g = nl.build_volume_grid(desk_pair(std_air), std_air, nl.SolverSettings())
        assert np.sum(g.wz) == pytest.approx(g.z_nodes[-1], rel=0.02)

    def test_validation(self):
        with pytest.raises(ParameterDomainError):
            nl.VolumeGrid([0.1], [0.01], [-1.0], [0.1])


class TestQuasilinearBasics:
    def test_zero_primary_gives_zero(self, std_air, desk_settings):
        pair = desk_pair(std_air, v1=0.0)
        s = nl.QuasilinearSolver(pair, std_air, desk_settings)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            p = s.pressures([0.0], [0.08])[0]
        assert p == 0.0

    def test_magnitude_scaling(self, std_air, desk_settings, desk_solver):
        pair2 = desk_pair(std_air, v1=0.2, v2=0.3)
        s2 = nl.QuasilinearSolver(pair2, std_air, desk_settings,
                                  grid=desk_solver.grid)
        p1 = desk_solver.pressures([0.0], [0.08])[0]
        p2 = s2.pressures([0.0], [0.08])[0]
        assert abs(p2) / abs(p1) == pytest.approx(6.0, rel=1e-9)

    def test_conjugate_linear_in_sideband(self, std_air, desk_settings,
                                          desk_solver):
        s1 = 0.6 - 0.8j
        pair_c = desk_pair(std_air, v1=0.1 * s1)
        sc = nl.QuasilinearSolver(pair_c, std_air, desk_settings,
                                  grid=desk_solver.grid)
        p0 = desk_solver.pressures([0.0], [0.08])[0]
        pc = sc.pressures([0.0], [0.08])[0]
        assert abs(pc - np.conj(s1) * p0) / abs(p0) < 1e-9

    def test_linear_in_carrier(self, std_air, desk_settings, desk_solver):
        s2 = 0.3 + 0.4j
        pair_c = desk_pair(std_air, v2=0.1 * s2)
        sc = nl.QuasilinearSolver(pair_c, std_air, desk_settings,
                                  grid=desk_solver.grid)
        p0 = desk_solver.pressures([0.0], [0.08])[0]
        pc = sc.pressures([0.0], [0.08])[0]
        assert abs(pc - s2 * p0) / abs(p0) < 1e-9

    def test_single_cell_analytic_limit(self, lossless_air):
        # one tiny cell: the solver must reproduce q * G * dV directly
        pair = desk_pair(lossless_air)
        g = nl.VolumeGrid([0.02], [0.002], [1e-3], [1e-4])
        s = nl.QuasilinearSolver(pair, lossless_air, grid=g)
        p1 = lf.pressure_grid(pair.profile_1, lossless_air, pair.f_u1,
                              g.r_nodes, g.z_nodes)[0, 0]
        p2 = lf.pressure_grid(pair.profile_2, lossless_air, pair.f_u2,
                              g.r_nodes, g.z_nodes)[0, 0]
        wa = 2 * np.pi * pair.f_a
        coef = lossless_air.beta * wa ** 2 / (lossless_air.density
                                              * lossless_air.sound_speed ** 4)
        d = 1.0
        bigr = np.sqrt((d - 0.02) ** 2 + 0.002 ** 2)
        ka = lossless_air.wavenumber(pair.f_a)
        want = (coef * np.conj(p1) * p2 * (2 * np.pi * 0.002 * 1e-3 * 1e-4)
                * np.exp(-1j * ka * bigr) / (4 * np.pi * bigr))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            got = s.pressures([0.0], [d])[0]
        assert abs(got - want) / abs(want) < 0.02

    def test_truncation_warning_fires(self, std_air):
        pair = desk_pair(std_air)
        st = nl.SolverSettings(truncation_db=18, z_max_cap=0.15)
        s = nl.QuasilinearSolver(pair, std_air, st)
        with pytest.warns(TruncationTailWarning):
            s.pressures([0.0], [0.05])

    def test_deterministic_across_batching(self, desk_solver):
        z = np.array([0.05, 0.08, 0.11])
        batch = desk_solver.pressures(np.zeros(3), z)
        single = np.array([desk_solver.pressures([0.0], [zz])[0] for zz in z])
        np.testing.assert_array_equal(batch, single)

    @pytest.mark.parametrize("rho, z", [
        ([0.0], [np.nan]),
        ([np.nan], [0.05]),
        ([0.01], [np.inf]),
        ([-0.01], [0.05]),
        ([0.0, 0.01], [0.05]),
        ([0.0], [-0.05]),
    ])
    def test_bad_points_rejected(self, desk_solver, rho, z):
        with pytest.raises(ParameterDomainError):
            desk_solver.pressures(rho, z)


class TestSpectralPath:
    """The Hankel-domain sum against the cell-by-cell volume sum."""

    @pytest.mark.parametrize("rho, z", [
        # on axis: inside the source domain (which ends near 0.153 m)
        # and beyond it
        (0.0, 0.01), (0.0, 0.05), (0.0, 0.08), (0.0, 0.11), (0.0, 0.3),
        # off axis: inside the domain, inside and outside the beam
        (0.005, 0.05), (0.02, 0.02), (0.03, 0.1), (0.05, 0.2),
    ])
    def test_matches_pointwise_sum(self, desk_solver, rho, z):
        got = desk_solver.pressures([rho], [z])[0]
        want = pointwise_pressure(desk_solver, rho, z)
        assert abs(20.0 * np.log10(abs(got) / abs(want))) <= SPL_TOL_DB

    @pytest.mark.parametrize("rho", [0.0, 0.004])
    def test_point_on_source_plane(self, desk_solver, rho):
        z0 = desk_solver.grid.z_nodes[40]
        p = desk_solver.pressures(np.full(3, rho), [z0, z0 + 1e-9, z0 - 1e-9])
        np.testing.assert_allclose(p[1:], p[0], rtol=1e-6)
        want = pointwise_pressure(desk_solver, rho, z0)
        assert abs(20.0 * np.log10(abs(p[0]) / abs(want))) <= SPL_TOL_DB

    def test_off_axis_independent_of_batch(self, desk_solver):
        alone = desk_solver.pressures([0.02], [0.05])
        mixed = desk_solver.pressures([0.0, 0.02, 0.3, 0.01],
                                      [0.08, 0.05, 0.1, 0.12])
        np.testing.assert_array_equal(alone, mixed[1:2])

    def test_unresolved_point_raises(self, lossless_air):
        # a point on the ring of a one-cell grid: every band of the
        # doubling cutoff adds about as much as the last
        g = nl.VolumeGrid([0.02], [0.002], [1e-3], [1e-4])
        s = nl.QuasilinearSolver(desk_pair(lossless_air), lossless_air, grid=g)
        with pytest.raises(NumericalFailureError) as info:
            s.pressures([0.0, 0.002], [1.0, 0.02])
        assert str(info.value) == (
            "audio field at (rho=0.002 m, z=0.02 m) still moves by more than 0.05 dB "
            "at k_r = 1171.64 1/m, the last cutoff below the grid's radial sampling "
            "wavenumber 1570.8 1/m (1 points left)")

    def test_debug_record_per_call(self, desk_solver, caplog):
        with caplog.at_level(logging.WARNING, logger="sppal.nlfield"):
            desk_solver.pressures([0.0], [0.08])
        assert not caplog.records
        with caplog.at_level(logging.DEBUG, logger="sppal.nlfield"):
            desk_solver.pressures([0.0, 0.02], [0.08, 0.05])
        (rec,) = [r for r in caplog.records if r.name == "sppal.nlfield"]
        g = desk_solver.grid
        msg = rec.getMessage()
        assert rec.levelno == logging.DEBUG
        assert f"grid {g.z_nodes.size} x {g.r_nodes.size}" in msg
        assert "k_r nodes" in msg and "cutoff" in msg
        # both points share one node set, which converges at its first
        # resolved band: bands 0-6, each one block on this grid
        assert "in 7 bands and 7 blocks" in msg
        assert re.search(r"sum \d+\.\d{3} s$", msg)


@pytest.fixture(scope="module")
def reference_pair(std_air):
    """The paper's reference piston pair: d_uc = 0.45 m, 60 kHz carrier,
    1 kHz audio, 0.1 m/s on each primary (the grid is 901 x 438)."""
    a = rad.aperture_for_cd(0.45, 60e3, std_air)
    return desk_pair(std_air, f2=60e3, f_a=1e3, a=a)


def _serial(first, second):
    return first(), second()


class TestConcurrentPrimaries:
    """The solver evaluates its sideband on a worker thread while the
    calling thread evaluates the carrier."""

    def test_bits_equal_serial_evaluation(self, std_air, reference_pair, monkeypatch):
        pair, fields = reference_pair, {}

        def recording(profile, medium, f, *args, **kwargs):
            on_main = threading.current_thread() is threading.main_thread()
            fields[f] = on_main, lf.pressure_grid(profile, medium, f, *args, **kwargs)
            return fields[f][1]

        monkeypatch.setattr(nl, "pressure_grid", recording)
        solver = nl.QuasilinearSolver(pair, std_air)
        assert [fields[f][0] for f in (pair.f_u1, pair.f_u2)] == [False, True]
        monkeypatch.undo()
        g, skirt = solver.grid, solver.settings.truncation_db / 2.0 + 10.0
        for profile, f in ((pair.profile_1, pair.f_u1), (pair.profile_2, pair.f_u2)):
            alone = lf.pressure_grid(profile, std_air, f, g.r_nodes, g.z_nodes, skirt)
            assert np.array_equal(fields[f][1], alone)
        monkeypatch.setattr(nl, "_in_parallel", _serial)
        serial = nl.QuasilinearSolver(pair, std_air, grid=g)
        assert np.array_equal(serial.primary_carrier, solver.primary_carrier)
        assert np.array_equal(serial._sw_ri, solver._sw_ri)

    def test_given_carrier_starts_no_worker(self, std_air, desk_settings, desk_solver,
                                            monkeypatch):
        def no_worker(first, second):
            raise AssertionError("a worker thread was started")

        monkeypatch.setattr(nl, "_in_parallel", no_worker)
        s = nl.QuasilinearSolver(desk_solver.pair, std_air, desk_settings,
                                 grid=desk_solver.grid,
                                 primary_carrier=desk_solver.primary_carrier)
        assert np.array_equal(s._sw_ri, desk_solver._sw_ri)

    @pytest.mark.parametrize("on_worker", [True, False])
    def test_typed_error_reaches_the_caller(self, std_air, desk_settings, monkeypatch,
                                            on_worker):
        pair = desk_pair(std_air)
        err = NumericalFailureError("primary failed")
        failing = pair.f_u1 if on_worker else pair.f_u2

        def pressure_grid(profile, medium, f, *args, **kwargs):
            if f == failing:
                raise err
            return lf.pressure_grid(profile, medium, f, *args, **kwargs)

        monkeypatch.setattr(nl, "pressure_grid", pressure_grid)
        with pytest.raises(NumericalFailureError) as info:
            nl.QuasilinearSolver(pair, std_air, desk_settings)
        assert info.value is err
        assert threading.active_count() == 1

    def test_debug_record(self, desk_settings, std_air, caplog):
        with caplog.at_level(logging.DEBUG, logger="sppal"):
            s = nl.QuasilinearSolver(desk_pair(std_air), std_air, desk_settings)
        (rec,) = [r for r in caplog.records if r.name == "sppal.nlfield"]
        msg = rec.getMessage()
        grid = f"grid {s.grid.z_nodes.size} x {s.grid.r_nodes.size}"
        assert rec.levelno == logging.DEBUG
        assert grid in msg
        assert "sideband" in msg and "carrier" in msg and "pair" in msg
        n_src = s.pair.profile_1.radii.size
        workspace = lf.grid_workspace_bytes(s.grid.z_nodes.size, s.grid.r_nodes.size, n_src)
        assert workspace == (2 * 8 * lf.GRID_WORKSPACE_VALUES
                             + 16 * s.grid.z_nodes.size * s.grid.r_nodes.size)
        assert f"workspace <= {workspace} B" in msg
        # and one record of each primary's pressure_grid call
        prim = [r.getMessage() for r in caplog.records if r.name == "sppal.linfield"]
        assert len(prim) == 2
        for msg in prim:
            assert msg.startswith(f"pressure_grid: {grid}")
            assert re.search(r"\d+ node sets, \d+ nodes, \d+ J0 values, "
                             r"\d+ Chebyshev points, kernel on \d+ columns at rank <= \d+, "
                             r"\d+\.\d{3} s$", msg)


@pytest.fixture(scope="module")
def reference_solver(std_air, reference_pair):
    return nl.QuasilinearSolver(reference_pair, std_air)


class TestConcurrentBlocks:
    """The audio sum evaluates its blocks of k_r nodes on the calling
    thread and one worker, with the bits of one thread."""

    @pytest.mark.parametrize("rho, z", [
        # the audio-pc grid: 60 on-axis points
        (np.zeros(60), np.linspace(0.05, 2.0, 60)),
        # off axis: the audio-bp angles at 1 m, and points in the beam
        (np.abs(np.sin(np.deg2rad([-30.0, 0.0, 30.0]))), np.cos(np.deg2rad([-30.0, 0.0, 30.0]))),
        ([0.02, 0.05, 0.3, 0.0], [0.08, 0.2, 1.0, 0.5]),
    ])
    def test_bits_equal_serial_evaluation(self, reference_solver, monkeypatch, rho, z):
        threaded = reference_solver.pressures(rho, z)
        monkeypatch.setattr(nl, "_in_parallel", _serial)
        assert np.array_equal(reference_solver.pressures(rho, z), threaded)

    def test_blocks_add_in_node_order(self, desk_solver, monkeypatch):
        # 64-node blocks: the propagating band's 640 nodes make 10 of them
        monkeypatch.setattr(nl, "_BLOCK_VALUES", 64 * desk_solver.grid.z_nodes.size)
        kr, jac = _quad.wavenumber_nodes(desk_solver._k_audio.real, 24)
        points = nl._PlanePoints.locate(desk_solver.grid.z_nodes, np.zeros(30),
                                        np.linspace(0.01, 0.3, 30))
        (band,), blocks = desk_solver._band([(kr, jac)], points)
        want = np.zeros(30, dtype=complex)
        for s in range(0, kr.size, 64):
            want += desk_solver._block(kr[s:s + 64], jac[s:s + 64], points)
        assert blocks == 10
        assert np.array_equal(band, want)

    def test_later_bands_retire_points(self, lossless_air, monkeypatch):
        # one source plane on a fine radial grid: points close to the plane
        # need bands past the first resolved one, and with 8-node blocks
        # those bands run in several blocks
        r = np.arange(0.05e-3, 3e-3, 0.1e-3)
        g = nl.VolumeGrid([0.02], r, [1e-3], _quad.simpson_weights(r))
        s = nl.QuasilinearSolver(desk_pair(lossless_air), lossless_air, grid=g)
        monkeypatch.setattr(nl, "_BLOCK_VALUES", 8)
        rounds, band = [], nl.QuasilinearSolver._band

        def recording(self, bands, points):
            sums, blocks = band(self, bands, points)
            rounds.append((len(bands), blocks, points.rho.size))
            return sums, blocks

        monkeypatch.setattr(nl.QuasilinearSolver, "_band", recording)
        rho, z = [0.001, 0.0, 0.001, 0.002, 0.0], [0.023, 0.021, 0.0205, 0.0198, 0.0202]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", TruncationTailWarning)
            threaded = s.pressures(rho, z)
            assert rounds == [(7, 104, 5), (1, 2, 3), (1, 4, 1)]
            monkeypatch.setattr(nl, "_in_parallel", _serial)
            assert np.array_equal(s.pressures(rho, z), threaded)

    def test_typed_error_from_a_worker_block(self, desk_solver, monkeypatch):
        err = NumericalFailureError("block failed")
        failed, block = threading.Event(), nl.QuasilinearSolver._block

        def failing(self, *args):
            if threading.current_thread() is threading.main_thread():
                failed.wait(10.0)  # hold this block until the worker has failed
                return block(self, *args)
            failed.set()
            raise err

        monkeypatch.setattr(nl.QuasilinearSolver, "_block", failing)
        with pytest.raises(NumericalFailureError) as info:
            desk_solver.pressures([0.0], [0.08])
        assert info.value is err
        assert failed.is_set()
        assert threading.active_count() == 1


def test_in_turn_runs_each_task_once():
    ran, interval = [], sys.getswitchinterval()

    def task(i):
        time.sleep(1e-3)  # hands the interpreter lock to the other thread
        ran.append((i, threading.current_thread().name))
        return i

    sys.setswitchinterval(1e-6)
    try:
        results = nl._in_turn([partial(task, i) for i in range(100)])
    finally:
        sys.setswitchinterval(interval)
    assert results == list(range(100))
    assert sorted(i for i, _ in ran) == list(range(100))
    assert len({name for _, name in ran}) == 2
    assert threading.active_count() == 1


def test_sweep_stops_at_the_last_kept_plane():
    rng = np.random.default_rng(7)
    n_z, n_k = 12, 5
    z = np.cumsum(rng.choice([1e-3, 2e-3], n_z))
    q2 = rng.standard_normal((2 * n_z, n_k))
    step, gap_row = _quad.plane_steps(z, rng.uniform(1.0, 50.0, n_k) - 2j)
    # forward sweeps keep planes -1 .. n_z - 1, backward sweeps 0 .. n_z
    for keep in ([-1], [-1, 3, 7], [0, 5], [4, n_z - 1]):
        keep = np.asarray(keep)
        full = nl._sweep(q2, step, gap_row, keep, range(n_z))
        assert np.array_equal(nl._sweep(q2, step, gap_row, keep, range(keep[-1] + 1)), full)
        assert not full[keep < 0].any()
    for keep in ([0], [0, 5], [4, n_z - 1], [2, n_z], [n_z]):
        keep = np.asarray(keep)
        full = nl._sweep(q2, step, gap_row, keep, range(n_z - 1, -1, -1))
        assert np.array_equal(
            nl._sweep(q2, step, gap_row, keep, range(n_z - 1, keep[0] - 1, -1)), full)
        assert not full[keep >= n_z].any()


def test_pressure_grid_peak_memory(std_air, reference_pair):
    # measured: 14.8 MB on the reference grid (901 x 438, 6.3 MB of it the
    # output; 15.6 MB with every column direct), against 57.2 MB when the far
    # block held all its J0 rows (8384 nodes) and a 16 MB plane buffer at once
    pair = reference_pair
    g = nl.build_volume_grid(pair, std_air)
    tracemalloc.start()
    try:
        lf.pressure_grid(pair.profile_2, std_air, pair.f_u2, g.r_nodes, g.z_nodes, 40.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20e6


def test_pressure_grid_j0_budget(std_air, reference_pair, monkeypatch):
    # measured: 0.97 M J0 values for the reference grid's carrier, against
    # 5.39 M with every column evaluated at every node (shared nodes once)
    # and 11.55 M when each z block had its own node set and source transform
    pair = reference_pair
    g = nl.build_volume_grid(pair, std_air)
    count = [0]

    def j0(x, **kwargs):
        count[0] += np.size(x)
        return special.j0(x, **kwargs)

    monkeypatch.setattr(lf, "special", type("Special", (), {"j0": staticmethod(j0)}))
    lf.pressure_grid(pair.profile_2, std_air, pair.f_u2, g.r_nodes, g.z_nodes, 40.0)
    assert count[0] <= 1.015e6


def test_skirt_moves_on_axis_audio_little(std_air, reference_pair, reference_solver,
                                          monkeypatch):
    # the skirt cut moves the reference primaries by up to 9.7 % of their
    # maximum near the source plane, just outside the aperture, but the
    # 60-point on-axis audio curve by at most 7.9e-3 dB (see ROADMAP)
    def no_skirt(profile, medium, f, rho, z, skirt_cut_db=None):
        return lf.pressure_grid(profile, medium, f, rho, z)

    monkeypatch.setattr(nl, "pressure_grid", no_skirt)
    full = nl.QuasilinearSolver(reference_pair, std_air, grid=reference_solver.grid)
    z = np.geomspace(0.05, 2.0, 60)
    moved = full.propagation_curve(z).spl - reference_solver.propagation_curve(z).spl
    assert np.max(np.abs(moved)) <= 0.01


class TestAudioCurves:
    def test_single_interior_maximum(self, std_air):
        # reference configuration: one global maximum between 0.2 and 1.5 m
        a = rad.aperture_for_cd(0.45, 60e3, std_air)
        pair = desk_pair(std_air, f2=60e3, f_a=1e3, a=a)
        solver = nl.QuasilinearSolver(pair, std_air)
        z = np.geomspace(0.07, 2.5, 30)
        curve = solver.propagation_curve(z)
        cd = nl.find_audio_cd(curve)
        assert 0.2 < cd.distance < 1.5
        i = int(np.argmax(curve.spl))
        assert 0 < i < z.size - 1

    def test_doubling_both_velocities_adds_12db(self, std_air, desk_settings,
                                                desk_solver):
        pair2 = desk_pair(std_air, v1=0.2, v2=0.2)
        s2 = nl.QuasilinearSolver(pair2, std_air, desk_settings,
                                  grid=desk_solver.grid)
        z = np.array([0.04, 0.08, 0.12])
        c1 = desk_solver.propagation_curve(z)
        c2 = s2.propagation_curve(z)
        np.testing.assert_allclose(c2.spl - c1.spl, 20 * np.log10(4.0),
                                   atol=1e-9)

    @pytest.mark.filterwarnings("ignore::sppal.errors.TruncationTailWarning")
    def test_near_zone_grid_convergence(self, std_air):
        # the golden audio-pc case: doubling both grid densities moves the
        # on-axis SPL at z = 0.0385 m by about 0.1 dB
        pair = desk_pair(std_air, v1=0.1 + 0.02j, v2=0.08 - 0.03j)
        z = np.geomspace(0.01, 0.5, 30)[10:11]
        base = nl.SolverSettings()
        fine = nl.SolverSettings(ppw_axial=2 * base.ppw_axial,
                                 ppw_radial=2 * base.ppw_radial)
        spl = [nl.audio_propagation_curve(pair, std_air, z, s).spl[0]
               for s in (base, fine)]
        assert abs(spl[1] - spl[0]) <= 0.15

    def test_curve_grid_validation(self, desk_solver):
        with pytest.raises(ParameterDomainError):
            desk_solver.propagation_curve([])
        with pytest.raises(ParameterDomainError):
            desk_solver.propagation_curve([0.3, 0.1])

    @pytest.mark.slow
    def test_tail_decays_beyond_critical_distance(self, std_air):
        a = rad.aperture_for_cd(0.45, 60e3, std_air)
        pair = desk_pair(std_air, f2=60e3, f_a=1e3, a=a)
        solver = nl.QuasilinearSolver(pair, std_air)
        curve = solver.propagation_curve(np.geomspace(0.1, 2.2, 26))
        cd = nl.find_audio_cd(curve)
        tail = curve.spl[curve.abscissa > 2.0 * cd.distance]
        assert np.all(np.diff(tail) < 0)

    @pytest.mark.slow
    def test_audio_cd_shifts_with_carrier(self, std_air):
        # fixed 50 mm aperture: raising the carrier from 40 to 60 kHz pulls
        # the audio critical distance from about 0.4 m to about 0.5 m
        a = 0.05
        cds = {}
        for f2 in (40e3, 60e3):
            pair = desk_pair(std_air, f2=f2, f_a=1e3, a=a)
            solver = nl.QuasilinearSolver(pair, std_air)
            curve = solver.propagation_curve(np.geomspace(0.08, 2.0, 28))
            cds[f2] = nl.find_audio_cd(curve).distance
        assert cds[40e3] == pytest.approx(0.4, rel=0.2)
        assert cds[60e3] == pytest.approx(0.5, rel=0.2)
        assert cds[60e3] > cds[40e3]


class TestAudioBeam:
    def test_symmetry_and_narrowness(self, std_air, desk_settings, desk_solver):
        th = np.linspace(-40.0, 40.0, 17)
        bp = desk_solver.beam_pattern(0.1, th)
        np.testing.assert_allclose(np.abs(bp.pressure),
                                   np.abs(bp.pressure[::-1]), rtol=1e-6)
        # conventional source of the same aperture at the audio frequency
        # is essentially omnidirectional (ka << 1); the parametric lobe is
        # far narrower
        rel = bp.spl_rel
        on = rel[np.argmin(np.abs(th))]
        edge = rel[0]
        conv = lf.beam_pattern(
            rad.piston_profile(rad.PistonSpec(desk_solver.pair.radius_a, 0.1), 65),
            std_air, desk_solver.pair.f_a, 0.1, th)
        conv_drop = np.max(conv.spl) - conv.spl[0]
        assert on - edge > 6.0 > conv_drop

    def test_zero_velocity_beam(self, std_air, desk_settings):
        pair = desk_pair(std_air, v1=0.0, v2=0.0)
        s = nl.QuasilinearSolver(pair, std_air, desk_settings)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            bp = s.beam_pattern(0.1, np.linspace(-10, 10, 5))
        assert np.all(bp.pressure == 0)


class TestFindAudioCd:
    def test_synthetic_quadratic_peak(self):
        z = np.linspace(0.1, 1.0, 91)
        spl_peak, z_peak = 80.0, 0.45
        p = (np.sqrt(2) * 20e-6) * 10 ** ((spl_peak - 40 * (z - z_peak) ** 2) / 20.0)
        curve = lf.FieldCurve(z, p.astype(complex), 1e3)
        cd = nl.find_audio_cd(curve)
        assert cd.distance == pytest.approx(0.45, abs=1e-3)
        assert cd.spl == pytest.approx(80.0, abs=1e-6)

    def test_monotone_curve_warns_boundary(self):
        z = np.linspace(0.1, 1.0, 20)
        p = (1e-3 / z).astype(complex)
        curve = lf.FieldCurve(z, p, 1e3)
        with pytest.warns(BoundaryPeakWarning):
            cd = nl.find_audio_cd(curve)
        assert cd.distance == z[0]

    def test_tie_breaks_toward_smaller_z(self):
        z = np.array([0.1, 0.2, 0.3, 0.4, 0.5])
        mag = np.array([1.0, 2.0, 1.5, 2.0, 1.0])
        curve = lf.FieldCurve(z, mag.astype(complex), 1e3)
        cd = nl.find_audio_cd(curve)
        assert cd.distance < 0.3


class TestBerktay:
    def test_fa_squared_law(self, std_air):
        a = 0.0508
        z = 6.0
        mags = []
        for fa in (500.0, 1000.0, 2000.0):
            pair = desk_pair(std_air, f2=60e3, f_a=fa, a=a)
            mags.append(nl.berktay_farfield(pair, std_air, z))
        assert mags[1] / mags[0] == pytest.approx(4.0, rel=0.02)
        assert mags[2] / mags[1] == pytest.approx(4.0, rel=0.02)

    def test_bilinear_in_amplitudes(self, std_air):
        a = 0.0508
        p1 = nl.berktay_farfield(desk_pair(std_air, a=a), std_air, 6.0)
        p2 = nl.berktay_farfield(desk_pair(std_air, v1=0.3, v2=0.2, a=a),
                                 std_air, 6.0)
        assert p2 / p1 == pytest.approx(6.0, rel=1e-12)

    def test_near_field_rejected(self, std_air):
        pair = desk_pair(std_air, f2=60e3, a=0.0508)
        with pytest.raises(ParameterDomainError):
            nl.berktay_farfield(pair, std_air, 0.5)
