import logging
import re
import sys
import threading
import time
import tracemalloc
import warnings
from dataclasses import replace
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
    InfeasibleDesignError,
    NumericalFailureError,
    ParameterDomainError,
    TruncationTailWarning,
)

#: the golden check's tolerance on audio SPL columns [dB]
SPL_TOL_DB = 0.01


def desk_pair(medium, v1=0.1, v2=0.1, f2=60e3, f_a=2e3, a=0.012):
    return nl.PrimaryPair(*nl.lsb_am_pair(f2, f_a), a, v1, v2)


#: axial extent of the desk-scale volume grid (m): the truncated domain
#: keeps solver builds around a second
DESK_Z_MAX = 0.15


@pytest.fixture
def desk_settings(monkeypatch):
    """Default settings, with the test's grids built on the desk domain."""
    monkeypatch.setattr(nl, "_Z_MAX_CAP", DESK_Z_MAX)
    return nl.SolverSettings()


@pytest.fixture(scope="module")
def desk_solver(std_air):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(nl, "_Z_MAX_CAP", DESK_Z_MAX)
        return nl.QuasilinearSolver(desk_pair(std_air), std_air)


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
        with pytest.raises(ParameterDomainError):
            nl.PrimaryPair(60e3, 59e3, 0.01, 0.1, 0.1)

    @pytest.mark.parametrize("a", [0.0, -0.01, np.nan, np.inf])
    def test_radius_rejected(self, a):
        with pytest.raises(ParameterDomainError, match="radius_a"):
            nl.PrimaryPair(59e3, 60e3, a, 0.1, 0.1)

    def test_pistons_sampled_at_the_carrier(self, std_air):
        pair = nl.PrimaryPair(59e3, 64.5e3, 0.05, 0.1 + 0.2j, 0.3)
        n = rad.radial_sample_count(0.05, 64.5e3, std_air)
        assert n > rad.radial_sample_count(0.05, 59e3, std_air)
        for prof, v in zip(pair.pistons(std_air), (pair.v1, pair.v2)):
            assert prof.kind is rad.SourceKind.PISTON
            assert prof.radius_a == 0.05 and prof.radii.size == n
            assert np.all(prof.velocity == v)

    def test_solver_samples_both_pistons_at_the_carrier(self, std_air, desk_settings,
                                                         monkeypatch):
        calls = []

        def recording(spec, n_samples):
            calls.append((spec, n_samples))
            return rad.piston_profile(spec, n_samples)

        monkeypatch.setattr(nl, "piston_profile", recording)
        pair = desk_pair(std_air, v1=0.1j, v2=0.2)
        nl.QuasilinearSolver(pair, std_air, desk_settings)
        n = rad.radial_sample_count(pair.radius_a, pair.f_u2, std_air)
        assert calls == [(rad.PistonSpec(pair.radius_a, 0.1j), n),
                         (rad.PistonSpec(pair.radius_a, 0.2), n)]


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

    def test_validation(self, std_air):
        with pytest.raises(ParameterDomainError):
            nl.VolumeGrid([0.1], [0.01], [-1.0], [0.1])
        # the solver locates points among the planes by bisection and steps
        # between neighbours, so the nodes must strictly increase
        g = nl.build_volume_grid(desk_pair(std_air), std_air)
        rng = np.random.default_rng(2)
        for nodes in ({"z_nodes": rng.permutation(g.z_nodes)},
                      {"r_nodes": rng.permutation(g.r_nodes)},
                      {"z_nodes": np.sort(np.r_[g.z_nodes[1:], g.z_nodes[1]])}):
            with pytest.raises(ParameterDomainError, match="strictly increase"):
                replace(g, **nodes)


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
        prof_1, prof_2 = pair.pistons(lossless_air)
        p1 = lf.pressure_grid(prof_1, lossless_air, pair.f_u1,
                              g.r_nodes, g.z_nodes)[0, 0]
        p2 = lf.pressure_grid(prof_2, lossless_air, pair.f_u2,
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

    def test_truncation_warning_fires(self, std_air, desk_settings):
        pair = desk_pair(std_air)
        st = replace(desk_settings, truncation_db=18)
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

    def test_debug_record_per_call(self, desk_solver, caplog, monkeypatch):
        with caplog.at_level(logging.WARNING, logger="sppal.nlfield"):
            desk_solver.pressures([0.0], [0.08])
        assert not caplog.records
        blocks, block = [], nl.QuasilinearSolver._block

        def recording(self, k_b, *args):
            blocks.append(k_b)
            return block(self, k_b, *args)

        monkeypatch.setattr(nl.QuasilinearSolver, "_block", recording)
        z = np.array([0.08, 0.05])
        with caplog.at_level(logging.DEBUG, logger="sppal.nlfield"):
            desk_solver.pressures([0.0, 0.02], z)
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
        # a block keeps every plane unless its slowest decay rate kappa
        # spans 80 nepers over the grid; then the planes within 40 nepers
        # of a point and each point's neighbour planes
        zn, kept = g.z_nodes, 0
        for k_b in blocks:
            kappa = np.min(np.sqrt(k_b.astype(complex) ** 2 - desk_solver._k_audio ** 2).real)
            near = np.min(np.abs(zn[:, None] - z[None, :]), axis=1) <= 40.0 / kappa
            for z_p in z:
                near[np.searchsorted(zn, z_p) - 1:np.searchsorted(zn, z_p) + 1] = True
            kept += k_b.size * (near.sum() if kappa * (zn[-1] - zn[0]) > 80.0 else zn.size)
        total = sum(k_b.size for k_b in blocks) * zn.size
        assert kept < total
        assert f"{kept} of {total} plane-node values" in msg
        # a block past 2 k_a evaluates its spectra at the Chebyshev points
        # that resolve the type r_max + 40 / kappa, where those are fewer
        # than its nodes; every other block at its nodes
        evaluated, r_max = 0, g.r_nodes[-1]
        for k_b in blocks:
            n = k_b.size
            if k_b[0] >= 2.0 * desk_solver._k_audio.real:
                kappa = np.min(np.sqrt(k_b.astype(complex) ** 2 - desk_solver._k_audio ** 2).real)
                n = min(n, _quad.chebyshev_count(k_b[-1] - k_b[0], r_max + 40.0 / kappa))
            evaluated += n
        assert evaluated < total // zn.size
        assert f"{evaluated} wavenumbers evaluated for {total // zn.size} nodes" in msg


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
        for profile, f in zip(pair.pistons(std_air), (pair.f_u1, pair.f_u2)):
            alone = lf.pressure_grid(profile, std_air, f, g.r_nodes, g.z_nodes, skirt)
            assert np.array_equal(fields[f][1], alone)
        monkeypatch.setattr(nl, "_in_parallel", _serial)
        serial = nl.QuasilinearSolver(pair, std_air, grid=g)
        assert np.array_equal(serial._sw_ri, solver._sw_ri)

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
        n_src = rad.radial_sample_count(s.pair.radius_a, s.pair.f_u2, std_air)
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
        (band,), plan = desk_solver._band([(kr, jac)], points)
        assert [k_b.tolist() for _, k_b, *_ in plan] == [
            kr[s:s + 64].tolist() for s in range(0, kr.size, 64)]
        want = np.zeros(30, dtype=complex)
        for _, k_b, jac_b, planes, k_e, _ in plan:
            want += desk_solver._block(k_b, jac_b, planes, k_e, points)
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
            sums, plan = band(self, bands, points)
            rounds.append((len(bands), len(plan), points.rho.size))
            return sums, plan

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


def _kept_share(solver, rho, z, caplog) -> float:
    caplog.clear()
    with caplog.at_level(logging.DEBUG, logger="sppal.nlfield"):
        solver.pressures(rho, z)
    (msg,) = [r.getMessage() for r in caplog.records if r.name == "sppal.nlfield"]
    kept, total = re.search(r"(\d+) of (\d+) plane-node values", msg).groups()
    return int(kept) / int(total)


_BP_ANGLES = np.deg2rad([-30.0, 0.0, 30.0])
_ANGLES_61 = np.deg2rad(np.linspace(-30.0, 30.0, 61))


class TestPlaneWindow:
    """Past 2 k_a a block sums only the source planes within
    ``_WINDOW_NEPERS`` of decay of some point; with the window set to
    infinity every block sums every plane, and the two agree by ==."""

    @staticmethod
    def _every_plane(solver, rho, z, monkeypatch):
        with monkeypatch.context() as m:
            m.setattr(nl, "_WINDOW_NEPERS", np.inf)
            return solver.pressures(rho, z)

    @pytest.mark.parametrize("rho, z", [
        # audio-pc's 60 on-axis points, audio-bp's 3 angles and 61 angles at 1 m
        (np.zeros(60), np.geomspace(0.05, 2.0, 60)),
        (np.abs(np.sin(_BP_ANGLES)), np.cos(_BP_ANGLES)),
        (np.abs(np.sin(_ANGLES_61)), np.cos(_ANGLES_61)),
        # two clusters far apart, so the kept planes form several runs
        (np.array([0.0, 0.01, 0.0, 0.0, 0.02, 0.0]),
         np.array([0.04, 0.045, 0.05, 1.9, 1.95, 2.0])),
    ])
    def test_bits_equal_every_plane(self, reference_solver, monkeypatch, rho, z):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", TruncationTailWarning)
            windowed = reference_solver.pressures(rho, z)
            every = self._every_plane(reference_solver, rho, z, monkeypatch)
        assert np.array_equal(windowed, every)

    def test_points_off_and_on_the_planes(self, reference_solver, monkeypatch):
        zn = reference_solver.grid.z_nodes
        # past the last plane, before the first, and exactly on a plane
        rho = np.array([0.0, 0.01, 0.0, 0.003, 0.0, 0.02])
        z = np.array([zn[-1] + 0.5, zn[-1] + 3.0, 0.5 * zn[0], 0.2 * zn[0], zn[300], zn[600]])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", TruncationTailWarning)
            windowed = reference_solver.pressures(rho, z)
            assert np.array_equal(windowed, self._every_plane(reference_solver, rho, z,
                                                              monkeypatch))
            for i in range(z.size):
                assert np.array_equal(reference_solver.pressures(rho[i:i + 1], z[i:i + 1]),
                                      windowed[i:i + 1])

    def test_desk_case(self, desk_solver, monkeypatch):
        rho = np.array([0.0, 0.02, 0.005, 0.0, 0.03])
        z = np.array([0.08, 0.05, 0.01, 0.3, 0.1])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", TruncationTailWarning)
            assert np.array_equal(desk_solver.pressures(rho, z),
                                  self._every_plane(desk_solver, rho, z, monkeypatch))

    def test_clusters_form_several_runs(self, reference_solver):
        zn = reference_solver.grid.z_nodes
        points = nl._PlanePoints.locate(zn, np.zeros(4), np.array([0.04, 0.05, 1.9, 2.0]))
        k_a = reference_solver._k_audio.real
        kr, _ = _quad.wavenumber_nodes(k_a, 4, (float(np.arccosh(4.0)), float(np.arccosh(8.0))))
        planes = reference_solver._window(reference_solver._kappa_min(kr), points)
        runs = np.split(planes, np.flatnonzero(np.diff(planes) > 1) + 1)
        assert len(runs) == 2
        assert zn[runs[1][0]] - zn[runs[0][-1]] > 0.5

    def test_window_drops_planes(self, reference_solver, monkeypatch):
        # at 15 nepers the left-out planes show in the last bits, which is
        # what the == tests above would see of a window that drops too much
        rho, z = np.abs(np.sin(_BP_ANGLES)), np.cos(_BP_ANGLES)
        windowed = reference_solver.pressures(rho, z)
        monkeypatch.setattr(nl, "_WINDOW_NEPERS", 15.0)
        assert not np.array_equal(reference_solver.pressures(rho, z), windowed)

    def test_kept_share(self, reference_solver, caplog):
        # measured: 21.8 % of the 901 x 4064 plane-node values for audio-bp,
        # 22.1 % for 61 angles and 72.2 % for audio-pc's 60 on-axis points
        bp = _kept_share(reference_solver, np.abs(np.sin(_BP_ANGLES)), np.cos(_BP_ANGLES),
                         caplog)
        assert bp <= 0.23
        pc = _kept_share(reference_solver, np.zeros(60), np.geomspace(0.05, 2.0, 60), caplog)
        assert bp < pc < 0.75


def _per_node(solver, rho, z, monkeypatch):
    """The audio sum with every block at its nodes and every source transform
    direct: the evaluation the Chebyshev points must reproduce."""
    with monkeypatch.context() as m:
        m.setattr(nl, "chebyshev_count", lambda span, tau: np.iinfo(np.int64).max)
        m.setattr(nl, "kernel_split", lambda *args: (0, 0))
        return solver.pressures(rho, z)


@pytest.fixture(scope="module")
def sweep_request(std_air):
    """The on-axis request of the benchmark sweep's selected design: the
    reference aperture at a 64.67 kHz carrier, 1 kHz audio, and the 33
    points of ``critical_point`` (grid 934 x 465, pistons of 155 samples)."""
    a = rad.aperture_for_cd(0.45, 60e3, std_air)
    f2 = 64666.81294779269
    pair = nl.PrimaryPair(f2 - 1e3, f2, a, 0.1, 0.1)
    return nl.QuasilinearSolver(pair, std_air), np.zeros(33), nl._critical_z_grid(pair, std_air)


class TestChebyshevBlocks:
    """Past 2 k_a a block evaluates its spectra at Chebyshev points and
    interpolates them to its nodes, and every block takes the source
    transform's columns nearest the axis through Chebyshev rows; against
    the evaluation at every node with direct transforms, no point moves by
    more than rounding."""

    @staticmethod
    def _check(solver, rho, z, monkeypatch):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", TruncationTailWarning)
            got = solver.pressures(rho, z)
            want = _per_node(solver, rho, z, monkeypatch)
        # measured at most 1.7e-15 over these cases
        assert np.all(np.abs(got - want) <= 1e-14 * np.abs(want))

    @pytest.mark.parametrize("rho, z", [
        (np.zeros(60), np.geomspace(0.05, 2.0, 60)),
        (np.abs(np.sin(_BP_ANGLES)), np.cos(_BP_ANGLES)),
        (np.abs(np.sin(_ANGLES_61)), np.cos(_ANGLES_61)),
    ])
    def test_reference_pair(self, reference_solver, monkeypatch, rho, z):
        self._check(reference_solver, rho, z, monkeypatch)

    def test_points_off_and_on_the_planes(self, reference_solver, monkeypatch):
        zn = reference_solver.grid.z_nodes
        rho = np.array([0.0, 0.01, 0.0, 0.003, 0.0, 0.02])
        z = np.array([zn[-1] + 0.5, zn[-1] + 3.0, 0.5 * zn[0], 0.2 * zn[0], zn[300], zn[600]])
        self._check(reference_solver, rho, z, monkeypatch)

    def test_desk_case(self, desk_solver, monkeypatch):
        rho = np.array([0.0, 0.02, 0.005, 0.0, 0.03])
        z = np.array([0.08, 0.05, 0.01, 0.3, 0.1])
        self._check(desk_solver, rho, z, monkeypatch)

    @pytest.mark.parametrize("f2", [40e3, 90e3])
    def test_carriers(self, std_air, monkeypatch, f2):
        a = rad.aperture_for_cd(0.45, f2, std_air)
        solver = nl.QuasilinearSolver(desk_pair(std_air, f2=f2, f_a=1e3, a=a), std_air)
        rho = np.concatenate([np.zeros(60), np.abs(np.sin(_BP_ANGLES))])
        z = np.concatenate([np.geomspace(0.05, 2.0, 60), np.cos(_BP_ANGLES)])
        self._check(solver, rho, z, monkeypatch)

    def test_sweep_request(self, sweep_request, monkeypatch):
        self._check(*sweep_request, monkeypatch)

    def test_point_alone_equals_batch(self, reference_solver):
        zn = reference_solver.grid.z_nodes
        rho = np.array([0.0, 0.5, 0.02, 0.0, 0.004, 0.0])
        z = np.array([0.3, np.sqrt(0.75), 0.1, zn[450], zn[120] + 1e-4, 1.7])
        batch = reference_solver.pressures(rho, z)
        for i in range(z.size):
            assert np.array_equal(reference_solver.pressures(rho[i:i + 1], z[i:i + 1]),
                                  batch[i:i + 1])

    def test_evaluated_share(self, sweep_request, caplog):
        # measured: 3343 wavenumbers evaluated for the request's 6752 nodes
        # (49.5 %), against every node before; band 8, [2343, 4686] 1/m,
        # holds 3008 of them
        solver, rho, z = sweep_request
        with caplog.at_level(logging.DEBUG, logger="sppal.nlfield"):
            solver.pressures(rho, z)
        (msg,) = [r.getMessage() for r in caplog.records if r.name == "sppal.nlfield"]
        evaluated, nodes = re.search(r"(\d+) wavenumbers evaluated for (\d+) nodes",
                                     msg).groups()
        assert int(nodes) == 6752
        assert int(evaluated) <= 0.50 * int(nodes)


@pytest.mark.parametrize("rho, z", [
    # audio-pc's 60 on-axis points and audio-bp's 3 angles at 1 m
    (np.zeros(60), np.geomspace(0.05, 2.0, 60)),
    (np.abs(np.sin(_BP_ANGLES)), np.cos(_BP_ANGLES)),
])
def test_each_block_planned_once(reference_solver, monkeypatch, rho, z):
    # 9 blocks of k_r nodes; each once through the window, the evaluated
    # wavenumbers and kappa_min (27, 27 and 48 calls when every block was
    # planned three times)
    calls = {name: 0 for name in ("_window", "_evaluated", "_kappa_min", "_block")}

    def counting(name, method):
        def wrapped(*args):
            calls[name] += 1
            return method(*args)
        return wrapped

    for name in calls:
        monkeypatch.setattr(nl.QuasilinearSolver, name,
                            counting(name, getattr(nl.QuasilinearSolver, name)))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", TruncationTailWarning)
        reference_solver.pressures(rho, z)
    assert calls == dict.fromkeys(calls, 9)


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
    kz = rng.uniform(1.0, 50.0, n_k) - 2j
    step, gap_row = _quad.plane_steps(z, kz)
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
    # a sweep over the kept planes (three runs) equals, run by run, a sweep
    # over that run alone on the whole grid's rows and steps
    planes = np.array([0, 1, 2, 5, 6, 9, 10, 11])
    q2_kept = q2[np.concatenate([planes, n_z + planes])]
    step_kept, gap_kept = _quad.plane_steps(z, kz, planes)
    at = np.arange(planes.size)
    fwd = nl._sweep(q2_kept, step_kept, gap_kept, at, range(planes.size))
    bwd = nl._sweep(q2_kept, step_kept, gap_kept, at, range(planes.size - 1, -1, -1))
    for run in ([0, 1, 2], [5, 6], [9, 10, 11]):
        run, rows = np.asarray(run), np.searchsorted(planes, run)
        alone = range(run[0], run[-1] + 1)
        assert np.array_equal(nl._sweep(q2, step, gap_row, run, alone), fwd[rows])
        assert np.array_equal(nl._sweep(q2, step, gap_row, run, alone[::-1]), bwd[rows])


def test_pressure_grid_peak_memory(std_air, reference_pair):
    # measured: 14.8 MB on the reference grid (901 x 438, 6.3 MB of it the
    # output; 15.6 MB with every column direct), against 57.2 MB when the far
    # block held all its J0 rows (8384 nodes) and a 16 MB plane buffer at once
    pair = reference_pair
    g = nl.build_volume_grid(pair, std_air)
    carrier = pair.pistons(std_air)[1]
    tracemalloc.start()
    try:
        lf.pressure_grid(carrier, std_air, pair.f_u2, g.r_nodes, g.z_nodes, 40.0)
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
    lf.pressure_grid(pair.pistons(std_air)[1], std_air, pair.f_u2, g.r_nodes, g.z_nodes,
                     40.0)
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

    def test_curve_grid_validation(self, std_air, desk_solver):
        # both engines' on-axis curves check their grid in _quad: the same
        # grids fail with the same message
        prof, f = desk_solver.pair.pistons(std_air)[1], desk_solver.pair.f_u2
        for z in ([], [0.3, 0.1], [0.0, 0.1], [np.nan], [0.05, np.nan], [0.05, np.inf]):
            messages = []
            for curve in (partial(lf.propagation_curve, prof, std_air, f),
                          desk_solver.propagation_curve):
                with pytest.raises(ParameterDomainError) as err:
                    curve(z)
                messages.append(str(err.value))
            assert messages[0] == messages[1], z

    @pytest.mark.parametrize("r, theta", [
        (0.0, [0.0]), (np.nan, [0.0]), (np.inf, [0.0]),
        (1.0, []), (1.0, [0.0, np.nan]), (1.0, [np.inf]), (1.0, [-90.5]),
    ])
    def test_beam_range_and_angle_validation(self, std_air, desk_solver, r, theta):
        # both engines' beam patterns check range and angles in _quad
        prof, f = desk_solver.pair.pistons(std_air)[1], desk_solver.pair.f_u2
        messages = []
        for beam in (partial(lf.beam_pattern, prof, std_air, f), desk_solver.beam_pattern):
            with pytest.raises(ParameterDomainError) as err:
                beam(r, theta)
            messages.append(str(err.value))
        assert messages[0] == messages[1]

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


#: the golden audio-fr case's solver settings
GOLDEN_FR_SETTINGS = nl.SolverSettings(ppw_axial=8.0, ppw_radial=8.0, audio_ppw=12.0,
                                       truncation_db=45.0, tail_warn_fraction=0.25)


class TestCriticalPoint:
    """``critical_point`` solves a pair once at unit drive on its own grid
    and locates the on-axis maximum on a z grid of the carrier's z1."""

    @pytest.mark.parametrize("a", [0.008, 0.012])
    @pytest.mark.parametrize("f_a", [700.0, 1400.0, 2000.0, 4000.0])
    def test_small_apertures_find_the_dense_maximum(self, std_air, a, f_a):
        # measured at most 0.124 dB (12 mm, 700 Hz) from the maximum of a
        # 200-point curve over 1 mm - 1 m; the golden audio-fr case's own
        # 25 points over 0.05 - 0.6 m missed by up to 1.76 dB (8 mm, 4 kHz)
        pair = desk_pair(std_air, v1=1.0, v2=1.0, f2=60e3, f_a=f_a, a=a)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            cd = nl.critical_point(pair, std_air, GOLDEN_FR_SETTINGS)
        assert not [w for w in caught if issubclass(w.category, BoundaryPeakWarning)]
        dense = nl.QuasilinearSolver(pair, std_air, GOLDEN_FR_SETTINGS).propagation_curve(
            np.geomspace(1e-3, 1.0, 200))
        assert abs(cd.spl - np.max(dense.spl)) <= 0.15

    def test_drive_only_raises_the_level(self, std_air):
        pair = desk_pair(std_air, v1=1.0, v2=1.0)
        unit = nl.critical_point(pair, std_air, GOLDEN_FR_SETTINGS)
        v1, v2 = 0.1 + 0.02j, 0.08 - 0.03j
        driven = nl.critical_point(replace(pair, v1=v1, v2=v2), std_air, GOLDEN_FR_SETTINGS)
        assert driven.distance == unit.distance
        assert driven.spl == unit.spl + 20.0 * np.log10(abs(v1 * v2))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            silent = nl.critical_point(replace(pair, v1=0.0), std_air, GOLDEN_FR_SETTINGS)
        assert not caught
        assert silent.spl == -np.inf and silent.distance == unit.distance

    def test_z_grid_from_the_carrier_z1(self, std_air):
        for a, start, stop in ((0.012, None, 0.6), (0.0508, 0.05, None)):
            pair = desk_pair(std_air, a=a)
            z1 = rad.first_local_max(a, pair.f_u2, std_air)
            z = nl._critical_z_grid(pair, std_air)
            assert z.size == 33 and np.all(np.diff(z) > 0)
            assert z[0] == (z1 if start is None else start)
            assert z[-1] == pytest.approx(3.0 * z1 if stop is None else stop, rel=1e-12)

    def test_z_grid_without_a_carrier_maximum(self, std_air):
        # a <= lambda/2 at 60 kHz: the carrier has no on-axis maximum, z1 = 0
        pair = desk_pair(std_air, a=0.002)
        with pytest.raises(InfeasibleDesignError):
            rad.first_local_max(pair.radius_a, pair.f_u2, std_air)
        z = nl._critical_z_grid(pair, std_air)
        assert z.size == 33 and np.all(np.isfinite(z)) and np.all(np.diff(z) > 0)
        assert (z[0], z[-1]) == pytest.approx((0.05, 0.6), rel=1e-12)


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
