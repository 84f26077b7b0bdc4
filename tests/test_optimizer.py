import json
import logging
import re
from dataclasses import replace

import numpy as np
import pytest

from sppal import cli
from sppal import nlfield as nl
from sppal import optimizer as opt
from sppal import radiator as rad
from sppal import transducer as td
from sppal.config import validate_config
from sppal.errors import (
    InfeasibleDesignError,
    NoDualResonanceError,
    ParameterDomainError,
)

from pareto_oracle import archive_update, hypervolume_2d


def bi_objective(x):
    return (x[0] ** 2, (x[0] - 2.0) ** 2)


def rows(objective):
    """An NSGA-II evaluator that maps a one-vector objective over the rows
    of a generation."""
    return lambda xs: [objective(x) for x in xs]


def dominates(fa, fb) -> bool:
    """True if fa Pareto-dominates fb: the scalar oracle of ``_dominance``."""
    return bool(np.all(fa <= fb) and np.any(fa < fb))


def pairwise_sort(f):
    """Fast non-dominated sort (Deb et al. 2002) on the scalar oracle."""
    n = f.shape[0]
    dominated_by = [[] for _ in range(n)]
    count = [0] * n
    for i in range(n):
        for j in range(i + 1, n):
            if dominates(f[i], f[j]):
                dominated_by[i].append(j)
                count[j] += 1
            elif dominates(f[j], f[i]):
                dominated_by[j].append(i)
                count[i] += 1
    fronts = []
    current = [i for i in range(n) if count[i] == 0]
    while current:
        fronts.append(current)
        nxt = []
        for i in current:
            for j in dominated_by[i]:
                count[j] -= 1
                if count[j] == 0:
                    nxt.append(j)
        current = nxt
    return fronts


def oracle_segment(seg, omega):
    """Full 2x2 chain matrix and drive vector of one segment."""
    n = omega.size
    mat = seg.material
    eta = mat.loss_factor
    if not seg.is_piezo:
        c = mat.rod_speed * np.sqrt(1.0 + 1j * eta)
        zc = mat.density * c * seg.area
        kl = omega / c * seg.length
        t = np.empty((n, 2, 2), dtype=complex)
        t[:, 0, 0] = np.cos(kl)
        t[:, 0, 1] = 1j * zc * np.sin(kl)
        t[:, 1, 0] = 1j * np.sin(kl) / zc
        t[:, 1, 1] = np.cos(kl)
        return t, np.zeros((n, 2), dtype=complex)
    pz = replace(mat.piezo, s33_e=mat.piezo.s33_e * (1.0 - 1j * eta))
    c = 1.0 / np.sqrt(mat.density * pz.s33_d)
    zc = mat.density * c * seg.area
    kl = omega / c * seg.length
    c0 = pz.eps33_s * seg.area / seg.length
    n_ratio = seg.drive_sign * pz.d33 * seg.area / (pz.s33_e * seg.length)
    a11 = zc / (1j * np.tan(kl)) - n_ratio ** 2 / (1j * omega * c0)
    a12 = zc / (1j * np.sin(kl)) - n_ratio ** 2 / (1j * omega * c0)
    t = np.empty((n, 2, 2), dtype=complex)
    t[:, 0, 0] = t[:, 1, 1] = a11 / a12
    t[:, 0, 1] = (a11 ** 2 - a12 ** 2) / a12
    t[:, 1, 0] = 1.0 / a12
    s = np.empty((n, 2), dtype=complex)
    s[:, 0] = n_ratio * (1.0 - a11 / a12)
    s[:, 1] = -n_ratio / a12
    return t, s


def oracle_frf(spec, z_load, freqs):
    """Plate velocity per volt from the full 2x2 chain product: F_back = 0."""
    omega = 2.0 * np.pi * freqs
    t_tot = np.broadcast_to(np.eye(2, dtype=complex), (freqs.size, 2, 2))
    s_tot = np.zeros((freqs.size, 2), dtype=complex)
    for seg in spec.segments:
        t_seg, s_seg = oracle_segment(seg, omega)
        s_tot = s_tot + np.einsum("nij,nj->ni", t_tot, s_seg)
        t_tot = np.einsum("nij,njk->nik", t_tot, t_seg)
    v = -s_tot[:, 0] / (t_tot[:, 0, 0] * z_load + t_tot[:, 0, 1])
    assert np.all(np.isfinite(v))
    return td.Frf(freqs, v)


@pytest.fixture
def coarse(monkeypatch):
    """Coarse solver settings on an axial domain of at most 2 m."""
    monkeypatch.setattr(nl, "_Z_MAX_CAP", 2.0)
    return nl.SolverSettings(ppw_axial=8, ppw_radial=8, audio_ppw=12,
                             truncation_db=45)


@pytest.fixture(scope="module")
def cell_params():
    return opt.DesignParams(d_uc=0.45, f_u0=60e3, mode_m=8,
                            config=td.StackConfig.FULL,
                            r_p=9e-3, l_p=8e-3, r_h=0.75e-3)


@pytest.fixture(scope="module")
def cell_ctx(std_air, cell_params):
    return opt.DesignContext(cell_params, std_air)


class TestNsga2:
    def test_converges_on_analytic_problem(self):
        res = opt.nsga2(rows(bi_objective), ([-5.0], [5.0]),
                        opt.NsgaConfig(pop=24, generations=25, seed=1))
        assert res.x.min() > -0.1 and res.x.max() < 2.1
        # analytic dominated volume for reference point (4.5, 4.5)
        hv_true = 15.0 + 1.0 / 3.0 + 0.5 * 4.5
        assert hypervolume_2d(res.f, (4.5, 4.5)) == pytest.approx(hv_true, rel=0.02)

    def test_hypervolume_monotone(self):
        # nothing in the loop reads the generation count, so a seeded run
        # cut at g generations returns the archive after g generations
        hv = [hypervolume_2d(opt.nsga2(rows(bi_objective), ([-5.0], [5.0]),
                                       opt.NsgaConfig(pop=16, generations=g, seed=2)).f,
                             (4.5, 4.5))
              for g in range(1, 21)]
        assert np.all(np.diff(hv) >= -1e-12)

    def test_seed_reproducibility(self):
        cfg = opt.NsgaConfig(pop=16, generations=10, seed=9)
        r1 = opt.nsga2(rows(bi_objective), ([-5.0], [5.0]), cfg)
        r2 = opt.nsga2(rows(bi_objective), ([-5.0], [5.0]), cfg)
        assert np.array_equal(r1.x, r2.x)
        assert np.array_equal(r1.f, r2.f)

    def test_front_non_dominated(self):
        res = opt.nsga2(rows(bi_objective), ([-5.0], [5.0]),
                        opt.NsgaConfig(pop=16, generations=8, seed=4))
        f = res.f
        for i in range(f.shape[0]):
            for j in range(f.shape[0]):
                if i != j:
                    assert not dominates(f[j], f[i])

    def test_sort_matches_pairwise_reference(self):
        # objectives on a coarse integer lattice give ties in one
        # objective and exact duplicates; fronts and their order, the
        # archive and the hypervolume must match the pairwise oracle
        rng = np.random.default_rng(3)
        ref = (6.0, 5.0)
        for _ in range(300):
            n = int(rng.integers(1, 50))
            f = rng.integers(0, 7, size=(n, 2)).astype(float)
            assert opt._non_dominated_sort(f) == pairwise_sort(f)
            d = opt._dominance(f)
            assert all(d[i, j] == dominates(f[i], f[j])
                       for i in range(n) for j in range(n))
            # archive: undominated points, the first of exact duplicates,
            # in input order, whatever the split into archive and new
            want = [i for i in range(n)
                    if not any(dominates(f[j], f[i]) for j in range(n))
                    and not any(np.array_equal(f[j], f[i]) for j in range(i))]
            k = int(rng.integers(0, n + 1))
            x = np.arange(n, dtype=float)[:, None]
            xs, fs = opt._archive_update(list(x[:k]), list(f[:k]), x[k:], f[k:])
            assert [int(v[0]) for v in xs] == want
            assert np.array_equal(np.array(fs), f[want])
            # hypervolume: unit lattice cells [x, x+1] x [y, y+1] below ref
            # covered by some point
            cells = sum(any(p[0] <= cx and p[1] <= cy for p in f)
                        for cx in range(int(ref[0])) for cy in range(int(ref[1])))
            assert hypervolume_2d(f, ref) == float(cells)

    def test_archive_matches_matrix_oracle(self):
        # the sweep keeps the points the n x n dominance and equality
        # matrices keep, in the same order, with the same bits: half the
        # sets on an integer lattice (ties in one objective, duplicates,
        # signed zeros), half continuous, every split into archive and new
        rng = np.random.default_rng(11)
        for trial in range(2400):
            n = int(rng.integers(1, 120))
            if trial % 2:
                f = rng.normal(size=(n, 2))
            else:
                f = rng.integers(0, 8, size=(n, 2)) * rng.choice([-1.0, 1.0], size=(n, 2))
            k = int(rng.integers(0, n + 1))
            x = [np.array([float(i)]) for i in range(n)]
            got = opt._archive_update(x[:k], list(f[:k]), x[k:], list(f[k:]))
            want = archive_update(x[:k], list(f[:k]), x[k:], list(f[k:]))
            assert len(got[0]) == len(want[0])
            assert all(v is w for v, w in zip(got[0], want[0]))
            assert np.array_equal(np.array(got[1]), np.array(want[1]))

    @pytest.mark.parametrize("bad", ["short", "one column", "nan", "inf", "ragged",
                                     "text"])
    def test_rejects_malformed_objectives(self, bad):
        # evaluate must return a finite (pop, 2) array for every generation
        def evaluate(xs):
            f = [bi_objective(x) for x in xs]
            if bad == "short":
                return f[:-1]
            if bad == "one column":
                return [a for a, _ in f]
            if bad == "nan":
                f[3] = (np.nan, 1.0)
            if bad == "inf":
                f[0] = (0.0, -np.inf)
            if bad == "ragged":
                f[2] = (1.0, 2.0, 3.0)
            if bad == "text":
                f[1] = ("a", "b")
            return f

        with pytest.raises(ParameterDomainError, match=r"finite \(8, 2\)"):
            opt.nsga2(evaluate, ([-5.0], [5.0]), opt.NsgaConfig(pop=8, generations=1))

    def test_evaluates_one_matrix_per_generation(self):
        # the initial population and each generation's offspring are one
        # (pop, n_var) matrix each, inside the bounds
        seen = []

        def evaluate(xs):
            seen.append(np.array(xs))
            return np.array([bi_objective(x) for x in xs])

        cfg = opt.NsgaConfig(pop=8, generations=3, seed=4)
        res = opt.nsga2(evaluate, ([-5.0, 0.0], [5.0, 1.0]), cfg)
        assert [x.shape for x in seen] == [(8, 2)] * 4
        assert all(np.all((x >= [-5.0, 0.0]) & (x <= [5.0, 1.0])) for x in seen)
        assert res.n_evaluations == 32

    def test_config_validation(self):
        with pytest.raises(ParameterDomainError):
            opt.NsgaConfig(pop=7)
        with pytest.raises(ParameterDomainError):
            opt.NsgaConfig(pop=16, generations=0)

    def test_hypervolume_exact_small_set(self):
        # staircase front vs hand-computed union of dominated rectangles
        f = np.array([[1.0, 3.0], [2.0, 2.0], [3.0, 1.0]])
        want = (4 - 1) * (4 - 3) + (4 - 2) * (3 - 2) + (4 - 3) * (2 - 1)
        assert hypervolume_2d(f, (4.0, 4.0)) == pytest.approx(want)
        # dominated points must not add volume
        f2 = np.vstack([f, [[3.5, 3.5]]])
        assert hypervolume_2d(f2, (4.0, 4.0)) == pytest.approx(want)


class TestEvaluateDesign:
    def test_deterministic(self, cell_ctx, cell_params):
        x0, _ = td.langevin_initial_lengths(60e3, cell_params.config, 8e-3)
        p1 = opt.evaluate_design(cell_ctx, x0)
        p2 = opt.evaluate_design(cell_ctx, x0)
        assert p1.objectives == p2.objectives

    def test_reference_design_has_dual_resonance(self, cell_ctx, cell_params):
        x0, _ = td.langevin_initial_lengths(60e3, cell_params.config, 8e-3)
        pt = opt.evaluate_design(cell_ctx, x0)
        assert pt.feasible
        assert pt.objectives[0] < 0
        # F2 is the resonance spacing, the pareto table's f_dist_hz
        feats = td.extract_dr_features(cell_ctx.frf(x0))
        assert pt.objectives == td.objectives(feats)
        assert pt.objectives[1] == feats.f_dist

    def test_penalty_dominated_by_feasible(self, cell_ctx, cell_params):
        x0, _ = td.langevin_initial_lengths(60e3, cell_params.config, 8e-3)
        feasible = opt.evaluate_design(cell_ctx, x0)
        # absurd lengths: chain evaluates but no dual resonance in band
        penalty = opt.evaluate_design(cell_ctx,
                                      np.array([1e-4, 1e-4, 1e-4, 1e-4]))
        if not penalty.feasible:
            assert penalty.objectives[0] == 0.0
            assert dominates(np.array(feasible.objectives),
                                  np.array(penalty.objectives))

    def test_batch_checks_lengths_like_build_stack(self, std_air, cell_ctx,
                                                    cell_params):
        # a non-positive length (a horn so short that its halves underflow
        # included) flags only its own row, as build_stack's exception does
        # for one candidate; a wrong length count or a piezo outside its
        # radial band flags every row
        x0, _ = td.langevin_initial_lengths(60e3, cell_params.config, 8e-3)
        xs = np.array([x0, x0, x0, x0])
        xs[1, 2] = 0.0
        xs[2, 3] = 5e-324
        got = opt.evaluate_designs(cell_ctx, xs)
        assert [p.flags for p in got] == [(), ("infeasible",), ("infeasible",), ()]
        for x, p in zip(xs, got):
            if p.flags:
                with pytest.raises(ParameterDomainError):
                    TestRow0Chain.stack(cell_params, cell_params.config, x)
                with pytest.raises(ParameterDomainError, match="positive"):
                    cell_ctx.frf(x)
            alone = opt.evaluate_design(cell_ctx, x)
            assert (alone.objectives, alone.flags) == (p.objectives, p.flags)
        assert got[3].objectives == got[0].objectives
        calls = cell_ctx.chain_calls
        short = opt.evaluate_designs(cell_ctx, xs[:, :3])
        assert [p.flags for p in short] == [("infeasible",)] * 4
        with pytest.raises(ParameterDomainError, match="segment lengths"):
            cell_ctx.frf(x0[:3])
        ctx = opt.DesignContext(replace(cell_params, f_u0=40e3), std_air)
        with pytest.raises(InfeasibleDesignError, match="radial band"):
            ctx.frf(ctx.bounds[0])
        assert [p.flags for p in opt.evaluate_designs(ctx, [ctx.bounds[0]] * 3)] == [
            ("infeasible",)] * 3
        assert cell_ctx.chain_calls == calls and ctx.chain_calls == 0

    def test_audio_capability_rejects_foreign_design(self, cell_ctx, cell_params):
        other = opt.DesignPoint(replace(cell_params, r_p=11e-3), np.ones(4),
                                (-1.0, 1000.0))
        with pytest.raises(ParameterDomainError, match="does not belong"):
            opt.audio_capability(other, cell_ctx, [1000.0])

    def test_pareto_front_rejects_dominated(self, cell_params):
        good = opt.DesignPoint(cell_params, np.ones(4), (-2.0, 1000.0))
        bad = opt.DesignPoint(cell_params, np.ones(4), (-1.0, 2000.0))
        with pytest.raises(ParameterDomainError):
            opt.ParetoFront([good, bad])

    def test_front_reuses_nsga2_evaluations(self, cell_ctx, monkeypatch):
        # each distinct design vector NSGA-II proposes is scored once, in
        # the order it is first proposed, in at most one batch per
        # generation; the front is built from those scores, not from a
        # second pass
        batches, proposed = [], []
        evaluate, nsga2 = opt.evaluate_designs, opt.nsga2

        def counting(ctx, xs):
            batches.append(np.array(xs))
            return evaluate(ctx, xs)

        def proposing(objectives, bounds, config):
            def seen(xs):
                proposed.extend(x.tobytes() for x in xs)
                return objectives(xs)
            return nsga2(seen, bounds, config)

        monkeypatch.setattr(opt, "evaluate_designs", counting)
        monkeypatch.setattr(opt, "nsga2", proposing)
        cfg = opt.NsgaConfig(pop=8, generations=3, seed=5)
        front = opt.optimize_lengths(cell_ctx, cfg)
        scored = [x.tobytes() for xs in batches for x in xs]
        assert len(proposed) == 32 and len(batches) <= cfg.generations + 1
        assert scored == list(dict.fromkeys(proposed))
        # seed 5 proposes a repeat, so the skip is exercised
        assert len(scored) < len(proposed)
        monkeypatch.undo()
        for p in front.points:
            again = opt.evaluate_design(cell_ctx, p.x)
            assert (again.objectives, again.flags) == (p.objectives, p.flags)


class TestRow0Chain:
    """The row-0 chain against the full 2x2 matrix product."""

    @staticmethod
    def stack(params, config, x):
        return td.build_stack(config, params.r_p, params.l_p, params.r_h, x)

    @pytest.mark.parametrize("config", list(td.StackConfig))
    def test_matches_full_matrix_oracle(self, cell_ctx, cell_params, config):
        _, (lo, hi) = td.langevin_initial_lengths(60e3, config, 8e-3)
        rng = np.random.default_rng(5)
        for x in lo + (hi - lo) * rng.random((4, lo.size)):
            spec = self.stack(cell_params, config, x)
            want = oracle_frf(spec, cell_ctx.load, cell_ctx.freqs).center_velocity
            got = td.frf_transfer_matrix(spec, cell_ctx.load,
                                         cell_ctx.freqs).center_velocity
            assert np.max(np.abs(got - want) / np.abs(want)) <= 1e-12

    def test_context_frf_is_frf_transfer_matrix(self, cell_ctx, cell_params):
        lo, hi = cell_ctx.bounds
        for x in (lo, hi, 0.5 * (lo + hi)):
            spec = self.stack(cell_params, cell_params.config, x)
            want = td.frf_transfer_matrix(spec, cell_ctx.load, cell_ctx.freqs)
            got = cell_ctx.frf(x)
            assert np.array_equal(got.freqs, want.freqs)
            assert np.array_equal(got.center_velocity, want.center_velocity)

    def test_seeded_front_matches_oracle_evaluator(self, cell_ctx, cell_params):
        # the reference cell and NSGA-II run of acceptance criterion 11
        def oracle_objectives(x):
            try:
                spec = self.stack(cell_params, cell_params.config, x)
                frf = oracle_frf(spec, cell_ctx.load, cell_ctx.freqs)
                return td.objectives(td.extract_dr_features(frf))
            except (NoDualResonanceError, InfeasibleDesignError,
                    ParameterDomainError):
                return (0.0, cell_ctx.band_width)

        cfg = opt.NsgaConfig(pop=12, generations=5, seed=2)
        _, bounds = td.langevin_initial_lengths(60e3, cell_params.config, 8e-3)
        want = opt.nsga2(rows(oracle_objectives), bounds, cfg)
        got = opt.nsga2(
            lambda xs: [p.objectives for p in opt.evaluate_designs(cell_ctx, xs)],
            bounds, cfg)
        assert np.array_equal(got.x, want.x)
        assert np.allclose(got.f, want.f, rtol=1e-12, atol=0.0)

    def test_radial_band_rejected_per_evaluation(self, std_air, cell_params):
        # a 9 mm piezo is outside its radial band at 40 kHz: the cell still
        # builds, every candidate is infeasible, and a sweep finds no design
        params = replace(cell_params, f_u0=40e3)
        ctx = opt.DesignContext(params, std_air)
        lo, hi = ctx.bounds
        assert opt.evaluate_design(ctx, 0.5 * (lo + hi)).flags == ("infeasible",)
        grid = {"d_uc": (params.d_uc,), "f_u0": (params.f_u0,),
                "mode_m": (params.mode_m,), "config": (params.config,),
                "r_p": (params.r_p,), "r_h": (params.r_h,)}
        res = opt.design_sweep(grid, std_air,
                               opt.NsgaConfig(pop=8, generations=1, seed=0),
                               l_p=params.l_p, f_a_grid=[1000.0])
        assert [r.flags for r in res.rows] == [("no_design_in_window",)]


class LatticeCurve:
    """Stand-in for a ``StackChain``: one fixed response on its lattice for
    every candidate, non-finite values returned as they are."""

    def __init__(self, freqs, v):
        self.freqs, self.v = freqs, v

    def subset(self, index):
        return LatticeCurve(self.freqs[index], self.v[index])

    def velocity(self, lengths, z_load, index=None, rows=None):
        v = self.v if index is None else self.v[index]
        return v.copy() if rows is not None else np.tile(v, (len(lengths), 1))


def two_peaks(n):
    """|v| with Lorentzian resonances at lattice points 1000 and 1100."""
    i = np.arange(n)
    return (0.1 + 5.0 / (1.0 + ((i - 1000) / 10.0) ** 2)
            + 4.0 / (1.0 + ((i - 1100) / 10.0) ** 2))


def outcome(call):
    try:
        return call()
    except (NoDualResonanceError, InfeasibleDesignError, ParameterDomainError) as e:
        return type(e)


def outcomes(results):
    """``DesignContext.features`` results with each exception replaced by
    its type, as ``outcome`` reports them."""
    return [type(r) if isinstance(r, Exception) else r for r in results]


class TestCoarseSearch:
    """``DesignContext.features`` against the whole-lattice features."""

    @pytest.mark.parametrize("config", list(td.StackConfig))
    @pytest.mark.parametrize("f_u0, r_p", [(40e3, 13e-3), (90e3, 9e-3)])
    def test_equals_whole_lattice_on_nsga2_candidates(self, std_air, config,
                                                      f_u0, r_p):
        # every candidate of a seeded NSGA-II run, scored in one batch per
        # generation: the same features, or the same exception, as
        # extract_dr_features on the whole lattice, and the same
        # objectives and flags as one-row evaluation
        ctx = opt.DesignContext(opt.DesignParams(0.45, f_u0, 8, config, r_p,
                                                 8e-3, 0.75e-3), std_air)
        seen = []

        def evaluate(xs):
            got = outcomes(ctx.features(xs))
            batch = opt.evaluate_designs(ctx, xs)
            for x, g, p in zip(xs, got, batch):
                want = outcome(lambda: td.extract_dr_features(ctx.frf(x)))
                fallbacks = ctx.fallbacks
                alone = opt.evaluate_design(ctx, x)
                seen.append((g, want, ctx.fallbacks > fallbacks))
                assert (alone.objectives, alone.flags) == (p.objectives, p.flags)
            return [p.objectives for p in batch]

        opt.nsga2(evaluate, ctx.bounds, opt.NsgaConfig(pop=24, generations=10,
                                                       seed=7))
        assert len(seen) == 264
        assert all(got == want for got, want, _ in seen)
        windowed = [w for _, w, fell_back in seen
                    if isinstance(w, td.DrFeatures) and not fell_back]
        assert len(windowed) >= len(seen) // 2

    def test_reference_cell_lattice_budget(self, std_air, cell_params, monkeypatch):
        # deterministic gate: on the reference cell (pop 24, 10 generations,
        # seed 1) NSGA-II proposes 264 candidates, 246 of them distinct; a
        # distinct candidate needs a median of 357 of the 2400 lattice
        # points, and 6 of them fall back to the whole lattice.  Each
        # distinct row is scored once, and its points come from evaluating
        # it alone, which adds up to the batches' points
        ctx = opt.DesignContext(cell_params, std_air)
        batches = []
        evaluate = opt.evaluate_designs

        def counting(c, xs):
            batches.append(np.array(xs))
            return evaluate(c, xs)

        monkeypatch.setattr(opt, "evaluate_designs", counting)
        opt.optimize_lengths(ctx, opt.NsgaConfig(pop=24, generations=10, seed=1))
        monkeypatch.undo()
        rows = np.vstack(batches)
        assert len(batches) <= 11 and ctx.freqs.size == 2400
        assert len({x.tobytes() for x in rows}) == len(rows) <= 264
        alone = opt.DesignContext(cell_params, std_air)
        per_candidate = []
        for x in rows:
            before = alone.lattice_points
            opt.evaluate_design(alone, x)
            per_candidate.append(alone.lattice_points - before)
        assert sum(per_candidate) == ctx.lattice_points
        assert alone.fallbacks == ctx.fallbacks
        assert np.median(per_candidate) <= 376
        assert ctx.fallbacks <= 13
        # at most three chain calls a generation, against two or three a
        # candidate one at a time
        assert ctx.chain_calls <= 3 * 11 and alone.chain_calls >= 2 * len(rows)

    @staticmethod
    def synthetic(ctx, mag):
        """Give ``ctx`` the response |v| = ``mag`` and return the features
        of the whole lattice and of the coarse search."""
        ctx.chain = LatticeCurve(ctx.freqs, mag.astype(complex))
        ctx._coarse_chain = ctx.chain.subset(np.arange(0, ctx.freqs.size,
                                                       opt._COARSE_STRIDE))
        whole = td.fill_singular(ctx.freqs, ctx.chain.velocity([[]], None)[0])
        want = outcome(lambda: td.extract_dr_features(td.Frf(ctx.freqs, whole)))
        return want, outcomes(ctx.features([ctx.bounds[0]]))[0]

    def test_windows_suffice_for_resolved_peaks(self, std_air, cell_params):
        ctx = opt.DesignContext(cell_params, std_air)
        want, got = self.synthetic(ctx, two_peaks(ctx.freqs.size))
        assert isinstance(want, td.DrFeatures) and got == want
        assert ctx.fallbacks == 0 and ctx.lattice_points < 400

    def test_fallback_without_two_coarse_peaks(self, std_air, cell_params):
        # two narrow peaks between the same coarse samples look like one
        # resonance to the coarse scan; the whole lattice resolves them
        ctx = opt.DesignContext(cell_params, std_air)
        mag = 0.1 + 1.0 / (1.0 + ((np.arange(ctx.freqs.size) - 1200) / 40.0) ** 2)
        mag[[1203, 1206]] = 3.0, 2.5
        want, got = self.synthetic(ctx, mag)
        assert isinstance(want, td.DrFeatures) and got == want
        assert ctx.fallbacks == 1
        # no dual resonance in band: the whole lattice raises, and so does
        # the search, after falling back to it
        ctx = opt.DesignContext(cell_params, std_air)
        (got,) = ctx.features([np.full(ctx.bounds[0].size, 1e-4)])
        assert isinstance(got, NoDualResonanceError)
        assert ctx.fallbacks == 1

    def test_fallback_when_peak_window_max_on_its_edge(self, std_air, cell_params):
        # the coarse peak at 1000 hides a taller one at 1011: its window
        # [991, 1009] peaks on its edge, which is no lattice peak
        ctx = opt.DesignContext(cell_params, std_air)
        mag = two_peaks(ctx.freqs.size)
        mag[1009:1016] = 6.0, 7.0, 8.0, 6.0, 4.0, 3.0, 2.0
        want, got = self.synthetic(ctx, mag)
        assert isinstance(want, td.DrFeatures)
        assert abs(want.f_r2 - ctx.freqs[1011]) < td.PEAK_GRID_STEP
        assert got == want and ctx.fallbacks == 1

    def test_fallback_when_valley_lacks_neighbour(self, std_air, cell_params):
        # a dip just outside the valley window: the lowest evaluated sample
        # sits on the window's edge, next to a lower unevaluated one
        ctx = opt.DesignContext(cell_params, std_air)
        mag = two_peaks(ctx.freqs.size)
        stride = opt._COARSE_STRIDE
        coarse = mag[::stride]
        c1, c2 = sorted(td.interior_peaks(coarse)[:2])
        valley = stride * (c1 + int(np.argmin(coarse[c1:c2 + 1])))
        edge = valley + opt._WINDOW_HALF
        mag[edge:edge + 3] = 0.01, 0.005, 0.01
        want, got = self.synthetic(ctx, mag)
        assert isinstance(want, td.DrFeatures) and got == want
        assert want.v_m < 0.01 and ctx.fallbacks == 1

    def test_fallback_on_infinite_window_value(self, std_air, cell_params):
        # an infinite sample inside the upper peak's window would outrank
        # every peak; the whole lattice fills it from its neighbours instead
        ctx = opt.DesignContext(cell_params, std_air)
        mag = two_peaks(ctx.freqs.size)
        mag[1101] = np.inf
        want, got = self.synthetic(ctx, mag)
        assert isinstance(want, td.DrFeatures) and got == want
        assert ctx.fallbacks == 1

    @pytest.mark.parametrize("coarse_point", [False, True])
    def test_fallback_on_non_finite_value(self, std_air, cell_params, monkeypatch,
                                          coarse_point):
        # a non-finite load next to the upper resonance: the whole lattice
        # fills the frequency from its neighbours, the windows or the
        # coarse scan report it, and the search falls back
        x0, _ = td.langevin_initial_lengths(60e3, cell_params.config, 8e-3)
        clean = opt.DesignContext(cell_params, std_air)
        mag = np.abs(clean.frf(x0).center_velocity)
        peak = int(td.interior_peaks(mag)[0])
        stride = opt._COARSE_STRIDE
        bad = stride * (peak // stride) if coarse_point else (
            peak + 1 if (peak + 1) % stride else peak - 1)
        load_impedance = td.plate_load_impedance

        def nan_load(*args):
            z = load_impedance(*args)
            z[bad] = np.nan
            return z

        monkeypatch.setattr(td, "plate_load_impedance", nan_load)
        ctx = opt.DesignContext(cell_params, std_air)
        assert ctx.features([x0]) == [td.extract_dr_features(ctx.frf(x0))]
        assert ctx.fallbacks == 1
        # the coarse scan's 300 points and the whole lattice, with the
        # windows between them unless the coarse scan saw the bad value
        assert (ctx.lattice_points == 2700) == coarse_point

    def test_debug_record_per_run(self, std_air, cell_params, caplog):
        ctx = opt.DesignContext(cell_params, std_air)
        cfg = opt.NsgaConfig(pop=8, generations=2, seed=1)
        with caplog.at_level(logging.INFO, logger="sppal.optimizer"):
            opt.optimize_lengths(ctx, cfg)
        assert not caplog.records
        fallbacks, points, calls = ctx.fallbacks, ctx.lattice_points, ctx.chain_calls
        with caplog.at_level(logging.DEBUG, logger="sppal.optimizer"):
            front = opt.optimize_lengths(ctx, cfg)
        (rec,) = caplog.records
        assert rec.levelno == logging.DEBUG
        msg = rec.getMessage()
        assert msg.startswith("optimize_lengths: 24 evaluations, ")
        distinct, repeats = map(int, re.search(
            r"(\d+) distinct candidates scored, (\d+) repeats skipped", msg).groups())
        assert distinct + repeats == 24 and distinct > 0
        calls = ctx.chain_calls - calls
        assert (f"{ctx.fallbacks - fallbacks} full-lattice fallbacks, "
                f"{ctx.lattice_points - points} lattice points, "
                f"{calls} chain calls") in msg
        assert ctx.lattice_points > points
        # the coarse scan and the windows of each of the 3 generations, and
        # one whole-lattice batch for each generation with a fallback
        assert 2 * 3 <= calls <= 3 * 3
        assert re.search(r", \d+\.\d{3} s$", msg)
        assert front.points


class TestKneeSelection:
    def _pt(self, params, f1, f2, flags=()):
        return opt.DesignPoint(params, np.ones(4), (f1, f2), flags=flags)

    def test_min_f1_within_window(self, cell_params):
        pts = [self._pt(cell_params, -1.0, 900.0),
               self._pt(cell_params, -3.0, 1200.0),
               self._pt(cell_params, -4.0, 2000.0)]
        front = opt.ParetoFront(pts)
        knee = opt.select_knee(front, (800.0, 1250.0))
        assert knee.objectives == (-3.0, 1200.0)

    def test_tie_breaks_smaller_f2(self, cell_params):
        pts = [self._pt(cell_params, -3.0, 900.0),
               self._pt(cell_params, -3.0, 1100.0)]
        # mutually non-dominated requires distinct F1; craft with epsilon
        pts[1] = self._pt(cell_params, -3.0 + 1e-12, 1100.0)
        front = opt.ParetoFront([pts[0]])
        knee = opt.select_knee(front, (800.0, 1250.0))
        assert knee.objectives[1] == 900.0

    def test_none_when_window_missed(self, cell_params):
        front = opt.ParetoFront([self._pt(cell_params, -3.0, 2000.0)])
        assert opt.select_knee(front, (800.0, 1250.0)) is None


@pytest.mark.slow
class TestDesignPipeline:
    def test_optimize_and_audio_capability(self, cell_ctx, coarse):
        cfg = opt.NsgaConfig(pop=12, generations=4, seed=3)
        front = opt.optimize_lengths(cell_ctx, cfg)
        assert len(front.points) >= 1
        # trade-off shape: sorted by F2 ascending, F1 non-increasing
        pts = front.sorted_by_f2()
        f1s = [p.objectives[0] for p in pts]
        assert all(f1s[i] >= f1s[i + 1] - 1e-15 for i in range(len(f1s) - 1))

        knee = opt.select_knee(front, (800.0, 8000.0))
        assert knee is not None
        cap = opt.audio_capability(knee, cell_ctx, [1000.0], settings=coarse)
        f_r2 = td.extract_dr_features(cell_ctx.frf(knee.x)).f_r2
        assert cap.carrier_hz == pytest.approx(f_r2, rel=1e-6)
        assert np.isfinite(cap.peak_spl)
        assert cap.d_ac_at_peak > 0

    def test_audio_capability_samples_pistons_at_the_carrier(self, cell_ctx, coarse,
                                                              monkeypatch):
        # every audio frequency's pair samples both pistons by the rule at
        # the carrier, not at the cell's nominal f_u0
        knee = opt.select_knee(opt.optimize_lengths(cell_ctx, opt.NsgaConfig(
            pop=12, generations=4, seed=3)), (800.0, 8000.0))
        calls = []

        def recording(spec, n_samples):
            calls.append(n_samples)
            return rad.piston_profile(spec, n_samples)

        monkeypatch.setattr(nl, "piston_profile", recording)
        cap = opt.audio_capability(knee, cell_ctx, [500.0, 1000.0], settings=coarse)
        n = rad.radial_sample_count(cell_ctx.plate.radius_a, cap.carrier_hz, cell_ctx.medium)
        assert n != rad.radial_sample_count(cell_ctx.plate.radius_a, 60e3, cell_ctx.medium)
        assert calls == [n] * 4

    @pytest.mark.filterwarnings("ignore::sppal.errors.TruncationTailWarning")
    def test_audio_capability_is_the_pairs_critical_point(self, cell_ctx, coarse,
                                                           monkeypatch, tmp_path):
        # sweep and audio-fr score a pair by one path: audio_capability's
        # level and distance are critical_point's on the pair it builds,
        # and audio-fr given that aperture and those velocities writes the
        # same bits
        knee = opt.select_knee(opt.optimize_lengths(cell_ctx, opt.NsgaConfig(
            pop=12, generations=4, seed=3)), (800.0, 8000.0))
        pairs, critical_point = [], nl.critical_point

        def recording(pair, medium, settings=None):
            pairs.append(pair)
            return critical_point(pair, medium, settings)

        with monkeypatch.context() as m:
            m.setattr(nl, "critical_point", recording)
            cap = opt.audio_capability(knee, cell_ctx, [1000.0], settings=coarse)
        (pair,) = pairs
        cd = nl.critical_point(pair, cell_ctx.medium, coarse)
        assert (cap.spl_at_cd[0], cap.d_ac[0]) == (cd.spl, cd.distance)
        cfg = validate_config({
            "source": {"kind": "piston", "radius_m": pair.radius_a},
            "pair": {"f_carrier_hz": pair.f_u2, "f_audio_hz": 1000.0,
                     "v1_ms": [float(pair.v1.real), float(pair.v1.imag)],
                     "v2_ms": [float(pair.v2.real), float(pair.v2.imag)]},
            "solver": {"ppw_axial": coarse.ppw_axial, "ppw_radial": coarse.ppw_radial,
                       "audio_ppw": coarse.audio_ppw, "truncation_db": coarse.truncation_db},
        })
        _, (path,), _ = cli.dispatch("audio-fr", cfg, tmp_path, ("json",))
        doc = json.loads(path.read_text())
        assert (doc["spl_db"], doc["d_ac_m"]) == ([cd.spl], [cd.distance])

    def test_drive_voltage_scales_the_level_only(self, cell_ctx, coarse):
        # the voltage scales the per-volt response once: the carrier and
        # the critical distances keep their bits, and the level rises by
        # 20 log10 V for each of the two primaries
        knee = opt.select_knee(opt.optimize_lengths(cell_ctx, opt.NsgaConfig(
            pop=12, generations=4, seed=3)), (800.0, 8000.0))
        one = opt.audio_capability(knee, cell_ctx, [500.0, 1000.0], settings=coarse)
        cap = opt.audio_capability(knee, cell_ctx, [500.0, 1000.0],
                                   drive_voltage=1.7, settings=coarse)
        assert cap.carrier_hz == one.carrier_hz
        assert np.array_equal(cap.d_ac, one.d_ac)
        assert cap.d_ac_at_peak == one.d_ac_at_peak
        assert cap.peak_spl - one.peak_spl == pytest.approx(40.0 * np.log10(1.7),
                                                            rel=0.0, abs=1e-9)

    def test_vanishing_drive_guard(self, cell_ctx, coarse):
        # effective velocities below the guard floor produce -inf SPL
        # rather than a numerical failure
        cfg = opt.NsgaConfig(pop=12, generations=4, seed=3)
        front = opt.optimize_lengths(cell_ctx, cfg)
        knee = opt.select_knee(front, (800.0, 8000.0))
        cap = opt.audio_capability(knee, cell_ctx, [1000.0],
                                   drive_voltage=1e-30, settings=coarse)
        assert cap.peak_spl == -np.inf

    def test_sweep_single_cell_deterministic(self, std_air, coarse):
        grid = {"d_uc": (0.45,), "f_u0": (60e3,), "mode_m": (8,),
                "config": (td.StackConfig.FULL,), "r_p": (9e-3,),
                "r_h": (0.75e-3,)}
        cfg = opt.NsgaConfig(pop=8, generations=2, seed=11)
        r1 = opt.design_sweep(grid, std_air, cfg, f_a_grid=[1000.0],
                              settings=coarse, f_dist_window=(800.0, 8000.0))
        r2 = opt.design_sweep(grid, std_air, cfg, f_a_grid=[1000.0],
                              settings=coarse, f_dist_window=(800.0, 8000.0))
        assert r1.table() == r2.table()
        assert len(r1.rows) == 1

    def test_sweep_builds_one_context_per_cell(self, std_air, monkeypatch, coarse):
        # the drive voltage only scales the response: the NSGA-II run and
        # the audio pipeline of a cell share one context at any voltage
        built = []
        init = opt.DesignContext.__init__

        def counting_init(self, params, *args, **kwargs):
            built.append(params)
            init(self, params, *args, **kwargs)

        monkeypatch.setattr(opt.DesignContext, "__init__", counting_init)
        grid = {"d_uc": (0.45,), "f_u0": (40e3, 60e3), "mode_m": (8,),
                "config": (td.StackConfig.FULL,), "r_p": (9e-3,),
                "r_h": (0.75e-3,)}
        res = opt.design_sweep(grid, std_air,
                               opt.NsgaConfig(pop=8, generations=2, seed=0),
                               f_a_grid=[1000.0], drive_voltage=2.0,
                               settings=coarse, f_dist_window=(800.0, 8000.0))
        assert any(r.l_pa_c is not None for r in res.rows)
        assert built == [r.params for r in res.rows]

    def test_sweep_records_window_miss(self, std_air, coarse):
        grid = {"d_uc": (0.45,), "f_u0": (60e3,), "mode_m": (8,),
                "config": (td.StackConfig.FULL,), "r_p": (9e-3,),
                "r_h": (0.75e-3,)}
        cfg = opt.NsgaConfig(pop=8, generations=2, seed=11)
        res = opt.design_sweep(grid, std_air, cfg, f_a_grid=[1000.0],
                               settings=coarse, f_dist_window=(1.0, 2.0))
        assert res.rows[0].flags == ("no_design_in_window",)
        assert res.rows[0].l_pa_c is None

    def test_sweep_skips_band_infeasible_cell(self, std_air, monkeypatch):
        # a 9 mm piezo at 40 kHz lies outside its radial band, so every
        # candidate would be rejected: the cell builds its context, runs
        # no NSGA-II and no chain, and writes the row NSGA-II's penalty
        # front gave
        assert opt.DesignContext(opt.DesignParams(0.45, 40e3, 8, td.StackConfig.FULL,
                                                  9e-3, 8e-3, 0.75e-3),
                                 std_air)._band_message is not None
        calls = []
        velocity, optimize = td.StackChain.velocity, opt.optimize_lengths

        def chain(self, *args, **kwargs):
            calls.append("chain")
            return velocity(self, *args, **kwargs)

        def optimizing(*args):
            calls.append("optimize_lengths")
            return optimize(*args)

        monkeypatch.setattr(td.StackChain, "velocity", chain)
        monkeypatch.setattr(opt, "optimize_lengths", optimizing)
        grid = {"d_uc": (0.45,), "f_u0": (40e3,), "mode_m": (8,),
                "config": ("full",), "r_p": (9e-3,), "r_h": (0.75e-3,)}
        res = opt.design_sweep(grid, std_air, opt.NsgaConfig(pop=12, generations=5),
                               f_a_grid=[1000.0], f_dist_window=(800.0, 8000.0))
        assert calls == []
        assert res.table() == [{
            "d_uc_m": 0.45, "f_u0_hz": 40e3, "mode_m": 8, "config": "full",
            "r_p_m": 9e-3, "l_p_m": 8e-3, "r_h_m": 0.75e-3, "x_m": "", "f1_ms": "",
            "f2_hz": "", "f_dist_hz": "", "l_pa_c_db": "", "d_ac_m": "",
            "flags": "no_design_in_window"}]

    def test_empty_grid(self, std_air):
        res = opt.design_sweep({"d_uc": (), "f_u0": (60e3,)}, std_air,
                               opt.NsgaConfig(pop=8, generations=1, seed=0))
        assert res.rows == []


@pytest.mark.parametrize("f_a", [[], [-500.0], [0.0], [np.nan], [1000.0, np.inf]])
def test_audio_grid_checked_before_any_work(std_air, cell_ctx, monkeypatch, f_a):
    # an audio grid no design can be scored on is rejected by
    # audio_capability before the stack response, and by the sweep before
    # its first cell's context
    design = opt.DesignPoint(cell_ctx.params, np.zeros(0), ())
    with pytest.raises(ParameterDomainError, match="non-empty, finite and > 0"):
        opt.audio_capability(design, cell_ctx, f_a)
    monkeypatch.setattr(opt, "DesignContext", None)
    with pytest.raises(ParameterDomainError, match="non-empty, finite and > 0"):
        opt.design_sweep(None, std_air, opt.NsgaConfig(pop=8, generations=1), f_a_grid=f_a)
