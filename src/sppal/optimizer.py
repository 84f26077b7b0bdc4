"""Multi-objective design optimization and design-space sweeps.

Couples the transducer, plate and field modules into the design loop:
segment lengths are optimized by NSGA-II for dual resonance (objectives
F1, F2), the selected designs are pushed through the audio-capability
pipeline (frequency response of the audio critical distance), and the
whole parameter space can be swept into contour-ready tables.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    InfeasibleDesignError,
    NoDualResonanceError,
    ParameterDomainError,
)
from . import linfield, nlfield, radiator, transducer
from .medium import Medium
from .transducer import StackConfig

_log = logging.getLogger(__name__)


@dataclass(frozen=True)
class DesignParams:
    """Discrete design parameters of one stepped-plate loudspeaker cell."""

    d_uc: float        # ultrasonic critical distance [m]
    f_u0: float        # nominal ultrasonic frequency [Hz]
    mode_m: int        # plate mode (nodal circles)
    config: StackConfig
    r_p: float         # piezo stack radius [m]
    l_p: float         # piezo stack length [m]
    r_h: float         # horn end radius [m]


@dataclass
class DesignPoint:
    """A candidate design: parameters, segment lengths and objectives."""

    params: DesignParams
    x: np.ndarray
    objectives: tuple
    flags: tuple = ()

    @property
    def feasible(self) -> bool:
        return "no_dual_resonance" not in self.flags and "infeasible" not in self.flags


@dataclass
class ParetoFront:
    """Mutually non-dominated design points (both objectives minimized)."""

    points: list

    def __post_init__(self):
        f = np.array([p.objectives for p in self.points])
        if len(self.points) > 1 and _dominance(f).any():
            raise ParameterDomainError("front contains dominated points")

    def sorted_by_f2(self) -> list:
        return sorted(self.points, key=lambda p: (p.objectives[1], p.objectives[0]))


def _dominance(f: np.ndarray) -> np.ndarray:
    """Matrix d with d[i, j] True iff point i Pareto-dominates point j
    (minimization): no objective worse and at least one better."""
    a, b = f[:, None, :], f[None, :, :]
    return np.all(a <= b, axis=2) & np.any(a < b, axis=2)


# ---------------------------------------------------------------------------
# Design evaluation pipeline
# ---------------------------------------------------------------------------

#: coarse-scan stride in lattice points.  At 60 kHz every 8th point is 300
#: of 2400; the resonances are 19-26 points wide at -3 dB, so each gets two
#: or three coarse samples there.  Strides 8, 12 and 16 (half-widths 9, 9
#: and 10) all gave the whole-lattice features on the 21120 candidates of
#: seeded NSGA-II runs in 80 cells, with medians of 357, 257 and 213 points
#: per candidate; 16 was only 3-5 % quicker per ``optimize_lengths``, too
#: little for the thinner margin.
_COARSE_STRIDE = 8
#: half-width of each refinement window in lattice points: a resolved
#: resonance peaks less than one stride from its coarse peak, and 9 also
#: gives the lattice peak both neighbours (5 matched as well at stride 8).
#: The four windows cover at most 76 points.
_WINDOW_HALF = 9


class DesignContext:
    """Per-cell state shared by every evaluation of one parameter set.

    Everything that depends only on the discrete parameters and the
    medium (plate sizing, mode shape, equivalence ratio, load impedance,
    frequency grid, length bounds, transducer chain terms, the piezo
    radial-band check) is computed once; only the segment lengths vary,
    and every response is per volt of drive.  The caller builds one
    context per cell and passes it to ``evaluate_designs``,
    ``optimize_lengths`` and ``audio_capability``.  ``lattice_points``,
    ``fallbacks`` and ``chain_calls`` count the frequencies
    :meth:`features` evaluated, its full-lattice fallbacks and its
    ``StackChain.velocity`` calls.
    """

    def __init__(self, params: DesignParams, medium: Medium):
        self.params = params
        self.medium = medium
        self.plate = radiator.size_plate_for(params.f_u0, params.d_uc,
                                             params.mode_m, "aluminum", medium)
        self.mode = radiator.plate_mode_shape(self.plate)
        n = radiator.radial_sample_count(self.plate.radius_a, params.f_u0, medium)
        self.sp_profile = radiator.stepped_profile(self.mode, 1.0, n_samples=n)
        self.er = linfield.equivalence_ratio(self.sp_profile, medium,
                                             params.f_u0, params.d_uc)
        # peak search band around the nominal frequency
        self.freqs = np.arange(0.8 * params.f_u0, 1.2 * params.f_u0,
                               transducer.PEAK_GRID_STEP)
        self.load = transducer.plate_load_impedance(self.plate, self.mode,
                                                    self.er, medium, self.freqs)
        self.band_width = float(self.freqs[-1] - self.freqs[0])
        x0, self.bounds = transducer.langevin_initial_lengths(
            params.f_u0, params.config, params.l_p)
        # the chain terms of the cell's layout; the radial band depends on
        # the cell alone, so every candidate shares its verdict
        layout = transducer.build_stack(params.config, params.r_p, params.l_p,
                                        params.r_h, x0)
        self.chain = transducer.StackChain(layout.segments, self.freqs)
        try:
            transducer.check_radial_band(params.r_p, params.f_u0)
            self._band_message = None
        except InfeasibleDesignError as e:
            self._band_message = str(e)
        # the coarse scan's terms and load, gathered once
        coarse = np.arange(0, self.freqs.size, _COARSE_STRIDE)
        self._coarse_chain = self.chain.subset(coarse)
        self._coarse_load = np.take(self.load, coarse)
        self.lattice_points = 0
        self.fallbacks = 0
        self.chain_calls = 0

    def _checked(self, xs) -> tuple:
        """The elastic lengths of the rows of ``xs`` (a wrong count raises)
        and per row the error that rejects it, or None: a non-positive
        length, else a piezo radius outside its radial band."""
        lengths = transducer.elastic_lengths(self.params.config, xs)
        return lengths, [
            ParameterDomainError("segment lengths must be positive") if short
            else None if self._band_message is None
            else InfeasibleDesignError(self._band_message)
            for short in np.any(lengths <= 0, axis=1)]

    def frf(self, x) -> transducer.Frf:
        """Plate-centre velocity per volt of the design vector ``x`` over
        the cell's frequency grid, singular frequencies filled."""
        lengths, (error,) = self._checked([x])
        if error is not None:
            raise error
        return self.chain.frf(lengths[0], self.load)

    def features(self, xs) -> list:
        """Per row x of the (candidates, n_var) matrix ``xs``:
        ``extract_dr_features(self.frf(x))`` bit for bit, or the exception
        that raises, from at most three chain calls for the whole batch.

        The rows first get :meth:`frf`'s checks, once for the batch: a
        wrong number of lengths or a non-positive length is a
        ``ParameterDomainError``, and a piezo radius outside its band an
        ``InfeasibleDesignError``.  The other rows are scored by

        1. a coarse scan of every ``_COARSE_STRIDE``-th lattice point;
        2. for each row whose coarse scan shows two interior peaks and
           only finite values, the lattice points within ``_WINDOW_HALF``
           of its top three coarse peaks and of the coarse minimum between
           its top two, every such row's windows in one flat call;
        3. the whole lattice of the rows that fall back, filling singular
           frequencies row by row.

        A row's features come from its evaluated samples by the same
        rules.  A row falls back when its coarse scan does not qualify,
        when a window value is not finite, when a peak window's largest
        sample is not a lattice peak with both neighbours evaluated, or
        when the minimum between the chosen peaks lacks an evaluated
        neighbour.
        """
        try:
            lengths, out = self._checked(xs)
        except ParameterDomainError as e:
            return [e.with_traceback(None)] * len(xs)
        live = [i for i, o in enumerate(out) if o is None]
        if not live:
            return out
        lengths = lengths[live]
        n = self.freqs.size

        coarse = np.abs(self._coarse_chain.velocity(lengths, self._coarse_load))
        self.chain_calls += 1
        self.lattice_points += coarse.size
        windows, fallback = {}, []
        for r, mag in enumerate(coarse):
            peaks = transducer.interior_peaks(mag)
            if peaks.size < 2 or not np.all(np.isfinite(mag)):
                fallback.append(r)
                continue
            c1, c2 = sorted(peaks[:2])
            centres = _COARSE_STRIDE * np.append(
                peaks[:3], c1 + np.argmin(mag[c1:c2 + 1]))
            windowed = np.zeros(n, dtype=bool)
            for c in centres:
                windowed[max(c - _WINDOW_HALF, 0):c + _WINDOW_HALF + 1] = True
            windows[r] = (np.flatnonzero(windowed), centres)

        if windows:
            sizes = [index.size for index, _ in windows.values()]
            index = np.concatenate([index for index, _ in windows.values()])
            v = self.chain.velocity(lengths, self.load, index,
                                    rows=np.repeat(list(windows), sizes))
            self.chain_calls += 1
            self.lattice_points += index.size
            for (r, (index, centres)), part in zip(
                    windows.items(), np.split(v, np.cumsum(sizes)[:-1])):
                if np.all(np.isfinite(part)):
                    mag = np.full(n, np.nan)
                    mag[::_COARSE_STRIDE] = coarse[r]
                    mag[index] = np.abs(part)
                    feats = _window_features(self.freqs, mag, centres[:-1])
                    if feats is not None:
                        out[live[r]] = feats
                        continue
                fallback.append(r)

        if fallback:
            fallback.sort()
            v = self.chain.velocity(lengths[fallback], self.load)
            self.chain_calls += 1
            for r, row in zip(fallback, v):
                self.fallbacks += 1
                self.lattice_points += n
                try:
                    out[live[r]] = transducer.extract_dr_features(transducer.Frf(
                        self.freqs, transducer.fill_singular(self.freqs, row)))
                except (NoDualResonanceError, ParameterDomainError) as e:
                    # kept without its traceback, whose frames would hold
                    # ``out`` and this batch's arrays in a reference cycle
                    out[live[r]] = e.with_traceback(None)
        return out


def _window_features(freqs, mag, peak_centres) -> transducer.DrFeatures | None:
    """Dual-resonance features of the evaluated samples (NaN elsewhere),
    or None unless every peak window's largest sample is a lattice peak
    and the minimum between the chosen peaks has both neighbours."""
    for c in peak_centres:
        lo = max(c - _WINDOW_HALF, 0)
        j = lo + int(np.argmax(mag[lo:c + _WINDOW_HALF + 1]))
        if not (0 < j < mag.size - 1 and mag[j - 1] <= mag[j] > mag[j + 1]):
            return None
    try:
        feats, (_, _, im) = transducer.lattice_dr_features(freqs, mag)
    except (NoDualResonanceError, ParameterDomainError):
        return None
    return feats if np.isfinite(mag[im - 1]) and np.isfinite(mag[im + 1]) else None


def evaluate_designs(ctx: DesignContext, xs) -> list:
    """Objectives of each row of ``xs``: stack -> FRF -> dual-resonance
    features, from one :meth:`DesignContext.features` batch.

    Designs without a dual resonance (or with infeasible geometry) get
    penalty objectives (F1 = 0, F2 = search-band width) and a flag so
    optimizer runs never abort.
    """
    xs = np.asarray(xs, dtype=float)
    points = []
    for x, feats in zip(xs, ctx.features(xs)):
        if isinstance(feats, NoDualResonanceError):
            flags = ("no_dual_resonance",)
        elif isinstance(feats, Exception):
            flags = ("infeasible",)
        else:
            try:
                f1, f2 = transducer.objectives(feats)
            except ParameterDomainError:
                flags = ("infeasible",)
            else:
                points.append(DesignPoint(ctx.params, x, (f1, f2)))
                continue
        points.append(DesignPoint(ctx.params, x, (0.0, ctx.band_width), flags))
    return points


def evaluate_design(ctx: DesignContext, x) -> DesignPoint:
    """:func:`evaluate_designs` on the one design vector ``x``."""
    return evaluate_designs(ctx, np.asarray(x, dtype=float)[None])[0]


# ---------------------------------------------------------------------------
# NSGA-II
# ---------------------------------------------------------------------------

#: variation operators: SBX crossover probability and distribution index,
#: polynomial-mutation distribution index (the mutation rate is 1/n_var)
_CROSSOVER_RATE = 0.9
_ETA_CROSSOVER = 15.0
_ETA_MUTATION = 20.0


@dataclass(frozen=True)
class NsgaConfig:
    pop: int = 24
    generations: int = 20
    seed: int = 0

    def __post_init__(self):
        if self.pop < 8 or self.pop % 2:
            raise ParameterDomainError("population must be even and >= 8")
        if self.generations < 1:
            raise ParameterDomainError("need at least one generation")


@dataclass
class NsgaResult:
    """The archive of every non-dominated evaluation of one run."""

    x: np.ndarray          # (n_front, n_var)
    f: np.ndarray          # (n_front, 2)
    n_evaluations: int


def _non_dominated_sort(f: np.ndarray) -> list:
    """Fronts of indices, best first (standard fast sort, minimization), each
    ordered by its points' last dominators in the front before, then by index."""
    d = _dominance(f)
    domination_count = d.sum(axis=0)
    fronts = []
    current = np.flatnonzero(domination_count == 0)
    while current.size:
        fronts.append(current.tolist())
        by_current = d[current]
        domination_count -= by_current.sum(axis=0)
        nxt = np.flatnonzero((domination_count == 0) & by_current.any(axis=0))
        last = current.size - 1 - np.argmax(by_current[::-1, nxt], axis=0)
        current = nxt[np.argsort(last, kind="stable")]
    return fronts


def _crowding_distance(f: np.ndarray) -> np.ndarray:
    n = f.shape[0]
    d = np.zeros(n)
    for m in range(f.shape[1]):
        order = np.argsort(f[:, m], kind="stable")
        d[order[0]] = d[order[-1]] = np.inf
        span = f[order[-1], m] - f[order[0], m]
        if span > 0 and n > 2:
            d[order[1:-1]] += (f[order[2:], m] - f[order[:-2], m]) / span
    return d


def _sbx_crossover(p1, p2, lo, hi, eta, rng):
    """Simulated binary crossover, per-variable."""
    c1, c2 = p1.copy(), p2.copy()
    for k in range(p1.size):
        if rng.random() > 0.5 or abs(p1[k] - p2[k]) < 1e-14:
            continue
        x1, x2 = sorted((p1[k], p2[k]))
        u = rng.random()
        beta = 1.0 + 2.0 * (x1 - lo[k]) / (x2 - x1)
        alpha = 2.0 - beta ** -(eta + 1.0)
        bq = ((u * alpha) ** (1.0 / (eta + 1.0)) if u <= 1.0 / alpha
              else (1.0 / (2.0 - u * alpha)) ** (1.0 / (eta + 1.0)))
        c1[k] = 0.5 * ((x1 + x2) - bq * (x2 - x1))
        beta = 1.0 + 2.0 * (hi[k] - x2) / (x2 - x1)
        alpha = 2.0 - beta ** -(eta + 1.0)
        bq = ((u * alpha) ** (1.0 / (eta + 1.0)) if u <= 1.0 / alpha
              else (1.0 / (2.0 - u * alpha)) ** (1.0 / (eta + 1.0)))
        c2[k] = 0.5 * ((x1 + x2) + bq * (x2 - x1))
        if rng.random() < 0.5:
            c1[k], c2[k] = c2[k], c1[k]
    return np.clip(c1, lo, hi), np.clip(c2, lo, hi)


def _polynomial_mutation(x, lo, hi, eta, rate, rng):
    y = x.copy()
    for k in range(x.size):
        if rng.random() >= rate:
            continue
        delta1 = (y[k] - lo[k]) / (hi[k] - lo[k])
        delta2 = (hi[k] - y[k]) / (hi[k] - lo[k])
        u = rng.random()
        mut_pow = 1.0 / (eta + 1.0)
        if u < 0.5:
            xy = 1.0 - delta1
            val = 2.0 * u + (1.0 - 2.0 * u) * xy ** (eta + 1.0)
            deltaq = val ** mut_pow - 1.0
        else:
            xy = 1.0 - delta2
            val = 2.0 * (1.0 - u) + 2.0 * (u - 0.5) * xy ** (eta + 1.0)
            deltaq = 1.0 - val ** mut_pow
        y[k] += deltaq * (hi[k] - lo[k])
    return np.clip(y, lo, hi)


def _archive_update(arch_x, arch_f, new_x, new_f):
    """Merge candidates into the non-dominated archive.

    The archive is unbounded, so its dominated hypervolume never
    decreases between generations.  Of exact duplicates the first is
    kept; survivors stay in input order.  One sweep in (F1, F2) order, ties
    in input order: a point survives iff its F2 is below every F2 before it.
    """
    xs = list(arch_x) + list(new_x)
    fs = list(arch_f) + list(new_f)
    f = np.array(fs)
    order = np.lexsort((f[:, 1], f[:, 0]))
    f2 = f[order, 1]
    keep = np.ones(f2.size, dtype=bool)
    keep[1:] = f2[1:] < np.minimum.accumulate(f2)[:-1]
    idx = np.sort(order[keep])
    return [xs[i] for i in idx], [fs[i] for i in idx]


def nsga2(evaluate, bounds, config: NsgaConfig) -> NsgaResult:
    """Seeded NSGA-II over box bounds with an external archive.

    ``evaluate(xs)`` scores one generation at once: it gets the
    generation's (pop, n_var) matrix of design vectors, the initial
    population first and then each generation's offspring, and returns
    their (pop, 2) objectives (an array or a sequence of pairs).  It is
    called ``generations + 1`` times; a result that is not a finite
    (pop, 2) array raises :class:`ParameterDomainError`.  Selection
    follows the standard loop (non-dominated sort, crowding distance,
    binary tournament, SBX crossover, polynomial mutation).  The returned
    front is the archive of all non-dominated evaluations.
    """
    lo, hi = (np.asarray(b, dtype=float) for b in bounds)
    if lo.shape != hi.shape or np.any(lo >= hi):
        raise ParameterDomainError("bounds must satisfy lo < hi elementwise")
    n_var = lo.size
    rate = 1.0 / n_var
    rng = np.random.default_rng(config.seed)

    def scored(xs):
        f = evaluate(xs)
        try:
            f = np.array(f, dtype=float)
        except (TypeError, ValueError):
            f = None
        if f is None or f.shape != (config.pop, 2) or not np.all(np.isfinite(f)):
            raise ParameterDomainError(
                f"evaluate must return finite ({config.pop}, 2) objectives")
        return f

    pop_x = lo + (hi - lo) * rng.random((config.pop, n_var))
    pop_f = scored(pop_x)
    n_eval = config.pop
    arch_x, arch_f = _archive_update([], [], pop_x, pop_f)

    for _ in range(config.generations):
        fronts = _non_dominated_sort(pop_f)
        rank = np.empty(config.pop, dtype=int)
        crowd = np.empty(config.pop)
        for fi, front in enumerate(fronts):
            rank[front] = fi
            crowd[front] = _crowding_distance(pop_f[front])

        def tourney():
            i, j = rng.integers(0, config.pop, 2)
            if rank[i] < rank[j]:
                return i
            if rank[j] < rank[i]:
                return j
            return i if crowd[i] >= crowd[j] else j

        child_x = []
        while len(child_x) < config.pop:
            pa, pb = pop_x[tourney()], pop_x[tourney()]
            if rng.random() < _CROSSOVER_RATE:
                c1, c2 = _sbx_crossover(pa, pb, lo, hi, _ETA_CROSSOVER, rng)
            else:
                c1, c2 = pa.copy(), pb.copy()
            c1 = _polynomial_mutation(c1, lo, hi, _ETA_MUTATION, rate, rng)
            c2 = _polynomial_mutation(c2, lo, hi, _ETA_MUTATION, rate, rng)
            child_x.extend([c1, c2])
        child_x = np.array(child_x[:config.pop])
        child_f = scored(child_x)
        n_eval += config.pop
        arch_x, arch_f = _archive_update(arch_x, arch_f, child_x, child_f)

        # environmental selection on the combined population
        all_x = np.vstack([pop_x, child_x])
        all_f = np.vstack([pop_f, child_f])
        fronts = _non_dominated_sort(all_f)
        chosen = []
        for front in fronts:
            if len(chosen) + len(front) <= config.pop:
                chosen.extend(front)
            else:
                d = _crowding_distance(all_f[front])
                order = np.argsort(d, kind="stable")[::-1]
                chosen.extend(front[i] for i in order[:config.pop - len(chosen)])
                break
        pop_x = all_x[chosen]
        pop_f = all_f[chosen]

    return NsgaResult(x=np.array(arch_x), f=np.array(arch_f), n_evaluations=n_eval)


def optimize_lengths(ctx: DesignContext, config: NsgaConfig) -> ParetoFront:
    """NSGA-II over the segment lengths of one design-parameter cell.

    Each generation is one :func:`evaluate_designs` batch.  The archive
    NSGA-II returns is already mutually non-dominated and free of
    duplicates, and so is any subset of it.  Its points are the
    ``DesignPoint``s of NSGA-II's own evaluations, keyed by design vector.
    """
    points = {}
    flagged = {"infeasible": 0, "no_dual_resonance": 0}
    t0 = time.perf_counter()
    fallbacks, lattice_points, chain_calls = (ctx.fallbacks, ctx.lattice_points,
                                              ctx.chain_calls)

    def evaluate(xs):
        batch = evaluate_designs(ctx, xs)
        for x, p in zip(xs, batch):
            points[x.tobytes()] = p
            for flag in p.flags:
                flagged[flag] += 1
        return [p.objectives for p in batch]

    result = nsga2(evaluate, ctx.bounds, config)
    _log.debug("optimize_lengths: %d evaluations, %d infeasible, %d without dual "
               "resonance, %d full-lattice fallbacks, %d lattice points, "
               "%d chain calls, %.3f s",
               result.n_evaluations, flagged["infeasible"],
               flagged["no_dual_resonance"], ctx.fallbacks - fallbacks,
               ctx.lattice_points - lattice_points, ctx.chain_calls - chain_calls,
               time.perf_counter() - t0)
    pts = [points[x.tobytes()] for x in result.x]
    feasible = [p for p in pts if p.feasible]
    return ParetoFront(feasible if feasible else pts)


# ---------------------------------------------------------------------------
# Audio capability pipeline
# ---------------------------------------------------------------------------

@dataclass
class AudioCapability:
    """Audio response of one design: SPL at the audio critical distance."""

    f_a: np.ndarray
    spl_at_cd: np.ndarray
    d_ac: np.ndarray
    peak_spl: float
    d_ac_at_peak: float
    carrier_hz: float


def _audio_grid(f_a_grid) -> np.ndarray:
    """``f_a_grid`` as an array, if it is non-empty, finite and positive."""
    grid = np.atleast_1d(np.asarray(f_a_grid, dtype=float))
    if not (grid.size and np.all(np.isfinite(grid) & (grid > 0))):
        raise ParameterDomainError(f"audio grid {grid.tolist()} must be non-empty, finite and > 0")
    return grid


def audio_capability(design: DesignPoint, ctx: DesignContext, f_a_grid,
                     drive_voltage: float = 1.0,
                     settings: nlfield.SolverSettings | None = None) -> AudioCapability:
    """End-to-end audio prediction of an optimized design.

    ``ctx`` is the context of the design's own cell.  Per audio
    frequency: transducer centre velocities at the LSB-AM primaries
    (carrier at the upper resonance of the per-volt response, which
    ``drive_voltage`` then scales), converted to effective piston
    velocities through the equivalence ratio at each primary frequency,
    then the pair's critical point (:func:`nlfield.critical_point`).
    """
    if design.params != ctx.params:
        raise ParameterDomainError(
            f"design {design.params} does not belong to the context of "
            f"{ctx.params}")
    medium = ctx.medium
    f_a_grid = _audio_grid(f_a_grid)
    try:
        per_volt = ctx.frf(design.x)
        feats = transducer.extract_dr_features(per_volt)
    except (NoDualResonanceError, InfeasibleDesignError, ParameterDomainError) as e:
        raise type(e)(f"design {design.params}: {e}") from e

    frf = per_volt.scaled(drive_voltage)
    f_carrier = feats.f_r2  # higher resonance carries the LSB-AM carrier
    er2 = linfield.equivalence_ratio(ctx.sp_profile, medium, f_carrier,
                                     design.params.d_uc)
    v2_eff = er2.effective_velocity(frf.interp(f_carrier))

    spl = np.empty(f_a_grid.size)
    d_ac = np.empty(f_a_grid.size)
    for i, f_a in enumerate(f_a_grid):
        f_u1, f_u2 = nlfield.lsb_am_pair(f_carrier, f_a)
        er1 = linfield.equivalence_ratio(ctx.sp_profile, medium, f_u1,
                                         design.params.d_uc)
        v1_eff = er1.effective_velocity(frf.interp(f_u1))
        if abs(v1_eff) < 1e-15 or abs(v2_eff) < 1e-15:
            spl[i] = -np.inf
            d_ac[i] = design.params.d_uc
            continue
        pair = nlfield.PrimaryPair(f_u1, f_u2, ctx.plate.radius_a, v1_eff, v2_eff)
        cd = nlfield.critical_point(pair, medium, settings)
        spl[i] = cd.spl
        d_ac[i] = cd.distance

    i_pk = int(np.nanargmax(spl))
    return AudioCapability(f_a=f_a_grid, spl_at_cd=spl, d_ac=d_ac,
                           peak_spl=float(spl[i_pk]),
                           d_ac_at_peak=float(d_ac[i_pk]),
                           carrier_hz=float(f_carrier))


# ---------------------------------------------------------------------------
# Sweeps and contour tables
# ---------------------------------------------------------------------------

#: dual-resonance spacing window for design selection (Hz)
F_DIST_WINDOW = (800.0, 1250.0)

DEFAULT_SWEEP_GRID = {
    "d_uc": (0.30, 0.35, 0.40, 0.45),
    "f_u0": (40e3, 50e3, 60e3, 75e3, 90e3),
    "mode_m": (6, 8),
    "config": (StackConfig.HALF, StackConfig.FULL),
    "r_p": transducer.PIEZO_RADIUS_CATALOG,
    "r_h": transducer.HORN_RADIUS_CATALOG,
}


def select_knee(front: ParetoFront,
                f_dist_window: tuple = F_DIST_WINDOW) -> DesignPoint | None:
    """Design choice per cell: minimum F1 inside the spacing window.

    Ties break toward smaller F2.  Returns None when no feasible front
    point satisfies the window.
    """
    lo, hi = f_dist_window
    eligible = [p for p in front.points
                if p.feasible and lo < p.objectives[1] < hi]
    if not eligible:
        return None
    return min(eligible, key=lambda p: (p.objectives[0], p.objectives[1]))


@dataclass
class SweepRow:
    params: DesignParams
    x: np.ndarray | None
    objectives: tuple | None
    l_pa_c: float | None
    d_ac: float | None
    flags: tuple


@dataclass
class SweepResult:
    rows: list

    def table(self) -> list:
        """Rows as flat dictionaries (CSV-ready)."""
        out = []
        for r in self.rows:
            p = r.params
            out.append({
                "d_uc_m": p.d_uc, "f_u0_hz": p.f_u0, "mode_m": p.mode_m,
                "config": p.config.value, "r_p_m": p.r_p, "l_p_m": p.l_p,
                "r_h_m": p.r_h,
                "x_m": "" if r.x is None else ";".join(f"{v:.9e}" for v in r.x),
                "f1_ms": "" if r.objectives is None else r.objectives[0],
                "f2_hz": "" if r.objectives is None else r.objectives[1],
                # F2 is the resonance spacing f_r2 - f_r1
                "f_dist_hz": "" if r.objectives is None else r.objectives[1],
                "l_pa_c_db": "" if r.l_pa_c is None else r.l_pa_c,
                "d_ac_m": "" if r.d_ac is None else r.d_ac,
                "flags": "|".join(r.flags),
            })
        return out


def design_sweep(grid: dict | None, medium: Medium, nsga: NsgaConfig,
                 l_p: float = 8e-3, f_a_grid=(500.0, 1000.0, 2000.0),
                 drive_voltage: float = 1.0,
                 settings: nlfield.SolverSettings | None = None,
                 f_dist_window: tuple = F_DIST_WINDOW) -> SweepResult:
    """Optimize and evaluate every cell of a design-parameter grid.

    Per cell: a (small-budget) NSGA-II run, knee selection within the
    resonance-spacing window, then the audio-capability pipeline.
    Cells without an eligible design are recorded with flags rather
    than aborting the sweep.  Deterministic for a fixed seed: cell
    seeds derive from the base seed by cell index.
    """
    f_a_grid = _audio_grid(f_a_grid)
    g = dict(DEFAULT_SWEEP_GRID)
    if grid:
        g.update(grid)
    rows = []
    cells = [
        DesignParams(d_uc=d, f_u0=f, mode_m=mm, config=cfg, r_p=rp, l_p=l_p, r_h=rh)
        for d in g["d_uc"] for f in g["f_u0"] for mm in g["mode_m"]
        for cfg in (StackConfig(c) if isinstance(c, str) else c for c in g["config"])
        for rp in g["r_p"] for rh in g["r_h"]
    ]
    for i_cell, params in enumerate(cells):
        cell_cfg = replace(nsga, seed=nsga.seed + i_cell)
        try:
            ctx = DesignContext(params, medium)
            front = optimize_lengths(ctx, cell_cfg)
        except (InfeasibleDesignError, ParameterDomainError) as e:
            rows.append(SweepRow(params, None, None, None, None,
                                 ("cell_infeasible", str(type(e).__name__))))
            continue
        knee = select_knee(front, f_dist_window)
        if knee is None:
            rows.append(SweepRow(params, None, None, None, None,
                                 ("no_design_in_window",)))
            continue
        try:
            cap = audio_capability(knee, ctx, f_a_grid, drive_voltage, settings)
        except (NoDualResonanceError, ParameterDomainError) as e:
            rows.append(SweepRow(params, knee.x, knee.objectives, None, None,
                                 ("audio_failed", str(type(e).__name__))))
            continue
        rows.append(SweepRow(params, knee.x, knee.objectives,
                             cap.peak_spl, cap.d_ac_at_peak, knee.flags))
    return SweepResult(rows=rows)


@dataclass
class CdContour:
    """Audio critical-distance map over (d_uc, f_u2) for piston sources."""

    d_uc: np.ndarray
    f_u2: np.ndarray
    l_pa_c: np.ndarray   # (n_duc, n_f)
    d_ac: np.ndarray
    aperture: np.ndarray
    f_a: float


def audio_cd_contour(d_uc_grid, f_u2_grid, f_a: float, v1: float, v2: float,
                     medium: Medium,
                     settings: nlfield.SolverSettings | None = None) -> CdContour:
    """Piston reference map: critical audio SPL and distance per cell.

    The sideband f_u2 - f_a is driven at velocity ``v1``, the carrier
    f_u2 at ``v2``; the aperture of each cell follows from its
    critical-distance relation, and its critical point from
    :func:`nlfield.critical_point`, so the critical distance does not
    depend on the drive levels.
    """
    d_uc_grid = np.asarray(d_uc_grid, dtype=float)
    f_u2_grid = np.asarray(f_u2_grid, dtype=float)
    shape = (d_uc_grid.size, f_u2_grid.size)
    l_pa = np.empty(shape)
    d_ac = np.empty(shape)
    ap = np.empty(shape)
    for i, duc in enumerate(d_uc_grid):
        for j, fu2 in enumerate(f_u2_grid):
            a = radiator.aperture_for_cd(duc, fu2, medium)
            pair = nlfield.PrimaryPair(*nlfield.lsb_am_pair(fu2, f_a), a, v1, v2)
            cd = nlfield.critical_point(pair, medium, settings)
            l_pa[i, j] = cd.spl
            d_ac[i, j] = cd.distance
            ap[i, j] = a
    return CdContour(d_uc=d_uc_grid, f_u2=f_u2_grid, l_pa_c=l_pa,
                     d_ac=d_ac, aperture=ap, f_a=f_a)
