"""Quasilinear second-order (audio) field solver.

The difference-frequency field of two primary ultrasonic beams follows
from the Westervelt equation under the successive-approximation
(quasilinear) scheme: the primaries act as a distributed virtual source

    q(r') = beta * w_a^2 / (rho0 * c0^4) * p2(r') * conj(p1(r'))

integrated against the damped free-space Green's function
exp(-(alpha_a + i k_a) R) / (4 pi R).  With the exp(+iwt) convention and
outgoing primaries exp(-ikR), the carrier (f2) enters unconjugated and
the sideband (f1) conjugated; this keeps the source phase matched to
the outgoing audio wave (the resulting audio amplitude is linear in the
carrier velocity and conjugate-linear in the sideband velocity).

The primaries are rigid pistons (for a plate, its equivalence-ratio
piston).  The volume integral exploits axisymmetry: primaries are
evaluated once on an (r', z') quadrature grid whose axial steps follow
the interference beat of the two piston fields, which slows with
distance, and the sum over its cells is taken in the radial wavenumber
(Hankel) domain, the spectral quasilinear approach of Cervenka &
Bednarik (JASA 146, 2019).  The Sommerfeld identity and the ring
addition theorem give

    p(rho, z) = 1/2 Int (k_r / (i k_z)) J0(k_r rho)
                Sum_z' exp(-i k_z |z - z'|) Q(k_r, z') dk_r,

where Q(k_r, z') is the Hankel transform of the weighted source slab at
z', one matrix product for all slabs.  The z' sum is one forward and one
backward recursion over the source planes, and the k_r integral runs on
the propagating and evanescent substitutions of
:func:`linfield.pressure_grid`, with an evanescent cutoff that doubles
until it moves each point by less than ``_quad.REFINE_DB``.  Past k_a
the factor exp(-i k_z |z - z'|) decays as exp(-kappa |z - z'|), so a
block of evanescent nodes whose smallest kappa makes the grid longer
than 2 ``_WINDOW_NEPERS`` of decay transforms and sweeps only the planes
within ``_WINDOW_NEPERS`` of some observation point; a request's cost
then grows with the axial spread of its points.  The planes left out add less
than exp(-``_WINDOW_NEPERS``) of their spectra, and on every case
measured the sum keeps the bits of the sum over every plane.

Q(k_r, z') is an entire function of k_r of exponential type r_max, the
grid's radius, and past 2 k_a so is each point's spectrum S(k_r), up to
the type of the plane factors within ``_ROUNDING_NEPERS`` of decay.  So
a block of such nodes evaluates the source transform, the plane steps
and both sweeps only at the Chebyshev points that resolve that type on
its node range, and interpolates each point's spectrum to its nodes
(:func:`_quad.chebyshev_count`, :func:`_quad.barycentric_rows`); and
every block takes the transform's columns nearest the axis through
Chebyshev rows, as many as :func:`_quad.kernel_split` says pay.  Against
the evaluation at every node no point moves by more than rounding.

The k_r nodes go in fixed blocks, and the calling thread and one worker
thread evaluate the blocks; each band adds its blocks' per-point sums in
node order, so the audio field's bits do not depend on the number of
threads or cores.  The two primaries run the same way, one per thread.
"""

from __future__ import annotations

import logging
import threading
import time
import warnings
from dataclasses import dataclass, field, replace
from functools import partial

import numpy as np
from scipy import special

from ._quad import (REFINE_DB, axial_grid, barycentric_rows, chebyshev_count, chebyshev_points,
                    kernel_split, observation_points, parabolic_peak, plane_steps,
                    range_and_angles, refined, simpson_weights, wavenumber_nodes)
from .errors import (
    BoundaryPeakWarning,
    InfeasibleDesignError,
    NumericalFailureError,
    ParameterDomainError,
    TruncationTailWarning,
)
from .linfield import FieldCurve, grid_workspace_bytes, pressure_grid
from .medium import Medium, absorption_coeff
from .radiator import PistonSpec, first_local_max, piston_profile, radial_sample_count

#: the product's interference beat reaches ~2 k a r'/z^2
#: at the beam edge (r' ~ a), twice the on-axis rate, hence the factor
_BEAT_SAFETY = 2.6
#: radial extent of the volume grid in beam radii
_RADIAL_FACTOR = 4.0
#: longest axial extent of the volume grid (m)
_Z_MAX_CAP = 30.0
#: (plane, node) values per array of one block of k_r nodes in the audio sum
_BLOCK_VALUES = 1e6
#: decay in nepers past which an evanescent block of the audio sum leaves a
#: source plane out (:meth:`QuasilinearSolver._window`).  Largest relative
#: move of the reference pair's audio-bp points against the sum over every
#: plane: 2.6e-9 at 15, 2.0e-11 at 20, 2.2e-16 at 30, 0 at 40 and 50
_WINDOW_NEPERS = 40.0
#: decay in nepers past which a source plane's term in a point's spectrum is
#: under rounding (the table above); with the grid's radius it sets the
#: exponential type of the spectra that a block past 2 k_a evaluates at
#: Chebyshev points (:meth:`QuasilinearSolver._evaluated`).  Kept apart from
#: ``_WINDOW_NEPERS``, so that moving the window moves no evaluation point
_ROUNDING_NEPERS = 40.0
#: on-axis points on which :func:`critical_point` locates the audio maximum
_CP_POINTS = 33
#: the critical point's z grid starts at the carrier's z1 or at
#: ``_CP_Z_START``, whichever is nearer the source, and ends at
#: ``_CP_Z1_SPAN`` z1 or at ``_CP_Z_STOP``, whichever is farther (m)
_CP_Z_START = 0.05
_CP_Z_STOP = 0.6
_CP_Z1_SPAN = 3.0

_log = logging.getLogger(__name__)


def lsb_am_pair(f_carrier: float, f_audio: float) -> tuple:
    """Lower-sideband AM frequency placement: (f_carrier - f_audio, f_carrier)."""
    if not 0.0 < f_audio < f_carrier:
        raise ParameterDomainError(
            f"need 0 < f_audio < f_carrier, got ({f_carrier}, {f_audio})"
        )
    return (f_carrier - f_audio, f_carrier)


@dataclass(frozen=True)
class PrimaryPair:
    """Two primary beams radiated from one rigid-piston aperture.

    ``f_u1`` is the (lower) sideband, ``f_u2`` the carrier; the audio
    frequency is their difference.  One piston of radius ``radius_a``
    radiates both, at complex normal velocity ``v1`` (sideband) and ``v2``
    (carrier): a plate enters through its equivalence-ratio piston.
    """

    f_u1: float
    f_u2: float
    radius_a: float
    v1: complex
    v2: complex

    def __post_init__(self):
        if not 0.0 < self.f_u1 < self.f_u2:
            raise ParameterDomainError("primary pair needs f_u2 > f_u1 > 0")
        if not 0.0 < self.radius_a < np.inf:
            raise ParameterDomainError("primary pair needs a finite radius_a > 0")

    @property
    def f_a(self) -> float:
        return self.f_u2 - self.f_u1

    def pistons(self, medium: Medium) -> tuple:
        """(sideband, carrier) piston profiles, both with the
        :func:`radiator.radial_sample_count` of the carrier."""
        n = radial_sample_count(self.radius_a, self.f_u2, medium)
        return (piston_profile(PistonSpec(self.radius_a, self.v1), n),
                piston_profile(PistonSpec(self.radius_a, self.v2), n))


def _carrier_z1(pair: PrimaryPair, medium: Medium) -> float:
    """The carrier's z1 (:func:`radiator.first_local_max`), or 0 if there is none."""
    try:
        return first_local_max(pair.radius_a, pair.f_u2, medium)
    except InfeasibleDesignError:
        return 0.0


@dataclass(frozen=True)
class AudioCd:
    """Audio critical distance: location and level of the on-axis maximum."""

    distance: float
    spl: float

    def __post_init__(self):
        if not self.distance > 0:
            raise ParameterDomainError("audio critical distance must be positive")


@dataclass(frozen=True)
class SolverSettings:
    """Quadrature controls for the virtual-source volume integral.

    ``ppw_axial``: axial grid points per period of the primary
    product's interference beat (about lambda_u/2.6 next to the source,
    slowing as (a/z)^2 beyond the aperture scale); ``ppw_radial``: radial grid points per
    primary wavelength; ``audio_ppw``: cap on far-zone axial steps in
    audio wavelengths; ``truncation_db``: the axial domain ends where
    the primary product has fallen this far below its maximum;
    ``tail_warn_fraction``: a :class:`TruncationTailWarning` is issued when
    the estimated field of the source beyond the domain exceeds this
    fraction of the largest audio pressure a request returns.
    """

    ppw_axial: float = 12.0
    ppw_radial: float = 10.0
    audio_ppw: float = 24.0
    truncation_db: float = 60.0
    tail_warn_fraction: float = 0.01


@dataclass
class VolumeGrid:
    """Quadrature nodes and weights for the axisymmetric virtual-source volume.

    ``weight(z_i, r_j)`` is ``wz[i] * wr[j] * r[j]``; the azimuthal
    integral is left to the solver, whose Hankel transform carries it
    for every observation point.  The nodes strictly increase.
    """

    z_nodes: np.ndarray
    r_nodes: np.ndarray
    wz: np.ndarray
    wr: np.ndarray
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        for name in ("z_nodes", "r_nodes", "wz", "wr"):
            setattr(self, name, np.asarray(getattr(self, name), dtype=float))
        if np.any(self.wz < 0) or np.any(self.wr < 0):
            raise ParameterDomainError("volume grid weights must be non-negative")
        if self.z_nodes.size != self.wz.size or self.r_nodes.size != self.wr.size:
            raise ParameterDomainError("node and weight arrays must align")
        if np.any(np.diff(self.z_nodes) <= 0) or np.any(np.diff(self.r_nodes) <= 0):
            raise ParameterDomainError("volume grid nodes must strictly increase")

    @property
    def n_cells(self) -> int:
        return self.z_nodes.size * self.r_nodes.size


def build_volume_grid(pair: PrimaryPair, medium: Medium,
                      settings: SolverSettings | None = None) -> VolumeGrid:
    """Quadrature grid sized from the primary-field geometry.

    Axially: ``ppw_axial`` steps per period of the product's
    interference beat, which slows as (a/z)^2 past the aperture scale,
    capped at lambda_a/audio_ppw; the domain ends where the on-axis
    envelope of the primary product drops ``truncation_db`` below its
    maximum, and by ``_Z_MAX_CAP`` at the latest.  Radially:
    lambda_u/ppw_radial out to ``_RADIAL_FACTOR`` aperture radii, then
    stretched to cover the diffraction-spread beam at the domain end.
    """
    st = settings or SolverSettings()
    a = pair.radius_a
    c0 = medium.sound_speed
    lam_u = c0 / pair.f_u2
    lam_a = c0 / pair.f_a
    k_u = 2.0 * np.pi / lam_u
    k_a = 2.0 * np.pi / lam_a

    z1 = _carrier_z1(pair, medium)
    z_near = max(z1, 2.0 * a, 4.0 * lam_u)
    dz_near = lam_u / st.ppw_axial

    # axial extent from the closed-form on-axis piston envelope; the
    # drive velocities scale it uniformly and cancel in rel_db
    zp = np.geomspace(max(dz_near, 1e-4), _Z_MAX_CAP, 1200)
    env = np.ones_like(zp)
    for f_i in (pair.f_u1, pair.f_u2):
        # envelope of |p|: clip the oscillating sine factor to 1
        k_i = 2 * np.pi / (c0 / f_i)
        amp = np.minimum(1.0, k_i / 2.0 * (np.sqrt(zp ** 2 + a ** 2) - zp))
        env = env * amp * np.exp(-absorption_coeff(medium, f_i) * zp)
    rel_db = 20.0 * np.log10(env / np.max(env))
    above = np.flatnonzero(rel_db >= -st.truncation_db)
    z_max = min(float(zp[above[-1]]) if above.size else z_near * 4.0, _Z_MAX_CAP)
    z_max = max(z_max, z_near * 1.5)

    # march the axial nodes
    dz_cap = lam_a / st.audio_ppw
    z_list = [dz_near / 2.0]
    while z_list[-1] < z_max:
        z = z_list[-1]
        rate = k_a + _BEAT_SAFETY * k_u * min(1.0, (a / z) ** 2)
        z_list.append(z + min(2.0 * np.pi / rate / st.ppw_axial, dz_cap))
    z_nodes = np.asarray(z_list)

    # radial nodes: uniform core + stretched outer zone
    dr = lam_u / st.ppw_radial
    r_core = _RADIAL_FACTOR * a
    r_nodes = list(np.arange(dr / 2.0, r_core, dr))
    sin_bw = min(0.61 * lam_u / a, 0.5)
    r_max = _RADIAL_FACTOR * (a + z_max * sin_bw) / 2.0
    r_max = max(r_max, r_core)
    r = r_nodes[-1]
    drr = dr
    while r < r_max:
        drr *= 1.05
        r += drr
        r_nodes.append(r)
    r_nodes = np.asarray(r_nodes)

    wz = simpson_weights(z_nodes)
    wz[0] += z_nodes[0]  # strip between the source plane and the first node
    wr = simpson_weights(r_nodes)
    wr[0] += r_nodes[0]
    wr[-1] += drr / 2.0

    return VolumeGrid(
        z_nodes=z_nodes, r_nodes=r_nodes, wz=wz, wr=wr,
        meta={"lam_a": lam_a},
    )


class QuasilinearSolver:
    """Caches the primary product on a volume grid and evaluates audio points.

    The costly part (primary fields on the quadrature grid) happens once
    per pair; observation points are then evaluated in the radial
    wavenumber (Hankel) domain, one spectral solve per node set, in a
    fixed order so results do not depend on request batching.
    """

    def __init__(self, pair: PrimaryPair, medium: Medium,
                 settings: SolverSettings | None = None,
                 grid: VolumeGrid | None = None):
        self.pair = pair
        self.medium = medium
        self.settings = settings or SolverSettings()
        self.grid = grid if grid is not None else build_volume_grid(pair, medium, self.settings)

        g = self.grid
        skirt = self.settings.truncation_db / 2.0 + 10.0

        def primary(profile, f):
            t0 = time.perf_counter()
            p = pressure_grid(profile, medium, f, g.r_nodes, g.z_nodes, skirt_cut_db=skirt)
            return p, time.perf_counter() - t0

        profile_1, profile_2 = pair.pistons(medium)
        t0 = time.perf_counter()
        # independent fields: the sideband on a worker thread while this
        # thread evaluates the carrier, each by the code a serial call runs
        (p1, t1), (p2, t2) = _in_parallel(lambda: primary(profile_1, pair.f_u1),
                                          lambda: primary(profile_2, pair.f_u2))
        _log.debug("primaries: grid %d x %d (n_z x n_r), sideband %.3f s, carrier %.3f s, "
                   "pair %.3f s, workspace <= %d B per primary", g.z_nodes.size,
                   g.r_nodes.size, t1, t2, time.perf_counter() - t0,
                   grid_workspace_bytes(g.z_nodes.size, g.r_nodes.size, profile_1.radii.size))

        omega_a = 2.0 * np.pi * pair.f_a
        coef = medium.beta * omega_a ** 2 / (medium.density * medium.sound_speed ** 4)
        # phase-matched virtual source: carrier times conjugated sideband;
        # weighted in place by the volume quadrature once the tail is read
        sw = coef * np.conj(p1) * p2
        self._tail_scale = self._estimate_tail(sw[-1, :])
        sw *= g.wz[:, None] * (g.wr * g.r_nodes)[None, :]
        self._k_audio = medium.complex_wavenumber(pair.f_a)

        # the two quadrature parts of the weighted volume source stacked as
        # real rows, so one real GEMM gives the Hankel transform of every slab
        self._sw_ri = np.concatenate([sw.real, sw.imag])
        # radial wavenumbers the grid resolves: the cell nearest the axis
        # spans [0, 2 r_0]; past the sampling wavenumber 2 pi / h the
        # transform of the sampled source repeats itself.  The product of
        # two fields whose propagating spectra end at k_1 and k_2 has its
        # own end at k_1 + k_2, so up to the lower of that and the Nyquist
        # wavenumber pi / h every band still carries source structure.
        h_r = min(2.0 * g.r_nodes[0], float(np.min(np.diff(g.r_nodes), initial=np.inf)))
        self._k_sampling = 2.0 * np.pi / h_r
        self._k_resolved = min(
            medium.wavenumber(pair.f_u1) + medium.wavenumber(pair.f_u2), np.pi / h_r)

    def _estimate_tail(self, last_row: np.ndarray) -> float:
        """Crude upper estimate of the source strength beyond the domain,
        from the source on the last axial plane."""
        g = self.grid
        alpha_sum = (absorption_coeff(self.medium, self.pair.f_u1)
                     + absorption_coeff(self.medium, self.pair.f_u2))
        decay_len = 1.0 / (alpha_sum + 2.0 / g.z_nodes[-1])
        last = np.abs(last_row) @ (g.wr * g.r_nodes)
        return float(last * 2.0 * np.pi * decay_len)

    def _check_tail(self, p_ref: float, z_obs: float):
        g = self.grid
        dist = max(abs(g.z_nodes[-1] - z_obs), g.meta.get("lam_a", 0.1))
        tail = self._tail_scale / (4.0 * np.pi * dist)
        if p_ref > 0 and tail / p_ref > self.settings.tail_warn_fraction:
            warnings.warn(
                f"volume truncation tail estimated at {tail / p_ref:.1%} of the "
                f"audio pressure (budget {self.settings.tail_warn_fraction:.0%}); "
                "increase truncation_db",
                TruncationTailWarning,
                stacklevel=3,
            )

    def pressures(self, rho, z) -> np.ndarray:
        """Audio pressure at (rho, z) observation arrays of one shape.

        Each point's value depends only on the grid and on its own
        (rho, z), never on the other points of the request, nor on the
        threads or cores that evaluated it.
        """
        rho, z = observation_points(rho, z)
        g = self.grid
        rho_f, z_f = rho.ravel(), z.ravel()
        out = np.zeros(rho_f.size, dtype=complex)
        # node sets are sized from the grid and each point's own extent
        reach = np.maximum(rho_f, g.r_nodes[-1]) + g.r_nodes[-1]
        extent = np.hypot(np.maximum(z_f, g.z_nodes[-1]), reach)
        n_prop = np.maximum(24, np.ceil(self._k_audio.real * extent / 12.0)).astype(int)
        nodes, cutoff, bands, blocks, values, evaluated = 0, 0.0, 0, 0, 0, 0
        t0 = time.perf_counter()
        for key in sorted(set(zip(n_prop.tolist(), reach.tolist()))):
            n_k, k_top, n_bands, n_blocks, n_values, n_e = self._spectral(
                np.flatnonzero((n_prop == key[0]) & (reach == key[1])), rho_f, z_f, out, *key)
            nodes, cutoff = nodes + n_k, max(cutoff, k_top)
            bands, blocks, values = bands + n_bands, blocks + n_blocks, values + n_values
            evaluated += n_e
        _log.debug("audio field: grid %d x %d (n_z x n_r), %d k_r nodes in %d bands "
                   "and %d blocks, %d of %d plane-node values, %d wavenumbers evaluated "
                   "for %d nodes, cutoff %.6g 1/m for %d points, sum %.3f s",
                   g.z_nodes.size, g.r_nodes.size, nodes, bands, blocks, values,
                   nodes * g.z_nodes.size, evaluated, nodes, cutoff, out.size,
                   time.perf_counter() - t0)
        out = out.reshape(rho.shape)
        if out.size:
            i_max = int(np.argmax(np.abs(out)))
            self._check_tail(float(np.abs(out.flat[i_max])), float(z.flat[i_max]))
        return out

    def _spectral(self, idx, rho, z, out, n_prop: int, reach: float) -> tuple:
        """Hankel-domain sum for the points ``idx`` that share one node set.

        The propagating branch comes first.  The evanescent cutoff then
        doubles: band m adds k_r in [2^(m-1) k_a, 2^m k_a] on 16-point
        panels of at most 20 rad of J0(k_r rho) J0(k_r r') phase.  Once the
        cutoff covers the source structure the grid holds (the virtual
        source's own spectrum, k_1 + k_2, or the radial Nyquist wavenumber
        if lower), a point retires at the first band that moves it by at
        most ``REFINE_DB`` (:func:`_quad.refined`); a point still moving
        when the next band would pass the radial grid's sampling
        wavenumber raises :class:`NumericalFailureError`.  No point retires
        before that first resolved band, so the bands up to it are
        evaluated together, and each later band after the check of the one
        before.  Adds into ``out[idx]``, band by band; returns the node
        count, the highest cutoff reached, the band and block counts, the
        plane-node values the blocks summed and the wavenumbers at which
        they evaluated their spectra, all read from the blocks' plans.
        """
        k_a = self._k_audio.real
        todo, points = idx, None
        n_k, k_top, m, n_blocks, n_values, n_e = 0, 0.0, 0, 0, 0, 0
        while todo.size:
            bands = []
            while not bands or k_top < self._k_resolved:
                if m == 0:
                    bands.append(wavenumber_nodes(k_a, n_prop))
                else:
                    k_top = k_a * 2.0 ** m
                    if k_top > self._k_sampling:
                        i = todo[0]
                        raise NumericalFailureError(
                            f"audio field at (rho={rho[i]:.6g} m, z={z[i]:.6g} m) still "
                            f"moves by more than {REFINE_DB} dB at k_r = {k_top / 2.0:.6g} "
                            f"1/m, the last cutoff below the grid's radial sampling "
                            f"wavenumber {self._k_sampling:.6g} 1/m ({todo.size} points "
                            f"left)")
                    u_span = (float(np.arccosh(2.0 ** (m - 1))), float(np.arccosh(2.0 ** m)))
                    n_pan = int(np.ceil(k_top / 2.0 * reach / 20.0))
                    bands.append(wavenumber_nodes(k_a, n_pan, u_span))
                m += 1
            if points is None:
                points = _PlanePoints.locate(self.grid.z_nodes, rho[todo], z[todo])
            sums, plan = self._band(bands, points)
            for band in sums:
                out[todo] += band
            n_k += sum(kr.size for kr, _ in bands)
            n_blocks += len(plan)
            for _, k_b, _, _, k_e, n_p in plan:
                n_values, n_e = n_values + n_p * k_b.size, n_e + k_e.size
            left = ~refined(sums[-1], out[todo])
            if not left.all():
                todo, points = todo[left], None
        return n_k, k_top, m, n_blocks, n_values, n_e

    def _band(self, bands, points) -> tuple:
        """Contributions of the node sets ``bands`` at ``points``.

        Each band is a pair (k_r nodes, weights) and gives
        p = 1/2 Int (k_r / (i k_z)) J0(k_r rho) S(k_r, z) dk_r with
        S = Sum_z' exp(-i k_z |z - z'|) Q(k_r, z') and Q = sw @ J0(k_r r'):
        a forward sweep over the source planes carries the planes below
        the point, a backward sweep those above, each multiplying its
        accumulator by exp(-i k_z dz) per step.  A plane exactly at z is
        the forward sweep's, with no propagation factor.

        Nodes go in fixed blocks of ``_BLOCK_VALUES`` / n_z per band
        (:meth:`_plan`, :meth:`_block`); the calling thread and one worker
        evaluate them, most work (kept planes times evaluated wavenumbers)
        first (:func:`_in_turn`), and each band sums its blocks' row sums in
        node order.  So a point's value depends neither on the other points
        nor on which thread or core evaluated a block.  Returns the band
        sums and the plan.
        """
        plan = self._plan(bands, points)
        # most work first, so the two threads run out of blocks close together
        order = sorted(range(len(plan)), key=lambda i: -plan[i][5] * plan[i][4].size)
        rows = dict(zip(order, _in_turn(
            [partial(self._block, *plan[i][1:5], points) for i in order])))
        sums = [np.zeros(points.rho.size, dtype=complex) for _ in bands]
        for i, (b, *_) in enumerate(plan):
            sums[b] += rows[i]
        return sums, plan

    def _plan(self, bands, points) -> list:
        """The blocks of k_r nodes of the node sets ``bands``, in node order.

        One (band index, nodes, weights, planes, wavenumbers, plane count)
        tuple per block of ``_BLOCK_VALUES`` / n_z nodes: the source planes
        :meth:`_window` keeps at ``points``, the wavenumbers at which
        :meth:`_evaluated` evaluates the block's spectra, and how many
        planes the block sums.
        """
        n_z = self.grid.z_nodes.size
        block = max(1, int(_BLOCK_VALUES / n_z))
        plan = []
        for b, (kr, jac) in enumerate(bands):
            for s in range(0, kr.size, block):
                k_b = kr[s:s + block]
                kappa = self._kappa_min(k_b)
                planes = self._window(kappa, points)
                plan.append((b, k_b, jac[s:s + block], planes, self._evaluated(k_b, kappa),
                             n_z if planes is None else planes.size))
        return plan

    def _kappa_min(self, k_b) -> float:
        """Smallest decay rate kappa = Re sqrt(k_r^2 - k_c^2) over the nodes ``k_b``."""
        kc = self._k_audio
        return float(np.min(np.sqrt(k_b.astype(complex) ** 2 - kc * kc).real))

    def _window(self, kappa: float, points):
        """The source planes a block of k_r nodes whose smallest decay rate
        is ``kappa`` (:meth:`_kappa_min`) sums at ``points``, sorted, or
        None for all of them.

        Past k_a a plane's term decays as exp(-kappa |z - z'|) or faster.
        Where the grid spans more than 2 ``_WINDOW_NEPERS`` / kappa, the
        block keeps the planes within ``_WINDOW_NEPERS`` / kappa of some
        point and each point's neighbour planes (``points.plane_dist``);
        every other plane would add less than exp(-``_WINDOW_NEPERS``) of
        its own spectrum to any point.  Blocks with kappa near zero, those
        of the propagating band and of the first evanescent band, keep
        every plane.
        """
        zn = self.grid.z_nodes
        if not kappa * (zn[-1] - zn[0]) > 2.0 * _WINDOW_NEPERS:
            return None
        planes = np.flatnonzero(points.plane_dist <= _WINDOW_NEPERS / kappa)
        return planes if planes.size < zn.size else None

    def _evaluated(self, k_b, kappa: float) -> np.ndarray:
        """The wavenumbers at which the block of k_r nodes ``k_b``, with
        smallest decay rate ``kappa`` (:meth:`_kappa_min`), evaluates its
        spectra: Chebyshev points for a block past 2 k_a, else ``k_b``.

        A point's spectrum S(k_r) = Sum_z' exp(-kappa |z - z'|) Q(k_r, z')
        sums the source transform, entire in k_r of exponential type r_max
        (the grid's radius), times plane factors that behave as functions
        of type |z - z'|, of which only those within ``_ROUNDING_NEPERS`` /
        kappa_min of decay add above rounding.  Past 2 k_a the branch point
        k_a of kappa lies outside the Bernstein ellipse of parameter 2 +
        sqrt(3) = 3.73 about the block, which lies inside one band [2^(m-1)
        k_a, 2^m k_a], m >= 2.  So S takes n_c = :func:`_quad.chebyshev_count`
        (span, r_max + ``_ROUNDING_NEPERS`` / kappa_min) Chebyshev points on
        the block's node range.  A block with no fewer nodes than that keeps
        its nodes, as do the propagating band and band 1.
        """
        if not k_b[0] >= 2.0 * self._k_audio.real:
            return k_b
        tau = self.grid.r_nodes[-1] + _ROUNDING_NEPERS / kappa
        n_c = chebyshev_count(float(k_b[-1] - k_b[0]), tau)
        return chebyshev_points(n_c, float(k_b[-1]), float(k_b[0])) if n_c < k_b.size else k_b

    def _transform(self, sw_ri, k, k_lo: float, k_hi: float) -> np.ndarray:
        """Q(k_r, z') of the source rows ``sw_ri`` at the wavenumbers ``k``
        in [``k_lo``, ``k_hi``], real parts over imaginary parts.

        Q = sw @ J0(r' k_r), J0(r' k_r) for fixed r' entire in k_r of type
        r': the columns nearest the axis, as many as
        :func:`_quad.kernel_split` says pay on the grid's n_z planes, take
        J0 through n_c Chebyshev points k_c on [k_lo, k_hi] and their
        barycentric rows L, and the others stay direct, all in one real
        product [sw[:, :m] @ J0(r'_core k_c) | sw[:, m:]] @ [L; J0(r'_rest
        k_r)].  The split depends only on ``k`` and the grid, never on the
        rows the window keeps.
        """
        r = self.grid.r_nodes
        m, n_c = kernel_split(k.size, k_hi - k_lo, r, [(0, self.grid.z_nodes.size, r.size)])
        right = np.empty((n_c + r.size - m, k.size))
        np.multiply.outer(r[m:], k, out=right[n_c:])
        special.j0(right[n_c:], out=right[n_c:])
        if not m:
            return sw_ri @ right
        k_c = chebyshev_points(n_c, k_hi, k_lo)
        barycentric_rows(k_c, k, right[:n_c])
        left = np.empty((sw_ri.shape[0], right.shape[0]))
        np.matmul(sw_ri[:, :m], special.j0(np.outer(r[:m], k_c)), out=left[:, :n_c])
        left[:, n_c:] = sw_ri[:, m:]
        return left @ right

    def _block(self, k_b, jac_b, planes, k_e, points) -> np.ndarray:
        """Per-point sums of the block of k_r nodes ``k_b`` (weights ``jac_b``).

        Sums the source ``planes`` of :meth:`_window`: the source transform
        (:meth:`_transform`) of each kept plane, and sweeps that restart
        from zero at every run of consecutive kept planes, all at the
        wavenumbers ``k_e`` of :meth:`_evaluated`.  Where those are Chebyshev
        points, each point's spectrum is interpolated to the nodes through
        their barycentric rows, one real product per point, so that its
        bits do not depend on the other points.  The node factors k_r /
        (i k_z) jac J0(k_r rho) and the node sum follow at the nodes.
        Reads only what the solver fixes at its build, so any thread may
        evaluate a block.
        """
        g = self.grid
        kc = self._k_audio
        kz = -1j * np.sqrt(k_e.astype(complex) ** 2 - kc * kc)
        sw_ri = (self._sw_ri if planes is None
                 else self._sw_ri[np.concatenate([planes, g.z_nodes.size + planes])])
        # Q's real parts in the first half of the rows, its imaginary parts below
        q2 = self._transform(sw_ri, k_e, float(k_b[0]), float(k_b[-1]))
        del sw_ri
        n_p = q2.shape[0] // 2
        step, gap_row = plane_steps(g.z_nodes, kz, planes)
        keep_lo, keep_hi = points.rows(planes)
        fwd = _sweep(q2, step, gap_row, keep_lo, range(keep_lo[-1] + 1))
        bwd = _sweep(q2, step, gap_row, keep_hi, range(n_p - 1, keep_hi[0] - 1, -1))
        spec = (fwd[points.row_lo] * np.exp(-1j * np.outer(points.dz_lo, kz))
                + bwd[points.row_hi] * np.exp(-1j * np.outer(points.dz_hi, kz)))
        del q2, fwd, bwd, step
        if k_e is not k_b:
            rows = barycentric_rows(k_e, k_b, np.empty((k_e.size, k_b.size)))
            parts = np.matmul(np.stack([spec.real, spec.imag], axis=1), rows)
            spec = parts[:, 0] + 1j * parts[:, 1]
            kz = -1j * np.sqrt(k_b.astype(complex) ** 2 - kc * kc)
        spec *= 0.5 * k_b / (1j * kz) * jac_b * special.j0(np.outer(points.rho, k_b))
        return spec.sum(axis=1)

    def propagation_curve(self, z_grid) -> FieldCurve:
        z = axial_grid(z_grid)
        p = self.pressures(np.zeros_like(z), z)
        return FieldCurve(z, p, self.pair.f_a, kind="audio_propagation",
                          meta={"f_u1": self.pair.f_u1, "f_u2": self.pair.f_u2})

    def beam_pattern(self, r: float, theta_grid) -> FieldCurve:
        theta = range_and_angles(r, theta_grid)
        th = np.deg2rad(theta)
        p = self.pressures(r * np.abs(np.sin(th)), r * np.cos(th))
        return FieldCurve(theta, p, self.pair.f_a, kind="audio_beam",
                          meta={"range_m": r, "f_u1": self.pair.f_u1,
                                "f_u2": self.pair.f_u2})


def _in_parallel(first, second) -> tuple:
    """``(first(), second())``, ``first`` on a worker thread meanwhile.

    The calling thread runs ``second`` and then waits for the worker.  An
    exception raised by either reaches the caller as it was raised (the
    calling thread's first); no thread outlives the call.
    """
    result = {}

    def work():
        try:
            result["value"] = first()
        except BaseException as exc:  # handed to the calling thread
            result["error"] = exc

    worker = threading.Thread(target=work, name="sppal-worker")
    worker.start()
    try:
        other = second()
    finally:
        worker.join()
    if "error" in result:
        raise result["error"]
    return result["value"], other


def _in_turn(tasks) -> list:
    """Results of the callables ``tasks``, in order, evaluated on two threads.

    The calling thread and one worker (:func:`_in_parallel`) each take the
    next task in list order until none is left, so at most two run at
    once.  Once a task has raised, neither thread starts another, and the
    exception reaches the caller as it was raised; no thread outlives the
    call.
    """
    results, lock, failed = [None] * len(tasks), threading.Lock(), []
    queue = iter(enumerate(tasks))

    def drain():
        while not failed:
            with lock:
                i, task = next(queue, (None, None))
            if task is None:
                return
            try:
                results[i] = task()
            except BaseException:
                failed.append(i)
                raise

    _in_parallel(drain, drain)
    return results


@dataclass(frozen=True)
class _PlanePoints:
    """Where observation points sit among the source planes.

    ``keep_lo`` (``keep_hi``) holds, sorted, the last plane at or below
    (the first plane above) the points, -1 (n_z) where there is none;
    ``row_lo`` (``row_hi``) is each point's row among them and ``dz_lo``
    (``dz_hi``) its path from that plane, zero without a plane or on it.
    ``plane_dist`` holds each plane's axial distance to the nearest point,
    zero for the planes of ``keep_lo`` and ``keep_hi``, so that every
    window keeps them.
    """

    rho: np.ndarray
    keep_lo: np.ndarray
    row_lo: np.ndarray
    dz_lo: np.ndarray
    keep_hi: np.ndarray
    row_hi: np.ndarray
    dz_hi: np.ndarray
    plane_dist: np.ndarray

    @classmethod
    def locate(cls, zn, rho, z) -> "_PlanePoints":
        n_z = zn.size
        hi = np.searchsorted(zn, z, side="right")      # first plane above
        lo = hi - 1                                    # last plane at or below
        keep_lo, row_lo = np.unique(lo, return_inverse=True)
        keep_hi, row_hi = np.unique(hi, return_inverse=True)
        # a side without planes gets a zero accumulator and a zero path
        dz_lo = np.where(lo >= 0, z - zn[np.maximum(lo, 0)], 0.0)
        dz_hi = np.where(hi < n_z, zn[np.minimum(hi, n_z - 1)] - z, 0.0)
        zs = np.unique(z)
        i = np.searchsorted(zs, zn)
        plane_dist = np.minimum(np.abs(zn - zs[np.maximum(i - 1, 0)]),
                                np.abs(zs[np.minimum(i, zs.size - 1)] - zn))
        plane_dist[keep_lo[keep_lo >= 0]] = 0.0
        plane_dist[keep_hi[keep_hi < n_z]] = 0.0
        return cls(rho, keep_lo, row_lo, dz_lo, keep_hi, row_hi, dz_hi, plane_dist)

    def rows(self, planes) -> tuple:
        """``keep_lo`` and ``keep_hi`` as rows among the sorted plane indices
        ``planes`` (as they are for None, all planes); a side without a
        plane is row -1 or ``planes.size``."""
        if planes is None:
            return self.keep_lo, self.keep_hi
        keep_lo = np.where(self.keep_lo < 0, -1, np.searchsorted(planes, self.keep_lo))
        return keep_lo, np.searchsorted(planes, self.keep_hi)


def _sweep(q2, step, gap_row, keep, planes) -> np.ndarray:
    """One recursion over the source planes of a Hankel-domain sum.

    Visits the rows ``planes`` of the n planes summed, in order,
    multiplying the accumulator by row ``gap_row[i]`` of ``step`` (the
    step from plane i to plane i + 1: exp(-i k_z dz), or zero where the
    window of :meth:`QuasilinearSolver._window` leaves planes out between
    them, so the sweep restarts there) before adding plane j's spectrum,
    whose real and imaginary parts are rows j and n + j of ``q2``.  Row r
    of the result is the accumulator after plane ``keep[r]``; entries of
    ``keep`` not visited (-1 and n: no plane on that side) stay zero.  A
    sweep may stop at the last plane ``keep`` needs: the accumulator after
    a plane depends only on the planes visited before it.
    """
    n = q2.shape[0] // 2
    out = np.zeros((keep.size, q2.shape[1]), dtype=complex)
    rows = {int(j): r for r, j in enumerate(keep)}
    acc = np.zeros(q2.shape[1], dtype=complex)
    acc_re, acc_im = acc.real, acc.imag
    prev = None
    for j in planes:
        if prev is not None:
            acc *= step[gap_row[min(j, prev)]]
        acc_re += q2[j]
        acc_im += q2[n + j]
        if j in rows:
            out[rows[j]] = acc
        prev = j
    return out


def audio_propagation_curve(pair: PrimaryPair, medium: Medium, z_grid,
                            settings: SolverSettings | None = None) -> FieldCurve:
    """On-axis audio pressure over an axial grid."""
    return QuasilinearSolver(pair, medium, settings).propagation_curve(z_grid)


def audio_beam_pattern(pair: PrimaryPair, medium: Medium, r: float, theta_grid,
                       settings: SolverSettings | None = None) -> FieldCurve:
    """Off-axis audio pressure at fixed range over polar angles."""
    return QuasilinearSolver(pair, medium, settings).beam_pattern(r, theta_grid)


def find_audio_cd(curve: FieldCurve) -> AudioCd:
    """Location and SPL of the curve maximum, with parabolic refinement.

    Ties break toward smaller z; a maximum on the grid boundary raises a
    :class:`BoundaryPeakWarning` (the grid was too short) and returns
    the boundary sample.
    """
    spl = curve.spl
    i = int(np.argmax(spl))
    z = curve.abscissa
    if i == 0 or i == spl.size - 1:
        warnings.warn(
            "curve maximum lies on the grid boundary; extend the z grid",
            BoundaryPeakWarning,
            stacklevel=2,
        )
        return AudioCd(distance=float(z[i]), spl=float(spl[i]))
    z_pk, s_pk = parabolic_peak(z, spl, i)
    return AudioCd(distance=z_pk, spl=s_pk)


def _critical_z_grid(pair: PrimaryPair, medium: Medium) -> np.ndarray:
    """The on-axis grid of :func:`critical_point`, from the carrier's z1 alone
    (the default start where the carrier has no on-axis maximum)."""
    z1 = _carrier_z1(pair, medium)
    start = min(_CP_Z_START, z1) if z1 > 0 else _CP_Z_START
    return np.geomspace(start, max(_CP_Z1_SPAN * z1, _CP_Z_STOP), _CP_POINTS)


def critical_point(pair: PrimaryPair, medium: Medium,
                   settings: SolverSettings | None = None) -> AudioCd:
    """The pair's audio critical point: location and level of its on-axis maximum.

    The pair is solved once at unit drive on its own volume grid, and the
    maximum located (:func:`find_audio_cd`) on ``_CP_POINTS`` geometric
    points from min(``_CP_Z_START``, z1) to max(``_CP_Z1_SPAN`` z1,
    ``_CP_Z_STOP``), z1 the carrier's.  The audio amplitude is |v1 v2|
    times that of the unit drive, so the level is then raised by
    20 log10|v1 v2| dB and the distance does not depend on the drive
    (-inf dB at zero drive).
    """
    unit = QuasilinearSolver(replace(pair, v1=1.0, v2=1.0), medium, settings)
    cd = find_audio_cd(unit.propagation_curve(_critical_z_grid(pair, medium)))
    with np.errstate(divide="ignore"):
        drive_db = 20.0 * np.log10(abs(pair.v1 * pair.v2))
    return AudioCd(distance=cd.distance, spl=float(cd.spl + drive_db))


def berktay_farfield(pair: PrimaryPair, medium: Medium, z: float) -> float:
    """Far-field audio amplitude of a collimated two-tone beam.

    Standard envelope-demodulation result for a piston-like source:
    |p_a| = beta * w_a^2 * a^2 * P1 * P2 / (4 rho0 c0^4 z alpha_T) with
    alpha_T the summed primary attenuation; audio absorption over the
    path is applied on top.  Scales with f_a^2 and with the product of
    the primary amplitudes; used as an independent slope and scale
    cross-check of the volume solver.
    """
    a = pair.radius_a
    c0 = medium.sound_speed
    z1 = _carrier_z1(pair, medium)
    if z <= 5.0 * z1:
        raise ParameterDomainError(
            f"Berktay far-field form needs z well beyond the collimation "
            f"zone (z > {5.0 * z1:.3g} m)"
        )
    rho_c = medium.density * c0
    p1 = rho_c * abs(pair.v1)
    p2 = rho_c * abs(pair.v2)
    alpha_t = (absorption_coeff(medium, pair.f_u1)
               + absorption_coeff(medium, pair.f_u2))
    alpha_t = max(alpha_t, 1e-12)
    omega_a = 2.0 * np.pi * pair.f_a
    mag = (medium.beta * omega_a ** 2 * a ** 2 * p1 * p2
           / (4.0 * medium.density * c0 ** 4 * z * alpha_t))
    return float(mag * np.exp(-absorption_coeff(medium, pair.f_a) * z))
