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
until it moves each point by less than ``_quad.REFINE_DB``.  Every
observation point, on or off axis, costs the same few matrix products.

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
from dataclasses import dataclass, field
from functools import partial

import numpy as np
from scipy import special

from ._quad import (REFINE_DB, parabolic_peak, plane_steps, refined, simpson_weights,
                    wavenumber_nodes)
from .errors import (
    BoundaryPeakWarning,
    NumericalFailureError,
    ParameterDomainError,
    TruncationTailWarning,
)
from .linfield import FieldCurve, grid_workspace_bytes, pressure_grid
from .medium import Medium, absorption_coeff
from .radiator import SourceKind, SourceProfile

#: the product's interference beat reaches ~2 k a r'/z^2
#: at the beam edge (r' ~ a), twice the on-axis rate, hence the factor
_BEAT_SAFETY = 2.6
#: radial extent of the volume grid in beam radii
_RADIAL_FACTOR = 4.0
#: (plane, node) values per array of one block of k_r nodes in the audio sum
_BLOCK_VALUES = 1e6

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
    frequency is their difference.  Both profiles must be pistons: a
    plate enters through its equivalence-ratio piston.
    """

    f_u1: float
    f_u2: float
    profile_1: SourceProfile
    profile_2: SourceProfile

    def __post_init__(self):
        if not 0.0 < self.f_u1 < self.f_u2:
            raise ParameterDomainError("primary pair needs f_u2 > f_u1 > 0")
        for prof in (self.profile_1, self.profile_2):
            if prof.kind is not SourceKind.PISTON:
                raise ParameterDomainError(
                    f"primary profiles must be pistons, got {prof.kind.value}")
        if not np.isclose(self.profile_1.radius_a, self.profile_2.radius_a):
            raise ParameterDomainError("primary profiles must share one aperture")

    @property
    def f_a(self) -> float:
        return self.f_u2 - self.f_u1

    @property
    def radius_a(self) -> float:
        return self.profile_1.radius_a


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
    the primary product has fallen this far below its maximum.
    """

    ppw_axial: float = 12.0
    ppw_radial: float = 10.0
    audio_ppw: float = 24.0
    truncation_db: float = 60.0
    z_max_cap: float = 30.0
    tail_warn_fraction: float = 0.01


@dataclass
class VolumeGrid:
    """Quadrature nodes and weights for the axisymmetric virtual-source volume.

    ``weight(z_i, r_j)`` is ``wz[i] * wr[j] * r[j]``; the azimuthal
    integral is left to the solver, whose Hankel transform carries it
    for every observation point.
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
    maximum.  Radially: lambda_u/ppw_radial out to ``_RADIAL_FACTOR``
    aperture radii, then stretched to cover the diffraction-spread beam
    at the domain end.
    """
    st = settings or SolverSettings()
    a = pair.radius_a
    c0 = medium.sound_speed
    lam_u = c0 / pair.f_u2
    lam_a = c0 / pair.f_a
    k_u = 2.0 * np.pi / lam_u
    k_a = 2.0 * np.pi / lam_a

    z1 = a * a / lam_u - lam_u / 4.0 if a > lam_u / 2.0 else 0.0
    z_near = max(z1, 2.0 * a, 4.0 * lam_u)
    dz_near = lam_u / st.ppw_axial

    # axial extent from the closed-form on-axis piston envelope; the
    # drive velocities scale it uniformly and cancel in rel_db
    zp = np.geomspace(max(dz_near, 1e-4), st.z_max_cap, 1200)
    env = np.ones_like(zp)
    for f_i in (pair.f_u1, pair.f_u2):
        # envelope of |p|: clip the oscillating sine factor to 1
        k_i = 2 * np.pi / (c0 / f_i)
        amp = np.minimum(1.0, k_i / 2.0 * (np.sqrt(zp ** 2 + a ** 2) - zp))
        env = env * amp * np.exp(-absorption_coeff(medium, f_i) * zp)
    rel_db = 20.0 * np.log10(env / np.max(env))
    above = np.flatnonzero(rel_db >= -st.truncation_db)
    z_max = min(float(zp[above[-1]]) if above.size else z_near * 4.0, st.z_max_cap)
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
        meta={"z1": z1, "z_max": z_max, "lam_u": lam_u, "lam_a": lam_a},
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
                 grid: VolumeGrid | None = None,
                 primary_carrier: np.ndarray | None = None):
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

        t0 = time.perf_counter()
        if primary_carrier is None:
            # independent fields: the sideband on a worker thread while this
            # thread evaluates the carrier, each by the code a serial call runs
            (p1, t1), (p2, t2) = _in_parallel(lambda: primary(pair.profile_1, pair.f_u1),
                                              lambda: primary(pair.profile_2, pair.f_u2))
            carrier = f"{t2:.3f} s"
        else:
            p1, t1 = primary(pair.profile_1, pair.f_u1)
            p2, carrier = primary_carrier, "given"
        _log.debug("primaries: grid %d x %d (n_z x n_r), sideband %.3f s, carrier %s, "
                   "pair %.3f s, workspace <= %d B per primary", g.z_nodes.size,
                   g.r_nodes.size, t1, carrier, time.perf_counter() - t0,
                   grid_workspace_bytes(g.z_nodes.size, g.r_nodes.size,
                                        pair.profile_1.radii.size))
        self.primary_carrier = p2

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
        rho = np.atleast_1d(np.asarray(rho, dtype=float))
        z = np.atleast_1d(np.asarray(z, dtype=float))
        if rho.shape != z.shape:
            raise ParameterDomainError(
                f"rho and z must have one shape, got {rho.shape} and {z.shape}")
        if not (np.all(np.isfinite(rho)) and np.all(np.isfinite(z))):
            raise ParameterDomainError("observation points must be finite")
        if np.any(rho < 0):
            raise ParameterDomainError("observation points need rho >= 0")
        if np.any(z < 0):
            raise ParameterDomainError("observation points need z >= 0")
        g = self.grid
        rho_f, z_f = rho.ravel(), z.ravel()
        out = np.zeros(rho_f.size, dtype=complex)
        # node sets are sized from the grid and each point's own extent
        reach = np.maximum(rho_f, g.r_nodes[-1]) + g.r_nodes[-1]
        extent = np.hypot(np.maximum(z_f, g.z_nodes[-1]), reach)
        n_prop = np.maximum(24, np.ceil(self._k_audio.real * extent / 12.0)).astype(int)
        nodes, cutoff, bands, blocks = 0, 0.0, 0, 0
        t0 = time.perf_counter()
        for key in sorted(set(zip(n_prop.tolist(), reach.tolist()))):
            idx = np.flatnonzero((n_prop == key[0]) & (reach == key[1]))
            n_k, k_top, n_bands, n_blocks = self._spectral(idx, rho_f, z_f, out, *key)
            nodes, cutoff = nodes + n_k, max(cutoff, k_top)
            bands, blocks = bands + n_bands, blocks + n_blocks
        _log.debug("audio field: grid %d x %d (n_z x n_r), %d k_r nodes in %d bands "
                   "and %d blocks, cutoff %.6g 1/m for %d points, sum %.3f s",
                   g.z_nodes.size, g.r_nodes.size, nodes, bands, blocks, cutoff,
                   out.size, time.perf_counter() - t0)
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
        count evaluated, the highest cutoff reached, and the band and block
        counts.
        """
        k_a = self._k_audio.real
        todo, points = idx, None
        n_k, k_top, m, n_blocks = 0, 0.0, 0, 0
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
            sums, blocks = self._band(bands, points)
            for band in sums:
                out[todo] += band
            n_k += sum(kr.size for kr, _ in bands)
            n_blocks += blocks
            left = ~refined(sums[-1], out[todo])
            if not left.all():
                todo, points = todo[left], None
        return n_k, k_top, m, n_blocks

    def _band(self, bands, points) -> tuple:
        """Contributions of the node sets ``bands`` at ``points``.

        Each band is a pair (k_r nodes, weights) and gives
        p = 1/2 Int (k_r / (i k_z)) J0(k_r rho) S(k_r, z) dk_r with
        S = Sum_z' exp(-i k_z |z - z'|) Q(k_r, z') and Q = sw @ J0(k_r r'):
        a forward sweep over the source planes carries the planes below
        the point, a backward sweep those above, each multiplying its
        accumulator by exp(-i k_z dz) per step.  A plane exactly at z is
        split half to each sweep, i.e. counted once with no propagation
        factor.

        Nodes go in fixed blocks of ``_BLOCK_VALUES`` / n_z per band
        (:meth:`_block`); the calling thread and one worker evaluate them,
        largest first (:func:`_in_turn`), and each band sums its blocks'
        row sums in node order.  So a point's value depends neither on the
        other points nor on which thread or core evaluated a block.
        Returns the band sums and the block count.
        """
        block = max(1, int(_BLOCK_VALUES / self.grid.z_nodes.size))
        spans = [(b, kr[s:s + block], jac[s:s + block])
                 for b, (kr, jac) in enumerate(bands) for s in range(0, kr.size, block)]
        # largest first, so the two threads run out of blocks close together
        order = sorted(range(len(spans)), key=lambda i: -spans[i][1].size)
        rows = dict(zip(order, _in_turn(
            [partial(self._block, *spans[i][1:], points) for i in order])))
        sums = [np.zeros(points.rho.size, dtype=complex) for _ in bands]
        for i, (b, _, _) in enumerate(spans):
            sums[b] += rows[i]
        return sums, len(spans)

    def _block(self, k_b, jac_b, points) -> np.ndarray:
        """Per-point sums of the block of k_r nodes ``k_b`` (weights ``jac_b``).

        Reads only what the solver fixes at its build, so any thread may
        evaluate a block.
        """
        g = self.grid
        zn = g.z_nodes
        n_z = zn.size
        kc = self._k_audio
        kz = -1j * np.sqrt(k_b.astype(complex) ** 2 - kc * kc)
        # Q's real parts in rows 0..n_z-1, its imaginary parts below
        jr = np.outer(g.r_nodes, k_b)
        q2 = self._sw_ri @ special.j0(jr, out=jr)
        del jr
        step, gap_row = plane_steps(zn, kz)
        keep_lo, keep_hi = points.keep_lo, points.keep_hi
        fwd = _sweep(q2, step, gap_row, keep_lo, range(keep_lo[-1] + 1))
        bwd = _sweep(q2, step, gap_row, keep_hi, range(n_z - 1, keep_hi[0] - 1, -1))
        spec = (fwd[points.row_lo] * np.exp(-1j * np.outer(points.dz_lo, kz))
                + bwd[points.row_hi] * np.exp(-1j * np.outer(points.dz_hi, kz)))
        q_on = np.empty((points.on.size, k_b.size), dtype=complex)
        q_on.real, q_on.imag = q2[points.on_plane], q2[n_z + points.on_plane]
        spec[points.on] += q_on
        spec *= 0.5 * k_b / (1j * kz) * jac_b * special.j0(np.outer(points.rho, k_b))
        return spec.sum(axis=1)

    def propagation_curve(self, z_grid) -> FieldCurve:
        z = np.asarray(z_grid, dtype=float)
        if z.size == 0:
            raise ParameterDomainError("z grid must be non-empty")
        if np.any(z <= 0) or (z.size > 1 and np.any(np.diff(z) <= 0)):
            raise ParameterDomainError("z grid must be positive and strictly increasing")
        p = self.pressures(np.zeros_like(z), z)
        return FieldCurve(z, p, self.pair.f_a, kind="audio_propagation",
                          meta={"f_u1": self.pair.f_u1, "f_u2": self.pair.f_u2})

    def beam_pattern(self, r: float, theta_grid) -> FieldCurve:
        if r <= 0:
            raise ParameterDomainError("range r must be positive")
        theta = np.asarray(theta_grid, dtype=float)
        if theta.size == 0 or np.any(np.abs(theta) > 90.0):
            raise ParameterDomainError("theta grid must be within [-90, 90] deg")
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

    ``keep_lo`` (``keep_hi``) holds, sorted, the nearest plane below
    (above) the points, -1 (n_z) where there is none; ``row_lo``
    (``row_hi``) is each point's row among them and ``dz_lo`` (``dz_hi``)
    its path from that plane, zero without a plane.  The points ``on``
    lie exactly on plane ``on_plane``.
    """

    rho: np.ndarray
    keep_lo: np.ndarray
    row_lo: np.ndarray
    dz_lo: np.ndarray
    keep_hi: np.ndarray
    row_hi: np.ndarray
    dz_hi: np.ndarray
    on: np.ndarray
    on_plane: np.ndarray

    @classmethod
    def locate(cls, zn, rho, z) -> "_PlanePoints":
        n_z = zn.size
        lo = np.searchsorted(zn, z, side="left") - 1   # nearest plane below
        hi = np.searchsorted(zn, z, side="right")      # nearest plane above
        on = np.flatnonzero(hi - lo == 2)
        keep_lo, row_lo = np.unique(lo, return_inverse=True)
        keep_hi, row_hi = np.unique(hi, return_inverse=True)
        # a side without planes gets a zero accumulator and a zero path
        dz_lo = np.where(lo >= 0, z - zn[np.maximum(lo, 0)], 0.0)
        dz_hi = np.where(hi < n_z, zn[np.minimum(hi, n_z - 1)] - z, 0.0)
        return cls(rho, keep_lo, row_lo, dz_lo, keep_hi, row_hi, dz_hi, on, lo[on] + 1)


def _sweep(q2, step, gap_row, keep, planes) -> np.ndarray:
    """One recursion over the source planes of a Hankel-domain sum.

    Visits ``planes`` in order, multiplying the accumulator by
    exp(-i k_z dz) (row ``gap_row[i]`` of ``step`` for the gap between
    planes i and i + 1) before adding plane j's spectrum, whose real and
    imaginary parts are rows j and n_z + j of ``q2``.  Row r of the result
    is the accumulator after plane ``keep[r]``; entries of ``keep`` not
    visited (-1 and n_z: no plane on that side) stay zero.  A sweep may
    stop at the last plane ``keep`` needs: the accumulator after a plane
    depends only on the planes visited before it.
    """
    n_z = q2.shape[0] // 2
    out = np.zeros((keep.size, q2.shape[1]), dtype=complex)
    rows = {int(j): r for r, j in enumerate(keep)}
    acc = np.zeros(q2.shape[1], dtype=complex)
    acc_re, acc_im = acc.real, acc.imag
    prev = None
    for j in planes:
        if prev is not None:
            acc *= step[gap_row[min(j, prev)]]
        acc_re += q2[j]
        acc_im += q2[n_z + j]
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
    lam2 = c0 / pair.f_u2
    z1 = a * a / lam2 - lam2 / 4.0 if a > lam2 / 2.0 else 0.0
    if z <= 5.0 * z1:
        raise ParameterDomainError(
            f"Berktay far-field form needs z well beyond the collimation "
            f"zone (z > {5.0 * z1:.3g} m)"
        )
    rho_c = medium.density * c0
    p1 = rho_c * abs(pair.profile_1.center_velocity)
    p2 = rho_c * abs(pair.profile_2.center_velocity)
    alpha_t = (absorption_coeff(medium, pair.f_u1)
               + absorption_coeff(medium, pair.f_u2))
    alpha_t = max(alpha_t, 1e-12)
    omega_a = 2.0 * np.pi * pair.f_a
    mag = (medium.beta * omega_a ** 2 * a ** 2 * p1 * p2
           / (4.0 * medium.density * c0 ** 4 * z * alpha_t))
    return float(mag * np.exp(-absorption_coeff(medium, pair.f_a) * z))
