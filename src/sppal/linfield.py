"""Linear (primary) field engine.

Rayleigh quadrature for arbitrary axisymmetric baffled sources, the
closed-form on-axis piston solution, propagation curves, beam patterns,
piston radiation impedance and the stepped-plate/rigid-piston
equivalence ratio.

Conventions: time factor exp(+i*w*t), outgoing kernel exp(-(alpha+ik)R)/R,
complex amplitudes are peak values.  SPL uses the rms convention,
SPL = 20*log10(|p| / (sqrt(2)*20e-6 Pa)).
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, field
from itertools import groupby

import numpy as np
from scipy import special

from ._quad import (azimuthal_ladder, barycentric_rows, chebyshev_count,
                    chebyshev_interpolate, chebyshev_points, plane_steps, simpson_weights,
                    wavenumber_nodes)
from .errors import NumericalFailureError, ParameterDomainError
from .medium import Medium, absorption_coeff
from .radiator import SourceKind, SourceProfile, first_local_max, piston_profile, PistonSpec

P_REF_RMS = 20e-6
#: range multiple of z1 beyond which beam patterns may use the analytic
#: far-field directivity kernel instead of full quadrature
FARFIELD_RANGE_FACTOR = 20.0
_MAX_AZIMUTHAL_ORDER = 4096
#: float64 values in each of the two fixed buffers of a :func:`pressure_grid`
#: call, one for slabs of J0 and barycentric rows, source transforms and
#: kernels, one for plane chunks
GRID_WORKSPACE_VALUES = 2 ** 18
#: consecutive z blocks of :func:`pressure_grid`'s propagating branch, counted
#: from the far end, that share the node set of their farthest block.
#: Measured with the kernels, serial pressure_grid time (best of 15, three
#: repeats) against one block per node set, on the reference grids at
#: 60 kHz / 40 kHz: 2 blocks -4 to -8 % / -9 to -15 %, 3 -1 to -11 % / -8 to
#: -12 %, 4 -2 to +2 % / -4 to -7 %, 5 +5 to +7 % / -1 to +3 %; two and three
#: tie within the spread of the repeats.  A group shares one set of
#: barycentric rows, kernel and direct J0 rows; larger groups pay more in
#: products than they save
_NODE_GROUP = 3
#: one J0 value and one barycentric-row entry of :func:`pressure_grid`, in
#: the real multiply-adds of its matrix products that cost as much; they set
#: each run's split between kernel and direct columns.  Measured with one
#: BLAS thread: 35 ns per J0 value, 2.8 ns per row entry, 0.032 ns per
#: multiply-add
_J0_COST = 1100
_ROW_COST = 90

_log = logging.getLogger(__name__)


def spl_db(p):
    """Sound pressure level of a peak complex amplitude, dB re 20 uPa rms."""
    mag = np.abs(p) / (np.sqrt(2.0) * P_REF_RMS)
    with np.errstate(divide="ignore"):
        return 20.0 * np.log10(mag)


@dataclass(frozen=True)
class FieldPoint:
    """Observation point in cylindrical coordinates (rho, z), z >= 0."""

    rho: float
    z: float

    def __post_init__(self):
        if self.z < 0:
            raise ParameterDomainError("field points must have z >= 0")


@dataclass
class FieldCurve:
    """Sampled complex pressure along an axis or angle sweep."""

    abscissa: np.ndarray
    pressure: np.ndarray
    f: float
    kind: str = "propagation"
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        x = np.asarray(self.abscissa, dtype=float)
        p = np.asarray(self.pressure, dtype=complex)
        if x.size == 0:
            raise ParameterDomainError("curve abscissa must be non-empty")
        if x.shape != p.shape:
            raise ParameterDomainError("abscissa and pressure lengths differ")
        if x.size > 1 and np.any(np.diff(x) <= 0):
            raise ParameterDomainError("abscissa must be strictly increasing")
        self.abscissa = x
        self.pressure = p

    @property
    def spl(self) -> np.ndarray:
        """SPL in dB re 20 uPa (rms) at each sample."""
        return spl_db(self.pressure)

    @property
    def spl_rel(self) -> np.ndarray:
        """Normalized level in dB re the curve maximum."""
        s = self.spl
        return s - np.max(s)


@dataclass(frozen=True)
class EquivalenceRatio:
    """SPL offset between a stepped plate and its reference piston.

    ``er_db`` = SPL_plate(d_uc) - SPL_piston(d_uc), the piston having the
    same radius and a uniform velocity equal to the plate centre
    velocity.  The equivalent piston velocity for downstream use is
    v_eff = v0 * 10**(er_db/20).
    """

    er_db: float
    f: float
    d_uc: float

    def __post_init__(self):
        if not np.isfinite(self.er_db):
            raise ParameterDomainError("equivalence ratio must be finite")

    @property
    def linear(self) -> float:
        return 10.0 ** (self.er_db / 20.0)

    def effective_velocity(self, v0: complex) -> complex:
        return complex(v0) * self.linear


# ---------------------------------------------------------------------------
# Rayleigh quadrature
# ---------------------------------------------------------------------------

def _rayleigh_onaxis(profile: SourceProfile, medium: Medium, f: float,
                     z: np.ndarray) -> np.ndarray:
    """On-axis field: the azimuthal integral collapses analytically."""
    kc = medium.complex_wavenumber(f)
    omega = 2.0 * np.pi * f
    r = profile.radii
    w = simpson_weights(r) * r * profile.velocity
    bigr = np.sqrt(z[:, None] ** 2 + r[None, :] ** 2)
    kern = np.exp(-1j * kc * bigr) / bigr
    return 1j * omega * medium.density * (kern @ w)


def _rayleigh_offaxis(profile: SourceProfile, medium: Medium, f: float,
                      rho: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Off-axis field by radial Simpson x adaptive Gauss-Legendre azimuth.

    The radial rule is :func:`_quad.simpson_weights` (composite Simpson,
    with one trapezoid end panel on an even point count).  The azimuthal
    order doubles from 32 until successive estimates agree within
    ``_quad.REFINE_DB`` (with an absolute floor so pattern nulls do not
    stall convergence).
    """
    kc = medium.complex_wavenumber(f)
    omega = 2.0 * np.pi * f
    r = profile.radii
    wv = simpson_weights(r) * r * profile.velocity
    scale = medium.density * medium.sound_speed * np.max(np.abs(profile.velocity))
    floor = 1e-10 * max(scale, 1e-300)

    def partial(todo, cosphi, phi_w):
        cur = np.empty(todo.size, dtype=complex)
        # chunk so the (pts, r, phi) block stays within memory budget
        block = max(1, int(4e6 / (r.size * cosphi.size)))
        for s in range(0, todo.size, block):
            idx = todo[s:s + block]
            rr = rho[idx][:, None, None]
            zz = z[idx][:, None, None]
            bigr = np.sqrt(zz ** 2 + rr ** 2 + r[None, :, None] ** 2
                           - 2.0 * rr * r[None, :, None] * cosphi[None, None, :])
            kern = np.exp(-1j * kc * bigr) / bigr
            azim = kern @ phi_w  # (pts, r)
            cur[s:s + block] = azim @ wv
        # factor 2: integrand symmetric about phi = pi
        cur *= 1j * omega * medium.density / (2.0 * np.pi) * 2.0
        return cur

    return azimuthal_ladder(partial, rho.size, 32, _MAX_AZIMUTHAL_ORDER, floor,
                            f"azimuthal quadrature (f = {f:.6g} Hz)")


def rayleigh_field(profile: SourceProfile, medium: Medium, f: float,
                   rho, z) -> np.ndarray:
    """Complex pressure at arbitrary (rho, z) arrays (vectorized)."""
    if f <= 0:
        raise ParameterDomainError("frequency must be positive")
    rho = np.atleast_1d(np.asarray(rho, dtype=float))
    z = np.atleast_1d(np.asarray(z, dtype=float))
    if np.any(z < 0):
        raise ParameterDomainError("observation points need z >= 0")
    out = np.empty(rho.shape, dtype=complex)
    on = rho == 0.0
    if np.any(on):
        out[on] = _rayleigh_onaxis(profile, medium, f, z[on])
    if np.any(~on):
        out[~on] = _rayleigh_offaxis(profile, medium, f, rho[~on], z[~on])
    return out


def rayleigh_pressure(profile: SourceProfile, medium: Medium, f: float,
                      pt: FieldPoint) -> complex:
    """Rayleigh-integral pressure of a baffled axisymmetric source.

    p = (i*w*rho0 / 2*pi) * Int v(r') exp(-(alpha+ik)R)/R dA' over the
    source disc; absorption attenuates every ray over its own path.
    """
    return complex(rayleigh_field(profile, medium, f, pt.rho, pt.z)[0])


def axial_piston_pressure(spec: PistonSpec, medium: Medium, f: float, z):
    """Closed-form on-axis piston pressure with an exp(-alpha*z) factor.

    Lossless form: p = rho0*c0*v * (exp(-ikz) - exp(-ik*sqrt(z^2+a^2))),
    whose magnitude is 2*rho0*c0*|v|*|sin(k/2*(sqrt(z^2+a^2)-z))|.
    """
    z = np.asarray(z, dtype=float)
    if np.any(z < 0):
        raise ParameterDomainError("z must be >= 0")
    k = medium.wavenumber(f)
    alpha = absorption_coeff(medium, f)
    ra = np.sqrt(z ** 2 + spec.radius_a ** 2)
    p = (medium.density * medium.sound_speed * spec.normal_velocity
         * (np.exp(-1j * k * z) - np.exp(-1j * k * ra)) * np.exp(-alpha * z))
    return p if p.ndim else complex(p)


def propagation_curve(profile: SourceProfile, medium: Medium, f: float,
                      z_grid) -> FieldCurve:
    """On-axis pressure over an increasing positive axial grid."""
    z = np.asarray(z_grid, dtype=float)
    if z.size == 0:
        raise ParameterDomainError("z grid must be non-empty")
    if np.any(z <= 0) or (z.size > 1 and np.any(np.diff(z) <= 0)):
        raise ParameterDomainError("z grid must be positive and strictly increasing")
    p = _rayleigh_onaxis(profile, medium, f, z)
    return FieldCurve(z, p, f, kind="propagation",
                      meta={"source": profile.descriptor()})


def farfield_pressure(profile: SourceProfile, medium: Medium, f: float,
                      r: float, theta_deg) -> np.ndarray:
    """Analytic far-field directivity kernel at range ``r``.

    p(r, theta) = i*w*rho0 * exp(-(alpha+ik)r)/r
                  * Int v(r') J0(k r' sin(theta)) r' dr'.
    """
    theta = np.deg2rad(np.asarray(theta_deg, dtype=float))
    kc = medium.complex_wavenumber(f)
    k = medium.wavenumber(f)
    omega = 2.0 * np.pi * f
    rr = profile.radii
    wv = simpson_weights(rr) * rr * profile.velocity
    b = special.j0(np.outer(k * np.abs(np.sin(theta)), rr))
    h = b @ wv
    return 1j * omega * medium.density * np.exp(-1j * kc * r) / r * h


def beam_pattern(profile: SourceProfile, medium: Medium, f: float, r: float,
                 theta_grid, method: str = "auto") -> FieldCurve:
    """Pressure at fixed range ``r`` over polar angles in degrees.

    ``method``: "quadrature" forces the Rayleigh integral, "farfield"
    the analytic directivity kernel; "auto" switches to the far-field
    kernel beyond 20x the ultrasonic critical distance.
    """
    if r <= 0:
        raise ParameterDomainError("range r must be positive")
    theta = np.asarray(theta_grid, dtype=float)
    if theta.size == 0:
        raise ParameterDomainError("theta grid must be non-empty")
    if np.any(np.abs(theta) > 90.0):
        raise ParameterDomainError("theta must lie within [-90, 90] degrees")

    if method == "auto":
        lam = medium.wavelength(f)
        far = False
        if profile.radius_a > lam / 2.0:
            far = r > FARFIELD_RANGE_FACTOR * first_local_max(profile.radius_a, f, medium)
        method = "farfield" if far else "quadrature"
    if method == "farfield":
        p = farfield_pressure(profile, medium, f, r, theta)
    elif method == "quadrature":
        th = np.deg2rad(theta)
        p = rayleigh_field(profile, medium, f,
                           r * np.abs(np.sin(th)), r * np.cos(th))
    else:
        raise ParameterDomainError(f"unknown beam-pattern method {method!r}")
    return FieldCurve(theta, p, f, kind="beam",
                      meta={"range_m": r, "method": method,
                            "source": profile.descriptor()})


def piston_radiation_impedance(a: float, f, medium: Medium) -> complex | np.ndarray:
    """Mechanical radiation impedance of a baffled piston (N s/m).

    Z = rho0*c0*pi*a^2 * (R1(2ka) + i*X1(2ka)) with the standard
    resistance and reactance functions built on J1 and the Struve
    function H1.  ``f`` is a frequency or an array of them; a scalar
    gives a ``complex``.
    """
    f_arr = np.asarray(f, dtype=float)
    if a <= 0 or np.any(f_arr <= 0):
        raise ParameterDomainError("a and f must be positive")
    x = 2.0 * medium.wavenumber(f_arr) * a
    z = np.empty(x.shape, dtype=complex)
    z.real = 1.0 - 2.0 * special.j1(x) / x
    z.imag = 2.0 * special.struve(1, x) / x
    z *= medium.density * medium.sound_speed * np.pi * a * a
    return complex(z) if z.ndim == 0 else z


def equivalence_ratio(sp_profile: SourceProfile, medium: Medium, f: float,
                      d_uc: float) -> EquivalenceRatio:
    """SPL offset at ``d_uc`` between a plate profile and its reference piston.

    The reference piston shares the radius and carries a uniform
    velocity equal to the profile centre velocity.
    """
    if d_uc <= 0:
        raise ParameterDomainError("d_uc must be positive")
    v0 = sp_profile.center_velocity
    piston = piston_profile(PistonSpec(sp_profile.radius_a, v0),
                            n_samples=len(sp_profile.radii))
    p_sp = _rayleigh_onaxis(sp_profile, medium, f, np.array([d_uc]))[0]
    p_rp = _rayleigh_onaxis(piston, medium, f, np.array([d_uc]))[0]
    if p_rp == 0:
        raise NumericalFailureError("reference piston pressure vanished")
    er = 20.0 * np.log10(abs(p_sp) / abs(p_rp))
    return EquivalenceRatio(er_db=float(er), f=f, d_uc=d_uc)


# ---------------------------------------------------------------------------
# Dense-grid evaluator (wavenumber-domain form of the same Rayleigh field)
# ---------------------------------------------------------------------------

def _add_spectrum(acc, dst, wk, kz, bmat, z_arr, buf):
    """Add B @ (wk * exp(-i kz z)) on each z plane of ``z_arr``.

    The first rows of ``bmat``, as many as ``acc`` (shape (2, n_z, n_c), the
    real and imaginary parts) has columns, are added to ``acc``; the others
    to the columns of the complex rows ``dst``.  Either may be None when it
    gets no row.  The plane factors follow from the first plane by
    recursion, exp(-i kz z_j) = exp(-i kz z_{j-1}) exp(-i kz dz), with one
    exponential per distinct gap dz (:func:`_quad.plane_steps`).  Each chunk
    of planes is one real product, its real and imaginary spectra stacked
    as rows; the chunk and its product fill ``buf``.
    """
    step, gap_row = plane_steps(z_arr, kz)
    ew = wk * np.exp(-1j * kz * z_arr[0])
    n_k, n_row = bmat.shape[1], bmat.shape[0]
    n_c = 0 if acc is None else acc.shape[2]
    chunk = max(1, buf.size // (2 * (n_k + n_row)))
    for s in range(0, z_arr.size, chunk):
        n = min(chunk, z_arr.size - s)
        ri = buf[:2 * n * n_k].reshape(2 * n, n_k)
        for j in range(n):
            if s or j:
                ew *= step[gap_row[s + j - 1]]
            ri[j] = ew.real
            ri[n + j] = ew.imag
        prod = buf[ri.size:ri.size + 2 * n * n_row].reshape(2 * n, n_row)
        np.matmul(ri, bmat.T, out=prod)
        if acc is not None:
            acc[0, s:s + n] += prod[:n, :n_c]
            acc[1, s:s + n] += prod[n:, :n_c]
        if dst is not None:
            rows = dst[s:s + n]
            rows.real += prod[:n, n_c:]
            rows.imag += prod[n:, n_c:]


def _add_kernel(dst, acc, kern, buf):
    """Add ``acc`` (real and imaginary parts) @ ``kern``.T to the complex rows
    ``dst``, in chunks of planes whose products fill ``buf``."""
    chunk = max(1, buf.size // (2 * kern.shape[0]))
    for s in range(0, dst.shape[0], chunk):
        n = min(chunk, dst.shape[0] - s)
        prod = np.matmul(acc[:, s:s + n], kern.T,
                         out=buf[:2 * n * kern.shape[0]].reshape(2, n, kern.shape[0]))
        rows = dst[s:s + n]
        rows.real += prod[0]
        rows.imag += prod[1]


def _j0_outer(x, y, out):
    """J0(x_i y_j) written into ``out``, of shape (x.size, y.size)."""
    np.multiply.outer(x, y, out=out)
    return special.j0(out, out=out)


def _kernel_split(n_k: int, k_span: float, rho_s: np.ndarray, run) -> tuple:
    """Kernel columns and rank of one run of :func:`pressure_grid`.

    ``run`` holds (lo, hi, n) per block: planes lo..hi select the first n
    of the ascending columns ``rho_s``.  The first m columns can take
    J0(k_r rho) through its interpolant at n_c = chebyshev_count(k_span,
    rho_s[m-1]) Chebyshev points on the run's n_k nodes, which span
    ``k_span``.  That costs n_c barycentric rows over the nodes, n_c
    accumulated spectra per plane, n_c * m J0 values and one product per
    plane; the direct form costs J0 on every node and a spectrum per plane
    for each column.  Returns the (m, n_c) that saves most by ``_J0_COST``
    and ``_ROW_COST``, with n_c < m, or (0, 0).
    """
    planes = np.array([hi - lo for lo, hi, _ in run])
    n_sel = np.array([n for _, _, n in run])
    m = np.arange(1, n_sel.max() + 1)
    # planes whose blocks select column m - 1, and those of every block
    # times its selected columns among the first m
    col_planes = (planes[None, :] * (n_sel[None, :] >= m[:, None])).sum(axis=1)
    kern_planes = (planes[None, :] * np.minimum(n_sel[None, :], m[:, None])).sum(axis=1)
    direct = np.cumsum(n_k * (_J0_COST + 2 * col_planes))
    n_c = chebyshev_count(k_span, rho_s[m - 1])
    kernel = n_c * (n_k * (_ROW_COST + 2 * planes[n_sel > 0].sum())
                    + m * _J0_COST + 2 * kern_planes)
    gain = np.where(n_c < m, direct - kernel, 0)
    best = int(np.argmax(gain))
    return (int(m[best]), int(n_c[best])) if gain[best] > 0 else (0, 0)


def _buffer_values(n_rho: int, n_src: int) -> int:
    """float64 values of each fixed buffer of :func:`pressure_grid`:
    ``GRID_WORKSPACE_VALUES``, or 16 rows of J0 values if those are more."""
    return max(GRID_WORKSPACE_VALUES, 16 * max(n_rho, n_src))


def grid_workspace_bytes(n_z: int, n_rho: int, n_src: int) -> int:
    """Bytes of the workspace of one :func:`pressure_grid` call, at most.

    For ``n_z`` planes, ``n_rho`` grid columns and a source sampled at
    ``n_src`` radii: the two fixed buffers, and the per-block accumulators
    of a run's kernel, 16 bytes per plane and kernel point, a kernel
    having fewer points than the grid has columns.
    """
    return 2 * 8 * _buffer_values(n_rho, n_src) + 16 * n_z * n_rho


def pressure_grid(profile: SourceProfile, medium: Medium, f: float,
                  rho_obs, z_obs, skirt_cut_db: float | None = None) -> np.ndarray:
    """Field of an axisymmetric source on a dense (z, rho) grid.

    Evaluates the angular-spectrum form of the Rayleigh integral,
    p(rho, z) = rho0*w * Int V(k_r) J0(k_r rho) e^{-i k_z z} (k_r/k_z) dk_r,
    which factorizes into matrix products over the grid.  Agrees with
    :func:`rayleigh_pressure` pointwise; intended for the dense volume
    grids of the nonlinear solver where pointwise quadrature would be
    prohibitive.  Absorption enters through the complex wavenumber.
    ``rho_obs`` must be finite and >= 0, ``z_obs`` non-empty, finite and
    > 0 (:class:`ParameterDomainError` otherwise).

    Cost controls: z planes are processed in blocks of doubling axial
    extent so the quadrature order tracks each block's oscillation
    count.  In the propagating branch the blocks go in groups of three,
    counted from the far end, and every block of a group integrates on
    its farthest block's node set, the finest of the group.  The
    evanescent branch is blocked the same way with a per-block spectral
    cutoff exp(-kappa*z) ~ 1e-8 and a global cap at 4*k0 (fields closer
    than ~lambda/4 to the source plane lose a few percent of their
    reactive part).  Consecutive blocks with the same k_r nodes form a
    run, which shares one k_z and one set of rows for the widest column
    set of its blocks.  J0(k_r rho), for fixed rho an entire function of
    k_r of exponential type rho, equals its interpolant sum_c l_c(k_r)
    J0(k_c rho) at n_c Chebyshev points k_c between the run's smallest
    and largest node, n_c growing with that span times rho
    (:func:`_quad.chebyshev_count`, :func:`_quad.barycentric_rows`); an
    evanescent run of a far block spans a narrow band above k0 and needs
    few points.  So the columns nearest the axis, as many as a flop and
    J0 count says pay, take n_c barycentric rows in place of their J0
    rows: each block accumulates its spectra on those rows and adds their
    product with the kernel J0(k_c rho) once at the end.  The other
    columns keep their J0 rows.  The source transform V(k_r), entire in
    k_r of exponential type a, is evaluated by its J0 sum only at the
    Chebyshev points of the same rule on [0, k_top], k_top the largest
    node, and interpolated to every node
    (:func:`_quad.chebyshev_interpolate`).  The barycentric and J0 rows
    are built in slabs of nodes into one fixed workspace, once for every
    block of a run, and each slab's contribution is added plane by
    plane: exp(-i k_z z) is the previous plane's factor times exp(-i k_z
    dz), one exponential per distinct plane gap, and each chunk of
    planes is one real matrix product in a second fixed buffer
    (see :func:`grid_workspace_bytes`).  ``skirt_cut_db`` (opt-in, piston
    sources only) zeroes grid columns where the piston's far-field
    directivity envelope bounds the field below that level re the beam
    axis; callers integrating the two-beam product use it to skip cells
    that cannot matter at their truncation budget.  The envelope does not
    bound the near zone: on the reference grid a 40 dB cut drops a cell
    7 mm outside the aperture at z = 5 mm that is 1.3 dB below the axis.
    A DEBUG record on this module's logger reports each call's grid,
    node sets, nodes, J0 values, the source transform's Chebyshev points,
    the columns that some run takes through a kernel, the largest kernel
    rank and wall time.
    """
    t0 = time.perf_counter()
    rho_obs = np.asarray(rho_obs, dtype=float)
    z_obs = np.asarray(z_obs, dtype=float)
    if z_obs.size == 0:
        raise ParameterDomainError("grid evaluator needs at least one z plane")
    if not (np.all(np.isfinite(rho_obs)) and np.all(np.isfinite(z_obs))):
        raise ParameterDomainError("grid points must be finite")
    if np.any(rho_obs < 0):
        raise ParameterDomainError("grid evaluator needs rho >= 0")
    if np.any(z_obs <= 0):
        raise ParameterDomainError("grid evaluator needs z > 0")
    if np.all(z_obs[1:] >= z_obs[:-1]):
        order, z_sorted = None, z_obs
    else:
        order = np.argsort(z_obs, kind="stable")
        z_sorted = z_obs[order]
    k0 = medium.wavenumber(f)
    kc = medium.complex_wavenumber(f)
    omega = 2.0 * np.pi * f
    lam = medium.wavelength(f)
    a = profile.radius_a
    r_src = profile.radii
    w_src = simpson_weights(r_src) * r_src * profile.velocity
    rho_max = float(np.max(rho_obs)) if rho_obs.size else 0.0
    pref = medium.density * omega

    sin_cut = 1.0
    if skirt_cut_db is not None and profile.kind is SourceKind.PISTON:
        # sidelobe envelope of 2 J1(x)/x: 1.6 * x^-1.5 falls below the
        # requested level at x_cut; beyond that angle (measured from the
        # aperture edge) the column is dropped
        x_cut = (1.6 * 10.0 ** (skirt_cut_db / 20.0)) ** (2.0 / 3.0)
        sin_cut = min(1.0, x_cut / (k0 * a))

    # columns in ascending rho, so that each block's selection rho <= rho_cut
    # is a prefix of them
    if np.all(rho_obs[1:] >= rho_obs[:-1]):
        col_order, rho_s = None, rho_obs
    else:
        col_order = np.argsort(rho_obs, kind="stable")
        rho_s = rho_obs[col_order]

    def n_cols(rho_cut):
        return int(np.searchsorted(rho_s, rho_cut * (1.0 + 1e-12), side="right"))

    out = np.zeros((z_sorted.size, rho_obs.size), dtype=complex)
    # J0 and barycentric slabs, source transforms and kernels fill one fixed
    # buffer, plane chunks another
    work = np.empty(_buffer_values(rho_obs.size, r_src.size))
    planes = np.empty_like(work)

    # geometric z blocks: [z_max/2, z_max], [z_max/4, z_max/2], ...
    edges = [float(z_sorted[-1])]
    while edges[-1] > max(2.0 * lam, float(z_sorted[0]) * 1.5):
        edges.append(edges[-1] / 2.0)
    edges.append(0.0)
    edges = edges[::-1]

    def block_slices():
        lo_idx = 0
        for b in range(len(edges) - 1):
            hi = edges[b + 1]
            hi_idx = int(np.searchsorted(z_sorted, hi, side="right"))
            if hi_idx > lo_idx:
                yield lo_idx, hi_idx, hi
            lo_idx = hi_idx

    # (k_r, dk_r, blocks) per run of consecutive blocks with one node set;
    # runs whose blocks select no column add nothing
    runs = []

    def add_runs(blocks):
        for node_args, run in groupby(blocks, key=lambda b: b[3]):
            run = [b[:3] for b in run]
            if any(n for _, _, n in run):
                runs.append((*wavenumber_nodes(k0, *node_args), run))

    # propagating branch, k_r = k0 sin(theta), with fine panels at the tip
    blocks = []
    for lo_idx, hi_idx, z_hi in block_slices():
        if sin_cut < 1.0:
            tan_cut = sin_cut / np.sqrt(1.0 - sin_cut ** 2)
            rho_cut = min(rho_max, a + z_hi * tan_cut)
        else:
            rho_cut = rho_max
        phase_scale = k0 * np.hypot(z_hi, rho_cut)
        blocks.append((lo_idx, hi_idx, n_cols(rho_cut),
                       max(24, int(np.ceil(phase_scale / 12.0)))))
    # each group of _NODE_GROUP blocks, counted from the far end, integrates
    # on the node set of its farthest block, the finest of the group
    far = len(blocks) - 1
    finest = [blocks[far - (far - i) // _NODE_GROUP * _NODE_GROUP][3] for i in range(far + 1)]
    add_runs([(*b[:3], (n_pan,)) for b, n_pan in zip(blocks, finest)])

    # evanescent branch, k_r = k0 cosh(u)
    u_cap = float(np.arccosh(4.0))
    blocks = []
    for lo_idx, hi_idx, _ in block_slices():
        z_lo = z_sorted[lo_idx]
        u_max = min(u_cap, float(np.arcsinh(18.0 / (k0 * max(z_lo, 1e-9)))))
        if u_max <= 1e-6:
            continue
        # radial reach of the reactive field: near the plane it hugs
        # the aperture; the lateral (small-kappa) part spans the grid
        if skirt_cut_db is not None and u_max >= 0.5:
            rho_cut = min(rho_max, 2.0 * a + 4.0 * lam)
        else:
            rho_cut = rho_max
        span = (np.cosh(u_max) - 1.0) * k0 * rho_cut
        n_pan = int(np.ceil(span / 10.0)) + 8
        blocks.append((lo_idx, hi_idx, n_cols(rho_cut), (n_pan, (0.0, u_max))))
    add_runs(blocks)

    if not runs:  # no column in reach of any block
        return out
    k_all = np.unique(np.concatenate([run[0] for run in runs]))

    # source transform V(k_r) = sum_j w_j J0(k_r r_j), an entire function of
    # exponential type r_src[-1]: J0 at Chebyshev points on [0, k_top], in
    # slabs that fill ``work``, and barycentric interpolation to every node
    k_top = float(k_all[-1])
    k_cheb = chebyshev_points(chebyshev_count(k_top, r_src[-1]), k_top)
    v_cheb = np.empty(k_cheb.size, dtype=w_src.dtype)
    n = max(16, work.size // r_src.size // 16 * 16)
    for s in range(0, k_cheb.size, n):
        k_s = k_cheb[s:s + n]
        slab = work[:k_s.size * r_src.size].reshape(k_s.size, r_src.size)
        v_cheb[s:s + n] = _j0_outer(k_s, r_src, slab) @ w_src
    vh_all = chebyshev_interpolate(v_cheb, k_top, k_all, work)
    n_j0 = k_cheb.size * r_src.size
    n_kern = rank = 0

    for krho, jac, run in runs:
        kz = -1j * np.sqrt(krho.astype(complex) ** 2 - kc * kc)
        wk = pref * vh_all[np.searchsorted(k_all, krho)] * (krho / kz) * jac
        # the first n_in columns take J0(k_r rho) = sum_c l_c(k_r) J0(k_c rho)
        # at n_c Chebyshev points k_c on the run's node range: each block
        # accumulates its spectra on the barycentric rows l_c and adds the
        # product with the kernel J0(k_c rho) at the end; the other columns
        # are direct
        n_in, n_c = _kernel_split(krho.size, float(krho[-1] - krho[0]), rho_s, run)
        n_u = max(n for _, _, n in run)
        n_row = n_c + n_u - n_in
        n_j0 += n_c * n_in + (n_u - n_in) * krho.size
        n_kern, rank = max(n_kern, n_in), max(rank, n_c)
        k_c = chebyshev_points(n_c, float(krho[-1]), float(krho[0])) if n_c else None
        accs = [np.zeros((2, hi - lo, n_c)) if n_c and n else None for lo, hi, n in run]
        # barycentric and J0 rows in slabs of as many nodes as fill the
        # workspace (at most a quarter of it, so that one plane of a slab
        # and its product fit the plane buffer)
        n_slab = max(16, min(work.size // 4, work.size // n_row) // 16 * 16)
        for s0 in range(0, krho.size, n_slab):
            k_s = krho[s0:s0 + n_slab]
            bmat = work[:n_row * k_s.size].reshape(n_row, k_s.size)
            if n_c:
                barycentric_rows(k_c, k_s, bmat[:n_c])
            _j0_outer(rho_s[n_in:n_u], k_s, bmat[n_c:])
            for (lo, hi, n), acc in zip(run, accs):
                if n:
                    _add_spectrum(acc, out[lo:hi, n_in:n] if n > n_in else None,
                                  wk[s0:s0 + n_slab], kz[s0:s0 + n_slab],
                                  bmat[:n_c + max(0, n - n_in)], z_sorted[lo:hi], planes)
        # the kernel J0(k_c rho) in slabs of columns that fill ``work``
        n_slab = work.size // max(n_c, 1)
        for c0 in range(0, n_in, n_slab):
            c1 = min(c0 + n_slab, n_in)
            kern = _j0_outer(rho_s[c0:c1], k_c, work[:(c1 - c0) * n_c].reshape(c1 - c0, n_c))
            for (lo, hi, n), acc in zip(run, accs):
                if n > c0:
                    _add_kernel(out[lo:hi, c0:min(n, c1)], acc, kern[:min(n, c1) - c0], planes)
        del accs  # before the next run's accumulators are made

    _log.debug("pressure_grid: grid %d x %d (n_z x n_r), %d node sets, %d nodes, "
               "%d J0 values, %d Chebyshev points, kernel on %d columns at rank <= %d, "
               "%.3f s", z_obs.size, rho_obs.size, len(runs), k_all.size, n_j0,
               k_cheb.size, n_kern, rank, time.perf_counter() - t0)
    if order is None and col_order is None:
        return out
    unsorted = np.empty_like(out)
    unsorted[np.ix_(np.arange(z_obs.size) if order is None else order,
                    np.arange(rho_obs.size) if col_order is None else col_order)] = out
    return unsorted
