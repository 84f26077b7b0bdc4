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

from dataclasses import dataclass, field

import numpy as np
from scipy import special

from ._quad import azimuthal_ladder, trapezoid_weights, wavenumber_nodes
from .errors import NumericalFailureError, ParameterDomainError
from .medium import Medium, absorption_coeff
from .radiator import SourceKind, SourceProfile, first_local_max, piston_profile, PistonSpec

P_REF_RMS = 20e-6
#: range multiple of z1 beyond which beam patterns may use the analytic
#: far-field directivity kernel instead of full quadrature
FARFIELD_RANGE_FACTOR = 20.0
_MAX_AZIMUTHAL_ORDER = 4096


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


def _radial_weights(x: np.ndarray) -> np.ndarray:
    """Quadrature weights on the profile grid.

    Uniform grids with an odd point count get composite Simpson weights
    (the accuracy near on-axis pressure nulls needs better than
    trapezoid); anything else falls back to the trapezoid rule.
    """
    n = x.size
    dx = np.diff(x)
    if n >= 3 and n % 2 == 1 and np.allclose(dx, dx[0], rtol=1e-8):
        h = dx[0]
        w = np.full(n, 2.0)
        w[1::2] = 4.0
        w[0] = w[-1] = 1.0
        return w * (h / 3.0)
    return trapezoid_weights(x)


# ---------------------------------------------------------------------------
# Rayleigh quadrature
# ---------------------------------------------------------------------------

def _rayleigh_onaxis(profile: SourceProfile, medium: Medium, f: float,
                     z: np.ndarray) -> np.ndarray:
    """On-axis field: the azimuthal integral collapses analytically."""
    kc = medium.complex_wavenumber(f)
    omega = 2.0 * np.pi * f
    r = profile.radii
    w = _radial_weights(r) * r * profile.velocity
    bigr = np.sqrt(z[:, None] ** 2 + r[None, :] ** 2)
    kern = np.exp(-1j * kc * bigr) / bigr
    return 1j * omega * medium.density * (kern @ w)


def _rayleigh_offaxis(profile: SourceProfile, medium: Medium, f: float,
                      rho: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Off-axis field by radial Simpson x adaptive Gauss-Legendre azimuth.

    The radial rule is :func:`_radial_weights` (composite Simpson on the
    uniform odd-count profile grids, trapezoid otherwise).  The azimuthal
    order doubles from 32 until successive estimates agree within
    ``_quad.REFINE_DB`` (with an absolute floor so pattern nulls do not
    stall convergence).
    """
    kc = medium.complex_wavenumber(f)
    omega = 2.0 * np.pi * f
    r = profile.radii
    wv = _radial_weights(r) * r * profile.velocity
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
    wv = _radial_weights(rr) * rr * profile.velocity
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

def _spectrum_sum(wk, kz, bmat, z_arr):
    """Accumulate B @ (wk * exp(-i kz z)) over a block of z planes."""
    out = np.empty((z_arr.size, bmat.shape[0]), dtype=complex)
    chunk = max(1, int(4e6 / max(kz.size, 1)))
    for s in range(0, z_arr.size, chunk):
        zz = z_arr[s:s + chunk]
        ew = wk[:, None] * np.exp(np.outer(-1j * kz, zz))  # (n_k, nz)
        out[s:s + chunk] = (bmat @ ew.real + 1j * (bmat @ ew.imag)).T
    return out


def pressure_grid(profile: SourceProfile, medium: Medium, f: float,
                  rho_obs, z_obs, skirt_cut_db: float | None = None) -> np.ndarray:
    """Field of an axisymmetric source on a dense (z, rho) grid.

    Evaluates the angular-spectrum form of the Rayleigh integral,
    p(rho, z) = rho0*w * Int V(k_r) J0(k_r rho) e^{-i k_z z} (k_r/k_z) dk_r,
    which factorizes into matrix products over the grid.  Agrees with
    :func:`rayleigh_pressure` pointwise; intended for the dense volume
    grids of the nonlinear solver where pointwise quadrature would be
    prohibitive.  Absorption enters through the complex wavenumber.

    Cost controls: z planes are processed in blocks of doubling axial
    extent so the quadrature order tracks each block's oscillation
    count.  The evanescent branch is blocked the same way with a
    per-block spectral cutoff exp(-kappa*z) ~ 1e-8 and a global cap at
    4*k0 (fields closer than ~lambda/4 to the source plane lose a few
    percent of their reactive part).  ``skirt_cut_db`` (opt-in, piston
    sources only) zeroes grid columns where the piston directivity
    envelope bounds the field below that level re the beam axis; callers
    integrating the two-beam product use it to skip cells that cannot
    matter at their truncation budget.
    """
    rho_obs = np.asarray(rho_obs, dtype=float)
    z_obs = np.asarray(z_obs, dtype=float)
    if np.any(z_obs <= 0):
        raise ParameterDomainError("grid evaluator needs z > 0")
    order = np.argsort(z_obs, kind="stable")
    z_sorted = z_obs[order]
    k0 = medium.wavenumber(f)
    kc = medium.complex_wavenumber(f)
    omega = 2.0 * np.pi * f
    lam = medium.wavelength(f)
    a = profile.radius_a
    r_src = profile.radii
    w_src = _radial_weights(r_src) * r_src * profile.velocity
    rho_max = float(np.max(rho_obs)) if rho_obs.size else 0.0
    pref = medium.density * omega

    sin_cut = 1.0
    if skirt_cut_db is not None and profile.kind is SourceKind.PISTON:
        # sidelobe envelope of 2 J1(x)/x: 1.6 * x^-1.5 falls below the
        # requested level at x_cut; beyond that angle (measured from the
        # aperture edge) the column is dropped
        x_cut = (1.6 * 10.0 ** (skirt_cut_db / 20.0)) ** (2.0 / 3.0)
        sin_cut = min(1.0, x_cut / (k0 * a))

    out_sorted = np.zeros((z_sorted.size, rho_obs.size), dtype=complex)

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

    def spectrum(lo_idx, hi_idx, sel, krho, jac):
        """Field of the k_r nodes ``krho`` (weights ``jac``) on one z block."""
        kz = -1j * np.sqrt(krho.astype(complex) ** 2 - kc * kc)
        vh = special.j0(np.outer(krho, r_src)) @ w_src
        wk = pref * vh * (krho / kz) * jac
        bmat = special.j0(np.outer(rho_obs[sel], krho))
        return _spectrum_sum(wk, kz, bmat, z_sorted[lo_idx:hi_idx])

    # propagating branch, k_r = k0 sin(theta), with fine panels at the tip
    for lo_idx, hi_idx, z_hi in block_slices():
        if sin_cut < 1.0:
            tan_cut = sin_cut / np.sqrt(1.0 - sin_cut ** 2)
            rho_cut = min(rho_max, a + z_hi * tan_cut)
        else:
            rho_cut = rho_max
        sel = rho_obs <= rho_cut * (1.0 + 1e-12)
        phase_scale = k0 * np.hypot(z_hi, rho_cut)
        n_pan = max(24, int(np.ceil(phase_scale / 12.0)))
        out_sorted[lo_idx:hi_idx, sel] = spectrum(
            lo_idx, hi_idx, sel, *wavenumber_nodes(k0, n_pan))

    # evanescent branch, k_r = k0 cosh(u)
    u_cap = float(np.arccosh(4.0))
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
        sel = rho_obs <= rho_cut * (1.0 + 1e-12)
        span = (np.cosh(u_max) - 1.0) * k0 * rho_cut
        n_pan = int(np.ceil(span / 10.0)) + 8
        out_sorted[lo_idx:hi_idx, sel] += spectrum(
            lo_idx, hi_idx, sel, *wavenumber_nodes(k0, n_pan, (0.0, u_max)))

    out = np.empty_like(out_sorted)
    out[order] = out_sorted
    return out
