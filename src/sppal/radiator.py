"""Radiator geometry and surface-velocity profiles.

Covers baffled circular pistons, axisymmetric flexural plate modes
(classical Kirchhoff theory) and the phase-compensated stepped plate:
annular ring steps flip the sign of the radiated contribution of every
vibration zone that moves out of phase with the plate centre, so the
plate approximates the coherent field of a rigid piston.

Aperture sizing is tied to the last on-axis pressure maximum of a
piston, z1 = a^2/lambda - lambda/4 (the ultrasonic critical distance).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy import special

from ._quad import brentq
from .errors import InfeasibleDesignError, NumericalFailureError, ParameterDomainError
from .materials import Material, get_material
from .medium import Medium

#: radial grid rule: samples per air wavelength at the operating frequency
SAMPLES_PER_WAVELENGTH = 16
MIN_RADIAL_SAMPLES = 64
#: floor on stepped-plate profile samples, so each annular step keeps
#: enough nodes; odd for composite Simpson weights
MIN_PLATE_SAMPLES = 513


class Boundary(enum.Enum):
    """Plate edge condition."""
    FREE = "free"
    CLAMPED = "clamped"


class StepPolicy(enum.Enum):
    """Annular step layout applied to a plate profile."""
    STANDARD = "standard"  # steps on out-of-phase zones, odd-mode outer zone bare
    NONE = "none"          # flat plate, no phase compensation


class SourceKind(enum.Enum):
    PISTON = "piston"
    FLAT_PLATE = "flat_plate"
    STEPPED_PLATE = "stepped_plate"


@dataclass(frozen=True)
class PistonSpec:
    """Uniform rigid piston of radius ``radius_a`` with complex normal velocity."""

    radius_a: float
    normal_velocity: complex = 0.1

    def __post_init__(self):
        if not self.radius_a > 0:
            raise ParameterDomainError("piston radius must be positive")


@dataclass(frozen=True)
class PlateSpec:
    """Thin circular plate driven in its m-th axisymmetric mode.

    ``mode_m`` counts interior nodal circles.  The thin-plate regime
    requires thickness < radius/5.
    """

    radius_a: float
    thickness: float
    youngs_modulus: float
    poisson_ratio: float
    density: float
    mode_m: int
    loss_factor: float = 0.001
    boundary: Boundary = Boundary.FREE

    def __post_init__(self):
        if self.radius_a <= 0 or self.thickness <= 0:
            raise ParameterDomainError("plate radius and thickness must be positive")
        if not self.thickness < self.radius_a / 5.0:
            raise ParameterDomainError(
                f"thickness {self.thickness:.4g} m outside the thin-plate regime "
                f"(needs < radius/5 = {self.radius_a / 5.0:.4g} m)"
            )
        if self.mode_m < 1:
            raise ParameterDomainError("mode_m must be a positive integer")
        if not 0.0 < self.poisson_ratio < 0.5:
            raise ParameterDomainError("poisson_ratio must be in (0, 0.5)")

    @property
    def flexural_rigidity(self) -> float:
        t = self.thickness
        return self.youngs_modulus * t ** 3 / (12.0 * (1.0 - self.poisson_ratio ** 2))


@dataclass(frozen=True)
class ModeShape:
    """Sampled axisymmetric mode, normalized to unit centre deflection.

    ``radii``/``deflection`` sample w(r) on [0, a]; ``nodal_radii`` are
    the m interior zeros; ``eigenvalue`` is the frequency parameter
    lambda = k_plate * a of the characteristic equation of the
    ``boundary`` edge, which together fix w(r) at any radius.
    """

    radii: np.ndarray
    deflection: np.ndarray
    nodal_radii: tuple
    natural_frequency: float
    eigenvalue: float
    mode_m: int
    radius_a: float
    boundary: Boundary

    def __post_init__(self):
        nr = np.asarray(self.nodal_radii)
        if np.any(np.diff(nr) <= 0):
            raise ParameterDomainError("nodal radii must be strictly increasing")


@dataclass(frozen=True)
class SourceProfile:
    """Discretized axisymmetric complex surface-velocity profile.

    ``radii`` is a strictly increasing grid on [0, radius_a]; ``velocity``
    holds the complex normal velocity at each radius.
    """

    radius_a: float
    radii: np.ndarray
    velocity: np.ndarray
    kind: SourceKind

    def __post_init__(self):
        r = np.asarray(self.radii, dtype=float)
        v = np.asarray(self.velocity, dtype=complex)
        if r.ndim != 1 or r.size < 2 or v.shape != r.shape:
            raise ParameterDomainError("profile needs matching 1-D grids of >= 2 samples")
        if np.any(np.diff(r) <= 0) or r[0] < 0 or r[-1] > self.radius_a * (1 + 1e-12):
            raise ParameterDomainError("profile grid must increase within [0, radius_a]")
        if self.kind is SourceKind.PISTON and not np.allclose(v, v[0]):
            raise ParameterDomainError("piston profiles must have constant velocity")
        object.__setattr__(self, "radii", r)
        object.__setattr__(self, "velocity", v)

    @property
    def center_velocity(self) -> complex:
        return complex(self.velocity[0])

    def descriptor(self) -> str:
        """Short stable hash of the sampled profile, used in file metadata."""
        import hashlib

        h = hashlib.sha256()
        h.update(np.ascontiguousarray(self.radii).tobytes())
        h.update(np.ascontiguousarray(self.velocity).tobytes())
        h.update(self.kind.value.encode())
        return h.hexdigest()[:16]


def radial_sample_count(radius_a: float, f: float, medium: Medium) -> int:
    """Grid size per the sampling rule (16 per wavelength, at least 64).

    Counts are rounded up to odd so composite Simpson weights apply.
    """
    wavelength = medium.wavelength(f)
    n = max(MIN_RADIAL_SAMPLES, int(np.ceil(SAMPLES_PER_WAVELENGTH * radius_a / wavelength)) + 1)
    return n | 1


def piston_profile(spec: PistonSpec, n_samples: int) -> SourceProfile:
    """Uniform velocity profile over [0, a] with ``n_samples`` points."""
    if n_samples < 2:
        raise ParameterDomainError("n_samples must be at least 2")
    r = np.linspace(0.0, spec.radius_a, int(n_samples))
    v = np.full(r.shape, complex(spec.normal_velocity), dtype=complex)
    return SourceProfile(spec.radius_a, r, v, SourceKind.PISTON)


# ---------------------------------------------------------------------------
# Kirchhoff plate modes
# ---------------------------------------------------------------------------

def _free_char(lam: float, nu: float) -> float:
    """Characteristic function of the free axisymmetric plate, scaled by 1/I1.

    Roots of lam*(J0*I1 + I0*J1) - 2(1-nu)*J1*I1 = 0; dividing by I1
    keeps the function bounded for large lam.
    """
    j0, j1 = special.j0(lam), special.j1(lam)
    i_ratio = special.i0e(lam) / special.i1e(lam)  # I0/I1
    return lam * (j0 + j1 * i_ratio) - 2.0 * (1.0 - nu) * j1


def _clamped_char(lam: float, nu: float) -> float:
    """Characteristic function of the clamped plate: J0*I1 + I0*J1 = 0 (scaled)."""
    return special.j0(lam) + special.j1(lam) * special.i0e(lam) / special.i1e(lam)


@lru_cache(maxsize=None)
def _mode_eigenvalues(boundary: Boundary, nu: float, n_roots: int) -> tuple:
    """First ``n_roots`` positive roots of the characteristic equation."""
    char = _free_char if boundary is Boundary.FREE else _clamped_char
    roots = []
    lam = 1.0
    step = 0.02
    prev = char(lam, nu)
    while len(roots) < n_roots and lam < 40.0 * (n_roots + 2):
        nxt = char(lam + step, nu)
        if np.isfinite(prev) and np.isfinite(nxt) and prev * nxt < 0:
            roots.append(brentq(char, lam, lam + step, args=(nu,), xtol=1e-13, rtol=1e-15))
        lam += step
        prev = nxt
    if len(roots) < n_roots:
        raise NumericalFailureError(
            f"failed to bracket {n_roots} plate eigenvalues "
            f"({boundary.value}, nu={nu}); found {len(roots)}"
        )
    return tuple(roots)


def _mode_profile(lam: float, boundary: Boundary, rho: np.ndarray) -> np.ndarray:
    """Deflection w(rho) on rho = r/a in [0, 1], normalized to w(0) = 1.

    w = J0(lam*rho) + c*I0(lam*rho); the I0 term is evaluated through
    scaled Bessel functions so large eigenvalues do not overflow.
    """
    if boundary is Boundary.FREE:
        c_over_i1 = -special.j1(lam) / special.i1e(lam)  # c = -J1/I1, times e^{lam}
    else:
        c_over_i1 = -special.j0(lam) / special.i0e(lam)
    # c*I0(lam*rho) = c_over_i1 * i0e(lam*rho) * exp(-lam*(1-rho))
    i_term = c_over_i1 * special.i0e(lam * rho) * np.exp(-lam * (1.0 - rho))
    w = special.j0(lam * rho) + i_term
    return w / w[0]


def _count_interior_zeros(w: np.ndarray) -> int:
    s = np.sign(w)
    s = s[s != 0]
    return int(np.sum(s[1:] != s[:-1]))


def _interior_scan(lam: float, boundary: Boundary) -> tuple:
    """(rho, w) samples of the profile on which interior nodal circles are
    sought by sign change.  A clamped edge is itself a zero of w, so its
    last sample (rho = 1) is rounding noise of either sign and is dropped.
    """
    rho = np.linspace(0.0, 1.0, 4096)
    w = _mode_profile(lam, boundary, rho)
    if boundary is Boundary.CLAMPED:
        return rho[:-1], w[:-1]
    return rho, w


@lru_cache(maxsize=None)
def _eigenvalue_for_mode(boundary: Boundary, nu: float, mode_m: int) -> float:
    """Eigenvalue whose profile has exactly ``mode_m`` interior nodal circles."""
    roots = _mode_eigenvalues(boundary, nu, mode_m + 2)
    for lam in roots:
        if _count_interior_zeros(_interior_scan(lam, boundary)[1]) == mode_m:
            return float(lam)
    raise NumericalFailureError(
        f"no eigenvalue with {mode_m} nodal circles among the first "
        f"{len(roots)} roots ({boundary.value} edge)"
    )


def plate_mode_shape(spec: PlateSpec) -> ModeShape:
    """Axisymmetric Kirchhoff mode with ``spec.mode_m`` nodal circles.

    The deflection has the form A*J0(kr) + B*I0(kr) with A, B fixed by
    the edge condition, sampled at max(512, 64 m) radii; the natural
    frequency follows from the m-th eigenvalue of the characteristic
    equation.
    """
    nu = spec.poisson_ratio
    lam_sel = _eigenvalue_for_mode(spec.boundary, nu, spec.mode_m)
    a = spec.radius_a
    omega = lam_sel ** 2 / a ** 2 * np.sqrt(
        spec.flexural_rigidity / (spec.density * spec.thickness)
    )
    f_nat = float(omega / (2.0 * np.pi))

    r = np.linspace(0.0, a, int(max(512, 64 * spec.mode_m)))
    w = _mode_profile(lam_sel, spec.boundary, r / a)

    # interior zeros by sign change + Brent's method on the analytic profile
    rho_scan, w_fine = _interior_scan(lam_sel, spec.boundary)

    def w_at(x: float) -> float:
        return float(_mode_profile(lam_sel, spec.boundary, np.array([0.0, x]))[1])

    nodal = []
    for i in np.flatnonzero(np.sign(w_fine[:-1]) * np.sign(w_fine[1:]) < 0):
        nodal.append(a * brentq(w_at, rho_scan[i], rho_scan[i + 1], xtol=1e-14))
    nodal = [x for x in nodal if 0.0 < x < a]

    return ModeShape(radii=r, deflection=w, nodal_radii=tuple(nodal),
                     natural_frequency=f_nat, eigenvalue=float(lam_sel),
                     mode_m=spec.mode_m, radius_a=a, boundary=spec.boundary)


def size_plate_for(f_u0: float, d_uc: float, mode_m: int, material,
                   medium: Medium, boundary: Boundary = Boundary.FREE) -> PlateSpec:
    """Size a plate so its m-th axisymmetric mode lands on ``f_u0``.

    The radius comes from the critical-distance relation
    (:func:`aperture_for_cd`); the thickness is solved by Brent's method
    so the natural frequency reproduces ``f_u0``.
    """
    if f_u0 <= 0 or d_uc <= 0:
        raise ParameterDomainError("f_u0 and d_uc must be positive")
    mat: Material = get_material(material)
    a = aperture_for_cd(d_uc, f_u0, medium)
    lam = _eigenvalue_for_mode(boundary, mat.poisson_ratio, mode_m)

    def freq_err(t: float) -> float:
        rigidity = mat.youngs_modulus * t ** 3 / (12.0 * (1.0 - mat.poisson_ratio ** 2))
        omega = lam ** 2 / a ** 2 * np.sqrt(rigidity / (mat.density * t))
        return omega / (2.0 * np.pi) - f_u0

    t_hi = a / 5.0 * (1.0 - 1e-9)
    t_lo = t_hi * 1e-6
    if freq_err(t_hi) < 0.0:
        raise InfeasibleDesignError(
            f"no thickness in (0, a/5] reaches {f_u0} Hz for mode {mode_m} "
            f"(a = {a:.4g} m)"
        )
    thickness = brentq(freq_err, t_lo, t_hi, xtol=1e-15, rtol=1e-14)
    return PlateSpec(a, float(thickness), mat.youngs_modulus, mat.poisson_ratio,
                     mat.density, mode_m, mat.loss_factor, boundary)


def stepped_profile(mode: ModeShape, center_velocity: complex,
                    step_policy: StepPolicy = StepPolicy.STANDARD,
                    n_samples: int | None = None) -> SourceProfile:
    """Velocity profile of a plate mode with phase-compensating steps.

    The raw profile is ``center_velocity * w(r)``, with w evaluated from
    the mode's eigenvalue and edge condition.  Under the standard policy
    every zone where w < 0 (every other zone from the centre: w changes
    sign at each nodal circle) carries an annular step that flips the
    sign of its radiated contribution (the ideal half-wavelength path
    difference), except that odd-mode designs leave the outermost zone
    bare; the central zone is always bare.  ``StepPolicy.NONE`` returns
    the uncompensated flat-plate profile.  It takes ``n_samples`` radii, at
    least ``MIN_PLATE_SAMPLES``, or for None as many as the mode's own
    samples, at which the values are the mode's.
    """
    n = len(mode.radii) if n_samples is None else max(int(n_samples), MIN_PLATE_SAMPLES)
    r = np.linspace(0.0, mode.radius_a, n)
    w = _mode_profile(mode.eigenvalue, mode.boundary, r / mode.radius_a)

    v = w.astype(complex) * complex(center_velocity)
    if step_policy is StepPolicy.NONE:
        return SourceProfile(mode.radius_a, r, v, SourceKind.FLAT_PLATE)

    bounds = np.concatenate(([0.0], np.asarray(mode.nodal_radii), [mode.radius_a]))
    n_zones = len(bounds) - 1
    for zone in range(1, n_zones, 2):  # the zones where w < 0
        if mode.mode_m % 2 == 1 and zone == n_zones - 1:
            continue  # odd mode: outermost step omitted
        sel = (r >= bounds[zone]) & (r <= bounds[zone + 1])
        v[sel] = -v[sel]
    return SourceProfile(mode.radius_a, r, v, SourceKind.STEPPED_PLATE)


# ---------------------------------------------------------------------------
# Critical-distance geometry
# ---------------------------------------------------------------------------

def first_local_max(a: float, f: float, medium: Medium) -> float:
    """Last on-axis pressure maximum of a piston: z1 = a^2/lambda - lambda/4."""
    if a <= 0 or f <= 0:
        raise ParameterDomainError("a and f must be positive")
    lam = medium.wavelength(f)
    if a <= lam / 2.0:
        raise InfeasibleDesignError(
            f"aperture a = {a:.4g} m must exceed lambda/2 = {lam / 2:.4g} m "
            "for an on-axis maximum to exist"
        )
    return a * a / lam - lam / 4.0


def aperture_for_cd(d_uc: float, f: float, medium: Medium) -> float:
    """Aperture radius whose last on-axis maximum falls at ``d_uc``."""
    if d_uc <= 0 or f <= 0:
        raise ParameterDomainError("d_uc and f must be positive")
    lam = medium.wavelength(f)
    return float(np.sqrt((d_uc + lam / 4.0) * lam))
