"""Langevin transducer frequency-response models.

Two complementary routes to the plate-centre velocity response:

* a 1D transfer-matrix stack: lossy transmission-line segments chained
  from the back mass to the horn tip, piezo rings represented by the
  Mason three-port under voltage drive, terminated by the plate
  drive-point impedance;
* pole-zero-gain surrogates of the single-resonance and dual-resonance
  response shapes, evaluated exactly as written.

Also houses dual-resonance feature extraction, the design objective
functions and combination-resonance screening.
"""

from __future__ import annotations

import copy
import enum
from dataclasses import dataclass, replace

import numpy as np

from ._quad import parabolic_peak, trapezoid_weights
from .errors import (
    InfeasibleDesignError,
    NoDualResonanceError,
    ParameterDomainError,
)
from .linfield import EquivalenceRatio, piston_radiation_impedance
from .materials import Material, get_material
from .medium import Medium
from .radiator import ModeShape, PlateSpec

#: default frequency step for peak searches (Hz)
PEAK_GRID_STEP = 10.0
#: horn-end radius catalog (m)
HORN_RADIUS_CATALOG = (0.75e-3, 1.00e-3, 1.25e-3, 1.50e-3)
#: piezo stack radius catalog (m)
PIEZO_RADIUS_CATALOG = (7e-3, 9e-3, 11e-3, 13e-3)


class StackConfig(enum.Enum):
    """Fundamental-mode configuration of the transducer."""
    HALF = "half"   # half wavelength, single piezo stack
    FULL = "full"   # full wavelength, cascaded double stack


@dataclass(frozen=True)
class Segment:
    """One cylindrical section of the transducer stack.

    Piezo segments carry the material's 33-mode constants and are driven
    by the common voltage with polarity ``drive_sign``.
    """

    length: float
    radius: float
    material: Material
    is_piezo: bool = False
    drive_sign: float = 1.0

    def __post_init__(self):
        if self.length <= 0 or self.radius <= 0:
            raise ParameterDomainError("segment length and radius must be positive")
        if self.is_piezo and self.material.piezo is None:
            raise ParameterDomainError(
                f"segment material {self.material.name!r} has no piezo constants"
            )

    @property
    def area(self) -> float:
        return np.pi * self.radius ** 2


@dataclass(frozen=True)
class TransducerSpec:
    """Ordered segment stack, back mass first, plate interface last."""

    config: StackConfig
    segments: tuple

    def __post_init__(self):
        n_piezo = sum(1 for s in self.segments if s.is_piezo)
        want = 1 if self.config is StackConfig.HALF else 2
        if n_piezo != want:
            raise ParameterDomainError(
                f"{self.config.value} configuration needs {want} piezo stack(s), "
                f"got {n_piezo}"
            )


@dataclass
class Frf:
    """Complex plate-centre velocity over a frequency grid."""

    freqs: np.ndarray
    center_velocity: np.ndarray

    def __post_init__(self):
        f = np.asarray(self.freqs, dtype=float)
        v = np.asarray(self.center_velocity, dtype=complex)
        if f.ndim != 1 or f.shape != v.shape:
            raise ParameterDomainError("freqs and center_velocity must match 1-D")
        if f.size > 1 and np.any(np.diff(f) <= 0):
            raise ParameterDomainError("frequency grid must be strictly increasing")
        self.freqs = f
        self.center_velocity = v

    def interp(self, f) -> complex | np.ndarray:
        """Linear interpolation of the complex response."""
        re = np.interp(f, self.freqs, self.center_velocity.real)
        im = np.interp(f, self.freqs, self.center_velocity.imag)
        out = re + 1j * im
        return complex(out) if np.ndim(f) == 0 else out

    def scaled(self, s: float) -> "Frf":
        return Frf(self.freqs.copy(), self.center_velocity * s)


@dataclass(frozen=True)
class DrFeatures:
    """Dual-resonance descriptors of a velocity response.

    ``f_r1 < f_m < f_r2``: the two highest interior peaks and the local
    minimum between them; ``f_dist`` is the peak spacing.
    """

    f_r1: float
    f_r2: float
    v_r1: float
    v_r2: float
    f_m: float
    v_m: float

    def __post_init__(self):
        if not self.f_r1 < self.f_m < self.f_r2:
            raise ParameterDomainError("need f_r1 < f_m < f_r2")
        if self.v_m > min(self.v_r1, self.v_r2) * (1 + 1e-12):
            raise ParameterDomainError("inter-peak minimum exceeds a peak value")

    @property
    def f_dist(self) -> float:
        return self.f_r2 - self.f_r1


class PzgKind(enum.Enum):
    SR = "SR"
    DR = "DR"


def pzg_frf(kind: PzgKind, gain: float, f_r1: float, f_r2: float,
            f_anti: float | None, eta: float, freqs) -> Frf:
    """Pole-zero-gain velocity response of an SR or DR transducer.

    SR: v = i*w*K / (w_r2^2 (1+i*eta) - w^2)
    DR: v = i*w*K * (w_a^2 (1+i*eta) - w^2)
        / ((w_r1^2 (1+i*eta) - w^2) (w_r2^2 (1+i*eta) - w^2))

    with the anti-resonance w_a between the two poles.
    """
    if eta <= 0:
        raise ParameterDomainError("loss factor eta must be positive")
    freqs = np.asarray(freqs, dtype=float)
    w = 2.0 * np.pi * freqs
    if kind is PzgKind.SR:
        w2 = 2.0 * np.pi * f_r2
        v = 1j * w * gain / (w2 ** 2 * (1 + 1j * eta) - w ** 2)
        return Frf(freqs, v)
    if f_anti is None or not f_r1 < f_anti < f_r2:
        raise ParameterDomainError(
            "DR form needs f_r1 < f_anti < f_r2 (anti-resonance between poles)"
        )
    w1 = 2.0 * np.pi * f_r1
    w2 = 2.0 * np.pi * f_r2
    wa = 2.0 * np.pi * f_anti
    v = (1j * w * gain * (wa ** 2 * (1 + 1j * eta) - w ** 2)
         / ((w1 ** 2 * (1 + 1j * eta) - w ** 2)
            * (w2 ** 2 * (1 + 1j * eta) - w ** 2)))
    return Frf(freqs, v)


# ---------------------------------------------------------------------------
# Stack construction
# ---------------------------------------------------------------------------

def _default_materials() -> dict:
    return {"back": get_material("steel"), "front": get_material("aluminum"),
            "horn": get_material("aluminum"), "piezo": get_material("pzt")}


def elastic_lengths(config: StackConfig, x) -> np.ndarray:
    """Elastic segment lengths, back first, of the stacks :func:`build_stack`
    makes from the variable lengths along the last axis of ``x``.

    The stepped horn's two sections each take half of its length, so a
    half-wavelength row (back, front, horn) gives four lengths and a
    full-wavelength row (back, middle, front, horn) five.
    """
    x = np.asarray(x, dtype=float)
    want = 3 if config is StackConfig.HALF else 4
    if x.shape[-1:] != (want,):
        raise ParameterDomainError(
            f"{config.value} configuration takes {want} segment lengths, "
            f"got {x.shape[-1] if x.ndim else 1}"
        )
    half = x[..., -1:] / 2.0
    return np.concatenate([x[..., :-1], half, half], axis=-1)


def check_radial_band(r_p: float, f_u0: float) -> None:
    """Raise :class:`InfeasibleDesignError` unless the piezo radius lies in
    its radial-wavelength band (lambda_r/8, lambda_r/4) at ``f_u0``."""
    lam_r = get_material("pzt").radial_speed() / f_u0
    if not lam_r / 8.0 < r_p < lam_r / 4.0:
        raise InfeasibleDesignError(
            f"piezo radius {r_p:.4g} m outside the radial band "
            f"({lam_r / 8.0:.4g}, {lam_r / 4.0:.4g}) m at {f_u0:.4g} Hz"
        )


def build_stack(config: StackConfig, r_p: float, l_p: float, r_h: float,
                x) -> TransducerSpec:
    """Assemble the segment stack of a half- or full-wavelength transducer.

    ``x`` holds the variable segment lengths: (back, front, horn) for the
    half-wavelength single-stack layout, (back, middle, front, horn) for
    the full-wavelength cascaded double stack.  The stepped horn is
    realized as two sections with a geometric-mean intermediate radius,
    ending at ``r_h`` (see :func:`elastic_lengths`).  Whether the piezo
    radius suits a frequency is :func:`check_radial_band`'s question.
    """
    mats = _default_materials()
    lengths = [float(v) for v in elastic_lengths(config, np.atleast_1d(x))]
    if any(v <= 0 for v in lengths):
        raise ParameterDomainError("segment lengths must be positive")

    r_mid = float(np.sqrt(r_p * r_h))  # geometric area schedule
    pz = mats["piezo"]
    *rods, h1, h2 = lengths
    horn = [Segment(h1, r_mid, mats["horn"]), Segment(h2, r_h, mats["horn"])]
    if config is StackConfig.HALF:
        segs = [
            Segment(rods[0], r_p, mats["back"]),
            Segment(l_p, r_p, pz, is_piezo=True),
            Segment(rods[1], r_p, mats["front"]),
            *horn,
        ]
    else:
        segs = [
            Segment(rods[0], r_p, mats["back"]),
            Segment(l_p, r_p, pz, is_piezo=True),
            Segment(rods[1], r_p, mats["back"]),
            Segment(l_p, r_p, pz, is_piezo=True, drive_sign=-1.0),
            Segment(rods[2], r_p, mats["front"]),
            *horn,
        ]
    return TransducerSpec(config=config, segments=tuple(segs))


def langevin_initial_lengths(f_u0: float, config: StackConfig,
                             l_p: float = 0.0) -> tuple:
    """Initial variable lengths and bounds from the resonance condition.

    The classical half-wave (full-wave) condition allocates a total
    acoustic phase of pi (2*pi) along the stack at ``f_u0``; the phase
    remaining after the fixed piezo stack(s) is split evenly across the
    variable segments.  Bounds are 0.5x to 1.5x the initial lengths.
    """
    if f_u0 <= 0:
        raise ParameterDomainError("f_u0 must be positive")
    mats = _default_materials()
    omega = 2.0 * np.pi * f_u0
    n_piezo = 1 if config is StackConfig.HALF else 2
    budget = np.pi if config is StackConfig.HALF else 2.0 * np.pi
    budget -= n_piezo * omega * l_p / mats["piezo"].rod_speed
    if budget <= 0:
        raise InfeasibleDesignError("piezo stack alone exceeds the resonance length")

    seg_mats = (["back", "front", "horn"] if config is StackConfig.HALF
                else ["back", "back", "front", "horn"])
    share = budget / len(seg_mats)
    x0 = np.array([share * mats[mname].rod_speed / omega for mname in seg_mats])
    return x0, (0.5 * x0, 1.5 * x0)


# ---------------------------------------------------------------------------
# Transfer-matrix chain
# ---------------------------------------------------------------------------
# State convention: [F, v] with F the compressive force transmitted in +x
# and v the particle velocity; [F, v]_left = T [F, v]_right + s*V for each
# segment.  Losses enter through the complex modulus E(1 + i*eta).

def _cos_sin(a: np.ndarray, b: np.ndarray) -> tuple:
    """cos and sin of the complex angle a + i*b in real arithmetic.

    cos(a + ib) = cos a cosh b - i sin a sinh b and
    sin(a + ib) = sin a cosh b + i cos a sinh b: one real cos, sin and
    expm1 per element.  With m = expm1(|b|), cosh b = (1 + m + 1/(1 + m)) / 2
    and |sinh b| = m (1 + 1/(1 + m)) / 2, so the imaginary parts, which
    carry the material loss, keep full relative precision at small b,
    where (e^b - e^-b) / 2 would not.  The products are written in place,
    so that a call on every elastic length of a whole grid at once holds
    few temporaries.
    """
    m = np.expm1(np.abs(b))
    inv = 1.0 / (1.0 + m)
    cosh = 0.5 * (1.0 + m + inv)
    sinh = np.copysign(0.5 * m * (1.0 + inv), b)
    del m, inv
    cos = np.empty(np.shape(a), dtype=complex)
    sin = np.empty_like(cos)
    trig = np.cos(a)
    np.multiply(trig, cosh, out=cos.real)
    np.multiply(trig, sinh, out=sin.imag)
    np.sin(a, out=trig)
    np.multiply(trig, cosh, out=sin.real)
    np.negative(np.multiply(trig, sinh, out=cos.imag), out=cos.imag)
    return cos, sin


def _elastic_wave(seg: Segment, omega: np.ndarray) -> tuple:
    """Length-independent chain terms of an elastic rod: its complex
    wavenumber k, i*Zc and i/Zc.

    Its chain is [[cos kl, i Zc sin kl], [i sin kl / Zc, cos kl]], with
    no drive vector.
    """
    mat = seg.material
    c = mat.rod_speed * np.sqrt(1.0 + 1j * mat.loss_factor)
    zc = mat.density * c * seg.area
    return omega / c, 1j * zc, 1j / zc


def _piezo_chain(seg: Segment, omega: np.ndarray) -> tuple:
    """Mason chain entries (T00, T01, T10, T11) and drive vector (s0, s1)
    of a voltage-driven piezo segment."""
    mat = seg.material
    # piezo relations evaluated on the lossy compliance
    pz = replace(mat.piezo, s33_e=mat.piezo.s33_e * (1.0 - 1j * mat.loss_factor))
    c = 1.0 / np.sqrt(mat.density * pz.s33_d)
    zc = mat.density * c * seg.area
    kl = omega / c * seg.length
    c0 = pz.eps33_s * seg.area / seg.length
    n_ratio = seg.drive_sign * pz.d33 * seg.area / (pz.s33_e * seg.length)

    a11 = zc / (1j * np.tan(kl)) - n_ratio ** 2 / (1j * omega * c0)
    a12 = zc / (1j * np.sin(kl)) - n_ratio ** 2 / (1j * omega * c0)
    t00 = a11 / a12
    return (t00, (a11 ** 2 - a12 ** 2) / a12, 1.0 / a12, t00,
            n_ratio * (1.0 - t00), -n_ratio / a12)


#: values (candidate x frequency) per block of ``StackChain.velocity``.
#: A block's temporaries take about 150 bytes a value, so a block of two
#: candidates on the 2400-point lattice needs about what one whole-lattice
#: candidate did when every angle's cos and sin were held at once.
_BLOCK_VALUES = 4800


class StackChain:
    """Length-independent chain terms of one segment layout on one grid.

    A piezo segment keeps its whole Mason chain, since its length is part
    of the layout; an elastic segment keeps its material's complex
    wavenumber, i*Zc and i/Zc.  A stack with this layout then costs only
    one real cos, sin and expm1 over its distinct elastic lengths (the two
    horn halves share theirs) and the row-0 products.  The per-frequency
    terms are rows of one array, so a subset of the grid is gathered by
    one ``take``.

    :meth:`velocity` is the one kernel: it evaluates a batch of stacks,
    given by their elastic lengths, over (candidates x frequencies), and
    :meth:`frf` is a batch of one.  Both are per volt of drive.
    """

    def __init__(self, segments, freqs):
        self.freqs = np.asarray(freqs, dtype=float)
        omega = 2.0 * np.pi * self.freqs
        # per segment: its first row and, for an elastic rod, (i*Zc, i/Zc);
        # rods of one material share their wavenumber row
        rows, wave_row, self._steps = [], {}, []
        for s in segments:
            if s.is_piezo:
                self._steps.append((len(rows), None))
                t00, t01, t10, _, d0, d1 = _piezo_chain(s, omega)
                rows += [t00, t01, t10, d0, d1]
                continue
            k, i_zc, i_over_zc = _elastic_wave(s, omega)
            if s.material not in wave_row:
                wave_row[s.material] = len(rows)
                rows.append(k)
            self._steps.append((wave_row[s.material], (i_zc, i_over_zc)))
        self._terms = np.array(rows)

    def subset(self, index) -> "StackChain":
        """This chain on the grid frequencies ``index``, its terms gathered
        once rather than recomputed, so that each value keeps its bits."""
        sub = copy.copy(self)
        sub.freqs, sub._terms = self.freqs[index], self._terms.take(index, axis=1)
        return sub

    def velocity(self, lengths, z_load, index=None, rows=None) -> np.ndarray:
        """Plate-interface velocity per volt of a batch of stacks of this layout.

        Row c of ``lengths`` holds candidate c's elastic segment lengths,
        back first, one column per elastic segment (else a
        ``ParameterDomainError``).  ``z_load`` is the load impedance, a
        scalar or an array over the grid.  The result is (candidates,
        frequencies) on the whole grid, the terms broadcast over the
        candidates, not tiled; a subset of the grid is a :meth:`subset`
        chain.  With ``index`` and ``rows``, which pair up element by
        element, the result is flat: value i is candidate ``rows[i]`` at
        grid index ``index[i]``.

        Each value has the bits of a one-candidate call at that frequency.
        A singular frequency is returned as it comes out, not finite; see
        :func:`fill_singular`.  The batch is evaluated in blocks of at most
        ``_BLOCK_VALUES`` values (or one candidate), which bounds its
        temporaries.
        """
        if (index is None) != (rows is None):
            raise ParameterDomainError("index and rows go together")
        lengths = np.asarray(lengths, dtype=float)
        elastic = [row for row, impedances in self._steps if impedances is not None]
        if lengths.ndim != 2 or lengths.shape[1] != len(elastic):
            raise ParameterDomainError(f"the chain takes rows of {len(elastic)} "
                                       f"elastic lengths, got shape {lengths.shape}")
        # one angle per distinct (wavenumber, length column): the two horn
        # halves share theirs
        angle, which = {}, []
        for col, row in enumerate(elastic):
            which.append(angle.setdefault((row, lengths[:, col].tobytes()),
                                          (len(angle), row, col))[0])
        wave_rows = [row for _, row, _ in angle.values()]
        per_angle = lengths[:, [col for _, _, col in angle.values()]].T

        if rows is None:
            v = np.empty((len(lengths), self.freqs.size), dtype=complex)
            step = max(_BLOCK_VALUES // max(self.freqs.size, 1), 1)
            for lo in range(0, len(lengths), step):
                v[lo:lo + step] = self._block(
                    self._terms[:, None, :], wave_rows, per_angle[:, lo:lo + step, None],
                    which, z_load)
            return v
        index, rows = np.asarray(index), np.asarray(rows)
        v = np.empty(index.size, dtype=complex)
        for lo in range(0, index.size, _BLOCK_VALUES):
            part = slice(lo, lo + _BLOCK_VALUES)
            v[part] = self._block(
                self._terms.take(index[part], axis=1), wave_rows,
                per_angle[:, rows[part]], which,
                np.take(z_load, index[part]) if np.ndim(z_load) else z_load)
        return v

    def _block(self, terms, wave_rows, per_angle, which, z_load) -> np.ndarray:
        """The row-0 chain of one block: ``terms`` and ``per_angle``
        (each angle's elastic lengths) broadcast to the block's values.
        An angle's cos and sin are computed where first needed and dropped
        after their last use."""
        last = {j: i for i, j in enumerate(which)}
        angles, trig = iter(enumerate(which)), {}
        # Every complex product and sum is an explicit ufunc call in the
        # operand order of the expressions it replaces, r0 * cos + r1 *
        # (sin * i/Zc) and so on.  Written with operators, numpy elides
        # temporaries of 256 KiB and more: ``r1 * (sin * i_over_zc)`` then
        # runs as ``tmp *= r1``, and with the swapped operands the fused
        # multiply-add of the complex product rounds differently, so a
        # large block would not equal one-candidate calls bit for bit.
        # Explicit calls keep the bits independent of the block size.
        r0, r1, s0 = 1.0, 0.0, 0.0
        for row, impedances in self._steps:
            if impedances is None:
                t00, t01, t10, d0, d1 = terms[row:row + 5]
                s0 = np.add(s0, np.add(np.multiply(r0, d0), np.multiply(r1, d1)))
                r0, r1 = (np.add(np.multiply(r0, t00), np.multiply(r1, t10)),
                          np.add(np.multiply(r0, t01), np.multiply(r1, t00)))
                continue
            i, j = next(angles)
            if j not in trig:
                k = wave_rows[j]
                trig[j] = _cos_sin(np.multiply(terms[k].real, per_angle[j]),
                                   np.multiply(terms[k].imag, per_angle[j]))
            cos, sin = trig.pop(j) if last[j] == i else trig[j]
            i_zc, i_over_zc = impedances
            r0, r1 = (np.add(np.multiply(r0, cos),
                             np.multiply(r1, np.multiply(sin, i_over_zc))),
                      np.add(np.multiply(r0, np.multiply(sin, i_zc)),
                             np.multiply(r1, cos)))

        # 0 = F_back = (T00 Z_L + T01) v_front + s0 * V, at V = 1 volt
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.divide(np.negative(s0), np.add(np.multiply(r0, z_load), r1))

    def frf(self, lengths, z_load) -> Frf:
        """Plate-interface velocity per volt of the stack of this layout
        with the elastic lengths ``lengths`` (one row, back first), under
        the load impedance ``z_load`` (scalar or array over the grid).

        The back face is free (F = 0) and the front face feeds the load
        (F = Z_L v), so only row 0 of the chain product and component 0
        of the drive vector enter: they are propagated back-to-front.
        Frequencies where the chain is numerically singular are filled by
        interpolation from their neighbours.
        """
        v = self.velocity(np.asarray(lengths, dtype=float)[None], z_load)[0]
        return Frf(self.freqs, fill_singular(self.freqs, v))


def fill_singular(freqs: np.ndarray, v: np.ndarray) -> np.ndarray:
    """``v`` over the whole grid ``freqs`` with its non-finite values
    interpolated, in place, from the finite ones.

    Raises :class:`ParameterDomainError` when no value is finite.
    """
    bad = ~np.isfinite(v)
    if np.any(bad):
        good = ~bad
        if not np.any(good):
            raise ParameterDomainError("transfer-matrix chain singular everywhere")
        v[bad] = Frf(freqs[good], v[good]).interp(freqs[bad])
    return v


def frf_transfer_matrix(spec: TransducerSpec, load, freqs) -> Frf:
    """Plate-interface velocity per volt of the stack's drive.

    ``load`` is a scalar or an array over ``freqs``.  See
    :meth:`StackChain.frf`.  Nothing in the package calls this one-call
    form; the tests compare the design loop's chain with it, and the
    benchmark's tracer (``bench/spans.py``) patches it by name, so it
    stays while the benchmark traces it.
    """
    freqs = np.asarray(freqs, dtype=float)
    z_load = np.asarray(load, dtype=complex)
    lengths = [s.length for s in spec.segments if not s.is_piezo]
    return StackChain(spec.segments, freqs).frf(lengths, z_load)


def plate_load_impedance(plate: PlateSpec, mode: ModeShape, er: EquivalenceRatio,
                         medium: Medium, freqs) -> np.ndarray:
    """Single-mode drive-point impedance of the plate at its centre.

    Z(w) = i*w*m_eff + k_eff (1+i*eta_s)/(i*w) + |ER|^2 * Z_rad(piston),
    with the modal mass referred to the unit-normalized centre
    deflection and the piston radiation impedance referred to centre
    velocity through the squared linear equivalence factor.
    """
    if not np.isclose(mode.radius_a, plate.radius_a):
        raise ParameterDomainError("mode and plate radii disagree")
    freqs = np.asarray(freqs, dtype=float)
    omega = 2.0 * np.pi * freqs
    r, w = mode.radii, mode.deflection
    m_eff = plate.density * plate.thickness * 2.0 * np.pi * (trapezoid_weights(r) @ (w * w * r))
    w_m = 2.0 * np.pi * mode.natural_frequency
    k_eff = m_eff * w_m ** 2
    er_sq = er.linear ** 2
    z_rad = piston_radiation_impedance(plate.radius_a, np.atleast_1d(freqs), medium)
    z = (1j * omega * m_eff + k_eff * (1.0 + 1j * plate.loss_factor) / (1j * omega)
         + er_sq * z_rad)
    return z


# ---------------------------------------------------------------------------
# Feature extraction, objectives, screening
# ---------------------------------------------------------------------------

def interior_peaks(mag: np.ndarray) -> np.ndarray:
    """Indices of the interior local maxima of ``mag``, largest first.

    A peak is not below its left neighbour and above its right one; equal
    magnitudes rank the higher index first.  A NaN sample (one not
    evaluated) is never a peak and makes neither of its neighbours one.
    """
    interior = np.flatnonzero(
        (mag[1:-1] >= mag[:-2]) & (mag[1:-1] > mag[2:])
    ) + 1
    return interior[np.argsort(mag[interior], kind="stable")[::-1]]


def lattice_dr_features(f: np.ndarray, mag: np.ndarray) -> tuple:
    """:func:`extract_dr_features` on the samples ``mag`` of |v| at ``f``,
    and the indices (i1, i2, im) of the two peaks and the minimum it used.

    NaN marks a sample that was not evaluated: it is never a peak or the
    minimum, and the caller decides whether the evaluated samples
    determine the result.
    """
    if f.size < 5:
        raise NoDualResonanceError("frequency grid too short for peak search")
    peaks = interior_peaks(mag)
    if peaks.size < 2:
        raise NoDualResonanceError(
            f"found {peaks.size} interior peak(s); dual resonance needs two"
        )
    i1, i2 = (int(i) for i in sorted(peaks[:2]))
    f_r1, v_r1 = parabolic_peak(f, mag, i1)
    f_r2, v_r2 = parabolic_peak(f, mag, i2)
    im = i1 + int(np.nanargmin(mag[i1:i2 + 1]))
    f_m, v_m = parabolic_peak(f, -mag, im)
    v_m = -v_m
    v_m = min(v_m, v_r1, v_r2)
    if not f_r1 < f_m < f_r2:
        f_m = float(f[im])
        v_m = float(mag[im])
    return (DrFeatures(f_r1=f_r1, f_r2=f_r2, v_r1=v_r1, v_r2=v_r2,
                       f_m=f_m, v_m=v_m), (i1, i2, im))


def extract_dr_features(frf: Frf) -> DrFeatures:
    """Two highest interior peaks of |v| and the local minimum between them.

    Peaks are refined by the parabola through the three samples around
    each maximum; ties between equal peaks break toward higher frequency.
    Raises :class:`NoDualResonanceError` when fewer than two interior
    local maxima exist.
    """
    return lattice_dr_features(frf.freqs, np.abs(frf.center_velocity))[0]


def objectives(features: DrFeatures) -> tuple:
    """Design objectives of a dual-resonance response.

    F1 = -(v_r1 * v_r2 * v_m)^(1/3), the negative geometric mean of the
    two peak velocities and the inter-peak minimum; F2 = f_r2 - f_r1.
    Both are minimized.
    """
    if min(features.v_r1, features.v_r2, features.v_m) <= 0:
        raise ParameterDomainError("objective velocities must be positive")
    f1 = -float(np.cbrt(features.v_r1 * features.v_r2 * features.v_m))
    f2 = float(features.f_dist)
    return f1, f2


def cr_screen(modal_freqs, audio_band: tuple, tol: float,
              f_a_grid=None) -> list:
    """Audio frequencies at combination-resonance risk.

    Flags frequencies within ``tol`` of any structural modal frequency.
    With ``f_a_grid`` given, returns the flagged grid entries; otherwise
    returns the in-band modal frequencies themselves.
    """
    if tol <= 0:
        raise ParameterDomainError("tolerance must be positive")
    lo, hi = audio_band
    if not lo < hi:
        raise ParameterDomainError("audio band must satisfy lo < hi")
    modes = np.asarray(sorted(float(f) for f in modal_freqs))
    if f_a_grid is None:
        return [f for f in modes if lo <= f <= hi]
    grid = np.asarray(f_a_grid, dtype=float)
    flagged = []
    for f in grid:
        if lo <= f <= hi and modes.size and np.min(np.abs(modes - f)) <= tol:
            flagged.append(float(f))
    return flagged
