"""Quadrature building blocks shared by the field solvers.

One home for each rule: trapezoid and non-uniform composite Simpson
weights, the cached Gauss-Legendre node table, the radial-wavenumber
nodes of the Hankel-domain field integrals (64-point Gauss-Legendre
panels on the propagating branch, whose count :func:`propagating_panels`
sets for both field engines, and 16-point panels at its tip and on the
evanescent branch) and their plane-to-plane propagation factors,
Chebyshev points with their point-count rule, barycentric interpolation
rows and the cost rule that splits a J0 product into kernel and direct
columns, the three-point parabolic peak refinement, the ``REFINE_DB``
refinement test, and the adaptive azimuthal ladder that evaluates
axisymmetric integrals over phi in [0, pi] at doubling Gauss-Legendre
orders until successive estimates pass that test; the checks of both
field engines' observation points, curve grids and beam ranges and
angles (:func:`observation_points`, :func:`axial_grid`,
:func:`range_and_angles`); and the one scalar root finder, Brent's
method (:func:`brentq`), which the plate eigenvalues, nodal radii and
thickness sizing share.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .errors import NumericalFailureError, ParameterDomainError

#: refinement rule for adaptive quadrature: successive orders must agree
#: within this many dB
REFINE_DB = 0.05
_REL_TOL = 10.0 ** (REFINE_DB / 20.0) - 1.0
#: smallest relative tolerance :func:`brentq` accepts
_BRENT_RTOL = 4.0 * float(np.finfo(float).eps)
#: iterations after which :func:`brentq` gives up (scipy's default)
_BRENT_MAXITER = 100
#: one J0 value and one barycentric-row entry, in the real multiply-adds of
#: a matrix product that cost as much; they set :func:`kernel_split`'s split
#: between kernel and direct columns.  Measured in
#: :func:`linfield.pressure_grid` with one BLAS thread: 35 ns per J0 value,
#: 2.8 ns per row entry, 0.032 ns per multiply-add
_J0_COST = 1100
_ROW_COST = 90
#: the propagating branch of the Hankel-domain field integrals: panels of
#: ``_PROP_ORDER`` Gauss-Legendre points, one per ``_PROP_PHASE`` rad of the
#: branch's phase scale, and never fewer than ``_PROP_FLOOR`` points
#: (:func:`propagating_panels`)
_PROP_ORDER = 64
_PROP_PHASE = 88.0
_PROP_FLOOR = 384
#: Gauss-Legendre order of the propagating branch's tip panels and of the
#: evanescent branch
_PANEL_ORDER = 16


def trapezoid_weights(x: np.ndarray) -> np.ndarray:
    """Trapezoid-rule weights on the nodes ``x``."""
    w = np.zeros_like(x)
    dx = np.diff(x)
    w[:-1] += 0.5 * dx
    w[1:] += 0.5 * dx
    return w


def simpson_weights(x: np.ndarray) -> np.ndarray:
    """Composite Simpson weights on a (possibly non-uniform) grid.

    Integrates the quadratic through consecutive node triples; needs the
    spacing ratio of adjacent intervals below 2 to keep weights
    positive, which the grid builders guarantee.  Falls back to a
    trapezoid panel at the end for an odd interval count.
    """
    n = x.size
    if n < 3:
        return trapezoid_weights(x)
    w = np.zeros_like(x)
    for i in range(0, n - 2, 2):
        h1 = x[i + 1] - x[i]
        h2 = x[i + 2] - x[i + 1]
        big_h = h1 + h2
        w[i] += big_h * (2.0 * h1 - h2) / (6.0 * h1)
        w[i + 1] += big_h ** 3 / (6.0 * h1 * h2)
        w[i + 2] += big_h * (2.0 * h2 - h1) / (6.0 * h2)
    if n % 2 == 0:  # one interval left
        h = x[-1] - x[-2]
        w[-2] += 0.5 * h
        w[-1] += 0.5 * h
    return w


@lru_cache(maxsize=64)
def gauss_legendre(order: int):
    """Gauss-Legendre nodes and weights on [-1, 1]."""
    return np.polynomial.legendre.leggauss(order)


def _panel_nodes(edges: np.ndarray, order: int):
    """Composite ``order``-point Gauss-Legendre nodes/weights over consecutive panels."""
    x, w = gauss_legendre(order)
    lo = edges[:-1][:, None]
    hi = edges[1:][:, None]
    nodes = 0.5 * (hi - lo) * (x[None, :] + 1.0) + lo
    wts = 0.5 * (hi - lo) * w[None, :]
    return nodes.ravel(), wts.ravel()


def propagating_panels(phase_scale):
    """Panels of the propagating branch for a phase scale x (an array of
    counts for an array of scales).

    The branch k_r = k0 sin(theta) integrates J0(k_r rho) e^{-i k_z z},
    whose phase over the branch is of the order of x = k0 times the
    largest distance hypot(z, rho) it serves.  ceil(x / ``_PROP_PHASE``)
    panels of ``_PROP_ORDER`` points, at least ``_PROP_FLOOR`` points: 0.73
    points per rad of x, where 16-point panels of 12 rad took 1.33.  A
    Gauss rule of high order needs few points per wavelength of an
    oscillatory integrand (Trefethen, SIAM Rev. 50, 2008): a panel spans
    at most 0.98 (pi/2) ``_PROP_PHASE`` rad of phase, and one 64-point
    panel integrates e^{iat} on [-1, 1] to 3.3e-15 at that half-phase, a =
    68, the rounding floor of the rule, but only to 8.9e-14 at a = 85 and
    to 7.7e-8 at a = 99.  At 96 rad per panel, one block's node set and
    the shared node sets of :func:`linfield.pressure_grid` part by up to
    1.2e-12 of a column's maximum on the 90 kHz reference grid (8.1e-13
    at 88).
    """
    n = np.maximum(_PROP_FLOOR // _PROP_ORDER,
                   np.ceil(np.asarray(phase_scale, dtype=float) / _PROP_PHASE)).astype(int)
    return int(n) if n.ndim == 0 else n


def wavenumber_nodes(k0: float, n_panels: int, u_span=None) -> tuple:
    """Radial wavenumbers k_r and their integration weights dk_r.

    The two substitutions of the Hankel-domain (angular-spectrum) field
    integrals, on Gauss-Legendre panels:

    * ``u_span`` None: the propagating branch k_r = k0 sin(theta), theta
      in [0, pi/2], on ``n_panels`` 64-point panels up to 0.98 pi/2
      (:func:`propagating_panels` counts them) and 16 finer 16-point tip
      panels beyond, where k_r/k_z peaks;
    * ``u_span = (u_lo, u_hi)``: the evanescent branch k_r = k0 cosh(u)
      on ``n_panels`` 16-point panels over [u_lo, u_hi]; a branch that
      starts at u = 0 gets six finer panels up to min(0.06, u_hi/2) first,
      since under absorption k_z turns complex just past k_r = k0.
    """
    if u_span is None:
        main = np.linspace(0.0, 0.98 * np.pi / 2.0, n_panels + 1)
        tip = np.linspace(0.98 * np.pi / 2.0, np.pi / 2.0, 17)
        (th_main, w_main), (th_tip, w_tip) = (_panel_nodes(main, _PROP_ORDER),
                                              _panel_nodes(tip, _PANEL_ORDER))
        theta, w_th = np.concatenate([th_main, th_tip]), np.concatenate([w_main, w_tip])
        return k0 * np.sin(theta), k0 * np.cos(theta) * w_th
    u_lo, u_hi = u_span
    if u_lo == 0.0:
        fine_end = min(0.06, 0.5 * u_hi)
        edges = np.concatenate([
            np.linspace(0.0, fine_end, 7),
            np.linspace(fine_end, u_hi, n_panels + 1)[1:],
        ])
    else:
        edges = np.linspace(u_lo, u_hi, n_panels + 1)
    u, w_u = _panel_nodes(edges, _PANEL_ORDER)
    return k0 * np.cosh(u), k0 * np.sinh(u) * w_u


def chebyshev_points(n: int, hi: float, lo: float = 0.0) -> np.ndarray:
    """The ``n`` >= 2 Chebyshev points of the second kind on [lo, hi], ascending.

    x_j = lo + (hi - lo) sin^2(pi j / (2 (n - 1))), the extrema of T_{n-1}
    mapped from [-1, 1]; the sine form keeps the points near lo accurate,
    and the ends are lo and hi exactly.
    """
    pts = lo + (hi - lo) * np.sin(0.5 * np.pi * np.arange(n) / (n - 1)) ** 2
    pts[-1] = hi
    return pts


def chebyshev_count(span: float, tau):
    """Chebyshev points that resolve an entire function of exponential type
    ``tau`` on an interval of length ``span`` to rounding (an array of
    counts for an array of types).

    n = ceil(x + 8 x^(1/3)) + 16 with x = span * tau / 2: on [-1, 1] such a
    function behaves as exp(i x t), whose Chebyshev coefficients J_n(x)
    decay super-exponentially once n passes x by a few multiples of the
    x^(1/3) width of their turning region.  Measured on J0(k rho): below
    1e-14 absolute for x from 25 to 800 (7.9e-15 at 800).  Measured on the
    audio sum's spectra (:meth:`nlfield.QuasilinearSolver._evaluated`,
    type r_max + 40 / kappa_min on blocks past 2 k_a): against their
    evaluation at every node, the reference pair's audio-pc, audio-bp,
    61-angle and 33-point requests at carriers of 40, 60, 64.67 and 90
    kHz, and points on, below and past the source planes, move by at most
    1.7e-15 relative, pointwise.
    """
    x = 0.5 * span * np.asarray(tau, dtype=float)
    n = np.ceil(x + 8.0 * np.cbrt(x)).astype(int) + 16
    return int(n) if n.ndim == 0 else n


def kernel_split(n_k: int, k_span: float, rho_s: np.ndarray, run) -> tuple:
    """Kernel columns and rank of a sum over the columns J0(k_r rho_j).

    A product of rows of coefficients with the columns J0(k_r rho_j) of
    ``rho_s`` (ascending) at n_k wavenumbers k_r, which span ``k_span``:
    ``run`` holds (lo, hi, n) per block of planes, planes lo..hi using the
    first n columns, each plane one complex (two real) rows.  The first m
    columns can take J0(k_r rho) through its interpolant at n_c =
    :func:`chebyshev_count` (k_span, rho_s[m-1]) Chebyshev points on the
    nodes' range.  That costs n_c barycentric rows over the nodes, n_c
    accumulated values per plane and node, n_c * m J0 values and one
    product per plane; the direct form costs J0 on every node and a
    product per plane and node for each column.  Returns the (m, n_c)
    that saves most by ``_J0_COST`` and ``_ROW_COST``, with n_c < m, or
    (0, 0).
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


def barycentric_rows(pts: np.ndarray, x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Lagrange basis of the Chebyshev points ``pts`` at ``x``, written into ``out``.

    ``pts`` are the n points of :func:`chebyshev_points` on some interval,
    and ``out`` has shape (n, x.size); column m holds l_c(x_m), c = 0..n-1,
    so that sum_c l_c(x_m) f_c is the interpolant of the values f_c at x_m.
    The barycentric formula of the second kind (Berrut & Trefethen, SIAM
    Rev. 46, 2004): l_c(x) = (w_c / (x - x_c)) / sum_j w_j / (x - x_j) with
    w_j = (-1)^j halved at both ends, which is forward stable on these
    points.  A point of ``x`` on a node gets that node's unit column.
    """
    n = pts.size
    wts = np.where(np.arange(n) % 2, -1.0, 1.0)
    wts[[0, -1]] *= 0.5
    with np.errstate(divide="ignore", invalid="ignore"):
        np.subtract.outer(pts, x, out=out)
        np.divide(wts[:, None], out, out=out)
        np.divide(out, out.sum(axis=0), out=out)
    on = np.minimum(np.searchsorted(pts, x), n - 1)
    hit = np.flatnonzero(pts[on] == x)
    if hit.size:
        out[:, hit] = 0.0
        out[on[hit], hit] = 1.0
    return out


def chebyshev_interpolate(values: np.ndarray, hi: float, x: np.ndarray,
                          work: np.ndarray) -> np.ndarray:
    """Interpolant of complex ``values`` at ``chebyshev_points(n, hi)``, at ``x``.

    The polynomial of degree n - 1 through the n values, from the rows of
    :func:`barycentric_rows`.  The rows of consecutive points fill the
    float64 buffer ``work`` in chunks, and each chunk's sums are one real
    matrix product.
    """
    n = values.size
    pts = chebyshev_points(n, hi)
    rhs = np.column_stack([values.real, values.imag])
    sums = np.empty((x.size, 2))
    chunk = max(1, work.size // n)
    for s in range(0, x.size, chunk):
        x_s = x[s:s + chunk]
        rows = barycentric_rows(pts, x_s, work[:x_s.size * n].reshape(n, x_s.size))
        np.matmul(rows.T, rhs, out=sums[s:s + chunk])
    return sums[:, 0] + 1j * sums[:, 1]


def plane_steps(z: np.ndarray, kz: np.ndarray, planes: np.ndarray | None = None) -> tuple:
    """Propagation factors between consecutive planes ``z``.

    Returns ``(step, gap_row)``: row ``gap_row[j]`` of ``step`` holds
    exp(-i k_z (z[j+1] - z[j])) for every ``kz``, one exponential per
    distinct gap; a recursion over the planes multiplies by these rows
    instead of evaluating exp(-i k_z z) on every plane.  Only the near
    zone repeats its gaps: on the reference volume grid the 278 planes
    below z = a use 5 distinct gaps, while past z ~ a the march changes
    its step nearly every plane, 281 distinct gaps among the other 623
    planes (286 among all 900 gaps, and 280 stay distinct when rounded to
    1e-12 m, so they are not rounding variants of a few steps).

    With the sorted plane indices ``planes``, a recursion visits only
    those: ``gap_row[t]`` is the row for the step from ``planes[t]`` to
    ``planes[t + 1]``, the exponential of their gap where they are
    neighbours and a row of zeros where planes between them are left
    out, so that the recursion restarts from zero there.
    """
    if planes is None:
        gaps, gap_row = np.unique(np.diff(z), return_inverse=True)
        return np.exp(-1j * np.outer(gaps, kz)), gap_row
    inner = np.flatnonzero(np.diff(planes) == 1)
    gaps, rows = np.unique(z[planes[inner] + 1] - z[planes[inner]], return_inverse=True)
    step = np.zeros((gaps.size + 1, kz.size), dtype=complex)
    np.exp(-1j * np.outer(gaps, kz), out=step[:-1])
    gap_row = np.full(planes.size - 1, gaps.size)
    gap_row[inner] = rows
    return step, gap_row


def observation_points(rho, z) -> tuple:
    """``rho`` and ``z`` as float arrays of at least one dimension.

    Raises :class:`ParameterDomainError` unless they have one shape and
    every point is finite with rho >= 0 and z >= 0.
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
    return rho, z


def axial_grid(z_grid) -> np.ndarray:
    """The abscissa ``z_grid`` of an on-axis curve as a float array; raises
    :class:`ParameterDomainError` unless non-empty, finite, positive and
    strictly increasing."""
    z = np.asarray(z_grid, dtype=float)
    if (z.size == 0 or not np.all(np.isfinite(z) & (z > 0))
            or (z.size > 1 and np.any(np.diff(z) <= 0))):
        raise ParameterDomainError(
            "z grid must be non-empty, finite, positive and strictly increasing")
    return z


def range_and_angles(r: float, theta_deg) -> np.ndarray:
    """The polar angles ``theta_deg`` of a curve at range ``r`` as a float
    array; raises :class:`ParameterDomainError` unless ``r`` is finite and
    positive and the angles non-empty, finite and within [-90, 90] degrees."""
    if not 0 < r < np.inf:
        raise ParameterDomainError("range r must be positive and finite")
    theta = np.asarray(theta_deg, dtype=float)
    if theta.size == 0 or not np.all(np.abs(theta) <= 90.0):
        raise ParameterDomainError(
            "theta must be non-empty, finite and within [-90, 90] degrees")
    return theta


def refined(step, value, abs_floor: float = 0.0):
    """True where a refinement ``step`` moved ``value`` by at most ``REFINE_DB``.

    The test is relative to the refined value (plus ``abs_floor``), on the
    complex difference, so it bounds phase as well as level changes.
    """
    return np.abs(step) <= _REL_TOL * np.abs(value) + abs_floor


def parabolic_peak(x: np.ndarray, y: np.ndarray, i: int) -> tuple:
    """Sub-grid vertex of the parabola through samples i-1, i, i+1.

    Coordinates are centred on the middle sample before solving, which
    keeps the vertex free of catastrophic cancellation at large x.
    """
    if i == 0 or i == x.size - 1:
        return float(x[i]), float(y[i])
    h0 = x[i - 1] - x[i]
    h2 = x[i + 1] - x[i]
    y0, y1, y2 = y[i - 1], y[i], y[i + 1]
    denom = h0 * h2 * (h0 - h2)
    a = (h2 * (y0 - y1) - h0 * (y2 - y1)) / denom
    if a == 0:
        return float(x[i]), float(y1)
    b = (h0 ** 2 * (y2 - y1) - h2 ** 2 * (y0 - y1)) / denom
    tv = -b / (2.0 * a)
    if not h0 <= tv <= h2:
        return float(x[i]), float(y1)
    return float(x[i] + tv), float(y1 + a * tv ** 2 + b * tv)


def azimuthal_ladder(partial, n_points: int, start_order: int, max_order: int,
                     abs_floor: float, what: str) -> np.ndarray:
    """Adaptive Gauss-Legendre integration over phi in [0, pi] for many points.

    ``partial(todo, cosphi, wphi)`` returns the complex estimates of the
    points indexed by ``todo`` for the azimuthal nodes ``cos(phi)`` and
    weights ``wphi``.  The order starts at ``start_order`` and doubles; a
    point is retired once two successive estimates pass :func:`refined`
    with ``abs_floor`` and is not evaluated again.  Raises
    :class:`NumericalFailureError` naming ``what`` when an order above
    ``max_order`` would be needed.
    """
    out = np.zeros(n_points, dtype=complex)
    todo = np.arange(n_points)
    prev = None
    order = start_order
    while todo.size:
        if order > max_order:
            raise NumericalFailureError(
                f"{what} failed to converge within relative tolerance "
                f"{_REL_TOL:.3g} at order {max_order} ({todo.size} points left)"
            )
        x, wgl = gauss_legendre(order)
        cosphi = np.cos(0.5 * np.pi * (x + 1.0))
        wphi = wgl * (np.pi / 2.0)
        cur = partial(todo, cosphi, wphi)
        if prev is not None:
            done = refined(cur - prev, cur, abs_floor)
            out[todo[done]] = cur[done]
            todo = todo[~done]
            prev = cur[~done]
        else:
            prev = cur
        order *= 2
    return out


def brentq(f, a: float, b: float, args=(), xtol: float = 2e-12,
           rtol: float = _BRENT_RTOL) -> float:
    """Root of ``f(x, *args)`` in the sign-changing bracket [a, b].

    Brent's method (Brent 1973, *Algorithms for Minimization without
    Derivatives*, ch. 4) in the form of scipy's ``Zeros/brentq.c``,
    line for line: the same floating-point operations in the same order,
    so the root is bit-identical to scipy's ``brentq``.  The
    result is within ``xtol + rtol*|x|`` of a root.  An unbracketed
    interval, ``xtol <= 0`` or ``rtol < 4*eps`` raise
    :class:`ParameterDomainError`; a non-finite ``f`` or ``_BRENT_MAXITER``
    iterations without convergence raise :class:`NumericalFailureError`.
    """
    if not xtol > 0.0:
        raise ParameterDomainError(f"brentq: xtol must be positive, got {xtol:g}")
    if not rtol >= _BRENT_RTOL:
        raise ParameterDomainError(f"brentq: rtol {rtol:g} below 4*eps = {_BRENT_RTOL:g}")

    def call(x: float) -> float:
        fx = float(f(x, *args))
        if not math.isfinite(fx):
            raise NumericalFailureError(f"brentq: f({x!r}) = {fx}")
        return fx

    xpre, xcur = float(a), float(b)
    fpre = call(xpre)
    fcur = call(xcur)
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise ParameterDomainError(
            f"brentq: f({xpre!r}) = {fpre:g} and f({xcur!r}) = {fcur:g} "
            "must have different signs")
    xblk = fblk = spre = scur = 0.0
    for _ in range(_BRENT_MAXITER):
        if fpre != 0.0 and fcur != 0.0 and \
                math.copysign(1.0, fpre) != math.copysign(1.0, fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur

        delta = (xtol + rtol * abs(xcur)) / 2.0  # the tolerance is 2*delta
        sbis = (xblk - xcur) / 2.0
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur

        if abs(spre) > delta and abs(fcur) < abs(fpre):
            try:
                if xpre == xblk:  # interpolate
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:  # extrapolate
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            except ZeroDivisionError:  # C gets inf or nan here, which bisects
                stry = math.nan
            bound = 3.0 * abs(sbis) - delta
            if 2.0 * abs(stry) < (abs(spre) if abs(spre) < bound else bound):
                spre, scur = scur, stry  # good short step
            else:
                spre = scur = sbis  # bisect
        else:
            spre = scur = sbis  # bisect

        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0.0 else -delta
        fcur = call(xcur)
    raise NumericalFailureError(
        f"brentq: no convergence in {_BRENT_MAXITER} iterations; last x = {xcur!r}, "
        f"f(x) = {fcur:g}")
