"""Quadrature building blocks shared by the field solvers.

One home for each rule: trapezoid and non-uniform composite Simpson
weights, the cached Gauss-Legendre node table, the radial-wavenumber
nodes of the Hankel-domain field integrals and their plane-to-plane
propagation factors, Chebyshev points with their point-count rule and
barycentric interpolation rows, the three-point parabolic peak
refinement, the ``REFINE_DB`` refinement test, and the adaptive
azimuthal ladder that evaluates axisymmetric integrals over phi in
[0, pi] at doubling Gauss-Legendre orders until successive estimates
pass that test; and the one scalar root finder, Brent's method
(:func:`brentq`), which the plate eigenvalues, nodal radii and
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


def _panel_nodes(edges: np.ndarray):
    """Composite 16-point Gauss-Legendre nodes/weights over consecutive panels."""
    x, w = gauss_legendre(16)
    lo = edges[:-1][:, None]
    hi = edges[1:][:, None]
    nodes = 0.5 * (hi - lo) * (x[None, :] + 1.0) + lo
    wts = 0.5 * (hi - lo) * w[None, :]
    return nodes.ravel(), wts.ravel()


def wavenumber_nodes(k0: float, n_panels: int, u_span=None) -> tuple:
    """Radial wavenumbers k_r and their integration weights dk_r.

    The two substitutions of the Hankel-domain (angular-spectrum) field
    integrals, each on 16-point Gauss-Legendre panels:

    * ``u_span`` None: the propagating branch k_r = k0 sin(theta), theta
      in [0, pi/2], on ``n_panels`` panels up to 0.98 pi/2 and 16 finer
      tip panels beyond, where k_r/k_z peaks;
    * ``u_span = (u_lo, u_hi)``: the evanescent branch k_r = k0 cosh(u)
      on ``n_panels`` panels over [u_lo, u_hi]; a branch that starts at
      u = 0 gets six finer panels up to min(0.06, u_hi/2) first, since
      under absorption k_z turns complex just past k_r = k0.
    """
    if u_span is None:
        main = np.linspace(0.0, 0.98 * np.pi / 2.0, n_panels + 1)
        tip = np.linspace(0.98 * np.pi / 2.0, np.pi / 2.0, 17)[1:]
        theta, w_th = _panel_nodes(np.concatenate([main, tip]))
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
    u, w_u = _panel_nodes(edges)
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
    1e-14 absolute for x from 25 to 800 (7.9e-15 at 800).
    """
    x = 0.5 * span * np.asarray(tau, dtype=float)
    n = np.ceil(x + 8.0 * np.cbrt(x)).astype(int) + 16
    return int(n) if n.ndim == 0 else n


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


def plane_steps(z: np.ndarray, kz: np.ndarray) -> tuple:
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
    """
    gaps, gap_row = np.unique(np.diff(z), return_inverse=True)
    return np.exp(-1j * np.outer(gaps, kz)), gap_row


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
           rtol: float = _BRENT_RTOL, maxiter: int = 100) -> float:
    """Root of ``f(x, *args)`` in the sign-changing bracket [a, b].

    Brent's method (Brent 1973, *Algorithms for Minimization without
    Derivatives*, ch. 4) in the form of scipy's ``Zeros/brentq.c``,
    line for line: the same floating-point operations in the same order,
    so the root is bit-identical to scipy's ``brentq``.  The
    result is within ``xtol + rtol*|x|`` of a root.  An unbracketed
    interval, ``xtol <= 0`` or ``rtol < 4*eps`` raise
    :class:`ParameterDomainError`; a non-finite ``f`` or ``maxiter``
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
    for _ in range(maxiter):
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
        f"brentq: no convergence in {maxiter} iterations; last x = {xcur!r}, "
        f"f(x) = {fcur:g}")
