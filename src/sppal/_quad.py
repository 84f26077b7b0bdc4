"""Quadrature building blocks shared by the field solvers.

One home for each rule: trapezoid and non-uniform composite Simpson
weights, the cached Gauss-Legendre node table, the three-point parabolic
peak refinement, and the adaptive azimuthal ladder that evaluates
axisymmetric integrals over phi in [0, pi] at doubling Gauss-Legendre
orders until successive estimates agree within ``REFINE_DB``.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .errors import NumericalFailureError

#: refinement rule for adaptive quadrature: successive orders must agree
#: within this many dB
REFINE_DB = 0.05
_REL_TOL = 10.0 ** (REFINE_DB / 20.0) - 1.0


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
    point is retired once two successive estimates agree within
    ``REFINE_DB`` (relative) plus ``abs_floor`` and is not evaluated
    again.  Raises :class:`NumericalFailureError` naming ``what`` when an
    order above ``max_order`` would be needed.
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
            done = np.abs(cur - prev) <= _REL_TOL * np.abs(cur) + abs_floor
            out[todo[done]] = cur[done]
            todo = todo[~done]
            prev = cur[~done]
        else:
            prev = cur
        order *= 2
    return out
