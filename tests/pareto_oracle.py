"""Exact dominated hypervolume of a two-objective point set.

The package keeps no hypervolume: NSGA-II returns its archive, and the
tests measure the archive's convergence and monotonicity with this.
"""

import numpy as np


def hypervolume_2d(f: np.ndarray, ref: tuple) -> float:
    """Area dominated by the points ``f`` (minimization) and bounded by
    the reference point ``ref``."""
    if f.size == 0:
        return 0.0
    pts = f[np.all(f <= np.asarray(ref), axis=1)]
    if pts.size == 0:
        return 0.0
    # in (f1, f2) order every dominated point has f2 >= the running minimum
    hv = 0.0
    prev_f2 = ref[1]
    for f1, f2 in pts[np.lexsort((pts[:, 1], pts[:, 0]))]:
        if f2 < prev_f2:
            hv += (ref[0] - f1) * (prev_f2 - f2)
            prev_f2 = f2
    return float(hv)
