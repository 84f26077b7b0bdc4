"""Two-objective references for the NSGA-II tests.

The exact dominated hypervolume of a point set: the package keeps no
hypervolume, since NSGA-II returns its archive, and the tests measure the
archive's convergence and monotonicity with it.  And the archive update by
n x n dominance and equality matrices, which the package's one sweep in
(F1, F2) order must match bit for bit.
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


def archive_update(arch_x, arch_f, new_x, new_f):
    """The points of ``arch_f`` then ``new_f`` that no point dominates, the
    first of exact duplicates, in input order, with their design vectors:
    the reference of ``optimizer._archive_update``."""
    xs = list(arch_x) + list(new_x)
    fs = list(arch_f) + list(new_f)
    f = np.array(fs)
    a, b = f[:, None, :], f[None, :, :]
    dominated = (np.all(a <= b, axis=2) & np.any(a < b, axis=2)).any(axis=0)
    same = np.all(a == b, axis=2)
    keep = ~dominated & ~np.tril(same, -1).any(axis=1)
    idx = np.flatnonzero(keep)
    return [xs[i] for i in idx], [fs[i] for i in idx]
