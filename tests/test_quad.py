import ast
import math
import re
from pathlib import Path

import numpy as np
import pytest
from scipy import optimize, special

from sppal import _quad
from sppal import radiator as rad
from sppal.errors import InfeasibleDesignError, NumericalFailureError, ParameterDomainError
from sppal.materials import BUILTIN_MATERIALS

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "sppal"


def test_no_private_imports_across_modules():
    # shared helpers live in sppal._quad under public names; importing a
    # module's private helper from another module (at any nesting depth)
    # is a layering leak
    leaks = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if not isinstance(node, ast.ImportFrom) or node.level == 0:
                continue
            for alias in node.names:
                name = alias.name
                if name.startswith("_") and not name.endswith("__"):
                    leaks.append(f"{path.name}:{node.lineno} "
                                 f"from .{node.module or ''} import {name}")
    assert not leaks, leaks


def test_no_public_surface_that_nothing_calls():
    # every public function, class, method and property of the package is
    # named, as a word, somewhere outside the definitions of that name: in
    # src/sppal, a demo, the README or the benchmark's tracer
    # (bench/spans.py); and every field of a public dataclass is read as
    # an attribute there.  What only the tests call lives under tests/
    sources = {path: path.read_text().splitlines() for path in sorted(SRC.glob("*.py"))}
    definitions = {}  # name -> [(path, first line, last line)]
    fields = []  # (path, line, class, field)
    for path, lines in sources.items():
        bodies = [ast.parse("\n".join(lines), filename=str(path)).body]
        while bodies:
            for node in bodies.pop():
                if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                    continue
                if not node.name.startswith("_"):
                    definitions.setdefault(node.name, []).append(
                        (path, node.lineno, node.end_lineno))
                if isinstance(node, ast.ClassDef):
                    bodies.append(node.body)
                    if not node.name.startswith("_") and any(
                            ast.unparse(d).split("(")[0] == "dataclass"
                            for d in node.decorator_list):
                        fields += [(path, f.lineno, node.name, f.target.id) for f in node.body
                                   if isinstance(f, ast.AnnAssign)
                                   and isinstance(f.target, ast.Name)
                                   and not f.target.id.startswith("_")]
    elsewhere = "\n".join([(ROOT / "README.md").read_text(),
                           (ROOT / "bench" / "spans.py").read_text(),
                           *(p.read_text() for p in sorted((ROOT / "demos").glob("*.py")))])
    unnamed = []
    for name, defs in sorted(definitions.items()):
        word = re.compile(rf"\b{name}\b")
        if word.search(elsewhere) or any(
                word.search(line) and not any(p == path and lo <= i <= hi for p, lo, hi in defs)
                for path, lines in sources.items() for i, line in enumerate(lines, 1)):
            continue
        unnamed += [f"{path.name}:{lo} {name}" for path, lo, _ in defs]
    text = "\n".join([elsewhere, *("\n".join(lines) for lines in sources.values())])
    unnamed += [f"{path.name}:{line} {cls}.{name}" for path, line, cls, name in fields
                if not re.search(rf"\.{name}\b", text)]
    assert not unnamed, unnamed


def test_one_critical_point_path():
    # outside nlfield, a pair's audio maximum comes only from
    # nlfield.critical_point: no other module builds a solver or locates a
    # curve's maximum, so no second audio-response loop can return
    calls = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "nlfield.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "attr", getattr(node.func, "id", None))
                if name in ("QuasilinearSolver", "find_audio_cd"):
                    calls.append(f"{path.name}:{node.lineno} {name}")
    assert not calls, calls


@pytest.mark.parametrize("n", [3, 4, 9, 10])
def test_simpson_weights_on_nonuniform_grid(n):
    # adjacent spacing ratio stays below 2, as the grid builders guarantee
    x = np.cumsum(0.1 * 1.3 ** np.arange(n)) - 0.1
    w = _quad.simpson_weights(x)
    assert np.all(w > 0)
    assert w.sum() == pytest.approx(x[-1] - x[0], rel=1e-13)
    if n % 2 == 1:  # no trapezoid end panel: quadratics are exact
        exact = (x[-1] ** 3 - x[0] ** 3) / 3.0
        assert w @ x ** 2 == pytest.approx(exact, rel=1e-13)


def test_azimuthal_ladder_failure_retires_settled_points():
    calls = []
    settled = {0, 2}

    def partial(todo, cosphi, wphi):
        calls.append((cosphi.size, todo.copy()))
        # settled points return a constant; the others grow with the
        # order and never pass the relative test
        return np.array([1.0 if i in settled else float(cosphi.size) ** 2
                         for i in todo], dtype=complex)

    with pytest.raises(NumericalFailureError, match="probe integral"):
        _quad.azimuthal_ladder(partial, 4, 4, 32, 0.0, "probe integral")
    assert [order for order, _ in calls] == [4, 8, 16, 32]
    assert calls[0][1].tolist() == [0, 1, 2, 3]
    assert calls[1][1].tolist() == [0, 1, 2, 3]
    for _, todo in calls[2:]:
        assert todo.tolist() == [1, 3]


@pytest.mark.parametrize("u_span", [None, (0.0, 1.3), (1.3, 2.1)])
def test_wavenumber_nodes_cover_their_branch(u_span):
    # the weights are dk_r: they sum to the k_r interval of the branch,
    # and the k_r nodes stay inside it in ascending order
    k0 = 18.3
    kr, w = _quad.wavenumber_nodes(k0, 5, u_span)
    lo, hi = (0.0, k0) if u_span is None else (k0 * np.cosh(u_span[0]),
                                               k0 * np.cosh(u_span[1]))
    assert np.all(np.diff(kr) > 0) and lo <= kr[0] and kr[-1] <= hi
    assert w.sum() == pytest.approx(hi - lo, rel=1e-13)
    # 16-point panels: a smooth integrand such as k_r^3 is exact
    assert w @ kr ** 3 == pytest.approx((hi ** 4 - lo ** 4) / 4.0, rel=1e-12)


def test_plane_steps_one_exponential_per_gap():
    # binary fractions keep the repeated gaps exactly equal
    z = np.array([0.25, 0.75, 1.25, 1.25, 2.0])
    kz = np.array([2.0, 3.0 - 0.5j])
    step, gap_row = _quad.plane_steps(z, kz)
    assert step.shape == (3, 2)  # gaps 0, 0.5 and 0.75
    assert np.array_equal(step[gap_row], np.exp(-1j * np.outer(np.diff(z), kz)))
    assert np.array_equal(step[gap_row[2]], [1.0, 1.0])


def test_chebyshev_interpolate_is_exact_on_polynomials():
    # degree n - 1 through n points: exact up to rounding, in chunks of a
    # small buffer, on the nodes themselves and between them
    n, hi = 9, 3.0
    pts = _quad.chebyshev_points(n, hi)
    assert pts[0] == 0.0 and pts[-1] == hi and np.all(np.diff(pts) > 0)
    coef = np.array([0.3, -1.0, 2.0, 0.5, -0.25, 0.1, 0.0, 0.02, -0.01])
    poly = np.polynomial.Polynomial(coef + 1j * coef[::-1])
    x = np.concatenate([np.linspace(0.0, hi, 50), pts[[2, 5]]])
    got = _quad.chebyshev_interpolate(poly(pts), hi, x, np.empty(4 * n))
    assert np.max(np.abs(got - poly(x))) <= 1e-13 * np.max(np.abs(poly(x)))
    assert got[-2] == poly(pts[2]) and got[-1] == poly(pts[5])


def test_chebyshev_count_resolves_bessel_kernel():
    # J0(k rho) on [k_lo, k_hi], an entire function of k of exponential type
    # rho, through its interpolant at the rule's points: x = (k_hi - k_lo)
    # rho / 2 from about 25 to about 800 (measured at most 7.5e-15), on the
    # propagating range [0, k0] and the evanescent one [k0, 4 k0] at 60 kHz
    for k_lo, k_hi, rhos in ((0.0, 1098.0, (0.046, 0.1, 0.3, 0.7, 1.46)),
                             (1098.0, 4392.0, (0.016, 0.1, 0.48))):
        k = np.linspace(k_lo, k_hi, 4001)
        for rho in rhos:
            x = 0.5 * (k_hi - k_lo) * rho
            n = _quad.chebyshev_count(k_hi - k_lo, rho)
            assert n == np.ceil(x + 8.0 * np.cbrt(x)) + 16
            pts = _quad.chebyshev_points(n, k_hi, k_lo)
            assert pts[0] == k_lo and pts[-1] == k_hi
            rows = _quad.barycentric_rows(pts, k, np.empty((n, k.size)))
            got = special.j0(pts * rho) @ rows
            assert np.max(np.abs(got - special.j0(k * rho))) <= 1e-14
    assert np.array_equal(_quad.chebyshev_count(1098.0, np.array([0.046, 1.46])),
                          [_quad.chebyshev_count(1098.0, 0.046),
                           _quad.chebyshev_count(1098.0, 1.46)])


def test_barycentric_rows_are_a_partition_of_unity():
    # each column sums to one, and a point on a node takes that node's unit
    # column
    n, lo, hi = 12, 1.5, 4.0
    pts = _quad.chebyshev_points(n, hi, lo)
    x = np.concatenate([np.linspace(lo, hi, 33), pts[[0, 4, n - 1]]])
    rows = _quad.barycentric_rows(pts, x, np.empty((n, x.size)))
    assert np.allclose(rows.sum(axis=0), 1.0, rtol=0.0, atol=1e-14)
    assert np.array_equal(rows[:, -3:], np.eye(n)[:, [0, 4, n - 1]])


@pytest.mark.parametrize("source", ["piston", "plate"])
def test_chebyshev_source_transform_matches_direct_sum(std_air, source):
    # V(k_r) = sum_j w_j v_j J0(k_r r_j) from its Chebyshev interpolant on
    # [0, 4 k0] with the point rule _quad.chebyshev_count, at the
    # propagating and evanescent nodes and on a Chebyshev point
    f = 60e3
    if source == "piston":
        a = rad.aperture_for_cd(0.45, f, std_air)
        prof = rad.piston_profile(rad.PistonSpec(a, 0.1), rad.radial_sample_count(a, f, std_air))
    else:
        plate = rad.size_plate_for(f, 0.45, 8, "aluminum", std_air)
        n = rad.radial_sample_count(plate.radius_a, f, std_air)
        prof = rad.stepped_profile(rad.plate_mode_shape(plate), 1.0, n_samples=n)
    r = prof.radii
    w = _quad.simpson_weights(r) * r * prof.velocity
    k0 = std_air.wavenumber(f)
    k_top = 4.0 * k0
    pts = _quad.chebyshev_points(_quad.chebyshev_count(k_top, r[-1]), k_top)
    kr = np.concatenate([_quad.wavenumber_nodes(k0, 60)[0],
                         _quad.wavenumber_nodes(k0, 40, (0.0, np.arccosh(4.0)))[0],
                         pts[[7]], [k_top]])
    got = _quad.chebyshev_interpolate(special.j0(np.outer(pts, r)) @ w, k_top, kr,
                                      np.empty(2 ** 12))
    want = special.j0(np.outer(kr, r)) @ w
    assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


def test_refined_is_the_refine_db_rule():
    tol = 10.0 ** (_quad.REFINE_DB / 20.0) - 1.0
    value = np.array([1.0, 1.0, 2.0j])
    step = np.array([0.99 * tol, 1.01 * tol, 1.98j * tol])
    assert _quad.refined(step, value).tolist() == [True, False, True]


# ---------------------------------------------------------------------------
# brentq: bit for bit against scipy.optimize.brentq, the independent oracle
# ---------------------------------------------------------------------------

def _both_root_finders(monkeypatch, run):
    """``run()`` with radiator's roots from ``_quad.brentq``, then from scipy's.

    The eigenvalue caches are emptied around each pass, so the second pass
    solves every root again.
    """
    caches = (rad._mode_eigenvalues, rad._eigenvalue_for_mode)
    results = []
    for finder in (_quad.brentq, optimize.brentq):
        with monkeypatch.context() as m:
            m.setattr(rad, "brentq", finder)
            for cache in caches:
                cache.cache_clear()
            results.append(run())
    for cache in caches:
        cache.cache_clear()
    return results


@pytest.mark.parametrize("boundary", list(rad.Boundary))
def test_brentq_plate_eigenvalues_match_scipy(monkeypatch, boundary):
    # roots of _free_char / _clamped_char, bracketed as _mode_eigenvalues does
    def run():
        return [rad._mode_eigenvalues(boundary, float(nu), 12)
                for nu in np.linspace(0.2, 0.4, 21)]

    ours, scipys = _both_root_finders(monkeypatch, run)
    assert ours == scipys


@pytest.mark.parametrize("boundary", list(rad.Boundary))
def test_brentq_nodal_radii_match_scipy(monkeypatch, boundary):
    def run():
        shapes = [rad.plate_mode_shape(rad.PlateSpec(0.05, 0.001, 70e9, 0.33, 2700, m,
                                                     boundary=boundary))
                  for m in range(1, 11)]
        return [(s.eigenvalue, s.nodal_radii) for s in shapes]

    ours, scipys = _both_root_finders(monkeypatch, run)
    assert ours == scipys


def test_brentq_plate_sizing_matches_scipy(monkeypatch, std_air):
    def run():
        out = []
        for f_u0 in (40e3, 60e3, 90e3):
            for d_uc in (0.3, 0.45):
                for mode in (1, 4, 8):
                    for material in BUILTIN_MATERIALS:
                        try:
                            out.append(rad.size_plate_for(f_u0, d_uc, mode, material,
                                                          std_air).thickness)
                        except InfeasibleDesignError:
                            out.append(None)
        return out

    ours, scipys = _both_root_finders(monkeypatch, run)
    assert sum(t is not None for t in ours) > 20
    assert ours == scipys


def _recorded(f):
    """``f`` that appends every abscissa it is called at to ``.xs``."""
    def g(x, *args):
        g.xs.append(x)
        return f(x, *args)
    g.xs = []
    return g


@pytest.mark.parametrize("tols", [{}, {"xtol": 1e-13, "rtol": 1e-15}])
def test_brentq_random_brackets_match_scipy(tols):
    # same root and the same sequence of evaluations
    rng = np.random.default_rng(7)
    compared = 0
    for _ in range(400):
        c = rng.normal(size=3)
        s = rng.uniform(0.1, 5.0)

        def f(x, c=c, s=s):
            return math.sin(s * x) + 0.1 * c[0] * x ** 3 + c[1] * x + c[2]

        a, b = sorted(rng.uniform(-5.0, 5.0, 2))
        if not f(a) * f(b) < 0.0:
            continue
        ours, scipys = _recorded(f), _recorded(f)
        assert _quad.brentq(ours, a, b, **tols) == optimize.brentq(scipys, a, b, **tols)
        assert ours.xs == scipys.xs
        compared += 1
    assert compared > 100


def test_brentq_underflowing_extrapolation_bisects_as_scipy():
    # f values near 1e-300 make the extrapolation's denominator underflow
    # to zero, where C divides to inf or nan and then bisects
    def f(x):
        return 1e-300 * (x - 0.3) ** 3

    ours, scipys = _recorded(f), _recorded(f)
    assert _quad.brentq(ours, 0.0, 1.0) == optimize.brentq(scipys, 0.0, 1.0)
    assert ours.xs == scipys.xs


@pytest.mark.parametrize("a, b", [(1.0, 3.0), (-2.0, 1.0)])
def test_brentq_root_at_an_endpoint(a, b):
    def f(x):
        return x - 1.0

    assert _quad.brentq(f, a, b) == optimize.brentq(f, a, b) == 1.0


def test_brentq_unbracketed_interval():
    def f(x):
        return x * x + 1.0

    with pytest.raises(ValueError):
        optimize.brentq(f, -1.0, 2.0)
    with pytest.raises(ParameterDomainError, match="different signs"):
        _quad.brentq(f, -1.0, 2.0)


@pytest.mark.parametrize("bad", [{"xtol": 0.0}, {"xtol": -1e-12},
                                 {"rtol": 2.0 * np.finfo(float).eps}])
def test_brentq_tolerance_domain(bad):
    with pytest.raises(ParameterDomainError):
        _quad.brentq(math.sin, 3.0, 3.5, **bad)


@pytest.mark.parametrize("a", [0.0, 0.3])
def test_brentq_nan_from_f(a):
    # a NaN at the lower end, or at the first secant step x = 0.5
    def f(x):
        return math.nan if 0.2 < x < 0.8 else x - 0.5

    with pytest.raises(NumericalFailureError, match="nan"):
        _quad.brentq(f, a, 1.0)


@pytest.mark.parametrize("maxiter", [0, 3])
def test_brentq_maxiter_exhausted(maxiter, monkeypatch):
    def f(x):
        return math.exp(x) - 2.0

    with pytest.raises(RuntimeError):
        optimize.brentq(f, -4.0, 4.0, maxiter=maxiter)
    with monkeypatch.context() as mp:
        mp.setattr(_quad, "_BRENT_MAXITER", maxiter)
        with pytest.raises(NumericalFailureError, match=f"{maxiter} iterations"):
            _quad.brentq(f, -4.0, 4.0)
    assert _quad.brentq(f, -4.0, 4.0) == optimize.brentq(f, -4.0, 4.0)
