import ast
from pathlib import Path

import numpy as np
import pytest

from sppal import _quad
from sppal.errors import NumericalFailureError

SRC = Path(__file__).resolve().parents[1] / "src" / "sppal"


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


def test_refined_is_the_refine_db_rule():
    tol = 10.0 ** (_quad.REFINE_DB / 20.0) - 1.0
    value = np.array([1.0, 1.0, 2.0j])
    step = np.array([0.99 * tol, 1.01 * tol, 1.98j * tol])
    assert _quad.refined(step, value).tolist() == [True, False, True]
