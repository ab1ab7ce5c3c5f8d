"""The benchmark's correctness checks reject deliberately wrong outputs.

Each check is fed a correct output, which must pass, and a wrong one,
which must fail.  Run with ``python -m pytest bench/test_checks.py``.
"""

import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks as C  # noqa: E402

NDOFS = np.array([961.0, 1985.0, 3969.0, 8065.0])


def test_energy_rate_of_0_3_fails():
    assert C.check_rate("energy", NDOFS, 4.0 * NDOFS**-0.5, 0.4, 0.6).ok
    assert not C.check_rate("energy", NDOFS, 4.0 * NDOFS**-0.3, 0.4, 0.6).ok


def test_adaptive_slope_of_minus_0_3_fails():
    assert C.check_slope_at_most("eta", NDOFS, NDOFS**-0.47, -0.42).ok
    assert not C.check_slope_at_most("eta", NDOFS, NDOFS**-0.3, -0.42).ok


def test_mesh_with_hanging_node_fails():
    coords = [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0), (0.5, 0.5)]
    conforming = [(0, 1, 4), (1, 2, 4), (2, 3, 4), (3, 0, 4)]
    assert C.check_conforming("mesh", coords, conforming, 1.0, 4.0).ok
    # Triangle (0, 1, 2) bisected at the diagonal's midpoint 4, while
    # (0, 2, 3) still has the whole diagonal: 4 hangs on its edge.
    hanging = [(0, 1, 4), (1, 2, 4), (0, 2, 3)]
    check = C.check_conforming("mesh", coords, hanging, 1.0, 4.0)
    assert not check.ok, check.detail


def test_estimator_dump_not_summing_to_eta_sq_fails():
    parts = np.array([0.5, 0.25, 0.125, 0.125])
    assert C.check_sum("dump", parts, 1.0).ok
    assert not C.check_sum("dump", parts[:-1], 1.0).ok


def test_corner_not_finest_fails():
    coords = np.array([(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (1.0, 1.0)])
    graded = C.check_corner_grading("corner", coords, [(0, 1, 2), (1, 3, 2)])
    assert not graded.ok, "equal sizes near and far are no grading"


def test_recomputed_errors_match_closed_form():
    # One triangle carrying the exact quadratic Taylor polynomial of
    # sin^2(pi x) sin^2(pi y) at its centre: the H2 error is small, and
    # a perturbed Hessian is seen.
    tri = np.array([[[0.3, 0.3], [0.31, 0.3], [0.3, 0.31]]])
    centre = tri.mean(axis=1)
    scale = np.array([np.sqrt(0.5e-4)])
    gx, gy = C.trig_grad(*centre[0])
    hxx, hxy, hyy = C.trig_hessian(*centre[0])
    s = scale[0]
    poly = np.array([[C.trig_value(*centre[0]), gx * s, gy * s,
                      hxx * s**2 / 2, hxy * s**2, hyy * s**2 / 2]])
    h2, h1 = C.broken_errors(tri, centre, scale, [poly], C.trig_grad, C.trig_hessian)
    # The Hessian varies by about |D^3 u| h ~ 2 pi^3 * 0.01 over the triangle.
    assert h2 < 1.0 * s and h1 < 1e-2 * s
    bumped = poly.copy()
    bumped[0, 3] += s**2  # hxx off by 2 everywhere, which alone has H2 norm 2 s
    h2_bad, _ = C.broken_errors(tri, centre, scale, [bumped], C.trig_grad, C.trig_hessian)
    assert abs(h2_bad - 2.0 * s) <= h2 + 1e-15
