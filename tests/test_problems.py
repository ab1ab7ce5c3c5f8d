"""Registry of manufactured cases and their hard-coded load transcriptions."""

import numpy as np
import pytest

from vkmorley.problems import get_problem, registry

from oracles import EXACT_FIELDS, check_problem

# Center-point load values, worked out symbolically before the load
# callables were written down.
POLY_F_CENTER = 639.0 / 128.0
POLY_G_CENTER = 1281.0 / 256.0
TRIG_F_CENTER = 16.0 * np.pi**4
TRIG_G_CENTER = 28.0 * np.pi**4
BIHARM_CENTER = 5.0


def test_registry_names():
    assert set(registry) >= {"square-poly", "square-trig", "lshape-f1", "biharm-linear"}


def test_get_problem_unknown_name():
    with pytest.raises(KeyError, match="square-poly"):
        get_problem("no-such-problem")


@pytest.mark.parametrize(
    "name,f_val,g_val",
    [
        ("square-poly", POLY_F_CENTER, POLY_G_CENTER),
        ("square-trig", TRIG_F_CENTER, TRIG_G_CENTER),
        ("biharm-linear", BIHARM_CENTER, BIHARM_CENTER),
    ],
)
def test_center_load_values(name, f_val, g_val):
    f, g = get_problem(name).data.loads(0.5, 0.5)
    assert f == pytest.approx(f_val, rel=1e-14)
    assert g == pytest.approx(g_val, rel=1e-14)


@pytest.mark.parametrize("name", ["square-poly", "square-trig", "biharm-linear"])
def test_clamped_boundary_data(name):
    ex, exact = EXACT_FIELDS[name], get_problem(name).exact
    s = np.linspace(0.0, 1.0, 37)
    zero = np.zeros_like(s)
    one = np.ones_like(s)
    for bx, by in ((s, zero), (s, one), (zero, s), (one, s)):
        assert np.abs(ex.u(bx, by)).max() <= 1e-10
        assert np.abs(ex.v(bx, by)).max() <= 1e-10
        du, _, dv, _ = exact(bx, by)
        for g in (*du, *dv):
            assert np.abs(g).max() <= 1e-10


@pytest.mark.parametrize("name", sorted(registry))
def test_registry_self_check(name):
    assert check_problem(get_problem(name)) <= 1e-8


def test_lshape_case_is_estimator_only():
    prob = get_problem("lshape-f1")
    assert prob.exact is None
    x = np.array([-0.3, 0.2, 0.7])
    f, g = prob.data.loads(x, x)
    assert g is None
    assert prob.domain == "lshape"
    np.testing.assert_array_equal(f, np.ones(3))


def test_biharm_case_disables_coupling():
    prob = get_problem("biharm-linear")
    assert not prob.data.include_bracket
    assert prob.exact is not None


@pytest.mark.parametrize("name", ["square-poly", "square-trig"])
def test_derivative_chain_finite_differences(name):
    """Hard-coded derivative callables must differentiate each other.

    The registry self-check ties (lap2, d2, f, g) together through the
    strong residual; this ties the registry's exact derivatives and the
    test-only bilaplacian back to plain point values of u by central
    differences, catching a consistent mis-transcription that the
    residual identity alone would mask.
    """
    ex, exact = EXACT_FIELDS[name], get_problem(name).exact
    rng = np.random.default_rng(11)
    x = rng.uniform(0.15, 0.85, 24)
    y = rng.uniform(0.15, 0.85, 24)
    h = 1e-5

    fd_x = (ex.u(x + h, y) - ex.u(x - h, y)) / (2 * h)
    fd_y = (ex.u(x, y + h) - ex.u(x, y - h)) / (2 * h)
    gx, gy = exact(x, y)[0]
    scale = max(1.0, np.abs(gx).max(), np.abs(gy).max())
    assert np.abs(fd_x - gx).max() <= 1e-8 * scale
    assert np.abs(fd_y - gy).max() <= 1e-8 * scale

    dux = lambda a, b: exact(a, b)[0][0]
    duy = lambda a, b: exact(a, b)[0][1]
    fd_xx = (dux(x + h, y) - dux(x - h, y)) / (2 * h)
    fd_xy = (dux(x, y + h) - dux(x, y - h)) / (2 * h)
    fd_yy = (duy(x, y + h) - duy(x, y - h)) / (2 * h)
    hxx, hxy, hyy = exact(x, y)[1]
    scale = max(1.0, np.abs(hxx).max(), np.abs(hyy).max())
    assert np.abs(fd_xx - hxx).max() <= 1e-7 * scale
    assert np.abs(fd_xy - hxy).max() <= 1e-7 * scale
    assert np.abs(fd_yy - hyy).max() <= 1e-7 * scale

    # Fourth order from second derivatives, wider stencil step.
    H = 1e-3
    uxx = lambda a, b: exact(a, b)[1][0]
    uyy = lambda a, b: exact(a, b)[1][2]
    fd_xxxx = (uxx(x + H, y) - 2 * uxx(x, y) + uxx(x - H, y)) / H**2
    fd_yyyy = (uyy(x, y + H) - 2 * uyy(x, y) + uyy(x, y - H)) / H**2
    fd_xxyy = (uxx(x, y + H) - 2 * uxx(x, y) + uxx(x, y - H)) / H**2
    lap2 = fd_xxxx + 2 * fd_xxyy + fd_yyyy
    want = ex.lap2_u(x, y)
    assert np.abs(lap2 - want).max() <= 1e-3 * max(1.0, np.abs(want).max())


def test_symmetric_pair_shares_fields():
    for name in ("square-poly", "square-trig"):
        ex = EXACT_FIELDS[name]
        x = np.array([0.31, 0.62])
        y = np.array([0.47, 0.18])
        np.testing.assert_array_equal(ex.u(x, y), ex.v(x, y))
        np.testing.assert_array_equal(ex.lap2_u(x, y), ex.lap2_v(x, y))
        du, d2u, dv, d2v = get_problem(name).exact(x, y)
        np.testing.assert_array_equal(du, dv)
        np.testing.assert_array_equal(d2u, d2v)
