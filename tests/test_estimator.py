"""Residual estimator pieces against closed forms and quadrature oracles."""

import csv

import numpy as np
import pytest

from vkmorley.estimator import estimate, oscillation, restrict_estimator
from vkmorley.mesh import build_initial_mesh, uniform_refine
from vkmorley.morley import MorleyField, build_space, interpolate
from vkmorley.quadrature import triangle_points, triangle_rule

import oracles as oc

ONE = lambda x, y: np.ones_like(x)
ZERO = lambda x, y: 0.0 * x


def square_space(levels=0):
    mesh = build_initial_mesh("square")
    for _ in range(levels):
        mesh = uniform_refine(mesh)
    return build_space(mesh)


# -- estimate ----------------------------------------------------------------


def test_zero_state_zero_load_gives_zero():
    space = square_space(2)
    rep = estimate(oc.zero_state(space), oc.load_data(ZERO))
    assert rep.eta == 0.0 and rep.mu == 0.0 and rep.osc == 0.0


def test_unit_load_zero_state_closed_form():
    # eta^2(K) = |K|^2 ||f||_K^2 = |K|^3 with f = 1 and no jumps
    space = square_space(0)
    rep = estimate(oc.zero_state(space), oc.load_data(ONE))
    np.testing.assert_allclose(rep.eta_sq, [0.125, 0.125], atol=1e-15)
    np.testing.assert_array_equal(rep.mu_sq, rep.eta_sq)


def test_constant_hessian_state_hand_values():
    # u = x^2/2, v = y^2/2 globally: [u,v] = 1, [u,u] = 0, interior
    # jumps vanish, each boundary edge carries |E| |H tau|^2
    space = oc.free_space(build_initial_mesh("square"))
    u = interpolate(space, lambda x, y: 0.5 * x * x, lambda x, y: (x, 0.0 * y))
    v = interpolate(space, lambda x, y: 0.5 * y * y, lambda x, y: (0.0 * x, y))
    rep = estimate(MorleyField(space, np.stack([u.coeffs, v.coeffs])), oc.load_data(ZERO))
    # volume: |K|^2 * |K| * [u,v]^2 = 1/8; edges: two unit boundary
    # edges contribute 1 each, scaled by |K|^(1/2)
    want = 0.125 + np.sqrt(0.5) * 2.0
    np.testing.assert_allclose(rep.eta_sq, [want, want], atol=1e-14)
    np.testing.assert_allclose(rep.mu_sq, [0.125, 0.125], atol=1e-15)


def test_interior_jumps_detect_kinks():
    # a generic discrete field kinks across interior edges, so eta > mu
    space = square_space(2)
    rng = np.random.default_rng(30)
    state = MorleyField(space, rng.standard_normal((2, space.n_dofs)))
    rep = estimate(state, oc.load_data(ZERO))
    assert np.all(rep.eta_sq >= rep.mu_sq)
    assert rep.eta > rep.mu


def test_estimator_nonnegative_and_totals_consistent():
    space = square_space(3)
    rng = np.random.default_rng(31)
    state = MorleyField(space, rng.standard_normal((2, space.n_dofs)))
    rep = estimate(state, oc.load_data(lambda x, y: x * y))
    assert np.all(rep.eta_sq >= 0) and np.all(rep.mu_sq >= 0) and np.all(rep.osc_sq >= 0)
    assert rep.total_eta_sq == pytest.approx(rep.eta_sq.sum(), rel=1e-15)
    assert rep.eta == pytest.approx(np.sqrt(rep.eta_sq.sum()), rel=1e-15)


def test_volume_part_quarters_under_uniform_refinement():
    # frozen zero state, f = 1: mu^2 scales with |K|^3, so one uniform
    # refinement divides the total by 4
    coarse = square_space(2)
    fine = build_space(uniform_refine(coarse.mesh))
    data = oc.load_data(ONE)
    mu_c = estimate(oc.zero_state(coarse), data).mu_sq.sum()
    mu_f = estimate(oc.zero_state(fine), data).mu_sq.sum()
    assert mu_f == pytest.approx(mu_c / 4.0, rel=1e-12)


def test_estimator_invariant_under_edge_orientation():
    # the same smooth pair interpolated under both edge-normal
    # conventions is the same discrete function
    mesh = uniform_refine(uniform_refine(build_initial_mesh("square")))
    data = oc.load_data(ONE)
    fu = lambda x, y: x * x * y + y * y
    du = lambda x, y: (2.0 * x * y, x * x + 2.0 * y)
    fv = lambda x, y: x * y * y - 0.3 * x * x
    dv = lambda x, y: (y * y - 0.6 * x, 2.0 * x * y)
    reports = []
    for rev in (False, True):
        space = oc.reversed_edge_space(mesh) if rev else build_space(mesh)
        state = MorleyField(space, np.stack([interpolate(space, fu, du).coeffs,
                                             interpolate(space, fv, dv).coeffs]))
        reports.append(estimate(state, data).eta_sq)
    np.testing.assert_allclose(reports[0], reports[1], rtol=1e-12, atol=1e-14)


# -- oscillation -------------------------------------------------------------


@pytest.mark.parametrize("order", [0, 1, 2])
def test_constant_load_has_no_oscillation(order):
    space = square_space(2)
    osc = oscillation(space, oc.load_data(ONE), order)
    np.testing.assert_allclose(osc, 0.0, atol=1e-15)


def test_linear_load_orders():
    f = lambda x, y: 2.0 * x - y + 0.5
    space, data = square_space(2), oc.load_data(f)
    np.testing.assert_allclose(oscillation(space, data, 1), 0.0, atol=1e-14)
    osc0 = oscillation(space, data, 0)
    assert np.all(osc0 > 0)

    # independent mean-based projection at degree 4
    mesh = space.mesh
    rule = triangle_rule(4)
    pts = triangle_points(rule, mesh.triangle_coords())
    fv = f(pts[..., 0], pts[..., 1])
    mean = rule.weights @ fv.T
    resid = rule.weights @ ((fv - mean[:, None]) ** 2).T
    want = mesh.areas**2 * mesh.areas * resid
    np.testing.assert_allclose(osc0, want, rtol=1e-12)


def test_quadratic_load_vanishes_at_order_two():
    f = lambda x, y: 1.0 + x * x - 3.0 * x * y + y * y
    space, data = square_space(2), oc.load_data(f)
    np.testing.assert_allclose(oscillation(space, data, 2), 0.0, atol=1e-13)
    assert np.all(oscillation(space, data, 1) > 0)


def test_estimate_caches_the_oscillation_until_release():
    f = lambda x, y: np.sin(3.0 * x) * y
    space = square_space(2)
    data = oc.load_data(f)
    first = estimate(oc.zero_state(space), data, osc_order=1).osc_sq
    u = interpolate(space, lambda x, y: x * y, lambda x, y: (y, x))
    uu = MorleyField(space, np.stack([u.coeffs, u.coeffs]))
    second = estimate(uu, data, osc_order=1)
    assert second.osc_sq is first and not first.flags.writeable
    assert estimate(uu, data, osc_order=0).osc_sq is not first
    space.release_quadrature()
    again = estimate(uu, data, osc_order=1).osc_sq
    assert again is not first
    np.testing.assert_array_equal(again, first)
    np.testing.assert_array_equal(first, oscillation(space, data, 1))


def test_oscillation_rejects_bad_order():
    space = square_space(1)
    with pytest.raises(ValueError):
        oscillation(space, oc.load_data(ONE), 3)


def test_smooth_bump_oscillation_decays_fast():
    f = lambda x, y: np.exp(-8.0 * ((x - 0.4) ** 2 + (y - 0.55) ** 2))
    mesh = uniform_refine(uniform_refine(build_initial_mesh("square")))
    totals = []
    for _ in range(4):
        osc = oscillation(build_space(mesh), oc.load_data(f), 0)
        totals.append(np.sqrt(osc.sum()))
        mesh = uniform_refine(uniform_refine(mesh))
    # two bisection passes per step halve h once
    rates = [np.log2(a / b) for a, b in zip(totals, totals[1:])]
    # scaled norm drops like h^3 for smooth f; require at least h^2
    assert min(rates[1:]) >= 2.0


# -- restriction -------------------------------------------------------------


def test_restrict_empty_is_zero():
    space = square_space(2)
    rep = estimate(oc.zero_state(space), oc.load_data(ONE))
    assert restrict_estimator(rep, [])["eta_sq"] == 0.0


def test_restrict_full_set_is_total():
    space = square_space(2)
    rep = estimate(oc.zero_state(space), oc.load_data(ONE))
    got = restrict_estimator(rep, range(space.mesh.n_triangles))
    assert got["eta_sq"] == pytest.approx(rep.total_eta_sq, rel=1e-15)


def test_restrict_complementary_subsets_add_up():
    space = square_space(3)
    rng = np.random.default_rng(33)
    state = MorleyField(space, rng.standard_normal((2, space.n_dofs)))
    rep = estimate(state, oc.load_data(ONE))
    nt = space.mesh.n_triangles
    part = rng.choice(nt, size=nt // 3, replace=False)
    rest = sorted(set(range(nt)) - set(int(t) for t in part))
    a = restrict_estimator(rep, part)
    b = restrict_estimator(rep, rest)
    for key in ("eta_sq", "mu_sq", "osc_sq"):
        total = {"eta_sq": rep.eta_sq, "mu_sq": rep.mu_sq, "osc_sq": rep.osc_sq}[key].sum()
        assert a[key] + b[key] == pytest.approx(total, rel=1e-12, abs=1e-15)


def test_restrict_rejects_out_of_range():
    space = square_space(1)
    rep = estimate(oc.zero_state(space), oc.load_data(ONE))
    with pytest.raises(ValueError):
        restrict_estimator(rep, [99])


# -- report ------------------------------------------------------------------


def test_report_csv_roundtrip(tmp_path):
    space = square_space(2)
    rep = estimate(oc.zero_state(space), oc.load_data(ONE))
    path = tmp_path / "est.csv"
    rep.to_csv(path)
    with path.open() as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == space.mesh.n_triangles
    back = np.array([float(r["eta_sq"]) for r in rows])
    np.testing.assert_array_equal(back, rep.eta_sq)
