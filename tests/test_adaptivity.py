"""Bulk marking, the adaptive driver loop, and refinement diagnostics."""

import csv
import dataclasses
import gc
import math
import weakref
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from vkmorley import adaptivity, morley, solver
from vkmorley.adaptivity import (
    AmfemConfig,
    ConvergenceReport,
    LevelArtifacts,
    LevelRow,
    _rate,
    amfem_run,
    axiom_check,
    doerfler_mark,
    uniform_run,
)
from vkmorley.estimator import estimate
from vkmorley.forms import apply_residual, assemble_bilaplacian, assemble_load
from vkmorley.mesh import MeshError, build_initial_mesh, uniform_refine
from vkmorley.morley import build_space
from vkmorley.problems import ManufacturedProblem, get_problem
from vkmorley.quadrature import triangle_rule
from vkmorley.solver import SolveReport, dissection_order, factorise

import oracles as oc


def _zero_load(x, y):
    return np.zeros_like(np.asarray(x, dtype=float))


ZERO_PROBLEM = ManufacturedProblem(
    name="zero-load",
    domain="square",
    data=oc.load_data(_zero_load),
    exact=None,
    description="homogeneous data; the discrete solution vanishes",
)


# -- marking -----------------------------------------------------------------


class TestDoerflerMark:
    def test_half_bulk_takes_top_two(self):
        marked = doerfler_mark(np.array([4.0, 3.0, 2.0, 1.0]), 0.5)
        assert sorted(marked.tolist()) == [0, 1]

    def test_full_bulk_marks_all_positive(self):
        assert sorted(doerfler_mark(np.array([4.0, 3.0, 2.0, 1.0]), 1.0).tolist()) == [
            0,
            1,
            2,
            3,
        ]
        # Zero-indicator triangles stay unmarked even at theta = 1.
        assert sorted(doerfler_mark(np.array([4.0, 0.0, 2.0, 0.0]), 1.0).tolist()) == [
            0,
            2,
        ]

    def test_tiny_bulk_marks_single_largest(self):
        assert doerfler_mark(np.array([1.0, 5.0, 3.0]), 1e-9).tolist() == [1]

    def test_ties_broken_by_id(self):
        assert doerfler_mark(np.array([2.0, 3.0, 3.0, 1.0]), 0.5).tolist() == [1, 2]

    @pytest.mark.parametrize("theta", [0.0, -0.2, 1.0000001, float("nan")])
    def test_fraction_out_of_range(self, theta):
        with pytest.raises(ValueError):
            doerfler_mark(np.array([1.0, 2.0]), theta)

    @pytest.mark.parametrize(
        "bad", [[-1.0, 2.0], [1.0, float("inf")], [1.0, float("nan")]]
    )
    def test_bad_indicators_rejected(self, bad):
        with pytest.raises(ValueError):
            doerfler_mark(np.array(bad), 0.5)

    def test_all_zero_rejected(self):
        with pytest.raises(ValueError):
            doerfler_mark(np.zeros(4), 0.5)

    @settings(max_examples=150, deadline=None)
    @given(
        vals=st.lists(
            st.floats(min_value=0.0, max_value=1e6), min_size=1, max_size=12
        ),
        theta=st.sampled_from([k / 10 for k in range(1, 10)]),
    )
    # theta * total underflows to zero here; one triangle is still marked.
    @example(vals=[5e-324], theta=0.1)
    def test_minimal_cardinality_against_exhaustive_search(self, vals, theta):
        eta_sq = np.asarray(vals)
        total = float(eta_sq.sum())
        if total <= 0.0:
            with pytest.raises(ValueError):
                doerfler_mark(eta_sq, theta)
            return
        marked = doerfler_mark(eta_sq, theta)
        target = theta * total

        assert len(set(marked.tolist())) == len(marked)
        assert all(0 <= t < len(vals) for t in marked)
        assert float(eta_sq[marked].sum()) >= target

        # Exhaustive minimum over all non-empty subsets via bitmask
        # enumeration: with a positive total at least one triangle is
        # marked, even when the target underflows to zero.
        n = len(vals)
        masks = np.arange(1, 1 << n)
        bits = ((masks[:, None] >> np.arange(n)) & 1).astype(float)
        sums = bits @ eta_sq
        sizes = bits.sum(axis=1)
        best = int(sizes[sums >= target].min())
        assert len(marked) == best

        # Dropping the weakest member must break the bulk criterion.
        if len(marked) > 1:
            kept = float(eta_sq[marked].sum() - eta_sq[marked].min())
            assert kept < target

    @settings(max_examples=300, deadline=None)
    @given(
        vals=st.lists(
            st.one_of(st.sampled_from([0.0, -0.0, 5e-324, 1e-310, 1.0, 2.0, 3.0]),
                      st.floats(min_value=0.0, max_value=1e6)),
            min_size=1, max_size=40,
        ),
        theta=st.one_of(st.just(1.0), st.floats(min_value=0.0, max_value=1.0, exclude_min=True)),
    )
    @example(vals=[0.0, 5e-324, 0.0, 5e-324], theta=1.0)
    @example(vals=[2.0, 0.0, 2.0, 2.0, 0.0], theta=1.0)
    def test_matches_the_loop_oracle(self, vals, theta):
        # Ties, exact zeros (of either sign), subnormals and theta = 1: the
        # same ids in the same order as the sort and walk-back it replaced.
        eta_sq = np.asarray(vals)
        if not eta_sq.sum() > 0.0:
            with pytest.raises(ValueError):
                doerfler_mark(eta_sq, theta)
            return
        assert np.array_equal(doerfler_mark(eta_sq, theta), oc.doerfler_loop(eta_sq, theta))


# -- experimental-rate helper ------------------------------------------------


def _row(eta, ndofs):
    return LevelRow(
        level=0,
        ntri=1,
        ndofs=ndofs,
        eta=eta,
        mu=0.0,
        osc=0.0,
        err_energy=None,
        err_h1pw=None,
        newton_iters=0,
        marked=0,
        rate_eta=None,
    )


class TestRateHelper:
    def test_halved_estimator_doubled_dofs_gives_one(self):
        assert _rate(_row(1.0, 100), 0.5, 200) == pytest.approx(1.0)

    def test_constant_estimator_gives_zero(self):
        assert _rate(_row(1.0, 100), 1.0, 200) == pytest.approx(0.0)

    def test_first_level_has_no_rate(self):
        assert _rate(None, 1.0, 100) is None

    def test_degenerate_inputs_have_no_rate(self):
        assert _rate(_row(0.0, 100), 1.0, 200) is None
        assert _rate(_row(1.0, 100), 1.0, 100) is None


class TestConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"theta": 0.0},
            {"theta": -0.3},
            {"theta": 1.2},
            {"delta": 0.0},
            {"delta": 1.0},
            {"delta": -0.1},
            {"max_levels": 0},
            {"max_ndofs": 0},
            {"osc_order": 3},
            {"osc_order": -1},
        ],
    )
    def test_out_of_range_rejected(self, kwargs):
        with pytest.raises(ValueError):
            AmfemConfig(**kwargs)

    def test_theta_one_allowed(self):
        assert AmfemConfig(theta=1.0).theta == 1.0


# -- driver runs -------------------------------------------------------------


class Collected(NamedTuple):
    """A run's result and every level's artifacts, as on_level saw them."""

    report: ConvergenceReport
    final: LevelArtifacts
    levels: list[LevelArtifacts]


def _collect(run, problem, cfg) -> Collected:
    levels = []
    res = run(problem, cfg, lambda row, arts: levels.append(arts))
    return Collected(res.report, res.final, levels)


@pytest.fixture(scope="module")
def square_adaptive():
    cfg = AmfemConfig(theta=0.5, delta=0.35, max_levels=8)
    return _collect(amfem_run, get_problem("square-poly"), cfg), cfg


@pytest.fixture(scope="module")
def square_uniform():
    cfg = AmfemConfig(delta=0.75, max_levels=6)
    return _collect(uniform_run, get_problem("square-poly"), cfg)


@pytest.fixture(scope="module")
def lshape_adaptive():
    cfg = AmfemConfig(theta=0.3, delta=0.9, max_levels=40, max_ndofs=2500)
    return _collect(amfem_run, get_problem("lshape-f1"), cfg)


class TestAdaptiveDriver:
    def test_zero_load_stops_immediately(self):
        res = amfem_run(ZERO_PROBLEM, AmfemConfig(delta=0.75, max_levels=5))
        rows = res.report.rows
        assert len(rows) == 1
        assert rows[0].eta == 0.0
        assert rows[0].marked == 0
        assert rows[0].ndofs == 1

    def test_run_keeps_no_earlier_mesh_alive(self):
        first = []

        def keep_first(row, arts):
            if row.level == 0:
                first.append(weakref.ref(arts.mesh))

        res = amfem_run(get_problem("square-poly"), AmfemConfig(max_levels=3), keep_first)
        gc.collect()
        assert len(res.report.rows) == 3
        assert first[0]() is None

    @pytest.mark.parametrize("run", [amfem_run, uniform_run])
    def test_previous_level_is_dead_when_the_next_solve_starts(self, monkeypatch, run):
        # Once its state is prolongated, nothing of a level outlives it
        # through the next level's factorisation.
        spaces = []

        def spy(space, *args, **kwargs):
            gc.collect()
            assert all(ref() is None for ref in spaces)
            spaces.append(weakref.ref(space))
            return newton_solve(space, *args, **kwargs)

        newton_solve = adaptivity.newton_solve
        monkeypatch.setattr(adaptivity, "newton_solve", spy)
        res = run(get_problem("square-poly"), AmfemConfig(max_levels=3))
        assert len(res.report.rows) == len(spaces) == 3

    def test_estimator_decreases(self, square_adaptive):
        res, _ = square_adaptive
        etas = [r.eta for r in res.report.rows]
        assert len(etas) == 8
        assert all(e > 0 for e in etas)
        for prev, cur in zip(etas, etas[1:]):
            assert cur < 1.05 * prev
        assert etas[-1] < etas[0] / 3

    def test_final_rates_near_half(self, square_adaptive):
        res, _ = square_adaptive
        for r in res.report.rows[-3:]:
            assert 0.4 <= r.rate_eta <= 0.6

    def test_dofs_grow_while_marking(self, square_adaptive):
        res, _ = square_adaptive
        rows = res.report.rows
        assert [r.level for r in rows] == list(range(len(rows)))
        for prev, cur in zip(rows, rows[1:]):
            assert prev.marked > 0
            assert cur.ndofs > prev.ndofs
        assert rows[-1].marked == 0

    def test_marking_matches_bulk_criterion(self, square_adaptive):
        res, cfg = square_adaptive
        for row, arts in zip(res.report.rows[:-1], res.levels):
            marked = doerfler_mark(arts.report.eta_sq, cfg.theta)
            assert len(marked) == row.marked
            target = cfg.theta * float(arts.report.eta_sq.sum())
            mass = float(arts.report.eta_sq[marked].sum())
            assert mass >= target
            if len(marked) > 1:
                assert mass - float(arts.report.eta_sq[marked].min()) < target

    def test_history_matches_rows(self, square_adaptive):
        res, _ = square_adaptive
        assert len(res.levels) == len(res.report.rows)
        assert res.final is res.levels[-1]
        for row, arts in zip(res.report.rows, res.levels):
            assert arts.mesh.n_triangles == row.ntri
            assert arts.space.n_dofs == row.ndofs

    def test_on_level_sees_each_final_row_once(self):
        seen = []
        res = amfem_run(get_problem("square-poly"),
                        AmfemConfig(theta=0.5, delta=0.35, max_levels=4),
                        lambda row, arts: seen.append((row, row.marked, arts)))
        assert len(seen) == len(res.report.rows) == 4
        for (row, marked, arts), final in zip(seen, res.report.rows):
            assert row is final and marked == final.marked
            assert arts.mesh.n_triangles == row.ntri
        assert seen[-1][2] is res.final

    def test_csv_round_trip(self, square_adaptive, tmp_path):
        res, _ = square_adaptive
        res.report.to_csv(tmp_path / "report.csv")
        text = (tmp_path / "report.csv").read_text()
        lines = text.splitlines()
        assert lines[0] == (
            "level,ntri,ndofs,eta,mu,osc,err_energy,err_h1pw,newton_iters,"
            "marked,rate_eta"
        )
        parsed = list(csv.DictReader(lines))
        assert len(parsed) == len(res.report.rows)
        for rec, row in zip(parsed, res.report.rows):
            assert int(rec["level"]) == row.level
            assert int(rec["ndofs"]) == row.ndofs
            assert float(rec["eta"]) == row.eta
            assert float(rec["err_energy"]) == row.err_energy
        assert parsed[0]["rate_eta"] == ""
        assert float(parsed[1]["rate_eta"]) == res.report.rows[1].rate_eta

    def test_identical_config_identical_csv(self, square_adaptive, tmp_path):
        res, _ = square_adaptive
        # The first run had an on_level sink; this one has none.
        cfg = AmfemConfig(theta=0.5, delta=0.35, max_levels=8)
        again = amfem_run(get_problem("square-poly"), cfg)
        res.report.to_csv(tmp_path / "first.csv")
        again.report.to_csv(tmp_path / "again.csv")
        assert (tmp_path / "again.csv").read_bytes() == (tmp_path / "first.csv").read_bytes()

    def test_corner_attracts_refinement(self, lshape_adaptive):
        ratios = []
        for arts in lshape_adaptive.levels:
            m = arts.mesh
            xy = m.coords[m.tri_vertices]
            touching = (np.hypot(xy[..., 0], xy[..., 1]) < 1e-12).any(axis=1)
            ratios.append(float(m.h[touching].max() / m.h.max()))
        assert ratios[0] == 1.0
        assert ratios[-1] <= 0.125

    def test_missing_error_columns_stay_empty(self, lshape_adaptive, tmp_path):
        rows = lshape_adaptive.report.rows
        assert all(r.err_energy is None and r.err_h1pw is None for r in rows)
        lshape_adaptive.report.to_csv(tmp_path / "report.csv")
        with (tmp_path / "report.csv").open() as fh:
            parsed = list(csv.DictReader(fh))
        assert all(rec["err_energy"] == "" and rec["err_h1pw"] == "" for rec in parsed)

    def test_newton_failure_aborts_with_diagnostic(self, monkeypatch):
        monkeypatch.setattr(solver, "_MAX_ITER", 1)
        cfg = AmfemConfig(delta=0.35, newton_tol=1e-14)
        with pytest.raises(RuntimeError, match="Newton"):
            amfem_run(get_problem("square-poly"), cfg)


    def test_newton_failure_message_carries_tolerance_and_history(self, monkeypatch):
        monkeypatch.setattr(solver, "_MAX_ITER", 2)
        cfg = AmfemConfig(delta=0.35, newton_tol=1e-30)
        with pytest.raises(RuntimeError, match=r"tolerance 1\.000e-30, last residuals \S+, \S+, \S+\)"):
            amfem_run(get_problem("square-poly"), cfg)


class TestUniformDriver:
    def test_zero_load_single_level(self):
        res = uniform_run(ZERO_PROBLEM, AmfemConfig(delta=0.75, max_levels=5))
        assert len(res.report.rows) == 1

    def test_known_dof_hierarchy(self, square_uniform):
        rows = square_uniform.report.rows
        assert [r.ndofs for r in rows] == [1, 5, 9, 25, 49, 113]
        assert [r.ntri for r in rows] == [2, 4, 8, 16, 32, 64]

    def test_marks_everything(self, square_uniform):
        rows = square_uniform.report.rows
        for prev in rows[:-1]:
            assert prev.marked == prev.ntri
        assert rows[-1].marked == 0

    def test_estimator_decreases(self, square_uniform):
        etas = [r.eta for r in square_uniform.report.rows]
        for prev, cur in zip(etas, etas[1:]):
            assert cur < prev
        assert etas[-1] < etas[0] / 10

    def test_each_data_callable_evaluated_once_per_level(self, monkeypatch):
        # The load and the estimator share the space's quadrature cache.
        # Each field group is one callable, evaluated at each of a level's
        # rule points once: the loads f and g, and the exact derivatives du
        # and d2u, which square-trig's u and v share.  Small chunks make
        # every level take several.
        monkeypatch.setattr(morley, "_CHUNK", 7)
        prob = get_problem("square-trig")
        points = {}

        def spy(name, func):
            def counted(x, y):
                points[name] = points.get(name, 0) + x.size
                return func(x, y)
            return counted

        spied = dataclasses.replace(
            prob,
            data=dataclasses.replace(prob.data, loads=spy("f/g", prob.data.loads)),
            exact=spy("du/d2u", prob.exact),
        )
        res = uniform_run(spied, AmfemConfig(delta=0.3, max_levels=2))
        assert all(r.err_energy is not None for r in res.report.rows)
        assert res.report.rows[0].ntri > 7
        q = len(triangle_rule(6).weights)
        want = q * sum(r.ntri for r in res.report.rows)
        assert points == {"f/g": want, "du/d2u": want}

    def test_load_reduced_to_moments_once_per_level(self, monkeypatch):
        # f and g are each reduced to their moments once per level, however
        # many iterates Newton estimates: the load, the volume terms and the
        # oscillation all read the cached moments.  The reductions walk each
        # level's triangles in consecutive chunks, f and g once per chunk.
        chunk = 100
        monkeypatch.setattr(morley, "_CHUNK", chunk)
        reductions, estimates = [], []
        reduce = morley.reduce_moments

        def counted_reduce(values, *args):
            reductions.append(values.shape[0])
            return reduce(values, *args)

        def counted_estimate(*args, **kwargs):
            estimates.append(1)
            return estimate(*args, **kwargs)

        monkeypatch.setattr(morley, "reduce_moments", counted_reduce)
        monkeypatch.setattr(adaptivity, "estimate", counted_estimate)
        res = uniform_run(get_problem("square-trig"), AmfemConfig(delta=0.05, max_levels=2))
        rows = res.report.rows
        assert rows[0].newton_iters >= 2
        assert len(estimates) == sum(r.newton_iters + 1 for r in rows)
        assert rows[0].ntri % chunk != 0
        assert reductions == [min(chunk, r.ntri - start) for r in rows
                              for start in range(0, r.ntri, chunk) for _ in "fg"]

    @pytest.mark.parametrize("osc_order", [0, 2])
    def test_no_quadrature_axis_cached_under_the_factor(self, monkeypatch, osc_order):
        # Every estimate inside Newton runs while the level's factor is
        # alive, and so does the end of the solve: the space may then hold
        # per-element moments and indicators, (nt,) or (nt, k <= 7), but no
        # array with a quadrature axis.
        seen = []

        def check(space):
            nt = space.mesh.n_triangles
            # A moments entry holds one array per field, None for a zero g.
            arrays = [(key, arr) for key, value in space._quadrature.items()
                      for arr in (value if isinstance(value, tuple) else (value,))
                      if arr is not None]
            for key, arr in arrays:
                assert arr.shape[0] == nt and arr.ndim <= 2, key
                assert arr.ndim == 1 or arr.shape[1] <= 7, (key, arr.shape)
            seen.append(len(arrays))

        def checked_estimate(state, *args, **kwargs):
            report = estimate(state, *args, **kwargs)
            check(state.space)
            return report

        def checked_solve(space, *args, **kwargs):
            out = newton_solve(space, *args, **kwargs)
            check(space)
            return out

        newton_solve = adaptivity.newton_solve
        monkeypatch.setattr(adaptivity, "estimate", checked_estimate)
        monkeypatch.setattr(adaptivity, "newton_solve", checked_solve)
        res = uniform_run(get_problem("square-trig"),
                          AmfemConfig(delta=0.3, max_levels=3, osc_order=osc_order))
        assert len(res.report.rows) == 3
        # f's and g's moments and the oscillation.
        assert seen and max(seen) == 3

    def test_history_keeps_no_quadrature_cache(self):
        res = _collect(uniform_run, get_problem("square-trig"),
                       AmfemConfig(delta=0.5, max_levels=3))
        assert len(res.levels) == 3
        assert all(arts.space._quadrature == {} for arts in res.levels)


# -- stopping at the discretisation error -----------------------------------


def _dual_residual(arts, data):
    """||r||_{A^-1} of a level's state, from a fresh bilaplacian and factor."""
    space = arts.space
    A = assemble_bilaplacian(space)
    solve = factorise(A, dissection_order(space))
    r = apply_residual(arts.state, data, A, assemble_load(space, data))
    R = r.reshape(2, -1).T
    return math.sqrt(float(np.sum(R * solve(R))))


@pytest.mark.parametrize("mode,name,cfg", [
    ("uniform", "square-trig", AmfemConfig(delta=0.5, max_levels=7)),
    ("adaptive", "lshape-f1", AmfemConfig(theta=0.3, delta=0.9, max_levels=40,
                                          max_ndofs=1500)),
])
def test_every_level_solved_to_the_discretisation_error(mode, name, cfg):
    prob = get_problem(name)
    res = _collect(uniform_run if mode == "uniform" else amfem_run, prob, cfg)
    assert len(res.levels) >= 7
    rules = set()
    for row, arts in zip(res.report.rows, res.levels):
        assert arts.solve.converged and arts.solve.residuals[-1] <= arts.solve.tolerance
        assert _dual_residual(arts, prob.data) <= solver._LAMBDA * row.eta
        # The estimate of Newton's last iterate is the level's own.
        assert estimate(arts.state, prob.data).eta == row.eta
        rules.add(arts.solve.rule)
    assert "discretisation" in rules


def test_explicit_tolerance_keeps_the_algebraic_newton_steps():
    # The steps per level this run took when the algebraic rule was the driver's only stop.
    cfg = AmfemConfig(delta=0.5, max_levels=7, newton_tol=1e-9)
    res = uniform_run(get_problem("square-trig"), cfg)
    assert [r.newton_iters for r in res.report.rows] == [4, 3, 3, 4, 4, 4, 4]


def test_discretisation_stop_takes_fewer_newton_steps():
    prob = get_problem("square-trig")
    loose = uniform_run(prob, AmfemConfig(delta=0.5, max_levels=7))
    tight = uniform_run(prob, AmfemConfig(delta=0.5, max_levels=7, newton_tol=1e-9))
    steps = [r.newton_iters for r in loose.report.rows]
    assert all(a <= b for a, b in zip(steps, [r.newton_iters for r in tight.report.rows]))
    assert sum(steps) < sum(r.newton_iters for r in tight.report.rows)
    for a, b in zip(loose.report.rows, tight.report.rows):
        assert (a.ntri, a.ndofs, a.marked) == (b.ntri, b.ndofs, b.marked)
        assert a.eta == pytest.approx(b.eta, rel=10 * solver._LAMBDA)


def test_newton_steps_log_the_discretisation_ratio(caplog):
    caplog.set_level("DEBUG", logger="vkmorley.solver")
    res = uniform_run(get_problem("square-trig"), AmfemConfig(delta=0.5, max_levels=3))
    steps = [r.getMessage() for r in caplog.records if "Newton step" in r.getMessage()]
    assert len(steps) == sum(r.newton_iters for r in res.report.rows) > 0
    assert all("|r|_A^-1/eta " in m and "n/a" not in m and "GMRES target " in m for m in steps)


def test_newton_failure_names_the_discretisation_rule(monkeypatch):
    monkeypatch.setattr(solver, "_MAX_ITER", 1)
    with pytest.raises(RuntimeError,
                       match=r"discretisation tolerance \S+, last residuals \S+, \S+\)"):
        uniform_run(get_problem("square-trig"), AmfemConfig(delta=0.5, max_levels=7))


class TestPrerefinement:
    def test_refinement_past_the_dof_cap_raises(self):
        # 2,048 triangles have 3,969 Morley dofs, and delta 0.02 needs 4,096.
        with pytest.raises(RuntimeError, match="exceeds the dof cap 2100 at 3969 dofs"):
            uniform_run(get_problem("square-poly"), AmfemConfig(delta=0.02, max_ndofs=2100))

    def test_mesh_at_the_dof_cap_is_kept(self):
        res = uniform_run(get_problem("square-poly"),
                          AmfemConfig(delta=0.02, max_levels=1, max_ndofs=8065))
        assert [(r.ntri, r.ndofs) for r in res.report.rows] == [(4096, 8065)]


# -- refinement diagnostics --------------------------------------------------


def _frozen_artifacts(mesh):
    """Zero-state artifacts with unit load, for closed-form scaling checks."""
    space = build_space(mesh)
    state = oc.zero_state(space)
    report = estimate(state, oc.load_data(_unit_load))
    return LevelArtifacts(mesh, space, state, report, SolveReport(converged=True))


def _unit_load(x, y):
    return np.ones_like(np.asarray(x, dtype=float))


class TestAxiomCheck:
    def test_identical_levels_give_zero(self, square_uniform):
        art = oc.axiom_level(square_uniform.levels[2])
        diag = axiom_check(art, art)
        assert diag.delta == 0.0
        assert diag.lambda1_star == 0.0
        assert diag.lambda2_star == 0.0
        assert diag.lambda1_mu_star == 0.0
        assert diag.lambda2_mu_star == 0.0
        assert diag.eta_refined_coarse == 0.0
        assert diag.eta_refined_fine == 0.0
        assert oc.axiom_partition_norms(art, art)[0] == pytest.approx(art.report.eta)

    def test_frozen_volume_term_halves(self):
        coarse_mesh = build_initial_mesh("square")
        fine_mesh = uniform_refine(coarse_mesh)
        coarse, fine = (oc.axiom_level(_frozen_artifacts(m)) for m in (coarse_mesh, fine_mesh))
        diag = axiom_check(coarse, fine)
        assert diag.delta == 0.0
        _, _, mu_refined_coarse, mu_refined_fine = oc.axiom_partition_norms(coarse, fine, "mu_sq")
        assert mu_refined_fine == pytest.approx(0.5 * mu_refined_coarse, rel=1e-14)
        assert diag.eta_refined_fine == pytest.approx(
            0.5 * diag.eta_refined_coarse, rel=1e-14
        )
        # Better-than-guaranteed reduction: the excess quotients vanish.
        assert diag.lambda2_star == 0.0
        assert diag.lambda2_mu_star == 0.0

    def test_uniform_pairs_stay_finite_and_stable(self, square_uniform):
        hist = [oc.axiom_level(a) for a in square_uniform.levels]
        diags = [axiom_check(a, b) for a, b in zip(hist, hist[1:])]
        for d in diags:
            assert d.delta > 0.0
            for q in (
                d.lambda1_star,
                d.lambda2_star,
                d.lambda1_mu_star,
                d.lambda2_mu_star,
            ):
                assert math.isfinite(q)
                assert q >= 0.0
            # Every triangle is bisected, so the whole estimator mass sits
            # on the refined part and must shrink by a real factor.
            assert 0.4 < d.eta_refined_fine / d.eta_refined_coarse < 0.75

        for a, b in zip(diags, diags[1:]):
            for qa, qb in (
                (a.lambda1_star, b.lambda1_star),
                (a.lambda2_star, b.lambda2_star),
            ):
                if qa == qb:
                    continue
                assert min(qa, qb) > 0.0
                assert max(qa, qb) / min(qa, qb) <= 3.0

    def test_adaptive_pair_has_nonzero_overlap(self, square_adaptive):
        res, _ = square_adaptive
        coarse, fine = oc.axiom_level(res.levels[3]), oc.axiom_level(res.levels[4])
        diag = axiom_check(coarse, fine)
        assert diag.delta > 0.0
        eta_common_coarse, eta_common_fine, _, _ = oc.axiom_partition_norms(coarse, fine)
        assert eta_common_coarse > 0.0
        assert eta_common_fine > 0.0
        assert math.isfinite(diag.lambda1_star)
        assert diag.lambda1_star > 0.0

    @pytest.mark.parametrize("pair", ["identical", "uniform", "adaptive"])
    def test_masks_sum_as_the_sorted_id_oracle(self, pair, square_uniform, square_adaptive):
        # Bit for bit: each mask selects the oracle's ids in ascending order.
        levels = square_adaptive[0].levels if pair == "adaptive" else square_uniform.levels
        first = {"identical": 2, "uniform": 1, "adaptive": 3}[pair]
        coarse = oc.axiom_level(levels[first])
        fine = coarse if pair == "identical" else oc.axiom_level(levels[first + 1])
        diag = axiom_check(coarse, fine)
        ec, ef, ero_c, ero_f = oc.axiom_partition_norms(coarse, fine)
        mc, mf, mro_c, mro_f = oc.axiom_partition_norms(coarse, fine, "mu_sq")
        assert (diag.eta_refined_coarse, diag.eta_refined_fine) == (ero_c, ero_f)
        assert diag.lambda1_star == adaptivity._ratio(abs(ef - ec), diag.delta)
        assert diag.lambda1_mu_star == adaptivity._ratio(abs(mf - mc), diag.delta)
        assert diag.lambda2_star == adaptivity._ratio(max(0.0, ero_f - 2.0**-0.25 * ero_c),
                                                      diag.delta)
        assert diag.lambda2_mu_star == adaptivity._ratio(max(0.0, mro_f - 2.0**-0.5 * mro_c),
                                                         diag.delta)
        # The kept and the refined triangles split each mesh.
        for level, kept_part, refined_part in ((coarse, ec, ero_c), (fine, ef, ero_f)):
            assert kept_part**2 + refined_part**2 == pytest.approx(level.report.eta**2,
                                                                   rel=1e-12)
        if pair == "adaptive":  # neither part is empty
            assert min(ec, ef, ero_c, ero_f) > 0.0

    def test_reversed_pair_rejected(self, square_uniform):
        with pytest.raises(MeshError):
            axiom_check(oc.axiom_level(square_uniform.levels[2]),
                        oc.axiom_level(square_uniform.levels[1]))
