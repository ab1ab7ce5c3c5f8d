"""Exactness and mapping checks for the quadrature tables and the edge
rule, and for the Gauss rules the tests use as a reference beside them."""

import numpy as np
import pytest

from vkmorley import quadrature
from vkmorley.quadrature import edge_rule, triangle_points, triangle_rule

from oracles import (dunavant_expand, gauss_edge_rule, gauss_triangle_rule,
                     monomial_integral_reference)

REF = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
TABULATED = [4, 6]
# The package's Dunavant rules, and the oracle's Gauss rules at the others.
DEGREES = [1, 2, 4, 5, 6, 8, 10]


def rule_of(degree):
    return triangle_rule(degree) if degree in TABULATED else gauss_triangle_rule(degree)


@pytest.mark.parametrize("degree", DEGREES)
def test_monomials_integrate_exactly(degree):
    # exact value a!b!/(a+b+2)!; table coordinates carry ~1e-15
    # truncation, so allow a small absolute slack
    rule = rule_of(degree)
    pts = triangle_points(rule, REF[None])[0]
    for a in range(degree + 1):
        for b in range(degree + 1 - a):
            got = 0.5 * np.dot(rule.weights, pts[:, 0] ** a * pts[:, 1] ** b)
            want = float(monomial_integral_reference(a, b))
            assert got == pytest.approx(want, abs=1e-12, rel=1e-10)


@pytest.mark.parametrize("degree", DEGREES)
def test_rule_well_formed(degree):
    rule = rule_of(degree)
    assert np.all(rule.weights > 0)
    assert rule.weights.sum() == pytest.approx(1.0, abs=5e-16)
    assert np.all(rule.bary >= 0)
    np.testing.assert_allclose(rule.bary.sum(axis=1), 1.0, atol=1e-14)


def test_degree_rounds_up():
    assert triangle_rule(0).degree == 4
    assert triangle_rule(3).degree == 4
    assert triangle_rule(5).degree == 6
    assert triangle_rule(6) is triangle_rule(5)
    with pytest.raises(ValueError, match=r"degree >= 7; the tabulated degrees are \[4, 6\]"):
        triangle_rule(7)


@pytest.mark.parametrize("degree", TABULATED)
def test_orbits_match_the_hand_written_expansion(degree):
    # Distinct permutations in first-seen order give the hand-written
    # table's points in its order, bit for bit.
    bary, weights = dunavant_expand(*zip(*quadrature._DUNAVANT[degree]))
    rule = triangle_rule(degree)
    assert np.array_equal(rule.bary, bary)
    assert np.array_equal(rule.weights, weights / weights.sum())


def test_points_map_affinely():
    rule = triangle_rule(4)
    tri = np.array([[[2.0, 1.0], [4.0, 1.5], [2.5, 3.0]]])
    pts = triangle_points(rule, tri)
    for p, (l0, l1, l2) in zip(pts[0], rule.bary):
        np.testing.assert_allclose(p, l0 * tri[0, 0] + l1 * tri[0, 1] + l2 * tri[0, 2],
                                   atol=1e-15)


@pytest.mark.parametrize("n", [1, 2, 3, 5])
def test_edge_rule_gauss_exactness(n):
    # the package's 3-point rule, and the oracle's at the other counts
    ts, ws = edge_rule() if n == 3 else gauss_edge_rule(n)
    assert ws.sum() == pytest.approx(1.0, abs=5e-16)
    assert np.all((ts > 0) & (ts < 1))
    for k in range(2 * n):
        assert np.dot(ws, ts**k) == pytest.approx(1.0 / (k + 1), rel=1e-14)
