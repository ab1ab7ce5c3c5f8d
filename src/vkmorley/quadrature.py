"""Quadrature rules on triangles and edges.

Triangle rules are symmetric Dunavant rules tabulated in barycentric
coordinates with weights normalised to sum to one, so that

    integral_K f dx  ~=  |K| * sum_i w_i f(x_i).

Only degrees 4 and 6, the ones the program requests, are tabulated; a
requested degree is rounded up to the next of them, and one above 6
raises ValueError.

Reference: D. A. Dunavant, "High degree efficient symmetrical Gaussian
quadrature rules for the triangle", IJNME 21 (1985).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from itertools import permutations

import numpy as np

__all__ = ["triangle_rule", "triangle_points", "edge_rule", "TriangleRule"]


# Dunavant data: degree -> one ((a, b, c), w) pair per orbit of points.
_DUNAVANT = {
    4: [((0.108103018168070, 0.445948490915965, 0.445948490915965), 0.223381589678011),
        ((0.816847572980459, 0.091576213509771, 0.091576213509771), 0.109951743655322)],
    6: [((0.501426509658179, 0.249286745170910, 0.249286745170910), 0.116786275726379),
        ((0.873821971016996, 0.063089014491502, 0.063089014491502), 0.050844906370207),
        ((0.053145049844817, 0.310352451033784, 0.636502499121399), 0.082851075618374)],
}

_DEGREES = sorted(_DUNAVANT)


@dataclass(eq=False)
class TriangleRule:
    """A symmetric quadrature rule on the reference triangle."""

    degree: int
    bary: np.ndarray
    weights: np.ndarray


@cache
def _tabulated(degree: int) -> TriangleRule:
    """The rule of a tabulated degree: each (a, b, c) triple's orbit is its
    distinct permutations in first-seen order (3 when two entries are equal)."""
    orbits = [(dict.fromkeys(permutations(triple)), w) for triple, w in _DUNAVANT[degree]]
    bary = np.array([p for orbit, _ in orbits for p in orbit])
    weights = np.array([w for orbit, w in orbits for _ in orbit])
    # Renormalise: tabulated weights carry rounding in the 15th digit; the
    # constant must integrate exactly.
    return TriangleRule(degree, bary, weights / weights.sum())


def triangle_rule(degree: int) -> TriangleRule:
    """Return a rule exact for polynomials of at least the given degree."""
    for d in _DEGREES:
        if d >= degree:
            return _tabulated(d)
    raise ValueError(f"no tabulated triangle rule of degree >= {degree}; "
                     f"the tabulated degrees are {_DEGREES}")


def triangle_points(rule: TriangleRule, coords: np.ndarray) -> np.ndarray:
    """Map rule points onto physical triangles.

    coords has shape (ntri, 3, 2); the result has shape (ntri, npts, 2).
    """
    return rule.bary @ coords


def edge_rule() -> tuple[np.ndarray, np.ndarray]:
    """3-point Gauss-Legendre nodes and weights on [0, 1] (exact to degree 5), summing to 1."""
    x, w = np.polynomial.legendre.leggauss(3)
    return 0.5 * (x + 1.0), 0.5 * w
