"""Quadrature rules on triangles and edges.

Triangle rules are symmetric Dunavant rules tabulated in barycentric
coordinates with weights normalised to sum to one, so that

    integral_K f dx  ~=  |K| * sum_i w_i f(x_i).

Only rules with strictly positive weights are kept (degrees 1, 2, 4, 5,
6, 8, 10); a requested degree is rounded up to the next tabulated rule.

Reference: D. A. Dunavant, "High degree efficient symmetrical Gaussian
quadrature rules for the triangle", IJNME 21 (1985).
"""

from __future__ import annotations

import numpy as np

__all__ = ["triangle_rule", "triangle_points", "edge_rule", "TriangleRule"]


def _expand(subpoints, subweights):
    """Expand compressed (a, b, c)/weight pairs into full point sets.

    A suborder triple with two equal entries generates its 3 cyclic
    permutations, a triple with distinct entries all 6 permutations, and
    the centroid generates itself.
    """
    bary = []
    weights = []
    for (a, b, c), w in zip(subpoints, subweights):
        triple = (a, b, c)
        if abs(a - b) < 1e-14 and abs(b - c) < 1e-14:
            perms = [(a, b, c)]
        elif abs(b - c) < 1e-14:
            perms = [(a, b, b), (b, a, b), (b, b, a)]
        else:
            perms = [
                (a, b, c), (a, c, b), (b, a, c),
                (b, c, a), (c, a, b), (c, b, a),
            ]
        for p in perms:
            bary.append(p)
            weights.append(w)
    return np.asarray(bary, dtype=float), np.asarray(weights, dtype=float)


# Compressed Dunavant data: degree -> (list of (a, b, c), list of w).
_DUNAVANT = {
    1: (
        [(1 / 3, 1 / 3, 1 / 3)],
        [1.0],
    ),
    2: (
        [(0.666666666666667, 0.166666666666667, 0.166666666666667)],
        [0.333333333333333],
    ),
    4: (
        [
            (0.108103018168070, 0.445948490915965, 0.445948490915965),
            (0.816847572980459, 0.091576213509771, 0.091576213509771),
        ],
        [0.223381589678011, 0.109951743655322],
    ),
    5: (
        [
            (0.333333333333333, 0.333333333333333, 0.333333333333333),
            (0.059715871789770, 0.470142064105115, 0.470142064105115),
            (0.797426985353087, 0.101286507323456, 0.101286507323456),
        ],
        [0.225000000000000, 0.132394152788506, 0.125939180544827],
    ),
    6: (
        [
            (0.501426509658179, 0.249286745170910, 0.249286745170910),
            (0.873821971016996, 0.063089014491502, 0.063089014491502),
            (0.053145049844817, 0.310352451033784, 0.636502499121399),
        ],
        [0.116786275726379, 0.050844906370207, 0.082851075618374],
    ),
    8: (
        [
            (0.333333333333333, 0.333333333333333, 0.333333333333333),
            (0.081414823414554, 0.459292588292723, 0.459292588292723),
            (0.658861384496480, 0.170569307751760, 0.170569307751760),
            (0.898905543365938, 0.050547228317031, 0.050547228317031),
            (0.008394777409958, 0.263112829634638, 0.728492392955404),
        ],
        [
            0.144315607677787, 0.095091634267285, 0.103217370534718,
            0.032458497623198, 0.027230314174435,
        ],
    ),
    10: (
        [
            (0.333333333333333, 0.333333333333333, 0.333333333333333),
            (0.028844733232685, 0.485577633383657, 0.485577633383657),
            (0.781036849029926, 0.109481575485037, 0.109481575485037),
            (0.141707219414880, 0.307939838764121, 0.550352941820999),
            (0.025003534762686, 0.246672560639903, 0.728323904597411),
            (0.009540815400299, 0.066803251012200, 0.923655933587500),
        ],
        [
            0.090817990382754, 0.036725957756467, 0.045321059435528,
            0.072757916845420, 0.028327242531057, 0.009421666963733,
        ],
    ),
}

_DEGREES = sorted(_DUNAVANT)


class TriangleRule:
    """A symmetric quadrature rule on the reference triangle."""

    def __init__(self, degree: int, bary: np.ndarray, weights: np.ndarray):
        self.degree = degree
        self.bary = bary
        self.weights = weights


_CACHE: dict[int, TriangleRule] = {}


def triangle_rule(degree: int) -> TriangleRule:
    """Return a rule exact for polynomials of at least the given degree."""
    if degree < 1:
        degree = 1
    for d in _DEGREES:
        if d >= degree:
            if d not in _CACHE:
                bary, w = _expand(*_DUNAVANT[d])
                # Renormalise: tabulated weights carry rounding in the
                # 15th digit; the constant must integrate exactly.
                w = w / w.sum()
                _CACHE[d] = TriangleRule(d, bary, w)
            return _CACHE[d]
    raise ValueError(f"no tabulated triangle rule of degree >= {degree}")


def triangle_points(rule: TriangleRule, coords: np.ndarray) -> np.ndarray:
    """Map rule points onto physical triangles.

    coords has shape (ntri, 3, 2); the result has shape (ntri, npts, 2).
    """
    return rule.bary @ coords


def edge_rule(npoints: int = 3) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [0, 1], weights summing to 1."""
    x, w = np.polynomial.legendre.leggauss(npoints)
    return 0.5 * (x + 1.0), 0.5 * w
