"""Built-in problem definitions for the harness.

Manufactured cases prescribe the pair (u, v) and carry right-hand sides

    f = Lap^2 u - [u, v],      g = Lap^2 v + 1/2 [u, u],

derived symbolically offline (docs/derive_loads.py) and hard-coded here
in factored form.  Each field group is one callable: the data's
``loads(x, y)`` returns f and g, and a problem's ``exact(x, y)`` returns
the gradients and Hessians (as hxx, hxy, hyy) of u and v, which the
error norms read.  The tests rebuild u, v and the bilaplacian from the
same axis factors to confirm the transcription: plugging the exact
fields into the strong residual must give zero, and clamped boundary
data must hold.

All callables are vectorized over numpy arrays.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .forms import ProblemData

__all__ = ["ManufacturedProblem", "registry", "get_problem"]


@dataclass
class ManufacturedProblem:
    name: str
    domain: str
    data: ProblemData
    exact: Callable | None  # (x, y) -> (du, d2u, dv, d2v)
    description: str


# -- separable pairs u = v = S(x) S(y) ---------------------------------------


def _separable(axis, quad_degree=4, include_bracket=True):
    """Exact derivatives and ProblemData of the pair u = v = S(x) S(y).

    axis(t) returns S(t) with its first, second and fourth derivatives
    (S, S1, S2, S4).  The Hessian, the bilaplacian and the bracket
    [u, u] = 2 (u_xx u_yy - u_xy^2) are products of those factors.  One
    axis call per coordinate serves f and g together (``loads``, before
    the LU factor) and du and d2u together (``derivatives``, after it).
    Without the bracket, f and g are both the bilaplacian.
    """

    def hessian(X, Y):
        (S, S1, S2, _), (T, T1, T2, _) = X, Y
        return S2 * T, S1 * T1, S * T2

    def lap2_of(X, Y):
        (S, _, S2, S4), (T, _, T2, T4) = X, Y
        return S4 * T + 2.0 * S2 * T2 + S * T4

    def bracket(X, Y):
        hxx, hxy, hyy = hessian(X, Y)
        return 2.0 * (hxx * hyy - hxy**2)

    def derivatives(x, y):
        X, Y = axis(x), axis(y)
        grad, hess = (X[1] * Y[0], X[0] * Y[1]), hessian(X, Y)
        return grad, hess, grad, hess

    def loads(x, y):
        X, Y = axis(x), axis(y)
        lap2 = lap2_of(X, Y)
        if not include_bracket:
            return lap2, lap2
        br = bracket(X, Y)
        del X, Y  # no axis factor is alive while f and g are formed
        return lap2 - br, lap2 + 0.5 * br

    return derivatives, ProblemData(loads, include_bracket, quad_degree)


def _poly_axis(t):
    """S = (t (1 - t))^2 with its derivatives S1, S2 and S4."""
    return ((t * (1.0 - t)) ** 2, 2.0 * t - 6.0 * t**2 + 4.0 * t**3,
            2.0 - 12.0 * t + 12.0 * t**2, 24.0 * np.ones_like(np.asarray(t, dtype=float)))


def _trig_axis(t):
    """S = sin^2(pi t) with its derivatives S1, S2 and S4.

    One sin(pi t), sin(2 pi t) and cos(2 pi t) serve all four.
    """
    c2 = np.cos(2.0 * np.pi * t)
    return (np.sin(np.pi * t) ** 2, np.pi * np.sin(2.0 * np.pi * t),
            2.0 * np.pi**2 * c2, -8.0 * np.pi**4 * c2)


_POLY_EXACT, _POLY_DATA = _separable(_poly_axis)
_TRIG_EXACT, _TRIG_DATA = _separable(_trig_axis, quad_degree=6)
_, _BIHARM_DATA = _separable(_poly_axis, include_bracket=False)


def _unit_load(x, y):
    return np.ones_like(np.asarray(x, dtype=float)), None


registry: dict[str, ManufacturedProblem] = {problem.name: problem for problem in [
    ManufacturedProblem(name="square-poly", domain="square", data=_POLY_DATA, exact=_POLY_EXACT,
                        description="smooth polynomial pair on the unit square"),
    ManufacturedProblem(name="square-trig", domain="square", data=_TRIG_DATA, exact=_TRIG_EXACT,
                        description="smooth trigonometric pair on the unit square"),
    ManufacturedProblem(name="lshape-f1", domain="lshape",
                        data=ProblemData(_unit_load), exact=None,
                        description="unit load on the L-shaped domain; corner singularity, "
                        "no closed-form solution"),
    ManufacturedProblem(name="biharm-linear", domain="square", data=_BIHARM_DATA,
                        exact=_POLY_EXACT,
                        description="decoupled bilaplacian pair (bracket disabled) with the "
                        "polynomial solution"),
]}


def get_problem(name: str) -> ManufacturedProblem:
    try:
        return registry[name]
    except KeyError:
        known = ", ".join(sorted(registry))
        raise KeyError(f"unknown problem {name!r}; available: {known}") from None
