"""Built-in problem definitions for the harness.

Manufactured cases prescribe the pair (u, v) and carry right-hand sides

    f = Lap^2 u - [u, v],      g = Lap^2 v + 1/2 [u, u],

derived symbolically offline (docs/derive_loads.py) and hard-coded here
in factored form.  Each exact solution also exposes its gradient,
Hessian (as hxx, hxy, hyy), and bilaplacian so that tests can confirm
the transcription: plugging the exact fields into the strong residual
must give zero, and clamped boundary data must hold.

All callables are vectorized over numpy arrays.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .forms import ProblemData

__all__ = ["ExactSolution", "ManufacturedProblem", "registry", "get_problem"]


@dataclass
class ExactSolution:
    u: Callable
    du: Callable
    d2u: Callable
    lap2_u: Callable
    v: Callable
    dv: Callable
    d2v: Callable
    lap2_v: Callable


@dataclass
class ManufacturedProblem:
    name: str
    domain: str
    data: ProblemData
    exact: ExactSolution | None
    description: str


# -- separable pairs u = v = S(x) S(y) ---------------------------------------


def _separable(axis):
    """ExactSolution, f and g of the pair u = v = S(x) S(y).

    axis(t) returns S(t) with its first, second and fourth derivatives
    (S, S1, S2, S4).  The Hessian, the bilaplacian and the bracket
    [u, u] = 2 (u_xx u_yy - u_xy^2) are products of those factors.
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

    def u(x, y):
        return axis(x)[0] * axis(y)[0]

    def du(x, y):
        (S, S1, _, _), (T, T1, _, _) = axis(x), axis(y)
        return S1 * T, S * T1

    def d2u(x, y):
        return hessian(axis(x), axis(y))

    def lap2(x, y):
        return lap2_of(axis(x), axis(y))

    # The bracket first: fewer full-size temporaries are alive at once.
    def f(x, y):
        X, Y = axis(x), axis(y)
        br = bracket(X, Y)
        return lap2_of(X, Y) - br

    def g(x, y):
        X, Y = axis(x), axis(y)
        br = bracket(X, Y)
        return lap2_of(X, Y) + 0.5 * br

    exact = ExactSolution(u=u, du=du, d2u=d2u, lap2_u=lap2, v=u, dv=du, d2v=d2u, lap2_v=lap2)
    return exact, f, g


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


_POLY_EXACT, _poly_f, _poly_g = _separable(_poly_axis)
_TRIG_EXACT, _trig_f, _trig_g = _separable(_trig_axis)


def _const_one(x, y):
    return np.ones_like(np.asarray(x, dtype=float))


def _build_registry() -> dict[str, ManufacturedProblem]:
    reg = {}
    reg["square-poly"] = ManufacturedProblem(
        name="square-poly",
        domain="square",
        data=ProblemData(f=_poly_f, g=_poly_g),
        exact=_POLY_EXACT,
        description="smooth polynomial pair on the unit square",
    )
    reg["square-trig"] = ManufacturedProblem(
        name="square-trig",
        domain="square",
        data=ProblemData(f=_trig_f, g=_trig_g, quad_degree=6),
        exact=_TRIG_EXACT,
        description="smooth trigonometric pair on the unit square",
    )
    reg["lshape-f1"] = ManufacturedProblem(
        name="lshape-f1",
        domain="lshape",
        data=ProblemData(f=_const_one, g=None),
        exact=None,
        description="unit load on the L-shaped domain; corner singularity, "
        "no closed-form solution",
    )
    reg["biharm-linear"] = ManufacturedProblem(
        name="biharm-linear",
        domain="square",
        data=ProblemData(f=_POLY_EXACT.lap2_u, g=_POLY_EXACT.lap2_u,
                         include_bracket=False),
        exact=_POLY_EXACT,
        description="decoupled bilaplacian pair (bracket disabled) with the "
        "polynomial solution",
    )
    return reg


registry: dict[str, ManufacturedProblem] = _build_registry()


def get_problem(name: str) -> ManufacturedProblem:
    try:
        return registry[name]
    except KeyError:
        known = ", ".join(sorted(registry))
        raise KeyError(f"unknown problem {name!r}; available: {known}") from None
