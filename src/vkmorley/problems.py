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


# -- square-poly: u = v = (x(1-x)y(1-y))^2 ----------------------------------


def _P(t):
    return (t * (1.0 - t)) ** 2


def _P1(t):
    return 2.0 * t - 6.0 * t**2 + 4.0 * t**3


def _P2(t):
    return 2.0 - 12.0 * t + 12.0 * t**2


def _P4(t):
    return 24.0 * np.ones_like(np.asarray(t, dtype=float))


def _poly_u(x, y):
    return _P(x) * _P(y)


def _poly_du(x, y):
    return _P1(x) * _P(y), _P(x) * _P1(y)


def _poly_d2u(x, y):
    return _P2(x) * _P(y), _P1(x) * _P1(y), _P(x) * _P2(y)


def _poly_lap2(x, y):
    return _P4(x) * _P(y) + 2.0 * _P2(x) * _P2(y) + _P(x) * _P4(y)


def _poly_bracket_uu(x, y):
    # [u, u] = 2 (u_xx u_yy - u_xy^2)
    hxx, hxy, hyy = _poly_d2u(x, y)
    return 2.0 * (hxx * hyy - hxy**2)


def _poly_f(x, y):
    return _poly_lap2(x, y) - _poly_bracket_uu(x, y)


def _poly_g(x, y):
    return _poly_lap2(x, y) + 0.5 * _poly_bracket_uu(x, y)


_POLY_EXACT = ExactSolution(
    u=_poly_u, du=_poly_du, d2u=_poly_d2u, lap2_u=_poly_lap2,
    v=_poly_u, dv=_poly_du, d2v=_poly_d2u, lap2_v=_poly_lap2,
)


# -- square-trig: u = v = sin^2(pi x) sin^2(pi y) ---------------------------


def _trig_axis(t):
    """S = sin^2(pi t) with its derivatives S1, S2 and S4.

    One sin(pi t), sin(2 pi t) and cos(2 pi t) serve all four.
    """
    c2 = np.cos(2.0 * np.pi * t)
    return (np.sin(np.pi * t) ** 2, np.pi * np.sin(2.0 * np.pi * t),
            2.0 * np.pi**2 * c2, -8.0 * np.pi**4 * c2)


def _trig_u(x, y):
    return _trig_axis(x)[0] * _trig_axis(y)[0]


def _trig_du(x, y):
    (S, S1, _, _), (T, T1, _, _) = _trig_axis(x), _trig_axis(y)
    return S1 * T, S * T1


def _trig_hessian(X, Y):
    (S, S1, S2, _), (T, T1, T2, _) = X, Y
    return S2 * T, S1 * T1, S * T2


def _trig_d2u(x, y):
    return _trig_hessian(_trig_axis(x), _trig_axis(y))


def _trig_lap2_of(X, Y):
    (S, _, S2, S4), (T, _, T2, T4) = X, Y
    return S4 * T + 2.0 * S2 * T2 + S * T4


def _trig_lap2(x, y):
    return _trig_lap2_of(_trig_axis(x), _trig_axis(y))


def _trig_bracket_uu(X, Y):
    hxx, hxy, hyy = _trig_hessian(X, Y)
    return 2.0 * (hxx * hyy - hxy**2)


def _trig_f(x, y):
    # The bracket first: fewer full-size temporaries are alive at once.
    X, Y = _trig_axis(x), _trig_axis(y)
    bracket = _trig_bracket_uu(X, Y)
    return _trig_lap2_of(X, Y) - bracket


def _trig_g(x, y):
    X, Y = _trig_axis(x), _trig_axis(y)
    bracket = _trig_bracket_uu(X, Y)
    return _trig_lap2_of(X, Y) + 0.5 * bracket


_TRIG_EXACT = ExactSolution(
    u=_trig_u, du=_trig_du, d2u=_trig_d2u, lap2_u=_trig_lap2,
    v=_trig_u, dv=_trig_du, d2v=_trig_d2u, lap2_v=_trig_lap2,
)


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
        data=ProblemData(f=_poly_lap2, g=_poly_lap2, include_bracket=False),
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
