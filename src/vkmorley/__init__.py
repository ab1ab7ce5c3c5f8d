"""Adaptive Morley finite elements for von Karman plate bending.

The package solves the clamped von Karman plate equations with the
nonconforming Morley element and drives an adaptive
solve/estimate/mark/refine loop based on a residual error estimator,
Doerfler marking, and newest-vertex bisection.
"""

from .mesh import Mesh, MeshError, build_initial_mesh, refine, uniform_refine
from .morley import MorleySpace, MorleyField, build_space, interpolate, prolongate
from .forms import ProblemData
from .solver import SolveReport, factorise, newton_solve, linear_solve
from .estimator import EstimatorReport, estimate, oscillation
from .adaptivity import AmfemConfig, ConvergenceReport, doerfler_mark, amfem_run, uniform_run
from .problems import registry

__all__ = [
    "Mesh",
    "MeshError",
    "build_initial_mesh",
    "refine",
    "uniform_refine",
    "MorleySpace",
    "MorleyField",
    "build_space",
    "interpolate",
    "prolongate",
    "ProblemData",
    "SolveReport",
    "newton_solve",
    "factorise",
    "linear_solve",
    "EstimatorReport",
    "estimate",
    "oscillation",
    "AmfemConfig",
    "ConvergenceReport",
    "doerfler_mark",
    "amfem_run",
    "uniform_run",
    "registry",
]

__version__ = "0.1.0"
