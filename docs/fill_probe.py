"""Opt-in probe of the sparse LU's fill at scale; not part of the test suite.

    PYTHONPATH=src python docs/fill_probe.py                # every case
    PYTHONPATH=src python docs/fill_probe.py uniform-15     # one case

Cases: the L-shape bisected uniformly 13, 14 and 15 times (97,793 to
392,193 dofs), and the adaptive lshape-f1 run of acceptance criterion 10
(theta 0.3, delta 0.9) capped at 3x10^4 and 10^5 dofs; any other
``uniform-<levels>`` or ``adaptive-<cap>`` case runs when named.  For
the bilaplacian of each case's last mesh it prints the dofs, the L + U
nonzeros per dof of ``factorise``'s factor, its off-diagonal pivots (rows
where SuperLU's ``perm_r`` is not the identity), the seconds that
building the case (for an adaptive case the whole run),
``dissection_order`` and ``factorise`` take, and the peak RSS.  Each case
runs in a fresh single-threaded process, so the peak is its own: for a
uniform case the mesh, the space and one factor; for an adaptive case the
whole run, whose every level is factorised too.
"""

import os
import resource
import subprocess
import sys
import time

import numpy as np
import scipy.sparse.linalg as spla

from vkmorley.adaptivity import AmfemConfig, amfem_run
from vkmorley.forms import assemble_bilaplacian
from vkmorley.mesh import build_initial_mesh, uniform_refine
from vkmorley.morley import build_space
from vkmorley.problems import get_problem
from vkmorley.solver import dissection_order, factorise

CASES = ["uniform-13", "uniform-14", "uniform-15", "adaptive-30000", "adaptive-100000"]


def case_space(case):
    kind, size = case.split("-")
    if kind == "uniform":
        mesh = build_initial_mesh("lshape")
        for _ in range(int(size)):
            mesh = uniform_refine(mesh)
        return build_space(mesh)
    cfg = AmfemConfig(theta=0.3, delta=0.9, max_ndofs=int(size), max_levels=500)
    return amfem_run(get_problem("lshape-f1"), cfg).final.space


def measure(case):
    start = time.perf_counter()
    space = case_space(case)
    build_s = time.perf_counter() - start
    A = assemble_bilaplacian(space)
    start = time.perf_counter()
    order = dissection_order(space)
    order_s = time.perf_counter() - start

    factors = []
    splu = spla.splu
    spla.splu = lambda M, **kwargs: factors.append(splu(M, **kwargs)) or factors[-1]
    start = time.perf_counter()
    factorise(A, order)
    factor_s = time.perf_counter() - start
    # Read before L and U, which are built as copies of the factor.
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    lu = factors[0]
    fill = lu.L.nnz + lu.U.nnz
    pivots = np.count_nonzero(lu.perm_r != np.arange(space.n_dofs))
    print(f"| {case} | {space.n_dofs:,} | {fill / space.n_dofs:.1f} | {pivots:,} "
          f"| {build_s:.2f} | {order_s:.3f} | {factor_s:.2f} | {rss_mb:,.0f} |", flush=True)


if __name__ == "__main__":
    if len(sys.argv) > 1:
        for name in sys.argv[1:]:
            measure(name)
    else:
        print("| case | dofs | fill/dof | off-diagonal pivots | case s | order s | factor s "
              "| peak RSS MB |")
        print("| --- | --- | --- | --- | --- | --- | --- | --- |", flush=True)
        env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
                   MKL_NUM_THREADS="1")
        for name in CASES:
            subprocess.run([sys.executable, __file__, name], env=env, check=True)
