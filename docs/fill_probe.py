"""Opt-in probe of the sparse LU's fill at scale; not part of the test suite.

    PYTHONPATH=src python docs/fill_probe.py                # every case
    PYTHONPATH=src python docs/fill_probe.py uniform-15     # one case

Cases: the unit square bisected uniformly 10, 11, 12 and 14 times (3,969
to 65,025 dofs; 11 and 12 are the meshes of the square-trig benchmark
workloads, and at the even depths every grid square is split by one
diagonal), the L-shape bisected uniformly 13, 14 and 15 times (97,793 to
392,193 dofs), and the adaptive lshape-f1 run of acceptance criterion 10
(theta 0.3, delta 0.9) capped at 3x10^3 (the lshape-adaptive workload),
3x10^4 and 10^5 dofs; any other ``square-<levels>``, ``uniform-<levels>``
or ``adaptive-<cap>`` case runs when named.  For the bilaplacian of each
case's last mesh it prints the dofs, the L + U nonzeros per dof of
``factorise``'s factor, its off-diagonal pivots (rows where SuperLU's
``perm_r`` is not the identity), the seconds that building the case (for
an adaptive case the whole run) and ``dissection_order`` take, the
order's ``tracemalloc`` peak in MiB (from a second call, made after the
peak RSS is read), the seconds ``factorise`` takes, and the peak RSS.
Each case runs in a fresh single-threaded process, so the peak is its
own: for a uniform case the mesh, the space and one factor; for an
adaptive case the whole run, whose every level is factorised too.  After
the peak RSS is read, one ``newton_solve`` of lshape-f1 on the case's
space runs under ``tracemalloc``: its traced peak (Python's and numpy's
allocations, not SuperLU's) is printed in vectors of 2n doubles, and so
is its steps' transient, the peak after the factor less what was held
when it was made.
Last, the same scaled, dissection-ordered matrix is factorised again with
SuperLU's own ``MMD_AT_PLUS_A`` column order (minimum degree on A + A^T)
on top, the other options unchanged, and its L + U nonzeros per dof are
printed beside ``factorise``'s.
"""

import os
import resource
import subprocess
import sys
import time
import tracemalloc

import numpy as np
import scipy.sparse.linalg as spla

from vkmorley import solver
from vkmorley.adaptivity import AmfemConfig, amfem_run
from vkmorley.forms import assemble_bilaplacian
from vkmorley.mesh import build_initial_mesh, uniform_refine
from vkmorley.morley import build_space
from vkmorley.problems import get_problem
from vkmorley.solver import dissection_order, factorise, newton_solve

CASES = ["square-10", "square-11", "square-12", "square-14", "uniform-13", "uniform-14",
         "uniform-15", "adaptive-3000", "adaptive-30000", "adaptive-100000"]


def case_space(case):
    kind, size = case.split("-")
    if kind in ("square", "uniform"):
        mesh = build_initial_mesh("square" if kind == "square" else "lshape")
        for _ in range(int(size)):
            mesh = uniform_refine(mesh)
        return build_space(mesh)
    cfg = AmfemConfig(theta=0.3, delta=0.9, max_ndofs=int(size), max_levels=500)
    return amfem_run(get_problem("lshape-f1"), cfg).final.space


def newton_rows(space):
    """(whole, steps) traced peaks of one newton_solve in vectors of 2n doubles."""
    original, marks = solver.factorise, {}

    def traced(*args):
        solve = original(*args)
        marks["setup"], marks["held"] = tracemalloc.get_traced_memory()[::-1]
        tracemalloc.reset_peak()
        return solve

    solver.factorise = traced
    tracemalloc.start()
    try:
        newton_solve(space, get_problem("lshape-f1").data)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        solver.factorise = original
    row = 2 * space.n_dofs * 8
    return max(peak, marks["setup"]) / row, (peak - marks["held"]) / row


def measure(case):
    start = time.perf_counter()
    space = case_space(case)
    build_s = time.perf_counter() - start
    A = assemble_bilaplacian(space)
    start = time.perf_counter()
    order = dissection_order(space)
    order_s = time.perf_counter() - start

    factors = []  # (scaled, ordered matrix, its factor, splu's options)
    splu = spla.splu
    spla.splu = (lambda M, **kwargs:
                 factors.append((M, splu(M, **kwargs), kwargs)) or factors[-1][1])
    start = time.perf_counter()
    factorise(A, order)
    factor_s = time.perf_counter() - start
    spla.splu = splu
    # Read before L and U, which are built as copies of the factor.
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    M, lu, options = factors.pop()
    fill = lu.L.nnz + lu.U.nnz
    pivots = np.count_nonzero(lu.perm_r != np.arange(space.n_dofs))
    del lu
    whole, steps = newton_rows(space)
    tracemalloc.start()
    dissection_order(space)
    order_mib = tracemalloc.get_traced_memory()[1] / 2**20
    tracemalloc.stop()
    lu = splu(M, **dict(options, permc_spec="MMD_AT_PLUS_A"))
    mmd_fill = lu.L.nnz + lu.U.nnz
    del lu
    print(f"| {case} | {space.n_dofs:,} | {fill / space.n_dofs:.1f} | {pivots:,} "
          f"| {build_s:.2f} | {order_s:.3f} | {order_mib:.2f} | {factor_s:.2f} | {rss_mb:,.0f} "
          f"| {whole:.1f} | {steps:.1f} | {mmd_fill / space.n_dofs:.1f} |", flush=True)


if __name__ == "__main__":
    if len(sys.argv) > 1:
        for name in sys.argv[1:]:
            measure(name)
    else:
        print("| case | dofs | fill/dof | off-diagonal pivots | case s | order s "
              "| order traced peak MiB | factor s | peak RSS MB | Newton traced peak, rows of 2n | its steps' transient, rows "
              "| fill/dof with MMD_AT_PLUS_A |")
        print("| --- | --- | --- | --- | --- | --- | --- | --- | --- | --- | --- | --- |",
              flush=True)
        env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
                   MKL_NUM_THREADS="1")
        for name in CASES:
            subprocess.run([sys.executable, __file__, name], env=env, check=True)
