"""One full solve through the simulated multi-rank pipeline.

Every rank integrates only its own leaves; all ranks' triplets are summed
into one operator in a partition-independent order, and the per-rank
table counts what each rank would send and keep.  Because of that order
the assembled operator and hence the iteration trace do not depend on
the rank count; the last lines check that directly.
"""

import numpy as np

from overlayfem.mesh import create_base_mesh
from overlayfem.basis import PolynomialOrderField
from overlayfem.benchmarks import RunConfig, lshape_mesh_spec, make_problem, mark_corner_leaves
from overlayfem.distributed import run_step

problem = make_problem(RunConfig(benchmark="lshape", res=8, p=3))
mesh = create_base_mesh(lshape_mesh_spec(8))
for _ in range(3):
    mesh.refine(mark_corner_leaves(mesh, (0.0, 0.0)))
orders = PolynomialOrderField(uniform=3)

report, basis, solution = run_step(
    mesh, orders, 4, problem.dirichlet_part,
    partitioner="sfc", flux=problem.flux, flux_part=problem.flux_part,
    tol=1e-10)

d = report.to_dict()
print(f"{d['leaves']} leaves, {d['dofs']} dofs ({d['free_dofs']} free), "
      f"{d['ranks']} ranks")
print(f"cg iterations: {d['cg_iterations']}, residual {d['residual']:.2e}")

print(f"\n{'rank':>4} {'leaves':>7} {'weight':>8} {'owned':>7} {'sent':>7} {'kept':>8} {'halo':>6}")
for r in d["per_rank"]:
    print(f"{r['rank']:>4} {r['leaf_count']:>7} {r['weight_sum']:>8.3f} "
          f"{r['owned_dofs']:>7} {r['sent_triplets']:>7} {r['kept_triplets']:>8} "
          f"{r['halo_columns']:>6}")

print("\nphase timings:", {k: round(v, 4) for k, v in d["timings"].items()})

# the rank count must not change the arithmetic
sols, iters = [], []
for n_ranks in (1, 2, 4):
    rep, _, sol = run_step(mesh, orders, n_ranks, problem.dirichlet_part,
                           partitioner="sfc", flux=problem.flux,
                           flux_part=problem.flux_part, tol=1e-10)
    iters.append(rep.cg_iterations)
    sols.append(sol)
drift = max(np.max(np.abs(s - sols[0])) for s in sols[1:])
print(f"\niterations at 1/2/4 ranks: {iters}; max solution drift {drift:.1e}")
