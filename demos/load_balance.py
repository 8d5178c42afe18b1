"""Partitioning a refined mesh whose leaf costs differ.

The cost model weighs a leaf by n_GP * N^3, so on an hp mesh the
high-order base leaves outweigh the low-order overlay leaves (here by up
to about 4x).  Cutting the leaf list into equal-count blocks
(`contiguous`, the baseline) ignores that; ordering leaves along a
space-filling curve and cutting by weight (`sfc`) keeps both locality
and balance.
"""

from overlayfem.mesh import create_base_mesh
from overlayfem.basis import Basis, PolynomialOrderField
from overlayfem.benchmarks import lshape_mesh_spec, mark_corner_leaves
from overlayfem.partition import (
    PARTITIONERS, compute_leaf_weights, partition_leaves, weighted_imbalance,
)

mesh = create_base_mesh(lshape_mesh_spec(8))
for _ in range(4):
    mesh.refine(mark_corner_leaves(mesh, (0.0, 0.0)))

basis = Basis(mesh, PolynomialOrderField(by_level={0: 6, 1: 4, 2: 3, 3: 2, 4: 1}))
weights = compute_leaf_weights(basis)
n = len(weights)
print(f"{n} leaves, weight range {weights.min():.3f} .. {weights.max():.3f}")

print(f"\n{'ranks':>5} {'method':>12} {'imbalance':>10}")
for n_ranks in (2, 4, 8):
    for method in PARTITIONERS:
        ranks = partition_leaves(method, mesh, basis, weights, n_ranks)
        imb = weighted_imbalance(weights, ranks, n_ranks)
        print(f"{n_ranks:>5} {method:>12} {imb:>10.4f}")

print("\nimbalance = max rank weight / mean rank weight (1.0 is perfect)")
