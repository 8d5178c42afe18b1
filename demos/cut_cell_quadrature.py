"""Integrating over a curved embedded domain without a fitted mesh.

The geometry is a quarter disk described implicitly; cells cut by the
boundary are recursively bisected and each resulting subcell keeps a
full Gauss rule scaled by the domain indicator.  The area error then
drops with subdivision depth even though no element follows the circle.
"""

import json

import numpy as np

from overlayfem.mesh import BaseMeshSpec, PatchSpec, create_base_mesh
from overlayfem.basis import Basis, PolynomialOrderField
from overlayfem.quadrature import (
    Disk, EmbeddedDomain, geometry_from_json, indicator_area, leaf_rule,
)

mesh = create_base_mesh(BaseMeshSpec([PatchSpec(((0, 1), (0, 1)), (16, 16))]))
basis = Basis(mesh, PolynomialOrderField(uniform=2))
domain = EmbeddedDomain(Disk((0.0, 0.0), 1.0), epsilon=0.0)
exact = np.pi / 4.0

print("quarter-disk area by recursive cut-cell quadrature")
print(f"{'depth':>5} {'area':>12} {'error':>10}")
for depth in range(6):
    area = indicator_area(basis, domain, depth=depth)
    print(f"{depth:>5} {area:>12.8f} {abs(area - exact):>10.2e}")

# count quadrature cells on one cut leaf to see the tree at work
(cut,) = mesh.locate_leaves([(0.72, 0.72)])
for depth in (0, 2, 4):
    rule = leaf_rule(basis, cut, domain=domain, depth=depth)
    print(f"leaf at (0.72, 0.72): depth {depth} -> {len(rule.cells())} cells, "
          f"{rule.weights.size} points")

# the same machinery accepts composed geometry from JSON
desc = {
    "op": "subtract",
    "args": [
        {"primitive": "rect", "lo": [0.0, 0.0], "hi": [1.0, 1.0]},
        {"primitive": "disk", "center": [1.0, 1.0], "radius": 0.5},
    ],
}
plate = EmbeddedDomain(geometry_from_json(desc), epsilon=0.0)
hole = np.pi * 0.5 ** 2 / 4.0
area = indicator_area(basis, plate, depth=5)
print(f"\nplate with a corner hole: area {area:.8f}, exact {1.0 - hole:.8f}")
print(json.dumps(desc))
