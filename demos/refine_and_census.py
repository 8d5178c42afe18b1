"""Corner refinement on the L-shaped mesh, with an entity census per level.

Each round marks the leaves touching the re-entrant corner and splits
them into four children on a finer overlay level.  Activation keeps the
union of levels linearly independent and continuous, so the number of
active entities per level is the thing to watch: the base level loses a
handful of entities under the refined region, every intermediate level
carries a small fixed band, and the finest level owns the corner.
"""

import numpy as np

from overlayfem.mesh import create_base_mesh, export_mesh_xml
from overlayfem.benchmarks import lshape_mesh_spec, mark_corner_leaves

RES = 8
STEPS = 4


def census(mesh, level):
    """Active (nodes, edges, faces) of one level, read off the entity table."""
    t = mesh.table
    kinds = t.kind[(t.level == level) & t.active]
    return tuple(np.bincount(kinds, minlength=3).tolist())


mesh = create_base_mesh(lshape_mesh_spec(RES))
print(f"L-shaped domain, {RES} elements per quadrant axis")
print(f"{'step':>4} {'leaves':>7}   active (nodes, edges, faces) per level")

for step in range(STEPS + 1):
    if step > 0:
        mesh.refine(mark_corner_leaves(mesh, (0.0, 0.0)))
    rows = [census(mesh, lvl) for lvl in range(mesh.max_level() + 1)]
    tail = "  ".join(f"L{lvl}:{r}" for lvl, r in enumerate(rows))
    print(f"{step:>4} {len(mesh.active_leaf_elements()):>7}   {tail}")

export_mesh_xml(mesh, "corner_mesh.xml")
print("\nwrote corner_mesh.xml (active leaves with level tags)")
