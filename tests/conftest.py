"""Shared helpers for the test suite.

Random meshes are built by seeded marking rounds so every test run sees
the same sequence.  Helpers here are deliberately small; anything used
as an oracle is reimplemented inside the test module that needs it.
"""

import numpy as np

from overlayfem.mesh import Mesh, BaseMeshSpec, PatchSpec
from overlayfem.basis import Basis, PolynomialOrderField
from overlayfem.benchmarks import lshape_mesh_spec, mark_corner_leaves

# Filled by the acceptance module; echoed after the run so the verdict
# lines are visible even under pytest's output capture.
ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.write_sep("-", "acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


def single_patch(res, bounds=((0.0, 1.0), (0.0, 1.0))):
    if isinstance(res, int):
        res = (res, res)
    spec = BaseMeshSpec(patches=(PatchSpec(bounds=bounds, resolution=res),))
    return Mesh(spec)


def random_refined_mesh(rng, max_leaves=1000):
    """Small unit-square mesh refined by random marking rounds."""
    res = int(rng.integers(2, 5))
    mesh = single_patch(res)
    rounds = int(rng.integers(1, 5))
    for _ in range(rounds):
        leaves = mesh.active_leaf_elements()
        if len(leaves) * 4 > max_leaves:
            break
        k = max(1, int(len(leaves) * float(rng.uniform(0.05, 0.3))))
        picked = rng.choice(len(leaves), size=k, replace=False)
        mesh.refine([leaves[i].id for i in picked])
    return mesh


def random_orders(rng, mesh, p_max=4):
    by_level = {lvl: int(rng.integers(1, p_max + 1)) for lvl in range(mesh.max_level() + 1)}
    return PolynomialOrderField(by_level=by_level)


def random_basis(rng, max_leaves=1000, p_max=4):
    mesh = random_refined_mesh(rng, max_leaves=max_leaves)
    return Basis(mesh, random_orders(rng, mesh, p_max=p_max))


def stretched_basis(rng):
    """Two conforming patches of square and of 2:1 elements, refined at random.

    Elements of one level differ in scale here, which a random unit-square
    mesh never shows.
    """
    mesh = Mesh(BaseMeshSpec((PatchSpec(((0, 1), (0, 1)), (2, 2)),
                              PatchSpec(((1, 3), (0, 1)), (2, 2)))))
    for _ in range(3):
        leaves = mesh.active_leaf_elements()
        picked = rng.choice(len(leaves), size=len(leaves) // 3, replace=False)
        mesh.refine([leaves[i].id for i in picked])
    return Basis(mesh, random_orders(rng, mesh))


def corner_refined(res, steps):
    """The L-shape base mesh after `steps` refinements at the corner."""
    mesh = Mesh(lshape_mesh_spec(res))
    for _ in range(steps):
        mesh.refine(mark_corner_leaves(mesh, (0.0, 0.0)))
    return mesh
