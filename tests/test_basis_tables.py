"""The Basis tables against the per-element walks they replaced.

Every query of the array tables (element plans, leaf dofs, quadrature
orders, mode counts, boundary sides), the Dirichlet mask and the
signature-grouped flux loads must equal the oracles in conftest exactly,
on meshes that reach every branch: non-dyadic and corner-refined
L-shapes, graded orders with order-1 levels, two patches of different
element sizes, and refined elements outside the active set.
"""

import numpy as np
import pytest

from conftest import (constrained_dof_mask_oracle, corner_refined,
                      leaf_dofs_oracle, leaf_flux_load, neumann_load,
                      leaf_quad_order_oracle, plan_oracle, random_orders,
                      side_on_domain_boundary, single_patch, SIDES_2D,
                      stretched_basis,
                      leaf_mode_count, leaf_quad_order, n_constrained)
from overlayfem.basis import Basis, PolynomialOrderField
from overlayfem.benchmarks import (BoxBoundary, InBoxes, lshape_dirichlet,
                                   lshape_neumann_part)
from overlayfem.mesh import EDGE, NODE
from overlayfem.physics import (DirichletMap, LShapeSolution,
                                constrained_dof_mask, flux_loads_by_leaf)


def poly_flux(points, normal):
    # products and sums only: the same bits point by point in any batch
    return ((1.0 + points[:, 0] * points[:, 1]) * normal[0]
            + points[:, 1] ** 2 * normal[1])


def graded_quadrature_mesh():
    """The {0: 1, 1: 3, 2: 4} case of the leaf-rule oracle test: order-1
    base entities carry no edge or face dofs."""
    rng = np.random.default_rng(3)
    mesh = single_patch(3)
    for _ in range(2):
        leaves = mesh.active_leaf_elements()
        picked = rng.choice(len(leaves), size=len(leaves) // 4, replace=False)
        mesh.refine(leaves[picked])
    return Basis(mesh, PolynomialOrderField(by_level={0: 1, 1: 3, 2: 4}))


def deep_graded_mesh():
    mesh = single_patch(2)
    mesh.refine([mesh.active_leaf_elements()[0]])
    return Basis(mesh, PolynomialOrderField(by_level={0: 8, 1: 6}))


def twice_refined_mesh():
    rng = np.random.default_rng(11)
    mesh = single_patch(4)
    leaves = mesh.active_leaf_elements()
    picked = leaves[rng.choice(len(leaves), 6, replace=False)].tolist()
    mesh.refine(picked)
    children = [mesh.elements.child[eid] + k for eid in picked for k in range(4)]
    mesh.refine(children[1::5])
    return Basis(mesh, random_orders(rng, mesh))


CASES = {
    "lshape-res3": lambda: Basis(corner_refined(3, 3),
                                 PolynomialOrderField(uniform=4)),
    "lshape-res16": lambda: Basis(corner_refined(16, 5),
                                  PolynomialOrderField(uniform=4)),
    "graded-8-6": deep_graded_mesh,
    "graded-1-3-4": graded_quadrature_mesh,
    "refined-twice": twice_refined_mesh,
    "two-patch": lambda: stretched_basis(np.random.default_rng(7)),
}


@pytest.fixture(params=sorted(CASES), scope="module")
def basis(request):
    return CASES[request.param]()


def test_tables_equal_per_element_oracles(basis):
    mesh = basis.mesh
    refined = 0
    # every element of the forest, refined ones included
    for elem in range(len(mesh.elements)):
        row = basis.row_of[elem]
        want = leaf_dofs_oracle(basis, elem)
        got = basis.leaf_dofs(elem)
        assert got.dtype == want.dtype and np.array_equal(got, want)
        assert leaf_mode_count(basis, elem) == want.size
        assert (leaf_quad_order(basis, elem)
                == leaf_quad_order_oracle(basis, elem))
        jx, jy, gids = plan_oracle(basis, elem)
        pjx, pjy = basis.plans[basis._plan_id[row]]
        assert np.array_equal(pjx, jx) and np.array_equal(pjy, jy)
        assert basis._elem_modes[row] == gids.size
        assert [bool(b) for b in basis.boundary[row]] == [
            side_on_domain_boundary(mesh, elem, axis, upper)
            for axis, upper in SIDES_2D]
        refined += bool(mesh.elements.child[elem] >= 0)
    assert refined > 0
    assert sorted(basis.row_of.tolist()) == list(range(len(mesh.elements)))
    leaves = mesh.active_leaf_elements()
    assert [basis.row_of[leaf] for leaf in leaves] == list(range(len(leaves)))


# per-leaf queries that only the tests ask, kept in conftest
MOVED_QUERIES = {"leaf_mode_count": leaf_mode_count,
                 "leaf_quad_order": leaf_quad_order}


@pytest.mark.parametrize("query", ["leaf_dofs", "leaf_mode_count",
                                   "leaf_quad_order", "evaluate_leaf"])
def test_leaf_queries_reject_bad_ids(query):
    # an index array would wrap -1 to the last row: ids are checked first
    mesh = single_patch(2)
    mesh.refine([3])
    mesh.refine([0])   # ids 8 .. 11 are leaves
    basis = Basis(mesh, PolynomialOrderField(uniform=3))
    mesh.refine([4])   # ids 12 .. 15 are newer than the Basis

    def ask(eid):
        args = (np.zeros((1, 2)),) if query == "evaluate_leaf" else ()
        if query in MOVED_QUERIES:
            return MOVED_QUERIES[query](basis, eid)
        return getattr(basis, query)(eid, *args)

    for bad in (-1, np.int64(-12), 12, 10 ** 6, np.int32(15), 16, 2.0, True):
        with pytest.raises(KeyError):
            ask(bad)
    want = ask(8)
    for good in (np.int64(8), np.uint16(8), np.int32(8)):
        got = ask(good)
        if query == "evaluate_leaf":
            assert all(np.array_equal(a, b) for a, b in zip(got, want))
        else:
            assert np.array_equal(got, want)


def test_dirichlet_mask_equals_oracle(basis):
    base = np.arange(basis.mesh.n_base)
    lo = basis.mesh.elements.lo_f[base].min(axis=0)
    hi = basis.mesh.elements.hi_f[base].max(axis=0)
    parts = [BoxBoundary(tuple(lo), tuple(hi)),
             InBoxes((((lo[0], lo[1]), (hi[0], lo[1])),
                      ((lo[0], lo[1]), (lo[0], (lo[1] + hi[1]) / 2)))),
             lshape_dirichlet]
    for part in parts:
        mask = constrained_dof_mask(basis, part)
        assert np.array_equal(mask, constrained_dof_mask_oracle(basis, part))
    assert constrained_dof_mask(basis, parts[0]).any()


def test_flux_loads_equal_per_leaf_oracle(basis):
    lshape = len(basis.mesh.spec.patches) == 3
    flux = LShapeSolution().flux if lshape else poly_flux
    leaves = basis.mesh.active_leaf_elements()
    for part in (None, lshape_neumann_part):
        loads = flux_loads_by_leaf(basis, flux, part)
        want = {}
        for i, leaf in enumerate(leaves):
            f = leaf_flux_load(basis, leaf, flux, part)
            if f is not None:
                want[i] = f
        assert list(loads) == list(want)
        for i, f in want.items():
            assert np.array_equal(loads[i], f)
        serial = np.zeros(basis.dofmap.total)
        for i, f in want.items():
            np.add.at(serial, leaf_dofs_oracle(basis, leaves[i]), f)
        assert np.array_equal(neumann_load(basis, flux, part), serial)
    assert loads


def test_dirichlet_map_tests_each_node_once():
    basis = Basis(corner_refined(4, 3), PolynomialOrderField(uniform=3))
    calls = []

    def counting(point):
        calls.append(tuple(point))
        return lshape_dirichlet(point)

    dirichlet = DirichletMap(basis, counting)
    table = basis.mesh.table
    nodes = set()
    for row in basis.dofmap.rows.tolist():
        if table.kind[row] == NODE:
            nodes.add(row)
        elif table.kind[row] == EDGE:
            nodes.update(table.ends[row].tolist())
    assert len(calls) == len(nodes)
    assert np.array_equal(dirichlet.mask,
                          constrained_dof_mask_oracle(basis, lshape_dirichlet))
    assert n_constrained(dirichlet) > 0
