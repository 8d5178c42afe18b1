"""Shape functions, dof enumeration, and field evaluation.

The 1d high-order modes are checked against their defining integral,
computed independently with scipy, and against the orthonormality of
their derivatives.  Dof totals are recounted from the active entity
census by hand.
"""

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import eval_legendre

from conftest import (CheckedMesh, evaluate_leaf_oracle, leaf_at, single_patch,
                      random_refined_mesh, random_orders, dof_entity,
                      index_of, integrated_legendre,
                      integrated_legendre_deriv, interpolate_nodal,
                      FieldApproximation,
                      leaf_mode_count, leaf_quad_order)
from overlayfem.mesh import Mesh, NODE, EDGE, FACE
from overlayfem.basis import (
    Basis, PolynomialOrderField, entity_mode_count, enumerate_dofs,
    shape_tables,
)
from overlayfem.benchmarks import lshape_mesh_spec
from overlayfem.quadrature import box_rule, gauss_rule_1d
from test_mesh import refine_at_corner


# ------------------------------------------------------------- 1d modes


def test_high_modes_match_defining_integral():
    xs = np.linspace(-1.0, 1.0, 9)
    for j in range(3, 11):
        scale = np.sqrt((2 * j - 3) / 2.0)
        for x in xs:
            ref, _ = quad(lambda t: eval_legendre(j - 2, t), -1.0, x)
            assert integrated_legendre(j, x) == pytest.approx(scale * ref, abs=1e-13)


def test_linear_modes():
    assert integrated_legendre(1, -1.0) == 1.0
    assert integrated_legendre(1, 1.0) == 0.0
    assert integrated_legendre(2, -1.0) == 0.0
    assert integrated_legendre(2, 1.0) == 1.0
    assert integrated_legendre(1, 0.2) + integrated_legendre(2, 0.2) == pytest.approx(1.0)


def test_high_modes_vanish_at_endpoints():
    for j in range(3, 14):
        assert integrated_legendre(j, -1.0) == pytest.approx(0.0, abs=1e-14)
        assert integrated_legendre(j, 1.0) == pytest.approx(0.0, abs=1e-14)


def test_derivatives_are_orthonormal():
    # d/dxi of mode j is sqrt((2j-3)/2) P_{j-2}; Legendre orthogonality
    # makes the stiffness of the high modes the identity
    for i in range(3, 9):
        for j in range(3, 9):
            val, _ = quad(
                lambda t: integrated_legendre_deriv(i, t) * integrated_legendre_deriv(j, t),
                -1.0, 1.0,
            )
            assert val == pytest.approx(1.0 if i == j else 0.0, abs=1e-12)


def test_derivative_matches_finite_difference():
    h = 1e-6
    xs = np.linspace(-0.95, 0.95, 7)
    for j in range(1, 9):
        fd = (integrated_legendre(j, xs + h) - integrated_legendre(j, xs - h)) / (2 * h)
        an = integrated_legendre_deriv(j, xs)
        assert np.allclose(fd, an, atol=5e-8)


def test_shape_table_consistency():
    xi = np.array([-0.7, 0.0, 0.3, 0.9])
    table, deriv = shape_tables(8, xi)
    assert table.shape == (8, 4)
    for j in range(1, 9):
        assert np.allclose(table[j - 1], integrated_legendre(j, xi))
        assert np.allclose(deriv[j - 1], integrated_legendre_deriv(j, xi))


def test_mode_argument_validation():
    with pytest.raises(ValueError):
        integrated_legendre(0, 0.0)
    with pytest.raises(ValueError):
        shape_tables(0, np.array([0.0]))
    with pytest.raises(ValueError):
        shape_tables(3, np.array([1.5]))
    with pytest.raises(ValueError):
        entity_mode_count(NODE, 0)
    with pytest.raises(ValueError):
        entity_mode_count("blob", 2)
    with pytest.raises(ValueError):
        entity_mode_count(np.array([NODE, 7]), 2)
    with pytest.raises(ValueError):
        entity_mode_count([NODE, EDGE], np.array([[3], [0]]))


def test_entity_mode_counts():
    assert entity_mode_count(NODE, 7) == 1
    assert entity_mode_count(EDGE, 1) == 0
    assert entity_mode_count(EDGE, 5) == 4
    assert entity_mode_count(FACE, 4) == 9
    # elementwise over broadcast kind codes and orders
    counts = entity_mode_count([NODE, EDGE, FACE], np.array([[1], [3]]))
    assert counts.tolist() == [[1, 0, 0], [1, 2, 4]]


# ------------------------------------------------------------ order field


def test_order_field_uniform_and_graded():
    u = PolynomialOrderField(uniform=4)
    assert u.level_order(0) == 4
    assert u.level_order(9) == 4
    assert u.base_order == 4

    g = PolynomialOrderField(by_level={0: 8, 2: 5})
    assert g.level_order(0) == 8
    assert g.level_order(1) == 8  # nearest shallower entry
    assert g.level_order(2) == 5
    assert g.level_order(7) == 5  # deeper levels reuse the deepest entry
    assert g.base_order == 8


def test_order_field_validation():
    with pytest.raises(ValueError):
        PolynomialOrderField()
    with pytest.raises(ValueError):
        PolynomialOrderField(uniform=3, by_level={0: 2})
    with pytest.raises(ValueError):
        PolynomialOrderField(uniform=0)
    with pytest.raises(ValueError):
        PolynomialOrderField(by_level={})
    with pytest.raises(ValueError):
        PolynomialOrderField(by_level={1: 3})  # level 0 missing
    with pytest.raises(ValueError):
        PolynomialOrderField(by_level={0: 0})


# ----------------------------------------------------------- enumeration


def recount_dofs(mesh, orders):
    t = mesh.table
    total = 0
    for kind, level, active in zip(t.kind.tolist(), t.level.tolist(),
                                   t.active.tolist()):
        if active:
            total += entity_mode_count(kind, orders.level_order(level))
    return total


def test_dof_total_matches_entity_recount():
    rng = np.random.default_rng(7)
    for _ in range(10):
        mesh = random_refined_mesh(rng)
        orders = random_orders(rng, mesh)
        basis = Basis(mesh, orders)
        assert basis.dofmap.total == recount_dofs(mesh, orders)


def test_dof_total_order_one_counts_nodes():
    mesh = random_refined_mesh(np.random.default_rng(3))
    basis = Basis(mesh, PolynomialOrderField(uniform=1))
    nodes = np.count_nonzero(mesh.table.active & (mesh.table.kind == NODE))
    assert basis.dofmap.total == nodes


def test_corner_graded_dof_total_closed_form():
    # five corner rounds on the L-shaped grid; entity counts per level
    # are lattice arithmetic (see test_mesh), dofs follow at any order
    mesh = Mesh(lshape_mesh_spec(16))
    refine_at_corner(mesh, (0.0, 0.0), 5)
    p = 18
    nodes = 833 + 4 * 5 + 5
    edges = 1598 + 4 * 14 + 16
    faces = 765 + 4 * 9 + 12
    expected = nodes + edges * (p - 1) + faces * (p - 1) ** 2
    assert expected == 264205
    basis = Basis(mesh, PolynomialOrderField(uniform=p))
    assert basis.dofmap.total == 264205


def test_dofmap_round_trip():
    rng = np.random.default_rng(11)
    mesh = random_refined_mesh(rng)
    basis = Basis(mesh, random_orders(rng, mesh))
    dm = basis.dofmap
    for gid in rng.integers(0, dm.total, size=40):
        row, mode = dof_entity(dm, int(gid))
        assert index_of(dm, row, mode) == gid
        assert mesh.table.active[row]
    with pytest.raises(IndexError):
        dof_entity(dm, dm.total)
    inactive = np.flatnonzero(~mesh.table.active)
    if inactive.size:
        with pytest.raises(KeyError):
            index_of(dm, int(inactive[0]), 0)
    offsets = [index_of(dm, row, 0) for row in dm.rows.tolist()]
    assert offsets == sorted(offsets)
    assert offsets[0] == 0


def test_leaf_dofs_cover_every_dof():
    rng = np.random.default_rng(23)
    mesh = random_refined_mesh(rng)
    basis = Basis(mesh, random_orders(rng, mesh))
    seen = np.zeros(basis.dofmap.total, dtype=bool)
    for leaf in mesh.active_leaf_elements():
        gids = basis.leaf_dofs(leaf)
        assert len(set(gids.tolist())) == len(gids)
        assert leaf_mode_count(basis, leaf) == len(gids)
        seen[gids] = True
    assert seen.all()


def test_leaf_quad_order():
    mesh = single_patch(2)
    basis = Basis(mesh, PolynomialOrderField(uniform=3))
    for leaf in mesh.active_leaf_elements():
        assert leaf_quad_order(basis, leaf) == 4

    mesh = single_patch(2)
    mesh.refine([mesh.active_leaf_elements()[0]])
    graded = Basis(mesh, PolynomialOrderField(by_level={0: 8, 1: 6}))
    deep = leaf_at(mesh, (0.1, 0.1))
    # the chain of a level-1 leaf still carries active order-8 entities
    assert leaf_quad_order(graded, deep) == 9


# ------------------------------------------------------------- evaluation


def test_constant_and_linear_fields_are_exact():
    rng = np.random.default_rng(5)
    for _ in range(6):
        mesh = random_refined_mesh(rng)
        basis = Basis(mesh, random_orders(rng, mesh))

        ones = interpolate_nodal(basis, lambda p: 1.0)
        a, b, c = rng.uniform(-2, 2, size=3)
        lin = interpolate_nodal(basis, lambda p: a + b * p[0] + c * p[1])

        pts = rng.uniform(0.0, 1.0, size=(30, 2))
        const_field = FieldApproximation(basis, ones)
        assert np.allclose(const_field.value(pts), 1.0, atol=1e-12)
        assert np.allclose(const_field.gradient(pts), 0.0, atol=1e-11)

        lin_field = FieldApproximation(basis, lin)
        exact = a + b * pts[:, 0] + c * pts[:, 1]
        assert np.allclose(lin_field.value(pts), exact, atol=1e-11)
        grads = lin_field.gradient(pts)
        assert np.allclose(grads[:, 0], b, atol=1e-9)
        assert np.allclose(grads[:, 1], c, atol=1e-9)


def test_constant_uses_only_base_nodes():
    mesh = random_refined_mesh(np.random.default_rng(17))
    basis = Basis(mesh, PolynomialOrderField(uniform=3))
    coeffs = interpolate_nodal(basis, lambda p: 1.0)
    for gid, val in enumerate(coeffs):
        row, _ = dof_entity(basis.dofmap, gid)
        if mesh.table.kind[row] == NODE and mesh.table.level[row] == 0:
            assert val == pytest.approx(1.0, abs=1e-12)
        else:
            assert val == pytest.approx(0.0, abs=1e-12)


def test_field_continuous_across_refinement_seam():
    # evaluate one random coefficient vector from both sides of the
    # interface between a refined and an unrefined element
    rng = np.random.default_rng(29)
    mesh = single_patch((2, 1), bounds=((0.0, 2.0), (0.0, 1.0)))
    left = leaf_at(mesh, (0.5, 0.5))
    mesh.refine([left])
    mesh.refine([leaf_at(mesh, (0.9, 0.9))])  # second level at the seam
    basis = Basis(mesh, PolynomialOrderField(uniform=4))
    coeffs = rng.standard_normal(basis.dofmap.total)

    right = leaf_at(mesh, (1.5, 0.5))
    for y in np.linspace(0.05, 0.95, 7):
        pt = np.array([[1.0, y]])
        fine = leaf_at(mesh, (1.0 - 1e-9, y))
        vf, gf = basis.evaluate_leaf(fine, pt)
        vc, gc = basis.evaluate_leaf(right, pt)
        a = float(vf[0] @ coeffs[basis.leaf_dofs(fine)])
        b = float(vc[0] @ coeffs[basis.leaf_dofs(right)])
        assert a == pytest.approx(b, abs=1e-11)
        # tangential derivative agrees as well
        ta = float(gf[0, :, 1] @ coeffs[basis.leaf_dofs(fine)])
        tb = float(gc[0, :, 1] @ coeffs[basis.leaf_dofs(right)])
        assert ta == pytest.approx(tb, abs=1e-9)


def test_leaf_gradient_matches_finite_difference():
    rng = np.random.default_rng(41)
    mesh = random_refined_mesh(rng)
    basis = Basis(mesh, random_orders(rng, mesh))
    leaves = mesh.active_leaf_elements()
    leaf = max(leaves, key=lambda e: mesh.elements.level[e])
    lo = mesh.elements.lo_f[leaf]
    hi = mesh.elements.hi_f[leaf]
    pts = lo + (hi - lo) * rng.uniform(0.2, 0.8, size=(5, 2))
    _, grad = basis.evaluate_leaf(leaf, pts)
    h = 1e-6
    for axis in range(2):
        step = np.zeros(2)
        step[axis] = h
        vp, _ = basis.evaluate_leaf(leaf, pts + step)
        vm, _ = basis.evaluate_leaf(leaf, pts - step)
        fd = (vp - vm) / (2 * h)
        scale = np.maximum(1.0, np.abs(grad[:, :, axis]))
        assert np.max(np.abs(fd - grad[:, :, axis]) / scale) < 5e-5


def evaluate_leaf_by_columns(basis, leaf, points):
    """Leaf tables as column blocks, one per chain element, concatenated:
    the reference for Basis.evaluate_leaf."""
    n = len(points)
    frames = basis.leaf_frames([basis.row_of[leaf]], points, [n])
    cols_v, cols_g = [], []
    for plans, (scale,), ref in frames:
        jx, jy = basis.plans[plans[0]]
        jmax = max(2, int(jx.max()) + 1, int(jy.max()) + 1)
        vals_1d, ders_1d = shape_tables(jmax, ref.T.ravel())
        vx, vy = vals_1d[:, :n], vals_1d[:, n:]
        dx, dy = ders_1d[:, :n], ders_1d[:, n:]
        cols_v.append((vx[jx] * vy[jy]).T)
        cols_g.append(np.stack(((dx[jx] * vy[jy] * scale[0]).T,
                                (vx[jx] * dy[jy] * scale[1]).T), axis=2))
    return np.concatenate(cols_v, axis=1), np.concatenate(cols_g, axis=1)


def test_leaf_tables_match_column_reference():
    # equal bits and equal memory layout: the einsum contractions over the
    # tables sum in an order that follows their strides
    rng = np.random.default_rng(42)
    for _ in range(4):
        mesh = random_refined_mesh(rng, max_leaves=200)
        basis = Basis(mesh, random_orders(rng, mesh))
        for leaf in mesh.active_leaf_elements():
            lo = mesh.elements.lo_f[leaf]
            hi = mesh.elements.hi_f[leaf]
            pts = lo + (hi - lo) * rng.uniform(0.0, 1.0, size=(7, 2))
            got = basis.evaluate_leaf(leaf, pts)
            want = evaluate_leaf_by_columns(basis, leaf, pts)
            for a, b in zip(got, want):
                assert np.array_equal(a, b)
                assert a.strides == b.strides


def test_batched_tables_match_leaves_evaluated_alone():
    # the leaves of one level in one call, each on its own number of
    # points (box corners included): every leaf's tables have the values
    # and the strides of the per-leaf evaluation
    rng = np.random.default_rng(43)
    for _ in range(4):
        mesh = random_refined_mesh(rng, max_leaves=200)
        basis = Basis(mesh, random_orders(rng, mesh))
        leaves = mesh.active_leaf_elements()
        levels = basis.levels[:len(leaves)]
        for level in np.unique(levels).tolist():
            rows = np.flatnonzero(levels == level)
            counts = rng.integers(1, 12, size=rows.size)
            unit = rng.uniform(0.0, 1.0, size=(counts.sum(), 2))
            unit[::5] = unit[::5].round()
            lo, hi = (np.repeat(a[rows], counts, axis=0)
                      for a in (basis.lo_f, basis.hi_f))
            pts = lo + (hi - lo) * unit
            offsets = np.append(0, np.cumsum(counts))
            got = basis.evaluate_leaves(rows, pts, offsets)
            spans = zip(offsets[:-1], offsets[1:])
            for row, (a, b), tables in zip(rows, spans, got, strict=True):
                for want in (evaluate_leaf_oracle(basis, leaves[row],
                                                  pts[a:b]),
                             basis.evaluate_leaf(leaves[row], pts[a:b])):
                    for x, y in zip(tables, want, strict=True):
                        assert x.tobytes() == y.tobytes()
                        assert x.strides == y.strides


def test_stale_point_rejected():
    mesh = single_patch(2)
    basis = Basis(mesh, PolynomialOrderField(uniform=2))
    leaf = mesh.active_leaf_elements()[0]
    with pytest.raises(ValueError):
        basis.evaluate_leaf(leaf, np.array([[5.0, 5.0]]))


# ------------------------------------------------------- activation rules


def activation_cases(count=30, make=Mesh):
    """Seeded random meshes and graded orders, with the rng that built them."""
    rng = np.random.default_rng(73)
    for _ in range(count):
        mesh = random_refined_mesh(rng, max_leaves=120, make=make)
        yield rng, Basis(mesh, random_orders(rng, mesh))


def test_active_functions_are_linearly_independent():
    # switching off every entity that has an active finer copy keeps the
    # active functions independent: their diagonally scaled Gram (mass)
    # matrix, integrated exactly, is positive definite
    smallest = np.inf
    for _, basis in activation_cases():
        n = basis.dofmap.total
        gram = np.zeros((n, n))
        for leaf in basis.mesh.active_leaf_elements():
            e = basis.mesh.elements
            rule = box_rule(e.lo_f[leaf], e.hi_f[leaf],
                            leaf_quad_order(basis, leaf))
            V, _ = basis.evaluate_leaf(leaf, rule.points)
            gids = basis.leaf_dofs(leaf)
            gram[np.ix_(gids, gids)] += V.T @ (rule.weights[:, None] * V)
        d = 1.0 / np.sqrt(np.diag(gram))
        smallest = min(smallest, np.linalg.eigvalsh(gram * np.outer(d, d))[0])
    assert smallest > 1e-8


def test_active_field_is_continuous_across_leaf_edges():
    # switching off the entities on the boundary of every refined region
    # leaves no jump: a random field takes one value on both sides of
    # every interior leaf edge, at Gauss points along it
    x1, _ = gauss_rule_1d(4)
    for rng, basis in activation_cases():
        mesh = basis.mesh
        coef = rng.standard_normal(basis.dofmap.total)
        sides = 0
        for i, leaf in enumerate(mesh.active_leaf_elements()):
            lo = mesh.elements.lo_f[leaf]
            hi = mesh.elements.hi_f[leaf]
            for axis in range(2):
                along = 1 - axis
                for upper in (False, True):
                    # boundary columns: bottom, top, left, right
                    if basis.boundary[i, 2 * (1 - axis) + upper]:
                        continue
                    pts = np.empty((x1.size, 2))
                    pts[:, axis] = hi[axis] if upper else lo[axis]
                    pts[:, along] = (lo[along] + hi[along] + x1 * (hi[along] - lo[along])) / 2
                    V, _ = basis.evaluate_leaf(leaf, pts)
                    inside = V @ coef[basis.leaf_dofs(leaf)]
                    step = np.zeros(2)
                    step[axis] = (hi[axis] - lo[axis]) * (1e-6 if upper else -1e-6)
                    for pt, val in zip(pts, inside):
                        other = leaf_at(mesh, pt + step)
                        assert other >= 0 and other != leaf
                        Vo, _ = basis.evaluate_leaf(other, pt[None, :])
                        assert abs(Vo[0] @ coef[basis.leaf_dofs(other)] - val) <= 1e-12
                    sides += 1
        assert sides > 0


def family(mesh, ids):
    """The children of each id in turn, four consecutive ids each."""
    return [int(mesh.elements.child[eid]) + k for eid in ids for k in range(4)]


def test_refine_twice_matches_sequential_creation():
    # the 30 activation cases, refined at random leaves and then at some
    # of their new children, every state checked row for row against the
    # object-by-object bookkeeping
    for rng, basis in activation_cases(make=CheckedMesh):
        mesh, orders = basis.mesh, basis.orders
        mesh.oracle.assert_matches(mesh, orders)
        leaves = mesh.active_leaf_elements()
        picked = leaves[rng.choice(
            len(leaves), size=max(1, len(leaves) // 5), replace=False)]
        mesh.refine(picked)
        mesh.oracle.assert_matches(mesh, random_orders(rng, mesh))
        children = family(mesh, picked)
        inner = [children[i] for i in rng.choice(
            len(children), size=max(1, len(children) // 4), replace=False)]
        mesh.refine(inner)
        mesh.oracle.assert_matches(mesh, random_orders(rng, mesh))
