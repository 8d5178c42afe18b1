"""Element integration, boundary conditions, and the corner solution.

The strong checks are exact-representation problems: fields that the
basis can reproduce exactly must come back to solver precision through
the full assemble/constrain/solve path.
"""

import numpy as np
import pytest
from scipy.integrate import quad

from conftest import (leaf_at, single_patch, random_basis, random_refined_mesh,
                      random_orders, stretched_basis, corner_refined,
                      gauss_cell, rule_from_cells, recursive_spacetree_cells,
                      assert_rule_is_cells, element_system, leaf_jacobian,
                      leaf_to_physical, CUT_CELL_CONFIGS, study_bases,
                      assemble_serial, dirichlet_reduce, dof_entity,
                      FieldApproximation, interpolate_nodal, neumann_load,
                      solve_dirichlet, leaf_quad_order, n_constrained)
from overlayfem.mesh import EDGE, NODE, Mesh
from overlayfem.basis import Basis, PolynomialOrderField
from overlayfem.physics import (
    integrate_leaves, constrained_dof_mask, DirichletMap, LShapeSolution,
    corner_rule, energy_error, _corner_shells,
)
from overlayfem.benchmarks import (lshape_mesh_spec, mark_ball_leaves,
                                   mark_corner_leaves)
from overlayfem.partition import compute_leaf_weights
from overlayfem.quadrature import (Disk, EmbeddedDomain, leaf_rule,
                                   leaf_rule_table, reference_rule)


def two_level_mesh():
    mesh = single_patch(2)
    mesh.refine([leaf_at(mesh, (0.75, 0.75))])
    mesh.refine([leaf_at(mesh, (0.6, 0.6))])
    return mesh


def on_unit_square_boundary(p):
    return min(p[0], p[1]) < 1e-12 or max(p[0], p[1]) > 1 - 1e-12


# -------------------------------------------------------------- elements


def test_element_stiffness_symmetric_psd():
    rng = np.random.default_rng(3)
    mesh = random_refined_mesh(rng)
    basis = Basis(mesh, random_orders(rng, mesh))
    for leaf in mesh.active_leaf_elements()[:12]:
        K, _, gids = element_system(basis, leaf)
        assert K.shape == (len(gids), len(gids))
        assert np.allclose(K, K.T, atol=1e-12 * max(1.0, np.abs(K).max()))
        eigs = np.linalg.eigvalsh(K)
        assert eigs.min() > -1e-10 * max(1.0, eigs.max())


def test_element_stiffness_annihilates_constants():
    rng = np.random.default_rng(9)
    mesh = random_refined_mesh(rng)
    basis = Basis(mesh, random_orders(rng, mesh))
    const = interpolate_nodal(basis, lambda p: 3.5)
    for leaf in mesh.active_leaf_elements():
        K, _, gids = element_system(basis, leaf)
        r = K @ const[gids]
        assert np.max(np.abs(r)) < 1e-11 * max(1.0, np.abs(K).max())


def test_cut_leaf_system_same_from_warm_and_cold_basis():
    mesh = two_level_mesh()
    orders = PolynomialOrderField(by_level={0: 3, 1: 2})
    dom = EmbeddedDomain(Disk((0.0, 0.0), 0.7), epsilon=1e-6)
    warm = Basis(mesh, orders)
    compute_leaf_weights(warm, dom, 3)
    assert list(warm.leaf_rules) == [(3, dom)]
    src = lambda pts: np.sin(pts[:, 0]) + pts[:, 1]
    cut = 0
    for leaf in mesh.active_leaf_elements():
        cold = Basis(mesh, orders)
        K, f, gids = element_system(warm, leaf, dom, 3, src)
        K0, f0, gids0 = element_system(cold, leaf, dom, 3, src)
        assert np.array_equal(K, K0)
        assert np.array_equal(f, f0)
        assert np.array_equal(gids, gids0)
        cut += len(leaf_rule(warm, leaf, dom, 3).cells()) > 1
        # and equal to evaluating the leaf cell by cell
        to_phys = leaf_to_physical(mesh, leaf)
        K_ref = np.zeros_like(K)
        f_ref = np.zeros_like(f)
        for cell in recursive_spacetree_cells(
                [-1.0, -1.0], [1.0, 1.0], dom, 3, leaf_quad_order(cold, leaf),
                to_phys):
            pts = to_phys(cell.points)
            V, G = cold.evaluate_leaf(leaf, pts)
            w = cell.weights * cell.alpha * leaf_jacobian(mesh, leaf)
            K_ref += np.einsum("q,qid,qjd->ij", w, G, G)
            f_ref += V.T @ (w * src(pts))
        assert np.array_equal(K, K_ref)
        assert np.array_equal(f, f_ref)
    assert cut > 0


# ----------------------------------------------------- the one kernel


@pytest.mark.parametrize("name, epsilon", [
    *((name, None) for name in sorted(CUT_CELL_CONFIGS)),
    ("fcm res 8", 1e-3), ("fcm res 16", 1e-3)])
def test_kernel_matches_per_cell_oracle(name, epsilon):
    # every leaf of every step, cut or not, with and without a source:
    # the bits of the per-leaf, cell-by-cell loop
    config = dict(CUT_CELL_CONFIGS[name])
    if epsilon is not None:
        config["epsilon"] = epsilon
    cut = 0
    for problem, basis in study_bases(config):
        dom, depth = problem.domain, problem.depth
        leaves = basis.mesh.active_leaf_elements()
        for source in (problem.source, None):
            Ks, fs = integrate_leaves(basis, np.arange(len(leaves)), dom,
                                      depth, source)
            for leaf, K, f in zip(leaves, Ks, fs, strict=True):
                K0, f0, _ = element_system(basis, leaf, dom, depth, source)
                assert K.tobytes() == K0.tobytes()
                assert (f is None) == (source is None) == (f0 is None)
                assert f is None or f.tobytes() == f0.tobytes()
        cut += int(np.sum(np.diff(leaf_rule_table(basis, dom, depth)[1]) > 1))
    assert cut > 0


def test_kernel_on_random_meshes_matches_per_cell_oracle():
    # graded orders, 2:1 and non-dyadic leaves, with and without a domain
    rng = np.random.default_rng(63)
    dom = EmbeddedDomain(Disk((0.0, 0.0), 0.7), epsilon=1e-6)
    src = lambda pts: np.sin(pts[:, 0]) + pts[:, 1]
    cut = 0
    for basis in [random_basis(rng, max_leaves=150) for _ in range(4)] + [
            stretched_basis(rng)]:
        leaves = basis.mesh.active_leaf_elements()
        for domain in (None, dom):
            Ks, fs = integrate_leaves(basis, np.arange(len(leaves)), domain,
                                      2, src)
            for leaf, K, f in zip(leaves, Ks, fs, strict=True):
                K0, f0, _ = element_system(basis, leaf, domain, 2, src)
                assert K.tobytes() == K0.tobytes()
                assert f.tobytes() == f0.tobytes()
        cut += int(np.sum(np.diff(leaf_rule_table(basis, dom, 2)[1]) > 1))
    assert cut > 0


# ------------------------------------------------- warm and cold bases


def test_warm_basis_equals_cold_evaluation():
    # a warm Basis, filled by one full pass, gives every leaf the bytes of
    # a Basis built for that leaf alone, on non-dyadic res-3 meshes,
    # graded orders and 2:1 elements too
    rng = np.random.default_rng(61)
    dom = EmbeddedDomain(Disk((0.0, 0.0), 0.7), epsilon=1e-6)
    src = lambda pts: np.sin(pts[:, 0]) + pts[:, 1]
    grad = lambda pts: np.column_stack((np.cos(pts[:, 0]), pts[:, 0] * pts[:, 1]))
    bases = [random_basis(rng, max_leaves=150) for _ in range(5)]
    assert {b.mesh.n_base for b in bases} >= {4, 9}
    for basis in bases + [stretched_basis(rng)]:
        mesh, orders = basis.mesh, basis.orders
        leaves = mesh.active_leaf_elements()
        coef = rng.standard_normal(basis.dofmap.total)
        for domain in (None, dom):
            warm = Basis(mesh, orders)
            for leaf in leaves:
                element_system(warm, leaf, domain, 2, src)
            for leaf in leaves:
                K, f, _ = element_system(warm, leaf, domain, 2, src)
                K0, f0, _ = element_system(Basis(mesh, orders), leaf,
                                           domain, 2, src)
                assert np.array_equal(K, K0)
                assert np.array_equal(f, f0)
            args = (coef, grad, (0.0, 0.0), 2, 40, domain, 2)
            energy_error(warm, *args)
            assert energy_error(warm, *args) == energy_error_per_leaf(
                Basis(mesh, orders), *args)


def test_singular_and_cut_leaves_equal_cold_evaluation():
    mesh = two_level_mesh()
    orders = PolynomialOrderField(uniform=3)
    dom = EmbeddedDomain(Disk((0.0, 0.0), 0.7), epsilon=1e-6)
    basis = Basis(mesh, orders)
    leaves = mesh.active_leaf_elements()
    cut = [leaf for leaf in leaves
           if len(leaf_rule(basis, leaf, dom, 3).cells()) > 1]
    assert cut
    for leaf in leaves:
        K, _, _ = element_system(basis, leaf, dom, 3)
        K0, _, _ = element_system(Basis(mesh, orders), leaf, dom, 3)
        assert np.array_equal(K, K0)

    # (0.5, 0.5) is a corner of all four leaves, (0, 0) of one
    basis = Basis(single_patch(2), orders)
    coef = np.random.default_rng(62).standard_normal(basis.dofmap.total)
    grad = lambda pts: np.column_stack((pts[:, 1] ** 2, np.sin(pts[:, 0])))
    for point in ((0.5, 0.5), (0.0, 0.0)):
        for domain in (None, dom):
            args = (coef, grad, point, 2, 40, domain, 2)
            assert energy_error(basis, *args) == energy_error_per_leaf(
                basis, *args)


# ---------------------------------------------------------- energy error


def energy_error_per_leaf(basis, coefficients, exact_gradient,
                          singular_point=None, extra_order=2, corner_levels=40,
                          domain=None, depth=0):
    """The energy error leaf by leaf and cell by cell, one exact-gradient
    call per cell: the oracle of the grouped pass."""
    mesh = basis.mesh
    coefficients = np.asarray(coefficients, dtype=float)
    acc = 0.0
    sp = None if singular_point is None else np.asarray(singular_point, dtype=float)
    for leaf in mesh.active_leaf_elements():
        q = leaf_quad_order(basis, leaf) + extra_order
        lo = mesh.elements.lo_f[leaf]
        hi = mesh.elements.hi_f[leaf]
        singular = sp is not None and bool(np.all((lo <= sp) & (sp <= hi)))
        jac = leaf_jacobian(mesh, leaf)
        to_phys = leaf_to_physical(mesh, leaf)
        if singular:
            ref = 2 * (sp - lo) / (hi - lo) - 1
            corner = tuple(np.where(ref >= 0, 1.0, -1.0).tolist())
            rule = corner_rule(corner, corner_levels, q)
        elif domain is None:
            rule = reference_rule(q)
        else:
            rule = rule_from_cells(recursive_spacetree_cells(
                [-1.0, -1.0], [1.0, 1.0], domain, depth, q, to_phys))
        pts = to_phys(rule.points)
        _, G = basis.evaluate_leaf(leaf, pts)
        coef = coefficients[basis.leaf_dofs(leaf)]
        for cell in rule.cells():
            gh = np.einsum("qid,i->qd", G[cell], coef)
            diff = gh - np.asarray(exact_gradient(pts[cell]), dtype=float)
            if singular and domain is not None:
                w = rule.weights[cell] * jac * domain.alpha(pts[cell])
            else:
                w = rule.weights[cell] * jac * rule.alpha[cell]
            acc += float(np.einsum("q,qd,qd->", w, diff, diff))
    return float(np.sqrt(acc))


def ball_refined(res, steps):
    mesh = Mesh(lshape_mesh_spec(res))
    for step in range(1, steps + 1):
        mesh.refine(mark_ball_leaves(mesh, (0.0, 0.0), 2.0 ** (1 - step)))
    return mesh


def test_energy_error_matches_per_leaf_oracle():
    exact = LShapeSolution()
    cases = [(corner_refined(16, 3), 4), (corner_refined(3, 4), 4),
             (ball_refined(8, 3), 2)]
    for mesh, p in cases:
        basis = Basis(mesh, PolynomialOrderField(uniform=p))
        u = interpolate_nodal(basis, lambda pt: float(exact.value(pt)[0]))
        for coef in (u, u + 1e-3 * np.random.default_rng(p).standard_normal(u.size)):
            args = (coef, exact.gradient, (0.0, 0.0))
            assert energy_error(basis, *args) == energy_error_per_leaf(
                basis, *args)
    rng = np.random.default_rng(63)
    grad = lambda pts: np.column_stack((np.exp(pts[:, 1]), pts[:, 0] ** 3))
    dom = EmbeddedDomain(Disk((0.3, 0.2), 0.6), epsilon=1e-6)
    for basis in [random_basis(rng, max_leaves=300) for _ in range(6)] + [
            stretched_basis(rng)]:
        coef = rng.standard_normal(basis.dofmap.total)
        for point, domain in ((None, None), ((0.0, 0.0), None),
                              ((0.5, 0.5), None), (None, dom),
                              ((0.5, 0.5), dom)):
            args = (coef, grad, point, 2, 40, domain, 2)
            assert energy_error(basis, *args) == energy_error_per_leaf(
                basis, *args)


def test_energy_error_calls_exact_gradient_once_per_group():
    mesh = corner_refined(16, 3)
    basis = Basis(mesh, PolynomialOrderField(uniform=4))
    leaves = mesh.active_leaf_elements()
    singular = len(mark_corner_leaves(mesh, (0.0, 0.0)))
    groups = {(leaf_quad_order(basis, leaf), mesh.elements.level[leaf])
              for leaf in leaves}
    calls = {"gradient": 0, "tables": 0}
    exact = LShapeSolution()

    def gradient(points):
        calls["gradient"] += 1
        return exact.gradient(points)

    def evaluate_leaf(leaf, points):
        calls["tables"] += 1
        return Basis.evaluate_leaf(basis, leaf, points)

    basis.evaluate_leaf = evaluate_leaf
    coef = np.random.default_rng(64).standard_normal(basis.dofmap.total)
    energy_error(basis, coef, gradient, singular_point=(0.0, 0.0))
    assert calls["gradient"] <= len(groups) + singular
    # the dyadic corner mesh repeats its leaves heavily
    assert calls["tables"] * 5 < len(leaves)


def test_assemble_matches_dense_scatter():
    rng = np.random.default_rng(21)
    mesh = two_level_mesh()
    basis = Basis(mesh, PolynomialOrderField(by_level={0: 3, 1: 2}))
    n = basis.dofmap.total
    dense = np.zeros((n, n))
    load = np.zeros(n)
    src = lambda pts: np.sin(pts[:, 0]) + pts[:, 1]
    for leaf in mesh.active_leaf_elements():
        K, fe, gids = element_system(basis, leaf, source=src)
        dense[np.ix_(gids, gids)] += K
        load[gids] += fe
    K_csr, f = assemble_serial(basis, source=src)
    assert np.allclose(K_csr.toarray(), dense, atol=1e-13 * np.abs(dense).max())
    assert np.allclose(f, load, atol=1e-14)


# ------------------------------------------------------ constrained dofs


def test_constrained_mask_hand_count():
    mesh = single_patch(2)
    basis = Basis(mesh, PolynomialOrderField(uniform=3))
    on_bottom = lambda p: abs(p[1]) < 1e-12
    mask = constrained_dof_mask(basis, on_bottom)
    # three nodes and two edges on y=0, each edge carrying p-1 = 2 modes
    assert mask.sum() == 3 + 2 * 2
    dm = DirichletMap(basis, on_bottom)
    assert n_constrained(dm) == 7
    assert dm.n_free == basis.dofmap.total - 7
    u = dm.expand(np.arange(dm.n_free, dtype=float))
    assert np.all(u[dm.mask] == 0.0)
    assert np.all(u[dm.free] == np.arange(dm.n_free))


def test_face_modes_never_constrained():
    mesh = single_patch(2)
    basis = Basis(mesh, PolynomialOrderField(uniform=4))
    mask = constrained_dof_mask(basis, lambda p: True)
    for gid in np.flatnonzero(mask):
        row, _ = dof_entity(basis.dofmap, gid)
        assert mesh.table.kind[row] in (NODE, EDGE)


# ------------------------------------------------- exact representation


def test_linear_patch_through_solver():
    # nonhomogeneous data is handled by lifting a nodal interpolant
    mesh = two_level_mesh()
    basis = Basis(mesh, PolynomialOrderField(uniform=3))
    exact = lambda p: 2.0 * p[0]
    lift = interpolate_nodal(basis, exact)
    K, f = assemble_serial(basis)
    dm = DirichletMap(basis, on_unit_square_boundary)
    Kff, ff = dirichlet_reduce(dm, K, f - K @ lift)
    import scipy.sparse.linalg as spla
    u = lift + dm.expand(spla.spsolve(Kff.tocsc(), ff))

    field = FieldApproximation(basis, u)
    pts = np.random.default_rng(1).uniform(0, 1, size=(40, 2))
    assert np.max(np.abs(field.value(pts) - 2.0 * pts[:, 0])) < 1e-12
    err = energy_error(basis, u, lambda p: np.tile([2.0, 0.0], (len(p), 1)))
    assert err < 1e-11


def test_bilinear_with_neumann_flux():
    # u = xy is harmonic, vanishes on the axes, and its normal flux on
    # the far sides is linear, so every ingredient is exactly integrable
    mesh = two_level_mesh()
    basis = Basis(mesh, PolynomialOrderField(by_level={0: 2, 1: 3}))
    on_axes = lambda p: abs(p[0]) < 1e-12 or abs(p[1]) < 1e-12
    dm = DirichletMap(basis, on_axes)

    def flux(pts, normal):
        grads = np.column_stack((pts[:, 1], pts[:, 0]))
        return grads @ normal

    u = solve_dirichlet(basis, dm, flux=flux)
    field = FieldApproximation(basis, u)
    pts = np.random.default_rng(2).uniform(0, 1, size=(40, 2))
    assert np.max(np.abs(field.value(pts) - pts[:, 0] * pts[:, 1])) < 1e-11
    err = energy_error(basis, u, lambda p: np.column_stack((p[:, 1], p[:, 0])))
    assert err < 1e-10


def test_manufactured_source_converges_in_p():
    exact_grad = lambda p: np.pi * np.column_stack((
        np.cos(np.pi * p[:, 0]) * np.sin(np.pi * p[:, 1]),
        np.sin(np.pi * p[:, 0]) * np.cos(np.pi * p[:, 1]),
    ))
    source = lambda p: 2 * np.pi**2 * np.sin(np.pi * p[:, 0]) * np.sin(np.pi * p[:, 1])
    errs = []
    for p_order in (2, 4):
        mesh = single_patch(3)
        basis = Basis(mesh, PolynomialOrderField(uniform=p_order))
        dm = DirichletMap(basis, on_unit_square_boundary)
        u = solve_dirichlet(basis, dm, source=source)
        errs.append(energy_error(basis, u, exact_grad))
    assert errs[1] < errs[0] / 100
    assert errs[0] < 0.2


def test_neumann_load_respects_part_and_interfaces():
    mesh = Mesh(lshape_mesh_spec(2))
    basis = Basis(mesh, PolynomialOrderField(uniform=2))
    ones_flux = lambda pts, normal: np.ones(len(pts))
    f = neumann_load(basis, ones_flux, part=lambda mid: abs(mid[1]) < 1e-12)
    assert f.any()
    for gid in np.flatnonzero(np.abs(f) > 1e-14):
        row, _ = dof_entity(basis.dofmap, gid)
        if mesh.table.kind[row] == NODE:
            pt = mesh.entity_points([row])[0]
            assert pt[1] == pytest.approx(0.0, abs=1e-12)
            assert pt[0] >= -1e-12  # y=0 with x<0 is interior, never loaded
    # total load equals the length of the loaded leg
    const = interpolate_nodal(basis, lambda p: 1.0)
    assert const @ f == pytest.approx(1.0)


# ------------------------------------------------------- corner solution


def test_corner_solution_is_harmonic():
    exact = LShapeSolution()
    rng = np.random.default_rng(5)
    pts = np.array([[-0.5, 0.7], [0.3, 0.4], [-0.6, -0.2], [0.05, 0.9]])
    h = 1e-5
    for x, y in pts:
        stencil = np.array([[x, y], [x + h, y], [x - h, y], [x, y + h], [x, y - h]])
        v = exact.value(stencil)
        lap = (v[1] + v[2] + v[3] + v[4] - 4 * v[0]) / h**2
        assert abs(lap) < 1e-4


def test_corner_solution_dirichlet_legs():
    exact = LShapeSolution()
    on_leg = np.array([[0.3, 0.0], [1.0, 0.0], [0.0, -0.4], [0.0, -1.0], [0.0, 0.0]])
    assert np.max(np.abs(exact.value(on_leg))) < 1e-12
    for p in on_leg:
        assert LShapeSolution.on_dirichlet_legs(p)
    for p in [(0.0, 0.5), (-0.3, 0.0), (0.5, 0.5), (-1.0, -1.0)]:
        assert not LShapeSolution.on_dirichlet_legs(np.asarray(p))


def test_corner_solution_gradient_and_flux():
    exact = LShapeSolution()
    pts = np.array([[-0.4, 0.6], [0.2, 0.3], [-0.7, -0.5]])
    h = 1e-6
    g = exact.gradient(pts)
    for axis in range(2):
        step = np.zeros(2)
        step[axis] = h
        fd = (exact.value(pts + step) - exact.value(pts - step)) / (2 * h)
        assert np.allclose(fd, g[:, axis], atol=1e-8)
    n = np.array([0.0, 1.0])
    assert np.allclose(exact.flux(pts, n), g @ n)
    # the singular point itself reports a finite (zeroed) gradient
    assert np.all(np.isfinite(exact.gradient(np.array([[0.0, 0.0]]))))


def test_corner_energy_norm_oracle():
    # |grad u|^2 = (4/9) r^(-2/3); integrating over the three quadrants
    # in polar form gives 2 * int_0^{pi/4} sec(t)^{4/3} dt by symmetry
    oracle, _ = quad(lambda t: np.cos(t) ** (-4.0 / 3.0), 0.0, np.pi / 4)
    oracle = np.sqrt(2.0 * oracle)
    exact = LShapeSolution()
    assert np.sqrt(exact.energy_squared()) == pytest.approx(oracle, rel=1e-12)

    mesh = Mesh(lshape_mesh_spec(4))
    basis = Basis(mesh, PolynomialOrderField(uniform=2))
    zero = np.zeros(basis.dofmap.total)
    measured = energy_error(basis, zero, exact.gradient, singular_point=(0.0, 0.0))
    assert measured == pytest.approx(oracle, rel=1e-7)


def test_corner_rule_matches_gauss_cell_oracle():
    for corner in ((-1.0, -1.0), (1.0, -1.0), (-1.0, 1.0), (1.0, 1.0)):
        for levels in (1, 3, 40):
            for order in (1, 3, 6):
                rule = corner_rule(corner, levels, order)
                assert_rule_is_cells(rule, [
                    gauss_cell(lo, hi, order)
                    for lo, hi in _corner_shells(corner, levels)])
                assert not any(a.flags.writeable
                               for a in (rule.points, rule.weights, rule.alpha))


def test_energy_error_flags_perturbations():
    mesh = two_level_mesh()
    basis = Basis(mesh, PolynomialOrderField(uniform=2))
    dm = DirichletMap(basis, lambda p: abs(p[0]) < 1e-12 or abs(p[1]) < 1e-12)

    def flux(pts, normal):
        return np.column_stack((pts[:, 1], pts[:, 0])) @ normal

    u = solve_dirichlet(basis, dm, flux=flux)
    grad = lambda p: np.column_stack((p[:, 1], p[:, 0]))
    base = energy_error(basis, u, grad)
    assert base < 1e-10
    bumped = u.copy()
    bumped[dm.free[0]] += 1.0
    assert energy_error(basis, bumped, grad) > 0.05
