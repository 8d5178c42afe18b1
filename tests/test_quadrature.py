"""Gauss rules, the box kernel, and embedded geometry.

Exactness is checked against closed-form monomial integrals, the box
kernel and the spacetrees against the box-at-a-time oracles in conftest,
and the cut-cell machinery against areas that are known analytically.
"""

import pickle

import numpy as np
import pytest

from conftest import (CUT_CELL_CONFIGS, indicator_area_oracle, study_bases,
                      leaf_at, single_patch, random_refined_mesh, random_orders,
                      gauss_cell, recursive_spacetree_cells,
                      assert_rule_is_cells, leaf_to_physical, per_leaf_rules,
                      leaf_quad_order)
from overlayfem.basis import Basis, PolynomialOrderField
from overlayfem.benchmarks import RunConfig, make_problem, mark_interface_leaves
from overlayfem.quadrature import (
    gauss_rule_1d, box_rule, reference_rule, subdivide, build_leaf_rules,
    HalfPlane, Disk, Rect, Union, Intersection, Difference, Complement,
    geometry_from_json, EmbeddedDomain, leaf_frame, leaf_rule,
    leaf_rule_table, indicator_area,
)


# -------------------------------------------------------------- gauss rules


def monomial_integral(k):
    return 0.0 if k % 2 else 2.0 / (k + 1)


def test_gauss_exactness_degree():
    for q in range(1, 9):
        x, w = gauss_rule_1d(q)
        assert len(x) == q
        for k in range(2 * q):
            assert w @ x**k == pytest.approx(monomial_integral(k), abs=1e-13)
        # one degree beyond, the rule must miss
        assert abs(w @ x ** (2 * q) - monomial_integral(2 * q)) > 1e-6


def test_gauss_rule_basics():
    x, w = gauss_rule_1d(6)
    assert np.all(w > 0)
    assert np.all((-1 < x) & (x < 1))
    assert np.allclose(x, -x[::-1])
    assert w.sum() == pytest.approx(2.0)
    with pytest.raises(ValueError):
        gauss_rule_1d(0)


def test_gauss_cell_monomials():
    lo, hi = np.array([0.2, -0.5]), np.array([1.1, 0.75])
    rule = box_rule(lo, hi, 4)
    area = np.prod(hi - lo)
    assert rule.weights.sum() == pytest.approx(area)
    for a in range(4):
        for b in range(4):
            exact = ((hi[0] ** (a + 1) - lo[0] ** (a + 1)) / (a + 1)
                     * (hi[1] ** (b + 1) - lo[1] ** (b + 1)) / (b + 1))
            val = rule.weights @ (rule.points[:, 0] ** a * rule.points[:, 1] ** b)
            assert val == pytest.approx(exact, abs=1e-13)


def test_gauss_cell_point_order_and_weights():
    # x-major: the first coordinate varies slowest
    r = 1.0 / np.sqrt(3.0)
    rule = box_rule([0.0, 1.0], [2.0, 2.0], 2)
    xs = [1.0 - r, 1.0 + r]
    ys = [1.5 - 0.5 * r, 1.5 + 0.5 * r]
    expected = np.array([[xs[0], ys[0]], [xs[0], ys[1]],
                         [xs[1], ys[0]], [xs[1], ys[1]]])
    np.testing.assert_allclose(rule.points, expected, rtol=0, atol=1e-15)
    # each weight is w_x * w_y = (1 * 1) * (1 * 1/2), the box's area over four
    np.testing.assert_allclose(rule.weights, [0.5, 0.5, 0.5, 0.5],
                               rtol=0, atol=1e-15)
    np.testing.assert_array_equal(rule.alpha, np.ones(4))
    assert rule.offsets == (0, 4)


def test_box_rule_matches_gauss_cell_oracle():
    rng = np.random.default_rng(5)
    for order in range(1, 9):
        # the shared reference rule is the oracle's cell on [-1, 1]^2
        oracle = [gauss_cell([-1.0, -1.0], [1.0, 1.0], order)]
        ref = reference_rule(order)
        assert_rule_is_cells(ref, oracle)
        assert not any(a.flags.writeable
                       for a in (ref.points, ref.weights, ref.alpha))
        # several boxes: one cell each, in box order, indicator kept
        lo = rng.uniform(-1.0, 0.0, (3, 2))
        hi = lo + rng.uniform(0.1, 1.0, (3, 2))
        alpha = rng.uniform(0.0, 1.0, (3, order * order))
        cells = [gauss_cell(l, h, order) for l, h in zip(lo, hi)]
        assert_rule_is_cells(box_rule(lo, hi, order), cells)
        for cell, a in zip(cells, alpha):
            cell.alpha = a
        assert_rule_is_cells(box_rule(lo, hi, order, alpha), cells)


# ------------------------------------------------------------ csg geometry


def test_primitive_membership():
    pts = np.array([[0.0, 0.0], [2.0, 0.0], [0.6, 0.6], [-1.0, 0.2]])
    half = HalfPlane((1.0, 0.0), 1.0)  # x <= 1
    assert list(half.contains(pts)) == [True, False, True, True]
    disk = Disk((0.0, 0.0), 1.0)
    assert list(disk.contains(pts)) == [True, False, True, False]
    rect = Rect((0.0, 0.0), (1.0, 1.0))
    assert list(rect.contains(pts)) == [True, False, True, False]


def test_csg_composition():
    pts = np.array([[0.5, 0.5], [1.5, 0.5], [-0.5, -0.5], [3.0, 3.0]])
    a = Rect((0.0, 0.0), (1.0, 1.0))
    b = Rect((1.0, 0.0), (2.0, 1.0))
    assert list(Union((a, b)).contains(pts)) == [True, True, False, False]
    assert list(Intersection((a, b)).contains(pts)) == [False, False, False, False]
    assert list(Difference((Union((a, b)), b)).contains(pts)) == [True, False, False, False]
    assert list(Complement(a).contains(pts)) == [False, True, True, True]


def test_geometry_from_json_round_trip():
    obj = {
        "op": "subtract",
        "args": [
            {"primitive": "rect", "lo": [-1.0, -1.0], "hi": [1.0, 1.0]},
            {
                "op": "intersect",
                "args": [
                    {"primitive": "disk", "center": [0.0, 0.0], "radius": 0.5},
                    {"primitive": "halfplane", "normal": [0.0, 1.0], "offset": 0.0},
                ],
            },
        ],
    }
    geo = geometry_from_json(obj)
    pts = np.array([[0.0, -0.25], [0.0, 0.25], [0.9, 0.9], [1.5, 0.0]])
    # the carved-out part is the lower half-disk
    assert list(geo.contains(pts)) == [False, True, True, False]


def test_geometry_from_json_errors():
    with pytest.raises(ValueError):
        geometry_from_json({"primitive": "triangle", "points": []})
    with pytest.raises(ValueError):
        geometry_from_json({"op": "xor", "args": [{"primitive": "disk", "center": [0, 0], "radius": 1}]})
    with pytest.raises(ValueError):
        geometry_from_json({"op": "union", "args": []})
    with pytest.raises(ValueError):
        geometry_from_json({"op": "complement", "args": [
            {"primitive": "disk", "center": [0, 0], "radius": 1},
            {"primitive": "disk", "center": [0, 0], "radius": 2},
        ]})
    with pytest.raises(ValueError):
        geometry_from_json({"shape": "disk"})


def test_embedded_domain_alpha():
    dom = EmbeddedDomain(Disk((0.0, 0.0), 1.0), epsilon=1e-6)
    pts = np.array([[0.0, 0.0], [2.0, 0.0]])
    assert list(dom.alpha(pts)) == [1.0, 1e-6]
    assert list(dom.contains(pts)) == [True, False]


# ------------------------------------------------------------- cut cells


def one_box_spacetree(lo, hi, domain, depth, order, to_physical=None):
    """``subdivide`` on one root box, the mapping taking flat points."""
    mapping = None
    if to_physical is not None:
        def mapping(samples, _):
            return to_physical(samples.reshape(-1, 2)).reshape(samples.shape)
    roots, rule = subdivide([lo], [hi], domain, depth, order, mapping)
    assert not roots.any()
    return rule


def test_spacetree_uniform_boxes_stay_whole():
    dom = EmbeddedDomain(Disk((0.0, 0.0), 10.0), epsilon=1e-8)
    rule = one_box_spacetree([0.0, 0.0], [1.0, 1.0], dom, depth=3, order=2)
    assert len(rule.cells()) == 1
    assert np.all(rule.alpha == 1.0)
    outside = EmbeddedDomain(Disk((50.0, 0.0), 1.0), epsilon=1e-8)
    rule = one_box_spacetree([0.0, 0.0], [1.0, 1.0], outside, depth=3, order=2)
    assert len(rule.cells()) == 1
    assert np.all(rule.alpha == 1e-8)


def test_spacetree_cut_box_splits_and_conserves_measure():
    dom = EmbeddedDomain(Disk((0.0, 0.0), 0.7), epsilon=0.0)
    for depth in range(4):
        rule = one_box_spacetree([0.0, 0.0], [1.0, 1.0], dom, depth=depth,
                                 order=3)
        oracle = recursive_spacetree_cells([0.0, 0.0], [1.0, 1.0], dom,
                                           depth, 3)
        assert len(rule.cells()) <= 4**depth or depth == 0
        assert rule.weights.sum() == pytest.approx(1.0)
        for rows, cell in zip(rule.cells(), oracle, strict=True):
            # a kept box is the plain Gauss rule on it, bit for bit
            plain = gauss_cell(cell.lo, cell.hi, 3)
            assert np.array_equal(rule.points[rows], plain.points)
            assert np.array_equal(rule.weights[rows], plain.weights)
        if depth == 0:
            # depth exhausted at once: the indicator is taken per Gauss point
            np.testing.assert_array_equal(
                rule.alpha, np.where(dom.contains(rule.points), 1.0, dom.epsilon))

    # deeper trees approach the true quarter-disk area
    errs = []
    for depth in range(5):
        rule = one_box_spacetree([0.0, 0.0], [1.0, 1.0], dom, depth=depth,
                                 order=3)
        area = rule.weights @ rule.alpha
        errs.append(abs(area - np.pi * 0.7**2 / 4))
    assert errs[-1] < errs[0] / 5
    assert errs[-1] < 5e-3


def test_spacetree_depth_validation():
    dom = EmbeddedDomain(Disk((0.0, 0.0), 0.7))
    with pytest.raises(ValueError):
        subdivide([[0.0, 0.0]], [[1.0, 1.0]], dom, depth=-1, order=2)


_DISK = Disk((0.3, 0.4), 0.37)
_RECT = Rect((0.21, 0.13), (0.67, 0.8))
ORACLE_GEOMETRIES = {
    "halfplane": HalfPlane((1.0, 0.6), 0.7),
    "halfplane-on-lattice": HalfPlane((1.0, 0.0), 0.5),
    "disk": _DISK,
    "rect": _RECT,
    "union": Union((_DISK, Rect((0.6, 0.55), (0.95, 0.9)))),
    "intersection": Intersection((Disk((0.5, 0.5), 0.4),
                                  HalfPlane((0.0, 1.0), 0.55))),
    "difference": Difference((_RECT, _DISK)),
    "complement": Complement(_DISK),
}


@pytest.mark.parametrize("name", sorted(ORACLE_GEOMETRIES))
def test_spacetree_kernel_matches_recursive_oracle_on_one_box(name):
    dom = EmbeddedDomain(ORACLE_GEOMETRIES[name], epsilon=1e-8)
    lo, hi = [0.05, 0.1], [0.8, 0.75]
    # a reference frame mapped onto a physical box, as a leaf's frame maps
    to_phys = lambda pts: np.array([0.4, 0.5]) + pts * np.array([0.35, 0.3])
    split = 0
    for depth in range(5):
        for order in range(1, 6):
            rule = one_box_spacetree(lo, hi, dom, depth, order)
            assert_rule_is_cells(rule, recursive_spacetree_cells(
                lo, hi, dom, depth, order))
            mapped = one_box_spacetree([-1.0, -1.0], [1.0, 1.0], dom, depth,
                                       order, to_phys)
            assert_rule_is_cells(mapped, recursive_spacetree_cells(
                [-1.0, -1.0], [1.0, 1.0], dom, depth, order, to_phys))
            split += len(rule.cells()) > 1
    assert split > 0


def graded_oracle_mesh(res):
    """A non-dyadic base mesh refined at random, and graded orders, so one
    batch holds several quadrature orders."""
    rng = np.random.default_rng(res)
    mesh = single_patch(res)
    for _ in range(2):
        leaves = mesh.active_leaf_elements()
        picked = rng.choice(len(leaves), size=len(leaves) // 4, replace=False)
        mesh.refine(leaves[picked])
    return mesh, PolynomialOrderField(by_level={0: 1, 1: 3, 2: 4})


@pytest.mark.parametrize("res", [3, 5])
def test_batched_leaf_rules_match_recursive_oracle(res):
    mesh, orders = graded_oracle_mesh(res)
    leaves = mesh.active_leaf_elements()
    refined = int(np.flatnonzero(mesh.elements.child >= 0)[0])
    for name, geometry in sorted(ORACLE_GEOMETRIES.items()):
        dom = EmbeddedDomain(geometry, epsilon=1e-8)
        basis = Basis(mesh, orders)
        assert len({leaf_quad_order(basis, leaf) for leaf in leaves}) > 1
        for depth in (0, 2, 4):
            rules = [leaf_rule(basis, leaf, dom, depth) for leaf in leaves]
            for leaf, rule in zip(leaves, rules):
                assert_rule_is_cells(rule, recursive_spacetree_cells(
                    [-1.0, -1.0], [1.0, 1.0], dom, depth,
                    leaf_quad_order(basis, leaf),
                    leaf_to_physical(mesh, leaf)))
            # the table covers the active leaves only
            before = len(basis.leaf_rules)
            with pytest.raises(KeyError):
                leaf_rule(basis, refined, dom, depth)
            assert len(basis.leaf_rules) == before
            # raised orders, as the energy error asks, leave the memo alone
            raised, cells = build_leaf_rules(basis, leaves, dom, depth, 2)
            assert len(basis.leaf_rules) == before
            assert cells.size == len(leaves) + 1
            for leaf, a, b in zip(leaves, cells[:-1], cells[1:], strict=True):
                assert_rule_is_cells(raised.cell_range(a, b),
                                     recursive_spacetree_cells(
                    [-1.0, -1.0], [1.0, 1.0], dom, depth,
                    leaf_quad_order(basis, leaf) + 2,
                    leaf_to_physical(mesh, leaf)))

def assert_table_is_rules(table, oracle):
    """The ragged table (rule, leaf_cells) holds the per-leaf rules, leaf
    after leaf, bit for bit."""
    rule, leaf_cells = table
    assert leaf_cells.dtype == np.int64
    assert leaf_cells[0] == 0 and leaf_cells.size == len(oracle) + 1
    assert rule.offsets[-1] == rule.weights.size == len(rule.points)
    for a, b, want in zip(leaf_cells[:-1], leaf_cells[1:], oracle, strict=True):
        got = rule.cell_range(a, b)
        assert got.offsets == want.offsets
        for name in ("points", "weights", "alpha"):
            assert np.array_equal(getattr(got, name), getattr(want, name)), name


@pytest.mark.parametrize("res", [8, 16])
def test_fcm_disk_rule_table_matches_per_leaf_rules(res):
    config = RunConfig(benchmark="fcm_disk", res=res, p=2, depth=4, steps=2)
    problem = make_problem(config)
    dom, depth = problem.domain, problem.depth
    mesh = single_patch(res)
    for step in range(3):
        if step:
            mesh.refine(mark_interface_leaves(mesh, dom))
        basis = Basis(mesh, config.order_field())
        leaves = mesh.active_leaf_elements()
        table = leaf_rule_table(basis, dom, depth)
        assert np.any(np.diff(table[1]) > 1)
        assert_table_is_rules(table, per_leaf_rules(basis, leaves, dom, depth))
        assert_table_is_rules(build_leaf_rules(basis, leaves, dom, depth, 2),
                              per_leaf_rules(basis, leaves, dom, depth, 2))


@pytest.mark.parametrize("res", [3, 5])
def test_graded_rule_table_matches_per_leaf_rules(res):
    mesh, orders = graded_oracle_mesh(res)
    basis = Basis(mesh, orders)
    leaves = mesh.active_leaf_elements()
    # a leaf list out of pre-order, so the order parts interleave
    shuffled = np.random.default_rng(res).permutation(leaves)
    for name, geometry in sorted(ORACLE_GEOMETRIES.items()):
        dom = EmbeddedDomain(geometry, epsilon=1e-8)
        for depth in (0, 2, 4):
            for extra in (0, 2):
                assert_table_is_rules(
                    build_leaf_rules(basis, leaves, dom, depth, extra),
                    per_leaf_rules(basis, leaves, dom, depth, extra))
            assert_table_is_rules(
                build_leaf_rules(basis, shuffled, dom, depth),
                per_leaf_rules(basis, shuffled, dom, depth))
            assert_table_is_rules(leaf_rule_table(basis, dom, depth),
                                  per_leaf_rules(basis, leaves, dom, depth))


@pytest.mark.parametrize("res", [3, 5])
def test_table_without_domain_tiles_reference_rules(res):
    mesh, orders = graded_oracle_mesh(res)
    basis = Basis(mesh, orders)
    leaves = mesh.active_leaf_elements()
    for extra in (0, 2):
        assert_table_is_rules(
            build_leaf_rules(basis, leaves, None, 3, extra),
            [reference_rule(leaf_quad_order(basis, leaf) + extra)
             for leaf in leaves])
    # a leaf's own rule without a domain is the reference rule, no table
    for leaf in leaves:
        assert leaf_rule(basis, leaf) is reference_rule(
            leaf_quad_order(basis, leaf))
    assert basis.leaf_rules == {}
    # an empty leaf list gives an empty table
    rule, leaf_cells = build_leaf_rules(basis, leaves[:0], None, 0)
    assert leaf_cells.tolist() == [0] and rule.offsets == (0,)

# ------------------------------------------------------- leaf quadrature


def test_leaf_mapping_and_jacobian():
    mesh = single_patch(2)
    mesh.refine([mesh.active_leaf_elements()[0]])
    basis = Basis(mesh, PolynomialOrderField(uniform=2))
    leaf = leaf_at(mesh, (0.1, 0.1))
    corners, jac = leaf_frame(basis, leaf, np.array([[-1.0, -1.0], [1.0, 1.0]]))
    assert np.allclose(corners[0], mesh.elements.lo_f[leaf])
    assert np.allclose(corners[1], mesh.elements.hi_f[leaf])
    area = float(np.prod(mesh.elements.hi_f[leaf] - mesh.elements.lo_f[leaf]))
    assert jac == pytest.approx(area / 4.0)


def test_leaf_frame_matches_per_leaf_map_bit_for_bit():
    rng = np.random.default_rng(38)
    mesh = random_refined_mesh(rng)
    basis = Basis(mesh, random_orders(rng, mesh))
    leaves = mesh.active_leaf_elements()
    ref = rng.uniform(-1.0, 1.0, size=(len(leaves), 7, 2))
    shared = rng.uniform(-1.0, 1.0, size=(7, 2))
    many, jacs = leaf_frame(basis, leaves, ref)
    tiled, _ = leaf_frame(basis, leaves, shared)
    for i, leaf in enumerate(leaves):
        one, jac = leaf_frame(basis, leaf, ref[i])
        want = leaf_to_physical(mesh, leaf)(ref[i])
        assert np.array_equal(one, want)
        assert np.array_equal(many[i], want)
        assert np.array_equal(tiled[i], leaf_to_physical(mesh, leaf)(shared))
        area = np.prod((mesh.elements.hi_f[leaf] - mesh.elements.lo_f[leaf]) / 2)
        assert jac == jacs[i] == area


def test_leaf_frame_rejects_bad_ids():
    mesh = single_patch(2)
    mesh.refine([0])
    basis = Basis(mesh, PolynomialOrderField(uniform=2))
    mesh.refine([1])  # ids 8 .. 11 are newer than the Basis
    pts = np.zeros((1, 2))
    for bad in (-1, len(mesh.elements), 8):
        with pytest.raises(KeyError):
            leaf_frame(basis, bad, pts)
        with pytest.raises(KeyError):
            leaf_frame(basis, np.array([0, bad]), pts)


def test_leaf_rule_reads_the_leaves_of_its_basis():
    # a refine after the Basis was built makes a refined element of the
    # Basis look like a leaf of the live mesh: it stays rejected
    mesh = single_patch(2)
    mesh.refine([0])
    assert len(mesh.active_leaf_elements()) == 7
    basis = Basis(mesh, PolynomialOrderField(uniform=2))
    mesh.refine([1, 2])
    assert len(mesh.active_leaf_elements()) == 13
    with pytest.raises(KeyError, match="not an active leaf"):
        leaf_rule(basis, 0)
    assert len(leaf_rule(basis, 3).points) == 9
    assert len(basis.leaves) == 7


def test_leaf_quadrature_weight_sums():
    rng = np.random.default_rng(37)
    mesh = random_refined_mesh(rng)
    basis = Basis(mesh, random_orders(rng, mesh))
    for leaf in mesh.active_leaf_elements():
        rule = leaf_rule(basis, leaf)
        assert len(rule.cells()) == 1
        assert rule.weights.sum() == pytest.approx(4.0)  # reference measure
        assert np.all(rule.alpha == 1.0)
        assert len(rule.points) == leaf_quad_order(basis, leaf) ** 2
        phys = leaf_to_physical(mesh, leaf)(rule.points)
        assert np.all(phys >= mesh.elements.lo_f[leaf] - 1e-12)
        assert np.all(phys <= mesh.elements.hi_f[leaf] + 1e-12)

    # a cut leaf produces several cells whose points stay inside it
    dom = EmbeddedDomain(Disk((0.0, 0.0), 0.55), epsilon=1e-8)
    leaf = leaf_at(mesh, (0.39, 0.39))  # the arc passes through here
    rule = leaf_rule(basis, leaf, domain=dom, depth=2)
    assert len(rule.cells()) > 1
    assert rule.offsets[-1] == len(rule.weights) == len(rule.points)
    assert rule.weights.sum() == pytest.approx(4.0)
    assert np.all(np.abs(rule.points) <= 1.0)


def test_indicator_area_quarter_disk():
    mesh = single_patch(8)
    basis = Basis(mesh, PolynomialOrderField(uniform=2))
    dom = EmbeddedDomain(Disk((0.0, 0.0), 1.0), epsilon=0.0)
    exact = np.pi / 4
    errs = [abs(indicator_area(basis, dom, depth) - exact) for depth in range(4)]
    assert errs[3] < errs[0]
    assert errs[3] < 1e-3


@pytest.mark.parametrize("name", sorted(CUT_CELL_CONFIGS))
def test_indicator_area_matches_cell_loop(name):
    # the array pass adds the same terms as the cell-by-cell loop
    for problem, basis in study_bases(CUT_CELL_CONFIGS[name]):
        dom, depth = problem.domain, problem.depth
        assert (indicator_area(basis, dom, depth)
                == indicator_area_oracle(basis, dom, depth))


def test_indicator_area_memo_keys_on_domain_and_depth():
    mesh = single_patch(4)
    mesh.refine([leaf_at(mesh, (0.4, 0.4))])
    orders = PolynomialOrderField(uniform=2)
    disk_a = EmbeddedDomain(Disk((0.0, 0.0), 0.55), epsilon=0.0)
    disk_b = EmbeddedDomain(Disk((1.0, 0.2), 0.35), epsilon=0.0)
    shared = Basis(mesh, orders)
    for dom, depth in ((disk_a, 2), (disk_b, 2), (disk_a, 3)):
        fresh = indicator_area(Basis(mesh, orders), dom, depth)
        assert indicator_area(shared, dom, depth) == fresh
    # one table per (depth, domain)
    assert len(shared.leaf_rules) == 3
    # an equal domain built anew reads the same entries
    again = EmbeddedDomain(Disk((0.0, 0.0), 0.55), epsilon=0.0)
    assert indicator_area(shared, again, 3) == indicator_area(shared, disk_a, 3)
    assert len(shared.leaf_rules) == 3


def test_leaf_rule_memo_is_shared_and_survives_pickling(monkeypatch):
    mesh = single_patch(4)
    basis = Basis(mesh, PolynomialOrderField(uniform=2))
    dom = EmbeddedDomain(Disk((0.0, 0.0), 0.7), epsilon=1e-8)
    leaf = leaf_at(mesh, (0.6, 0.4))
    rule = leaf_rule(basis, leaf, dom, 3)
    assert len(rule.cells()) > 1
    # every call is a view into the one table of (3, dom)
    table, _ = basis.leaf_rules[(3, dom)]
    assert len(basis.leaf_rules) == 1
    for again in (rule, leaf_rule(basis, leaf, dom, 3)):
        assert np.shares_memory(again.points, table.points)
    assert_rule_is_cells(rule, recursive_spacetree_cells(
        [-1.0, -1.0], [1.0, 1.0], dom, 3, leaf_quad_order(basis, leaf),
        leaf_to_physical(mesh, leaf)))
    # without a domain every leaf reads the reference cell of its order
    other = leaf_at(mesh, (0.1, 0.9))
    for uncut in (leaf, other):
        assert_rule_is_cells(leaf_rule(basis, uncut), [gauss_cell(
            [-1.0, -1.0], [1.0, 1.0], leaf_quad_order(basis, uncut))])
    assert set(basis.leaf_rules) == {(3, dom)}
    # a pickled copy, as a worker process receives it, holds the filled
    # memo; an equal domain that is another object finds the entry without
    # a second spacetree
    copy = pickle.loads(pickle.dumps(basis))
    dom_copy = pickle.loads(pickle.dumps(dom))
    monkeypatch.setattr("overlayfem.quadrature.subdivide", None)
    copied = leaf_rule(copy, leaf_at(copy.mesh, (0.6, 0.4)), dom_copy, 3)
    assert np.array_equal(copied.points, rule.points)
    assert copied.offsets == rule.offsets
