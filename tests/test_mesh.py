"""Mesh forest, activation rules, and entity bookkeeping.

Expected entity censuses are derived by hand from lattice counts: an
overlay entity is active when it is interior to the refined region and
has no active descendant, and a coarser entity is switched off exactly
when some finer sub-entity of it stays active.  The entity table itself
is checked row for row against the object-by-object bookkeeping it
replaced (``SequentialEntities`` in conftest).
"""

from fractions import Fraction

import numpy as np
import pytest

from conftest import (CheckedMesh, chain, leaf_at, locate_leaf_oracle,
                      random_orders, single_patch)
from overlayfem.mesh import (
    Mesh, MeshError, BaseMeshSpec, PatchSpec, NODE, EDGE, FACE,
    export_mesh_xml,
)
from overlayfem.basis import Basis, PolynomialOrderField
from overlayfem.benchmarks import (lshape_mesh_spec, mark_ball_leaves,
                                   mark_corner_leaves, mark_random_leaves)


def census(mesh, level):
    t = mesh.table
    kinds = t.kind[(t.level == level) & t.active].tolist()
    return kinds.count(NODE), kinds.count(EDGE), kinds.count(FACE)


def refine_at_corner(mesh, corner, steps):
    corner = np.asarray(corner, dtype=float)
    for _ in range(steps):
        e = mesh.elements
        marked = [
            leaf
            for leaf in mesh.active_leaf_elements()
            if np.all(e.lo_f[leaf] <= corner + 1e-12)
            and np.all(corner <= e.hi_f[leaf] + 1e-12)
        ]
        mesh.refine(marked)
    return mesh


# ---------------------------------------------------------------- base grids


def test_single_patch_counts():
    mesh = single_patch((3, 2))
    assert len(mesh.active_leaf_elements()) == 6
    # 4x3 nodes, 3*3 horizontal plus 4*2 vertical edges, 6 faces
    assert census(mesh, 0) == (12, 17, 6)


def test_two_patch_union_shares_interface_entities():
    spec = BaseMeshSpec(
        patches=(
            PatchSpec(bounds=((0.0, 1.0), (0.0, 1.0)), resolution=(1, 1)),
            PatchSpec(bounds=((1.0, 2.0), (0.0, 1.0)), resolution=(1, 1)),
        ),
    )
    mesh = Mesh(spec)
    assert len(mesh.active_leaf_elements()) == 2
    # interface nodes and edge appear once
    assert census(mesh, 0) == (6, 7, 2)
    t = mesh.table
    interface = np.flatnonzero((t.level == 0) & (t.kind == EDGE) & (t.incidence == 2))
    assert len(interface) == 1


def test_lshape_base_counts():
    mesh = Mesh(lshape_mesh_spec(16))
    assert len(mesh.active_leaf_elements()) == 3 * 16 * 16
    n = 16
    nodes = (2 * n + 1) ** 2 - n * n
    edges = 2 * (2 * n) * (2 * n + 1) - 2 * n * n
    faces = (2 * n) ** 2 - n * n
    assert census(mesh, 0) == (nodes, edges, faces)


def test_overlapping_patches_rejected():
    spec = BaseMeshSpec(
        patches=(
            PatchSpec(bounds=((0.0, 1.0), (0.0, 1.0)), resolution=(2, 2)),
            PatchSpec(bounds=((0.5, 1.5), (0.0, 1.0)), resolution=(2, 2)),
        ),
    )
    with pytest.raises(MeshError):
        Mesh(spec)


def test_nonconforming_interface_rejected():
    spec = BaseMeshSpec(
        patches=(
            PatchSpec(bounds=((0.0, 1.0), (0.0, 1.0)), resolution=(2, 2)),
            PatchSpec(bounds=((1.0, 2.0), (0.0, 1.0)), resolution=(2, 3)),
        ),
    )
    with pytest.raises(MeshError):
        Mesh(spec)


def test_spec_validation_errors():
    with pytest.raises(MeshError):
        BaseMeshSpec(patches=(PatchSpec(((0.0, 1.0),), (1,)),)).validate()
    with pytest.raises(MeshError):
        BaseMeshSpec(patches=()).validate()
    with pytest.raises(MeshError):
        PatchSpec(bounds=((1.0, 0.0), (0.0, 1.0)), resolution=(2, 2)).validate()
    with pytest.raises(MeshError):
        PatchSpec(bounds=((0.0, 1.0), (0.0, 1.0)), resolution=(2, 0)).validate()


# ---------------------------------------------------------- refinement rules


def test_refine_rejects_bad_marks():
    mesh = single_patch(2)
    with pytest.raises(MeshError):
        mesh.refine([9999])
    leaves = mesh.active_leaf_elements()
    mesh.refine([leaves[0]])
    with pytest.raises(MeshError):
        mesh.refine([leaves[0]])  # no longer a leaf


def test_bad_ids_are_rejected_before_any_change():
    # an index array would wrap -1 to the last element: every id is
    # checked against the forest first
    mesh = single_patch(2)
    mesh.refine([0])
    n = len(mesh.elements)
    leaves = mesh.active_leaf_elements().tolist()
    for bad in (-1, n, 10 ** 6, np.int64(-1)):
        for marks in ([bad], [1, bad]):
            with pytest.raises(MeshError, match="unknown element"):
                mesh.refine(marks)
    with pytest.raises(MeshError, match="must be integers"):
        mesh.refine([1.0])
    assert len(mesh.elements) == n
    assert mesh.active_leaf_elements().tolist() == leaves


def test_numpy_integer_ids_are_accepted():
    mesh = single_patch(2)
    mesh.refine(np.array([3], dtype=np.int32))
    mesh.refine([np.int64(1), np.uint8(5)])
    assert mesh.elements.child[[1, 3, 5]].tolist() == [8, 4, 12]
    mesh.refine(np.array([9], dtype=np.uint64))
    mesh.refine({np.int16(2), np.int64(10)})
    assert mesh.elements.child[[9, 2, 10]].tolist() == [16, 20, 24]


def test_refined_once_activation_pattern():
    # refine the centre cell of a 3x3 grid: every overlay entity on the
    # boundary of the refined cell is switched off, leaving the cross
    mesh = single_patch(3)
    centre = leaf_at(mesh, (0.5, 0.5))
    mesh.refine([centre])
    assert census(mesh, 1) == (1, 4, 4)
    # the only coarse casualty is the refined cell's own face
    assert census(mesh, 0) == (16, 24, 8)
    assert len(mesh.active_leaf_elements()) == 12


def test_adjacent_pair_activation_keeps_shared_interior():
    # two refined neighbours form a 4x2 fine region: 3 interior nodes,
    # 10 interior edges, 8 faces survive; the coarse edge between the
    # pair loses out to its own active finer copies
    mesh = single_patch((3, 3), bounds=((0.0, 3.0), (0.0, 3.0)))
    a = leaf_at(mesh, (1.5, 1.5))
    b = leaf_at(mesh, (2.5, 1.5))
    mesh.refine([a, b])
    assert census(mesh, 1) == (3, 10, 8)
    assert census(mesh, 0) == (16, 23, 7)


def test_second_level_activation():
    mesh = single_patch(1)
    root = mesh.active_leaf_elements()[0]
    mesh.refine([root])
    sw = leaf_at(mesh, (0.1, 0.1))
    mesh.refine([sw])
    # the level-1 cross keeps its node and all four edges (their finer
    # copies sit on the level-2 region boundary and are off), but the
    # south-west face now has active descendants
    assert census(mesh, 1) == (1, 4, 3)
    assert census(mesh, 2) == (1, 4, 4)
    assert len(mesh.active_leaf_elements()) == 7


def test_corner_graded_census_depth5():
    # L-shaped domain, five rounds of refining the three leaves that
    # touch the re-entrant corner; counts are lattice arithmetic
    mesh = Mesh(lshape_mesh_spec(16))
    refine_at_corner(mesh, (0.0, 0.0), 5)
    assert len(mesh.active_leaf_elements()) == 813
    assert mesh.max_level() == 5
    assert census(mesh, 0) == (833, 1598, 765)
    for level in (1, 2, 3, 4):
        assert census(mesh, level) == (5, 14, 9)
    assert census(mesh, 5) == (5, 16, 12)


def test_tables_read_before_refine_are_snapshots():
    mesh = Mesh(lshape_mesh_spec(2))

    def held():
        return (mesh.elements, mesh.table, mesh.topology)

    def copies():
        return (mesh.elements[np.arange(len(mesh.elements))],
                mesh.table[np.arange(len(mesh.table))], mesh.topology.copy())

    def assert_unchanged(tables, saved):
        elements, table, topology = tables
        for got, want in ((elements, saved[0]), (table, saved[1])):
            for name, col in vars(want).items():
                assert np.array_equal(getattr(got, name), col), name
        assert np.array_equal(topology, saved[2])

    before = (held(), copies())
    mesh.refine([0])
    refined = (held(), copies())
    child = mesh.elements.child[0]
    mesh.refine([child])
    assert mesh.elements.child[child] >= 0
    assert len(mesh.topology) == len(refined[1][2]) + 4
    for tables, saved in (before, refined):
        assert_unchanged(tables, saved)
    assert before[0][0].child[0] == -1
    assert refined[0][0].child[child] == -1


def test_leaf_order_is_preorder():
    mesh = single_patch((3, 1), bounds=((0.0, 3.0), (0.0, 1.0)))
    e0, e1, e2 = mesh.active_leaf_elements().tolist()
    mesh.refine([e1])
    leaves = mesh.active_leaf_elements()
    assert leaves[0] == e0
    assert leaves[-1] == e2
    assert all(mesh.elements.parent[leaf] == e1 for leaf in leaves[1:5])

    # refining a child keeps the subtree contiguous in place
    mesh.refine([leaves[1]])
    ids = mesh.active_leaf_elements().tolist()
    assert ids[0] == e0
    assert ids[-1] == e2
    assert len(ids) == 9


# ----------------------------------------------------------------- queries


def test_locate_leaf():
    mesh = single_patch(2)
    leaves = mesh.active_leaf_elements()
    mesh.refine([leaves[0]])
    e = mesh.elements
    inner = leaf_at(mesh, (0.1, 0.1))
    assert e.level[inner] == 1
    assert np.all(e.lo_f[inner] <= 0.1)
    assert np.all(e.hi_f[inner] >= 0.1)
    assert e.level[leaf_at(mesh, (0.75, 0.75))] == 0
    assert leaf_at(mesh, (1.5, 0.5)) == -1
    on_seam = leaf_at(mesh, (0.5, 0.25))
    assert on_seam >= 0
    assert e.lo_f[on_seam][0] <= 0.5 <= e.hi_f[on_seam][0]


def test_locate_finds_element_zero():
    # id 0 is a leaf like any other: no caller may read it as "not found"
    mesh = single_patch(2)
    assert mesh.locate_leaves([(0.1, 0.2), (0.0, 0.0)]).tolist() == [0, 0]
    assert leaf_at(mesh, (0.1, 0.2)) == 0
    mesh.refine([0])
    assert leaf_at(mesh, (0.1, 0.2)) == mesh.elements.child[0]


def probe_points(mesh, n):
    """Grid points over the base box and beyond, with every base line,
    bisector and corner of the first three levels on it, plus NaN."""
    lo = mesh.elements.lo_f[:mesh.n_base].min(axis=0)
    hi = mesh.elements.hi_f[:mesh.n_base].max(axis=0)
    pad = (hi - lo) / 8
    xs, ys = (np.unique(np.concatenate((
        np.linspace(lo[a] - pad[a], hi[a] + pad[a], n),
        mesh.elements.lo_f[:, a], mesh.elements.hi_f[:, a],
        (mesh.elements.lo_f[:, a] + mesh.elements.hi_f[:, a]) / 2)))
        for a in (0, 1))
    pts = np.column_stack((np.tile(xs, ys.size), np.repeat(ys, xs.size)))
    return np.vstack((pts, [[np.nan, 0.5], [np.inf, 0.0]]))


@pytest.mark.parametrize("spec", ["lshape", "two_patch", "non_dyadic"])
def test_locate_leaves_matches_per_point_walk(spec):
    # seams between patches, shared corners, bisectors of refined
    # elements and points outside all go the way the walk sends them
    rng = np.random.default_rng(2)
    mesh = Mesh({"lshape": lshape_mesh_spec(3), "two_patch": TWO_PATCH,
                 "non_dyadic": NON_DYADIC}[spec])
    for _ in range(3):
        leaves = mesh.active_leaf_elements()
        mesh.refine(rng.choice(leaves, size=max(1, len(leaves) // 4),
                               replace=False))
        pts = probe_points(mesh, 23)
        got = mesh.locate_leaves(pts)
        want = [locate_leaf_oracle(mesh, pt) for pt in pts]
        assert got.tolist() == [-1 if w is None else w for w in want]
        assert (got == -1).any() and (got == 0).any()


def test_side_on_domain_boundary_lshape():
    # domain covers quadrants 1, 2 and 3; the notch removes x>0, y<0.
    # The Basis reads the sides off the lattice, one row per element.
    def on_boundary(mesh, leaf, axis, upper):
        basis = Basis(mesh, PolynomialOrderField(uniform=1))
        return bool(basis.boundary[basis.row_of[leaf], 2 * (1 - axis) + upper])

    mesh = Mesh(lshape_mesh_spec(2))
    q2 = leaf_at(mesh, (-0.75, 0.25))
    assert on_boundary(mesh, q2, axis=0, upper=False)  # x = -1
    assert not on_boundary(mesh, q2, axis=1, upper=False)  # faces Q3
    assert on_boundary(mesh, leaf_at(mesh, (-0.75, 0.75)), 1, True)
    # the notch legs are boundary, the interfaces between quadrants are not
    q1 = leaf_at(mesh, (0.25, 0.25))
    assert on_boundary(mesh, q1, axis=1, upper=False)  # y = 0 leg
    assert not on_boundary(mesh, q1, axis=0, upper=False)  # faces Q2
    q3 = leaf_at(mesh, (-0.25, -0.75))
    assert on_boundary(mesh, q3, axis=0, upper=True)  # x = 0 leg
    assert not on_boundary(mesh, q3, axis=1, upper=True)  # faces Q2
    # children inherit the sides they touch
    mesh.refine([q1])
    child = leaf_at(mesh, (0.05, 0.05))
    assert on_boundary(mesh, child, axis=1, upper=False)
    assert not on_boundary(mesh, child, axis=0, upper=False)
    assert not on_boundary(mesh, child, axis=1, upper=True)


def test_chain_and_max_level():
    # the ancestor chain through the parent column, the child column back
    mesh = single_patch(1)
    root = mesh.active_leaf_elements()[0]
    mesh.refine([root])
    mesh.refine([leaf_at(mesh, (0.9, 0.9))])
    leaf = leaf_at(mesh, (0.99, 0.99))
    path = chain(mesh, leaf)
    assert mesh.elements.level[path].tolist() == [0, 1, 2]
    assert path[0] == root
    assert path[-1] == leaf
    assert [mesh.elements.child[e] + 3 for e in path[:-1]] == path[1:]
    assert mesh.max_level() == 2


def test_node_and_edge_geometry():
    mesh = single_patch(2)
    t = mesh.table
    nodes = np.flatnonzero((t.level == 0) & (t.kind == NODE))
    pts = sorted(map(tuple, mesh.entity_points(nodes).tolist()))
    assert pts[0] == (0.0, 0.0)
    assert pts[-1] == (1.0, 1.0)
    edges = np.flatnonzero((t.level == 0) & (t.kind == EDGE))
    for row in edges:
        a, b = mesh.entity_points(t.ends[row])
        assert np.isclose(np.linalg.norm(b - a), 0.5)
        # an edge's point is its midpoint
        assert np.array_equal(mesh.entity_points([row])[0], (a + b) / 2)


def test_lattice_coordinates_round_like_fractions():
    # integer true division is correctly rounded, as Fraction.__float__
    # is, also for non-dyadic denominators and deep levels
    rng = np.random.default_rng(19)
    spec = BaseMeshSpec((PatchSpec(((-1, 0), (0, 1)), (3, 5)),
                         PatchSpec(((0, 1), (0, 1)), (3, 5)),
                         PatchSpec(((0, 1), (1, 2)), (3, 7))))
    mesh = Mesh(spec)
    assert mesh._den == (3, 35)
    for axis, den in enumerate(mesh._den):
        for level in (0, 1, 2, 17, 33, 40):
            scale = den << level
            ms = [int(v) for v in rng.integers(-2 * scale, 2 * scale, size=200,
                                               dtype=np.int64)]
            ms += [0, 1, -1, scale, scale - 1, 3 * scale + 1]
            got = mesh._floats(np.column_stack((ms, ms)), [level] * len(ms))
            for m, value in zip(ms, got[:, axis].tolist()):
                assert value == float(Fraction(m, scale))


def test_refinement_stops_where_lattice_floats_stop_being_exact():
    # a unit square reaches level 51; level 52 would need 2**53 lattice
    # positions, and the failed call leaves the mesh as it was
    mesh = single_patch(1)
    with pytest.raises(MeshError, match="2\\*\\*53"):
        for _ in range(60):
            mesh.refine([leaf_at(mesh, (0.0, 0.0))])
    assert mesh.max_level() == 51
    assert len(mesh.active_leaf_elements()) == 1 + 3 * 51
    assert len(mesh.topology) == 1 + 4 * 51
    leaf = leaf_at(mesh, (0.0, 0.0))
    assert mesh.elements.hi_f[leaf].tolist() == [2.0 ** -51, 2.0 ** -51]
    assert len(mesh.elements) == len(mesh.topology)


# ------------------------------------------------- entity table oracle

TWO_PATCH = BaseMeshSpec((PatchSpec(((0, 1), (0, 1)), (2, 2)),
                          PatchSpec(((1, 3), (0, 1)), (2, 2))))
NON_DYADIC = BaseMeshSpec((PatchSpec(((-1, 0), (0, 1)), (3, 5)),
                           PatchSpec(((0, 1), (0, 1)), (3, 5)),
                           PatchSpec(((0, 1), (1, 2)), (3, 7))))


@pytest.mark.parametrize("res", [3, 16])
def test_entity_table_matches_sequential_creation_corner(res):
    rng = np.random.default_rng(res)
    mesh = CheckedMesh(lshape_mesh_spec(res))
    mesh.oracle.assert_matches(mesh, PolynomialOrderField(uniform=3))
    for _ in range(4):
        mesh.refine(mark_corner_leaves(mesh, (0.0, 0.0)))
        mesh.oracle.assert_matches(mesh, random_orders(rng, mesh))


@pytest.mark.parametrize("spec", [TWO_PATCH, NON_DYADIC],
                         ids=["two_patch", "non_dyadic"])
def test_entity_table_matches_sequential_creation_patches(spec):
    # five rounds of refining a random third of the leaves
    rng = np.random.default_rng(5)
    mesh = CheckedMesh(spec)
    mesh.oracle.assert_matches(mesh, random_orders(rng, mesh))
    for _ in range(5):
        leaves = mesh.active_leaf_elements()
        picked = rng.choice(len(leaves), size=max(1, len(leaves) // 3),
                            replace=False)
        mesh.refine(leaves[picked])
        mesh.oracle.assert_matches(mesh, random_orders(rng, mesh))


def test_entity_table_matches_sequential_creation_ball_and_random():
    mesh = CheckedMesh(lshape_mesh_spec(4))
    for step in range(1, 5):
        mesh.refine(mark_ball_leaves(mesh, (0.0, 0.0), 2.0 ** (1 - step)))
        mesh.oracle.assert_matches(mesh, PolynomialOrderField(uniform=4))
    rng = np.random.default_rng(4)
    mesh = CheckedMesh(lshape_mesh_spec(4))
    for _ in range(4):
        mesh.refine(mark_random_leaves(mesh, rng))
        mesh.oracle.assert_matches(mesh, random_orders(rng, mesh))


def test_sequential_replay_reads_no_parent_or_child_column():
    # the oracle replays each call from its own records: scrambling the
    # mesh's forest links while it replays changes nothing it checks
    rng = np.random.default_rng(7)
    mesh = CheckedMesh(NON_DYADIC)
    for _ in range(5):
        leaves = mesh.active_leaf_elements()
        marks = rng.choice(leaves, size=max(1, len(leaves) // 3),
                           replace=False)
        Mesh.refine(mesh, marks)
        e = mesh.elements
        links = e.parent.copy(), e.child.copy()
        e.parent[:] = e.child[:] = -7
        mesh.oracle.refine(marks)
        e.parent[:], e.child[:] = links
        mesh.oracle.assert_matches(mesh)


# ------------------------------------------------------------------ export


def test_export_mesh_xml(tmp_path):
    mesh = single_patch(2)
    leaves = mesh.active_leaf_elements()
    mesh.refine([leaves[0]])
    n = len(mesh.active_leaf_elements())
    path = tmp_path / "mesh.xml"
    export_mesh_xml(
        mesh, path,
        ranks=[i % 2 for i in range(n)],
        weights=[1.0 + i for i in range(n)],
        orders=[3] * n,
    )

    import xml.etree.ElementTree as ET

    root = ET.parse(path).getroot()
    assert root.tag == "overlay_grid"
    assert root.get("cells") == str(n)
    cells = root.findall(".//c")
    assert len(cells) == n
    ids = {p.get("id") for p in root.findall(".//p")}
    assert len(ids) == int(root.get("points"))
    for cell in cells:
        assert cell.get("level") in {"0", "1"}
        assert cell.get("rank") in {"0", "1"}
        assert cell.get("order") == "3"
        assert float(cell.get("weight")) >= 1.0
        refs = cell.get("nodes").split()
        assert len(refs) == 4
        for ref in refs:
            assert ref in ids

    first = path.read_bytes()
    export_mesh_xml(mesh, path, ranks=[i % 2 for i in range(n)],
                    weights=[1.0 + i for i in range(n)], orders=[3] * n)
    assert path.read_bytes() == first



def export_mesh_xml_oracle(mesh, ranks, weights, orders):
    """The cell-by-cell writer the array export replaced: each corner's
    lattice position reduced to lowest terms, points numbered by first
    occurrence."""
    e = mesh.elements
    point_ids, points, cells = {}, [], []

    def canon(m, lvl):
        while m % 2 == 0 and lvl > 0:
            m //= 2
            lvl -= 1
        return m, lvl

    def pid(ints, lvl, floats):
        key = tuple(canon(m, lvl) for m in ints)
        if key not in point_ids:
            point_ids[key] = len(points)
            points.append(floats)
        return point_ids[key]

    for n, leaf in enumerate(mesh.active_leaf_elements().tolist()):
        lvl = int(e.level[leaf])
        (x0, y0), (x1, y1) = e.lo[leaf].tolist(), e.hi[leaf].tolist()
        (fx0, fy0), (fx1, fy1) = e.lo_f[leaf].tolist(), e.hi_f[leaf].tolist()
        ids = (pid((x0, y0), lvl, (fx0, fy0)), pid((x1, y0), lvl, (fx1, fy0)),
               pid((x1, y1), lvl, (fx1, fy1)), pid((x0, y1), lvl, (fx0, fy1)))
        cells.append(f'    <c id="{n}" nodes="{" ".join(map(str, ids))}" '
                     f'level="{lvl}" rank="{int(ranks[n])}" '
                     f'order="{int(orders[n])}" weight="{float(weights[n])!r}"/>')
    return "\n".join([
        '<?xml version="1.0"?>',
        f'<overlay_grid dimension="2" points="{len(points)}" '
        f'cells="{len(cells)}">', "  <points>",
        *(f'    <p id="{i}" x="{x!r}" y="{y!r}"/>'
          for i, (x, y) in enumerate(points)),
        "  </points>", "  <cells>", *cells, "  </cells>",
        "</overlay_grid>"]) + "\n"


@pytest.mark.parametrize("spec", ["lshape", "non_dyadic"])
def test_export_mesh_xml_matches_cell_by_cell_writer(spec, tmp_path):
    # corners shared across levels and patch seams get one point, in
    # first-occurrence order, with the bytes of the cell-by-cell writer
    rng = np.random.default_rng(9)
    mesh = Mesh({"lshape": lshape_mesh_spec(3), "non_dyadic": NON_DYADIC}[spec])
    for step in range(4):
        leaves = mesh.active_leaf_elements()
        mesh.refine(rng.choice(leaves, size=max(1, len(leaves) // 4),
                               replace=False))
    n = len(mesh.active_leaf_elements())
    ranks, orders = rng.integers(0, 4, n), rng.integers(1, 6, n)
    weights = rng.uniform(0.5, 2.0, n)
    path = tmp_path / "mesh.xml"
    export_mesh_xml(mesh, path, ranks=ranks, weights=weights, orders=orders)
    assert path.read_text() == export_mesh_xml_oracle(mesh, ranks, weights,
                                                      orders)
