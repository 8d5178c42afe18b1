"""Shared helpers for the test suite.

Random meshes are built by seeded marking rounds so every test run sees
the same sequence.  Helpers here are deliberately small; an oracle is
reimplemented inside the test module that needs it, unless several
modules need it: the cell-by-cell quadrature oracles, the per-leaf
evaluation and integration kernels, the per-element Basis oracles, the
point-by-point leaf walk, the full-length interval-cut bisection,
the object-by-object entity and element bookkeeping, the triplet
expansion of the step's K blocks, the lexsort assembly and the serial
reference path (a second assembly, a direct solve, point-by-point
fields, the per-leaf queries and the equal-count dof owner) live here.
"""

from dataclasses import dataclass
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import scipy.sparse

from overlayfem.mesh import EDGE, FACE, NODE, Mesh, BaseMeshSpec, PatchSpec
from overlayfem.basis import (Basis, PolynomialOrderField, entity_mode_count,
                             enumerate_dofs, shape_tables)
from overlayfem.distributed import (LeafBlocks, integrate_rank_system,
                                    leaf_free_dofs)
from overlayfem.benchmarks import (RunConfig, lshape_mesh_spec, make_problem,
                                   mark_corner_leaves, marks_for_step)
from overlayfem.mesh import _ranges, create_base_mesh
from overlayfem.partition import partition_leaves
from overlayfem.physics import flux_loads_by_leaf, integrate_leaves
from overlayfem.quadrature import (LeafRule, gauss_rule_1d, leaf_frame,
                                   leaf_rule, leaf_rule_table, subdivide)

# Filled by the acceptance module; echoed after the run so the verdict
# lines are visible even under pytest's output capture.
ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.write_sep("-", "acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


def single_patch(res, bounds=((0.0, 1.0), (0.0, 1.0)), make=Mesh):
    if isinstance(res, int):
        res = (res, res)
    spec = BaseMeshSpec(patches=(PatchSpec(bounds=bounds, resolution=res),))
    return make(spec)


def random_refined_mesh(rng, max_leaves=1000, make=Mesh):
    """Small unit-square mesh refined by random marking rounds; `make`
    builds the mesh from its spec."""
    res = int(rng.integers(2, 5))
    mesh = single_patch(res, make=make)
    rounds = int(rng.integers(1, 5))
    for _ in range(rounds):
        leaves = mesh.active_leaf_elements()
        if len(leaves) * 4 > max_leaves:
            break
        k = max(1, int(len(leaves) * float(rng.uniform(0.05, 0.3))))
        picked = rng.choice(len(leaves), size=k, replace=False)
        mesh.refine(leaves[picked])
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
        mesh.refine(leaves[picked])
    return Basis(mesh, random_orders(rng, mesh))


def leaf_ranks(method, mesh, basis, weights, n_ranks, seed=0):
    """One rank per active leaf: a library partitioner by name, or for
    "random" a seeded uniform draw, less local than any partitioner's
    output.  The draw has its own generator, so no caller's stream moves."""
    if method == "random":
        return np.random.default_rng(seed).integers(0, n_ranks,
                                                    size=len(weights))
    return partition_leaves(method, mesh, basis, weights, n_ranks)


def corner_refined(res, steps):
    """The L-shape base mesh after `steps` refinements at the corner."""
    mesh = Mesh(lshape_mesh_spec(res))
    for _ in range(steps):
        mesh.refine(mark_corner_leaves(mesh, (0.0, 0.0)))
    return mesh


def leaf_at(mesh, point):
    """Id of the leaf holding one point, -1 outside the mesh."""
    return int(mesh.locate_leaves([point])[0])


def chain(mesh, elem):
    """Ancestor ids of an element, base first, the element itself last,
    one parent link at a time."""
    path = []
    while elem >= 0:
        path.append(int(elem))
        elem = mesh.elements.parent[elem]
    return path[::-1]


def locate_leaf_oracle(mesh, point):
    """The point-by-point walk ``Mesh.locate_leaves`` replaced: the first
    patch holding the point, its base cell by index arithmetic, then one
    child choice per level; None outside the mesh."""
    e = mesh.elements
    pt = np.asarray(point, dtype=float)
    for patch, first_id in mesh._patch_tables:
        idx = []
        ok = True
        for a, ((lo, hi), n) in enumerate(zip(patch.bounds, patch.resolution)):
            if not (lo <= pt[a] <= hi):
                ok = False
                break
            i = int((pt[a] - lo) / (hi - lo) * n)
            idx.append(min(max(i, 0), int(n) - 1))
        if not ok:
            continue
        nx = int(patch.resolution[0])
        elem = first_id + idx[1] * nx + idx[0]
        while e.child[elem] >= 0:
            sel = 0
            for a in range(2):
                if pt[a] > (e.lo_f[elem][a] + e.hi_f[elem][a]) / 2:
                    sel += 1 << a
            elem = int(e.child[elem]) + sel
        return elem
    return None


# ------------------------------------------------ partition oracle


def _scalar_fits(w, n_ranks, bound):
    """The scalar greedy scan the cumsum probe replaced."""
    parts = 1
    acc = 0.0
    for v in w:
        if v > bound:
            return False
        if acc + v > bound:
            parts += 1
            acc = v
            if parts > n_ranks:
                return False
        else:
            acc += v
    return True


def interval_cut_oracle(weights, n_ranks):
    """The bottleneck cut with all 100 bisection probes and the scalar
    greedy probe: the library stops at the first probe that moves
    neither end of the bracket and must cut the same."""
    w = np.asarray(weights, dtype=float)
    lo = float(w.max())
    hi = float(w.sum())
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        if _scalar_fits(w, n_ranks, mid):
            hi = mid
        else:
            lo = mid
    bound = hi * (1 + 1e-12)
    ranks = np.empty(w.size, dtype=np.int64)
    r = 0
    acc = 0.0
    for i, v in enumerate(w):
        must_break = (w.size - i) == (n_ranks - r) and acc > 0.0
        if (must_break or (acc + v > bound and acc > 0.0)) and r < n_ranks - 1:
            r += 1
            acc = 0.0
        ranks[i] = r
        acc += v
    return ranks


# ------------------------------------------------ quadrature oracles


@dataclass
class Cell:
    """Points, weights and indicator values on one axis-aligned box."""

    lo: np.ndarray
    hi: np.ndarray
    points: np.ndarray   # (n, 2)
    weights: np.ndarray  # (n,)
    alpha: np.ndarray    # (n,)


def _reference_points(order):
    x1, _ = gauss_rule_1d(order)
    return np.column_stack((np.repeat(x1, order), np.tile(x1, order)))


def gauss_cell(lo, hi, order):
    """Tensor Gauss rule on one axis rectangle, x-major, indicator one:
    the box-at-a-time rule the box kernel replaced."""
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    half = (hi - lo) / 2
    _, w1 = gauss_rule_1d(order)
    return Cell(lo, hi, (lo + hi) / 2 + half * _reference_points(order),
                np.outer(w1 * half[0], w1 * half[1]).ravel(),
                np.ones(order * order))


def rule_from_cells(cells):
    """The cells stacked into one read-only rule, cell after cell."""
    arrays = [np.concatenate([getattr(c, name) for c in cells])
              for name in ("points", "weights", "alpha")]
    for arr in arrays:
        arr.flags.writeable = False
    sizes = np.cumsum([len(c.weights) for c in cells]).tolist()
    return LeafRule(*arrays, (0, *sizes))


def recursive_spacetree_cells(lo, hi, domain, depth, order, to_physical=None):
    """The box-at-a-time recursion the level-synchronous kernel replaced,
    kept here as its oracle."""
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    ident = to_physical is None
    eps = domain.epsilon
    _, w1 = gauss_rule_1d(order)
    ref = _reference_points(order)

    def corners(l, h):
        return np.array([[l[0], l[1]], [h[0], l[1]], [l[0], h[1]], [h[0], h[1]]])

    out = []

    def visit(l, h, remaining):
        mid = (l + h) / 2
        half = (h - l) / 2
        points = mid + half * ref
        sample = np.vstack((corners(l, h), points))
        phys = sample if ident else to_physical(sample)
        inside = domain.contains(phys)
        if remaining == 0 or inside.all() or not inside.any():
            weights = np.outer(w1 * half[0], w1 * half[1]).ravel()
            out.append(Cell(l, h, points, weights,
                            np.where(inside[4:], 1.0, eps)))
            return
        visit(l, mid, remaining - 1)
        visit(np.array([mid[0], l[1]]), np.array([h[0], mid[1]]), remaining - 1)
        visit(np.array([l[0], mid[1]]), np.array([mid[0], h[1]]), remaining - 1)
        visit(mid, h, remaining - 1)

    visit(lo, hi, depth)
    return out


def leaf_to_physical(mesh, leaf):
    """Affine map from the leaf's [-1, 1]^2 reference box to physical
    space, read off the element columns: the per-leaf map the one leaf
    frame replaced."""
    lo, hi = mesh.elements.lo_f[leaf], mesh.elements.hi_f[leaf]
    half = (hi - lo) / 2
    mid = (hi + lo) / 2

    def to_physical(points):
        return mid + np.atleast_2d(points) * half

    return to_physical


def leaf_jacobian(mesh, leaf):
    """Measure factor of the reference-to-physical map of one leaf."""
    lo, hi = mesh.elements.lo_f[leaf], mesh.elements.hi_f[leaf]
    return float(np.prod((hi - lo) / 2))


def per_leaf_rules(basis, leaves, domain, depth, extra_order=0):
    """One rule per leaf id, in their order: the list the ragged rule
    table replaced, split leaf by leaf from one ``subdivide`` per order."""
    leaves = np.asarray(leaves, dtype=np.int64)
    rules = [None] * len(leaves)
    orders = basis.quad_orders[basis.rows(leaves)] + extra_order
    for order in np.unique(orders).tolist():
        idx = np.flatnonzero(orders == order)
        lo = basis.mesh.elements.lo_f[leaves[idx]]
        hi = basis.mesh.elements.hi_f[leaves[idx]]
        half = (hi - lo) / 2
        mid = (hi + lo) / 2
        ones = np.ones((len(idx), 2))
        roots, rule = subdivide(
            -ones, ones, domain, depth, order,
            lambda pts, r: mid[r, None] + pts * half[r, None])
        n = order * order
        counts = np.bincount(roots, minlength=len(idx))
        bounds = n * np.cumsum(counts)[:-1]
        rows = zip(*(np.split(arr, bounds)
                     for arr in (rule.points, rule.weights, rule.alpha)))
        for i, cells, arrays in zip(idx.tolist(), counts.tolist(), rows):
            rules[i] = LeafRule(*arrays, tuple(range(0, cells * n + 1, n)))
    return rules


# Embedded-domain studies whose every step the kernel oracles cover:
# perfbench's fcm_disk mesh at res 8 and 16, a graded-order one (CI's
# graded fcm_disk run) and README's example config.
CUT_CELL_CONFIGS = {
    "fcm res 8": dict(benchmark="fcm_disk", res=8, p=2, depth=4, steps=2),
    "fcm res 16": dict(benchmark="fcm_disk", res=16, p=2, depth=4, steps=2),
    "fcm graded": dict(benchmark="fcm_disk", res=6, p_graded={"0": 3, "1": 2},
                       depth=3, steps=2),
    "README custom": dict(
        benchmark="custom", epsilon=1e-8, p=3, steps=2, marking="interface",
        patches=[{"bounds": [[0.0, 2.0], [0.0, 1.0]], "resolution": [16, 8]}],
        geometry={"op": "subtract", "args": [
            {"primitive": "rect", "lo": [0.0, 0.0], "hi": [2.0, 1.0]},
            {"primitive": "disk", "center": [1.0, 0.5], "radius": 0.3}]}),
}


def study_bases(config):
    """(problem, Basis) of every step of a study's refinement, as
    ``run_benchmark`` marks it, without solving."""
    config = RunConfig.from_dict(config)
    problem = make_problem(config)
    mesh = create_base_mesh(problem.mesh_spec)
    rng = np.random.default_rng(config.seed)
    for step in range(config.steps + 1):
        marks = marks_for_step(problem, config.effective_marking(), mesh,
                               step, rng)
        if marks is not None:
            mesh.refine(marks)
        yield problem, Basis(mesh, config.order_field())


def evaluate_leaf_oracle(basis, leaf, points):
    """One leaf's (values, gradients), evaluated alone: the per-leaf
    evaluation the batched ``Basis.evaluate_leaves`` replaced, with its
    mode-major buffers and transposed views."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    n = pts.shape[0]
    frames = basis.leaf_frames([basis.rows(leaf)], pts, [n])
    size = sum(basis.plans[plans[0]][0].size for plans, _, _ in frames)
    values, grads = np.empty((size, n)), np.empty((size, n, 2))
    start = 0
    for plans, (scale,), ref in frames:
        jx, jy = basis.plans[plans[0]]
        jmax = max(2, int(jx.max()) + 1, int(jy.max()) + 1)
        vals_1d, ders_1d = shape_tables(jmax, ref.T.ravel())
        vx, vy = vals_1d[jx, :n], vals_1d[jy, n:]
        rows = slice(start, start + jx.size)
        np.multiply(vx, vy, out=values[rows])
        np.multiply(ders_1d[jx, :n] * vy, scale[0], out=grads[rows, :, 0])
        np.multiply(vx * ders_1d[jy, n:], scale[1], out=grads[rows, :, 1])
        start = rows.stop
    return values.T, grads.transpose(1, 0, 2)


def element_system(basis, leaf, domain=None, depth=0, source=None):
    """One leaf's (K, f, gids), integrated alone and cell by cell: the
    per-leaf kernel that ``physics.integrate_leaves`` replaced.  f is
    None without a source."""
    rule = leaf_rule(basis, leaf, domain, depth)
    pts, jac = leaf_frame(basis, leaf, rule.points)
    V, G = evaluate_leaf_oracle(basis, leaf, pts)
    w = rule.weights * rule.alpha * jac
    n = leaf_mode_count(basis, leaf)
    K = np.zeros((n, n))
    f = None if source is None else np.zeros(n)
    for cell in rule.cells():
        K += np.einsum("q,qid,qjd->ij", w[cell], G[cell], G[cell])
        if f is not None:
            src = np.asarray(source(pts[cell]), dtype=float)
            f += V[cell].T @ (w[cell] * src)
    return K, f, basis.leaf_dofs(leaf)


def indicator_area_oracle(basis, domain, depth):
    """The region's measure cell by cell: per cell the ``.sum()`` of its
    inside weights times its leaf's Jacobian, added in table order."""
    rule, leaf_cells = leaf_rule_table(basis, domain, depth)
    _, jac = leaf_frame(basis, basis.mesh.active_leaf_elements(),
                        np.zeros(2))
    cells, bounds = rule.cells(), leaf_cells.tolist()
    total = 0.0
    for j, a, b in zip(jac.tolist(), bounds, bounds[1:]):
        for cell in cells[a:b]:
            inside = rule.alpha[cell] == 1.0
            total += j * float(rule.weights[cell][inside].sum())
    return total


def assert_rule_is_cells(rule, oracle):
    """`rule` holds the oracle's cells, bit for bit and in their order."""
    sizes = np.cumsum([len(c.weights) for c in oracle]).tolist()
    assert rule.offsets == (0, *sizes)
    for name in ("points", "weights", "alpha"):
        want = np.concatenate([getattr(c, name) for c in oracle])
        assert np.array_equal(getattr(rule, name), want), name


# ------------------------------------------------------ Basis oracles
#
# The per-element, per-leaf walks the Basis tables replaced: each query
# reads the element's topology and its ancestor chain directly, one
# entity row at a time.


def entity_order(basis, row):
    return basis.orders.level_order(int(basis.mesh.table.level[row]))


def entity_modes(basis, row):
    """Mode count of one entity row, active or not."""
    kind = int(basis.mesh.table.kind[row])
    return int(entity_mode_count(kind, entity_order(basis, row)))


def plan_oracle(basis, elem):
    """(jx, jy, gids) of one element, slot by slot over its topology."""
    table = basis.mesh.table
    jx, jy, gids = [], [], []
    for slot, row in enumerate(basis.mesh.topology[elem].tolist()):
        if not table.active[row]:
            continue
        p = entity_order(basis, row)
        n = entity_modes(basis, row)
        if n == 0:
            continue
        off = index_of(basis.dofmap, row, 0)
        gids.extend(range(off, off + n))
        if slot < 4:
            ix, iy = ((0, 0), (1, 0), (0, 1), (1, 1))[slot]
            jx.append(ix)
            jy.append(iy)
        elif slot == 4:
            jx.extend(range(2, 2 + n))
            jy.extend([0] * n)
        elif slot == 5:
            jx.extend(range(2, 2 + n))
            jy.extend([1] * n)
        elif slot == 6:
            jx.extend([0] * n)
            jy.extend(range(2, 2 + n))
        elif slot == 7:
            jx.extend([1] * n)
            jy.extend(range(2, 2 + n))
        else:
            for a in range(p - 1):
                jx.extend([2 + a] * (p - 1))
                jy.extend(range(2, 2 + p - 1))
    return (np.asarray(jx, dtype=np.intp), np.asarray(jy, dtype=np.intp),
            np.asarray(gids, dtype=np.int64))


def leaf_dofs_oracle(basis, leaf):
    parts = [plan_oracle(basis, e)[2] for e in chain(basis.mesh, leaf)]
    return np.concatenate(parts) if parts else np.empty(0, np.int64)


def leaf_quad_order_oracle(basis, leaf):
    pmax = 1
    for elem in chain(basis.mesh, leaf):
        for row in basis.mesh.topology[elem].tolist():
            if basis.mesh.table.active[row]:
                pmax = max(pmax, entity_order(basis, row))
    return pmax + 1


def node_point(mesh, row):
    """A node's point through exact fractions of its lattice position."""
    level = int(mesh.table.level[row])
    return np.array([float(Fraction(int(m), den << level + 1))
                     for m, den in zip(mesh.table.pos[row], mesh._den)])


def constrained_dof_mask_oracle(basis, on_part):
    mesh = basis.mesh
    mask = np.zeros(basis.dofmap.total, dtype=bool)
    for row in basis.dofmap.rows.tolist():
        kind = mesh.table.kind[row]
        if kind == NODE:
            hit = bool(on_part(node_point(mesh, row)))
        elif kind == EDGE:
            a, b = mesh.table.ends[row]
            hit = bool(on_part(node_point(mesh, a))) and bool(on_part(node_point(mesh, b)))
        else:
            hit = False
        if hit:
            off = index_of(basis.dofmap, row, 0)
            mask[off:off + entity_modes(basis, row)] = True
    return mask


SIDES_2D = ((1, False), (1, True), (0, False), (0, True))


def side_on_domain_boundary(mesh, elem, axis, upper):
    """True when the element's face at lo/hi of `axis` lies on the
    boundary of the meshed domain: on a side of its base element that no
    other base element shares."""
    e = mesh.elements
    base = chain(mesh, elem)[0]
    box = e.hi if upper else e.lo
    if box[elem, axis] != box[base, axis] << e.level[elem]:
        return False
    slot = (7 if upper else 6) if axis == 0 else (5 if upper else 4)
    return mesh.table.incidence[mesh.topology[base, slot]] == 1


def leaf_flux_load(basis, leaf, flux, part=None):
    """One leaf's boundary-flux load, side by side, one basis evaluation
    and one flux call per kept side; None when no side is kept."""
    mesh = basis.mesh
    q = leaf_quad_order_oracle(basis, leaf)
    x1, w1 = gauss_rule_1d(q + 1)
    f = np.zeros(len(leaf_dofs_oracle(basis, leaf)))
    hit = False
    for axis, upper in SIDES_2D:
        if not side_on_domain_boundary(mesh, leaf, axis, upper):
            continue
        a = mesh.elements.lo_f[leaf].copy()
        b = mesh.elements.hi_f[leaf].copy()
        if upper:
            a[axis] = mesh.elements.hi_f[leaf][axis]
        else:
            b[axis] = mesh.elements.lo_f[leaf][axis]
        mid = (a + b) / 2
        if part is not None and not part(mid):
            continue
        normal = np.zeros(2)
        normal[axis] = 1.0 if upper else -1.0
        half = (b - a) / 2
        pts = mid + np.outer(x1, half)
        V, _ = basis.evaluate_leaf(leaf, pts)
        w = w1 * float(np.linalg.norm(half))
        g = np.asarray(flux(pts, normal), dtype=float)
        f += V.T @ (w * g)
        hit = True
    return f if hit else None


# ------------------------------------------------ entity table oracle


class _Entity:
    """One entity of the object-by-object bookkeeping."""

    def __init__(self, index, kind, level, pos):
        self.index, self.kind, self.level, self.pos = index, kind, level, pos
        self.active, self.incidence = True, 0
        self.finer, self.coarser, self.end_nodes = [], None, None
        self.boundary = self.desc = False


class SequentialEntities:
    """The entity and element bookkeeping the mesh tables replaced:
    entity objects made one at a time, deduped by per-level key dicts and
    linked by lists, with activation walked entity by entity, and one
    element record per id.

    Built from a fresh mesh, it replays the base build from the mesh's
    spec, patch by patch and element row by row; ``refine`` replays the
    call of the same name, made on the mesh just before, from its own
    records alone.  A split runs by element id, then
    child (j, i), then slot n00 n10 n01 n11 eb et el er face, and numbers
    the children from the next unused id.
    """

    def __init__(self, mesh):
        self.den = mesh._den
        self.entities = []     # creation order
        self.keys = {}         # (level, kind, x, y) -> entity
        self.topology = {}     # element id -> its 9 entities
        self.elems = []        # per id: [level, parent, child, lo, hi]
        for patch in mesh.spec.patches:
            lines = []
            for (lo, hi), n, den in zip(patch.bounds, patch.resolution,
                                        self.den):
                lo, n = Fraction(lo), int(n)
                step = (Fraction(hi) - lo) / n
                lines.append([int((lo + i * step) * den) for i in range(n + 1)])
            xs, ys = lines
            for j in range(len(ys) - 1):
                for i in range(len(xs) - 1):
                    self._new_element(0, -1, (xs[i], ys[j]),
                                      (xs[i + 1], ys[j + 1]))

    def _new_element(self, level, parent, lo, hi):
        eid = len(self.elems)
        self.elems.append([level, parent, -1, lo, hi])
        self._wire(eid, level, lo, hi)
        return eid

    def _get_or_make(self, level, kind, x, y):
        ent = self.keys.get((level, kind, x, y))
        if ent is None:
            ent = _Entity(len(self.entities), kind, level, (x, y))
            self.entities.append(ent)
            self.keys[level, kind, x, y] = ent
        return ent

    def _wire(self, eid, lvl, lo, hi):
        (x0, y0), (x1, y1) = lo, hi
        n00 = self._get_or_make(lvl, NODE, 2 * x0, 2 * y0)
        n10 = self._get_or_make(lvl, NODE, 2 * x1, 2 * y0)
        n01 = self._get_or_make(lvl, NODE, 2 * x0, 2 * y1)
        n11 = self._get_or_make(lvl, NODE, 2 * x1, 2 * y1)
        eb = self._get_or_make(lvl, EDGE, x0 + x1, 2 * y0)
        et = self._get_or_make(lvl, EDGE, x0 + x1, 2 * y1)
        el = self._get_or_make(lvl, EDGE, 2 * x0, y0 + y1)
        er = self._get_or_make(lvl, EDGE, 2 * x1, y0 + y1)
        for edge, ends in ((eb, (n00, n10)), (et, (n01, n11)),
                           (el, (n00, n01)), (er, (n10, n11))):
            if edge.end_nodes is None:
                edge.end_nodes = ends
        face = self._get_or_make(lvl, FACE, x0 + x1, y0 + y1)
        topo = (n00, n10, n01, n11, eb, et, el, er, face)
        for ent in topo:
            ent.incidence += 1
        self.topology[eid] = topo
        return topo

    @staticmethod
    def _link(child, parent):
        if child.coarser is None:
            child.coarser = parent
            parent.finer.append(child)

    def refine(self, marked):
        for eid in sorted(set(marked)):
            level, _, _, (X0, Y0), (X1, Y1) = self.elems[eid]
            topo = self.topology[eid]
            xs, ys = (2 * X0, X0 + X1, 2 * X1), (2 * Y0, Y0 + Y1, 2 * Y1)
            self.elems[eid][2] = len(self.elems)
            for j, i in ((0, 0), (0, 1), (1, 0), (1, 1)):
                lo, hi = (xs[i], ys[j]), (xs[i + 1], ys[j + 1])
                child = self._new_element(level + 1, eid, lo, hi)
                n00, n10, n01, n11, eb, et, el, er, face = self.topology[child]
                for node, a, b in ((n00, i, j), (n10, i + 1, j),
                                   (n01, i, j + 1), (n11, i + 1, j + 1)):
                    if a != 1 and b != 1:
                        slot = a // 2 + (b // 2) * 2
                    elif a == 1 and b == 1:
                        slot = 8
                    elif a == 1:
                        slot = 4 if b == 0 else 5
                    else:
                        slot = 6 if a == 0 else 7
                    self._link(node, topo[slot])
                self._link(eb, topo[4] if j == 0 else topo[8])
                self._link(et, topo[8] if j == 0 else topo[5])
                self._link(el, topo[6] if i == 0 else topo[8])
                self._link(er, topo[8] if i == 0 else topo[7])
                self._link(face, topo[8])
        self.update_activation()

    def update_activation(self):
        top = max(e.level for e in self.entities)
        for ent in self.entities:
            ent.boundary = False
        for ent in self.entities:
            if ent.level > 0 and ent.kind == EDGE and ent.incidence == 1:
                ent.boundary = True
                for node in ent.end_nodes:
                    node.boundary = True
        for lvl in range(top, -1, -1):
            for ent in self.entities:
                if ent.level != lvl:
                    continue
                desc = any(f.desc for f in ent.finer)
                ent.active = not desc and (lvl == 0 or not ent.boundary)
                ent.desc = ent.active or desc

    def assert_matches(self, mesh, orders=None):
        """The mesh table, topology and (given orders) dof offsets are
        this bookkeeping's, row for row."""
        ents = self.entities
        row = {id(e): r for r, e in enumerate(ents)}
        t = mesh.table
        assert len(t) == len(ents)
        assert t.level.tolist() == [e.level for e in ents]
        assert t.kind.tolist() == [e.kind for e in ents]
        assert t.pos.tolist() == [list(e.pos) for e in ents]
        assert t.incidence.tolist() == [e.incidence for e in ents]
        assert t.coarser.tolist() == [
            -1 if e.coarser is None else row[id(e.coarser)] for e in ents]
        assert t.ends.tolist() == [
            [row[id(n)] for n in e.end_nodes] if e.kind == EDGE else [-1, -1]
            for e in ents]
        assert t.active.tolist() == [e.active for e in ents]
        self.assert_elements_match(mesh)
        for eid, topo in self.topology.items():
            assert mesh.topology[eid].tolist() == [row[id(e)] for e in topo]
        assert mesh.max_level() == max(e.level for e in ents)
        if orders is None:
            return
        rows, offsets, total = [], [], 0
        for r, ent in enumerate(ents):
            n = int(entity_mode_count(ent.kind, orders.level_order(ent.level)))
            if ent.active and n:
                rows.append(r)
                offsets.append(total)
                total += n
        dofmap = enumerate_dofs(mesh, orders)
        assert dofmap.rows.tolist() == rows
        assert dofmap.offsets.tolist() == offsets
        assert dofmap.total == total


    def assert_elements_match(self, mesh):
        """Every element column, over every id ever made, is this
        bookkeeping's, and every id is an element with its 9 entities;
        floats through exact fractions."""
        e = mesh.elements
        level, parent, child, lo, hi = zip(*self.elems)
        assert len(e) == len(self.elems)
        assert e.level.tolist() == list(level)
        assert e.parent.tolist() == list(parent)
        assert e.child.tolist() == list(child)
        assert e.lo.tolist() == [list(b) for b in lo]
        assert e.hi.tolist() == [list(b) for b in hi]
        for col, boxes in ((e.lo_f, lo), (e.hi_f, hi)):
            assert col.tolist() == [
                [float(Fraction(m, den << lvl)) for m, den in zip(b, self.den)]
                for b, lvl in zip(boxes, level)]
        assert mesh.topology.shape == (len(e), 9)
        assert (mesh.topology >= 0).all()
        assert sorted(self.topology) == list(range(len(e)))


class CheckedMesh(Mesh):
    """A Mesh whose every refine is replayed on a SequentialEntities
    oracle, ``self.oracle``."""

    def __init__(self, spec):
        super().__init__(spec)
        self.oracle = SequentialEntities(self)

    def refine(self, marked):
        super().refine(marked)
        self.oracle.refine(marked)


# ----------------------------------------------------------------------
# the integrate phase outside run_step

def integrate_ranks(basis, to_free, n_free, ranks, n_ranks, systems):
    """The step's K blocks with every rank's leaves integrated into them,
    inline as run_step does, and the ranks' IntermediateSystems."""
    n_leaves = len(basis.leaves)
    ranks = np.asarray(ranks)
    store = LeafBlocks.allocate(*leaf_free_dofs(basis, to_free, n_leaves),
                                basis.mode_counts[:n_leaves], systems, ranks,
                                n_free, n_ranks, shared=False)
    inters = []
    for r in range(n_ranks):
        mine = np.flatnonzero(ranks == r)
        inters.append(integrate_rank_system(basis, mine, r, systems, store))
    return store, inters


def leaf_triplets(store, leaves):
    """The given leaves' triplets, leaf after leaf, as a rank system's
    columns: rows, cols, vals, leaf_tags, rhs_rows, rhs_vals and
    rhs_tags, read before the assembly spends the store.  Each leaf's K
    is expanded at its free dofs, kept x kept entries row-major, and each
    loaded leaf's f at its free dofs: the emission ranks made before they
    wrote K and f blocks."""
    leaves = np.asarray(leaves, dtype=np.int64)
    kept, n = store.kept[leaves], store.modes[leaves]
    at = store.incidence(leaves)
    dofs, local = store.free[at], store.local[at].astype(np.int64)
    per_row = np.repeat(kept, kept)
    # entry e's column is free dof col[e] of the leaves, in leaf order
    col = _ranges(np.repeat(np.cumsum(kept) - kept, kept), per_row)
    # entry (a, b) of a leaf's K is table[base + a * n + b], a and b its
    # free dofs' local indices
    entry = local[col]
    entry += np.repeat(np.repeat(store.base[leaves], kept)
                       + local * np.repeat(n, kept), per_row)
    # entry a of a loaded leaf's f is table[load + a]
    f_base = np.repeat(store.load[leaves], kept)
    on = f_base >= 0
    return SimpleNamespace(
        rows=np.repeat(dofs, per_row), cols=dofs[col],
        vals=store.table[entry],
        leaf_tags=np.repeat(leaves, kept * kept),
        rhs_rows=dofs[on], rhs_vals=store.table[f_base[on] + local[on]],
        rhs_tags=np.repeat(leaves, kept)[on])


# ----------------------------------------------------------------------
# the lexsort assembly oracle
#
# A second assembly for exchange_and_assemble to match bit for bit: the
# triplets rank after rank, each with its leaf tag, sorted by a two-key
# lexsort on (row, column, leaf tag) and summed per (row, column), with
# the ledger read off a merged-entries x ranks matrix.


@dataclass
class RankTriplets:
    """A step's triplets rank after rank: rank r's entries are
    ``starts[r]:starts[r + 1]`` of the matrix columns, its rhs entries
    ``rhs_starts[r]:rhs_starts[r + 1]`` of the rhs columns."""

    starts: np.ndarray
    rhs_starts: np.ndarray
    rows: np.ndarray
    cols: np.ndarray
    vals: np.ndarray
    leaf_tags: np.ndarray
    rhs_rows: np.ndarray
    rhs_vals: np.ndarray
    rhs_tags: np.ndarray

    @classmethod
    def from_store(cls, store):
        """The triplets of a leaf-order store, rank after rank and, within
        a rank, leaf after leaf."""
        ranks = [leaf_triplets(store, np.flatnonzero(store.leaf_ranks == r))
                 for r in range(store.n_ranks)]

        def cat(name, dtype):
            return np.concatenate([getattr(r, name) for r in ranks],
                                  dtype=dtype)

        def starts(name):
            return np.concatenate(([0], np.cumsum(
                [getattr(r, name).size for r in ranks]))).astype(np.int64)

        return cls(starts("rows"), starts("rhs_rows"),
                   cat("rows", np.int32), cat("cols", np.int32),
                   cat("vals", np.float64), cat("leaf_tags", np.int32),
                   cat("rhs_rows", np.int32), cat("rhs_vals", np.float64),
                   cat("rhs_tags", np.int32))

    def take(self, name):
        column = getattr(self, name)
        setattr(self, name, None)
        return column


def _lexsort_run_starts(keys):
    """Mask of the first element of each run of equal sorted keys."""
    new = np.empty(keys.size, dtype=bool)
    new[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=new[1:])
    return new


def lexsort_assemble(triplets, owner, n_free, n_ranks):
    """Sum every rank's triplets into one operator and count the traffic.

    `triplets` is a :class:`RankTriplets`; the assembly takes its columns
    and frees each at its last use.  Returns (system, traffic), system
    with the fields of a DistributedSystem, where traffic[s, d] is the
    number of merged (row, column) entries rank s integrated in rows
    rank d owns.
    """
    # the store is a step's largest value: each column and temporary is
    # freed as soon as it is spent.  The key row * n_free + col is formed
    # in int64, where it cannot overflow
    owner = np.asarray(owner)
    keys = triplets.take("rows").astype(np.int64)
    keys *= n_free
    keys += triplets.take("cols")
    order = np.lexsort((triplets.take("leaf_tags"), keys))
    keys = keys[order]
    vals = triplets.take("vals")[order]
    src = np.repeat(np.arange(n_ranks, dtype=np.min_scalar_type(n_ranks)),
                    np.diff(triplets.starts))[order]
    del order
    new = _lexsort_run_starts(keys)
    starts = np.flatnonzero(new)
    keys = keys[starts]
    data = np.add.reduceat(vals, starts)
    del vals, starts
    # row i's merged entries are the keys in [i * n_free, (i + 1) * n_free)
    indptr = np.searchsorted(keys, np.arange(n_free + 1, dtype=np.int64)
                             * n_free)
    per_row = np.diff(indptr)
    keys -= np.repeat(np.arange(n_free, dtype=np.int64) * n_free, per_row)
    cols = keys.astype(np.int32)
    del keys
    row_owner = np.repeat(owner, per_row)

    # ledger: integrated[e, s] is True when rank s integrated merged entry e
    slot = new.astype(np.int64)
    del new
    np.cumsum(slot, out=slot)
    slot -= 1
    slot *= n_ranks
    slot += src
    del src
    integrated = np.zeros(data.size * n_ranks, dtype=bool)
    integrated[slot] = True
    del slot
    integrated = integrated.reshape(data.size, n_ranks)
    traffic = np.stack([np.bincount(row_owner[integrated[:, s]],
                                    minlength=n_ranks)
                        for s in range(n_ranks)])
    del integrated
    total_entries = [int(t) for t in traffic.sum(axis=1)]
    kept_entries = [int(k) for k in np.diagonal(traffic)]
    sent_entries = [t - k for t, k in zip(total_entries, kept_entries)]
    off = owner[cols] != row_owner
    halo = np.zeros((n_ranks, n_free), dtype=bool)
    halo[row_owner[off], cols[off]] = True
    del row_owner, off

    matrix = scipy.sparse.csr_matrix((data, cols, indptr),
                                     shape=(n_free, n_free))

    rhs_rows = triplets.take("rhs_rows")
    order = np.lexsort((triplets.take("rhs_tags"), rhs_rows))
    rhs_rows = rhs_rows[order]
    starts = np.flatnonzero(_lexsort_run_starts(rhs_rows))
    rhs = np.zeros(n_free)
    rhs[rhs_rows[starts]] = np.add.reduceat(
        triplets.take("rhs_vals")[order], starts)

    return SimpleNamespace(
        n_free=n_free, n_ranks=n_ranks, owner=owner,
        own_rows=[np.flatnonzero(owner == r) for r in range(n_ranks)],
        matrix=matrix, rhs=rhs,
        halo_counts=[int(h) for h in halo.sum(axis=1)],
        sent_entries=sent_entries, kept_entries=kept_entries,
        total_entries=total_entries,
    ), traffic


# ----------------------------------------------------------------------
# the serial reference path
#
# A second assembly, a direct solve and point-by-point field helpers that
# no run calls: the reference the tests hold the distributed pipeline to,
# with the 1d modes one at a time, the dof map's inverse queries, the
# per-leaf Basis and Dirichlet queries and the equal-count dof owner.


def _one_mode(j, xi, table):
    if j < 1:
        raise ValueError(f"mode index must be >= 1, got {j}")
    res = shape_tables(j, xi)[table][j - 1]
    return res if np.ndim(xi) else float(res[0])


def integrated_legendre(j, xi):
    """Value of 1d mode j at xi (scalar or array)."""
    return _one_mode(j, xi, 0)


def integrated_legendre_deriv(j, xi):
    """Derivative of 1d mode j at xi."""
    return _one_mode(j, xi, 1)


def index_of(dofmap, row, mode):
    """Global index of mode `mode` of entity row `row`."""
    k = int(np.searchsorted(dofmap.rows, row))
    if k == dofmap.rows.size or dofmap.rows[k] != row:
        raise KeyError(f"entity row {row} carries no dofs")
    return int(dofmap.offsets[k]) + mode


def dof_entity(dofmap, gid):
    """(entity row, mode) of a global dof."""
    if not 0 <= gid < dofmap.total:
        raise IndexError(f"dof {gid} out of range")
    k = int(np.searchsorted(dofmap.offsets, gid, side="right")) - 1
    return int(dofmap.rows[k]), gid - int(dofmap.offsets[k])


def leaf_mode_count(basis, leaf):
    return int(basis.mode_counts[basis.rows(leaf)])


def leaf_quad_order(basis, leaf):
    """Per-axis Gauss order: highest contributing order plus one."""
    return int(basis.quad_orders[basis.rows(leaf)])


def n_constrained(dirichlet):
    return dirichlet.total - dirichlet.free.size


def interpolate_nodal(basis, func):
    """Coefficients reproducing `func` through the nodal layers.

    Walks the levels from coarse to fine and gives every active node the
    mismatch between `func` and the partial field built so far; edge and
    interior modes stay zero.  Fields that are multilinear on every active
    leaf (constants, global linears) come out exactly.
    """
    mesh, dofmap = basis.mesh, basis.dofmap
    coeffs = np.zeros(dofmap.total)
    t = mesh.table[dofmap.rows]
    nodes = np.flatnonzero(t.kind == NODE)
    nodes = nodes[np.argsort(t.level[nodes], kind="stable")]
    points = mesh.entity_points(dofmap.rows[nodes])
    for pt, gid, leaf in zip(points, dofmap.offsets[nodes],
                             mesh.locate_leaves(points)):
        gids = basis.leaf_dofs(leaf)
        vals, _ = basis.evaluate_leaf(leaf, pt[None, :])
        partial = float(vals[0] @ coeffs[gids])
        target = float(func(pt))
        coeffs[gid] = target - partial
    return coeffs


class FieldApproximation:
    """A coefficient vector over a Basis, evaluated leaf by leaf."""

    def __init__(self, basis, coefficients):
        coefficients = np.asarray(coefficients, dtype=float)
        if coefficients.shape != (basis.dofmap.total,):
            raise ValueError(
                f"expected {basis.dofmap.total} coefficients, "
                f"got shape {coefficients.shape}"
            )
        self.basis = basis
        self.coefficients = coefficients

    def _located(self, points):
        """The points (n, 2) and the ids of the leaves that hold them."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        leaves = self.basis.mesh.locate_leaves(pts)
        if (leaves < 0).any():
            raise ValueError(f"point {pts[leaves < 0][0]} is outside the mesh")
        return pts, leaves

    def value(self, points):
        pts, leaves = self._located(points)
        out = np.empty(pts.shape[0])
        for i, (pt, leaf) in enumerate(zip(pts, leaves)):
            vals, _ = self.basis.evaluate_leaf(leaf, pt[None, :])
            out[i] = vals[0] @ self.coefficients[self.basis.leaf_dofs(leaf)]
        return out

    def gradient(self, points):
        pts, leaves = self._located(points)
        out = np.empty((pts.shape[0], 2))
        for i, (pt, leaf) in enumerate(zip(pts, leaves)):
            _, grads = self.basis.evaluate_leaf(leaf, pt[None, :])
            coef = self.coefficients[self.basis.leaf_dofs(leaf)]
            out[i] = grads[0].T @ coef
        return out


def assemble_serial(basis, domain=None, depth=0, source=None):
    """Global stiffness matrix (CSR) and load vector, one rank: every
    leaf through :func:`integrate_leaves`, scattered in pre-order."""
    total = basis.dofmap.total
    leaves = basis.leaves
    Ks, fs = integrate_leaves(basis, np.arange(len(leaves)), domain, depth,
                              source)
    gids = [basis.leaf_dofs(leaf) for leaf in leaves]
    K = scipy.sparse.coo_matrix(
        (np.concatenate([K.ravel() for K in Ks]),
         (np.concatenate([np.repeat(g, g.size) for g in gids]),
          np.concatenate([np.tile(g, g.size) for g in gids]))),
        shape=(total, total)).tocsr()
    f = np.zeros(total)
    for g, fe in zip(gids, fs):
        if fe is not None:
            np.add.at(f, g, fe)
    return K, f


def neumann_load(basis, flux, part=None):
    """Boundary load vector from a normal-flux density, all ranks' leaves."""
    f = np.zeros(basis.dofmap.total)
    leaves = basis.leaves
    for i, fl in flux_loads_by_leaf(basis, flux, part).items():
        np.add.at(f, basis.leaf_dofs(leaves[i]), fl)
    return f


def dirichlet_reduce(dirichlet, K, f=None):
    """K, and f when given, restricted to the free dofs of a
    :class:`DirichletMap`."""
    Kff = K[dirichlet.free][:, dirichlet.free].tocsr()
    if f is None:
        return Kff
    return Kff, f[dirichlet.free]


def solve_dirichlet(basis, dirichlet, domain=None, depth=0, source=None,
                    flux=None, flux_part=None):
    """Assemble and solve one Poisson problem serially, direct solver:
    the reference the tests hold the distributed pipeline to."""
    import scipy.sparse.linalg

    K, f = assemble_serial(basis, domain, depth, source)
    if flux is not None:
        f = f + neumann_load(basis, flux, flux_part)
    Kff, ff = dirichlet_reduce(dirichlet, K, f)
    u_free = scipy.sparse.linalg.spsolve(Kff.tocsc(), ff)
    return dirichlet.expand(u_free)


def distribute_dofs_contiguous(n_free, n_ranks):
    """Equal-count blocks of free dof indices."""
    idx = np.arange(n_free, dtype=np.int64)
    return (idx * n_ranks // n_free).astype(np.int64)
