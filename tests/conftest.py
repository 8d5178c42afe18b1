"""Shared helpers for the test suite.

Random meshes are built by seeded marking rounds so every test run sees
the same sequence.  Helpers here are deliberately small; an oracle is
reimplemented inside the test module that needs it, unless several
modules need it: the cell-by-cell quadrature oracles and the per-element
Basis oracles live here.
"""

from dataclasses import dataclass

import numpy as np

from overlayfem.mesh import Mesh, BaseMeshSpec, PatchSpec
from overlayfem.basis import Basis, PolynomialOrderField, entity_mode_count
from overlayfem.benchmarks import lshape_mesh_spec, mark_corner_leaves
from overlayfem.quadrature import LeafRule, gauss_rule_1d

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
# reads the element's topology and its ancestor chain directly.


def plan_oracle(basis, elem):
    """(jx, jy, gids) of one element, slot by slot over its topology."""
    jx, jy, gids = [], [], []
    for slot, ent in enumerate(elem.topology):
        if not ent.active:
            continue
        p = basis.orders.entity_order(ent)
        n = entity_mode_count(ent.kind, p)
        if n == 0:
            continue
        off = basis.dofmap.entity_offset(ent)
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
    parts = [plan_oracle(basis, e)[2] for e in basis.mesh.chain(leaf)]
    return np.concatenate(parts) if parts else np.empty(0, np.int64)


def leaf_quad_order_oracle(basis, leaf):
    pmax = 1
    for elem in basis.mesh.chain(leaf):
        for ent in elem.topology:
            if ent.active:
                pmax = max(pmax, basis.orders.entity_order(ent))
    return pmax + 1


def constrained_dof_mask_oracle(basis, on_part):
    mesh = basis.mesh
    mask = np.zeros(basis.dofmap.total, dtype=bool)
    for ent in basis.dofmap.active_entities:
        if ent.kind == "node":
            hit = bool(on_part(mesh.node_point(ent)))
        elif ent.kind == "edge":
            a, b = mesh.edge_endpoints(ent)
            hit = bool(on_part(a)) and bool(on_part(b))
        else:
            hit = False
        if hit:
            off = basis.dofmap.entity_offset(ent)
            n = entity_mode_count(ent.kind, basis.orders.entity_order(ent))
            mask[off:off + n] = True
    return mask


SIDES_2D = ((1, False), (1, True), (0, False), (0, True))


def side_on_domain_boundary(mesh, elem, axis, upper):
    """True when the element's face at lo/hi of `axis` lies on the
    boundary of the meshed domain: on a side of its base element that no
    other base element shares."""
    base = mesh.chain(elem)[0]
    c = elem.hi[axis] if upper else elem.lo[axis]
    cb = base.hi[axis] if upper else base.lo[axis]
    if c != cb << elem.level:
        return False
    slot = (7 if upper else 6) if axis == 0 else (5 if upper else 4)
    return base.topology[slot].incidence == 1


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
        a = np.asarray(leaf.lo_f, dtype=float).copy()
        b = np.asarray(leaf.hi_f, dtype=float).copy()
        if upper:
            a[axis] = leaf.hi_f[axis]
        else:
            b[axis] = leaf.lo_f[axis]
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
