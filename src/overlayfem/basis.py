"""Tensor-product integrated-Legendre shape functions over the element forest.

The 1d building blocks on [-1, 1] are the two linear hats plus integrals
of Legendre polynomials:

    mode 1:  (1 - x) / 2
    mode 2:  (1 + x) / 2
    mode j (j >= 3):  sqrt((2k - 1) / 2) * integral of P_{k-1} from -1 to x,
                      with k = j - 1

The integral form evaluates through the closed identity
(P_k - P_{k-2}) / sqrt(2 (2k - 1)), so the internal modes vanish at both
endpoints and their derivative is sqrt((2j - 3) / 2) * P_{j-2}.
``shape_tables`` builds the value and derivative tables from one
Legendre recursion; an evaluation calls it once, on the x and y
reference coordinates of every point in every ancestor frame.

Refinement never replaces an element, so the tables of most leaves repeat:
they depend only on each ancestor's active-entity plan, its scale and the
points' coordinates in its reference frame.  ``Basis.leaf_frames`` yields
exactly those inputs for many leaves of one level at once, which lets the
callers in :mod:`overlayfem.physics` evaluate one leaf per distinct input
and share its tables bit for bit.

Every element carries the tensor products grouped by topological
entity: one bilinear function per node, (p - 1) edge functions blending a
1d internal mode with the linear hat across, and (p - 1)^2 interior
functions.  The functions living on a given leaf are those of every
active entity along the leaf's ancestor chain; evaluation maps the
physical point into each ancestor's own reference frame.  A ``Basis``
builds these chains once per mesh state, with array operations over the
whole forest: an element's plan depends only on its level order and the
active mask of its 9 entities, and each element's dofs, quadrature
order, mode count and domain-boundary sides are rows of flat tables.
"""
from __future__ import annotations

import numpy as np

from .mesh import EDGE, FACE, NODE, _ranges

_XI_TOL = 1e-12


def _legendre_rows(nmax, x):
    """Rows P_0 .. P_nmax evaluated at the flat array x."""
    x = np.asarray(x, dtype=float)
    out = np.empty((nmax + 1, x.size))
    out[0] = 1.0
    if nmax >= 1:
        out[1] = x
    for k in range(2, nmax + 1):
        out[k] = ((2 * k - 1) * x * out[k - 1] - (k - 1) * out[k - 2]) / k
    return out


def _check_domain(xi):
    xi = np.asarray(xi, dtype=float)
    if xi.size and (np.min(xi) < -1.0 - _XI_TOL or np.max(xi) > 1.0 + _XI_TOL):
        raise ValueError("coordinate outside the [-1, 1] reference interval")
    return xi


def shape_tables(jmax, xi):
    """Values and d/dxi of 1d modes 1..jmax at xi, two (jmax, len(xi)) arrays.

    One Legendre recursion feeds both tables: the value of mode j needs
    P_{j-1} and P_{j-3}, its derivative P_{j-2}.
    """
    if jmax < 1:
        raise ValueError("at least one mode is required")
    xi = np.atleast_1d(_check_domain(xi))
    vals = np.empty((jmax, xi.size))
    ders = np.empty((jmax, xi.size))
    vals[0] = 0.5 * (1.0 - xi)
    ders[0] = -0.5
    if jmax >= 2:
        vals[1] = 0.5 * (1.0 + xi)
        ders[1] = 0.5
    if jmax >= 3:
        leg = _legendre_rows(jmax - 1, xi)
        for j in range(3, jmax + 1):
            k = j - 1
            vals[j - 1] = (leg[k] - leg[k - 2]) / np.sqrt(2.0 * (2 * k - 1))
            ders[j - 1] = np.sqrt((2 * j - 3) / 2.0) * leg[j - 2]
    return vals, ders


def entity_mode_count(kind, p):
    """Shape functions carried by entities of the given kind codes at
    polynomial orders p, elementwise over broadcast arrays."""
    kind, p = np.asarray(kind), np.asarray(p)
    if (p < 1).any():
        raise ValueError(f"polynomial order must be >= 1, got {p.min()}")
    if not np.isin(kind, (NODE, EDGE, FACE)).all():
        raise ValueError(f"unknown entity kind in {kind!r}")
    inner = p - 1
    return np.where(kind == NODE, 1, np.where(kind == EDGE, inner, inner * inner))


class PolynomialOrderField:
    """A level -> order map for graded refinement; a uniform order is
    the map {0: p}.

    Levels deeper than the largest mapped level reuse the deepest entry.
    """

    def __init__(self, uniform=None, by_level=None):
        if (uniform is None) == (by_level is None):
            raise ValueError("give either a uniform order or a level map")
        if uniform is not None:
            if int(uniform) != uniform or uniform < 1:
                raise ValueError(f"order must be a positive int, got {uniform}")
            by_level = {0: uniform}
        if not by_level:
            raise ValueError("empty level map")
        cleaned = {}
        for lvl, p in by_level.items():
            if int(lvl) != lvl or lvl < 0:
                raise ValueError(f"bad level {lvl} in order map")
            if int(p) != p or p < 1:
                raise ValueError(f"bad order {p} for level {lvl}")
            cleaned[int(lvl)] = int(p)
        if 0 not in cleaned:
            raise ValueError("order map must define level 0")
        self._map = cleaned

    def level_order(self, level):
        p = self._map.get(level)
        if p is None:
            # undeclared levels reuse the nearest shallower entry
            p = self._map[max(l for l in self._map if l <= level)]
        return p

    def level_orders(self, levels):
        """``level_order`` of every entry of an int array of levels.

        Every element incident to an entity sits on the entity's own
        level, so this is also the order of entities of those levels.
        """
        levels = np.asarray(levels)
        return np.array([self.level_order(lvl)
                         for lvl in range(int(levels.max()) + 1)])[levels]

    @property
    def base_order(self):
        return self.level_order(0)


class DofMap:
    """Bijection between global indices and (entity row, mode) pairs.

    ``rows`` are the mesh table rows that carry dofs, ascending, and row
    ``rows[k]`` numbers its modes from ``offsets[k]`` on.
    """

    def __init__(self, rows, offsets, total):
        self.rows = rows
        self.offsets = offsets
        self.total = total


def enumerate_dofs(mesh, orders):
    """Number the modes of every active entity, in entity table order."""
    t = mesh.table
    counts = entity_mode_count(t.kind, orders.level_orders(t.level)) * t.active
    rows = np.flatnonzero(counts)
    offsets = np.cumsum(counts[rows]) - counts[rows]
    return DofMap(rows, offsets, int(counts.sum()))


def _slot_rows(slot, p):
    """1d mode rows (jx, jy) of the functions on topology slot `slot`:
    nodes SW, SE, NW, NE, edges bottom, top, left, right, the face."""
    inner = list(range(2, p + 1))
    if slot < 4:
        return [slot & 1], [slot >> 1]
    if slot < 6:
        return inner, [slot - 4] * (p - 1)
    if slot < 8:
        return [slot - 6] * (p - 1), inner
    return [j for j in inner for _ in inner], inner * (p - 1)


class Basis:
    """Active shape functions of a mesh snapshot at fixed orders.

    Built for the mesh state at construction time; refine the mesh and
    this object is stale, build a new one.  Construction lays out every
    element of the forest as a table row, with array operations: the
    active leaves, the read-only ids ``leaves``, take rows 0 .. L-1 in
    pre-order, the refined elements follow, and ``row_of``, a permutation
    of the element ids, maps an id to its row.  Row r holds
    ``dofs[dof_offsets[r]:dof_offsets[r + 1]]``, its chain's dofs base
    first, their number ``mode_counts``, its ``quad_orders``, ``levels``,
    ``lo_f`` and ``hi_f``, and ``boundary``, which of its sides (bottom,
    top, left, right) lie on the domain boundary.  An element's functions
    depend only on its level order and on which of its 9 entities are
    active: each distinct (order, mask) gets one ``plans`` entry of 1d
    mode rows.  The Basis also keeps the leaves' rule tables
    (``quadrature.leaf_rule_table``), which go stale with it.
    """

    def __init__(self, mesh, orders):
        self.mesh = mesh
        self.orders = orders
        self.leaves = mesh.active_leaf_elements()
        self.dofmap = enumerate_dofs(mesh, orders)
        self._build_tables()
        # one rule table per (depth, domain), see quadrature.leaf_rule_table
        self.leaf_rules = {}

    def _build_tables(self):
        e = self.mesh.elements
        ids = np.concatenate((self.leaves, np.flatnonzero(e.child >= 0)))
        n = ids.size
        # row r is element ids[r]; its 9 entity rows come from the topology
        table = self.mesh.table
        topo = self.mesh.topology[ids]
        self.row_of = np.empty(n, dtype=np.int64)
        self.row_of[ids] = np.arange(n)
        parent = e.parent[ids]
        parent = np.where(parent >= 0, self.row_of[parent], -1)
        self.levels = e.level[ids]
        lattice = np.hstack((e.lo[ids], e.hi[ids]))
        self.lo_f, self.hi_f = e.lo_f[ids], e.hi_f[ids]
        depth = int(self.levels.max())

        # chain[r, l]: row of r's ancestor on level l, -1 below r's level
        self._chain = np.full((n, depth + 1), -1, dtype=np.int64)
        up = np.arange(n)
        for k in range(depth + 1):
            at = self.levels - k
            live = at >= 0
            self._chain[live, at[live]] = up[live]
            up = np.where(live, parent[up], up)
        on_chain = self._chain >= 0
        chain = np.where(on_chain, self._chain, 0)

        # element dofs, slot by slot, from the dof offsets of the entities
        p = self.orders.level_orders(self.levels)
        self._jmax = max(2, int(p.max()) + 1)   # no plan reads mode p + 2
        active = table.active[topo]
        modes = entity_mode_count(table.kind[topo], p[:, None]) * active
        offset = np.zeros(len(table), dtype=np.int64)
        offset[self.dofmap.rows] = self.dofmap.offsets
        elem_dofs = _ranges(offset[topo].ravel(), modes.ravel())
        self._elem_modes = modes.sum(axis=1)
        elem_start = np.cumsum(self._elem_modes) - self._elem_modes

        # element plans, one per distinct content: the slots that carry
        # dofs and, when an edge or the face carries some, the level order
        carry = (modes > 0) @ (1 << np.arange(9))
        keys, inverse = np.unique(np.where(carry >= 16, p, 0) * 512 + carry,
                                  return_inverse=True)
        self.plans = []
        for key in keys.tolist():
            rows = [_slot_rows(slot, key >> 9) for slot in range(9)
                    if key >> slot & 1]
            self.plans.append(tuple(np.array([j for r in rows for j in r[a]],
                                             dtype=np.intp) for a in (0, 1)))
        self._plan_id = inverse.ravel()

        # leaf dofs: the element segments along each chain, base first
        segs = chain[on_chain]
        self.dofs = elem_dofs[_ranges(elem_start[segs], self._elem_modes[segs])]
        self.dofs.flags.writeable = False
        self.mode_counts = np.where(on_chain, self._elem_modes[chain],
                                    0).sum(axis=1)
        self.dof_offsets = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(self.mode_counts, out=self.dof_offsets[1:])
        elem_order = np.where(active.any(axis=1), p, 1)
        self.quad_orders = np.where(on_chain, elem_order[chain], 1).max(axis=1) + 1

        # a side is on the domain boundary when it lies on a side of its
        # base element that no other base element shares
        base = self._chain[:, 0]
        sides = []
        for axis, upper, slot in ((1, 0, 4), (1, 1, 5), (0, 0, 6), (0, 1, 7)):
            col = 2 * upper + axis
            sides.append((lattice[:, col] == lattice[base, col] << self.levels)
                         & (table.incidence[topo[base, slot]] == 1))
        self.boundary = np.stack(sides, axis=1)

    # -- public queries: leaves are element ids ----------------------------

    def rows(self, ids):
        """Table rows of element ids, one int or an array; KeyError for an
        id that is not an element of this Basis's mesh state."""
        if isinstance(ids, (int, np.integer)) and not isinstance(ids, bool):
            # the per-leaf queries' case, without array overhead
            if 0 <= ids < self.row_of.size:
                return self.row_of[ids]
            bad = ids
        else:
            ids = np.asarray(ids)
            rows = np.full(ids.shape, -1, dtype=np.int64)
            if ids.dtype.kind in "iu":
                known = (ids >= 0) & (ids < self.row_of.size)
                rows[known] = self.row_of[ids[known]]
            if (rows >= 0).all():
                return rows
            bad = ids[rows < 0][0]
        raise KeyError(f"element {bad} is not in this Basis's forest")

    def leaf_dofs(self, leaf):
        """Global dofs with support on the leaf, chain order, base first."""
        row = self.rows(leaf)
        return self.dofs[self.dof_offsets[row]:self.dof_offsets[row + 1]]

    def evaluate_leaf(self, leaf, points):
        """Values and physical gradients of the leaf's active functions.

        points: (n, 2) physical coordinates inside the leaf's closed box.
        Returns (values (n, N), gradients (n, N, 2)) with columns in
        leaf_dofs order.
        """
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        return self.evaluate_leaves([self.rows(leaf)], pts, [0, len(pts)])[0]

    def evaluate_leaves(self, rows, points, offsets):
        """``evaluate_leaf`` of leaves of one level, leaf i on the points
        ``offsets[i]:offsets[i + 1]``: one ``shape_tables`` call for every
        chain position and point, then per leaf its own mode-major buffers
        (a row block per chain element) and their transposed views, as
        from ``evaluate_leaf``: an einsum's bits follow the strides."""
        offsets = np.asarray(offsets, dtype=np.int64)
        n, spans = int(offsets[-1]), list(zip(offsets[:-1].tolist(),
                                              offsets[1:].tolist()))
        values = [np.empty((m, b - a)) for m, (a, b) in
                  zip(self.mode_counts[rows].tolist(), spans)]
        grads = [np.empty((*v.shape, 2)) for v in values]
        start = [0] * len(values)
        frames = self.leaf_frames(rows, points, np.diff(offsets))
        # position k's x coordinates are columns 2nk .. 2nk + n, its y
        # coordinates the next n
        vals_1d, ders_1d = shape_tables(self._jmax, np.concatenate(
            [ref.T for _, _, ref in frames]).ravel())
        for k, (plans, scale, _) in enumerate(frames):
            for i in np.flatnonzero(plans >= 0).tolist():
                jx, jy = self.plans[plans[i]]
                x = slice(2 * n * k + spans[i][0], 2 * n * k + spans[i][1])
                y = slice(x.start + n, x.stop + n)
                vx, vy = vals_1d[jx, x], vals_1d[jy, y]
                block = slice(start[i], start[i] + jx.size)
                start[i] = block.stop
                np.multiply(vx, vy, out=values[i][block])
                np.multiply(ders_1d[jx, x] * vy, scale[i, 0],
                            out=grads[i][block, :, 0])
                np.multiply(vx * ders_1d[jy, y], scale[i, 1],
                            out=grads[i][block, :, 1])
        return [(v.T, g.transpose(1, 0, 2)) for v, g in zip(values, grads)]

    def leaf_frames(self, rows, points, counts):
        """The points of leaves of one level in their chain elements'
        reference frames, the inputs of ``evaluate_leaf``'s tables.

        rows: the leaves' table rows; points: (n, 2), counts[i] of them
        in turn inside leaf i's closed box, else ValueError.  Returns one
        (plans, scale (m, 2), clipped coordinates (n, 2)) per chain
        position, base first; plans[i] is leaf i's element plan, -1 where
        that element carries no dofs, and a position without dofs on any
        leaf is left out.
        """
        rows = np.asarray(rows, dtype=np.int64)
        pts = np.asarray(points, dtype=float)
        lo, hi = self.lo_f[rows], self.hi_f[rows]
        tol = 1e-12 * np.maximum(1.0, np.abs(np.hstack((lo, hi))).max(axis=1))
        at = np.cumsum(counts) - counts
        if (np.any(np.minimum.reduceat(pts, at) < lo - tol[:, None])
                or np.any(np.maximum.reduceat(pts, at) > hi + tol[:, None])):
            raise ValueError("point outside the leaf element")
        frames = []
        for elems in self._chain[rows, :self.levels[rows[0]] + 1].T:
            plans = np.where(self._elem_modes[elems] > 0,
                             self._plan_id[elems], -1)
            if (plans < 0).all():
                continue
            lo = self.lo_f[elems]
            scale = 2.0 / (self.hi_f[elems] - lo)
            frames.append((plans, scale, np.clip(
                (pts - np.repeat(lo, counts, axis=0))
                * np.repeat(scale, counts, axis=0) - 1.0, -1.0, 1.0)))
        return frames
