"""Poisson operators on the overlay basis: element systems, boundary data
and energy-norm error measurement.

Element systems are integrated with the composed Gauss rules from
:mod:`overlayfem.quadrature`: a leaf's rule is the reference rule of its
order, or under an embedded domain its cells in the step's rule table.
One kernel, :func:`integrate_leaves`, integrates leaves of every kind:
the leaves of one (order, level) are mapped together, ``source`` is
called once on all their points, the basis is evaluated a bounded batch
of leaves at a time, and each leaf's cells are contracted at once and
added cell after cell, the bits of a cell-by-cell loop.  The distributed
pipeline runs it on cut leaves.

Refinement never replaces an element, so most leaves of a step repeat
one another bit for bit.  :func:`leaf_systems` integrates the leaves with
one cell (every uncut leaf) once per step: it computes every such leaf's
signature with array operations, contracts one representative per
distinct signature, and returns K per signature and f per signature and
source values, with the boundary-flux loads (1d edge rules, one flux
call per group of like sides), as one value that the step hands to every
rank.  Homogeneous Dirichlet conditions are imposed by elimination:
:class:`DirichletMap` numbers the free dofs, and only those are
assembled.

The energy error re-integrates every leaf at a raised order and peels
dyadic shells toward a declared singular point, so the non-smooth
remainder does not pollute the measurement.  It needs an exact field,
which no embedded-domain problem has, so it takes no domain.  A leaf at
the singular point is evaluated a bounded block of its cells at a time,
so a corner leaf's tables never exist on all its points at once.  The
other leaves are grouped by (order, level) and the basis evaluated once
per distinct table signature (:func:`table_signatures`, which also
serves the leaf systems, the flux loads and the ``solution.csv``
probes).
"""
from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .mesh import EDGE, NODE, _ranges
from .quadrature import (box_rule, gauss_rule_1d, leaf_frame,
                         leaf_rule_table, reference_rule)


_BATCH = 1 << 14   # (point, function) table entries evaluated at once
# (point, function) entries of one block of a leaf's energy-error tables.
# Blocks of 1 << 15 to 1 << 16 entries were fastest and _BATCH's slower;
# _BATCH stays as it is, since at 1 << 16 fcm_disk's integrate peak rose
# by 2 MB.
_ERROR_BLOCK = 1 << 16
_EXTRA_ORDER = 2       # the energy error's rule order above a leaf's own
_CORNER_LEVELS = 40    # dyadic shells of a singular leaf's rule


def _order_level_groups(basis, rows):
    """(order, positions into `rows`) per (quadrature order, level)."""
    groups = {}
    for j, key in enumerate(zip(basis.quad_orders[rows].tolist(),
                                basis.levels[rows].tolist())):
        groups.setdefault(key, []).append(j)
    return [(q, np.array(idx)) for (q, _), idx in groups.items()]


def _leaf_points(basis, rows, q, domain, depth):
    """Physical points (n, 2) and weights (n,), the rule's weight x alpha
    x Jacobian, of the rules of active leaves of quadrature order q, leaf
    after leaf, and each leaf's point count.  Without a domain every leaf
    has the reference rule; with one, its cells in the step's table."""
    if domain is None:
        rule, cells, at = reference_rule(q), np.ones_like(rows), slice(None)
    else:
        rule, leaf_cells = leaf_rule_table(basis, domain, depth)
        cells = leaf_cells[rows + 1] - leaf_cells[rows]
        at = _ranges(np.asarray(rule.offsets)[leaf_cells[rows]],
                     cells * q * q).reshape(-1, q * q)
    # one frame per cell, on the cell's q x q points
    leaves = basis.leaves[rows]
    pts, jac = leaf_frame(basis, np.repeat(leaves, cells), rule.points[at])
    w = rule.weights[at] * rule.alpha[at] * jac[:, None]
    return pts.reshape(-1, 2), w.ravel(), cells * q * q


def _stiffness(q, w, G):
    """K of one leaf: its q x q cells contracted at once, then added cell
    after cell to zeros, as ``np.add.reduce`` would not."""
    G = G.reshape(-1, q * q, *G.shape[1:])
    Kc = np.einsum("cq,cqid,cqjd->cij", w.reshape(len(G), -1), G, G)
    return 0.0 + np.cumsum(Kc, axis=0, out=Kc)[-1]


def _load(q, V, wsrc):
    """f of one leaf from its values and weights x source, as K is."""
    V = V.reshape(-1, q * q, V.shape[1]).transpose(0, 2, 1)
    fc = V @ wsrc.reshape(len(V), -1, 1)
    return 0.0 + np.cumsum(fc, axis=0, out=fc)[-1, :, 0]


def integrate_leaves(basis, rows, domain=None, depth=0, source=None):
    """Stiffness matrices and source loads of the active leaves at Basis
    rows `rows`: lists of K (n, n) and of f (n,), None without a source,
    in `rows` order.  ``source`` must act point by point: it is called
    once per (order, level) on the points of all its leaves."""
    rows = np.asarray(rows, dtype=np.int64)
    K, f = [None] * rows.size, [None] * rows.size
    for q, idx in _order_level_groups(basis, rows):
        pts, w, counts = _leaf_points(basis, rows[idx], q, domain, depth)
        if source is not None:
            wsrc = w * np.asarray(source(pts), dtype=float)
        off = np.append(0, np.cumsum(counts))
        size = np.cumsum(counts * basis.mode_counts[rows[idx]]) // _BATCH
        cuts = [0, *(np.flatnonzero(np.diff(size)) + 1).tolist(), idx.size]
        for a, b in zip(cuts, cuts[1:]):
            # one batch's tables alive at a time
            for k, (V, G) in zip(range(a, b), basis.evaluate_leaves(
                    rows[idx[a:b]], pts[off[a]:off[b]],
                    off[a:b + 1] - off[a])):
                span = slice(off[k], off[k + 1])   # leaf k's points
                K[idx[k]] = _stiffness(q, w[span], G)
                if source is not None:
                    f[idx[k]] = _load(q, V, wsrc[span])
    return K, f


@dataclass
class LeafSystems:
    """One step's leaf systems, built once by :func:`leaf_systems` and
    handed to every rank.

    Arrays run over the active leaves in pre-order, the Basis's first
    table rows.  ``signature`` indexes ``stiffness`` and is -1 for a leaf
    whose rule has several cells; ``load`` indexes ``loads``, the source
    loads, and is -1 for those and without a source.  ``flux_loads`` maps
    the position of every leaf a flux reaches to its boundary-flux load.
    ``own_load`` marks the leaves whose f is their own, not one of
    ``loads``: the multi-cell leaves under a source and every leaf a flux
    reaches.  The kernel integrates the multi-cell leaves under
    ``domain``, ``depth`` and ``source``.  Every array is read-only.
    """

    domain: object
    depth: int
    source: object
    signature: np.ndarray
    load: np.ndarray
    stiffness: list
    loads: list
    flux_loads: dict
    own_load: np.ndarray


def leaf_systems(basis, domain=None, depth=0, source=None, flux=None,
                 flux_part=None):
    """The step's :class:`LeafSystems`: one representative integrated
    per distinct single-cell signature, and the flux loads.

    Leaves with one cell (every leaf without a domain) are grouped by
    (quadrature order, level), ``source`` called once per group.  A leaf's
    signature is every input of its K, computed with the kernel's
    operations: the bits of its weights and of its table inputs
    (:func:`table_signatures`).  f is shared among leaves of one
    signature and equal source values.
    """
    n = len(basis.leaves)
    signature = np.full(n, -1, dtype=np.int64)
    load = np.full(n, -1, dtype=np.int64)
    stiffness, loads = [], []
    single = (np.arange(n) if domain is None else np.flatnonzero(
        np.diff(leaf_rule_table(basis, domain, depth)[1]) == 1))
    for q, idx in _order_level_groups(basis, single):
        idx = single[idx]
        pts, w, _ = _leaf_points(basis, idx, q, domain, depth)
        pts, w = pts.reshape(idx.size, -1, 2), w.reshape(idx.size, -1)
        first, inverse, tables = table_signatures(basis, idx, pts,
                                                   w.view(np.uint64))
        signature[idx] = len(stiffness) + inverse
        stiffness += [_stiffness(q, w[r], G)
                      for r, (_, G) in zip(first, tables)]
        if source is None:
            continue
        src = np.asarray(source(pts.reshape(-1, 2)), float).reshape(w.shape)
        by_value = {}
        for j, i in enumerate(idx.tolist()):
            key = (inverse[j], src[j].tobytes())
            if key not in by_value:
                by_value[key] = len(loads)
                loads.append(_load(q, tables[inverse[j]][0], w[j] * src[j]))
            load[i] = by_value[key]
    flux_loads = {} if flux is None else flux_loads_by_leaf(basis, flux,
                                                            flux_part)
    own_load = (signature < 0) & (source is not None)
    own_load[list(flux_loads)] = True
    for arr in stiffness + loads + list(flux_loads.values()):
        arr.flags.writeable = False
    return LeafSystems(domain, depth, source, signature, load, stiffness,
                       loads, flux_loads, own_load)


def table_signatures(basis, rows, pts, *extra):
    """Group leaves of one level by the exact inputs of their basis tables.

    rows: active leaves' Basis table rows; pts: (m, n, 2), row i on leaf i.
    A leaf's key is, per dof-carrying chain element
    (``Basis.leaf_frames``), the element's plan, its scale and the points'
    clipped reference coordinates, as raw bits, followed by the (m, k)
    uint64 columns of `extra`: equal keys give equal ``evaluate_leaf``
    tables bit for bit.  Returns the index of the first leaf of every
    distinct key, each leaf's key number, and per key the tables of its
    first leaf, from one ``Basis.evaluate_leaves`` call.
    """
    m, n = pts.shape[:2]
    keys = list(extra)
    for plans, scale, ref in basis.leaf_frames(rows, pts.reshape(-1, 2),
                                               np.full(m, n)):
        live = (plans >= 0)[:, None]
        keys += [plans.view(np.uint64)[:, None],
                 np.where(live, scale.view(np.uint64), 0),
                 np.where(live, ref.reshape(m, -1).view(np.uint64), 0)]
    table = np.hstack(keys)
    raw, width = table.tobytes(), table.shape[1] * table.itemsize
    number = {}
    inverse = np.array([number.setdefault(raw[j * width:(j + 1) * width],
                                          len(number))
                        for j in range(len(rows))], dtype=np.int64)
    # keys are numbered in order of appearance
    first = np.unique(inverse, return_index=True)[1]
    return first, inverse, basis.evaluate_leaves(
        rows[first], pts[first].reshape(-1, 2), np.arange(first.size + 1) * n)


# ----------------------------------------------------------------------
# boundary conditions

_SIDES_2D = ((1, False), (1, True), (0, False), (0, True))  # bottom, top, left, right


def flux_loads_by_leaf(basis, flux, part=None):
    """Boundary-flux loads of the active leaves, by pre-order position.

    Only sides on the domain boundary contribute; `part(midpoint)` keeps a
    side when true (default keeps every boundary side), so loads can never
    be smeared onto interface edges.  Sides get the 1d Gauss rule of their
    leaf's order plus one.  ``flux`` is called once per (order, level,
    side) group and the basis evaluated once per table signature; each
    side's V.T @ (w g) is added to its leaf's load in side order.
    """
    n = len(basis.leaves)
    leaf, side = np.nonzero(basis.boundary[:n])
    axis, upper = np.array(_SIDES_2D, dtype=np.int64)[side].T
    # each side runs from a to b: its leaf's box with one axis collapsed
    at = np.arange(leaf.size)
    a, b = basis.lo_f[leaf], basis.hi_f[leaf]
    a[at, axis] = np.where(upper, b[at, axis], a[at, axis])
    b[at, axis] = a[at, axis]
    mid, half = (a + b) / 2, (b - a) / 2
    scale = np.linalg.norm(half, axis=1)
    groups = {}
    for k, key in enumerate(zip(basis.quad_orders[leaf].tolist(),
                                basis.levels[leaf].tolist(), side.tolist())):
        if part is None or part(mid[k]):
            groups.setdefault(key, []).append(k)
    contrib = {}
    for (q, _, _), ks in groups.items():
        ks = np.array(ks)
        x1, w1 = gauss_rule_1d(q + 1)
        pts = mid[ks, None] + x1[:, None] * half[ks, None]
        normal = np.zeros(2)
        normal[axis[ks[0]]] = 1.0 if upper[ks[0]] else -1.0
        g = np.asarray(flux(pts.reshape(-1, 2), normal),
                       dtype=float).reshape(ks.size, -1)
        _, inverse, tables = table_signatures(basis, leaf[ks], pts)
        for j, k in enumerate(ks.tolist()):
            V = tables[inverse[j]][0]
            contrib[k] = V.T @ (w1 * float(scale[k]) * g[j])
    loads = {}
    for k in sorted(contrib):
        f = loads.setdefault(int(leaf[k]),
                             np.zeros(int(basis.mode_counts[leaf[k]])))
        f += contrib[k]
    return loads


def constrained_dof_mask(basis, on_part):
    """Mask of dofs whose entity lies inside a boundary part.

    Nodes are tested at their point, edges at both endpoints; `on_part`
    is called once per distinct node.  Faces and element-interior modes
    vanish on the boundary and are never constrained.
    """
    dofmap, mesh = basis.dofmap, basis.mesh
    t = mesh.table[dofmap.rows]
    kind = t.kind[:, None]
    ends = np.where(kind == EDGE, t.ends,
                    np.where(kind == NODE, dofmap.rows[:, None], -1))
    nodes, slot = np.unique(ends, return_inverse=True)
    face = int(nodes[0] < 0)  # the -1 of faces sorts first and hits nothing
    hit = np.array([False] * face + [bool(on_part(pt)) for pt in
                                     mesh.entity_points(nodes[face:])])
    hit = hit[slot.reshape(ends.shape)].all(axis=1)
    counts = np.diff(np.append(dofmap.offsets, dofmap.total))
    return np.repeat(hit, counts)


class DirichletMap:
    """Homogeneous Dirichlet constraints as an index reduction."""

    def __init__(self, basis, on_part):
        self.mask = constrained_dof_mask(basis, on_part)
        self.free = np.flatnonzero(~self.mask)
        self.total = basis.dofmap.total

    @property
    def n_free(self):
        return self.free.size

    def expand(self, u_free):
        u = np.zeros(self.total)
        u[self.free] = u_free
        return u


# ----------------------------------------------------------------------
# the singular corner benchmark

class LShapeSolution:
    """Harmonic r^(2/3) corner field on the three-quadrant domain.

    The angle is measured from the positive x axis and runs through the
    upper half plane into the lower-left quadrant, so it covers
    [0, 3*pi/2] with the field vanishing on both legs of the re-entrant
    corner (positive x axis and negative y axis).
    """

    singular_point = (0.0, 0.0)

    @staticmethod
    def _polar(points):
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        x, y = pts[:, 0], pts[:, 1]
        r = np.hypot(x, y)
        th = np.arctan2(y, x)
        th = np.where(th < 0, th + 2 * np.pi, th)
        return x, y, r, th

    def value(self, points):
        _, _, r, th = self._polar(points)
        return r ** (2.0 / 3.0) * np.sin(2.0 * th / 3.0)

    def gradient(self, points):
        x, y, r, th = self._polar(points)
        s = np.sin(2.0 * th / 3.0)
        c = np.cos(2.0 * th / 3.0)
        with np.errstate(divide="ignore", invalid="ignore"):
            scale = (2.0 / 3.0) * r ** (-4.0 / 3.0)
            gx = scale * (x * s - y * c)
            gy = scale * (y * s + x * c)
        out = np.column_stack((gx, gy))
        return np.where(np.isfinite(out), out, 0.0)

    def flux(self, points, normal):
        return self.gradient(points) @ np.asarray(normal, dtype=float)

    @staticmethod
    def on_dirichlet_legs(point, tol=1e-12):
        x, y = float(point[0]), float(point[1])
        return (abs(y) <= tol and x >= -tol) or (abs(x) <= tol and y <= tol)

    def energy_squared(self):
        """Exact squared energy norm over the L-shaped domain.

        The squared gradient is (4/9) r^(-2/3); integrating in polar
        coordinates collapses the domain into six identical wedges of a
        sec(theta) boundary, leaving a smooth 1d integral, which a
        32-point Gauss rule takes to round-off.
        """
        x, w = gauss_rule_1d(32)
        half = np.pi / 8.0
        val = half * float(w @ np.cos(half * (x + 1.0)) ** (-4.0 / 3.0))
        return 2.0 * val


def _corner_shells(corner, levels):
    """Dyadic boxes of [-1,1]^2 graded toward one of its vertices.

    Peels the three co-corner quadrants at every scale and finishes with
    the innermost corner box, whose leftover is far below solver noise.
    """
    cx, cy = corner
    boxes = []
    lo = np.array([-1.0, -1.0])
    hi = np.array([1.0, 1.0])
    for _ in range(levels):
        mid = (lo + hi) / 2
        qlo = np.array([lo[0] if cx < 0 else mid[0], lo[1] if cy < 0 else mid[1]])
        qhi = np.array([mid[0] if cx < 0 else hi[0], mid[1] if cy < 0 else hi[1]])
        for ix in range(2):
            for iy in range(2):
                blo = np.array([lo[0] if ix == 0 else mid[0],
                                lo[1] if iy == 0 else mid[1]])
                bhi = np.array([mid[0] if ix == 0 else hi[0],
                                mid[1] if iy == 0 else hi[1]])
                if np.allclose(blo, qlo) and np.allclose(bhi, qhi):
                    continue
                boxes.append((blo, bhi))
        lo, hi = qlo, qhi
    boxes.append((lo, hi))
    return boxes


@lru_cache(maxsize=None)
def corner_rule(corner, levels, order):
    """Gauss rules of the corner shells toward `corner` (a pair of +-1),
    in the reference square, built once per key and shared."""
    lo, hi = zip(*_corner_shells(corner, levels))
    return box_rule(np.array(lo), np.array(hi), order)


def energy_error(basis, coefficients, exact_gradient, singular_point=None):
    """Energy-norm distance between a coefficient vector and a reference.

    Every leaf is re-integrated at its rule order plus ``_EXTRA_ORDER``.
    Leaves whose closure contains `singular_point` swap the single rule
    for ``_CORNER_LEVELS`` dyadic corner shells, which keeps the
    r^(2/3)-type remainder from dominating the quadrature error.
    `exact_gradient` must act point by point: it is called on the points
    of many leaves at once.

    The other leaves are grouped by (order, level): one
    ``exact_gradient`` call per group and one basis evaluation per
    distinct table signature.  A singular leaf is evaluated in blocks of
    whole cells, at most ``_ERROR_BLOCK`` (point, function) entries each
    (:func:`_leaf_error_terms`).  The terms are added to one running sum
    in leaf pre-order, cell by cell, so the result does not depend on the
    grouping or the blocks.
    """
    coefficients = np.asarray(coefficients, dtype=float)
    leaves = basis.leaves
    lo, hi = basis.lo_f[:len(leaves)], basis.hi_f[:len(leaves)]
    singular = np.zeros(len(leaves), dtype=bool)
    if singular_point is not None:
        sp = np.asarray(singular_point, dtype=float)
        singular = np.all((lo <= sp) & (sp <= hi), axis=1)
    terms = [None] * len(leaves)
    for i in np.flatnonzero(singular).tolist():
        # reference coordinates of the singular corner: one of the vertices
        ref = 2 * (sp - lo[i]) / (hi[i] - lo[i]) - 1
        corner = tuple(np.where(ref >= 0, 1.0, -1.0).tolist())
        rule = corner_rule(corner, _CORNER_LEVELS,
                           int(basis.quad_orders[i]) + _EXTRA_ORDER)
        terms[i] = _leaf_error_terms(basis, leaves[i], rule, coefficients,
                                     exact_gradient)
    rest = np.flatnonzero(~singular)
    for q, idx in _order_level_groups(basis, rest):
        idx = rest[idx]
        pts, w, _ = _leaf_points(basis, idx, q + _EXTRA_ORDER, None, 0)
        pts, w = pts.reshape(idx.size, -1, 2), w.reshape(idx.size, -1)
        exact = np.asarray(exact_gradient(pts.reshape(-1, 2)),
                           dtype=float).reshape(pts.shape)
        _, inverse, tables = table_signatures(basis, idx, pts)
        for k, (_, G) in enumerate(tables):
            rows = np.flatnonzero(inverse == k)
            dofs = basis.dofs[_ranges(basis.dof_offsets[idx[rows]],
                                      basis.mode_counts[idx[rows]])]
            # the per-leaf contractions, batched over the leaves that
            # share G: the same sums in the same order
            diff = (np.einsum("qid,mi->mqd", G,
                              coefficients[dofs].reshape(rows.size, -1))
                    - exact[rows])
            sq = np.einsum("mq,mqd,mqd->m", w[rows], diff, diff)
            for j, term in zip(rows.tolist(), sq.tolist()):
                terms[idx[j]] = (term,)
    acc = 0.0
    for cells in terms:
        for term in cells:
            acc += term
    return float(np.sqrt(acc))


def _leaf_error_terms(basis, leaf, rule, coefficients, exact_gradient):
    """One leaf's squared error per cell of its rule, a corner rule with
    no indicator factor.  The points, weights and exact gradient are
    taken on all its points at once, the tables and the discrete gradient
    a block of whole cells at a time, at most ``_ERROR_BLOCK`` (point,
    function) entries or one cell."""
    pts, jac = leaf_frame(basis, leaf, rule.points)
    exact = np.asarray(exact_gradient(pts), dtype=float)
    w = rule.weights * jac
    coef = coefficients[basis.leaf_dofs(leaf)]
    diff = np.empty_like(exact)
    offsets, most = rule.offsets, _ERROR_BLOCK // coef.size   # points
    a = 0
    while a < len(offsets) - 1:
        # cells a .. b - 1; the block's tables are freed with the statement
        b = max(a + 1, bisect_right(offsets, offsets[a] + most) - 1)
        block = slice(offsets[a], offsets[b])
        diff[block] = np.einsum("qid,i->qd", basis.evaluate_leaf(
            leaf, pts[block])[1], coef) - exact[block]
        a = b
    return [float(np.einsum("q,qd,qd->", w[cell], diff[cell], diff[cell]))
            for cell in rule.cells()]
