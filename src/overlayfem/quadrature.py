"""Composed Gauss quadrature over leaf footprints, plus embedded domains.

Every active leaf is integrated in its own reference square with a
tensor-product Gauss-Legendre rule whose per-axis order is one above the
highest polynomial order contributing on that leaf; ``leaf_frame`` is
the one affine map from that square onto leaves.

Every rule is a ``LeafRule`` (stacked points, weights and indicator
values plus the cell offsets), and one kernel builds them all:
``box_rule`` maps axis boxes to a rule with one Gauss cell per box.  It
gives the reference rule of each order (every leaf's rule without a
domain), the corner shells of the energy error and the spacetree cells.

Geometries that do not fit the mesh are handled with an indicator factor:
quadrature cells fully inside the physical region keep weight factor one,
cells fully in the fictitious remainder get a small epsilon, and cut cells
subdivide into four children up to a fixed depth, after which each Gauss
point is classified individually.  Geometry is a small CSG tree of
half-planes, disks and rectangles, also loadable from JSON.

The subdivision is level-synchronous: ``subdivide`` classifies the boxes
of many spacetrees at once, one numpy pass per level, and returns the
kept cells in the depth-first order of the tree.  ``build_leaf_rules``
runs it for many leaves at once and returns one ragged table: a single
``LeafRule`` of every leaf's cells, leaf after leaf, and the leaves' cell
offsets.  ``leaf_rule_table`` keeps the table of the active leaves on
the ``Basis`` once per (domain, depth), so the weights, the integration
and the area share one spacetree per leaf; ``leaf_rule`` is a view.
"""
from __future__ import annotations

import numbers
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .mesh import _ranges


@lru_cache(maxsize=None)
def gauss_rule_1d(q):
    """Gauss-Legendre points and weights on [-1, 1], exact to degree 2q-1."""
    if q < 1:
        raise ValueError(f"quadrature order must be >= 1, got {q}")
    x, w = np.polynomial.legendre.leggauss(q)
    return x, w


@lru_cache(maxsize=None)
def _reference_points(order):
    """Tensor Gauss points on [-1, 1]^2, x-major, shared per order."""
    x1, _ = gauss_rule_1d(order)
    ref = np.column_stack((np.repeat(x1, order), np.tile(x1, order)))
    ref.flags.writeable = False
    return ref


@dataclass
class LeafRule:
    """Quadrature cells stacked into three read-only arrays.

    Cell k owns rows ``offsets[k]:offsets[k + 1]``; rows keep the cell
    order and, within a cell, the x-major Gauss point order.
    """

    points: np.ndarray   # (n, 2)
    weights: np.ndarray  # (n,)
    alpha: np.ndarray    # (n,) indicator factor per point
    offsets: tuple       # cells + 1 row offsets, from 0 to n

    def cells(self):
        """One row slice per cell."""
        return [slice(a, b) for a, b in zip(self.offsets[:-1], self.offsets[1:])]

    def cell_range(self, a, b):
        """Cells a .. b - 1 as a rule: views of the arrays, offsets rebased."""
        rows = slice(self.offsets[a], self.offsets[b])
        return LeafRule(self.points[rows], self.weights[rows], self.alpha[rows],
                        tuple(o - rows.start for o in self.offsets[a:b + 1]))


def box_rule(lo, hi, order, alpha=None):
    """The rule with one tensor Gauss cell per axis box, boxes in order.

    `lo` and `hi` are (k, 2) box corners; each cell's weights sum to its
    box's area.  `alpha` holds (k, order^2) indicator values, one per
    point; without it every value is one.
    """
    ref = _reference_points(order)
    _, w1 = gauss_rule_1d(order)
    n = len(ref)
    lo = np.asarray(lo, dtype=float).reshape(-1, 2)
    hi = np.asarray(hi, dtype=float).reshape(-1, 2)
    mid = (lo + hi) / 2
    half = (hi - lo) / 2
    points = (mid[:, None] + half[:, None] * ref).reshape(-1, 2)
    weights = ((w1 * half[:, :1])[:, :, None]
               * (w1 * half[:, 1:])[:, None, :]).ravel()
    alpha = (np.ones(weights.size) if alpha is None
             else np.asarray(alpha, dtype=float).ravel())
    for arr in (points, weights, alpha):
        arr.flags.writeable = False
    return LeafRule(points, weights, alpha, tuple(range(0, len(lo) * n + 1, n)))


@lru_cache(maxsize=None)
def reference_rule(order):
    """The rule of every leaf of this order without a domain."""
    return box_rule((-1.0, -1.0), (1.0, 1.0), order)


# ----------------------------------------------------------------------
# CSG geometry

class Geometry:
    def contains(self, points):
        raise NotImplementedError


@dataclass(frozen=True)
class HalfPlane(Geometry):
    """Points with normal . x <= offset."""

    normal: tuple
    offset: float

    def contains(self, points):
        n = np.asarray(self.normal, dtype=float)
        return np.asarray(points) @ n <= self.offset


@dataclass(frozen=True)
class Disk(Geometry):
    center: tuple
    radius: float

    def contains(self, points):
        diff = np.asarray(points) - np.asarray(self.center, dtype=float)
        return np.einsum("ij,ij->i", diff, diff) <= self.radius ** 2


@dataclass(frozen=True)
class Rect(Geometry):
    lo: tuple
    hi: tuple

    def contains(self, points):
        pts = np.asarray(points)
        lo = np.asarray(self.lo, dtype=float)
        hi = np.asarray(self.hi, dtype=float)
        return np.all((pts >= lo) & (pts <= hi), axis=1)


@dataclass(frozen=True)
class Union(Geometry):
    parts: tuple

    def contains(self, points):
        out = self.parts[0].contains(points)
        for g in self.parts[1:]:
            out = out | g.contains(points)
        return out


@dataclass(frozen=True)
class Intersection(Geometry):
    parts: tuple

    def contains(self, points):
        out = self.parts[0].contains(points)
        for g in self.parts[1:]:
            out = out & g.contains(points)
        return out


@dataclass(frozen=True)
class Difference(Geometry):
    """First part minus the union of the rest."""

    parts: tuple

    def contains(self, points):
        out = self.parts[0].contains(points)
        for g in self.parts[1:]:
            out = out & ~g.contains(points)
        return out


@dataclass(frozen=True)
class Complement(Geometry):
    part: Geometry

    def contains(self, points):
        return ~self.part.contains(points)


# JSON primitive name -> (class, its fields in constructor order)
_PRIMITIVES = {"halfplane": (HalfPlane, ("normal", "offset")),
               "disk": (Disk, ("center", "radius")),
               "rect": (Rect, ("lo", "hi"))}


def _primitive_field(kind, obj, key):
    """One checked field of a JSON primitive: a number or a 2-d point."""
    if key not in obj:
        raise ValueError(f"geometry primitive {kind!r} needs a {key!r} key")
    val = obj[key]
    if key in ("offset", "radius"):
        if not isinstance(val, numbers.Real):
            raise ValueError(f"geometry key {key!r} must be a number, got {val!r}")
        return float(val)
    if not (isinstance(val, (list, tuple)) and len(val) == 2
            and all(isinstance(v, numbers.Real) for v in val)):
        raise ValueError(f"geometry key {key!r} must be two numbers, got {val!r}")
    return tuple(val)


def geometry_from_json(obj):
    """Build a CSG tree from its JSON form.

    Primitives: {"primitive": "halfplane", "normal": [...], "offset": c},
    {"primitive": "disk", "center": [...], "radius": r},
    {"primitive": "rect", "lo": [...], "hi": [...]}.
    Operators: {"op": "union" | "intersect" | "subtract" | "complement",
    "args": [...]}.  Malformed input raises ValueError naming the key.
    """
    if not isinstance(obj, dict):
        raise ValueError(f"a geometry node must be a JSON object, got {obj!r}")
    if "primitive" in obj:
        kind = obj["primitive"]
        if not isinstance(kind, str) or kind not in _PRIMITIVES:
            raise ValueError(f"unknown geometry primitive {kind!r}")
        cls, keys = _PRIMITIVES[kind]
        return cls(*(_primitive_field(kind, obj, key) for key in keys))
    if "op" in obj:
        op = obj["op"]
        raw = obj.get("args")
        if not isinstance(raw, (list, tuple)) or not raw:
            raise ValueError(f"geometry op {op!r} needs a non-empty 'args' list")
        args = tuple(geometry_from_json(a) for a in raw)
        if op == "union":
            return Union(args)
        if op == "intersect":
            return Intersection(args)
        if op == "subtract":
            return Difference(args)
        if op == "complement":
            if len(args) != 1:
                raise ValueError("complement takes exactly one argument")
            return Complement(args[0])
        raise ValueError(f"unknown geometry op {op!r}")
    raise ValueError("geometry JSON needs a 'primitive' or an 'op' key")


@dataclass(frozen=True)
class EmbeddedDomain:
    """A CSG region plus the indicator floor used outside of it."""

    geometry: Geometry
    epsilon: float = 1e-8

    def contains(self, points):
        return self.geometry.contains(points)

    def alpha(self, points):
        inside = self.geometry.contains(np.atleast_2d(points))
        return np.where(inside, 1.0, self.epsilon)


# ----------------------------------------------------------------------
# spacetree subdivision of cut cells

# (x, y) picks into a box's (lo, mid, hi) grid: corner k of a box is
# (2 _X[k], 2 _Y[k]), and child k spans (_X[k], _Y[k]) to (_X[k]+1, _Y[k]+1);
# the children keep the order (lo, mid), lower right, upper left, (mid, hi)
_X = np.array([0, 1, 0, 1])
_Y = np.array([0, 0, 1, 1])


def _grid_points(grid, ix, iy):
    return np.stack((grid[:, ix, 0], grid[:, iy, 1]), axis=2)


def subdivide(lo, hi, domain, depth, order, to_physical=None):
    """Kept spacetree cells of many root boxes, one pass per level.

    `lo` and `hi` are (m, 2) root boxes.  Every box of a level is
    classified at once by sampling its 4 corners and then its Gauss
    points, mapped through ``to_physical(samples, roots)`` (samples of
    shape (boxes, 4 + n, 2), one root index per box; None is the
    identity).  A uniform box, or any box once `depth` levels are spent,
    is kept; a cut box splits into four children, and at the last level
    the indicator is taken per Gauss point.  Returns the root index of
    every kept cell and their ``box_rule``, cells sorted by root and
    within a root in depth-first order.
    """
    if depth < 0:
        raise ValueError("spacetree depth must be >= 0")
    ref = _reference_points(order)
    n = len(ref)
    l = np.asarray(lo, dtype=float).reshape(-1, 2)
    h = np.asarray(hi, dtype=float).reshape(-1, 2)
    roots = np.arange(len(l))
    codes = np.zeros(len(l), dtype=np.int64)
    kept = []
    for remaining in range(depth, -1, -1):
        # the points of box_rule, so a kept box is integrated with the
        # bits it was classified with
        mid = (l + h) / 2
        half = (h - l) / 2
        points = mid[:, None] + half[:, None] * ref
        grid = np.stack((l, mid, h), axis=1)
        sample = np.concatenate((_grid_points(grid, 2 * _X, 2 * _Y), points),
                                axis=1)
        if to_physical is not None:
            sample = to_physical(sample, roots)
        inside = domain.contains(sample.reshape(-1, 2)).reshape(len(l), 4 + n)
        keep = inside.all(axis=1) | ~inside.any(axis=1)
        if remaining == 0:
            keep[:] = True
        # a kept box's path code, scaled to the finest level, is its
        # depth-first rank among the cells of its root
        kept.append((roots[keep], codes[keep] << 2 * remaining, l[keep],
                     h[keep], inside[keep, 4:]))
        split = ~keep
        if not split.any():
            break
        grid = grid[split]
        l = _grid_points(grid, _X, _Y).reshape(-1, 2)
        h = _grid_points(grid, _X + 1, _Y + 1).reshape(-1, 2)
        roots = np.repeat(roots[split], 4)
        codes = (4 * codes[split][:, None] + np.arange(4)).ravel()
    roots, codes, l, h, inside = (np.concatenate(parts) for parts in zip(*kept))
    perm = np.lexsort((codes, roots))
    alpha = np.where(inside[perm], 1.0, domain.epsilon)
    return roots[perm], box_rule(l[perm], h[perm], order, alpha)


def leaf_frame(basis, leaves, points):
    """Physical images of reference points on leaves, and the Jacobians:
    one id with points (..., 2), or m ids with points (m, ..., 2) or
    (n, 2) shared by all; ids go through ``Basis.rows`` (KeyError)."""
    rows = basis.rows(leaves)
    lo, hi = basis.lo_f[rows], basis.hi_f[rows]
    mid = (hi + lo) / 2
    half = (hi - lo) / 2
    jac = half[..., 0] * half[..., 1]
    if np.ndim(rows):
        mid, half = mid[:, None], half[:, None]
    return mid + np.asarray(points) * half, jac


def build_leaf_rules(basis, leaves, domain, depth):
    """The spacetree rules of these leaf ids in an embedded domain, at
    their quadrature order, as (rule, leaf_cells): leaf i owns the cells
    ``leaf_cells[i]:leaf_cells[i + 1]`` of `rule`, in the given order,
    depth first, one ``subdivide`` per order."""
    leaves = np.asarray(leaves, dtype=np.int64)
    orders = basis.quad_orders[basis.rows(leaves)]
    # per order, the leaf of every cell and the cells; an empty first part
    owner = [np.zeros(0, dtype=np.int64)]
    parts = [box_rule(np.zeros((0, 2)), np.zeros((0, 2)), 1)]
    for order in np.unique(orders).tolist():
        idx = np.flatnonzero(orders == order)
        ones = np.ones((idx.size, 2))
        cells, rule = subdivide(
            -ones, ones, domain, depth, order,
            lambda pts, r: leaf_frame(basis, leaves[idx[r]], pts)[0])
        owner.append(idx[cells])
        parts.append(rule)
    owner = np.concatenate(owner)
    sizes = np.concatenate([np.diff(rule.offsets) for rule in parts])
    perm = np.argsort(owner, kind="stable")
    rows = _ranges((np.cumsum(sizes) - sizes)[perm], sizes[perm])
    arrays = [np.concatenate([getattr(rule, name) for rule in parts])[rows]
              for name in ("points", "weights", "alpha")]
    for arr in arrays:
        arr.flags.writeable = False
    offsets = np.concatenate(([0], np.cumsum(sizes[perm])))
    leaf_cells = np.searchsorted(owner[perm], np.arange(leaves.size + 1))
    return LeafRule(*arrays, tuple(offsets.tolist())), leaf_cells


def leaf_rule_table(basis, domain, depth=0):
    """``build_leaf_rules`` of the active leaves in an embedded domain,
    built once per Basis and kept in ``basis.leaf_rules`` under (depth,
    domain).  The domain compares by value, so an equal domain reads the
    entry, also in a worker that inherited the Basis."""
    key = (depth, domain)
    table = basis.leaf_rules.get(key)
    if table is None:
        table = basis.leaf_rules[key] = build_leaf_rules(
            basis, basis.leaves, domain, depth)
    return table


def leaf_rule(basis, leaf, domain=None, depth=0):
    """One active leaf's cells: the reference rule of its order without
    a domain, else a view into ``leaf_rule_table``; KeyError for an id
    that is not an active leaf of the Basis."""
    row = basis.rows(leaf)
    if row >= len(basis.leaves):
        raise KeyError(f"element {leaf} is not an active leaf")
    if domain is None:
        return reference_rule(int(basis.quad_orders[row]))
    rule, leaf_cells = leaf_rule_table(basis, domain, depth)
    return rule.cell_range(leaf_cells[row], leaf_cells[row + 1])


def indicator_area(basis, domain, depth):
    """Measure of the physical region as seen by the composed rules: per
    cell, the sum of its inside weights times its leaf's Jacobian, added
    cell after cell.  The cells with k inside points sum them as the rows
    of one left-packed (cells, k) block: each cell's ``.sum()`` bits."""
    rule, leaf_cells = leaf_rule_table(basis, domain, depth)
    _, jac = leaf_frame(basis, basis.leaves, np.zeros(2))
    inside = np.flatnonzero(rule.alpha == 1.0)
    count = np.bincount(np.searchsorted(rule.offsets, inside, "right") - 1,
                        minlength=len(rule.offsets) - 1)
    first = np.cumsum(count) - count
    sums = np.zeros(count.size)
    for k in np.unique(count[count > 0]).tolist():
        cells = np.flatnonzero(count == k)
        sums[cells] = rule.weights[inside[first[cells, None]
                                          + np.arange(k)]].sum(axis=1)
    total = 0.0
    for term in (np.repeat(jac, np.diff(leaf_cells)) * sums).tolist():
        total += term
    return total
