"""Hierarchically refined multi-patch quadrilateral meshes.

The mesh starts from a conforming union of structured rectangular patches.
Refinement never remeshes: a refined element keeps its four bisection
children nested inside it, so the element forest holds every level at
once.  Elements without children are the active leaves; integration,
partitioning and export all run over those.

Elements are integer ids into one column table, ``Mesh.elements``: the
base elements are ids 0 .. n_base - 1, patch by patch and row by row,
and a refine appends the four children of each marked element as
consecutive ids, children (0, 0), (1, 0), (0, 1), (1, 1) in (x, y) order.
The columns are the level, the parent id (-1 on the base level), the
first child id (-1 for a leaf), the integer lattice box ``lo``/``hi`` and
its float image ``lo_f``/``hi_f``.  The forest only grows: no element
or entity row is ever removed, so every id below ``len(Mesh.elements)``
is an element, an active leaf or a refined one.

Shape functions attach to the topological entities (nodes, edges, cell
interiors) of every level.  An entity is a row of one table,
``Mesh.table``, keyed by its level, its kind code (NODE, EDGE, FACE) and
its integer lattice position; rows stay in creation order, which is the
order dofs are numbered in.  The other columns are the incidence (the
elements of the entity's level whose closure holds it), the coarser row
(the entity of the level above that contains it, -1 on the base level),
an edge's two end-node rows and the active flag.  ``Mesh.topology`` holds
the 9 entity rows of every element, indexed by element id.

Which entities actually carry degrees of freedom is decided here, by two
activation rules applied after every refinement:

(a) an overlay entity lying on the boundary of its level's refined
    region is switched off, which makes the overlay vanish there and
    keeps the combined field C0-compatible with the levels underneath;
(b) an entity with an active finer-level sub-entity is switched off,
    which keeps the surviving functions linearly independent.  Base
    entities follow only this rule.

Entity identity is exact: positions live on an integer lattice per level,
doubled so that edge midpoints and face centres are lattice points too (a
global rational denominator per axis is fixed when the base mesh is
built), so shared entities dedupe by integer key and no floating-point
comparison is involved.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

import numpy as np

# entity kind codes, the ``kind`` column of Mesh.table
NODE, EDGE, FACE = 0, 1, 2


class _Columns:
    """Equal-length columns, one row per entity or element."""

    def __len__(self):
        return len(self.level)

    def __getitem__(self, rows):
        """The sub-table of the given rows: an index array or a mask."""
        return type(self)(*(col[rows] for col in vars(self).values()))

    def extended(self, other):
        """This table with the rows of `other` appended."""
        return type(self)(*map(np.concatenate, zip(vars(self).values(),
                                                   vars(other).values())))


@dataclass
class EntityTable(_Columns):
    """The entities of a mesh as columns, one row per entity."""

    level: np.ndarray      # refinement level
    kind: np.ndarray       # NODE, EDGE or FACE
    pos: np.ndarray        # (n, 2) doubled lattice position on the level
    incidence: np.ndarray  # elements of the level whose closure holds it
    coarser: np.ndarray    # row of the containing entity one level up, or -1
    ends: np.ndarray       # (n, 2) an edge's end-node rows, else -1
    active: np.ndarray     # output of the activation rules


@dataclass
class ElementTable(_Columns):
    """Every element ever made, as columns indexed by element id."""

    level: np.ndarray      # refinement level
    parent: np.ndarray     # id of the element it splits, or -1
    child: np.ndarray      # id of the first of its four children, or -1
    lo: np.ndarray         # (n, 2) integer lattice box on the level
    hi: np.ndarray
    lo_f: np.ndarray       # (n, 2) float box, derived once from the lattice
    hi_f: np.ndarray


class MeshError(ValueError):
    """Raised for invalid mesh specs and invalid refinement requests."""


@dataclass(frozen=True)
class PatchSpec:
    """One structured rectangular patch.

    bounds: ((x0, x1), (y0, y1)), physical units.
    resolution: cells per axis, (nx, ny).
    """

    bounds: tuple
    resolution: tuple

    def validate(self):
        if len(self.bounds) != 2 or len(self.resolution) != 2:
            raise MeshError(
                f"a patch needs two axes, got bounds {self.bounds}, "
                f"resolution {self.resolution}"
            )
        for (lo, hi), n in zip(self.bounds, self.resolution):
            if not lo < hi:
                raise MeshError(f"degenerate patch extent [{lo}, {hi}]")
            if int(n) != n or n < 1:
                raise MeshError(f"patch resolution must be a positive int, got {n}")


@dataclass(frozen=True)
class BaseMeshSpec:
    """Union of conforming patches defining the unrefined base mesh."""

    patches: tuple

    def validate(self):
        if not self.patches:
            raise MeshError("at least one patch is required")
        for p in self.patches:
            p.validate()


# topology layout per element, fixed order used everywhere downstream:
# nodes (SW, SE, NW, NE), edges (bottom, top, left, right), interior face
_SLOT_KIND = np.array([NODE] * 4 + [EDGE] * 4 + [FACE])
# doubled lattice position of each slot: x = lo_x * row 0 + hi_x * row 1
_SLOT_X = np.array([[2, 0, 2, 0, 1, 1, 2, 0, 1], [0, 2, 0, 2, 1, 1, 0, 2, 1]])
_SLOT_Y = np.array([[2, 2, 0, 0, 2, 0, 1, 1, 1], [0, 0, 2, 2, 0, 2, 1, 1, 1]])
# end-node slots of the edge slots 4 .. 7
_EDGE_ENDS = np.array([[0, 1], [2, 3], [0, 2], [1, 3]])
# the parent slot that contains each slot of child (j, i), children in
# the order (0, 0), (0, 1), (1, 0), (1, 1): a point of the 3x3 child grid
# by (row, column), and a child edge by its grid row or column
_GRID = ((0, 4, 1), (6, 8, 7), (2, 5, 3))
_ROW, _COL = (4, 8, 5), (6, 8, 7)
_COARSER_SLOT = np.array([
    [_GRID[j][i], _GRID[j][i + 1], _GRID[j + 1][i], _GRID[j + 1][i + 1],
     _ROW[j], _ROW[j + 1], _COL[i], _COL[i + 1], 8]
    for j in (0, 1) for i in (0, 1)])
_CHILD_I, _CHILD_J = np.array([0, 1, 0, 1]), np.array([0, 0, 1, 1])
# lattice ints convert to float64 exactly below this bound
_EXACT = 1 << 53


def _ranges(starts, counts):
    """The ranges starts[i] .. starts[i] + counts[i], concatenated."""
    ends = np.cumsum(counts)
    return (np.repeat(np.asarray(starts) - ends + counts, counts)
            + np.arange(ends[-1] if ends.size else 0))


def _first_occurrences(keys):
    """Group the equal rows of an integer key array, numbering the groups
    by first occurrence: the first row of each group, ascending, and the
    group of every row."""
    order = np.lexsort(keys.T[::-1])
    ks = keys[order]
    head = np.ones(len(keys), dtype=bool)
    head[1:] = (ks[1:] != ks[:-1]).any(axis=1)
    first = order[head]  # lexsort is stable: the first row of each run
    by_first = np.argsort(first)
    rank = np.empty(first.size, dtype=np.int64)
    rank[by_first] = np.arange(first.size)
    group = np.empty(len(keys), dtype=np.int64)
    group[order] = rank[np.cumsum(head) - 1]
    return first[by_first], group


class Mesh:
    """Element forest over a multi-patch base grid; see module docstring.
    ``refine`` rebinds, never writes into, ``elements``, ``table`` and
    ``topology``: a table read before a refine is a snapshot."""

    def __init__(self, spec):
        spec.validate()
        self.spec = spec
        none, pairs = np.zeros(0, dtype=np.int64), np.zeros((0, 2), dtype=np.int64)
        self.table = EntityTable(none, none, pairs, none, none, pairs,
                                 np.zeros(0, dtype=bool))
        boxes = np.zeros((0, 2))
        self.elements = ElementTable(none, none, none, pairs, pairs, boxes,
                                     boxes)
        self.topology = np.zeros((0, 9), dtype=np.int64)
        self._leaf_cache = None
        self._den = None               # per-axis lattice denominator
        self._patch_tables = []        # locator data per patch
        self._build_base()

    # ------------------------------------------------------------------
    # construction

    def _build_base(self):
        patches = self.spec.patches
        grids = []
        for p in patches:
            axes = []
            for (lo, hi), n in zip(p.bounds, p.resolution):
                flo, fhi = Fraction(lo), Fraction(hi)
                step = (fhi - flo) / int(n)
                axes.append([flo + i * step for i in range(int(n) + 1)])
            grids.append(axes)

        self._check_overlap(patches, grids)
        self._check_conforming(patches, grids)

        dens = []
        for a in range(2):
            dn = 1
            for axes in grids:
                for v in axes[a]:
                    dn = lcm(dn, v.denominator)
            dens.append(dn)
        self._den = tuple(dens)

        boxes = []
        for p, axes in zip(patches, grids):
            xs, ys = [
                np.array([int(v * self._den[a]) for v in axes[a]], dtype=np.int64)
                for a in range(2)
            ]
            self._patch_tables.append((p, sum(len(b) for b in boxes)))
            # row by row: x runs fastest
            x, y = np.meshgrid(xs, ys)
            boxes.append(np.stack((x[:-1, :-1], y[:-1, :-1], x[1:, 1:], y[1:, 1:]),
                                  axis=-1).reshape(-1, 4))
        boxes = np.vstack(boxes)
        self.n_base = n = len(boxes)
        self._add_elements(boxes[:, :2], boxes[:, 2:],
                           np.zeros(n, dtype=np.int64),
                           np.full((n, 9), -1, dtype=np.int64),
                           np.full(n, -1, dtype=np.int64))

    @staticmethod
    def _check_overlap(patches, grids):
        boxes = []
        for axes in grids:
            boxes.append([(ax[0], ax[-1]) for ax in axes])
        for i in range(len(boxes)):
            for j in range(i + 1, len(boxes)):
                if all(
                    boxes[i][a][0] < boxes[j][a][1] and boxes[j][a][0] < boxes[i][a][1]
                    for a in range(len(boxes[i]))
                ):
                    raise MeshError(f"patches {i} and {j} overlap")

    @staticmethod
    def _check_conforming(patches, grids):
        # wherever two patches touch along a line, the grid vertices laid on
        # the shared portion must coincide exactly
        for i in range(len(grids)):
            for j in range(i + 1, len(grids)):
                for a in (0, 1):
                    b = 1 - a
                    gi, gj = grids[i], grids[j]
                    touch = gi[a][-1] == gj[a][0] or gj[a][-1] == gi[a][0]
                    if not touch:
                        continue
                    lo = max(gi[b][0], gj[b][0])
                    hi = min(gi[b][-1], gj[b][-1])
                    if lo >= hi:
                        continue
                    vi = [v for v in gi[b] if lo <= v <= hi]
                    vj = [v for v in gj[b] if lo <= v <= hi]
                    if vi != vj:
                        raise MeshError(
                            f"patches {i} and {j} are not edge-conforming on "
                            f"their shared boundary"
                        )

    def _floats(self, ints, level):
        """Lattice ints (n, 2) of the given levels (n,) as floats.

        Both operands of the int64 / int64 true division convert to
        float64 exactly (``_add_elements`` keeps them below 2**53), so the
        quotient is correctly rounded, as float(Fraction(m, den << level)).
        """
        return ints / (np.array(self._den) << np.asarray(level)[:, None])

    def _add_elements(self, lo, hi, level, coarser, parent):
        """New elements with lattice boxes lo .. hi (m, 2) on the given
        levels, their entities interned into the table.

        coarser (m, 9) holds the coarser row of every slot, -1 on the base
        level; parent the id each new element splits, or -1.  The
        candidate entities run element by element in slot order, and the
        first occurrence of a key that no row of its level holds
        makes a new row, so rows and dof numbers keep creation order.
        """
        m = len(lo)
        if (max(self._den) << int(level.max()) + 1 >= _EXACT
                or 2 * max(np.abs(lo).max(), np.abs(hi).max()) >= _EXACT):
            raise MeshError(f"level {int(level.max())} lattice positions "
                            "exceed 2**53, where floats stop being exact")
        pos = np.stack((lo[:, :1] * _SLOT_X[0] + hi[:, :1] * _SLOT_X[1],
                        lo[:, 1:] * _SLOT_Y[0] + hi[:, 1:] * _SLOT_Y[1]),
                       axis=-1).reshape(-1, 2)
        keys = np.column_stack((np.repeat(level, 9), np.tile(_SLOT_KIND, m), pos))
        t = self.table
        old = np.flatnonzero(np.isin(t.level, np.unique(level)))
        first, group = _first_occurrences(np.vstack((
            np.column_stack((t.level[old], t.kind[old], t.pos[old])),
            keys)))
        new = first[old.size:] - old.size
        rows = np.concatenate((old, len(t) + np.arange(new.size)))[group[old.size:]]
        topo = rows.reshape(m, 9)
        ends = np.full((m, 9, 2), -1, dtype=np.int64)
        ends[:, 4:8] = topo[:, _EDGE_ENDS]

        t = t.extended(EntityTable(
            keys[new, 0], keys[new, 1], keys[new, 2:],
            np.zeros(new.size, dtype=np.int64), coarser.ravel()[new],
            ends.reshape(-1, 2)[new], np.ones(new.size, dtype=bool)))
        t.incidence += np.bincount(rows, minlength=len(t))
        self.table = t
        self.topology = np.vstack((self.topology, topo))
        self.elements = self.elements.extended(ElementTable(
            level, parent, np.full(m, -1, dtype=np.int64), lo, hi,
            self._floats(lo, level), self._floats(hi, level)))

    # ------------------------------------------------------------------
    # refinement

    def refine(self, marked):
        """Bisect the given active leaves into four children each.

        Marking an element that has children, or an id that is not an
        element, is an error.  An empty set leaves the mesh unchanged.
        """
        ids = np.unique(np.array(list(marked)))
        if ids.size and ids.dtype.kind not in "iu":
            raise MeshError(f"element ids must be integers, got {ids[0]!r}")
        ids = ids.astype(np.int64)
        e = self.elements
        unknown = (ids < 0) | (ids >= len(e))
        if unknown.any():
            raise MeshError(f"cannot refine unknown element {ids[unknown][0]}")
        split = e.child[ids] >= 0
        if split.any():
            raise MeshError(f"element {ids[split][0]} is not an active leaf")
        if not ids.size:
            return
        lo, hi = e.lo[ids], e.hi[ids]
        # the children's lattice lines: 2 lo, lo + hi, 2 hi per axis
        grid = np.stack((2 * lo, lo + hi, 2 * hi), axis=1)
        lo, hi = [np.stack((grid[:, _CHILD_I + d, 0], grid[:, _CHILD_J + d, 1]),
                           axis=-1).reshape(-1, 2) for d in (0, 1)]
        level = np.repeat(e.level[ids] + 1, 4)
        coarser = self.topology[ids][:, _COARSER_SLOT].reshape(-1, 9)
        first = len(self.topology)
        self._add_elements(lo, hi, level, coarser, np.repeat(ids, 4))
        self.elements.child[ids] = first + 4 * np.arange(ids.size)
        self._leaf_cache = None
        self.update_activation()

    # ------------------------------------------------------------------
    # activation rules

    def update_activation(self):
        """Re-derive every entity's active flag from the current forest.

        Safe to call repeatedly; refine already calls it.
        """
        t = self.table
        level, active = t.level, t.active
        # rule (a): overlay edges with one element of their level, and
        # their end nodes, lie on the boundary of the refined region
        boundary = (level > 0) & (t.kind == EDGE) & (t.incidence == 1)
        boundary[t.ends[boundary].ravel()] = True
        # rule (b), finest level first: a row with an active finer-level
        # descendant is off, and passes the flag on to its coarser row
        desc = np.zeros(len(t), dtype=bool)
        for lvl in range(self.max_level(), 0, -1):
            rows = np.flatnonzero(level == lvl)
            active[rows] = ~boundary[rows] & ~desc[rows]
            desc[t.coarser[rows[active[rows] | desc[rows]]]] = True
        base = level == 0
        active[base] = ~desc[base]

    # ------------------------------------------------------------------
    # queries

    def active_leaf_elements(self):
        """The ids of all childless elements, an int64 array in depth-first
        pre-order under each base cell; read-only, cached until the next
        refine."""
        if self._leaf_cache is None:
            ids, child = np.arange(self.n_base), self.elements.child
            # expand level by level: each split element gives way, in
            # place, to its four consecutive children
            while True:
                first = child[ids]
                split = first >= 0
                if not split.any():
                    break
                ids = _ranges(np.where(split, first, ids),
                              np.where(split, 4, 1))
            ids.flags.writeable = False
            self._leaf_cache = ids
        return self._leaf_cache

    def max_level(self):
        """The deepest level that holds an element."""
        return int(self.table.level.max())

    def entity_points(self, rows):
        """Float points of entity rows: a node's point, an edge's
        midpoint, a face's centre."""
        t = self.table[rows]
        return self._floats(t.pos, t.level + 1)

    def locate_leaves(self, points):
        """Ids of the leaves whose closed boxes contain the points (n, 2),
        -1 for a point outside the mesh.

        A point on a patch seam goes to the first patch that holds it,
        and below a base cell a point on a bisector to the lower child.
        """
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        ids = np.full(len(pts), -1, dtype=np.int64)
        for patch, first_id in self._patch_tables:
            (x0, x1), (y0, y1) = patch.bounds
            x, y = pts[:, 0], pts[:, 1]
            hit = np.flatnonzero((ids < 0) & (x0 <= x) & (x <= x1)
                                 & (y0 <= y) & (y <= y1))
            cell = [np.clip(((pts[hit, a] - lo) / (hi - lo) * n).astype(np.int64),
                            0, int(n) - 1)
                    for a, ((lo, hi), n) in enumerate(zip(patch.bounds,
                                                          patch.resolution))]
            ids[hit] = first_id + cell[1] * int(patch.resolution[0]) + cell[0]
        e = self.elements
        live = np.flatnonzero(ids >= 0)
        while live.size:
            first = e.child[ids[live]]
            live, first = live[first >= 0], first[first >= 0]
            cur = ids[live]
            mid = (e.lo_f[cur] + e.hi_f[cur]) / 2
            ids[live] = first + (pts[live] > mid) @ np.array([1, 2])
        return ids

def create_base_mesh(spec):
    """Build the unrefined mesh for a validated BaseMeshSpec."""
    return Mesh(spec)


def export_mesh_xml(mesh, path, ranks=None, weights=None, orders=None):
    """Write the active leaves as a text XML unstructured grid.

    Layout::

        <overlay_grid dimension="2" points="N" cells="L">
          <points>
            <p id="0" x="..." y="..."/>
          </points>
          <cells>
            <c id="0" nodes="i0 i1 i2 i3" level="0" rank="0" order="2" weight="1.0"/>
          </cells>
        </overlay_grid>

    Cells are the active leaves in leaf-index order; node ids reference the
    deduplicated corner points (nodes of finer cells may sit on the edge of
    a coarser neighbor, which unstructured-grid consumers accept).  rank,
    order and weight columns fall back to 0 / 0 / 1.0 when not supplied.
    """
    leaves = mesh.active_leaf_elements()
    e = mesh.elements
    level = e.level[leaves]
    # corners SW, SE, NE, NW: per axis, 1 takes the coordinate from hi
    pick = np.array([[0, 0], [1, 0], [1, 1], [0, 1]], dtype=bool)
    corners = np.where(pick, e.hi[leaves, None], e.lo[leaves, None])
    # one point per distinct position, numbered by first occurrence: on
    # the finest level's lattice equal positions are equal ints
    first, nodes = _first_occurrences(
        (corners << (level.max() - level)[:, None, None]).reshape(-1, 2))
    points = np.where(pick, e.hi_f[leaves, None],
                      e.lo_f[leaves, None]).reshape(-1, 2)[first]
    n = len(leaves)
    ranks = [0] * n if ranks is None else [int(r) for r in ranks]
    orders = [0] * n if orders is None else [int(o) for o in orders]
    weights = [1.0] * n if weights is None else [float(w) for w in weights]
    lines = [
        '<?xml version="1.0"?>',
        f'<overlay_grid dimension="2" points="{len(points)}" cells="{n}">',
        "  <points>",
        *(f'    <p id="{i}" x="{x!r}" y="{y!r}"/>'
          for i, (x, y) in enumerate(points.tolist())),
        "  </points>",
        "  <cells>",
        *(f'    <c id="{k}" nodes="{" ".join(map(str, ids))}" level="{lvl}" '
          f'rank="{rank}" order="{order}" weight="{w!r}"/>'
          for k, (ids, lvl, rank, order, w) in enumerate(zip(
              nodes.reshape(-1, 4).tolist(), level.tolist(), ranks, orders,
              weights))),
        "  </cells>",
        "</overlay_grid>",
    ]
    text = "\n".join(lines) + "\n"
    with open(path, "w") as fh:
        fh.write(text)
    return path
