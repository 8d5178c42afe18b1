"""Hierarchically refined multi-patch quadrilateral meshes.

The mesh starts from a conforming union of structured rectangular patches.
Refinement never remeshes: a refined element keeps its four bisection
children nested inside it, so the element forest holds every level at
once.  Elements without children are the active leaves; integration,
partitioning and export all run over those.

Shape functions attach to the topological entities (nodes, edges, cell
interiors) of every level.  Which entities actually carry degrees of
freedom is decided here, by two activation rules applied after every
refinement or coarsening call:

(a) an overlay entity lying on the boundary of its level's refined
    region is switched off, which makes the overlay vanish there and
    keeps the combined field C0-compatible with the levels underneath;
(b) an entity with an active finer-level sub-entity is switched off,
    which keeps the surviving functions linearly independent.  Base
    entities follow only this rule.

Entity identity is exact: coordinates live on an integer lattice per
level (a global rational denominator per axis is fixed when the base
mesh is built), so shared entities dedupe by dictionary key and no
floating-point comparison is involved.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

import numpy as np

NODE = "node"
EDGE = "edge"
FACE = "face"


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


class Entity:
    """A node, edge or cell interior of one refinement level.

    Entities are shared: every element of the same level whose closure
    contains the entity references the same object.  ``incidence`` counts
    those owners, ``finer`` links to the next-level entities nested inside
    this one, and ``coarser`` points the other way.  ``active`` is the
    output of the activation rules.
    """

    __slots__ = (
        "index", "kind", "level", "key", "where",
        "active", "alive", "incidence",
        "finer", "coarser", "end_nodes", "_boundary", "_desc",
    )

    def __init__(self, index, kind, level, key, where):
        self.index = index
        self.kind = kind
        self.level = level
        self.key = key
        self.where = where
        self.active = True
        self.alive = True
        self.incidence = 0
        self.finer = []
        self.coarser = None
        self.end_nodes = None
        self._boundary = False
        self._desc = False

    def __repr__(self):
        state = "on" if self.active else "off"
        return f"<Entity {self.index} {self.kind} L{self.level} {state}>"


class Element:
    """One quadrilateral of the element forest."""

    __slots__ = ("id", "level", "parent", "children", "topology", "lo", "hi",
                 "lo_f", "hi_f")

    def __init__(self, eid, level, parent, lo, hi, lo_f, hi_f):
        self.id = eid
        self.level = level
        self.parent = parent
        self.children = []
        self.topology = ()
        self.lo = lo          # integer lattice coords at this level's scale
        self.hi = hi
        self.lo_f = lo_f      # float bounds, derived once from the lattice
        self.hi_f = hi_f

    @property
    def is_leaf(self):
        return not self.children

    def __repr__(self):
        return f"<Element {self.id} L{self.level} {self.lo_f}..{self.hi_f}>"


# topology layout per element, fixed order used everywhere downstream:
# nodes (SW, SE, NW, NE), edges (bottom, top, left, right), interior face
_2D_NODE_SLOT = {(0, 0): 0, (2, 0): 1, (0, 2): 2, (2, 2): 3}
_2D_EDGE_SLOT_H = {0: 4, 2: 5}   # bottom / top by row position
_2D_EDGE_SLOT_V = {0: 6, 2: 7}   # left / right by column position


class Mesh:
    """Element forest over a multi-patch base grid; see module docstring."""

    def __init__(self, spec):
        spec.validate()
        self.spec = spec
        self.elements = {}
        self.base_elements = []
        self.step_count = 0
        self._next_id = 0
        self._entity_count = 0
        self._by_level = [[]]          # entity lists per level, creation order
        self._keys = [{}]              # key -> entity dicts per level
        self._linked = {}              # level-0 entities that gained finer links, by index
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

        for p, axes in zip(patches, grids):
            xs, ys = [
                [int(v * self._den[a]) for v in axes[a]] for a in range(2)
            ]
            self._patch_tables.append((p, self._next_id))
            for j in range(len(ys) - 1):
                for i in range(len(xs) - 1):
                    self._make_base_element(
                        (xs[i], ys[j]), (xs[i + 1], ys[j + 1])
                    )

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

    def _coord_float(self, m, level, axis):
        # int / int rounds correctly, as float(Fraction(m, den << level)) does
        return int(m) / (self._den[axis] << level)

    def _point_float(self, ints, level):
        return tuple(self._coord_float(m, level, a) for a, m in enumerate(ints))

    def _new_entity(self, kind, level, key, where):
        ent = Entity(self._entity_count, kind, level, key, where)
        self._entity_count += 1
        self._by_level[level].append(ent)
        return ent

    def _get_or_make(self, level, kind, key, where):
        table = self._keys[level]
        ent = table.get(key)
        if ent is None:
            ent = self._new_entity(kind, level, key, where)
            table[key] = ent
        return ent

    def _make_base_element(self, lo, hi):
        elem = Element(self._next_id, 0, None, lo, hi,
                       self._point_float(lo, 0), self._point_float(hi, 0))
        self._next_id += 1
        self.elements[elem.id] = elem
        self.base_elements.append(elem)
        self._wire_topology(elem)
        return elem

    def _wire_topology(self, elem):
        lvl = elem.level
        x0, y0 = elem.lo
        x1, y1 = elem.hi
        n00 = self._get_or_make(lvl, NODE, ("n", x0, y0), (x0, y0))
        n10 = self._get_or_make(lvl, NODE, ("n", x1, y0), (x1, y0))
        n01 = self._get_or_make(lvl, NODE, ("n", x0, y1), (x0, y1))
        n11 = self._get_or_make(lvl, NODE, ("n", x1, y1), (x1, y1))
        xs, ys = x0 + x1, y0 + y1
        eb = self._get_or_make(lvl, EDGE, ("e", 0, xs, 2 * y0), (xs, 2 * y0))
        et = self._get_or_make(lvl, EDGE, ("e", 0, xs, 2 * y1), (xs, 2 * y1))
        el = self._get_or_make(lvl, EDGE, ("e", 1, 2 * x0, ys), (2 * x0, ys))
        er = self._get_or_make(lvl, EDGE, ("e", 1, 2 * x1, ys), (2 * x1, ys))
        if eb.end_nodes is None:
            eb.end_nodes = (n00, n10)
        if et.end_nodes is None:
            et.end_nodes = (n01, n11)
        if el.end_nodes is None:
            el.end_nodes = (n00, n01)
        if er.end_nodes is None:
            er.end_nodes = (n10, n11)
        face = self._new_entity(FACE, lvl, ("f", xs, ys), (xs, ys))
        elem.topology = (n00, n10, n01, n11, eb, et, el, er, face)
        for ent in elem.topology:
            ent.incidence += 1

    # ------------------------------------------------------------------
    # refinement / coarsening

    def refine(self, marked):
        """Bisect the given active leaves into four children each.

        Marking an element that has children, or an unknown id, is an
        error.  An empty set leaves the mesh unchanged.
        """
        ids = sorted(set(marked))
        for eid in ids:
            elem = self.elements.get(eid)
            if elem is None:
                raise MeshError(f"cannot refine unknown element {eid}")
            if elem.children:
                raise MeshError(f"element {eid} is not an active leaf")
        if not ids:
            return
        for eid in ids:
            self._split(self.elements[eid])
        self.step_count += 1
        self._leaf_cache = None
        self.update_activation()

    def _ensure_level(self, level):
        while len(self._by_level) <= level:
            self._by_level.append([])
            self._keys.append({})

    def _link(self, child_ent, parent_ent):
        if child_ent.coarser is None:
            child_ent.coarser = parent_ent
            parent_ent.finer.append(child_ent)
            if parent_ent.level == 0:
                self._linked[parent_ent.index] = parent_ent

    def _split(self, elem):
        lvl = elem.level + 1
        self._ensure_level(lvl)
        topo = elem.topology
        X0, Y0 = elem.lo
        X1, Y1 = elem.hi
        xs = (2 * X0, X0 + X1, 2 * X1)
        ys = (2 * Y0, Y0 + Y1, 2 * Y1)
        for j in (0, 1):
            for i in (0, 1):
                child = Element(
                    self._next_id, lvl, elem,
                    (xs[i], ys[j]), (xs[i + 1], ys[j + 1]),
                    self._point_float((xs[i], ys[j]), lvl),
                    self._point_float((xs[i + 1], ys[j + 1]), lvl),
                )
                self._next_id += 1
                self.elements[child.id] = child
                elem.children.append(child)
                self._wire_topology(child)
                n00, n10, n01, n11, eb, et, el, er, face = child.topology
                for node, a, b in (
                    (n00, i, j), (n10, i + 1, j), (n01, i, j + 1), (n11, i + 1, j + 1)
                ):
                    slot = _2D_NODE_SLOT.get((a, b))
                    if slot is None:
                        if a == 1 and b == 1:
                            slot = 8
                        elif a == 1:
                            slot = _2D_EDGE_SLOT_H[b]
                        else:
                            slot = _2D_EDGE_SLOT_V[a]
                    self._link(node, topo[slot])
                self._link(eb, topo[4] if j == 0 else topo[8])
                self._link(et, topo[8] if j == 0 else topo[5])
                self._link(el, topo[6] if i == 0 else topo[8])
                self._link(er, topo[8] if i == 0 else topo[7])
                self._link(face, topo[8])

    def coarsen(self, marked):
        """Remove the children of the given elements.

        Every marked element must have children and all of them must be
        leaves; anything else is rejected.
        """
        ids = sorted(set(marked))
        for eid in ids:
            elem = self.elements.get(eid)
            if elem is None:
                raise MeshError(f"cannot coarsen unknown element {eid}")
            if not elem.children:
                raise MeshError(f"element {eid} has no children to remove")
            for child in elem.children:
                if child.children:
                    raise MeshError(
                        f"element {eid} has grandchildren; coarsen deeper levels first"
                    )
        if not ids:
            return
        for eid in ids:
            elem = self.elements[eid]
            for child in elem.children:
                for ent in child.topology:
                    ent.incidence -= 1
                    if ent.incidence == 0:
                        ent.alive = False
                        ent.active = False
                        self._keys[ent.level].pop(ent.key, None)
                        if ent.coarser is not None:
                            ent.coarser.finer.remove(ent)
                del self.elements[child.id]
            elem.children = []
        # the removed children all sat one level below their parents
        for lvl in {self.elements[eid].level + 1 for eid in ids}:
            self._by_level[lvl] = [e for e in self._by_level[lvl] if e.alive]
        self._leaf_cache = None
        self.update_activation()

    # ------------------------------------------------------------------
    # activation rules

    def update_activation(self):
        """Re-derive every entity's active flag from the current forest.

        Safe to call repeatedly; refine and coarsen already call it.
        """
        top = len(self._by_level) - 1

        for lvl in range(1, top + 1):
            ents = self._by_level[lvl]
            for ent in ents:
                ent._boundary = False
            for ent in ents:
                if ent.alive and ent.kind == EDGE and ent.incidence == 1:
                    ent._boundary = True
                    a, b = ent.end_nodes
                    a._boundary = True
                    b._boundary = True

        for lvl in range(top, 0, -1):
            for ent in self._by_level[lvl]:
                if not ent.alive:
                    continue
                desc = False
                for f in ent.finer:
                    if f._desc:
                        desc = True
                        break
                ent.active = not ent._boundary and not desc
                ent._desc = ent.active or desc

        for ent in self._linked.values():
            if not ent.alive:
                continue
            desc = False
            for f in ent.finer:
                if f._desc:
                    desc = True
                    break
            ent.active = not desc
            ent._desc = True  # level-0 entities have no coarser readers

    # ------------------------------------------------------------------
    # queries

    def active_leaf_elements(self):
        """All childless elements, depth-first pre-order under each base cell."""
        if self._leaf_cache is None:
            out = []
            stack = []
            for base in self.base_elements:
                stack.append(base)
                while stack:
                    elem = stack.pop()
                    if elem.children:
                        stack.extend(reversed(elem.children))
                    else:
                        out.append(elem)
            self._leaf_cache = out
        return self._leaf_cache

    def chain(self, elem):
        """Ancestor path of an element, base first, the element itself last."""
        path = []
        while elem is not None:
            path.append(elem)
            elem = elem.parent
        path.reverse()
        return path

    def max_level(self):
        return len(self._by_level) - 1

    def entities(self, level=None):
        if level is None:
            for ents in self._by_level:
                for ent in ents:
                    if ent.alive:
                        yield ent
        else:
            for ent in self._by_level[level]:
                if ent.alive:
                    yield ent

    def node_point(self, ent):
        return np.array(self._point_float(ent.where, ent.level))

    def edge_endpoints(self, ent):
        a, b = ent.end_nodes
        return self.node_point(a), self.node_point(b)

    def locate_leaf(self, point):
        """Leaf whose closed box contains the point, or None if outside."""
        pt = np.asarray(point, dtype=float)
        for patch, first_id in self._patch_tables:
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
            elem = self.elements[first_id + idx[1] * nx + idx[0]]
            while elem.children:
                sel = 0
                for a in range(2):
                    if pt[a] > (elem.lo_f[a] + elem.hi_f[a]) / 2:
                        sel += 1 << a
                elem = elem.children[sel]
            return elem
        return None


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
    point_ids = {}
    points = []

    def canon(m, lvl):
        while m % 2 == 0 and lvl > 0:
            m //= 2
            lvl -= 1
        return m, lvl

    def pid(ints, lvl, floats):
        key = tuple(canon(m, lvl) for m in ints)
        i = point_ids.get(key)
        if i is None:
            i = len(points)
            point_ids[key] = i
            points.append(floats)
        return i

    cells = []
    for n, leaf in enumerate(leaves):
        lvl = leaf.level
        x0, y0 = leaf.lo
        x1, y1 = leaf.hi
        fx0, fy0 = leaf.lo_f
        fx1, fy1 = leaf.hi_f
        ids = (
            pid((x0, y0), lvl, (fx0, fy0)),
            pid((x1, y0), lvl, (fx1, fy0)),
            pid((x1, y1), lvl, (fx1, fy1)),
            pid((x0, y1), lvl, (fx0, fy1)),
        )
        rank = 0 if ranks is None else int(ranks[n])
        order = 0 if orders is None else int(orders[n])
        w = 1.0 if weights is None else float(weights[n])
        cells.append((n, ids, lvl, rank, order, w))

    lines = [
        '<?xml version="1.0"?>',
        f'<overlay_grid dimension="2" points="{len(points)}" cells="{len(cells)}">',
        "  <points>",
    ]
    for i, pt in enumerate(points):
        coords = " ".join(
            f'{ax}="{v!r}"' for ax, v in zip("xy", pt)
        )
        lines.append(f'    <p id="{i}" {coords}/>')
    lines.append("  </points>")
    lines.append("  <cells>")
    for n, ids, lvl, rank, order, w in cells:
        nodes = " ".join(str(i) for i in ids)
        lines.append(
            f'    <c id="{n}" nodes="{nodes}" level="{lvl}" rank="{rank}" '
            f'order="{order}" weight="{w!r}"/>'
        )
    lines.append("  </cells>")
    lines.append("</overlay_grid>")
    text = "\n".join(lines) + "\n"
    with open(path, "w") as fh:
        fh.write(text)
    return path
