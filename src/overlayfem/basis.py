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
Legendre recursion, and a leaf evaluation calls it once per ancestor
element, on the x and y reference coordinates together.

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
physical point into each ancestor's own reference frame.
"""
from __future__ import annotations

import numpy as np

from .mesh import EDGE, FACE, NODE

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


def entity_mode_count(kind, p):
    """Shape functions carried by one entity at polynomial order p."""
    if p < 1:
        raise ValueError(f"polynomial order must be >= 1, got {p}")
    if kind == NODE:
        return 1
    if kind == EDGE:
        return p - 1
    if kind == FACE:
        return (p - 1) ** 2
    raise ValueError(f"unknown entity kind {kind!r}")


class PolynomialOrderField:
    """Uniform order, or a level -> order map for graded refinement.

    Levels deeper than the largest mapped level reuse the deepest entry.
    """

    def __init__(self, uniform=None, by_level=None):
        if (uniform is None) == (by_level is None):
            raise ValueError("give either a uniform order or a level map")
        if uniform is not None:
            if int(uniform) != uniform or uniform < 1:
                raise ValueError(f"order must be a positive int, got {uniform}")
            self._uniform = int(uniform)
            self._map = None
        else:
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
            self._uniform = None
            self._map = cleaned
            self._deepest = max(cleaned)

    @classmethod
    def uniform(cls, p):
        return cls(uniform=p)

    @classmethod
    def graded(cls, by_level):
        return cls(by_level=by_level)

    def level_order(self, level):
        if self._uniform is not None:
            return self._uniform
        p = self._map.get(level)
        if p is None:
            # undeclared levels reuse the nearest shallower entry
            p = self._map[max(l for l in self._map if l <= level)]
        return p

    def entity_order(self, entity):
        # every element incident to an entity sits on the entity's own level,
        # so the minimum order over the adjacent elements is the level order
        return self.level_order(entity.level)

    @property
    def base_order(self):
        return self.level_order(0)


class DofMap:
    """Bijection between global indices and (active entity, mode) pairs."""

    def __init__(self, entities, offsets, total):
        self._entities = entities
        self._offsets = offsets
        self._slot = {ent.index: i for i, ent in enumerate(entities)}
        self.total = total

    def index_of(self, entity, mode):
        slot = self._slot[entity.index]
        return int(self._offsets[slot]) + mode

    def entity_offset(self, entity):
        return int(self._offsets[self._slot[entity.index]])

    def dof_entity(self, gid):
        if not 0 <= gid < self.total:
            raise IndexError(f"dof {gid} out of range")
        slot = int(np.searchsorted(self._offsets, gid, side="right")) - 1
        ent = self._entities[slot]
        return ent, gid - int(self._offsets[slot])

    @property
    def active_entities(self):
        return self._entities


def enumerate_dofs(mesh, orders):
    """Number the modes of every active entity, in entity creation order."""
    ents = sorted(mesh.entities(), key=lambda e: e.index)
    active = []
    offsets = []
    total = 0
    for ent in ents:
        if not ent.active:
            continue
        n = entity_mode_count(ent.kind, orders.entity_order(ent))
        if n == 0:
            continue
        active.append(ent)
        offsets.append(total)
        total += n
    return DofMap(active, np.asarray(offsets, dtype=np.int64), total)


class Basis:
    """Active shape functions of a mesh snapshot at fixed orders.

    Built for the mesh state at construction time; refine or coarsen the
    mesh and this object is stale, build a new one.  It also keeps the
    quadrature rules of its cut leaves and ``leaf_systems``, the step's
    single-cell leaf stiffness matrices and loads (see
    ``physics.leaf_systems``, which computes their signatures through
    ``leaf_frames``); both go stale with it.
    """

    def __init__(self, mesh, orders):
        self.mesh = mesh
        self.orders = orders
        self.dofmap = enumerate_dofs(mesh, orders)
        self._elem_plan = {}
        self._leaf_dofs = {}
        self._quad_order = {}
        # cut-leaf quadrature rules of this mesh state, see quadrature.leaf_rule
        self.leaf_rules = {}
        # the step's single-cell leaf systems, see physics.leaf_systems
        self.leaf_systems = {}

    # -- per-element plan: which modes, which 1d rows ------------------

    def _plan(self, elem):
        plan = self._elem_plan.get(elem.id)
        if plan is not None:
            return plan
        jx, jy, gids = [], [], []
        for slot, ent in enumerate(elem.topology):
            if not ent.active:
                continue
            p = self.orders.entity_order(ent)
            n = entity_mode_count(ent.kind, p)
            if n == 0:
                continue
            off = self.dofmap.entity_offset(ent)
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
        jx = np.asarray(jx, dtype=np.intp)
        jy = np.asarray(jy, dtype=np.intp)
        # the plan's content as it enters a table signature
        plan = (jx, jy, np.asarray(gids, dtype=np.int64),
                (jx.tobytes(), jy.tobytes()))
        self._elem_plan[elem.id] = plan
        return plan

    # -- public queries -------------------------------------------------

    def leaf_dofs(self, leaf):
        """Global dofs with support on the leaf, chain order, base first."""
        cached = self._leaf_dofs.get(leaf.id)
        if cached is None:
            parts = [self._plan(e)[2] for e in self.mesh.chain(leaf)]
            cached = np.concatenate(parts) if parts else np.empty(0, np.int64)
            self._leaf_dofs[leaf.id] = cached
        return cached

    def leaf_mode_count(self, leaf):
        return int(self.leaf_dofs(leaf).size)

    def leaf_quad_order(self, leaf):
        """Per-axis Gauss order: highest contributing order plus one."""
        q = self._quad_order.get(leaf.id)
        if q is None:
            pmax = 1
            for elem in self.mesh.chain(leaf):
                for ent in elem.topology:
                    if ent.active:
                        pmax = max(pmax, self.orders.entity_order(ent))
            q = self._quad_order[leaf.id] = pmax + 1
        return q

    def evaluate_leaf(self, leaf, points):
        """Values and physical gradients of the leaf's active functions.

        points: (n, 2) physical coordinates inside the leaf's closed box.
        Returns (values (n, N), gradients (n, N, 2)) with columns in
        leaf_dofs order.
        """
        n, frames = self._frames(leaf, points)
        size = sum(plan[0].size for plan, _, _ in frames)
        # mode-major buffers, a row block per chain element; callers get
        # transposed views, the strides the einsum sums over the tables
        # (and so their bits) depend on
        values, grads = np.empty((size, n)), np.empty((size, n, 2))
        start = 0
        for (jx, jy, _, _), scale, ref in frames:
            jmax = max(2, int(jx.max()) + 1, int(jy.max()) + 1)
            vals_1d, ders_1d = shape_tables(jmax, ref.T.ravel())
            vx, vy = vals_1d[jx, :n], vals_1d[jy, n:]
            rows = slice(start, start + jx.size)
            np.multiply(vx, vy, out=values[rows])
            np.multiply(ders_1d[jx, :n] * vy, scale[0], out=grads[rows, :, 0])
            np.multiply(vx * ders_1d[jy, n:], scale[1], out=grads[rows, :, 1])
            start = rows.stop
        return values.T, grads.transpose(1, 0, 2)

    def _frames(self, leaf, points):
        """The points in each dof-carrying chain element's reference frame.

        Checks that they lie in the leaf's closed box; returns their count
        and one (plan, scale, clipped (n, 2) coordinates) per element.
        """
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        tol = 1e-12 * max(
            1.0, *(abs(v) for v in (*leaf.lo_f, *leaf.hi_f))
        )
        for a in range(2):
            if pts[:, a].min() < leaf.lo_f[a] - tol or pts[:, a].max() > leaf.hi_f[a] + tol:
                raise ValueError("point outside the leaf element")
        frames = []
        for elem in self.mesh.chain(leaf):
            plan = self._plan(elem)
            if plan[2].size == 0:
                continue
            lo = np.asarray(elem.lo_f, dtype=float)
            scale = 2.0 / (np.asarray(elem.hi_f, dtype=float) - lo)
            frames.append((plan, scale,
                           np.clip((pts - lo) * scale - 1.0, -1.0, 1.0)))
        return pts.shape[0], frames

    def leaf_frames(self, leaves, points):
        """``_frames`` of many leaves of one level at once.

        points: (m, n, 2), row i inside leaf i's closed box.  Applies the
        range check and the operations of ``_frames`` to all rows and
        returns one (plans, scale (m, 2), clipped coordinates (m, n, 2))
        per chain position, base first, where plans[i] is leaf i's
        element plan; a position without dofs on any leaf is left out.
        """
        pts = np.asarray(points, dtype=float)
        lo = np.array([leaf.lo_f for leaf in leaves], dtype=float)
        hi = np.array([leaf.hi_f for leaf in leaves], dtype=float)
        tol = 1e-12 * np.maximum(1.0, np.abs(np.hstack((lo, hi))).max(axis=1))
        if (np.any(pts.min(axis=1) < lo - tol[:, None])
                or np.any(pts.max(axis=1) > hi + tol[:, None])):
            raise ValueError("point outside the leaf element")
        frames = []
        for elems in zip(*(self.mesh.chain(leaf) for leaf in leaves)):
            plans = [self._plan(elem) for elem in elems]
            if not any(plan[2].size for plan in plans):
                continue
            lo = np.array([elem.lo_f for elem in elems], dtype=float)
            scale = 2.0 / (np.array([elem.hi_f for elem in elems],
                                    dtype=float) - lo)
            frames.append((plans, scale, np.clip(
                (pts - lo[:, None]) * scale[:, None] - 1.0, -1.0, 1.0)))
        return frames


def interpolate_nodal(basis, func):
    """Coefficients reproducing `func` through the nodal layers.

    Walks the levels from coarse to fine and gives every active node the
    mismatch between `func` and the partial field built so far; edge and
    interior modes stay zero.  Fields that are multilinear on every active
    leaf (constants, global linears) come out exactly.
    """
    mesh = basis.mesh
    coeffs = np.zeros(basis.dofmap.total)
    nodes = [e for e in basis.dofmap.active_entities if e.kind == NODE]
    nodes.sort(key=lambda e: (e.level, e.index))
    for ent in nodes:
        pt = mesh.node_point(ent)
        leaf = mesh.locate_leaf(pt)
        gids = basis.leaf_dofs(leaf)
        vals, _ = basis.evaluate_leaf(leaf, pt[None, :])
        partial = float(vals[0] @ coeffs[gids])
        target = float(func(pt))
        coeffs[basis.dofmap.index_of(ent, 0)] = target - partial
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

    def _locate(self, pt):
        leaf = self.basis.mesh.locate_leaf(pt)
        if leaf is None:
            raise ValueError(f"point {pt} is outside the mesh")
        return leaf

    def value(self, points):
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        out = np.empty(pts.shape[0])
        for i, pt in enumerate(pts):
            leaf = self._locate(pt)
            vals, _ = self.basis.evaluate_leaf(leaf, pt[None, :])
            out[i] = vals[0] @ self.coefficients[self.basis.leaf_dofs(leaf)]
        return out

    def gradient(self, points):
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        out = np.empty((pts.shape[0], 2))
        for i, pt in enumerate(pts):
            leaf = self._locate(pt)
            _, grads = self.basis.evaluate_leaf(leaf, pt[None, :])
            coef = self.coefficients[self.basis.leaf_dofs(leaf)]
            out[i] = grads[0].T @ coef
        return out
