"""Poisson operators on the overlay basis: element systems, boundary data,
serial assembly, and energy-norm error measurement.

Element systems are integrated with the composed Gauss rules from
:mod:`overlayfem.quadrature`, a leaf's rule being its slice of the
step's rule table; an embedded domain scales each point by its
indicator factor.  One kernel, :func:`element_system`, yields a leaf's
stiffness matrix and source load together.  It evaluates the basis once
on all of the leaf's points and sums cell by cell, so a cut leaf costs
one evaluation however many cells its spacetree has.  The serial
assembly calls it for every leaf; the distributed pipeline only for
leaves whose rule has several cells.

Refinement never replaces an element, so most leaves of a step repeat
one another bit for bit.  :func:`leaf_systems` integrates the leaves with
one cell in the table (every uncut leaf) once per step: it computes every
such leaf's signature with array operations, the exact inputs of its K,
contracts one representative per distinct signature, and keeps the K
of each signature, plus f per signature and source values, in a memo on
the Basis that the distributed integration reads.

Homogeneous Dirichlet conditions are imposed by symmetric elimination:
the constrained rows and columns are dropped from the system and
restored as zeros in the solution vector.  Inhomogeneous flux (Neumann)
data enters through 1d edge rules on the domain boundary, one flux call
per group of like sides, kept in the same per-step memo.

The energy-error integrator upgrades every leaf rule by a couple of Gauss
points and, on leaves whose closure holds a declared singular point, peels
dyadic shells toward that corner so the non-smooth remainder is integrated
accurately instead of polluting the measurement; the shell rule lives in
the reference square and is built once per (corner, levels, order).
Without an embedded domain the other leaves run grouped by (order,
level), like :func:`leaf_systems`: the exact gradient is called once per
group, and the basis tables are evaluated once per distinct table
signature and applied to every leaf that has it; :func:`table_signatures`
does that grouping for the leaf systems, the flux loads and the probes
of ``solution.csv`` too.  Under a domain the other leaves read their
raised-order spacetree rules from one table.  A singular
leaf, and under a domain every leaf, is evaluated once on the points of
all its cells or shells.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import scipy.sparse
import scipy.sparse.linalg

from .mesh import EDGE, NODE
from .quadrature import (box_rule, build_leaf_rules, gauss_rule_1d,
                         leaf_frame, leaf_rule, leaf_rule_table,
                         reference_rule)


def element_system(basis, leaf, domain=None, depth=0, source=None):
    """Leaf stiffness matrix, source load, and global dof indices.

    Returns (K, f, gids) with K of shape (n, n) over the active shape
    functions on the leaf, in leaf_dofs order, and f of shape (n,) for a
    volume source term (None without one).  Both come from one pass over
    the leaf's cells in the step's rule table: its points are mapped and
    evaluated at once, then summed cell by cell.
    """
    rule = leaf_rule(basis, leaf, domain, depth)
    pts, jac = leaf_frame(basis, leaf, rule.points)
    V, G = basis.evaluate_leaf(leaf, pts)
    w = rule.weights * rule.alpha * jac
    n = basis.leaf_mode_count(leaf)
    K = np.zeros((n, n))
    f = None if source is None else np.zeros(n)
    for cell in rule.cells():
        K += np.einsum("q,qid,qjd->ij", w[cell], G[cell], G[cell])
        if f is not None:
            src = np.asarray(source(pts[cell]), dtype=float)
            f += V[cell].T @ (w[cell] * src)
    return K, f, basis.leaf_dofs(leaf)


@dataclass
class LeafSystems:
    """Stiffness matrices and loads of one step's single-cell leaves.

    Arrays run over the active leaves in pre-order, the Basis's first
    table rows.  ``signature`` indexes ``stiffness`` and is -1 for a leaf
    whose rule has several cells; ``load`` indexes ``loads`` (a fluxed
    leaf's own: source plus flux) and is -1 for those and for a leaf
    without a load.  ``flux_loads`` maps the position of each multi-cell
    leaf a flux reaches to its boundary-flux load.
    """

    signature: np.ndarray
    load: np.ndarray
    stiffness: list
    loads: list
    flux_loads: dict


def leaf_systems(basis, domain=None, depth=0, source=None, flux=None,
                 flux_part=None):
    """The step's single-cell leaf systems and flux loads, built once per
    Basis.

    The first call for a (domain, depth, source, flux, flux_part) builds
    them for every active leaf and keeps them in ``basis.leaf_systems``;
    the key holds the arguments themselves, so a worker that unpickled
    the Basis reads the entry for its equal arguments.
    """
    key = (depth, domain, source, flux, flux_part)
    systems = basis.leaf_systems.get(key)
    if systems is None:
        systems = basis.leaf_systems[key] = _build_leaf_systems(
            basis, domain, depth, source, flux, flux_part)
    return systems


def _build_leaf_systems(basis, domain, depth, source, flux, flux_part):
    """Integrate one representative per distinct single-cell signature.

    Leaves with one cell in the rule table are batched by (quadrature
    order, level).  A leaf's signature is the bytes of its weights x alpha
    x jacobian and, per dof-carrying chain element, of the plan, the scale
    and the clipped reference coordinates: every input of element_system's
    K, computed with its operations, so equal signatures give equal K bit
    for bit.  f is shared among leaves of one signature and equal source
    values.
    """
    leaves = basis.mesh.active_leaf_elements()
    rule, leaf_cells = leaf_rule_table(basis, domain, depth)
    signature = np.full(len(leaves), -1, dtype=np.int64)
    load = np.full(len(leaves), -1, dtype=np.int64)
    stiffness, loads = [], []
    start = np.asarray(rule.offsets)[leaf_cells[:-1]]
    groups = {}
    for i in np.flatnonzero(np.diff(leaf_cells) == 1).tolist():
        groups.setdefault((int(basis.quad_orders[i]), int(basis.levels[i])),
                          []).append(i)
    for (q, _), idx in groups.items():
        idx = np.array(idx)
        at = start[idx, None] + np.arange(q * q)
        pts, jac = leaf_frame(basis, leaves[idx], rule.points[at])
        w = rule.weights[at] * rule.alpha[at] * jac[:, None]
        first, inverse, tables = table_signatures(basis, idx, pts,
                                                   w.view(np.uint64))
        signature[idx] = len(stiffness) + inverse
        for r, (_, G) in zip(first, tables):
            K = np.zeros((G.shape[1], G.shape[1]))
            K += np.einsum("q,qid,qjd->ij", w[r], G, G)
            K.flags.writeable = False
            stiffness.append(K)
        if source is None:
            continue
        by_value = {}
        for j, i in enumerate(idx):
            src = np.asarray(source(pts[j]), dtype=float)
            key = (inverse[j], src.tobytes())
            if key not in by_value:
                V = tables[inverse[j]][0]
                f = np.zeros(V.shape[1])
                f += V.T @ (w[j] * src)
                f.flags.writeable = False
                by_value[key] = len(loads)
                loads.append(f)
            load[i] = by_value[key]
    flux_loads = {} if flux is None else flux_loads_by_leaf(basis, flux,
                                                            flux_part)
    for i in [i for i in flux_loads if signature[i] >= 0]:
        fl = flux_loads.pop(i)
        f = fl if load[i] < 0 else loads[load[i]] + fl
        f.flags.writeable = False
        load[i] = len(loads)
        loads.append(f)
    return LeafSystems(signature, load, stiffness, loads, flux_loads)


def table_signatures(basis, rows, pts, *extra):
    """Group leaves of one level by the exact inputs of their basis tables.

    rows: active leaves' Basis table rows; pts: (m, n, 2), row i on leaf i.
    A leaf's key is, per dof-carrying chain element
    (``Basis.leaf_frames``), the element's plan, its scale and the points'
    clipped reference coordinates, as raw bits, followed by the (m, k)
    uint64 columns of `extra`: equal keys give equal ``evaluate_leaf``
    tables bit for bit.  Returns the index of the first leaf of every
    distinct key, each leaf's key number, and per key the
    ``evaluate_leaf`` tables of its first leaf.
    """
    keys = list(extra)
    for plans, scale, ref in basis.leaf_frames(rows, pts):
        live = (plans >= 0)[:, None]
        keys += [plans.view(np.uint64)[:, None],
                 np.where(live, scale.view(np.uint64), 0),
                 np.where(live, ref.reshape(len(rows), -1).view(np.uint64), 0)]
    table = np.hstack(keys)
    raw, width = table.tobytes(), table.shape[1] * table.itemsize
    number = {}
    inverse = np.array([number.setdefault(raw[j * width:(j + 1) * width],
                                          len(number))
                        for j in range(len(rows))], dtype=np.int64)
    # keys are numbered in order of appearance
    first = np.unique(inverse, return_index=True)[1]
    leaves = basis.mesh.active_leaf_elements()
    return first, inverse, [basis.evaluate_leaf(leaves[rows[r]], pts[r])
                            for r in first]


def assemble_serial(basis, domain=None, depth=0, source=None):
    """Global stiffness matrix (CSR) and load vector, one rank."""
    total = basis.dofmap.total
    rows, cols, vals = [], [], []
    f = np.zeros(total)
    for leaf in basis.mesh.active_leaf_elements():
        K, fe, gids = element_system(basis, leaf, domain, depth, source)
        gi = np.repeat(gids, len(gids))
        gj = np.tile(gids, len(gids))
        rows.append(gi)
        cols.append(gj)
        vals.append(K.ravel())
        if fe is not None:
            np.add.at(f, gids, fe)
    K = scipy.sparse.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(total, total),
    ).tocsr()
    return K, f


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
    n = len(basis.mesh.active_leaf_elements())
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


def neumann_load(basis, flux, part=None):
    """Boundary load vector from a normal-flux density, all ranks' leaves."""
    f = np.zeros(basis.dofmap.total)
    leaves = basis.mesh.active_leaf_elements()
    for i, fl in flux_loads_by_leaf(basis, flux, part).items():
        np.add.at(f, basis.leaf_dofs(leaves[i]), fl)
    return f


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

    @property
    def n_constrained(self):
        return self.total - self.free.size

    def reduce(self, K, f=None):
        Kff = K[self.free][:, self.free].tocsr()
        if f is None:
            return Kff
        return Kff, f[self.free]

    def expand(self, u_free):
        u = np.zeros(self.total)
        u[self.free] = u_free
        return u


def solve_dirichlet(basis, dirichlet, domain=None, depth=0, source=None,
                    flux=None, flux_part=None):
    """Assemble and solve one Poisson problem serially, direct solver."""
    K, f = assemble_serial(basis, domain, depth, source)
    if flux is not None:
        f = f + neumann_load(basis, flux, flux_part)
    Kff, ff = dirichlet.reduce(K, f)
    u_free = scipy.sparse.linalg.spsolve(Kff.tocsc(), ff)
    return dirichlet.expand(u_free)


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


def energy_error(basis, coefficients, exact_gradient, singular_point=None,
                 extra_order=2, corner_levels=40, domain=None, depth=0):
    """Energy-norm distance between a coefficient vector and a reference.

    Every leaf is re-integrated at its rule order plus `extra_order`.
    Leaves whose closure contains `singular_point` swap the single rule
    for dyadic corner shells, which keeps the r^(2/3)-type remainder from
    dominating the quadrature error.  `exact_gradient` must act point by
    point: it is called on the points of many leaves at once.

    Without a domain the other leaves are grouped by (order, level):
    one ``exact_gradient`` call per group and one basis evaluation per
    distinct table signature.  Under a domain their spacetree rules are
    slices of one ``build_leaf_rules`` table at the raised order.  A singular
    leaf, and under a domain every leaf, is evaluated once on all of its
    cells' points.
    The terms are added to one running sum in leaf pre-order, cell by
    cell, so the result does not depend on the grouping.
    """
    coefficients = np.asarray(coefficients, dtype=float)
    leaves = basis.mesh.active_leaf_elements()
    lo, hi = basis.lo_f[:len(leaves)], basis.hi_f[:len(leaves)]
    if singular_point is None:
        singular = np.zeros(len(leaves), dtype=bool)
    else:
        sp = np.asarray(singular_point, dtype=float)
        singular = np.all((lo <= sp) & (sp <= hi), axis=1)
    terms = [None] * len(leaves)
    groups = {}
    spacetrees = []  # the other leaves under a domain
    orders = basis.quad_orders + extra_order
    for i, (leaf, q, level) in enumerate(zip(leaves, orders.tolist(),
                                             basis.levels.tolist())):
        if singular[i]:
            # reference coordinates of the singular corner: one of the vertices
            ref = 2 * (sp - lo[i]) / (hi[i] - lo[i]) - 1
            corner = tuple(np.where(ref >= 0, 1.0, -1.0).tolist())
            alpha = None if domain is None else domain.alpha
            terms[i] = _leaf_error_terms(
                basis, leaf, corner_rule(corner, corner_levels, q),
                coefficients, exact_gradient, alpha)
        elif domain is None:
            groups.setdefault((q, level), []).append(i)
        else:
            spacetrees.append(i)
    table, leaf_cells = build_leaf_rules(basis, leaves[spacetrees], domain,
                                         depth, extra_order)
    bounds = leaf_cells.tolist()
    for i, a, b in zip(spacetrees, bounds, bounds[1:]):
        terms[i] = _leaf_error_terms(basis, leaves[i], table.cell_range(a, b),
                                     coefficients, exact_gradient)
    for (q, _), idx in groups.items():
        rule = reference_rule(q)
        pts, jac = leaf_frame(basis, leaves[idx], rule.points)
        w = rule.weights * jac[:, None] * rule.alpha
        exact = np.asarray(exact_gradient(pts.reshape(-1, 2)),
                           dtype=float).reshape(pts.shape)
        _, inverse, tables = table_signatures(basis, idx, pts)
        for k, (_, G) in enumerate(tables):
            rows = np.flatnonzero(inverse == k)
            dofs = basis.leaf_dof_block(np.asarray(idx)[rows])
            # the per-leaf contractions, batched over the leaves that
            # share G: the same sums in the same order
            diff = (np.einsum("qid,mi->mqd", G, coefficients[dofs])
                    - exact[rows])
            sq = np.einsum("mq,mqd,mqd->m", w[rows], diff, diff)
            for j, term in zip(rows.tolist(), sq.tolist()):
                terms[idx[j]] = (term,)
    acc = 0.0
    for cells in terms:
        for term in cells:
            acc += term
    return float(np.sqrt(acc))


def _leaf_error_terms(basis, leaf, rule, coefficients, exact_gradient,
                      alpha=None):
    """One leaf's squared error per cell of its rule, from one evaluation
    of the tables, the discrete and the exact gradient on all its points.

    `alpha` replaces the rule's indicator values when given.
    """
    pts, jac = leaf_frame(basis, leaf, rule.points)
    _, G = basis.evaluate_leaf(leaf, pts)
    coef = coefficients[basis.leaf_dofs(leaf)]
    diff = (np.einsum("qid,i->qd", G, coef)
            - np.asarray(exact_gradient(pts), dtype=float))
    w = rule.weights * jac * (rule.alpha if alpha is None else alpha(pts))
    return [float(np.einsum("q,qd,qd->", w[cell], diff[cell], diff[cell]))
            for cell in rule.cells()]
