"""Leaf partitioning for the simulated multi-rank runtime.

Active leaves are the unit of distribution.  Their stable global order is
the depth-first pre-order the mesh already yields, and every partitioner
returns one rank id per leaf in that order.  Two strategies are built:

* contiguous -- equal-count index blocks, the baseline the other is
  measured against;
* space-filling curve -- leaves sorted along a Hilbert curve, then split
  into consecutive chunks by an optimal weighted bottleneck cut.

Leaf weights follow the cost model w = n_GP * N^3 (quadrature points times
the cubed count of active shape functions), normalized by the weight of an
unrefined element at the base order so an ordinary leaf sits near 1.
"""
from __future__ import annotations

import numpy as np

from .quadrature import leaf_rule_table


def compute_leaf_weights(basis, domain=None, depth=0):
    """Cost-model weight of each active leaf, pre-order; n_GP is q^2 at
    quadrature order q, or under a domain from the step's rule table."""
    n = len(basis.leaves)
    n_gp = basis.quad_orders[:n] ** 2
    if domain is not None:
        rule, leaf_cells = leaf_rule_table(basis, domain, depth)
        n_gp = np.diff(np.asarray(rule.offsets)[leaf_cells])
    w = n_gp.astype(float) * basis.mode_counts[:n].astype(float) ** 3
    p0 = basis.orders.base_order
    w0 = float((p0 + 1) ** 2) * float((p0 + 1) ** 2) ** 3
    return w / w0


def weighted_imbalance(weights, ranks, n_ranks):
    """Heaviest rank weight over the ideal share."""
    weights = np.asarray(weights, dtype=float)
    ideal = weights.sum() / n_ranks
    return float(rank_weight_sums(weights, ranks, n_ranks).max() / ideal)


def rank_weight_sums(weights, ranks, n_ranks):
    return np.bincount(np.asarray(ranks), weights=np.asarray(weights, dtype=float),
                       minlength=n_ranks)


def partition_contiguous(n_leaves, n_ranks):
    """Equal-count index blocks: leaf i goes to rank floor(i * P / L)."""
    if n_leaves < 1 or n_ranks < 1:
        raise ValueError("need at least one leaf and one rank")
    idx = np.arange(n_leaves, dtype=np.int64)
    return (idx * n_ranks // n_leaves).astype(np.int64)


# ----------------------------------------------------------------------
# space-filling-curve partitioner

def hilbert_index(order, x, y):
    """Position of cells (x, y) along the Hilbert curve of a 2^order grid.

    x and y are integers or integer arrays of one shape; every cell is
    walked down the curve at once, with int64 bit operations.
    """
    x = np.array(x, dtype=np.int64)
    y = np.array(y, dtype=np.int64)
    d = np.zeros_like(x)
    s = (1 << order) >> 1
    while s > 0:
        rx = (x & s) > 0
        ry = (y & s) > 0
        d += s * s * ((3 * rx) ^ ry)
        flip = rx & ~ry
        x = np.where(flip, s - 1 - x, x)
        y = np.where(flip, s - 1 - y, y)
        x, y = np.where(ry, x, y), np.where(ry, y, x)
        s >>= 1
    return d if d.ndim else int(d)


def _optimal_interval_cut(weights, n_ranks):
    """Split a weight chain into consecutive chunks minimizing the
    heaviest chunk (classic chains-on-chains bottleneck problem)."""
    w = np.asarray(weights, dtype=float)
    n = w.size
    top = float(w.max())
    sums = {}   # chunk start -> running sums from it, shared by the probes

    def fits(bound):
        # greedy chunks: each one's running sums are the sequential float
        # additions of a scalar scan, and it ends before the first sum
        # above the bound
        if top > bound:
            return False
        start = 0
        for _ in range(n_ranks):
            if start not in sums:
                sums[start] = np.cumsum(w[start:])
            start += int(np.searchsorted(sums[start], bound, side="right"))
            if start == n:
                return True
        return False

    # bisect for at most 100 probes; a probe that moves neither end
    # would be repeated by every later one, so the search stops there
    lo, hi = top, float(w.sum())
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        bracket = (lo, mid) if fits(mid) else (mid, hi)
        if bracket == (lo, hi):
            break
        lo, hi = bracket
    bound = hi * (1 + 1e-12)
    ranks = np.empty(n, dtype=np.int64)
    r = 0
    acc = 0.0
    for i, v in enumerate(w.tolist()):
        # keep every trailing rank populated; a forced singleton chunk
        # still respects the bound because no single item exceeds it
        must_break = (n - i) == (n_ranks - r) and acc > 0.0
        if (must_break or (acc + v > bound and acc > 0.0)) and r < n_ranks - 1:
            r += 1
            acc = 0.0
        ranks[i] = r
        acc += v
    return ranks


def partition_sfc(mesh, weights, n_ranks, grid_order=14):
    """Hilbert-ordered bottleneck cut, never worse than the contiguous cut.

    The leaf centers are quantized onto a 2^grid_order lattice over the
    mesh bounding box and sorted along the Hilbert curve; the weight chain
    is then split optimally.  The same optimal cut on plain pre-order is
    kept as a safety net, so the result is at least as balanced as any
    contiguous blocking.
    """
    weights = np.asarray(weights, dtype=float)
    leaves = mesh.active_leaf_elements()
    if len(leaves) != weights.size:
        raise ValueError("one weight per active leaf required")
    centers = (mesh.elements.lo_f[leaves] + mesh.elements.hi_f[leaves]) / 2
    lo = centers.min(axis=0)
    hi = centers.max(axis=0)
    span = np.where(hi > lo, hi - lo, 1.0)
    n = 1 << grid_order
    cells = np.clip(((centers - lo) / span * (n - 1)).astype(np.int64), 0, n - 1)
    keys = hilbert_index(grid_order, cells[:, 0], cells[:, 1])
    order = np.argsort(keys, kind="stable")

    curve_ranks = _optimal_interval_cut(weights[order], n_ranks)
    sfc = np.empty(weights.size, dtype=np.int64)
    sfc[order] = curve_ranks
    plain = _optimal_interval_cut(weights, n_ranks)

    if (weighted_imbalance(weights, sfc, n_ranks)
            <= weighted_imbalance(weights, plain, n_ranks)):
        return sfc
    return plain


PARTITIONERS = ("contiguous", "sfc")


def partition_leaves(method, mesh, basis, weights, n_ranks):
    """Dispatch by name; returns one rank per active leaf, pre-order.
    Neither strategy reads ``basis``."""
    if method == "contiguous":
        return partition_contiguous(len(weights), n_ranks)
    if method == "sfc":
        return partition_sfc(mesh, weights, n_ranks)
    raise ValueError(f"unknown partitioner {method!r}; pick from {PARTITIONERS}")
