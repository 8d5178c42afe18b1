"""Leaf weighting and the two partitioning strategies.

The interval-cut solver is checked against brute-force enumeration of
every consecutive split, and the curve-based partitioner against its
contract: never worse balanced than the plain contiguous split.
"""

import itertools

import numpy as np
import pytest

from conftest import (single_patch, random_refined_mesh, random_orders,
                      interval_cut_oracle,
                      leaf_mode_count, leaf_quad_order)
from overlayfem.basis import Basis, PolynomialOrderField
from overlayfem.quadrature import reference_rule
from overlayfem.partition import (
    compute_leaf_weights, weighted_imbalance, rank_weight_sums,
    partition_contiguous, hilbert_index, _optimal_interval_cut,
    partition_sfc, partition_leaves, PARTITIONERS,
)


# ------------------------------------------------------------- weights


def test_uniform_base_mesh_weights_are_one():
    mesh = single_patch(3)
    basis = Basis(mesh, PolynomialOrderField(uniform=4))
    w = compute_leaf_weights(basis)
    assert np.allclose(w, 1.0)


def test_weights_follow_cost_model():
    rng = np.random.default_rng(19)
    mesh = random_refined_mesh(rng)
    basis = Basis(mesh, random_orders(rng, mesh))
    # n_GP N^3 leaf by leaf, over the weight of a base-order leaf
    raw = np.array([float(leaf_quad_order(basis, leaf) ** 2)
                    * float(leaf_mode_count(basis, leaf)) ** 3
                    for leaf in mesh.active_leaf_elements()])
    p0 = basis.orders.base_order
    w0 = float((p0 + 1) ** 2) * float((p0 + 1) ** 2) ** 3
    assert np.array_equal(compute_leaf_weights(basis), raw / w0)


def test_weights_without_domain_build_no_rule_table():
    # n_GP = q^2 read off the orders equals the point counts of the
    # leaves' reference rules, and no rule table is built for it
    rng = np.random.default_rng(20)
    mesh = random_refined_mesh(rng)
    basis = Basis(mesh, random_orders(rng, mesh))
    weights = compute_leaf_weights(basis)
    assert basis.leaf_rules == {}
    n_gp = np.array([reference_rule(leaf_quad_order(basis, leaf)).weights.size
                     for leaf in mesh.active_leaf_elements()], dtype=float)
    p0 = basis.orders.base_order
    w0 = float((p0 + 1) ** 2) * float((p0 + 1) ** 2) ** 3
    assert np.array_equal(
        weights, n_gp * basis.mode_counts[:n_gp.size].astype(float) ** 3 / w0)


def test_imbalance_and_rank_sums():
    weights = np.array([3.0, 1.0, 2.0, 2.0])
    ranks = np.array([0, 0, 1, 1])
    assert rank_weight_sums(weights, ranks, 2) == pytest.approx([4.0, 4.0])
    assert weighted_imbalance(weights, ranks, 2) == pytest.approx(1.0)
    assert weighted_imbalance(weights, [0, 1, 1, 1], 2) == pytest.approx(5.0 / 4.0)


# ---------------------------------------------------------- contiguous


def test_contiguous_blocks():
    for n, P in [(10, 4), (7, 3), (5, 5), (4, 8), (100, 7)]:
        ranks = partition_contiguous(n, P)
        assert len(ranks) == n
        assert list(ranks) == sorted(ranks)
        sizes = np.bincount(ranks, minlength=P)
        used = sizes[sizes > 0]
        assert used.max() - used.min() <= 1
        if n >= P:
            assert (sizes > 0).all()


# -------------------------------------------------------- hilbert curve


def test_hilbert_index_is_a_space_filling_curve():
    for order in (1, 2, 3, 4):
        side = 1 << order
        idx = {(x, y): hilbert_index(order, x, y) for x in range(side) for y in range(side)}
        assert sorted(idx.values()) == list(range(side * side))
        walk = sorted(idx, key=idx.get)
        for (x0, y0), (x1, y1) in zip(walk, walk[1:]):
            assert abs(x0 - x1) + abs(y0 - y1) == 1


def scalar_hilbert_index(order, x, y):
    """The one-cell loop hilbert_index replaced, the oracle below."""
    rx = ry = 0
    d = 0
    s = (1 << order) >> 1
    while s > 0:
        rx = 1 if (x & s) > 0 else 0
        ry = 1 if (y & s) > 0 else 0
        d += s * s * ((3 * rx) ^ ry)
        if ry == 0:
            if rx == 1:
                x = s - 1 - x
                y = s - 1 - y
            x, y = y, x
        s >>= 1
    return d


def test_hilbert_index_arrays_match_scalar_loop():
    rng = np.random.default_rng(37)
    for order in (1, 3, 7, 14, 20):
        side = 1 << order
        x = rng.integers(0, side, size=200)
        y = rng.integers(0, side, size=200)
        keys = hilbert_index(order, x, y)
        assert keys.dtype == np.int64 and keys.shape == x.shape
        assert keys.tolist() == [scalar_hilbert_index(order, int(a), int(b))
                                 for a, b in zip(x, y)]
        assert hilbert_index(order, int(x[0]), int(y[0])) == keys[0]


# ------------------------------------------------------- interval cuts


def test_interval_cut_matches_scalar_scan():
    # the same float additions decide every bisection step, so the cuts
    # agree exactly, also on chains with repeated and tiny weights
    rng = np.random.default_rng(97)
    for trial in range(300):
        n = int(rng.integers(1, 60))
        n_ranks = int(rng.integers(1, 10))
        kind = trial % 3
        if kind == 0:
            weights = rng.uniform(0.01, 5.0, size=n)
        elif kind == 1:
            weights = rng.choice([0.5, 1.0, 1.0 / 3.0, 7.25], size=n)
        else:
            weights = rng.lognormal(0.0, 2.0, size=n)
        assert np.array_equal(_optimal_interval_cut(weights, n_ranks),
                              interval_cut_oracle(weights, n_ranks))


def test_interval_cut_matches_oracle_where_the_max_fits():
    # when the heaviest weight is itself a feasible bound, the bisection
    # closes onto it and stops at the first probe that moves neither
    # end; the cut is the one the full 100 probes give
    rng = np.random.default_rng(53)
    chains = [(np.ones(12), 4), (np.ones(5), 5), (np.ones(3), 8),
              (np.array([1.0, 100.0, 1.0, 1.0]), 3)]
    for _ in range(100):
        n = int(rng.integers(1, 20))
        chains.append((rng.lognormal(0.0, 1.5, size=n),
                       int(rng.integers(n, n + 4))))
        spike = rng.uniform(0.0, 1.0, size=n)
        spike[int(rng.integers(n))] = spike.sum() + 1.0
        chains.append((spike, 3))
    max_fits = 0
    for weights, n_ranks in chains:
        ranks = _optimal_interval_cut(weights, n_ranks)
        assert np.array_equal(ranks, interval_cut_oracle(weights, n_ranks))
        max_fits += bool(max(rank_weight_sums(weights, ranks, n_ranks))
                         == weights.max())
    assert max_fits > len(chains) // 2


def interval_cut_uncached(weights, n_ranks):
    """The bottleneck cut with a fresh running sum per chunk start of
    every probe, and the final scan over numpy scalars."""
    w = np.asarray(weights, dtype=float)
    n = w.size

    def fits(bound):
        if w.max() > bound:
            return False
        start = 0
        for _ in range(n_ranks):
            start += int(np.searchsorted(np.cumsum(w[start:]), bound,
                                         side="right"))
            if start == n:
                return True
        return False

    lo = float(w.max())
    hi = float(w.sum())
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
    for i, v in enumerate(w):
        must_break = (n - i) == (n_ranks - r) and acc > 0.0
        if (must_break or (acc + v > bound and acc > 0.0)) and r < n_ranks - 1:
            r += 1
            acc = 0.0
        ranks[i] = r
        acc += v
    return ranks


def test_interval_cut_reuses_running_sums_bit_for_bit():
    # one running sum per chunk start, shared by the probes, and a final
    # scan over Python floats cut exactly as before
    rng = np.random.default_rng(71)
    chains = [(np.array([2.5]), 1), (np.array([2.5]), 4),
              (np.ones(6), 6), (np.ones(6), 9), (np.full(40, 0.1), 7)]
    for _ in range(40):
        n = int(rng.integers(1, 200))
        chains += [(rng.lognormal(0.0, 1.5, size=n), int(rng.integers(1, 17))),
                   (rng.choice([0.1, 1.0, 1.0 / 3.0, 8.0], size=n),
                    int(rng.integers(1, 17))),
                   (rng.uniform(0.5, 2.0, size=n), int(rng.integers(n, n + 3)))]
    for weights, n_ranks in chains:
        assert np.array_equal(_optimal_interval_cut(weights, n_ranks),
                              interval_cut_uncached(weights, n_ranks))


def brute_force_bottleneck(weights, n_ranks):
    n = len(weights)
    best = float("inf")
    for k in range(1, min(n, n_ranks) + 1):
        for cuts in itertools.combinations(range(1, n), k - 1):
            edges = [0, *cuts, n]
            bottleneck = max(sum(weights[a:b]) for a, b in zip(edges, edges[1:]))
            best = min(best, bottleneck)
    return best


def test_interval_cut_is_optimal():
    rng = np.random.default_rng(31)
    for _ in range(25):
        n = int(rng.integers(1, 13))
        P = int(rng.integers(1, 5))
        weights = rng.uniform(0.1, 5.0, size=n)
        ranks = _optimal_interval_cut(weights, P)
        assert len(ranks) == n
        assert list(ranks) == sorted(ranks)
        got = max(rank_weight_sums(weights, ranks, P))
        assert got == pytest.approx(brute_force_bottleneck(list(weights), P), rel=1e-9)


def test_interval_cut_handles_spikes():
    weights = np.array([1.0, 100.0, 1.0, 1.0])
    ranks = _optimal_interval_cut(weights, 3)
    assert max(rank_weight_sums(weights, ranks, 3)) == pytest.approx(100.0)


# ----------------------------------------------------------------- sfc


def test_sfc_beats_or_matches_contiguous():
    rng = np.random.default_rng(43)
    for _ in range(10):
        mesh = random_refined_mesh(rng)
        basis = Basis(mesh, random_orders(rng, mesh))
        w = compute_leaf_weights(basis)
        P = int(rng.integers(2, 9))
        sfc = partition_sfc(mesh, w, P)
        cont = partition_contiguous(len(w), P)
        assert weighted_imbalance(w, sfc, P) <= weighted_imbalance(w, cont, P) + 1e-12
        assert sfc.min() >= 0 and sfc.max() < P
        if len(w) >= P:
            assert len(np.unique(sfc)) == P


def test_sfc_single_rank():
    mesh = single_patch(2)
    basis = Basis(mesh, PolynomialOrderField(uniform=2))
    w = compute_leaf_weights(basis)
    assert np.all(partition_sfc(mesh, w, 1) == 0)


# ------------------------------------------------------------ dispatcher


def test_partition_leaves_dispatch():
    rng = np.random.default_rng(71)
    mesh = random_refined_mesh(rng)
    basis = Basis(mesh, random_orders(rng, mesh))
    w = compute_leaf_weights(basis)
    assert PARTITIONERS == ("contiguous", "sfc")
    for method in PARTITIONERS:
        ranks = partition_leaves(method, mesh, basis, w, 3)
        assert len(ranks) == len(w)
        assert ranks.min() >= 0 and ranks.max() < 3
    for gone in ("metis", "graph"):
        with pytest.raises(ValueError):
            partition_leaves(gone, mesh, basis, w, 3)
