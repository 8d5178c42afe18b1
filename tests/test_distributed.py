"""Simulated multi-rank pipeline: ownership, exchange, and the solver.

The pivotal oracle is the serial path: whatever the rank count and
partition, the gathered distributed operator must reproduce the serial
reduced system entry for entry, and the preconditioned CG trace must
not depend on the rank count at all.
"""

import json

import numpy as np
import pytest
import scipy.sparse.linalg as spla

from conftest import single_patch, random_refined_mesh, random_orders
from overlayfem.mesh import Mesh
from overlayfem.basis import Basis, PolynomialOrderField
from overlayfem.physics import assemble_serial, DirichletMap, LShapeSolution
from overlayfem.partition import partition_leaves, compute_leaf_weights
from overlayfem.distributed import (
    SolverError, distribute_dofs_contiguous, distribute_dofs_graph,
    integrate_rank_system, exchange_and_assemble, parallel_cg,
    run_step,
)
from overlayfem.benchmarks import lshape_mesh_spec, lshape_dirichlet, unit_source


def on_square_boundary(p):
    return min(p[0], p[1]) < 1e-12 or max(p[0], p[1]) > 1 - 1e-12


def bumpy_source(pts):
    return 1.0 + pts[:, 0] * np.sin(3.0 * pts[:, 1])


def split_and_assemble(basis, dirichlet, ranks, n_ranks, dof_distribution="graph",
                       source=None):
    """Test-side driver over the library's per-rank building blocks."""
    leaves = basis.mesh.active_leaf_elements()
    to_free = np.full(basis.dofmap.total, -1, dtype=np.int64)
    to_free[dirichlet.free] = np.arange(dirichlet.n_free)

    intermediates = []
    for r in range(n_ranks):
        mine = [i for i in range(len(leaves)) if ranks[i] == r]
        intermediates.append(integrate_rank_system(
            basis, to_free,
            [leaves[i].id for i in mine], np.asarray(mine, dtype=np.int64),
            r, source=source,
        ))

    leaf_free = [to_free[basis.leaf_dofs(leaf)] for leaf in leaves]
    leaf_free = [d[d >= 0] for d in leaf_free]
    if dof_distribution == "graph":
        owner = distribute_dofs_graph(leaf_free, ranks, dirichlet.n_free, n_ranks)
    else:
        owner = distribute_dofs_contiguous(dirichlet.n_free, n_ranks)
    system, packets = exchange_and_assemble(intermediates, owner,
                                            dirichlet.n_free, n_ranks)
    return system, packets, intermediates, owner


# ------------------------------------------------- distributed == serial


def test_distributed_system_matches_serial():
    rng = np.random.default_rng(101)
    for _ in range(8):
        mesh = random_refined_mesh(rng, max_leaves=250)
        basis = Basis(mesh, random_orders(rng, mesh))
        dirichlet = DirichletMap(basis, on_square_boundary)
        n_ranks = int(rng.integers(1, 6))
        method = ("contiguous", "sfc", "graph")[int(rng.integers(0, 3))]
        dist = ("graph", "contiguous")[int(rng.integers(0, 2))]
        w = compute_leaf_weights(basis)
        ranks = partition_leaves(method, mesh, basis, w, n_ranks)

        system, _, intermediates, _ = split_and_assemble(
            basis, dirichlet, ranks, n_ranks, dof_distribution=dist,
            source=bumpy_source)

        K, f = assemble_serial(basis, source=bumpy_source)
        K_ff, f_f = dirichlet.reduce(K, f)
        dense_serial = K_ff.toarray()
        dense_dist = system.gather_matrix().toarray()
        scale = np.abs(dense_serial).max()
        assert np.max(np.abs(dense_dist - dense_serial)) <= 1e-12 * scale
        rhs = system.gather_rhs()
        assert np.max(np.abs(rhs - f_f)) <= 1e-12 * max(1.0, np.abs(f_f).max())

        # every leaf is integrated exactly once, wherever it lives
        assert sum(s.n_leaves for s in intermediates) == len(mesh.active_leaf_elements())


def test_assembled_values_do_not_depend_on_the_partition():
    # leaf-tagged accumulation makes the merged matrix bitwise stable
    # across rank counts and partitioners
    mesh = random_refined_mesh(np.random.default_rng(7), max_leaves=200)
    basis = Basis(mesh, PolynomialOrderField(by_level={0: 3, 1: 2}))
    dirichlet = DirichletMap(basis, on_square_boundary)
    w = compute_leaf_weights(basis)

    reference = None
    for n_ranks, method in [(1, "contiguous"), (3, "sfc"), (4, "graph"), (7, "contiguous")]:
        ranks = partition_leaves(method, mesh, basis, w, n_ranks)
        system, _, _, _ = split_and_assemble(basis, dirichlet, ranks, n_ranks,
                                             source=bumpy_source)
        dense = system.gather_matrix().toarray()
        rhs = system.gather_rhs()
        if reference is None:
            reference = (dense, rhs)
        else:
            assert np.array_equal(dense, reference[0])
            assert np.array_equal(rhs, reference[1])


# ------------------------------------------------------- dof ownership


def brute_force_owner(leaf_free_dofs, leaf_ranks, n_free, n_ranks):
    tally = [dict() for _ in range(n_free)]
    for dofs, rank in zip(leaf_free_dofs, leaf_ranks):
        for dof in dofs:
            tally[dof][rank] = tally[dof].get(rank, 0) + 1
    out = np.empty(n_free, dtype=np.int64)
    for dof, counts in enumerate(tally):
        best = max(counts.values())
        out[dof] = min(r for r, c in counts.items() if c == best)
    return out


def test_majority_owner_matches_bruteforce():
    rng = np.random.default_rng(113)
    for _ in range(10):
        mesh = random_refined_mesh(rng, max_leaves=250)
        basis = Basis(mesh, random_orders(rng, mesh))
        dirichlet = DirichletMap(basis, on_square_boundary)
        n_ranks = int(rng.integers(1, 7))
        ranks = rng.integers(0, n_ranks, size=len(mesh.active_leaf_elements()))

        leaf_free = [np.asarray(sorted(set(
            int(v) for v in np.where(dirichlet.mask[basis.leaf_dofs(leaf)], -1,
                                     np.searchsorted(dirichlet.free, basis.leaf_dofs(leaf)))
            if v >= 0)), dtype=np.int64)
            for leaf in mesh.active_leaf_elements()]

        got = distribute_dofs_graph(leaf_free, ranks, dirichlet.n_free, n_ranks)
        want = brute_force_owner(leaf_free, ranks, dirichlet.n_free, n_ranks)
        assert np.array_equal(got, want)


def test_majority_owner_tie_goes_to_lower_rank():
    # two leaves share one interface; give the left leaf the higher rank
    mesh = single_patch((2, 1), bounds=((0.0, 2.0), (0.0, 1.0)))
    basis = Basis(mesh, PolynomialOrderField(uniform=2))
    dirichlet = DirichletMap(basis, lambda p: False)  # keep everything free
    to_free = np.arange(basis.dofmap.total)
    leaves = mesh.active_leaf_elements()
    leaf_free = [to_free[basis.leaf_dofs(leaf)] for leaf in leaves]
    owner = distribute_dofs_graph(leaf_free, np.array([1, 0]), basis.dofmap.total, 2)

    shared = np.intersect1d(leaf_free[0], leaf_free[1])
    only_left = np.setdiff1d(leaf_free[0], shared)
    only_right = np.setdiff1d(leaf_free[1], shared)
    assert np.all(owner[shared] == 0)      # tie: lower rank wins
    assert np.all(owner[only_left] == 1)
    assert np.all(owner[only_right] == 0)


def test_ownership_partitions_free_dofs():
    rng = np.random.default_rng(127)
    mesh = random_refined_mesh(rng, max_leaves=250)
    basis = Basis(mesh, random_orders(rng, mesh))
    dirichlet = DirichletMap(basis, on_square_boundary)
    n_ranks = 4
    w = compute_leaf_weights(basis)
    ranks = partition_leaves("sfc", mesh, basis, w, n_ranks)
    system, _, _, owner = split_and_assemble(basis, dirichlet, ranks, n_ranks)

    stacked = np.concatenate([system.own_rows[r] for r in range(n_ranks)])
    assert len(stacked) == dirichlet.n_free
    assert len(np.unique(stacked)) == dirichlet.n_free
    for r in range(n_ranks):
        assert np.all(owner[system.own_rows[r]] == r)


def test_missing_support_is_rejected():
    with pytest.raises(ValueError):
        distribute_dofs_graph([np.array([0, 1])], [0], n_free=3, n_ranks=2)


def test_contiguous_dof_blocks():
    owner = distribute_dofs_contiguous(10, 4)
    assert list(owner) == sorted(owner)
    sizes = np.bincount(owner, minlength=4)
    assert sizes.sum() == 10
    assert sizes.max() - sizes.min() <= 1


# ------------------------------------------------------ exchange metrics


def test_exchange_conserves_merged_entries():
    rng = np.random.default_rng(131)
    mesh = random_refined_mesh(rng, max_leaves=250)
    basis = Basis(mesh, random_orders(rng, mesh))
    dirichlet = DirichletMap(basis, on_square_boundary)
    n_ranks = 4
    w = compute_leaf_weights(basis)
    ranks = partition_leaves("graph", mesh, basis, w, n_ranks)
    system, packets, intermediates, owner = split_and_assemble(
        basis, dirichlet, ranks, n_ranks)

    def distinct_entries(rows, cols):
        return np.unique(np.stack([rows, cols]), axis=1).shape[1]

    for r in range(n_ranks):
        inter = intermediates[r]
        total = distinct_entries(inter.rows, inter.cols)
        home = owner[inter.rows] == r
        kept = distinct_entries(inter.rows[home], inter.cols[home])
        assert system.total_entries[r] == total
        assert system.kept_entries[r] == kept
        assert system.sent_entries[r] + system.kept_entries[r] == total
    for packet in packets:
        assert packet.src != packet.dst
        assert np.all(owner[packet.rows] == packet.dst)
        assert packet.merged_entries == distinct_entries(packet.rows,
                                                         packet.cols)

    # a single rank never ships anything
    solo, _, _, _ = split_and_assemble(basis, dirichlet,
                                       np.zeros(len(w), dtype=int), 1)
    assert solo.sent_entries == [0]


# ---------------------------------------------------------------- solver


def test_cg_matches_direct_solver():
    mesh = single_patch(4)
    mesh.refine([mesh.locate_leaf((0.1, 0.1)).id])
    basis = Basis(mesh, PolynomialOrderField(uniform=3))
    dirichlet = DirichletMap(basis, on_square_boundary)
    ranks = partition_leaves("sfc", mesh, basis, compute_leaf_weights(basis), 3)
    system, _, _, _ = split_and_assemble(basis, dirichlet, ranks, 3,
                                         source=bumpy_source)

    x, iters, history = parallel_cg(system, tol=1e-12)
    K, f = assemble_serial(basis, source=bumpy_source)
    K_ff, f_f = dirichlet.reduce(K, f)
    direct = spla.spsolve(K_ff.tocsc(), f_f)
    assert iters > 0
    assert history[-1] <= 1e-12 * np.linalg.norm(f_f)
    assert np.max(np.abs(x - direct)) < 1e-9 * max(1.0, np.abs(direct).max())


def test_cg_trace_is_rank_count_invariant():
    spec = lshape_mesh_spec(4)
    runs = []
    for n_ranks in (1, 2, 4):
        mesh = Mesh(spec)
        mesh.refine([mesh.locate_leaf((0.1, 0.1)).id])
        report, basis, solution = run_step(
            mesh, PolynomialOrderField(uniform=3), n_ranks,
            lshape_dirichlet, source=unit_source,
            partitioner="sfc", dof_distribution="graph", tol=1e-10)
        runs.append((report.cg_iterations, solution))
    iters = {it for it, _ in runs}
    assert len(iters) == 1
    for _, sol in runs[1:]:
        assert np.array_equal(sol, runs[0][1])


def test_cg_custom_rhs_and_failure():
    mesh = single_patch(3)
    basis = Basis(mesh, PolynomialOrderField(uniform=2))
    dirichlet = DirichletMap(basis, on_square_boundary)
    ranks = np.zeros(len(mesh.active_leaf_elements()), dtype=int)
    system, _, _, _ = split_and_assemble(basis, dirichlet, ranks, 1)

    rhs = np.sin(np.arange(dirichlet.n_free))
    x, _, history = parallel_cg(system, rhs=rhs, tol=1e-11)
    assert history[-1] <= 1e-11 * np.linalg.norm(rhs)
    K_ff = dirichlet.reduce(assemble_serial(basis)[0])
    assert np.allclose(K_ff @ x, rhs, atol=1e-9)

    with pytest.raises(SolverError) as err:
        parallel_cg(system, rhs=rhs, tol=1e-14, max_iter=2)
    assert len(err.value.residual_history) == 3


# ------------------------------------------------------------- run_step


def test_run_step_report_is_complete():
    mesh = Mesh(lshape_mesh_spec(2))
    exact = LShapeSolution()
    report, basis, solution = run_step(
        mesh, PolynomialOrderField(uniform=2), 3, lshape_dirichlet,
        flux=exact.flux, flux_part=lambda mid: not LShapeSolution.on_dirichlet_legs(mid),
        partitioner="sfc", dof_distribution="graph", step_index=4)

    d = report.to_dict()
    json.dumps(d)  # must be serializable as written
    assert d["step"] == 4
    assert d["leaves"] == len(mesh.active_leaf_elements())
    assert d["dofs"] == basis.dofmap.total
    assert d["ranks"] == 3
    assert set(d["timings"]) == {
        "refine", "partition", "integrate", "dof_dist",
        "assemble", "solve", "postprocess",
    }
    assert all(v >= 0 for v in d["timings"].values())
    assert len(d["per_rank"]) == 3
    for row in d["per_rank"]:
        for key in ("rank", "leaf_count", "weight_sum", "sent_triplets",
                    "kept_triplets", "owned_dofs", "halo_columns"):
            assert key in row
    assert sum(r["leaf_count"] for r in d["per_rank"]) == d["leaves"]
    assert sum(r["owned_dofs"] for r in d["per_rank"]) == d["free_dofs"]
    assert d["residual"] >= 0.0
    assert report.cg_iterations > 0
    assert solution.shape == (basis.dofmap.total,)


def test_run_step_marks_refine_first():
    mesh = Mesh(lshape_mesh_spec(2))
    before = len(mesh.active_leaf_elements())
    marks = [leaf.id for leaf in mesh.active_leaf_elements()
             if np.allclose(np.abs(np.asarray(leaf.lo_f) * np.asarray(leaf.hi_f)), 0.0)]
    report, _, _ = run_step(mesh, PolynomialOrderField(uniform=2), 2,
                            lshape_dirichlet, marks=marks[:2], source=unit_source)
    assert report.n_leaves == before + 2 * 3


def test_run_step_worker_pool_matches_inline():
    spec = lshape_mesh_spec(2)
    results = []
    for workers in (1, 2):
        mesh = Mesh(spec)
        report, _, solution = run_step(
            mesh, PolynomialOrderField(uniform=3), 2, lshape_dirichlet,
            source=unit_source, workers=workers)
        results.append((report.cg_iterations, solution))
    assert results[0][0] == results[1][0]
    assert np.array_equal(results[0][1], results[1][1])


def test_run_step_rejects_unknown_dof_distribution():
    mesh = Mesh(lshape_mesh_spec(2))
    with pytest.raises(ValueError):
        run_step(mesh, PolynomialOrderField(uniform=2), 2, lshape_dirichlet,
                 dof_distribution="roundrobin")
