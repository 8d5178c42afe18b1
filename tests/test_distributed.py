"""Simulated multi-rank pipeline: ownership, exchange, and the solver.

The pivotal oracle is the serial path: whatever the rank count and
partition, the gathered distributed operator must reproduce the serial
reduced system entry for entry, and the preconditioned CG trace must
not depend on the rank count at all.
"""

import concurrent.futures
import copy
import json
import pickle
import tracemalloc
import weakref
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse
import scipy.sparse.linalg as spla

from conftest import (leaf_at, leaf_ranks, single_patch, random_refined_mesh,
                      random_orders, stretched_basis, corner_refined,
                      element_system, leaf_flux_load, study_bases,
                      integrate_ranks, leaf_triplets, RankTriplets,
                      lexsort_assemble, assemble_serial, dirichlet_reduce,
                      distribute_dofs_contiguous)
from overlayfem.mesh import Mesh, _ranges
from overlayfem.basis import Basis, PolynomialOrderField
from overlayfem.physics import (DirichletMap, LShapeSolution,
                                integrate_leaves, leaf_systems)
from overlayfem.quadrature import (Disk, EmbeddedDomain, leaf_rule,
                                   leaf_rule_table)
from overlayfem.partition import (partition_contiguous, partition_leaves,
                                  compute_leaf_weights)
from overlayfem.distributed import (
    DROP_TOL, SolverError, LeafBlocks, _diagonal, distribute_dofs_graph,
    IntermediateSystem, integrate_rank_system, exchange_and_assemble, leaf_free_dofs,
    parallel_cg, pearson_r, run_step, thin_history,
)
from overlayfem.benchmarks import (RunConfig, fcm_disk_dirichlet,
                                   lshape_dirichlet, lshape_mesh_spec,
                                   lshape_neumann_part,
                                   mark_interface_leaves, run_benchmark,
                                   unit_source)


def on_square_boundary(p):
    return min(p[0], p[1]) < 1e-12 or max(p[0], p[1]) > 1 - 1e-12


def bumpy_source(pts):
    return 1.0 + pts[:, 0] * np.sin(3.0 * pts[:, 1])


def flat_free(leaf_free):
    """Per-leaf free dof lists as distribute_dofs_graph takes them: one
    flat column and the count of each leaf."""
    return (np.concatenate([np.empty(0, dtype=np.int64), *leaf_free]),
            [len(dofs) for dofs in leaf_free])


def split_and_assemble(basis, dirichlet, ranks, n_ranks, dof_distribution="graph",
                       source=None):
    """Test-side driver over the library's per-rank building blocks."""
    leaves = basis.mesh.active_leaf_elements()
    # int32 free indices, as run_step builds them
    to_free = np.full(basis.dofmap.total, -1, dtype=np.int32)
    to_free[dirichlet.free] = np.arange(dirichlet.n_free)

    systems = leaf_systems(basis, source=source)
    store, inters = integrate_ranks(basis, to_free, dirichlet.n_free, ranks,
                                    n_ranks, systems)
    # each rank's triplets, read off the store before the assembly
    intermediates = [SimpleNamespace(**vars(leaf_triplets(store, i.leaf_tags)),
                                     n_leaves=i.n_leaves) for i in inters]

    leaf_free = [to_free[basis.leaf_dofs(leaf)] for leaf in leaves]
    leaf_free = [d[d >= 0] for d in leaf_free]
    if dof_distribution == "graph":
        owner = distribute_dofs_graph(*flat_free(leaf_free), ranks,
                                      dirichlet.n_free, n_ranks)
    else:
        owner = distribute_dofs_contiguous(dirichlet.n_free, n_ranks)
    system, traffic = exchange_and_assemble(store, owner)
    return system, traffic, intermediates, owner


# ------------------------------------------------- distributed == serial


def test_distributed_system_matches_serial():
    rng = np.random.default_rng(101)
    for case in range(8):
        mesh = random_refined_mesh(rng, max_leaves=250)
        basis = Basis(mesh, random_orders(rng, mesh))
        dirichlet = DirichletMap(basis, on_square_boundary)
        n_ranks = int(rng.integers(1, 6))
        method = ("contiguous", "sfc", "random")[int(rng.integers(0, 3))]
        dist = ("graph", "contiguous")[int(rng.integers(0, 2))]
        w = compute_leaf_weights(basis)
        ranks = leaf_ranks(method, mesh, basis, w, n_ranks, seed=case)

        system, _, intermediates, _ = split_and_assemble(
            basis, dirichlet, ranks, n_ranks, dof_distribution=dist,
            source=bumpy_source)

        K, f = assemble_serial(basis, source=bumpy_source)
        K_ff, f_f = dirichlet_reduce(dirichlet, K, f)
        dense_serial = K_ff.toarray()
        dense_dist = system.matrix.toarray()
        scale = np.abs(dense_serial).max()
        assert np.max(np.abs(dense_dist - dense_serial)) <= 1e-12 * scale
        rhs = system.rhs
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
    for n_ranks, method in [(1, "contiguous"), (3, "sfc"), (4, "random"), (7, "contiguous")]:
        ranks = leaf_ranks(method, mesh, basis, w, n_ranks)
        system, _, _, _ = split_and_assemble(basis, dirichlet, ranks, n_ranks,
                                             source=bumpy_source)
        dense = system.matrix.toarray()
        rhs = system.rhs
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

        got = distribute_dofs_graph(*flat_free(leaf_free), ranks,
                                    dirichlet.n_free, n_ranks)
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
    owner = distribute_dofs_graph(*flat_free(leaf_free), np.array([1, 0]),
                                  basis.dofmap.total, 2)

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
        distribute_dofs_graph(np.array([0, 1]), [2], [0], n_free=3, n_ranks=2)


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
    ranks = leaf_ranks("random", mesh, basis, w, n_ranks)
    system, traffic, intermediates, owner = split_and_assemble(
        basis, dirichlet, ranks, n_ranks)

    def distinct_entries(rows, cols):
        return np.unique(np.stack([rows, cols]), axis=1).shape[1]

    assert traffic.shape == (n_ranks, n_ranks)
    for r in range(n_ranks):
        inter = intermediates[r]
        total = distinct_entries(inter.rows, inter.cols)
        home = owner[inter.rows] == r
        kept = distinct_entries(inter.rows[home], inter.cols[home])
        assert system.total_entries[r] == total
        assert system.kept_entries[r] == kept
        assert system.sent_entries[r] + system.kept_entries[r] == total
        for dst in range(n_ranks):
            to_dst = owner[inter.rows] == dst
            assert traffic[r, dst] == distinct_entries(inter.rows[to_dst],
                                                       inter.cols[to_dst])
    # some entries cross ranks, so the off-diagonal checks are not vacuous
    assert np.count_nonzero(traffic) > n_ranks

    # halo columns: off-rank columns referenced by a rank's owned rows
    matrix = system.matrix.tocsr()
    for r in range(n_ranks):
        touched = np.unique(matrix[system.own_rows[r]].indices)
        assert system.halo_counts[r] == int(np.sum(owner[touched] != r))

    # a single rank never ships anything
    solo, solo_traffic, _, _ = split_and_assemble(
        basis, dirichlet, np.zeros(len(w), dtype=int), 1)
    assert solo.sent_entries == [0]
    assert solo_traffic.tolist() == [[solo.total_entries[0]]]


def test_assembly_of_int32_triplets_near_the_last_dof():
    # int32 rows and columns whose key row * n_free + col passes 2**31:
    # the sums must be scipy's, so the key is formed in int64
    n_free, n_ranks, n_leaves, k = 100_000, 2, 200, 20
    rng = np.random.default_rng(7)
    # leaves of k distinct dofs among the last 40, on random ranks, each
    # with its k x k block row-major and, when loaded, its f
    free = np.concatenate([rng.choice(40, k, replace=False) + n_free - 40
                           for _ in range(n_leaves)]).astype(np.int32)
    kept = np.full(n_leaves, k)
    loaded = rng.random(n_leaves) < 0.5
    # every leaf has a k x k K of its own, all its dofs free, and a
    # loaded leaf an f of its own
    systems = SimpleNamespace(signature=np.full(n_leaves, -1), stiffness=[],
                              load=np.full(n_leaves, -1), loads=[],
                              own_load=loaded)
    store = LeafBlocks.allocate(free, kept, np.tile(np.arange(k), n_leaves),
                                kept, systems,
                                rng.integers(0, n_ranks, size=n_leaves),
                                n_free, n_ranks, shared=False)
    blocks = free.reshape(n_leaves, k)
    rows = np.repeat(blocks, k, axis=1).ravel()
    cols = np.tile(blocks, k).ravel()
    # small integers sum exactly in any order
    vals = rng.integers(1, 9, size=rows.size).astype(float)
    store.table[store.blocks(np.arange(n_leaves))] = vals
    store.table[store.load[loaded][:, None] + np.arange(k)] = 1.0
    rhs_rows = blocks[loaded].ravel()
    assert rows.astype(np.int64).max() * n_free + cols.max() > 2 ** 31
    system, traffic = exchange_and_assemble(
        store, distribute_dofs_contiguous(n_free, n_ranks))

    expected = scipy.sparse.coo_matrix(
        (vals, (rows, cols)), shape=(n_free, n_free)).tocsr()
    assert system.matrix.nnz == expected.nnz
    assert (system.matrix != expected).nnz == 0
    assert np.array_equal(system.rhs, np.bincount(rhs_rows,
                                                  minlength=n_free))
    # every merged entry lies in rows rank 1 owns
    assert traffic[:, 0].tolist() == [0, 0]
    assert traffic[:, 1].sum() >= expected.nnz


# ------------------------------------------------- per-rank inbox oracle
#
# The pipeline sums every rank's triplets into one operator.  The oracle
# below is the per-owner path it replaced: each rank receives the rows it
# owns, accumulates them in (row, col, leaf) order into an owned-row
# block, and CG multiplies block by block and gathers.  The two must
# agree bit for bit on every partition.


def inbox_accumulate(rows, cols, vals, tags, n_free):
    if rows.size == 0:
        return (np.empty(0, np.int64), np.empty(0, np.int64),
                np.empty(0, float))
    order = np.lexsort((tags, cols, rows))
    rows, cols, vals = rows[order], cols[order], vals[order]
    keys = rows * n_free + cols
    starts = np.flatnonzero(np.r_[True, np.diff(keys) != 0])
    return rows[starts], cols[starts], np.add.reduceat(vals, starts)


def inbox_accumulate_rhs(rows, vals, tags):
    if rows.size == 0:
        return np.empty(0, np.int64), np.empty(0, float)
    order = np.lexsort((tags, rows))
    rows, vals = rows[order], vals[order]
    starts = np.flatnonzero(np.r_[True, np.diff(rows) != 0])
    return rows[starts], np.add.reduceat(vals, starts)


def inbox_assemble(intermediates, owner, n_free, n_ranks):
    """Per rank: (owned rows, CSR block, rhs part, diagonal part)."""
    out = []
    for r in range(n_ranks):
        mine = np.flatnonzero(owner == r)
        parts = []
        for inter in intermediates:
            m = owner[inter.rows] == r
            rm = owner[inter.rhs_rows] == r
            parts.append((inter.rows[m], inter.cols[m], inter.vals[m],
                          inter.leaf_tags[m], inter.rhs_rows[rm],
                          inter.rhs_vals[rm], inter.rhs_tags[rm]))
        rows, cols, vals, tags, rr, rv, rt = (np.concatenate(c)
                                              for c in zip(*parts))
        rows, cols, vals = inbox_accumulate(rows, cols, vals, tags, n_free)
        rr, rv = inbox_accumulate_rhs(rr, rv, rt)
        to_local = np.full(n_free, -1, dtype=np.int64)
        to_local[mine] = np.arange(mine.size)
        block = scipy.sparse.csr_matrix(
            (vals, (to_local[rows], cols)), shape=(mine.size, n_free))
        b = np.zeros(mine.size)
        b[to_local[rr]] = rv
        dg = np.zeros(mine.size)
        on_diag = cols == rows
        dg[to_local[rows[on_diag]]] = vals[on_diag]
        out.append((mine, block, b, dg))
    return out


def inbox_cg(parts, n_free, tol):
    """Block-by-block Jacobi CG over gathered global vectors."""
    def gather(pieces):
        out = np.empty(n_free)
        for (rows, _, _, _), vec in zip(parts, pieces):
            out[rows] = vec
        return out

    def matvec(x):
        return gather([block @ x for _, block, _, _ in parts])

    def precond(r):
        return gather([(1.0 / dg) * r[rows] for rows, _, _, dg in parts])

    b = gather([rhs for _, _, rhs, _ in parts])
    x = np.zeros(n_free)
    r = b.copy()
    bnorm = float(np.linalg.norm(b))
    target = tol * bnorm if bnorm > 0 else tol
    history = [float(np.linalg.norm(r))]
    if history[-1] <= target:
        return x, 0, history
    z = precond(r)
    p = z.copy()
    rz = float(np.dot(r, z))
    for it in range(1, 20 * n_free + 1):
        q = matvec(p)
        alpha = rz / float(np.dot(p, q))
        x = x + alpha * p
        r = r - alpha * q
        rnorm = float(np.linalg.norm(r))
        history.append(rnorm)
        if rnorm <= target:
            return x, it, history
        z = precond(r)
        rz_new = float(np.dot(r, z))
        beta = rz_new / rz
        rz = rz_new
        p = z + beta * p
    raise AssertionError("oracle CG did not converge")


def test_one_operator_matches_per_rank_inbox_oracle():
    rng = np.random.default_rng(146)  # meshes of 85, 25 and 49 leaves
    for _ in range(3):
        mesh = random_refined_mesh(rng, max_leaves=400)
        basis = Basis(mesh, random_orders(rng, mesh))
        dirichlet = DirichletMap(basis, on_square_boundary)
        w = compute_leaf_weights(basis)
        for n_ranks in (1, 3, 4, 7):
            for method in ("contiguous", "sfc", "random"):
                ranks = leaf_ranks(method, mesh, basis, w, n_ranks)
                for dist in ("graph", "contiguous"):
                    system, _, intermediates, owner = split_and_assemble(
                        basis, dirichlet, ranks, n_ranks,
                        dof_distribution=dist, source=bumpy_source)
                    parts = inbox_assemble(intermediates, owner,
                                           dirichlet.n_free, n_ranks)
                    perm = np.argsort(np.concatenate(
                        [rows for rows, _, _, _ in parts]))
                    oracle = scipy.sparse.vstack(
                        [block for _, block, _, _ in parts], format="csr")[perm, :]
                    matrix = system.matrix
                    assert np.array_equal(matrix.data, oracle.data)
                    assert np.array_equal(matrix.indices, oracle.indices)
                    assert np.array_equal(matrix.indptr, oracle.indptr)
                    for (rows, block, _, _), own, mine in zip(
                            parts, system.blocks, system.own_rows):
                        assert np.array_equal(rows, mine)
                        assert own.nnz == block.nnz

                    assert np.array_equal(
                        system.rhs,
                        np.concatenate([b for _, _, b, _ in parts])[perm])

                    x_ref, it_ref, hist_ref = inbox_cg(
                        parts, dirichlet.n_free, tol=1e-10)
                    x, it, hist = parallel_cg(system, tol=1e-10)
                    assert it == it_ref
                    assert np.array_equal(x, x_ref)
                    assert hist == hist_ref


# ------------------------------------------------- per-leaf integration
#
# integrate_rank_system reads each single-cell leaf's system from the
# step's LeafSystems, whose K the table holds once per signature, and
# integrates cut leaves with the batched kernel.  The oracle below is the
# per-leaf loop it replaced: every leaf through element_system (conftest's
# cell-by-cell oracle) into a block of its own, its flux load through
# leaf_flux_load.  Both must assemble to the same bits.


def per_leaf_integrate(basis, to_free, leaf_tags, rank, store,
                       domain=None, depth=0, source=None,
                       flux=None, flux_part=None):
    for leaf, tag in zip(basis.leaves[leaf_tags], leaf_tags):
        K, fe, gids = element_system(basis, leaf, domain, depth, source)
        fidx = to_free[gids]
        ki = np.flatnonzero(fidx >= 0)
        fi = fidx[ki]
        at = store.incidence([tag])
        assert np.array_equal(store.free[at], fi)
        assert np.array_equal(store.local[at], ki)
        a = store.base[tag]
        assert store.modes[tag] ** 2 == K.size
        store.table[a:a + K.size] = K.ravel()
        if flux is not None:
            fl = leaf_flux_load(basis, leaf, flux, flux_part)
            if fl is not None:
                fe = fl if fe is None else fe + fl
        c = store.load[tag]
        assert (c >= 0) == (fe is not None)
        if fe is not None:
            store.table[c:c + fe.size] = fe
    return IntermediateSystem(rank=rank, store=store,
                              leaf_tags=np.asarray(leaf_tags))


def test_source_is_called_once_per_group_and_cut_leaf_group():
    # the integrate phase of fcm_disk res 16 on 4 ranks: one source call
    # per (order, level) of single-cell leaves and, per rank, of cut leaves
    for problem, basis in study_bases(dict(benchmark="fcm_disk", res=16, p=2,
                                           depth=4, steps=2)):
        dom, depth = problem.domain, problem.depth
        calls = []

        def source(points):
            calls.append(len(points))
            return unit_source(points)

        leaves = basis.mesh.active_leaf_elements()
        ranks = partition_contiguous(len(leaves), 4)
        to_free = np.arange(basis.dofmap.total)
        systems = leaf_systems(basis, dom, depth, source)
        integrate_ranks(basis, to_free, basis.dofmap.total, ranks, 4,
                        systems)
        cells = np.diff(leaf_rule_table(basis, dom, depth)[1])
        single = np.flatnonzero(cells == 1)
        groups = len(set(zip(basis.quad_orders[single].tolist(),
                             basis.levels[single].tolist())))
        assert groups <= len(calls) <= groups + np.count_nonzero(cells > 1)
        # every point of every leaf went to the source exactly once
        assert sum(calls) == leaf_rule_table(basis, dom, depth)[0].weights.size


def interface_refined(res, domain, steps):
    mesh = single_patch(res)
    for _ in range(steps):
        mesh.refine(mark_interface_leaves(mesh, domain))
    return mesh


def box_flux(points, normal):
    return np.cos(points[:, 0]) * normal[0] + points[:, 1] * normal[1]


def batched_cases():
    """(name, mesh, orders, dirichlet part, integration keywords)."""
    lshape = dict(flux=LShapeSolution().flux, flux_part=lshape_neumann_part)
    stretched = stretched_basis(np.random.default_rng(84))
    disk = EmbeddedDomain(Disk((0.0, 0.0), 0.8), epsilon=1e-8)
    return [
        ("lshape res 16 p 4", corner_refined(16, 3),
         PolynomialOrderField(uniform=4), lshape_dirichlet, lshape),
        # non-dyadic: mapped coordinates differ from leaf to leaf in their
        # last bits, so nearly every signature is unique
        ("lshape res 3 p 4", corner_refined(3, 4),
         PolynomialOrderField(uniform=4), lshape_dirichlet, lshape),
        ("square and 2:1 patches", stretched.mesh, stretched.orders,
         lambda p: abs(p[0]) < 1e-12 or abs(p[1]) < 1e-12,
         dict(source=bumpy_source, flux=box_flux,
              flux_part=lambda mid: mid[1] > 0.5)),
        ("fcm disk", interface_refined(8, disk, 2),
         PolynomialOrderField(uniform=3), fcm_disk_dirichlet,
         dict(domain=disk, depth=3, source=unit_source)),
    ]


def assemble_with(integrate, basis, dirichlet, ranks, n_ranks, systems):
    """Assemble with `integrate(basis, to_free, leaf_tags, rank, store)`
    called once per rank on the K blocks of `systems`' signatures and
    cut leaves and the f blocks of its source loads and own loads."""
    to_free = np.full(basis.dofmap.total, -1, dtype=np.int64)
    to_free[dirichlet.free] = np.arange(dirichlet.n_free)
    n_leaves = len(basis.leaves)
    store = LeafBlocks.allocate(*leaf_free_dofs(basis, to_free, n_leaves),
                                basis.mode_counts[:n_leaves], systems, ranks,
                                dirichlet.n_free, n_ranks, shared=False)
    inters = []
    for r in range(n_ranks):
        mine = np.flatnonzero(ranks == r)
        inters.append(integrate(basis, to_free, mine, r, store=store))
    owner = distribute_dofs_contiguous(dirichlet.n_free, n_ranks)
    system, traffic = exchange_and_assemble(store, owner)
    return system, traffic, inters


def test_batched_integration_matches_per_leaf_oracle():
    for name, mesh, orders, part, kwargs in batched_cases():
        leaves = mesh.active_leaf_elements()
        weights = compute_leaf_weights(Basis(mesh, orders),
                                       kwargs.get("domain"),
                                       kwargs.get("depth", 0))
        cut = 0
        for n_ranks in (1, 3, 8):
            ranks = partition_leaves("sfc", mesh, None, weights, n_ranks)
            basis = Basis(mesh, orders)
            dirichlet = DirichletMap(basis, part)
            systems = leaf_systems(basis, **kwargs)
            loaded = (systems.load >= 0) | systems.own_load
            system, traffic, inters = assemble_with(
                lambda basis, to_free, *args, store: integrate_rank_system(
                    basis, *args, systems, store),
                basis, dirichlet, ranks, n_ranks, systems)
            cold = Basis(mesh, orders)
            # the oracle writes every leaf's K and f into blocks of its own
            own_blocks = SimpleNamespace(
                signature=np.full(len(leaves), -1), stiffness=[],
                load=np.full(len(leaves), -1), loads=[], own_load=loaded)
            oracle, oracle_traffic, oracle_inters = assemble_with(
                lambda *args, store: per_leaf_integrate(*args, store,
                                                        **kwargs),
                cold, dirichlet, ranks, n_ranks, own_blocks)
            for got, want in ((system.matrix, oracle.matrix),):
                assert np.array_equal(got.data, want.data), name
                assert np.array_equal(got.indices, want.indices), name
                assert np.array_equal(got.indptr, want.indptr), name
            assert np.array_equal(system.rhs, oracle.rhs), name
            assert np.array_equal(traffic, oracle_traffic), name
            assert system.halo_counts == oracle.halo_counts, name
            for a, b in zip(inters, oracle_inters):
                assert a.rows.size == b.rows.size, name
                assert np.array_equal(a.store.load[a.leaf_tags] >= 0,
                                      b.store.load[b.leaf_tags] >= 0), name
            cut = int(np.sum(systems.signature < 0))
        distinct = len(systems.stiffness)
        single = len(leaves) - cut
        if name.startswith("lshape res 16"):
            # the dyadic corner mesh repeats its leaves heavily
            assert distinct * 5 < single, (name, distinct, single)
        if name == "fcm disk":
            assert cut > 0
            eps = [i for i, s in enumerate(systems.signature)
                   if s >= 0 and leaf_rule(
                       basis, leaves[i], kwargs["domain"], 3).alpha[0] < 1]
            assert eps, "no leaf lies fully outside the disk"


# ------------------------------------------------ lexsort assembly oracle
#
# exchange_and_assemble expands the K blocks a block of rows at a time,
# sorts each row block by a packed (key, position) column and counts the
# ledger from the leaf-dof incidence.  conftest's lexsort_assemble is the
# assembly it replaced: the triplets of every leaf's K at its free dofs
# (conftest's leaf_triplets) rank after rank, a two-key lexsort and a
# merged entries x ranks ledger.  Both must give the same bits.


def oracle_cases():
    """name -> (mesh, orders, dirichlet part, integration keywords,
    partition method)."""
    lshape = dict(flux=LShapeSolution().flux, flux_part=lshape_neumann_part)
    disk = EmbeddedDomain(Disk((0.0, 0.0), 0.8), epsilon=1e-8)
    rng = np.random.default_rng(2718)
    randoms = []
    for _ in range(2):
        mesh = random_refined_mesh(rng, max_leaves=250)
        randoms.append((mesh, random_orders(rng, mesh), on_square_boundary,
                        dict(source=bumpy_source), "random"))
    return {
        "lshape res 16 p 4": (corner_refined(16, 3),
                              PolynomialOrderField(uniform=4),
                              lshape_dirichlet, lshape, "sfc"),
        "lshape res 3 p 4": (corner_refined(3, 4),
                             PolynomialOrderField(uniform=4),
                             lshape_dirichlet, lshape, "sfc"),
        "graded l0:5,l1:4,l2:3": (
            corner_refined(4, 3),
            PolynomialOrderField(by_level={0: 5, 1: 4, 2: 3}),
            lshape_dirichlet, lshape, "sfc"),
        "fcm disk res 8": (interface_refined(8, disk, 2),
                           PolynomialOrderField(uniform=3),
                           fcm_disk_dirichlet,
                           dict(domain=disk, depth=3, source=unit_source),
                           "sfc"),
        "random mesh 1": randoms[0],
        "random mesh 2": randoms[1],
    }


ROW_BLOCKS = {"one row block": 1, "1000 row blocks": 1000}


@pytest.mark.parametrize("name, variant", [
    *((name, "packed") for name in oracle_cases()),
    ("lshape res 3 p 4", "argsort"),
    *(("fcm disk res 8", variant) for variant in ROW_BLOCKS)])
def test_assembly_matches_lexsort_oracle(monkeypatch, name, variant):
    if variant == "argsort":
        # no packed key fits: the stable argsort gives the order
        monkeypatch.setattr("overlayfem.distributed._PACKED_BITS", 0)
    if variant in ROW_BLOCKS:
        # each row block's sort keeps an entry's contributions in leaf
        # order, so the split does not change the bits
        monkeypatch.setattr("overlayfem.distributed._ROW_BLOCKS",
                            ROW_BLOCKS[variant])
    mesh, orders, part, kwargs, method = oracle_cases()[name]
    basis = Basis(mesh, orders)
    dirichlet = DirichletMap(basis, part)
    to_free = np.full(basis.dofmap.total, -1, dtype=np.int32)
    to_free[dirichlet.free] = np.arange(dirichlet.n_free)
    weights = compute_leaf_weights(basis, kwargs.get("domain"),
                                   kwargs.get("depth", 0))
    systems = leaf_systems(basis, **kwargs)
    for n_ranks in (1, 3, 8):
        ranks = leaf_ranks(method, mesh, basis, weights, n_ranks,
                           seed=n_ranks)
        store, _ = integrate_ranks(basis, to_free, dirichlet.n_free, ranks,
                                   n_ranks, systems)
        owner = distribute_dofs_graph(store.free, store.kept, ranks,
                                      dirichlet.n_free, n_ranks)
        oracle, oracle_traffic = lexsort_assemble(
            RankTriplets.from_store(store), owner, dirichlet.n_free, n_ranks)
        system, traffic = exchange_and_assemble(store, owner)
        got, want = system.matrix, oracle.matrix
        assert np.array_equal(got.data.view(np.int64),
                              want.data.view(np.int64)), n_ranks
        assert np.array_equal(got.indices, want.indices), n_ranks
        assert np.array_equal(got.indptr, want.indptr), n_ranks
        assert np.array_equal(system.rhs.view(np.int64),
                              oracle.rhs.view(np.int64)), n_ranks
        assert np.array_equal(traffic, oracle_traffic), n_ranks
        assert system.halo_counts == oracle.halo_counts, n_ranks
        for field in ("sent_entries", "kept_entries", "total_entries"):
            assert getattr(system, field) == getattr(oracle, field)
        if n_ranks > 1:
            # some entries cross ranks, so the ledger is not all diagonal
            assert np.count_nonzero(traffic) > n_ranks


def test_store_does_not_depend_on_the_partition(monkeypatch):
    # a leaf's K and f sit at offsets fixed by the leaves alone, so the
    # step's table is byte-identical whatever the rank count, the
    # partitioner and the worker count; with two workers the forked ranks
    # write scattered cut-leaf K and own f blocks into the shared table
    stores = []

    def assemble(store, *args):
        stores.append([getattr(store, name).tobytes()
                       for name in STORE_COLUMNS])
        return exchange_and_assemble(store, *args)

    monkeypatch.setattr("overlayfem.distributed.exchange_and_assemble",
                        assemble)
    exact = LShapeSolution()
    disk = EmbeddedDomain(Disk((0.0, 0.0), 0.8), epsilon=1e-8)
    cases = [
        (lambda: corner_refined(3, 2), lshape_dirichlet,
         dict(source=unit_source, flux=exact.flux,
              flux_part=lshape_neumann_part)),
        (lambda: interface_refined(4, disk, 1), fcm_disk_dirichlet,
         dict(domain=disk, depth=3, source=unit_source)),
    ]
    for make_mesh, part, kwargs in cases:
        stores.clear()
        for workers in (1, 2):
            for n_ranks in (1, 3, 8):
                for partitioner in ("sfc", "contiguous"):
                    run_step(make_mesh(), PolynomialOrderField(uniform=3),
                             n_ranks, part, partitioner=partitioner,
                             workers=workers, **kwargs)
        assert len(stores) == 12
        assert all(store == stores[0] for store in stores[1:])


def test_table_tiles_shared_and_own_blocks():
    # on a small fcm_disk mesh the table is the signatures' K, each
    # distinct single-cell source load once, the cut leaves' K and the
    # own f blocks, tiled without gap or overlap; every uncut leaf (no
    # flux reaches one here) reads its source load's shared f block
    disk = EmbeddedDomain(Disk((0.0, 0.0), 0.8), epsilon=1e-8)
    basis = Basis(interface_refined(4, disk, 1),
                  PolynomialOrderField(uniform=2))
    dirichlet = DirichletMap(basis, fcm_disk_dirichlet)
    to_free = np.full(basis.dofmap.total, -1, dtype=np.int32)
    to_free[dirichlet.free] = np.arange(dirichlet.n_free)
    systems = leaf_systems(basis, disk, 3, unit_source)
    n_leaves = len(basis.leaves)
    store, _ = integrate_ranks(basis, to_free, dirichlet.n_free,
                               partition_contiguous(n_leaves, 3), 3, systems)
    cut = systems.signature < 0
    own = systems.own_load
    assert np.array_equal(own, cut) and np.any(cut) and np.any(~cut)
    # a shared f block per distinct source load, holding it bit for bit
    shared = np.flatnonzero(~own)
    assert np.all(systems.load[shared] >= 0)
    offsets, first = np.unique(store.load[shared], return_index=True)
    assert np.array_equal(np.sort(systems.load[shared[first]]),
                          np.arange(len(systems.loads)))
    assert len(set(zip(systems.load[shared].tolist(),
                       store.load[shared].tolist()))) == offsets.size
    for i in shared.tolist():
        assert (store.table[f_blocks(store, [i])].tobytes()
                == systems.loads[systems.load[i]].tobytes())
    # K per signature, f per source load, K per cut leaf, f per own leaf
    sig_K, at = np.unique(store.base[~cut], return_index=True)
    modes = store.modes
    kinds = [(sig_K, modes[np.flatnonzero(~cut)[at]] ** 2),
             (offsets, modes[shared[first]]),
             (store.base[cut], modes[cut] ** 2),
             (store.load[own], modes[own])]
    assert sig_K.size == len(systems.stiffness)
    starts = np.concatenate([a for a, _ in kinds])
    sizes = np.concatenate([n for _, n in kinds])
    order = np.argsort(starts)
    assert np.array_equal(starts[order],
                          np.cumsum(sizes[order]) - sizes[order])
    assert int(sizes.sum()) == store.table.size


def test_work_counters_do_not_depend_on_the_rank_count():
    # report.json's triplets (the K blocks' expansion, sum of kept**2
    # over the leaves) and nnz (the operator's stored entries) count
    # work, not ranks
    exact = LShapeSolution()
    counts = []
    for n_ranks in (1, 3, 8):
        report, basis, _ = run_step(
            corner_refined(4, 2), PolynomialOrderField(uniform=3), n_ranks,
            lshape_dirichlet, flux=exact.flux, flux_part=lshape_neumann_part)
        d = report.to_dict()
        counts.append((d["triplets"], d["nnz"]))
    to_free = np.full(basis.dofmap.total, -1, dtype=np.int32)
    to_free[DirichletMap(basis, lshape_dirichlet).free] = 0
    _, kept, _ = leaf_free_dofs(basis, to_free, d["leaves"])
    assert counts == [(int(np.sum(kept ** 2)), counts[0][1])] * 3


# ------------------------------------------------------- round-off drop
#
# The overlay's ancestor modes are orthogonal over the ancestor, not over
# each child, so many merged entries are sums that vanish up to
# round-off.  A dropping assembly leaves out every off-diagonal entry with
# |a_ij| < DROP_TOL * sqrt(a_ii * a_jj); run_step drops on a step without
# an embedded domain.


def drop_cases():
    """name -> (mesh, orders, dirichlet part, integration keywords)."""
    lshape = dict(source=unit_source, flux=LShapeSolution().flux,
                  flux_part=lshape_neumann_part)
    p4 = PolynomialOrderField(uniform=4)
    rng = np.random.default_rng(7)
    mesh = random_refined_mesh(rng, max_leaves=250)
    return {
        "lshape res 4 p 4": (corner_refined(4, 3), p4, lshape_dirichlet,
                             lshape),
        "lshape res 6 p 4": (corner_refined(6, 2), p4, lshape_dirichlet,
                             lshape),
        "lshape res 8 p 4": (corner_refined(8, 2), p4, lshape_dirichlet,
                             lshape),
        "random mesh": (mesh, random_orders(rng, mesh), on_square_boundary,
                        dict(source=bumpy_source)),
    }


def assembled_both_ways(name, n_ranks=3):
    """The operator of one drop case assembled without and with the drop,
    from two stores the ranks write alike."""
    mesh, orders, part, kwargs = drop_cases()[name]
    basis = Basis(mesh, orders)
    dirichlet = DirichletMap(basis, part)
    to_free = np.full(basis.dofmap.total, -1, dtype=np.int32)
    to_free[dirichlet.free] = np.arange(dirichlet.n_free)
    systems = leaf_systems(basis, **kwargs)
    ranks = partition_leaves("sfc", mesh, basis, compute_leaf_weights(basis),
                             n_ranks)
    out = []
    for drop in (False, True):
        store, _ = integrate_ranks(basis, to_free, dirichlet.n_free, ranks,
                                   n_ranks, systems)
        owner = distribute_dofs_graph(store.free, store.kept, ranks,
                                      dirichlet.n_free, n_ranks)
        out.append(exchange_and_assemble(store, owner, drop))
    return out


@pytest.mark.parametrize("name", list(drop_cases()))
def test_incidence_diagonal_is_the_assembled_diagonal(monkeypatch, name):
    # the diagonal the drop scales by is summed before the block loop, in
    # the order the block's reduceat sums each diagonal entry
    taken = []

    def diagonal(*args):
        taken.append(_diagonal(*args))
        return taken[-1]

    monkeypatch.setattr("overlayfem.distributed._diagonal", diagonal)
    (full, _), (dropped, _) = assembled_both_ways(name)
    assert len(taken) == 1
    for system in (full, dropped):
        assert np.array_equal(taken[0].view(np.int64),
                              system.matrix.diagonal().view(np.int64))


@pytest.mark.parametrize("name", list(drop_cases()))
def test_drop_leaves_out_exactly_the_roundoff_entries(name):
    (full, traffic), (dropped, dropped_traffic) = assembled_both_ways(name)
    A, B = full.matrix.tocoo(), dropped.matrix.tocoo()
    d = full.matrix.diagonal()
    bound = DROP_TOL * np.sqrt(d[A.row] * d[A.col])
    kept = np.isin(A.row.astype(np.int64) * full.n_free + A.col,
                   B.row.astype(np.int64) * full.n_free + B.col)
    diagonal = A.row == A.col
    small = np.abs(A.data) < bound
    assert np.count_nonzero(~kept) == dropped.dropped > 0
    assert full.dropped == 0
    # dropped entries are below the bound and kept off-diagonal ones at
    # or above it; every diagonal entry is kept
    assert np.array_equal(~kept, small & ~diagonal)
    assert np.all(kept[diagonal])
    # the kept entries carry the undropped sums, bit for bit, in CSR order
    assert np.array_equal(B.data.view(np.int64), A.data[kept].view(np.int64))
    pattern = dropped.matrix.copy()
    pattern.data[:] = 1.0
    assert (pattern != pattern.T).nnz == 0
    # the ledger counts what the ranks integrate, before the drop
    assert np.array_equal(traffic, dropped_traffic)
    assert np.array_equal(full.rhs.view(np.int64),
                          dropped.rhs.view(np.int64))


@pytest.mark.parametrize("name", list(drop_cases()))
def test_dropped_operator_solves_alike(name):
    (full, _), (dropped, _) = assembled_both_ways(name)
    x = spla.spsolve(full.matrix.tocsc(), full.rhs)
    y = spla.spsolve(dropped.matrix.tocsc(), dropped.rhs)
    assert np.linalg.norm(y - x) <= 1e-12 * np.linalg.norm(x)


def test_lshape_energy_errors_do_not_move_with_the_drop(monkeypatch):
    config = RunConfig(benchmark="lshape", res=4, p=4, steps=3, ranks=3)
    dropped, _ = run_benchmark(config)
    monkeypatch.setattr(
        "overlayfem.distributed.exchange_and_assemble",
        lambda store, owner, drop=False: exchange_and_assemble(store, owner))
    full, _ = run_benchmark(config)
    assert all(step["dropped"] > 0 for step in dropped)
    assert all(step["dropped"] == 0 for step in full)
    for a, b in zip(dropped, full):
        assert a["nnz"] + a["dropped"] == b["nnz"]
        assert a["error"] == pytest.approx(b["error"], rel=1e-12, abs=0)


def test_no_drop_under_an_embedded_domain(monkeypatch):
    # the cut-cell step's operator is the undropped assembly, byte for
    # byte, although that assembly has round-off entries a drop would take
    calls = []

    def assemble(store, owner, *args):
        calls.append((copy.deepcopy(store), owner, args))
        system, traffic = exchange_and_assemble(store, owner, *args)
        calls.append(system)
        return system, traffic

    monkeypatch.setattr("overlayfem.distributed.exchange_and_assemble",
                        assemble)
    disk = EmbeddedDomain(Disk((0.0, 0.0), 0.8), epsilon=1e-8)
    report, _, _ = run_step(interface_refined(6, disk, 2),
                            PolynomialOrderField(uniform=2), 3,
                            fcm_disk_dirichlet, domain=disk, depth=3,
                            source=unit_source)
    (store, owner, args), system = calls
    assert args == (False,)
    assert report.to_dict()["dropped"] == system.dropped == 0
    assert report.nnz == system.matrix.nnz
    want, _ = exchange_and_assemble(copy.deepcopy(store), owner)
    for name in ("data", "indices", "indptr"):
        assert (getattr(system.matrix, name).tobytes()
                == getattr(want.matrix, name).tobytes())
    would, _ = exchange_and_assemble(store, owner, True)
    assert would.dropped > 0


# ---------------------------------------------------------------- solver


def test_cg_matches_direct_solver():
    mesh = single_patch(4)
    mesh.refine([leaf_at(mesh, (0.1, 0.1))])
    basis = Basis(mesh, PolynomialOrderField(uniform=3))
    dirichlet = DirichletMap(basis, on_square_boundary)
    ranks = partition_leaves("sfc", mesh, basis, compute_leaf_weights(basis), 3)
    system, _, _, _ = split_and_assemble(basis, dirichlet, ranks, 3,
                                         source=bumpy_source)

    x, iters, history = parallel_cg(system, tol=1e-12)
    K, f = assemble_serial(basis, source=bumpy_source)
    K_ff, f_f = dirichlet_reduce(dirichlet, K, f)
    direct = spla.spsolve(K_ff.tocsc(), f_f)
    assert iters > 0
    assert history[-1] <= 1e-12 * np.linalg.norm(f_f)
    assert np.max(np.abs(x - direct)) < 1e-9 * max(1.0, np.abs(direct).max())


def test_cg_trace_is_rank_count_invariant():
    spec = lshape_mesh_spec(4)
    runs = []
    for n_ranks in (1, 2, 4):
        mesh = Mesh(spec)
        mesh.refine([leaf_at(mesh, (0.1, 0.1))])
        report, basis, solution = run_step(
            mesh, PolynomialOrderField(uniform=3), n_ranks,
            lshape_dirichlet, source=unit_source,
            partitioner="sfc", tol=1e-10)
        runs.append((report.cg_iterations, solution))
    iters = {it for it, _ in runs}
    assert len(iters) == 1
    for _, sol in runs[1:]:
        assert np.array_equal(sol, runs[0][1])


def test_thin_history_keeps_first_and_last():
    history = [float(v) for v in range(1000)]
    thin = thin_history(history)
    assert len(thin) == 200
    assert thin[0] == [0, 0.0] and thin[-1] == [999, 999.0]
    assert all(history[i] == r for i, r in thin)
    assert [i for i, _ in thin] == sorted({i for i, _ in thin})
    assert thin_history([3.0, 2.0]) == [[0, 3.0], [1, 2.0]]


def test_cg_custom_rhs_and_failure():
    mesh = single_patch(3)
    basis = Basis(mesh, PolynomialOrderField(uniform=2))
    dirichlet = DirichletMap(basis, on_square_boundary)
    ranks = np.zeros(len(mesh.active_leaf_elements()), dtype=int)
    system, _, _, _ = split_and_assemble(basis, dirichlet, ranks, 1)

    rhs = np.sin(np.arange(dirichlet.n_free))
    x, _, history = parallel_cg(system, rhs=rhs, tol=1e-11)
    assert history[-1] <= 1e-11 * np.linalg.norm(rhs)
    K_ff = dirichlet_reduce(dirichlet, assemble_serial(basis)[0])
    assert np.allclose(K_ff @ x, rhs, atol=1e-9)

    with pytest.raises(SolverError) as err:
        parallel_cg(system, rhs=rhs, tol=1e-14, max_iter=2)
    assert len(err.value.residual_history) == 3


# ------------------------------------------------------------- run_step


STORE_COLUMNS = ("table",)


def test_run_step_report_is_complete(monkeypatch):
    # the step's leaf systems are freed before the assembly, the step's
    # memory peak, and its K and f table before the solve: a weak
    # reference to each is dead when the next phase starts
    built, columns, entered, counts = [], [], [], []

    def build(*args):
        systems = leaf_systems(*args)
        built.append(weakref.ref(systems))
        return systems

    def assemble(store, *args):
        entered.append(built[0]() is None)
        columns.extend(weakref.ref(getattr(store, name))
                       for name in STORE_COLUMNS)
        counts.append(store.n_triplets)
        system, traffic = exchange_and_assemble(store, *args)
        counts.append(system.matrix.nnz)
        return system, traffic

    def solve(*args, **kwargs):
        entered.append([ref() for ref in columns]
                       == [None] * len(STORE_COLUMNS))
        return parallel_cg(*args, **kwargs)

    monkeypatch.setattr("overlayfem.distributed.leaf_systems", build)
    monkeypatch.setattr("overlayfem.distributed.exchange_and_assemble",
                        assemble)
    monkeypatch.setattr("overlayfem.distributed.parallel_cg", solve)
    mesh = Mesh(lshape_mesh_spec(2))
    exact = LShapeSolution()
    report, basis, solution = run_step(
        mesh, PolynomialOrderField(uniform=2), 3, lshape_dirichlet,
        flux=exact.flux, flux_part=lambda mid: not LShapeSolution.on_dirichlet_legs(mid),
        partitioner="sfc", step_index=4)

    d = report.to_dict()
    json.dumps(d)  # must be serializable as written
    assert d["step"] == 4
    assert d["leaves"] == len(mesh.active_leaf_elements())
    assert d["dofs"] == basis.dofmap.total
    assert d["ranks"] == 3
    # work counters: the K blocks' triplets and the operator's stored
    # entries
    assert [d["triplets"], d["nnz"]] == counts
    assert 0 < d["nnz"] <= d["triplets"]
    assert entered == [True, True]
    assert set(d["timings"]) == {
        "refine", "partition", "leaf_systems", "integrate", "dof_dist",
        "assemble", "solve", "postprocess",
    }
    assert all(v >= 0 for v in d["timings"].values())
    assert len(d["per_rank"]) == 3
    for row in d["per_rank"]:
        for key in ("rank", "leaf_count", "weight_sum", "sent_triplets",
                    "kept_triplets", "owned_dofs", "halo_columns",
                    "cut_leaves"):
            assert key in row
    assert sum(r["leaf_count"] for r in d["per_rank"]) == d["leaves"]
    assert sum(r["owned_dofs"] for r in d["per_rank"]) == d["free_dofs"]
    assert d["residual"] >= 0.0
    assert report.cg_iterations > 0
    assert d["preconditioner"] == "jacobi"
    history = d["residual_history"]
    assert 2 <= len(history) <= 200
    assert history[0][0] == 0
    assert history[-1] == [report.cg_iterations, d["residual"]]
    assert solution.shape == (basis.dofmap.total,)


def test_rank_triplets_carry_int32_indices(monkeypatch):
    # run_step's free indices are int32, and so are the rows of every
    # rank's triplets and the store's leaf-dof incidence; the matrix and
    # rhs values are the table's float64 entries
    returned, dtypes = [], []

    def integrate(*args):
        returned.append(integrate_rank_system(*args))
        dtypes.append([getattr(returned[-1].store, name).dtype
                       for name in STORE_COLUMNS])
        return returned[-1]

    monkeypatch.setattr("overlayfem.distributed.integrate_rank_system",
                        integrate)
    exact = LShapeSolution()
    run_step(Mesh(lshape_mesh_spec(2)), PolynomialOrderField(uniform=3), 2,
             lshape_dirichlet, source=unit_source, flux=exact.flux,
             flux_part=lshape_neumann_part)
    assert len(returned) == 2
    for inter in returned:
        assert inter.rows.size > 0
        assert np.any(inter.store.load[inter.leaf_tags] >= 0)
        assert inter.rows.dtype == inter.store.free.dtype == np.int32
    assert dtypes == [[np.float64]] * 2


@pytest.mark.parametrize("workers", [1, 2])
def test_run_step_reports_rank_integrate_times(workers):
    # each rank's integration is timed where it runs, also in a pool
    # worker, and the step correlates those times with the weight sums
    mesh = Mesh(lshape_mesh_spec(3))
    report, _, _ = run_step(mesh, PolynomialOrderField(uniform=3), 3,
                            lshape_dirichlet, source=unit_source,
                            workers=workers)
    d = json.loads(json.dumps(report.to_dict()))
    times = [row["integrate_s"] for row in d["per_rank"]]
    assert len(times) == 3
    assert all(isinstance(t, float) and t > 0.0 for t in times)
    assert sum(times) <= d["timings"]["integrate"]
    weights = [row["weight_sum"] for row in d["per_rank"]]
    assert d["cost_model_r"] == pearson_r(weights, times)
    assert d["cost_model_r"] is None or -1.0 <= d["cost_model_r"] <= 1.0


def test_cost_model_r_is_null_when_undefined():
    mesh = Mesh(lshape_mesh_spec(2))
    report, _, _ = run_step(mesh, PolynomialOrderField(uniform=2), 1,
                            lshape_dirichlet, source=unit_source)
    d = json.loads(json.dumps(report.to_dict()))
    assert d["per_rank"][0]["integrate_s"] > 0.0
    assert "cost_model_r" in d and d["cost_model_r"] is None
    assert pearson_r([1.0], [2.0]) is None
    assert pearson_r([2.0, 2.0, 2.0], [0.1, 0.3, 0.2]) is None
    assert pearson_r([1.0, 2.0, 3.0], [0.5, 0.5, 0.5]) is None
    assert pearson_r([1.0, 2.0, 3.0], [2.0, 4.0, 6.0]) == pytest.approx(1.0)
    assert pearson_r([1.0, 2.0, 3.0], [3.0, 2.0, 1.0]) == pytest.approx(-1.0)


@pytest.mark.parametrize("workers", [1, 2])
def test_step_without_a_load_solves_to_zero(monkeypatch, workers):
    # neither source nor flux: no f block is allocated, the rhs sums no
    # entry, CG stops before its first iteration and the solution is zero
    seen = []

    def assemble(store, *args):
        seen.append(store.load.copy())
        system, traffic = exchange_and_assemble(store, *args)
        seen.append(system.rhs)
        return system, traffic

    monkeypatch.setattr("overlayfem.distributed.exchange_and_assemble",
                        assemble)
    disk = EmbeddedDomain(Disk((0.0, 0.0), 0.8), epsilon=1e-8)
    for mesh, part, kwargs in (
            (Mesh(lshape_mesh_spec(2)), lshape_dirichlet, {}),
            (interface_refined(4, disk, 1), fcm_disk_dirichlet,
             dict(domain=disk, depth=3))):
        seen.clear()
        report, _, solution = run_step(mesh, PolynomialOrderField(uniform=2),
                                       3, part, workers=workers, **kwargs)
        load, rhs = seen
        assert load.size == report.n_leaves and np.all(load == -1)
        assert rhs.shape == (report.n_free,) and not np.any(rhs)
        assert report.cg_iterations == 0
        assert solution.size > 0 and not np.any(solution)


def test_per_rank_cut_leaves_count_the_kernel_leaves(monkeypatch):
    # each rank's cut_leaves is the number of leaves it ran the kernel
    # on; summed over the ranks it is the step's multi-cell leaf count,
    # whatever the rank count, and it reads 0 without a domain
    kernel_rows = []

    def kernel(basis, rows, *args):
        kernel_rows.append(len(rows))
        return integrate_leaves(basis, rows, *args)

    monkeypatch.setattr("overlayfem.distributed.integrate_leaves", kernel)
    disk = EmbeddedDomain(Disk((0.0, 0.0), 0.8), epsilon=1e-8)
    for n_ranks in (1, 3, 8):
        kernel_rows.clear()
        report, basis, _ = run_step(
            interface_refined(4, disk, 1), PolynomialOrderField(uniform=2),
            n_ranks, fcm_disk_dirichlet, domain=disk, depth=3,
            source=unit_source)
        counts = [row["cut_leaves"] for row in report.to_dict()["per_rank"]]
        assert counts == kernel_rows
        cells = np.diff(leaf_rule_table(basis, disk, 3)[1])
        assert sum(counts) == np.count_nonzero(cells > 1) > 0
    report, _, _ = run_step(Mesh(lshape_mesh_spec(2)),
                            PolynomialOrderField(uniform=2), 3,
                            lshape_dirichlet, source=unit_source)
    assert [row["cut_leaves"] for row in report.per_rank] == [0, 0, 0]


def test_run_step_marks_refine_first():
    mesh = Mesh(lshape_mesh_spec(2))
    before = len(mesh.active_leaf_elements())
    e = mesh.elements
    marks = [leaf for leaf in mesh.active_leaf_elements()
             if np.allclose(np.abs(e.lo_f[leaf] * e.hi_f[leaf]), 0.0)]
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


@pytest.fixture
def pools(monkeypatch):
    """Replace the worker pool with a stand-in that maps inline, so no
    process is started.  As forked workers do, it runs the initializer on
    the arguments themselves, inherited rather than pickled, and sends
    every task and result through pickle, as the pipe does.  It records
    each pool's (max_workers, start method, initargs) in `pools.made` and
    every pickled result in `pools.results`."""
    made, results = [], []

    class RecordingPool:
        def __init__(self, max_workers, mp_context, initializer, initargs):
            made.append((max_workers, mp_context.get_start_method(),
                         initargs))
            initializer(*initargs)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            for item in items:
                results.append(pickle.dumps(fn(pickle.loads(
                    pickle.dumps(item)))))
                yield pickle.loads(results[-1])

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                        RecordingPool)
    monkeypatch.setattr("overlayfem.distributed._POOL_STATE", {})
    return SimpleNamespace(made=made, results=results)


def test_worker_pool_has_no_more_processes_than_ranks(pools):
    # a fork pool starts all max_workers processes at once, so the pool
    # is sized by the rank chunks
    for workers, n_ranks in ((64, 3), (8, 1)):
        solutions = []
        for w in (1, workers):
            _, _, solution = run_step(
                Mesh(lshape_mesh_spec(2)), PolynomialOrderField(uniform=2),
                n_ranks, lshape_dirichlet, source=unit_source, workers=w)
            solutions.append(solution)
        assert np.array_equal(solutions[0], solutions[1])
    assert [made[:2] for made in pools.made] == [(3, "fork")]


def test_workers_receive_the_step_systems(pools, monkeypatch):
    # run_step builds the step's LeafSystems once and hands the pool that
    # value through its initializer
    built = []

    def build(*args):
        built.append(leaf_systems(*args))
        return built[-1]

    monkeypatch.setattr("overlayfem.distributed.leaf_systems", build)
    exact = LShapeSolution()
    disk = EmbeddedDomain(Disk((0.0, 0.0), 0.8), epsilon=1e-8)
    cases = [
        # single-cell leaves with source and flux loads
        (lambda: Mesh(lshape_mesh_spec(2)), lshape_dirichlet,
         dict(source=unit_source, flux=exact.flux,
              flux_part=lshape_neumann_part)),
        # cut leaves, integrated by the kernel inside the workers
        (lambda: interface_refined(4, disk, 1), fcm_disk_dirichlet,
         dict(domain=disk, depth=3, source=unit_source)),
    ]
    for make_mesh, part, kwargs in cases:
        solutions = []
        for workers in (1, 2):
            _, _, solution = run_step(make_mesh(), PolynomialOrderField(
                uniform=3), 3, part, workers=workers, **kwargs)
            solutions.append(solution)
        assert np.array_equal(solutions[0], solutions[1])
    # one build per run_step; the 2-worker steps' pools received theirs
    assert len(built) == 4 and len(pools.made) == 2
    assert all(args[1] is systems
               for (_, _, args), systems in zip(pools.made, built[1::2]))
    for systems in built:
        arrays = systems.stiffness + systems.loads + list(
            systems.flux_loads.values())
        assert all(not a.flags.writeable for a in arrays)
    assert built[0].flux_loads and built[0].loads
    assert np.any(built[2].signature < 0)


def test_worker_results_carry_no_triplets(pools):
    # the ranks write into the table the workers inherit: what a worker
    # sends back through the pipe is its rank, leaf count and seconds
    report, _, _ = run_step(Mesh(lshape_mesh_spec(4)),
                            PolynomialOrderField(uniform=3), 3,
                            lshape_dirichlet, source=unit_source, workers=2)
    assert len(pools.results) == 3
    assert all(len(sent) < 1024 for sent in pools.results)
    for r, sent in enumerate(pools.results):
        rank, n_leaves, seconds = pickle.loads(sent)
        assert (rank, n_leaves) == (r, report.per_rank[r]["leaf_count"])
        assert seconds == report.per_rank[r]["integrate_s"]


def f_blocks(store, leaves):
    """Positions of the given loaded leaves' f in the table, leaf after
    leaf."""
    return _ranges(store.load[leaves], store.modes[leaves])


@pytest.mark.parametrize("workers", [1, 2])
def test_each_rank_writes_exactly_its_leaves_blocks(monkeypatch, workers):
    # the cut leaves' K blocks and the own f blocks are prefilled with
    # NaN: after the integrate phase, inline or in forked workers, the
    # parent reads no fill value.  Each rank fills its cut leaves' K
    # blocks, n**2 entries per leaf of n dofs, and the f block of each
    # leaf whose f is its own, n entries, bit-equal to the per-leaf
    # oracle's f plus the leaf's flux load; its triplets number kept**2
    # per leaf; inline, it writes nothing outside them
    allocate, checked = LeafBlocks.allocate, []
    parts = {}

    def prefilled(free, kept, local, modes, systems, *args, **kwargs):
        store = allocate(free, kept, local, modes, systems, *args, **kwargs)
        store.table[store.blocks(np.flatnonzero(systems.signature < 0))] = (
            np.nan)
        store.table[f_blocks(store, np.flatnonzero(systems.own_load))] = (
            np.nan)
        return store

    def integrate(basis, leaf_tags, rank, systems, store):
        before = store.table.copy()
        inter = integrate_rank_system(basis, leaf_tags, rank, systems, store)
        leaf_ids = basis.leaves[leaf_tags]
        free = DirichletMap(basis, parts["dirichlet"]).free
        kept = np.array([np.count_nonzero(np.isin(basis.leaf_dofs(leaf), free))
                         for leaf in leaf_ids], int)
        cut = leaf_tags[systems.signature[leaf_tags] < 0]
        own = leaf_tags[systems.own_load[leaf_tags]]
        at = np.concatenate((store.blocks(cut), f_blocks(store, own)))
        assert at.size == (np.sum(basis.mode_counts[cut] ** 2)
                           + np.sum(basis.mode_counts[own]))
        assert np.sum(kept ** 2) == inter.rows.size
        mine = np.zeros(store.table.size, dtype=bool)
        mine[at] = True
        assert not np.any(np.isnan(store.table[mine]))
        if workers == 1:
            # the table's other blocks hold what they held before
            assert np.array_equal(store.table[~mine], before[~mine],
                                  equal_nan=True)
        kwargs = parts["kwargs"]
        for i in own.tolist():
            leaf = basis.leaves[i]
            _, fe, _ = element_system(basis, leaf, kwargs.get("domain"),
                                      kwargs.get("depth", 0),
                                      kwargs.get("source"))
            if "flux" in kwargs:
                fl = leaf_flux_load(basis, leaf, kwargs["flux"],
                                    kwargs["flux_part"])
                if fl is not None:
                    fe = fl if fe is None else fe + fl
            got = store.table[f_blocks(store, [i])]
            assert got.tobytes() == fe.tobytes(), i
        return inter

    def assemble(store, *args):
        assert not np.any(np.isnan(store.table))
        # every table entry is a leaf's K or f entry
        leaves = np.arange(store.kept.size)
        checked.append(np.array_equal(
            np.unique(np.concatenate((store.blocks(leaves), f_blocks(
                store, leaves[store.load >= 0])))),
            np.arange(store.table.size)))
        return exchange_and_assemble(store, *args)

    monkeypatch.setattr(LeafBlocks, "allocate", prefilled)
    monkeypatch.setattr("overlayfem.distributed.integrate_rank_system",
                        integrate)
    monkeypatch.setattr("overlayfem.distributed.exchange_and_assemble",
                        assemble)
    exact = LShapeSolution()
    disk = EmbeddedDomain(Disk((0.0, 0.0), 0.8), epsilon=1e-8)
    # boundary leaves keep part of their dofs; flux loads reach only
    # some leaves; cut leaves come from the kernel; the sfc ranks' leaves
    # are scattered over the pre-order
    for mesh, orders, part, kwargs in (
            (Mesh(lshape_mesh_spec(3)), 3, lshape_dirichlet,
             dict(flux=exact.flux, flux_part=lshape_neumann_part)),
            (interface_refined(4, disk, 1), 2, fcm_disk_dirichlet,
             dict(domain=disk, depth=3, source=unit_source))):
        parts.update(dirichlet=part, kwargs=kwargs)
        run_step(mesh, PolynomialOrderField(uniform=orders), 3, part,
                 workers=workers, **kwargs)
    assert checked == [True, True]


@pytest.mark.parametrize("drop", [False, True], ids=["drop off", "drop on"])
def test_step_peaks_below_its_triplet_bytes(drop):
    # from the K table's allocation through the assembly, with the CSR it
    # returns, a step's traced peak stays below 1.5x the 16 bytes per
    # triplet (an int64 key and a float64 value) of a store that holds
    # every leaf's triplets.  The table is built here under tracemalloc;
    # a run's shared table is outside tracemalloc's view but unmapped at
    # the same point.  The drop compacts each row block in place, so it
    # adds no array the size of the step
    mesh = Mesh(lshape_mesh_spec(8))
    basis = Basis(mesh, PolynomialOrderField(uniform=4))
    dirichlet = DirichletMap(basis, lshape_dirichlet)
    exact = LShapeSolution()
    systems = leaf_systems(basis, source=unit_source, flux=exact.flux,
                           flux_part=lshape_neumann_part)
    to_free = np.full(basis.dofmap.total, -1, dtype=np.int32)
    to_free[dirichlet.free] = np.arange(dirichlet.n_free)
    ranks = partition_leaves("sfc", mesh, basis, compute_leaf_weights(basis),
                             4)
    owner = distribute_dofs_contiguous(dirichlet.n_free, 4)
    _, kept, _ = leaf_free_dofs(basis, to_free, len(basis.leaves))
    triplet_bytes = 16 * int(np.sum(kept ** 2))
    tracemalloc.start()
    try:
        store, _ = integrate_ranks(basis, to_free, dirichlet.n_free, ranks, 4,
                                   systems)
        system, _ = exchange_and_assemble(store, owner, drop)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert system.matrix.nnz > 0
    assert (system.dropped > 0) == drop
    assert all(getattr(store, name) is None for name in STORE_COLUMNS)
    assert peak <= 1.5 * triplet_bytes, peak / triplet_bytes
