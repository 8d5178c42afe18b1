"""Ghost-free distributed assembly and solve on a simulated rank runtime.

The runtime is deterministic and in-process: "ranks" are index sets of
active leaves, produced by any partitioner from :mod:`overlayfem.partition`.
Each rank integrates exactly its own leaves (no element is ever touched by
two ranks), producing an intermediate triplet system that may contain rows
it does not own.  Those rows are shipped to their owners as exchange
packets, and every owner accumulates in a fixed global order: triplets are
tagged with their source-leaf index and summed sorted by (row, column,
leaf).  The assembled rows, the solver iterates, and the solution are
therefore bit-identical no matter how many ranks participate.

Every leaf is integrated by one kernel, :func:`overlayfem.physics.element_system`,
which returns its stiffness matrix and source load from a single pass over
the leaf's quadrature rule.

Two things are deliberately split: the numeric path keeps leaf tags so the
accumulation order cannot depend on the rank count, while the reported
communication volume counts merged (row, column) entries, the granularity
a real message would have after local compression.  Each rank counts them
once: the distinct (row, column) keys of its intermediate system, binned by
the owner of the row, give the entries kept at home, the entries each
packet ships, and their total.

The conjugate-gradient solver mirrors the same discipline.  Every rank
multiplies only its owned rows, but inner products are taken on the
gathered global vectors in global index order, so iteration counts and
residual histories do not change with the partition either.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse

from .basis import Basis
from .partition import (compute_leaf_weights, partition_leaves,
                        rank_weight_sums)
from .physics import DirichletMap, element_system, leaf_flux_load


class SolverError(RuntimeError):
    """Raised when the iterative solve does not reach its tolerance."""

    def __init__(self, message, residual_history):
        super().__init__(message)
        self.residual_history = list(residual_history)
        self.steps = []  # report dicts of the steps completed before it


# ----------------------------------------------------------------------
# dof ownership

def distribute_dofs_contiguous(n_free, n_ranks):
    """Equal-count blocks of free dof indices."""
    idx = np.arange(n_free, dtype=np.int64)
    return (idx * n_ranks // n_free).astype(np.int64)


def distribute_dofs_graph(leaf_free_dofs, leaf_ranks, n_free, n_ranks):
    """Majority-owner assignment of free dofs.

    A dof goes to the rank holding most of the leaves in its support; ties
    go to the lower rank.  `leaf_free_dofs` lists, per active leaf in
    pre-order, the free indices supported on that leaf.
    """
    counts = np.zeros((n_ranks, n_free), dtype=np.int64)
    for dofs, rank in zip(leaf_free_dofs, leaf_ranks):
        counts[rank, dofs] += 1
    if np.any(counts.sum(axis=0) == 0):
        missing = int(np.flatnonzero(counts.sum(axis=0) == 0)[0])
        raise ValueError(f"free dof {missing} has no supporting leaf")
    return counts.argmax(axis=0).astype(np.int64)


# ----------------------------------------------------------------------
# rank-local integration

@dataclass
class IntermediateSystem:
    """One rank's raw triplets before ownership exchange."""

    rank: int
    rows: np.ndarray
    cols: np.ndarray
    vals: np.ndarray
    leaf_tags: np.ndarray
    rhs_rows: np.ndarray
    rhs_vals: np.ndarray
    rhs_tags: np.ndarray
    n_leaves: int


def integrate_rank_system(basis, to_free, leaf_ids, leaf_tags, rank,
                          domain=None, depth=0, source=None,
                          flux=None, flux_part=None):
    """Integrate exactly the given leaves into free-index triplets."""
    mesh = basis.mesh
    by_id = {leaf.id: leaf for leaf in mesh.active_leaf_elements()}
    rows, cols, vals, tags = [], [], [], []
    rrows, rvals, rtags = [], [], []
    for lid, tag in zip(leaf_ids, leaf_tags):
        leaf = by_id[lid]
        K, fe, gids = element_system(basis, leaf, domain, depth, source)
        fidx = to_free[gids]
        keep = fidx >= 0
        ki = np.flatnonzero(keep)
        fi = fidx[ki]
        gi = np.repeat(fi, fi.size)
        gj = np.tile(fi, fi.size)
        rows.append(gi)
        cols.append(gj)
        vals.append(K[np.ix_(ki, ki)].ravel())
        tags.append(np.full(gi.size, tag, dtype=np.int64))
        if flux is not None:
            fl = leaf_flux_load(basis, leaf, flux, flux_part)
            if fl is not None:
                fe = fl if fe is None else fe + fl
        if fe is not None:
            rrows.append(fi)
            rvals.append(fe[ki])
            rtags.append(np.full(fi.size, tag, dtype=np.int64))

    def cat(parts, dtype):
        return (np.concatenate(parts) if parts
                else np.empty(0, dtype=dtype))

    return IntermediateSystem(
        rank=rank,
        rows=cat(rows, np.int64), cols=cat(cols, np.int64),
        vals=cat(vals, float), leaf_tags=cat(tags, np.int64),
        rhs_rows=cat(rrows, np.int64), rhs_vals=cat(rvals, float),
        rhs_tags=cat(rtags, np.int64),
        n_leaves=len(leaf_ids),
    )


@dataclass
class ExchangePacket:
    """Rows one rank integrated but another rank owns."""

    src: int
    dst: int
    rows: np.ndarray
    cols: np.ndarray
    vals: np.ndarray
    leaf_tags: np.ndarray
    rhs_rows: np.ndarray
    rhs_vals: np.ndarray
    rhs_tags: np.ndarray
    merged_entries: int


@dataclass
class DistributedSystem:
    """Owned-row blocks of the reduced system, one per rank."""

    n_free: int
    n_ranks: int
    owner: np.ndarray
    own_rows: list           # per rank: ascending free indices
    blocks: list              # per rank: CSR (n_own, n_free)
    rhs: list                 # per rank: (n_own,) arrays
    diag: list                # per rank: (n_own,) arrays
    halo_counts: list         # per rank: off-rank columns referenced
    sent_entries: list        # per rank: merged entries shipped away
    kept_entries: list        # per rank: merged entries kept at home
    total_entries: list       # per rank: merged entries integrated

    def gather(self, parts):
        out = np.empty(self.n_free)
        for rows, vec in zip(self.own_rows, parts):
            out[rows] = vec
        return out

    def gather_matrix(self):
        """The full reduced matrix, for verification against serial."""
        return scipy.sparse.vstack(
            [blk for blk in self.blocks], format="csr"
        )[np.argsort(np.concatenate(self.own_rows)), :]

    def gather_rhs(self):
        return self.gather(self.rhs)


def _accumulate(rows, cols, vals, tags, n_free):
    """Sum duplicates in (row, col, leaf-tag) order; order-stable in P."""
    if rows.size == 0:
        return (np.empty(0, np.int64), np.empty(0, np.int64),
                np.empty(0, float))
    order = np.lexsort((tags, cols, rows))
    rows, cols, vals = rows[order], cols[order], vals[order]
    keys = rows * n_free + cols
    starts = np.flatnonzero(np.r_[True, np.diff(keys) != 0])
    summed = np.add.reduceat(vals, starts)
    return rows[starts], cols[starts], summed


def _accumulate_rhs(rows, vals, tags):
    if rows.size == 0:
        return np.empty(0, np.int64), np.empty(0, float)
    order = np.lexsort((tags, rows))
    rows, vals = rows[order], vals[order]
    starts = np.flatnonzero(np.r_[True, np.diff(rows) != 0])
    return rows[starts], np.add.reduceat(vals, starts)


def exchange_and_assemble(intermediates, owner, n_free, n_ranks):
    """Ship non-owned rows to their owners and build the final blocks."""
    owner = np.asarray(owner)
    packets = []
    inbox = [[] for _ in range(n_ranks)]
    total_entries, kept_entries = [], []
    for inter in intermediates:
        # merged (row, col) entries per destination rank, counted once
        keys = np.unique(inter.rows * n_free + inter.cols)
        merged = np.bincount(owner[keys // n_free], minlength=n_ranks)
        total_entries.append(int(merged.sum()))
        kept_entries.append(int(merged[inter.rank]))
        row_owner = owner[inter.rows]
        rhs_owner = owner[inter.rhs_rows]
        for dst in range(n_ranks):
            m = row_owner == dst
            rm = rhs_owner == dst
            home = dst == inter.rank
            if not home and not m.any() and not rm.any():
                continue
            part = (inter.rows[m], inter.cols[m], inter.vals[m],
                    inter.leaf_tags[m], inter.rhs_rows[rm],
                    inter.rhs_vals[rm], inter.rhs_tags[rm])
            inbox[dst].append(part)
            if not home:
                packets.append(ExchangePacket(
                    inter.rank, dst, *part, merged_entries=int(merged[dst])))

    sent_entries = [t - k for t, k in zip(total_entries, kept_entries)]

    own_rows, blocks, rhs, diag, halo = [], [], [], [], []
    for r in range(n_ranks):
        mine = np.flatnonzero(owner == r)
        own_rows.append(mine)
        parts = inbox[r]
        rows = np.concatenate([p[0] for p in parts]) if parts else np.empty(0, np.int64)
        cols = np.concatenate([p[1] for p in parts]) if parts else np.empty(0, np.int64)
        vals = np.concatenate([p[2] for p in parts]) if parts else np.empty(0, float)
        tags = np.concatenate([p[3] for p in parts]) if parts else np.empty(0, np.int64)
        rows, cols, vals = _accumulate(rows, cols, vals, tags, n_free)

        rr = np.concatenate([p[4] for p in parts]) if parts else np.empty(0, np.int64)
        rv = np.concatenate([p[5] for p in parts]) if parts else np.empty(0, float)
        rt = np.concatenate([p[6] for p in parts]) if parts else np.empty(0, np.int64)
        rr, rv = _accumulate_rhs(rr, rv, rt)

        to_local = np.full(n_free, -1, dtype=np.int64)
        to_local[mine] = np.arange(mine.size)
        blk = scipy.sparse.csr_matrix(
            (vals, (to_local[rows], cols)), shape=(mine.size, n_free)
        )
        blocks.append(blk)
        b = np.zeros(mine.size)
        b[to_local[rr]] = rv
        rhs.append(b)
        dg = np.zeros(mine.size)
        on_diag = cols == rows
        dg[to_local[rows[on_diag]]] = vals[on_diag]
        diag.append(dg)
        touched = np.unique(cols)
        halo.append(int(np.sum(owner[touched] != r)) if touched.size else 0)

    return DistributedSystem(
        n_free=n_free, n_ranks=n_ranks, owner=owner,
        own_rows=own_rows, blocks=blocks, rhs=rhs, diag=diag,
        halo_counts=halo, sent_entries=sent_entries,
        kept_entries=kept_entries, total_entries=total_entries,
    ), packets


# ----------------------------------------------------------------------
# solver

def parallel_cg(system, rhs=None, tol=1e-10, max_iter=None):
    """Jacobi-preconditioned CG with partition-independent reductions.

    Returns (solution, iterations, residual_history).  The residual test
    is ||r|| <= tol * ||b|| (absolute when b vanishes).  Raises
    :class:`SolverError` with the history attached when max_iter is hit.
    """
    n = system.n_free
    if max_iter is None:
        max_iter = 20 * n
    b = system.gather_rhs() if rhs is None else np.asarray(rhs, dtype=float)
    dinv_parts = []
    for dg in system.diag:
        if np.any(dg <= 0):
            raise ValueError("non-positive diagonal entry; system is not SPD")
        dinv_parts.append(1.0 / dg)

    def matvec(x):
        return system.gather([blk @ x for blk in system.blocks])

    def precond(r):
        return system.gather([dinv * r[rows] for dinv, rows
                              in zip(dinv_parts, system.own_rows)])

    x = np.zeros(n)
    r = b.copy()
    bnorm = float(np.linalg.norm(b))
    target = tol * bnorm if bnorm > 0 else tol
    history = [float(np.linalg.norm(r))]
    if history[-1] <= target:
        return x, 0, history
    z = precond(r)
    p = z.copy()
    rz = float(np.dot(r, z))
    for it in range(1, max_iter + 1):
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
    raise SolverError(
        f"CG did not reach {target:.3e} within {max_iter} iterations "
        f"(last residual {history[-1]:.3e})", history)


# ----------------------------------------------------------------------
# one pipeline step

@dataclass
class StepReport:
    """Everything one refine-to-solve sweep produced.

    `leaf_weights` and `leaf_ranks` are the step's cost-model weights and
    leaf partition, pre-order; :meth:`to_dict` leaves them out.
    """

    step: int
    n_leaves: int
    n_dofs: int
    n_free: int
    n_ranks: int
    partitioner: str
    dof_distribution: str
    per_rank: list
    timings: dict
    cg_iterations: int
    residual: float
    leaf_weights: np.ndarray
    leaf_ranks: np.ndarray
    extras: dict = field(default_factory=dict)

    def to_dict(self):
        out = {
            "step": self.step,
            "leaves": self.n_leaves,
            "dofs": self.n_dofs,
            "free_dofs": self.n_free,
            "ranks": self.n_ranks,
            "partitioner": self.partitioner,
            "dof_distribution": self.dof_distribution,
            "per_rank": self.per_rank,
            "timings": self.timings,
            "cg_iterations": self.cg_iterations,
            "residual": self.residual,
        }
        out.update(self.extras)
        return out


def run_step(mesh, orders, n_ranks, dirichlet_part, marks=None,
             partitioner="sfc", dof_distribution="graph",
             domain=None, depth=0, source=None, flux=None, flux_part=None,
             tol=1e-10, step_index=0, workers=None):
    """Refine, partition, integrate, exchange, and solve one step.

    Returns (report, basis, solution) with the solution expanded to the
    full coefficient vector (constrained entries zero).
    """
    timings = {}
    t = time.perf_counter()
    if marks:
        mesh.refine(marks)
    # space registration (activation, dof enumeration, constraints) is
    # charged to the refine phase: it is the cost of changing the mesh
    basis = Basis(mesh, orders)
    dirichlet = DirichletMap(basis, dirichlet_part)
    to_free = np.full(basis.dofmap.total, -1, dtype=np.int64)
    to_free[dirichlet.free] = np.arange(dirichlet.n_free)
    timings["refine"] = time.perf_counter() - t

    t = time.perf_counter()
    leaves = mesh.active_leaf_elements()
    weights = compute_leaf_weights(basis, domain, depth)
    ranks = partition_leaves(partitioner, mesh, basis, weights, n_ranks)
    timings["partition"] = time.perf_counter() - t

    t = time.perf_counter()
    intermediates = _integrate_all(basis, to_free, leaves, ranks, n_ranks,
                                   domain, depth, source, flux, flux_part,
                                   workers)
    timings["integrate"] = time.perf_counter() - t

    t = time.perf_counter()
    leaf_free_dofs = [to_free[basis.leaf_dofs(leaf)] for leaf in leaves]
    leaf_free_dofs = [d[d >= 0] for d in leaf_free_dofs]
    if dof_distribution == "graph":
        owner = distribute_dofs_graph(leaf_free_dofs, ranks,
                                      dirichlet.n_free, n_ranks)
    elif dof_distribution == "contiguous":
        owner = distribute_dofs_contiguous(dirichlet.n_free, n_ranks)
    else:
        raise ValueError(f"unknown dof distribution {dof_distribution!r}")
    timings["dof_dist"] = time.perf_counter() - t

    t = time.perf_counter()
    system, _ = exchange_and_assemble(intermediates, owner,
                                      dirichlet.n_free, n_ranks)
    timings["assemble"] = time.perf_counter() - t

    t = time.perf_counter()
    u_free, iterations, history = parallel_cg(system, tol=tol)
    timings["solve"] = time.perf_counter() - t

    t = time.perf_counter()
    solution = dirichlet.expand(u_free)
    weight_sums = rank_weight_sums(weights, ranks, n_ranks)
    per_rank = []
    for r in range(n_ranks):
        per_rank.append({
            "rank": r,
            "leaf_count": int(np.sum(ranks == r)),
            "weight_sum": float(weight_sums[r]),
            "sent_triplets": int(system.sent_entries[r]),
            "kept_triplets": int(system.kept_entries[r]),
            "owned_dofs": int(system.own_rows[r].size),
            "halo_columns": int(system.halo_counts[r]),
        })
    timings["postprocess"] = time.perf_counter() - t

    report = StepReport(
        step=step_index, n_leaves=len(leaves), n_dofs=basis.dofmap.total,
        n_free=dirichlet.n_free, n_ranks=n_ranks, partitioner=partitioner,
        dof_distribution=dof_distribution, per_rank=per_rank,
        timings=timings, cg_iterations=iterations,
        residual=history[-1], leaf_weights=weights, leaf_ranks=ranks,
    )
    return report, basis, solution


# ----------------------------------------------------------------------
# worker pool for the integrate phase

_POOL_STATE = {}


def _pool_init(basis, to_free, domain, depth, source, flux, flux_part):
    _POOL_STATE["args"] = (basis, to_free, domain, depth, source, flux,
                           flux_part)


def _pool_task(chunk):
    basis, to_free, domain, depth, source, flux, flux_part = _POOL_STATE["args"]
    rank, leaf_ids, leaf_tags = chunk
    return integrate_rank_system(basis, to_free, leaf_ids, leaf_tags, rank,
                                 domain, depth, source, flux, flux_part)


def _integrate_all(basis, to_free, leaves, ranks, n_ranks, domain, depth,
                   source, flux, flux_part, workers):
    chunks = []
    for r in range(n_ranks):
        idx = np.flatnonzero(np.asarray(ranks) == r)
        chunks.append((r, [leaves[i].id for i in idx], idx))
    if not workers or workers <= 1:
        return [integrate_rank_system(basis, to_free, lids, tags, r,
                                      domain, depth, source, flux, flux_part)
                for r, lids, tags in chunks]
    import concurrent.futures
    with concurrent.futures.ProcessPoolExecutor(
            max_workers=workers, initializer=_pool_init,
            initargs=(basis, to_free, domain, depth, source, flux,
                      flux_part)) as pool:
        return list(pool.map(_pool_task, chunks))
