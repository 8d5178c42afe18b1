"""Ghost-free distributed assembly and solve on a simulated rank runtime.

The runtime is deterministic and in-process: "ranks" are index sets of
active leaves, produced by any partitioner from :mod:`overlayfem.partition`.
Each rank integrates exactly its own leaves (no element is ever touched by
two ranks) into tagged triplets, one tag per source leaf.  The step builds
its leaf systems, :func:`overlayfem.physics.leaf_systems`, once before
the integrate phase fans out and hands the value to every rank, inline
or in a worker process: leaves with a single-cell rule take their
stiffness and load from it, cut leaves run the kernel,
:func:`overlayfem.physics.integrate_leaves`, and every leaf adds its
flux load.

Assembly is one sort.  All ranks' triplets are ordered by (row, column,
leaf tag) and summed per (row, column) into one global CSR operator; the
rhs is summed the same way by (row, leaf tag).  Because that order does
not involve ranks, the operator, the solver iterates and the solution are
bit-identical whatever the rank count.

Ranks are a ledger read off the same sort, not a second assembly.  A
free dof belongs to one owner; the rows a rank owns are its slice of the
operator.  Communication volume counts merged (row, column) entries, the
granularity a real message would have after local compression: a merged
entry that rank s integrated in a row rank d owns is one entry s ships to
d (kept at home when s == d).  Halo columns are the off-rank columns that
appear in a rank's owned rows.

The conjugate-gradient solver runs on the one operator: one matrix-vector
product and one Jacobi scaling per iteration, and inner products in
global index order, so iteration counts and residual histories do not
change with the partition either.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse

from .basis import Basis
from .mesh import _ranges
from .partition import (compute_leaf_weights, partition_leaves,
                        rank_weight_sums)
from .physics import DirichletMap, integrate_leaves, leaf_systems


class SolverError(RuntimeError):
    """Raised when the iterative solve does not reach its tolerance."""

    reason = "max_iter"     # CG stops only at its iteration limit

    def __init__(self, message, residual_history):
        super().__init__(message)
        self.residual_history = list(residual_history)
        self.steps = []  # report dicts of the steps completed before it
        self.step = None  # index of the step whose solve failed

    def status(self):
        """The failed run's ``report.json`` status."""
        history = self.residual_history
        return {"reason": self.reason, "step": self.step,
                "iterations": len(history) - 1,
                "last_residual": history[-1] if history else None}


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
    sizes = [len(dofs) for dofs in leaf_free_dofs]
    flat = np.concatenate([np.empty(0, dtype=np.int64), *leaf_free_dofs])
    slot = np.repeat(np.asarray(leaf_ranks, dtype=np.int64), sizes) * n_free
    counts = np.bincount(slot + flat.astype(np.int64),
                         minlength=n_ranks * n_free).reshape(n_ranks, n_free)
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
    seconds: float = 0.0     # wall time of the integration


def integrate_rank_system(basis, to_free, leaf_ids, leaf_tags, rank,
                          systems):
    """Integrate exactly the given leaves into free-index triplets, leaf
    after leaf: K and f from the step's
    :class:`~overlayfem.physics.LeafSystems` or, for a cut leaf, from
    :func:`overlayfem.physics.integrate_leaves`, plus its flux load.
    """
    start = time.perf_counter()
    # active leaves are the Basis's first table rows, in pre-order
    pos = basis.row_of[np.asarray(leaf_ids, dtype=np.int64)]
    leaf_tags = np.asarray(leaf_tags, dtype=np.int32)
    sig, load = systems.signature[pos], systems.load[pos]
    Ks = [systems.stiffness[k] if k >= 0 else None for k in sig.tolist()]
    fs = [systems.loads[k] if k >= 0 else None for k in load.tolist()]
    # cut leaves through the kernel
    cut = np.flatnonzero(sig < 0)
    for j, K, fe in zip(cut.tolist(), *integrate_leaves(
            basis, pos[cut], systems.domain, systems.depth, systems.source)):
        Ks[j], fs[j] = K, fe
    # a flux load adds to the source load, for every leaf a flux reaches
    for j, i in enumerate(pos.tolist()):
        fl = systems.flux_loads.get(i)
        if fl is not None:
            fs[j] = fl if fs[j] is None else fs[j] + fl

    # the triplets leaf after leaf, row-major over each leaf's K: a leaf
    # with n dofs repeats each dof n times as a row and its dofs n times
    # as columns; an entry is kept when both are free
    n = basis.mode_counts[pos]
    fidx = to_free[basis.dofs[_ranges(basis.dof_offsets[pos], n)]]
    per_dof = np.repeat(n, n)
    rows = np.repeat(fidx, per_dof)
    cols = fidx[_ranges(np.repeat(np.cumsum(n) - n, n), per_dof)]
    keep = (rows >= 0) & (cols >= 0)
    loaded = np.repeat([f is not None for f in fs], n).astype(bool)
    rhs_rows = fidx[loaded]
    kept = rhs_rows >= 0

    def cat(parts):
        return np.concatenate([p.ravel() for p in parts if p is not None]
                              + [np.empty(0)])

    return IntermediateSystem(
        rank=rank, rows=rows[keep], cols=cols[keep], vals=cat(Ks)[keep],
        leaf_tags=np.repeat(leaf_tags, n * n)[keep],
        rhs_rows=rhs_rows[kept], rhs_vals=cat(fs)[kept],
        rhs_tags=np.repeat(leaf_tags, n)[loaded][kept],
        n_leaves=len(leaf_ids),
        seconds=time.perf_counter() - start,
    )


@dataclass
class DistributedSystem:
    """The reduced system as one operator, with the per-rank ledger."""

    n_free: int
    n_ranks: int
    owner: np.ndarray
    own_rows: list           # per rank: ascending free indices
    matrix: scipy.sparse.csr_matrix  # (n_free, n_free)
    rhs: np.ndarray          # (n_free,)
    halo_counts: list         # per rank: off-rank columns in its owned rows
    sent_entries: list        # per rank: merged entries shipped away
    kept_entries: list        # per rank: merged entries kept at home
    total_entries: list       # per rank: merged entries integrated

    @property
    def blocks(self):
        """Each rank's owned rows of the operator, as CSR slices."""
        return [self.matrix[rows] for rows in self.own_rows]


def _run_starts(keys):
    """Mask of the first element of each run of equal sorted keys."""
    new = np.empty(keys.size, dtype=bool)
    new[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=new[1:])
    return new


def exchange_and_assemble(intermediates, owner, n_free, n_ranks):
    """Sum every rank's triplets into one operator and count the traffic.

    Returns (system, traffic), where traffic[s, d] is the number of merged
    (row, column) entries rank s integrated in rows rank d owns.
    """
    # the triplet arrays are a step's largest: each temporary is freed
    # as soon as it is spent.  Their index columns may be int32; the key
    # row * n_free + col is formed in int64, where it cannot overflow
    owner = np.asarray(owner)
    sizes = [inter.rows.size for inter in intermediates]
    keys = np.concatenate([inter.rows.astype(np.int64) * n_free + inter.cols
                           for inter in intermediates])
    order = np.lexsort((np.concatenate([inter.leaf_tags
                                        for inter in intermediates]), keys))
    keys = keys[order]
    vals = np.concatenate([inter.vals for inter in intermediates])[order]
    src = np.repeat(np.arange(n_ranks, dtype=np.min_scalar_type(n_ranks)),
                    sizes)[order]
    del order
    new = _run_starts(keys)
    starts = np.flatnonzero(new)
    data = np.add.reduceat(vals, starts)
    del vals
    rows, cols = np.divmod(keys[starts], n_free)
    del keys, starts

    # ledger: integrated[e, s] is True when rank s integrated merged entry e
    slot = np.cumsum(new)
    del new
    slot -= 1
    slot *= n_ranks
    slot += src
    del src
    integrated = np.zeros(data.size * n_ranks, dtype=bool)
    integrated[slot] = True
    del slot
    integrated = integrated.reshape(data.size, n_ranks)
    row_owner = owner[rows]
    traffic = np.stack([np.bincount(row_owner[integrated[:, s]],
                                    minlength=n_ranks)
                        for s in range(n_ranks)])
    del integrated
    total_entries = [int(t) for t in traffic.sum(axis=1)]
    kept_entries = [int(k) for k in np.diagonal(traffic)]
    sent_entries = [t - k for t, k in zip(total_entries, kept_entries)]
    off = owner[cols] != row_owner
    halo = np.zeros((n_ranks, n_free), dtype=bool)
    halo[row_owner[off], cols[off]] = True
    del row_owner, off

    indptr = np.zeros(n_free + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=n_free), out=indptr[1:])
    matrix = scipy.sparse.csr_matrix((data, cols, indptr),
                                     shape=(n_free, n_free))

    rhs_rows = np.concatenate([inter.rhs_rows for inter in intermediates])
    order = np.lexsort((np.concatenate([inter.rhs_tags
                                        for inter in intermediates]),
                        rhs_rows))
    rhs_rows = rhs_rows[order]
    starts = np.flatnonzero(_run_starts(rhs_rows))
    rhs = np.zeros(n_free)
    rhs[rhs_rows[starts]] = np.add.reduceat(
        np.concatenate([inter.rhs_vals for inter in intermediates])[order],
        starts)

    return DistributedSystem(
        n_free=n_free, n_ranks=n_ranks, owner=owner,
        own_rows=[np.flatnonzero(owner == r) for r in range(n_ranks)],
        matrix=matrix, rhs=rhs,
        halo_counts=[int(h) for h in halo.sum(axis=1)],
        sent_entries=sent_entries, kept_entries=kept_entries,
        total_entries=total_entries,
    ), traffic


# ----------------------------------------------------------------------
# solver

PRECONDITIONER = "jacobi"


def parallel_cg(system, rhs=None, tol=1e-10, max_iter=None):
    """Jacobi-preconditioned CG with partition-independent reductions.

    Returns (solution, iterations, residual_history).  The residual test
    is ||r|| <= tol * ||b|| (absolute when b vanishes).  Raises
    :class:`SolverError` with the history attached when max_iter is hit.
    """
    n = system.n_free
    if max_iter is None:
        max_iter = 20 * n
    b = system.rhs if rhs is None else np.ascontiguousarray(rhs, dtype=float)
    A = system.matrix
    diag = A.diagonal()
    if np.any(diag <= 0):
        raise ValueError("non-positive diagonal entry; system is not SPD")
    dinv = 1.0 / diag

    # x, r, z and p are updated in place through one scratch vector;
    # math.sqrt(r.dot(r)) is np.linalg.norm(r) of a 1-d float array
    x = np.zeros(n)
    r = b.copy()
    bnorm = math.sqrt(b.dot(b))
    target = tol * bnorm if bnorm > 0 else tol
    history = [math.sqrt(r.dot(r))]
    if history[-1] <= target:
        return x, 0, history
    z = dinv * r
    p = z.copy()
    scratch = np.empty(n)
    rz = float(r.dot(z))
    for it in range(1, max_iter + 1):
        q = A @ p
        alpha = rz / float(p.dot(q))
        x += np.multiply(alpha, p, out=scratch)
        r -= np.multiply(alpha, q, out=scratch)
        rnorm = math.sqrt(r.dot(r))
        history.append(rnorm)
        if rnorm <= target:
            return x, it, history
        np.multiply(dinv, r, out=z)
        rz_new = float(r.dot(z))
        beta = rz_new / rz
        rz = rz_new
        p *= beta
        p += z
    raise SolverError(
        f"CG did not reach {target:.3e} within {max_iter} iterations "
        f"(last residual {history[-1]:.3e})", history)


def thin_history(history, limit=200):
    """At most `limit` [iteration, residual] pairs, first and last kept."""
    keep = np.unique(np.linspace(0, len(history) - 1,
                                 min(len(history), limit)).round())
    return [[int(i), history[int(i)]] for i in keep]


# ----------------------------------------------------------------------
# one pipeline step

@dataclass
class StepReport:
    """Everything one refine-to-solve sweep produced.

    `leaf_weights` and `leaf_ranks` are the step's cost-model weights and
    leaf partition, pre-order; :meth:`to_dict` leaves them out.
    `cost_model_r` is the Pearson r of the ranks' weight sums and
    integration times, None for one rank or a constant column.
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
    residual_history: list   # thinned [iteration, residual] pairs
    leaf_weights: np.ndarray
    leaf_ranks: np.ndarray
    cost_model_r: float | None = None
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
            "preconditioner": PRECONDITIONER,
            "residual_history": self.residual_history,
            "cost_model_r": self.cost_model_r,
        }
        out.update(self.extras)
        return out


def run_step(mesh, orders, n_ranks, dirichlet_part, marks=None,
             partitioner="sfc", dof_distribution="graph",
             domain=None, depth=0, source=None, flux=None, flux_part=None,
             tol=1e-10, step_index=0, workers=None):
    """Refine, partition, integrate, exchange, and solve one step;
    ``source`` and ``flux`` must act point by point.

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
    # int32 free indices: the triplets' row and column columns inherit
    # the type, and they are the assembly's bulk, the step's memory peak
    to_free = np.full(basis.dofmap.total, -1, dtype=np.int32)
    to_free[dirichlet.free] = np.arange(dirichlet.n_free)
    timings["refine"] = time.perf_counter() - t

    t = time.perf_counter()
    leaves = mesh.active_leaf_elements()
    weights = compute_leaf_weights(basis, domain, depth)
    ranks = partition_leaves(partitioner, mesh, basis, weights, n_ranks)
    timings["partition"] = time.perf_counter() - t

    t = time.perf_counter()
    systems = leaf_systems(basis, domain, depth, source, flux, flux_part)
    intermediates = _integrate_all(basis, to_free, leaves, ranks, n_ranks,
                                   systems, workers)
    timings["integrate"] = time.perf_counter() - t
    rank_seconds = [inter.seconds for inter in intermediates]
    # nothing reads the step's leaf systems again: free them before
    # assembly, the step's memory peak
    del systems

    t = time.perf_counter()
    if dof_distribution == "graph":
        # the free dofs of each leaf, read off the Basis's leaf-dof table
        free = to_free[basis.dofs[:basis.dof_offsets[len(leaves)]]]
        kept = np.bincount(np.repeat(np.arange(len(leaves)),
                                     basis.mode_counts[:len(leaves)])[free >= 0],
                           minlength=len(leaves))
        leaf_free_dofs = np.split(free[free >= 0], np.cumsum(kept)[:-1])
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
    # the solve reads only the assembled operator: free the triplets
    del intermediates

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
            "integrate_s": rank_seconds[r],
        })
    timings["postprocess"] = time.perf_counter() - t

    report = StepReport(
        step=step_index, n_leaves=len(leaves), n_dofs=basis.dofmap.total,
        n_free=dirichlet.n_free, n_ranks=n_ranks, partitioner=partitioner,
        dof_distribution=dof_distribution, per_rank=per_rank,
        timings=timings, cg_iterations=iterations,
        residual=history[-1], residual_history=thin_history(history),
        leaf_weights=weights, leaf_ranks=ranks,
        cost_model_r=pearson_r(weight_sums, rank_seconds),
    )
    return report, basis, solution


def pearson_r(a, b):
    """Pearson correlation of two equal-length columns, or None when it is
    undefined: fewer than two entries or a constant column."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    if a.size < 2 or np.ptp(a) == 0 or np.ptp(b) == 0:
        return None
    return float(np.corrcoef(a, b)[0, 1])


# ----------------------------------------------------------------------
# worker pool for the integrate phase

_POOL_STATE = {}


def _pool_init(basis, to_free, systems):
    _POOL_STATE["args"] = (basis, to_free, systems)


def _pool_task(chunk):
    basis, to_free, systems = _POOL_STATE["args"]
    return integrate_rank_system(basis, to_free, *chunk, systems)


def _integrate_all(basis, to_free, leaves, ranks, n_ranks, systems, workers):
    # one (leaf ids, leaf tags, rank) chunk per rank
    chunks = []
    for r in range(n_ranks):
        idx = np.flatnonzero(np.asarray(ranks) == r)
        chunks.append((leaves[idx], idx, r))
    # a fork pool starts all its processes at once: no more than chunks
    workers = min(workers or 1, n_ranks)
    if workers <= 1:
        return [integrate_rank_system(basis, to_free, *chunk, systems)
                for chunk in chunks]
    import concurrent.futures
    with concurrent.futures.ProcessPoolExecutor(
            max_workers=workers, initializer=_pool_init,
            initargs=(basis, to_free, systems)) as pool:
        return list(pool.map(_pool_task, chunks))
