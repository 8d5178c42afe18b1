"""Ghost-free distributed assembly and solve on a simulated rank runtime.

The runtime is deterministic and in-process: "ranks" are index sets of
active leaves, produced by any partitioner from :mod:`overlayfem.partition`.
Each rank integrates exactly its own leaves (no element is ever touched by
two ranks) into triplets.  The step builds its leaf systems,
:func:`overlayfem.physics.leaf_systems`, once before the integrate phase
fans out and hands the value to every rank, inline or in a worker
process: leaves with a single-cell rule take their stiffness and load
from it, cut leaves run the kernel,
:func:`overlayfem.physics.integrate_leaves`, and every leaf adds its
flux load.

The step's triplets live in one store, :class:`Triplets`, allocated
before the integrate phase and laid out in leaf pre-order: each leaf's
block sits at an offset fixed by the free dof counts of the leaves
before it, so every rank writes its leaves' blocks in place and the
store's bytes do not depend on the partition.  When the ranks run in
forked workers the store is in anonymous shared memory, and nothing is
copied back.

Assembly is one sort.  Each triplet's key row * n_free + col is packed
with its store position into one int64 and sorted in place, which orders
the triplets by (row, column) and, within an entry, by leaf.  The
triplets are summed per (row, column) into one global CSR operator, and
the rhs is summed the same way by (row, leaf).  Because that order does
not involve ranks, the operator, the solver iterates and the solution
are bit-identical whatever the rank count.  Assembly frees each column
of the store as soon as it is spent.

Ranks are a ledger, not a second assembly.  A free dof belongs to one
owner; the rows a rank owns are its slice of the operator.
Communication volume counts merged (row, column) entries, the
granularity a real message would have after local compression: a merged
entry that rank s integrated in a row rank d owns is one entry s ships to
d (kept at home when s == d).  Halo columns are the off-rank columns that
appear in a rank's owned rows.  Both are counted from the leaf-dof
incidence the store carries: a leaf on rank s gives each of its rows one
triplet per free dof, less each rank's repeat contributions to one
merged entry, which the sort has put side by side.

The conjugate-gradient solver runs on the one operator: one matrix-vector
product and one Jacobi scaling per iteration, and inner products in
global index order, so iteration counts and residual histories do not
change with the partition either.
"""
from __future__ import annotations

import math
import mmap
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

def distribute_dofs_graph(free_dofs, leaf_sizes, leaf_ranks, n_free,
                          n_ranks):
    """Majority-owner assignment of free dofs.

    A dof goes to the rank holding most of the leaves in its support; ties
    go to the lower rank.  `free_dofs` lists the free indices supported on
    each active leaf, leaf after leaf in pre-order, `leaf_sizes[i]` of them
    on leaf i.
    """
    slot = (np.repeat(np.asarray(leaf_ranks, dtype=np.int64), leaf_sizes)
            * n_free)
    counts = np.bincount(slot + np.asarray(free_dofs, dtype=np.int64),
                         minlength=n_ranks * n_free).reshape(n_ranks, n_free)
    if np.any(counts.sum(axis=0) == 0):
        missing = int(np.flatnonzero(counts.sum(axis=0) == 0)[0])
        raise ValueError(f"free dof {missing} has no supporting leaf")
    return counts.argmax(axis=0).astype(np.int64)


# ----------------------------------------------------------------------
# rank-local integration

_MATRIX_COLUMNS = (("key", np.int64), ("vals", np.float64))
_RHS_COLUMNS = (("rhs_rows", np.int32), ("rhs_vals", np.float64))


def _shared(size, dtype):
    """A zeroed array in anonymous shared memory: a process forked after
    the allocation writes into the caller's pages."""
    if size == 0:
        return np.empty(0, dtype=dtype)    # mmap rejects a zero length
    return np.frombuffer(mmap.mmap(-1, size * np.dtype(dtype).itemsize),
                         dtype=dtype)


def _offsets(sizes):
    return np.concatenate(([0], np.cumsum(sizes))).astype(np.int64)


def leaf_free_dofs(basis, to_free, n_leaves):
    """The free dofs of the first `n_leaves` active leaves, leaf after leaf
    in pre-order, read off the Basis's leaf-dof table, and the count of
    each leaf."""
    free = to_free[basis.dofs[:basis.dof_offsets[n_leaves]]]
    is_free = free >= 0
    kept = np.bincount(np.repeat(np.arange(n_leaves),
                                 basis.mode_counts[:n_leaves])[is_free],
                       minlength=n_leaves)
    return free[is_free], kept


@dataclass
class Triplets:
    """A step's triplets in leaf pre-order, with the leaf-dof incidence
    that lays them out.

    Leaf i has ``kept[i]`` free dofs, ``free[a:a + kept[i]]`` with a the
    sum of the earlier counts, and lives on rank ``leaf_ranks[i]``.  Its
    K block, kept[i] x kept[i] entries, is ``starts[i]:starts[i + 1]`` of
    ``key`` (row * n_free + col, int64) and ``vals``.  When the leaf
    carries a load, its rhs entries are
    ``rhs_starts[i]:rhs_starts[i + 1]`` of ``rhs_rows`` (int32) and
    ``rhs_vals``.  A block's place depends on the leaves alone, not on
    the rank that writes it, so the store's bytes do not depend on the
    partition.  :func:`exchange_and_assemble` takes the columns and frees
    each at its last use, leaving None behind.
    """

    n_free: int
    n_ranks: int
    leaf_ranks: np.ndarray
    free: np.ndarray
    kept: np.ndarray
    starts: np.ndarray
    rhs_starts: np.ndarray
    key: np.ndarray
    vals: np.ndarray
    rhs_rows: np.ndarray
    rhs_vals: np.ndarray

    @classmethod
    def allocate(cls, free, kept, loaded, leaf_ranks, n_free, n_ranks,
                 shared):
        """Columns for leaves with `kept` free dofs each, listed in `free`,
        on ranks `leaf_ranks`: a leaf emits kept x kept matrix entries
        and, when `loaded`, kept rhs entries.  They are in shared memory
        when `shared`, for workers forked to write them, else on the heap:
        shared pages are new on every step and fault in as they are first
        written, while the heap reuses the pages earlier steps freed."""
        new = _shared if shared else np.empty
        kept = np.asarray(kept, dtype=np.int64)
        starts = _offsets(kept * kept)
        rhs_starts = _offsets(kept * np.asarray(loaded, dtype=bool))
        return cls(int(n_free), n_ranks, np.asarray(leaf_ranks),
                   np.asarray(free), kept, starts, rhs_starts,
                   **{name: new(int(starts[-1]), dtype)
                      for name, dtype in _MATRIX_COLUMNS},
                   **{name: new(int(rhs_starts[-1]), dtype)
                      for name, dtype in _RHS_COLUMNS})

    def entries(self, leaves):
        """Positions of the given leaves' matrix entries and of their rhs
        entries, leaf after leaf."""
        leaves = np.asarray(leaves, dtype=np.int64)
        return (_ranges(self.starts[leaves], np.diff(self.starts)[leaves]),
                _ranges(self.rhs_starts[leaves],
                        np.diff(self.rhs_starts)[leaves]))

    def leaf_dofs(self, leaves):
        """The free dofs of the given leaves, leaf after leaf."""
        leaves = np.asarray(leaves, dtype=np.int64)
        return self.free[_ranges(_offsets(self.kept)[leaves],
                                 self.kept[leaves])]

    def take(self, name):
        """Column `name`, which the store no longer holds."""
        column = getattr(self, name)
        setattr(self, name, None)
        return column


@dataclass
class IntermediateSystem:
    """One rank's part of the integrate phase: the leaves it integrated,
    by pre-order position, whose blocks it wrote into the step's
    :class:`Triplets` store."""

    rank: int
    store: Triplets
    leaf_tags: np.ndarray
    seconds: float = 0.0     # wall time of the integration

    @property
    def n_leaves(self):
        return len(self.leaf_tags)

    @property
    def rows(self):
        """The row of each of the rank's triplets, leaf after leaf."""
        kept = self.store.kept[self.leaf_tags]
        return np.repeat(self.store.leaf_dofs(self.leaf_tags),
                         np.repeat(kept, kept))


def integrate_rank_system(basis, to_free, leaf_tags, rank, systems,
                          store):
    """Integrate exactly the given leaves into free-index triplets, leaf
    after leaf: K and f from the step's
    :class:`~overlayfem.physics.LeafSystems` or, for a cut leaf, from
    :func:`overlayfem.physics.integrate_leaves`, plus its flux load.

    `leaf_tags` are the leaves' pre-order positions, which are also
    their Basis rows: each leaf's triplets are written into its blocks
    of `store`, the step's :class:`Triplets`.  Returns the rank's
    :class:`IntermediateSystem`.
    """
    start = time.perf_counter()
    leaf_tags = np.asarray(leaf_tags, dtype=np.int64)
    sig, load = systems.signature[leaf_tags], systems.load[leaf_tags]
    loaded = systems.loaded(leaf_tags)
    Ks = [systems.stiffness[k] if k >= 0 else None for k in sig.tolist()]
    fs = [systems.loads[k] if k >= 0 else None for k in load.tolist()]
    # cut leaves through the kernel
    cut = np.flatnonzero(sig < 0)
    for j, K, fe in zip(cut.tolist(), *integrate_leaves(
            basis, leaf_tags[cut], systems.domain, systems.depth,
            systems.source)):
        Ks[j], fs[j] = K, fe
    # a flux load adds to the source load, for every leaf a flux reaches
    for j, i in enumerate(leaf_tags.tolist()):
        fl = systems.flux_loads.get(i)
        if fl is not None:
            fs[j] = fl if fs[j] is None else fs[j] + fl

    # a leaf with n dofs, kept of them free, emits its K at the free dofs,
    # kept x kept entries row-major, and when loaded its f at them
    n = basis.mode_counts[leaf_tags]
    fidx = to_free[basis.dofs[_ranges(basis.dof_offsets[leaf_tags], n)]]
    free = fidx >= 0
    kept = store.kept[leaf_tags]
    at, rhs_at = store.entries(leaf_tags)
    ffree = fidx[free]
    per_row = np.repeat(kept, kept)
    # entry e's column is free dof col[e] of the rank, in leaf order
    col = _ranges(np.repeat(np.cumsum(kept) - kept, kept), per_row)
    key = np.repeat(ffree.astype(np.int64) * store.n_free, per_row)
    key += ffree[col]
    store.key[at] = key
    del key
    # K entries are gathered from the rank's distinct Ks in one table,
    # one per signature and one per cut leaf: entry (a, b) of a leaf's K
    # is table[base + a * n + b], a and b its free dofs' local indices
    sig_key = np.where(sig >= 0, sig, -1 - np.arange(sig.size))
    _, first, inverse = np.unique(sig_key, return_index=True,
                                  return_inverse=True)
    size = n[first] ** 2
    base = (np.cumsum(size) - size)[inverse]
    table = np.concatenate([Ks[j].ravel() for j in first.tolist()]
                           + [np.empty(0)])
    local = (np.arange(free.size) - np.repeat(np.cumsum(n) - n, n))[free]
    entry = local[col]
    entry += np.repeat(np.repeat(base, kept) + local * np.repeat(n, kept),
                       per_row)
    store.vals[at] = table[entry]
    rhs_dofs = np.repeat(loaded, n)
    store.rhs_rows[rhs_at] = fidx[rhs_dofs & free]
    store.rhs_vals[rhs_at] = np.concatenate(
        [fs[j] for j in np.flatnonzero(loaded).tolist()]
        + [np.empty(0)])[free[rhs_dofs]]

    return IntermediateSystem(rank=rank, store=store, leaf_tags=leaf_tags,
                              seconds=time.perf_counter() - start)


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


# a packed sort key, key << bits | position, is an int64 below 2**63
_PACKED_BITS = 63


def _sort_keys(keys, n_free):
    """`keys` sorted, equal keys in store order, and the store position of
    each sorted key.  The sort is in place when key and position pack
    into one int64, else a stable argsort gives the same order."""
    n = keys.size
    shift = max(n - 1, 0).bit_length()
    if max(n_free * n_free - 1, 0).bit_length() + shift > _PACKED_BITS:
        order = np.argsort(keys, kind="stable")
        return keys[order], order
    order = np.arange(n, dtype=np.int32 if n <= 2 ** 31 else np.int64)
    keys <<= shift
    keys |= order
    keys.sort()
    np.bitwise_and(keys, (1 << shift) - 1, out=order, casting="unsafe")
    keys >>= shift
    return keys, order


def _rank_repeats(triplets, order, new, keys, owner):
    """Row owner and rank of each contribution a rank makes to a merged
    entry after its first.  `keys` are the sorted keys, `order` their
    store positions and `new` marks the first of each entry."""
    n_ranks = triplets.n_ranks
    rank_of = np.repeat(
        triplets.leaf_ranks.astype(np.min_scalar_type(n_ranks)),
        np.diff(triplets.starts))
    # the triplets of entries with several contributions as (entry,
    # rank) pairs, entries numbered in order: a repeat equals its
    # sorted neighbour
    multi = ~new
    multi[:-1] |= multi[1:]
    at = np.flatnonzero(multi)
    del multi
    first = new[at]
    entry_owner = owner[keys[at[first]] // triplets.n_free]
    bits = max(n_ranks - 1, 0).bit_length()
    pairs = first.astype(np.int64)
    np.cumsum(pairs, out=pairs)
    pairs -= 1
    pairs <<= bits
    pairs |= rank_of[order[at]]
    # pairs ascend by entry already: a stable sort only merges runs
    pairs.sort(kind="stable")
    repeats = pairs[1:][pairs[1:] == pairs[:-1]]
    ranks = repeats & ((1 << bits) - 1)
    repeats >>= bits
    return entry_owner[repeats], ranks


def _traffic(triplets, owner, repeat_owners, repeat_ranks):
    """traffic[s, d]: merged entries rank s integrated in rows rank d
    owns.  Leaf L on rank s gives kept[L] triplets to each of its rows;
    a rank's repeat contributions to one merged entry are taken off."""
    n_ranks, kept = triplets.n_ranks, triplets.kept
    n_pairs = n_ranks * n_ranks
    triplet_counts = np.bincount(
        np.repeat(triplets.leaf_ranks.astype(np.int64) * n_ranks, kept)
        + owner[triplets.free], weights=np.repeat(kept, kept),
        minlength=n_pairs)
    repeats = np.bincount(repeat_ranks.astype(np.int64) * n_ranks
                          + repeat_owners, minlength=n_pairs)
    return (triplet_counts.astype(np.int64)
            - repeats).reshape(n_ranks, n_ranks)


def _halo_counts(triplets, owner):
    """Per rank: the off-rank columns in its owned rows.  Row i and
    column j share an entry when a leaf holds both, so rank d's halo is
    every off-rank dof of the leaves that hold one of d's rows."""
    n_ranks, kept = triplets.n_ranks, triplets.kept
    # (leaf, owner of one of its rows), once each
    pairs = np.zeros(kept.size * n_ranks, dtype=bool)
    pairs[np.repeat(np.arange(kept.size) * n_ranks, kept)
          + owner[triplets.free]] = True
    leaf, rank = np.divmod(np.flatnonzero(pairs), n_ranks)
    dofs = triplets.leaf_dofs(leaf)
    rank = np.repeat(rank, kept[leaf])
    off = owner[dofs] != rank
    halo = np.zeros((n_ranks, triplets.n_free), dtype=bool)
    halo[rank[off], dofs[off]] = True
    return [int(h) for h in halo.sum(axis=1)]


def exchange_and_assemble(triplets, owner):
    """Sum every rank's triplets into one operator and count the traffic.

    `triplets` is the step's :class:`Triplets` store; the assembly takes
    its columns and frees each at its last use.  Returns (system,
    traffic), where traffic[s, d] is the number of merged (row, column)
    entries rank s integrated in rows rank d owns.
    """
    # the store is a step's largest value: each column and temporary is
    # freed as soon as it is spent
    n_free, n_ranks = triplets.n_free, triplets.n_ranks
    owner = np.asarray(owner)
    keys, order = _sort_keys(triplets.take("key"), n_free)
    vals = triplets.take("vals")[order]
    new = _run_starts(keys)
    traffic = _traffic(triplets, owner,
                       *_rank_repeats(triplets, order, new, keys, owner))
    del order
    starts = np.flatnonzero(new)
    del new
    keys = keys[starts]
    data = np.add.reduceat(vals, starts)
    del vals, starts
    # row i's merged entries are the keys in [i * n_free, (i + 1) * n_free)
    indptr = np.searchsorted(keys, np.arange(n_free + 1, dtype=np.int64)
                             * n_free)
    cols = np.empty(keys.size, dtype=np.int32)
    np.subtract(keys, np.repeat(np.arange(n_free, dtype=np.int64) * n_free,
                                np.diff(indptr)), out=cols, casting="unsafe")
    del keys
    matrix = scipy.sparse.csr_matrix((data, cols, indptr),
                                     shape=(n_free, n_free))

    # a leaf's rhs rows are distinct, so store order breaks the ties
    rhs_rows = triplets.take("rhs_rows")
    order = np.argsort(rhs_rows, kind="stable")
    rhs_rows = rhs_rows[order]
    starts = np.flatnonzero(_run_starts(rhs_rows))
    rhs = np.zeros(n_free)
    rhs[rhs_rows[starts]] = np.add.reduceat(
        triplets.take("rhs_vals")[order], starts)

    total_entries = [int(t) for t in traffic.sum(axis=1)]
    kept_entries = [int(k) for k in np.diagonal(traffic)]
    return DistributedSystem(
        n_free=n_free, n_ranks=n_ranks, owner=owner,
        own_rows=[np.flatnonzero(owner == r) for r in range(n_ranks)],
        matrix=matrix, rhs=rhs,
        halo_counts=_halo_counts(triplets, owner),
        sent_entries=[t - k for t, k in zip(total_entries, kept_entries)],
        kept_entries=kept_entries, total_entries=total_entries,
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
    `n_triplets` is the length of the step's triplet store and `nnz` the
    assembled operator's stored entries; neither depends on the ranks.
    """

    step: int
    n_leaves: int
    n_dofs: int
    n_free: int
    n_triplets: int
    nnz: int
    n_ranks: int
    partitioner: str
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
            "triplets": self.n_triplets,
            "nnz": self.nnz,
            "ranks": self.n_ranks,
            "partitioner": self.partitioner,
            "dof_distribution": "graph",
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
             partitioner="sfc", domain=None, depth=0, source=None,
             flux=None, flux_part=None, tol=1e-10, step_index=0,
             workers=None):
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
    # int32 free indices: the store's leaf-dof incidence and rhs rows
    # inherit the type
    to_free = np.full(basis.dofmap.total, -1, dtype=np.int32)
    to_free[dirichlet.free] = np.arange(dirichlet.n_free)
    timings["refine"] = time.perf_counter() - t

    t = time.perf_counter()
    n_leaves = len(basis.leaves)
    weights = compute_leaf_weights(basis, domain, depth)
    ranks = partition_leaves(partitioner, mesh, basis, weights, n_ranks)
    timings["partition"] = time.perf_counter() - t

    t = time.perf_counter()
    systems = leaf_systems(basis, domain, depth, source, flux, flux_part)
    timings["leaf_systems"] = time.perf_counter() - t

    t = time.perf_counter()
    # the free dofs of each leaf size its blocks in the step's store
    free, kept = leaf_free_dofs(basis, to_free, n_leaves)
    # a fork pool starts all its processes at once: no more than ranks
    workers = min(workers or 1, n_ranks)
    loaded = systems.loaded(np.arange(n_leaves))
    store = Triplets.allocate(free, kept, loaded, ranks, dirichlet.n_free,
                              n_ranks, shared=workers > 1)
    rank_seconds = _integrate_all(basis, to_free, store, systems, workers)
    timings["integrate"] = time.perf_counter() - t
    # nothing reads the step's leaf systems again: free them before
    # assembly, the step's memory peak
    del systems

    t = time.perf_counter()
    owner = distribute_dofs_graph(free, kept, ranks, dirichlet.n_free,
                                  n_ranks)
    timings["dof_dist"] = time.perf_counter() - t

    t = time.perf_counter()
    # the assembly frees the store's columns as it spends them
    system, _ = exchange_and_assemble(store, owner)
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
            "integrate_s": rank_seconds[r],
        })
    timings["postprocess"] = time.perf_counter() - t

    report = StepReport(
        step=step_index, n_leaves=n_leaves, n_dofs=basis.dofmap.total,
        n_free=dirichlet.n_free, n_triplets=int(store.starts[-1]),
        nnz=system.matrix.nnz, n_ranks=n_ranks, partitioner=partitioner,
        per_rank=per_rank, timings=timings, cg_iterations=iterations,
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


def _pool_init(basis, to_free, systems, store):
    _POOL_STATE["args"] = (basis, to_free, systems, store)


def _pool_task(chunk):
    basis, to_free, systems, store = _POOL_STATE["args"]
    inter = integrate_rank_system(basis, to_free, *chunk, systems, store)
    # the triplets are in the parent's pages: only the timing goes back
    return inter.rank, inter.n_leaves, inter.seconds


def _integrate_all(basis, to_free, store, systems, workers):
    """Every rank's integration seconds, its leaves' blocks of `store`
    written, with at most `workers` processes."""
    # one (leaf tags, rank) chunk per rank
    chunks = [(np.flatnonzero(store.leaf_ranks == r), r)
              for r in range(store.n_ranks)]
    if workers <= 1:
        return [integrate_rank_system(basis, to_free, *chunk, systems,
                                      store).seconds
                for chunk in chunks]
    import concurrent.futures
    import multiprocessing
    # forked workers inherit the store's shared pages and write into them;
    # a spawned or forkserver worker would get a pickled copy instead, and
    # its writes would be lost
    fork = multiprocessing.get_context("fork")
    with concurrent.futures.ProcessPoolExecutor(
            max_workers=workers, mp_context=fork, initializer=_pool_init,
            initargs=(basis, to_free, systems, store)) as pool:
        return [seconds for _, _, seconds in pool.map(_pool_task, chunks)]
