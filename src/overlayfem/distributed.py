"""Ghost-free distributed assembly and solve on a simulated rank runtime.

The runtime is deterministic and in-process: "ranks" are index sets of
active leaves, produced by any partitioner from :mod:`overlayfem.partition`.
Each rank integrates exactly its own leaves (no element is ever touched by
two ranks) into element matrices.  The step builds its leaf systems,
:func:`overlayfem.physics.leaf_systems`, once before the integrate phase
fans out and hands the value to every rank, inline or in a worker
process: leaves with a single-cell rule take their stiffness and load
from it, cut leaves run the kernel,
:func:`overlayfem.physics.integrate_leaves`, and every leaf adds its
flux load.

The step's element matrices and load vectors live in one table,
:class:`LeafBlocks`, allocated before the integrate phase: the K of each
single-cell signature and the f of each single-cell source load, copied
in once from the leaf systems, then a K block per cut leaf and an f
block per leaf whose f is its own (a cut leaf under a source, a leaf a
flux reaches), at offsets fixed by the leaves alone.  A leaf's rows and
columns are its free dofs, read off the leaf-dof incidence the table
carries, so a rank writes only its cut leaves' K blocks and its own f
blocks, and an uncut leaf without a flux costs it nothing.  The table's
bytes do not depend on the partition.  When the ranks run in forked
workers the table is in anonymous shared memory, and nothing is copied
back.

Assembly builds one global CSR operator a block of rows at a time.  A
stable argsort of the incidence lists each row's leaves in leaf order.
A block expands those leaves' rows of K into (row, column, table entry)
triplets, packs each triplet's key with its position into one int64 and
sorts in place, which orders the block by (row, column) and, within an
entry, by leaf; the entries' sums go into the CSR arrays.  A block holds
a fixed share of the step's triplets, so no array of them all exists.
The rhs is summed by (row, leaf) through the same incidence: each row's
loaded leaves, in leaf order, give their f entries at its dof, one
reduceat per row.  Because that order does not involve ranks, the
operator, the solver iterates and the solution are bit-identical
whatever the rank count.

The overlay keeps every ancestor's high-order modes, which are
orthogonal over the ancestor but not over each child, so many merged
entries are children's contributions that cancel to round-off.  A
dropping assembly leaves out every off-diagonal merged entry with
|a_ij| < DROP_TOL * sqrt(a_ii) * sqrt(a_jj), DROP_TOL = 1e-14: the
diagonal is summed from the incidence before the blocks, in the order
the blocks sum it, and each block compacts its entries in place after
its sums.  :func:`run_step` drops on a step without an embedded domain;
a cut-cell step's ill-conditioned CG turns any round-off change into a
different iteration count, so its operator keeps every entry.

Ranks are a ledger, not a second assembly.  A free dof belongs to one
owner; the rows a rank owns are its slice of the operator.
Communication volume counts merged (row, column) entries, the
granularity a real message would have after local compression: a merged
entry that rank s integrated in a row rank d owns is one entry s ships to
d (kept at home when s == d).  Halo columns are the off-rank columns that
appear in a rank's owned rows.  Both are counted from the leaf-dof
incidence the table carries: a leaf on rank s gives each of its rows one
triplet per free dof, less each rank's repeat contributions to one
merged entry, which a block's sort has put side by side.  The ledger
counts what the ranks integrate and ship, so it is taken before the
drop.

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
    in pre-order, read off the Basis's leaf-dof table, the count of each
    leaf, and each free dof's index among its leaf's dofs."""
    n = basis.mode_counts[:n_leaves]
    free = to_free[basis.dofs[:basis.dof_offsets[n_leaves]]]
    is_free = free >= 0
    kept = np.bincount(np.repeat(np.arange(n_leaves), n)[is_free],
                       minlength=n_leaves)
    local = np.arange(free.size) - np.repeat(basis.dof_offsets[:n_leaves], n)
    return free[is_free], kept, local[is_free].astype(np.int32)


@dataclass
class LeafBlocks:
    """A step's element matrices and load vectors, with the leaf-dof
    incidence that places them.

    Leaf i has ``modes[i]`` dofs and ``kept[i]`` free ones,
    ``free[a:a + kept[i]]`` with a the sum of the earlier counts, whose
    indices among its dofs are ``local[a:a + kept[i]]``; it lives on rank
    ``leaf_ranks[i]``.  Its K, modes[i] x modes[i] row-major, is
    ``table[base[i]:base[i] + modes[i] ** 2]``: the leaves of one
    single-cell signature share that signature's K, and each cut leaf has
    a block of its own.  Its kept[i] x kept[i] triplets are the entries of
    K at its free dofs' local indices.  When the leaf carries a load, its
    f is ``table[load[i]:load[i] + modes[i]]``, and ``load[i]`` is -1
    otherwise: leaves of one single-cell source load share it, and a leaf
    whose f is its own has a block of its own.  Every place depends on
    the leaves alone, not on the rank that writes it, so the bytes do not
    depend on the partition.  :func:`exchange_and_assemble` takes the
    table and frees it at its last use, leaving None behind.
    """

    n_free: int
    n_ranks: int
    leaf_ranks: np.ndarray
    free: np.ndarray
    kept: np.ndarray
    local: np.ndarray
    modes: np.ndarray
    base: np.ndarray
    load: np.ndarray
    table: np.ndarray

    @classmethod
    def allocate(cls, free, kept, local, modes, systems, leaf_ranks, n_free,
                 n_ranks, shared):
        """The blocks of leaves with `modes` dofs each, `kept` of them free,
        listed in `free` with their `local` indices, on ranks
        `leaf_ranks`.  The table holds the K of every signature and the f
        of every source load of `systems`, the step's
        :class:`~overlayfem.physics.LeafSystems`, copied in here, then a K
        block per cut leaf and an f block per leaf whose f is its own, for
        their rank to write.  The table is in shared memory when `shared`,
        for workers forked to write it, else on the heap: shared pages are
        new on every step and fault in as they are first written, while
        the heap reuses the pages earlier steps freed."""
        kept = np.asarray(kept, dtype=np.int64)
        modes = np.asarray(modes, dtype=np.int64)
        signature, own = systems.signature, systems.own_load
        cut = signature < 0
        # one block per signature's K, source load, cut leaf's K and own f
        shares = systems.stiffness + systems.loads
        starts = _offsets(np.concatenate(
            ([a.size for a in shares], modes[cut] ** 2, modes[own]))
            .astype(np.int64))
        base = np.empty(kept.size, dtype=np.int64)
        base[~cut] = starts[signature[~cut]]
        n_cut = len(shares) + np.count_nonzero(cut)
        base[cut] = starts[len(shares):n_cut]
        shared_f = (systems.load >= 0) & ~own
        load = np.full(kept.size, -1, dtype=np.int64)
        load[shared_f] = starts[len(systems.stiffness)
                                + systems.load[shared_f]]
        load[own] = starts[n_cut:-1]
        table = (_shared if shared else np.empty)(int(starts[-1]),
                                                   np.float64)
        for a, at in zip(shares, starts.tolist()):
            table[at:at + a.size] = a.ravel()
        return cls(int(n_free), n_ranks, np.asarray(leaf_ranks),
                   np.asarray(free), kept, np.asarray(local), modes, base,
                   load, table)

    @property
    def n_triplets(self):
        """The triplets the leaves' K expand into: kept**2 summed."""
        return int(np.dot(self.kept, self.kept))

    def incidence(self, leaves):
        """Positions of the given leaves' free dofs in ``free`` and
        ``local``, leaf after leaf."""
        leaves = np.asarray(leaves, dtype=np.int64)
        return _ranges(_offsets(self.kept)[leaves], self.kept[leaves])

    def leaf_dofs(self, leaves):
        """The free dofs of the given leaves, leaf after leaf."""
        return self.free[self.incidence(leaves)]

    def blocks(self, leaves):
        """Positions of the given leaves' K in ``table``, leaf after
        leaf."""
        leaves = np.asarray(leaves, dtype=np.int64)
        return _ranges(self.base[leaves], self.modes[leaves] ** 2)


@dataclass
class IntermediateSystem:
    """One rank's part of the integrate phase: the leaves it integrated,
    by pre-order position, whose cut-leaf K and own f blocks it wrote into
    the step's :class:`LeafBlocks`."""

    rank: int
    store: LeafBlocks
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


def integrate_rank_system(basis, leaf_tags, rank, systems, store):
    """Integrate exactly the given leaves into `store`, the step's
    :class:`LeafBlocks`: a cut leaf's K, from
    :func:`overlayfem.physics.integrate_leaves`, into its block, and the f
    of every leaf whose f is its own, the kernel's or its source load
    from the step's :class:`~overlayfem.physics.LeafSystems` plus its flux
    load, into its f block.  Every other leaf's K and f are its
    signature's and source load's, already in the table.

    `leaf_tags` are the leaves' pre-order positions, which are also their
    Basis rows.  Returns the rank's :class:`IntermediateSystem`.
    """
    start = time.perf_counter()
    leaf_tags = np.asarray(leaf_tags, dtype=np.int64)
    cut = leaf_tags[systems.signature[leaf_tags] < 0]
    Ks, cut_fs = integrate_leaves(basis, cut, systems.domain, systems.depth,
                                  systems.source)
    store.table[store.blocks(cut)] = np.concatenate(
        [K.ravel() for K in Ks] + [np.empty(0)])
    fs = dict(zip(cut.tolist(), cut_fs))
    for i in leaf_tags[systems.own_load[leaf_tags]].tolist():
        k = systems.load[i]
        f = systems.loads[k] if k >= 0 else fs.get(i)
        # a flux load adds to the source load
        fl = systems.flux_loads.get(i)
        if fl is not None:
            f = fl if f is None else f + fl
        store.table[store.load[i]:store.load[i] + f.size] = f
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
    dropped: int = 0          # round-off entries left out of `matrix`

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


def _sort_keys(keys, bound):
    """`keys`, each below `bound`, sorted, equal keys in their given order,
    and the position of each sorted key.  The sort is in place when key
    and position pack into one int64, else a stable argsort gives the
    same order."""
    n = keys.size
    shift = max(n - 1, 0).bit_length()
    if max(bound - 1, 0).bit_length() + shift > _PACKED_BITS:
        order = np.argsort(keys, kind="stable")
        return keys[order], order
    order = np.arange(n, dtype=np.int64)
    keys <<= shift
    keys |= order
    keys.sort()
    np.bitwise_and(keys, (1 << shift) - 1, out=order)
    keys >>= shift
    return keys, order


def _rank_repeats(ranks, new, keys, row_owner, n_free, n_ranks):
    """repeats[s * n_ranks + d]: the contributions rank s makes to a
    merged entry in a row rank d owns after its first one.  `ranks` are
    the ranks of sorted triplets, `keys` their keys row * n_free + col,
    `new` marks the first of each entry and `row_owner` is the owner of
    each row."""
    # the triplets of entries with several contributions as (entry,
    # rank) pairs, entries numbered in order: a repeat equals its
    # sorted neighbour
    multi = ~new
    multi[:-1] |= multi[1:]
    at = np.flatnonzero(multi)
    del multi
    first = new[at]
    entry_owner = row_owner[keys[at[first]] // n_free]
    bits = max(n_ranks - 1, 0).bit_length()
    pairs = first.astype(np.int64)
    np.cumsum(pairs, out=pairs)
    pairs -= 1
    pairs <<= bits
    pairs |= ranks[at]
    # pairs ascend by entry already: a stable sort only merges runs
    pairs.sort(kind="stable")
    repeats = pairs[1:][pairs[1:] == pairs[:-1]]
    rank = repeats & ((1 << bits) - 1)
    repeats >>= bits
    return np.bincount(rank * n_ranks + entry_owner[repeats],
                       minlength=n_ranks * n_ranks)


def _traffic(store, owner, repeats):
    """traffic[s, d]: merged entries rank s integrated in rows rank d
    owns.  Leaf L on rank s gives kept[L] triplets to each of its rows;
    a rank's `repeats` to one merged entry are taken off."""
    n_ranks, kept = store.n_ranks, store.kept
    triplet_counts = np.bincount(
        np.repeat(store.leaf_ranks.astype(np.int64) * n_ranks, kept)
        + owner[store.free], weights=np.repeat(kept, kept),
        minlength=n_ranks * n_ranks)
    return (triplet_counts.astype(np.int64)
            - repeats).reshape(n_ranks, n_ranks)


def _halo_counts(store, owner):
    """Per rank: the off-rank columns in its owned rows.  Row i and
    column j share an entry when a leaf holds both, so rank d's halo is
    every off-rank dof of the leaves that hold one of d's rows."""
    n_ranks, kept = store.n_ranks, store.kept
    # (leaf, owner of one of its rows), once each
    pairs = np.zeros(kept.size * n_ranks, dtype=bool)
    pairs[np.repeat(np.arange(kept.size) * n_ranks, kept)
          + owner[store.free]] = True
    leaf, rank = np.divmod(np.flatnonzero(pairs), n_ranks)
    dofs = store.leaf_dofs(leaf)
    rank = np.repeat(rank, kept[leaf])
    off = owner[dofs] != rank
    halo = np.zeros((n_ranks, store.n_free), dtype=bool)
    halo[rank[off], dofs[off]] = True
    return [int(h) for h in halo.sum(axis=1)]


# a block of rows holds about 1 / _ROW_BLOCKS of the step's triplets
_ROW_BLOCKS = 16

# an off-diagonal merged entry below DROP_TOL * sqrt(a_ii) * sqrt(a_jj)
# is round-off of a sum that vanishes, and a dropping assembly leaves it out
DROP_TOL = 1e-14


def _row_blocks(row_triplets):
    """Bounds of consecutive row blocks, each with about an equal share of
    the triplets, `row_triplets` of them in each row."""
    ends = np.cumsum(row_triplets)
    total = int(ends[-1]) if ends.size else 0
    cuts = np.searchsorted(
        ends, np.arange(1, _ROW_BLOCKS, dtype=np.int64) * total
        // _ROW_BLOCKS) + 1
    return np.unique(np.concatenate(([0], np.minimum(cuts, ends.size),
                                     [ends.size])))


def _row_sums(store, table, at, entry):
    """Per free dof, ``table[entry]`` summed over the (leaf, free dof)
    pairs `at` of the incidence that lie in its row, as the assembly sums
    a merged entry: `at` lists the pairs by row and within a row in leaf
    order, and each row's run is one reduceat.  A row without pairs sums
    to 0."""
    rows = store.free[at]
    starts = np.flatnonzero(_run_starts(rows))
    sums = np.zeros(store.n_free)
    sums[rows[starts]] = np.add.reduceat(table[entry], starts)
    return sums


def _diagonal(store, table, leaf, by_row):
    """Each free dof's diagonal entry: the K diagonals of its row's
    leaves.  `leaf` is the leaf of each (leaf, free dof) pair, and
    `by_row` lists the pairs by row, in leaf order."""
    holder = leaf[by_row]
    return _row_sums(store, table, by_row, store.base[holder]
                     + store.local[by_row] * (store.modes[holder] + 1))


def _kept(data, cols, bound, root, row_ends, scratch):
    """Positions of one row block's merged entries that a dropping
    assembly keeps: those with |a_ij| >= bound[i] * root[j], where row
    i's entries `data` and int64 `cols` are [row_ends[i], row_ends[i +
    1]), `bound` is DROP_TOL * sqrt(a_ii) for each of the block's rows
    and `root` is sqrt(a_jj) for every column.  A diagonal entry always
    passes.  `scratch` holds at least as many floats as `data`."""
    limit = np.repeat(bound, np.diff(row_ends))
    # numpy buffers `out` under take's default mode="raise"; every column
    # is in range, so "clip" changes nothing but the speed
    limit *= root.take(cols, out=scratch[:data.size], mode="clip")
    return np.flatnonzero(np.abs(data, out=scratch[:data.size]) >= limit)


def exchange_and_assemble(store, owner, drop=False):
    """Sum every rank's element matrices and load vectors into one
    operator and rhs and count the traffic.

    `store` is the step's :class:`LeafBlocks`; the assembly takes its
    table and frees it at its last use.  With `drop`, an off-diagonal
    merged entry with |a_ij| < DROP_TOL * sqrt(a_ii) * sqrt(a_jj) is left
    out of the operator, and ``system.dropped`` counts those entries.
    Returns (system, traffic), where traffic[s, d] is the number of
    merged (row, column) entries rank s integrated in rows rank d owns,
    dropped ones included.
    """
    n_free, n_ranks = store.n_free, store.n_ranks
    owner = np.asarray(owner)
    free, kept = store.free, store.kept
    leaf = np.repeat(np.arange(kept.size), kept)
    leaf_starts = _offsets(kept)
    # each row's (leaf, free dof) pairs, leaf after leaf; row i holds
    # kept[L] triplets of every leaf L that holds it
    by_row = np.argsort(free, kind="stable")
    row_starts = _offsets(np.bincount(free, minlength=n_free))
    bounds = _row_blocks(np.bincount(free, weights=kept[leaf],
                                     minlength=n_free).astype(np.int64))
    # the CSR arrays have room for every triplet and shrink in place
    data = np.empty(store.n_triplets)
    cols = np.empty(data.size, dtype=np.int32)
    indptr = np.zeros(n_free + 1, dtype=np.int64)
    repeats = np.zeros(n_ranks * n_ranks, dtype=np.int64)
    rank_of = store.leaf_ranks.astype(np.min_scalar_type(n_ranks))
    table, store.table = store.table, None
    if drop:
        root = np.sqrt(_diagonal(store, table, leaf, by_row))
    nnz = dropped = 0
    for r0, r1 in zip(bounds[:-1].tolist(), bounds[1:].tolist()):
        # the block's triplets, row after row and within a row leaf after
        # leaf: (leaf, free dof) pair a gives the row, and each pair c of
        # the same leaf a column
        at = by_row[row_starts[r0]:row_starts[r1]]
        holder = leaf[at]
        per_row = kept[holder]
        c = _ranges(leaf_starts[holder], per_row)
        keys = np.repeat(free[at].astype(np.int64) - r0, per_row)
        keys *= n_free
        keys += free[c]
        entry = np.repeat(store.base[holder] + store.local[at]
                          * store.modes[holder], per_row)
        entry += store.local[c]
        del c
        # sorted by (row, column) and, within an entry, by leaf
        keys, order = _sort_keys(keys, (r1 - r0) * n_free)
        vals = table[entry[order]]
        del entry
        ranks = np.repeat(rank_of[holder], per_row)[order]
        del order
        new = _run_starts(keys)
        repeats += _rank_repeats(ranks, new, keys, owner[r0:r1], n_free,
                                 n_ranks)
        del ranks
        starts = np.flatnonzero(new)
        del new
        keys = keys[starts]
        # row r0 + i's merged entries are the keys in
        # [row_keys[i], row_keys[i + 1])
        row_keys = np.arange(r1 - r0 + 1, dtype=np.int64) * n_free
        row_ends = np.searchsorted(keys, row_keys)
        m = starts.size
        block = data[nnz:nnz + m]
        np.add.reduceat(vals, starts, out=block)
        del starts
        # the keys become the block's columns
        keys -= np.repeat(row_keys[:-1], np.diff(row_ends))
        if drop:
            # compact the block in place, then its row ends
            at = _kept(block, keys, DROP_TOL * root[r0:r1], root, row_ends,
                       vals)
            dropped += m - at.size
            m = at.size
            block[:m] = block[at]
            keys = keys[at]
            row_ends = np.searchsorted(at, row_ends)
        del vals, block
        cols[nnz:nnz + m] = keys
        indptr[r0 + 1:r1 + 1] = nnz + row_ends[1:]
        nnz += m
    # the rhs by (row, leaf), as the diagonal: the f entries of the loaded
    # leaves at their free dofs
    at = by_row[store.load[leaf[by_row]] >= 0]
    rhs = _row_sums(store, table, at, store.load[leaf[at]] + store.local[at])
    del table
    data.resize(nnz, refcheck=False)
    cols.resize(nnz, refcheck=False)
    matrix = scipy.sparse.csr_matrix((data, cols, indptr),
                                     shape=(n_free, n_free))
    traffic = _traffic(store, owner, repeats)
    total_entries = [int(t) for t in traffic.sum(axis=1)]
    kept_entries = [int(k) for k in np.diagonal(traffic)]
    return DistributedSystem(
        n_free=n_free, n_ranks=n_ranks, owner=owner,
        own_rows=[np.flatnonzero(owner == r) for r in range(n_ranks)],
        matrix=matrix, rhs=rhs,
        halo_counts=_halo_counts(store, owner),
        sent_entries=[t - k for t, k in zip(total_entries, kept_entries)],
        kept_entries=kept_entries, total_entries=total_entries,
        dropped=dropped,
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
    `n_triplets` counts the triplets the step's K blocks expand into,
    kept**2 summed over the leaves, `nnz` the assembled operator's
    stored entries and `dropped` the round-off entries left out of it;
    none depends on the ranks.
    """

    step: int
    n_leaves: int
    n_dofs: int
    n_free: int
    n_triplets: int
    nnz: int
    dropped: int
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
            "dropped": self.dropped,
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
    # int32 free indices: the table's leaf-dof incidence inherits the type
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
    # the free dofs of each leaf place its K in the step's table
    free, kept, local = leaf_free_dofs(basis, to_free, n_leaves)
    # a fork pool starts all its processes at once: no more than ranks
    workers = min(workers or 1, n_ranks)
    store = LeafBlocks.allocate(free, kept, local,
                                basis.mode_counts[:n_leaves], systems, ranks,
                                dirichlet.n_free, n_ranks, shared=workers > 1)
    rank_seconds = _integrate_all(basis, store, systems, workers)
    timings["integrate"] = time.perf_counter() - t
    # the leaves each rank ran the kernel on
    cut_leaves = np.bincount(ranks[systems.signature < 0], minlength=n_ranks)
    # nothing reads the step's leaf systems again: free them before
    # assembly, the step's memory peak
    del systems

    t = time.perf_counter()
    owner = distribute_dofs_graph(free, kept, ranks, dirichlet.n_free,
                                  n_ranks)
    timings["dof_dist"] = time.perf_counter() - t

    t = time.perf_counter()
    # the assembly frees the table as it spends it.  It drops round-off
    # entries on a step without an embedded domain: the ill-conditioned
    # CG of a cut-cell step turns any round-off change into a different
    # iteration count
    system, _ = exchange_and_assemble(store, owner, domain is None)
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
            "cut_leaves": int(cut_leaves[r]),
            "integrate_s": rank_seconds[r],
        })
    timings["postprocess"] = time.perf_counter() - t

    report = StepReport(
        step=step_index, n_leaves=n_leaves, n_dofs=basis.dofmap.total,
        n_free=dirichlet.n_free, n_triplets=store.n_triplets,
        nnz=system.matrix.nnz, dropped=system.dropped, n_ranks=n_ranks,
        partitioner=partitioner, per_rank=per_rank, timings=timings,
        cg_iterations=iterations, residual=history[-1],
        residual_history=thin_history(history), leaf_weights=weights,
        leaf_ranks=ranks,
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


def _pool_init(basis, systems, store):
    _POOL_STATE["args"] = (basis, systems, store)


def _pool_task(chunk):
    basis, systems, store = _POOL_STATE["args"]
    inter = integrate_rank_system(basis, *chunk, systems, store)
    # the blocks are in the parent's pages: only the timing goes back
    return inter.rank, inter.n_leaves, inter.seconds


def _integrate_all(basis, store, systems, workers):
    """Every rank's integration seconds, its leaves' blocks of `store`
    written, with at most `workers` processes."""
    # one (leaf tags, rank) chunk per rank
    chunks = [(np.flatnonzero(store.leaf_ranks == r), r)
              for r in range(store.n_ranks)]
    if workers <= 1:
        return [integrate_rank_system(basis, *chunk, systems, store).seconds
                for chunk in chunks]
    import concurrent.futures
    import multiprocessing
    # forked workers inherit the table's shared pages and write into them;
    # a spawned or forkserver worker would get a pickled copy instead, and
    # its writes would be lost
    fork = multiprocessing.get_context("fork")
    with concurrent.futures.ProcessPoolExecutor(
            max_workers=workers, mp_context=fork, initializer=_pool_init,
            initargs=(basis, systems, store)) as pool:
        return [seconds for _, _, seconds in pool.map(_pool_task, chunks)]
