"""Splitting symmetric data matrices across the bags of a tree decomposition.

Every stored entry of a matrix must live inside some bag (both endpoints in
the same bag), and the splitter assigns each entry to exactly one bag so the
embedded per-bag pieces sum back to the original matrix.  The selected set of
bags has minimum cardinality among all feasible assignments: an entry's
*trigger* bag — the root-most bag containing both endpoints — is its last
chance in a child-first traversal, so a bag is selected only when forced, and
a selected bag greedily claims every remaining entry it can hold.  The
traversal and the trigger test read the decomposition's own postorder
positions and depths (``TreeDecomposition.post_index`` and ``.depth``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .chordal import TreeDecomposition
from .errors import UncoverableEntry
from .linalg import SparseSymmetric


@dataclass
class UniquePartition:
    """Per-bag unique vertices U_j = J_j minus the parent bag and the owner
    bag of each vertex.  Carries the bag vertex sets so repeated ``split``
    calls over the same decomposition pay only for each matrix's own
    support."""

    unique: list  # list of tuples per bag
    owner: np.ndarray  # vertex -> root-most bag containing it
    bag_sets: list  # per-bag vertex sets


def build_unique_partition(td: TreeDecomposition) -> UniquePartition:
    unique = []
    for j in range(td.ell):
        p = int(td.parent[j])
        if p == j:
            unique.append(tuple(td.bags[j]))
        else:
            parent_set = set(td.bags[p])
            unique.append(tuple(v for v in td.bags[j] if v not in parent_set))
    owner = -np.ones(td.n, dtype=np.int64)
    for j, uj in enumerate(unique):
        for v in uj:
            owner[v] = j
    return UniquePartition(
        unique=unique, owner=owner, bag_sets=[set(b) for b in td.bags]
    )


@dataclass
class SplitResult:
    """Outcome of splitting one matrix across the bags."""

    order: int
    cover: list  # selected bag ids, ascending
    assignment: np.ndarray  # entry index -> bag id
    pieces: dict  # bag id -> SparseSymmetric in bag-local coordinates

    def embedded_sum(self, td: TreeDecomposition) -> np.ndarray:
        out = np.zeros((self.order, self.order))
        for j, piece in self.pieces.items():
            bag = np.asarray(td.bags[j])
            local = piece.to_dense()
            out[np.ix_(bag, bag)] += local
        return out


def split(
    mat: SparseSymmetric,
    td: TreeDecomposition,
    partition: UniquePartition | None = None,
) -> SplitResult:
    """Assign every stored entry of ``mat`` to exactly one bag (minimum
    number of bags used).  Raises UncoverableEntry when an entry fits in no
    bag."""
    if partition is None:
        partition = build_unique_partition(td)
    owner, depth = partition.owner, td.depth
    bag_sets = partition.bag_sets
    nnz = mat.nnz
    assignment = -np.ones(nnz, dtype=np.int64)

    # trigger bag per entry: the deeper of the two endpoint owners; the entry
    # is coverable iff that bag also holds the other endpoint.
    trigger = np.empty(nnz, dtype=np.int64)
    for e in range(nnz):
        r, c = int(mat.rows[e]), int(mat.cols[e])
        orow, ocol = int(owner[r]), int(owner[c])
        deep, other = (orow, c) if depth[orow] >= depth[ocol] else (ocol, r)
        if other not in bag_sets[deep]:
            raise UncoverableEntry(
                f"entry ({r + 1}, {c + 1}) lies in no bag of the decomposition"
            )
        trigger[e] = deep

    buckets: dict = {}
    for e in range(nnz):
        buckets.setdefault(int(trigger[e]), []).append(e)
    entries_at: dict = {}
    for e in range(nnz):
        r, c = int(mat.rows[e]), int(mat.cols[e])
        entries_at.setdefault(r, []).append(e)
        if c != r:
            entries_at.setdefault(c, []).append(e)

    cover = []
    # postorder restricted to trigger bags: non-trigger bags never enter
    # the cover, so skipping them is behavior-preserving
    for j in sorted(buckets, key=lambda b: td.post_index[b]):
        if not any(assignment[e] < 0 for e in buckets[j]):
            continue
        cover.append(j)
        bag = bag_sets[j]
        for v in td.bags[j]:
            kept = []
            for e in entries_at.get(v, ()):
                if assignment[e] >= 0:
                    continue
                r, c = int(mat.rows[e]), int(mat.cols[e])
                if r in bag and c in bag:
                    assignment[e] = j
                else:
                    kept.append(e)
            if v in entries_at:
                entries_at[v] = kept

    pieces = {}
    for j in sorted(set(int(a) for a in assignment if a >= 0)):
        bag = td.bags[j]
        local_pos = {v: i for i, v in enumerate(bag)}
        sel = np.where(assignment == j)[0]
        rows = np.array([local_pos[int(mat.rows[e])] for e in sel], dtype=np.int64)
        cols = np.array([local_pos[int(mat.cols[e])] for e in sel], dtype=np.int64)
        vals = mat.vals[sel]
        pieces[j] = SparseSymmetric(
            order=len(bag), rows=rows, cols=cols, vals=vals
        )
    return SplitResult(
        order=mat.order,
        cover=sorted(cover),
        assignment=assignment,
        pieces=pieces,
    )


def is_partially_separable(
    mat: SparseSymmetric,
    td: TreeDecomposition,
    partition: UniquePartition | None = None,
) -> bool:
    """True when the matrix fits inside a single bag (or is empty)."""
    try:
        result = split(mat, td, partition)
    except UncoverableEntry:
        return False
    return len(result.cover) <= 1
