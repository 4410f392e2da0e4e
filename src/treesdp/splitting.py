"""Splitting symmetric data matrices across the bags of a tree decomposition.

Every stored entry of a matrix must live inside some bag (both endpoints in
the same bag), and the splitter assigns each entry to exactly one bag so the
embedded per-bag pieces sum back to the original matrix.  The selected set of
bags has minimum cardinality among all feasible assignments: an entry's
*trigger* bag — the root-most bag containing both endpoints — is its last
chance in a child-first traversal, so a bag is selected only when forced, and
a selected bag greedily claims every remaining entry it can hold.

The splitter runs once over the stacked triplets of all matrices
(``linalg.Triplets``).  Trigger bags and the coverability test are array
lookups in the decomposition's (bag, vertex) table.  A matrix whose entries all trigger one bag goes to that bag whole;
only a matrix with several trigger bags runs the greedy traversal, which
reads the decomposition's postorder positions (``post_index``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .chordal import TreeDecomposition
from .errors import UncoverableEntry
from .linalg import Triplets


def build_unique_partition(td: TreeDecomposition) -> np.ndarray:
    """Owner bag of each vertex: the root-most bag holding it, the one bag
    where it is not shared with the parent.  Built once per decomposition,
    so each ``split`` call pays only for its own entries."""
    unique = td.parent_pos < 0
    owner = np.full(td.n, -1, dtype=np.int64)
    owner[td.members[unique]] = td.bag_of[unique]
    return owner


@dataclass
class SplitResult:
    """Per-bag pieces of a stack of matrices: piece entry e is
    (rows[e], cols[e]) = vals[e] of matrix ids[e], in the local coordinates
    of bag assignment[e].  ``split`` returns one piece entry per stored
    entry, aligned with the stack."""

    ids: np.ndarray
    assignment: np.ndarray  # entry -> bag id
    rows: np.ndarray  # local row in the bag, >= the local column
    cols: np.ndarray
    vals: np.ndarray


def split(
    stack: Triplets,
    td: TreeDecomposition,
    partition: np.ndarray | None = None,
) -> SplitResult:
    """Assign every stored entry of every matrix of ``stack`` to exactly
    one bag (a minimum number of bags per matrix).  Raises
    UncoverableEntry, naming the first entry of the stack that fits in no
    bag."""
    if partition is None:
        partition = build_unique_partition(td)
    ids, rows, cols = stack.ids, stack.rows, stack.cols

    # trigger bag per entry: the deeper of the two endpoint owners; the entry
    # is coverable iff that bag also holds the other endpoint.
    own_r, own_c = partition[rows], partition[cols]
    row_deeper = td.depth[own_r] >= td.depth[own_c]
    trigger = np.where(row_deeper, own_r, own_c)
    fits = td.locate(trigger, np.where(row_deeper, cols, rows))[1]
    if not fits.all():
        e = np.flatnonzero(~fits)[0]
        raise UncoverableEntry(
            f"entry ({rows[e] + 1}, {cols[e] + 1}) lies in no bag of the "
            f"decomposition"
        )

    # a matrix whose entries all trigger one bag goes to that bag whole
    assignment = trigger
    if ids.size:
        starts = np.flatnonzero(np.r_[True, ids[1:] != ids[:-1]])
        ends = np.r_[starts[1:], ids.size]
        several = np.minimum.reduceat(trigger, starts) != np.maximum.reduceat(
            trigger, starts
        )
        for s, t in zip(starts[several].tolist(), ends[several].tolist()):
            assignment[s:t] = _greedy_cover(
                rows[s:t].tolist(), cols[s:t].tolist(),
                trigger[s:t].tolist(), td,
            )

    offset = td.bag_start[assignment]
    return SplitResult(
        ids=ids,
        assignment=assignment,
        rows=td.locate(assignment, rows)[0] - offset,
        cols=td.locate(assignment, cols)[0] - offset,
        vals=stack.vals,
    )


def _greedy_cover(rows: list, cols: list, trigger: list, td) -> list:
    """Bag of each entry of one matrix.  The trigger bags are visited in
    postorder; one still holding an unassigned entry of its own is selected
    and claims every unassigned entry that fits in it."""
    buckets: dict = {}
    entries_at: dict = {}
    for e, (r, c, j) in enumerate(zip(rows, cols, trigger)):
        buckets.setdefault(j, []).append(e)
        entries_at.setdefault(r, []).append(e)
        if c != r:
            entries_at.setdefault(c, []).append(e)

    assignment = [-1] * len(rows)
    # postorder restricted to trigger bags: non-trigger bags never enter
    # the cover, so skipping them is behavior-preserving
    bags = np.fromiter(buckets, np.int64, len(buckets))
    for j in bags[np.argsort(td.post_index[bags])].tolist():
        if all(assignment[e] >= 0 for e in buckets[j]):
            continue
        bag = set(td.bags[j])
        for v in td.bags[j]:
            kept = []
            for e in entries_at.get(v, ()):
                if assignment[e] >= 0:
                    continue
                if rows[e] in bag and cols[e] in bag:
                    assignment[e] = j
                else:
                    kept.append(e)
            if v in entries_at:
                entries_at[v] = kept
    return assignment
