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
lookups in the decomposition's (bag, vertex) table.  A matrix whose entries
all trigger one bag goes to that bag whole.  The matrices with several
trigger bags are covered together: each entry's candidate bags come from
the decomposition's vertex table, array passes select every bag that is
the only candidate of one of its entries and set aside the entries that
another selected candidate covers, and only the trigger bags of the
entries left are decided one at a time, in postorder (``post_index``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .chordal import TreeDecomposition
from .errors import UncoverableEntry
from .linalg import Triplets, ranges, sorted_lookup, sorted_unique


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
        new = np.ones(ids.size, dtype=bool)
        new[1:] = ids[1:] != ids[:-1]
        starts = new.nonzero()[0]
        several = np.minimum.reduceat(trigger, starts) != np.maximum.reduceat(
            trigger, starts
        )
        if several.any():
            seg = new.cumsum() - 1  # entry -> its matrix's run
            multi = several[seg].nonzero()[0]
            assignment[multi] = _cover(
                seg[multi], rows[multi], cols[multi], trigger[multi], td
            )

    offset = td.bag_start[assignment]
    return SplitResult(
        ids=ids,
        assignment=assignment,
        rows=td.locate(assignment, rows)[0] - offset,
        cols=td.locate(assignment, cols)[0] - offset,
        vals=stack.vals,
    )


def _cover(seg, rows, cols, trigger, td: TreeDecomposition) -> np.ndarray:
    """Bag of each entry of the matrices with several trigger bags, the
    entries of matrix ``seg[e]`` in one pass.

    An entry's *candidates* are its matrix's trigger bags that hold it.
    They lie in the subtree below its trigger bag, which is one of them.
    The greedy traversal selects a trigger bag when, at its turn in
    postorder, one of its entries lies in no bag selected before.  So a
    trigger bag that is the only candidate of one of its entries is
    selected outright, and an entry with another candidate selected
    outright never selects its own.  Only the trigger bags of the entries
    left are decided one by one, in postorder.  Each entry then takes its
    first selected candidate in postorder."""
    ell = td.ell
    key = seg * ell + trigger
    pairs = sorted_unique(key)  # (matrix, trigger bag)
    own = pairs.searchsorted(key)

    # candidates, from the bags of the endpoint that lies in fewer bags
    start, held = td.vertex_start, td.vertex_bags
    n_bags = start[1:] - start[:-1]
    by_row = n_bags[rows] <= n_bags[cols]
    one, other = np.where(by_row, rows, cols), np.where(by_row, cols, rows)
    count = n_bags[one]
    entry = np.arange(rows.size).repeat(count)
    bag = held[ranges(start[one], count)]
    pair, hit = sorted_lookup(pairs, seg[entry] * ell + bag)
    hit &= td.locate(bag, other[entry])[1]
    entry, bag, pair = entry[hit], bag[hit], pair[hit]
    count = np.bincount(entry, minlength=rows.size)

    selected = np.zeros(pairs.size, dtype=bool)
    selected[own[count == 1]] = True
    # an entry with another candidate selected outright is covered; the
    # trigger bags of the rest are decided in postorder, where every
    # candidate below has been decided
    wait = (np.bincount(entry, selected[pair], rows.size) == 0).nonzero()[0]
    if wait.size:
        wait = wait[np.argsort(td.post_index[trigger[wait]], kind="stable")]
        first = count.cumsum() - count
        sel, cand = selected.tolist(), pair.tolist()
        for p, lo, n in zip(own[wait].tolist(), first[wait].tolist(),
                            count[wait].tolist()):
            if not sel[p] and not any(sel[o] for o in cand[lo:lo + n]):
                sel[p] = True
        selected = np.array(sel, dtype=bool)

    keep = selected[pair]
    entry, post = entry[keep], td.post_index[bag[keep]]
    # every entry has a selected candidate; its first one starts its run
    heads = entry.searchsorted(np.arange(rows.size))
    return td.postorder()[np.minimum.reduceat(post, heads)]
