"""Problem container for standard-form semidefinite programs.

minimize    <C, X>
subject to  <A_i, X>  (=, >=, <=)  b_i,   i = 1..m
            X positive semidefinite,

with all data matrices stored as one stack of lower-triangle triplets.
Inequality rows carry a sense tag and are reduced to equalities with
nonnegative slacks downstream.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .errors import DimensionMismatch
from .linalg import Triplets, svec_coords, tri

SENSES = ("eq", "ge", "le")


@dataclass
class SdpProblem:
    """An SDP of order ``n`` whose data is one stack of triplets: entry e
    is (rows[e], cols[e]) = vals[e] of A_{ids[e]+1} for ids 0..m-1, and of
    C for id m, with m = len(b).

    The constructor canonicalises the stack in one stable sort over
    (id, row, column): entries above the diagonal move to the lower
    triangle, duplicate positions are summed in input order, and explicit
    zeros are kept (they count as structural nonzeros)."""

    n: int
    triplets: Triplets
    b: np.ndarray
    senses: list = field(default_factory=list)

    def __post_init__(self):
        self.n = int(self.n)
        self.b = np.asarray(self.b, dtype=float).ravel()
        m = self.b.shape[0]
        if not self.senses:
            self.senses = ["eq"] * m
        if len(self.senses) != m:
            raise DimensionMismatch(
                f"{len(self.senses)} senses vs {m} right-hand sides"
            )
        for s in self.senses:
            if s not in SENSES:
                raise DimensionMismatch(f"unknown sense {s!r}")
        ids, rows, cols = (
            np.asarray(a, dtype=np.int64).ravel() for a in self.triplets[:3]
        )
        vals = np.asarray(self.triplets[3], dtype=float).ravel()
        if not (ids.shape == rows.shape == cols.shape == vals.shape):
            raise DimensionMismatch("ids/rows/cols/vals lengths differ")
        if ids.size and not (0 <= ids.min() and ids.max() <= m):
            raise DimensionMismatch(
                f"matrix id outside [0, {m}]: ids 0..{m - 1} are the "
                f"constraints and {m} the cost"
            )
        if ids.size and not (
            0 <= min(rows.min(), cols.min())
            and max(rows.max(), cols.max()) < self.n
        ):
            raise DimensionMismatch(
                f"triplet index out of range for order {self.n}"
            )
        hi, lo = np.maximum(rows, cols), np.minimum(rows, cols)
        order = np.lexsort((lo, hi, ids))  # stable
        new = np.zeros(ids.size, dtype=bool)  # first entry of its position
        new[:1] = True
        for key in (ids, hi, lo):
            key = key[order]
            new[1:] |= key[1:] != key[:-1]
        first = order[new]
        sums = np.bincount(np.cumsum(new) - 1, weights=vals[order])
        self.triplets = Triplets(
            ids[first], hi[first], lo[first], sums.astype(float, copy=False)
        )

    @property
    def m(self) -> int:
        return self.b.shape[0]

    @property
    def n_ineq(self) -> int:
        return sum(1 for s in self.senses if s != "eq")

    def _cost_start(self) -> int:
        return int(np.searchsorted(self.triplets.ids, self.m))

    @property
    def cost(self) -> Triplets:
        """The entries of C: a view of the end of the stack."""
        k = self._cost_start()
        return Triplets(*(a[k:] for a in self.triplets))

    @property
    def constraints(self) -> list:
        """The entries of A_1..A_m: views of the stack, one per row."""
        ends = np.searchsorted(self.triplets.ids, np.arange(1, self.m + 1))
        parts = (np.split(a, ends)[:-1] for a in self.triplets)
        return [Triplets(*views) for views in zip(*parts)]

    def stacked_rows(self) -> sp.csr_matrix:
        """CSR matrix whose i-th row is svec(A_i)."""
        ids, rows, cols, vals = self.triplets
        k = self._cost_start()
        pos, data = svec_coords(rows[:k], cols[:k], vals[:k])
        indptr = np.zeros(self.m + 1, dtype=np.int64)
        np.cumsum(np.bincount(ids[:k], minlength=self.m), out=indptr[1:])
        return sp.csr_matrix((data, pos, indptr), shape=(self.m, tri(self.n)))

    def cost_svec(self) -> np.ndarray:
        _, rows, cols, vals = self.cost
        pos, data = svec_coords(rows, cols, vals)
        out = np.zeros(tri(self.n))
        np.add.at(out, pos, data)
        return out
