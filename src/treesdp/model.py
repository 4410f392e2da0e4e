"""Problem container for standard-form semidefinite programs.

minimize    <C, X>
subject to  <A_i, X>  (=, >=, <=)  b_i,   i = 1..m
            X positive semidefinite,

with all data matrices stored sparse-symmetric.  Inequality rows carry a
sense tag and are reduced to equalities with nonnegative slacks downstream.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from .errors import DimensionMismatch
from .linalg import (
    SparseSymmetric,
    Triplets,
    stack_triplets,
    svec_coords,
    tri,
)

SENSES = ("eq", "ge", "le")


@dataclass
class SdpProblem:
    cost: SparseSymmetric
    constraints: list
    b: np.ndarray
    senses: list = field(default_factory=list)

    def __post_init__(self):
        self.b = np.asarray(self.b, dtype=float).ravel()
        if len(self.constraints) != self.b.shape[0]:
            raise DimensionMismatch(
                f"{len(self.constraints)} constraint matrices vs "
                f"{self.b.shape[0]} right-hand sides"
            )
        if not self.senses:
            self.senses = ["eq"] * len(self.constraints)
        if len(self.senses) != len(self.constraints):
            raise DimensionMismatch("senses length mismatch")
        for s in self.senses:
            if s not in SENSES:
                raise DimensionMismatch(f"unknown sense {s!r}")
        for a in self.constraints:
            if a.order != self.cost.order:
                raise DimensionMismatch(
                    f"constraint order {a.order} != cost order {self.cost.order}"
                )

    @property
    def n(self) -> int:
        return self.cost.order

    @property
    def m(self) -> int:
        return len(self.constraints)

    @property
    def n_ineq(self) -> int:
        return sum(1 for s in self.senses if s != "eq")

    @cached_property
    def triplets(self) -> Triplets:
        """Stored entries of A_1..A_m under row ids 0..m-1 and, under row
        id m, of C."""
        return stack_triplets(list(self.constraints) + [self.cost])

    def stacked_rows(self) -> sp.csr_matrix:
        """CSR matrix whose i-th row is svec(A_i)."""
        ids, rows, cols, vals = self.triplets
        k = int(np.searchsorted(ids, self.m))  # the cost's entries come last
        pos, data = svec_coords(rows[:k], cols[:k], vals[:k])
        indptr = np.zeros(self.m + 1, dtype=np.int64)
        np.cumsum(np.bincount(ids[:k], minlength=self.m), out=indptr[1:])
        return sp.csr_matrix((data, pos, indptr), shape=(self.m, tri(self.n)))

    def cost_svec(self) -> np.ndarray:
        ids, rows, cols, vals = self.triplets
        k = int(np.searchsorted(ids, self.m))
        pos, data = svec_coords(rows[k:], cols[k:], vals[k:])
        out = np.zeros(tri(self.n))
        np.add.at(out, pos, data)
        return out
