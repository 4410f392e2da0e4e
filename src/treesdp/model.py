"""Problem container for standard-form semidefinite programs.

minimize    <C, X>
subject to  <A_i, X>  (=, >=, <=)  b_i,   i = 1..m
            X positive semidefinite,

with all data matrices stored sparse-symmetric.  Inequality rows carry a
sense tag and are reduced to equalities with nonnegative slacks downstream.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .errors import DimensionMismatch
from .linalg import SparseSymmetric, tri

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

    def stacked_rows(self) -> sp.csr_matrix:
        """CSR matrix whose i-th row is svec(A_i)."""
        data, indices, indptr = [], [], [0]
        for a in self.constraints:
            pos, vals = a.svec_coords()
            indices.extend(pos.tolist())
            data.extend(vals.tolist())
            indptr.append(len(indices))
        return sp.csr_matrix(
            (np.array(data), np.array(indices, dtype=np.int64), np.array(indptr)),
            shape=(self.m, tri(self.n)),
        )

    def cost_svec(self) -> np.ndarray:
        out = np.zeros(tri(self.n))
        pos, vals = self.cost.svec_coords()
        np.add.at(out, pos, vals)
        return out
