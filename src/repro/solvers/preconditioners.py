"""Preconditioners (paper §V-F).

* Jacobi — exact assembled diagonal (identical operator ⇒ identical
  iteration counts for HYMV and the assembled baseline).
* Block Jacobi — the rank's owned diagonal block, factorized once with
  SuperLU and applied by triangular solves.  HYMV assembles its block from
  local elements (paper: "HYMV needs to assemble the diagonal block
  matrix"); the assembled baseline extracts the exact block from its CSR,
  so iteration counts may differ slightly between the two — as they do
  between the real codes.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

__all__ = [
    "JacobiPreconditioner",
    "BlockJacobiPreconditioner",
]


class JacobiPreconditioner:
    """Diagonal scaling ``z = r / diag(A)``."""

    def __init__(self, diagonal: np.ndarray):
        diagonal = np.asarray(diagonal, dtype=np.float64)
        if (diagonal <= 0.0).any():
            raise ValueError(
                "Jacobi preconditioner requires a positive diagonal"
            )
        self._inv = 1.0 / diagonal
        self.setup_flops = float(diagonal.size)
        self.apply_flops = float(diagonal.size)

    def __call__(self, r: np.ndarray) -> np.ndarray:
        return r * self._inv


class BlockJacobiPreconditioner:
    """Per-rank owned-block solve ``z = B^-1 r`` via sparse LU."""

    def __init__(self, block: sp.spmatrix):
        block = block.tocsc()
        if block.shape[0] != block.shape[1]:
            raise ValueError("block must be square")
        self._lu = spla.splu(block)
        self.n = block.shape[0]
        self.setup_flops = 2.0 * block.nnz * 10.0  # rough LU estimate
        self.apply_flops = 4.0 * block.nnz

    def __call__(self, r: np.ndarray) -> np.ndarray:
        return self._lu.solve(r)
