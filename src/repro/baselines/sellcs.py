"""SELL-C-sigma operator — the tuned unified-sparse-format baseline.

:class:`SellCSOperator` assembles exactly like
:class:`~repro.baselines.assembled.AssembledOperator` (real parallel
assembly, PETSc-style diag/pre/post CSR split, packed-halo exchange) and
then converts each CSR block to the SELL-C-sigma layout of
:mod:`repro.core.sellcs`.  Each block gets its *own* row permutation —
permute-in happens once per (re)assembly, permute-out happens inside the
slice kernels on every ``apply_owned`` — so results stay in original row
order and are **bitwise-identical** to the assembled-CSR reference:

* the operator overrides only the block product: the halo exchange,
  the ``diag += pre += post`` block order, the counters and the
  oracle/gemm dispatch are the base class's single skeleton;
* the slice-major single-RHS kernel accumulates each row's stored
  entries in the same order as scipy's CSR row sum;
* the multi-RHS ``"oracle"`` mode applies the single-RHS path per
  column (bitwise per column, one halo round per column);
* the multi-RHS ``"gemm"`` mode is the BLAS3 analogue — one packed
  ``ndpn*k``-wide ghost exchange and a chunk-batched matmul per block —
  equal to the oracle to rounding, not bitwise (same contract as every
  other operator's gemm mode).

Steady state is allocation-free: all kernel buffers live in per-``k``
:class:`~repro.core.sellcs.SellWorkspace` bundles cached on the
operator and invalidated on reassembly.  Padding overhead is surfaced
through the ``sellcs.padded_nnz`` / ``sellcs.occupancy`` counters
(maintained as *current values* across reassemblies, not running sums).
"""

from __future__ import annotations

import numpy as np

from repro.baselines.assembled import AssembledOperator
from repro.core.sellcs import (
    SellCS,
    SellWorkspace,
    build_sellcs,
    resolve_sell_params,
    sell_spmm,
    sell_spmv,
)
from repro.fem.operators import Operator
from repro.partition.interface import LocalMesh
from repro.simmpi.communicator import Communicator

__all__ = ["SellCSOperator"]


class _WsBundle:
    """Kernel workspaces of the three blocks for one column count ``k``."""

    __slots__ = ("diag", "pre", "post")

    def __init__(
        self,
        S_diag: SellCS,
        S_pre: SellCS | None,
        S_post: SellCS | None,
        k: int,
    ):
        self.diag = SellWorkspace(S_diag, k)
        self.pre = SellWorkspace(S_pre, k) if S_pre is not None else None
        self.post = SellWorkspace(S_post, k) if S_post is not None else None


class SellCSOperator(AssembledOperator):
    """Distributed SELL-C-sigma operator (sixth operator kind)."""

    def __init__(
        self,
        comm: Communicator,
        lmesh: LocalMesh,
        operator: Operator,
        ranges: np.ndarray | None = None,
        elem_scale: np.ndarray | None = None,
        C: int | None = None,
        sigma: int | None = None,
        gemm_k_min: int | None = None,
    ):
        # _assemble (called from the base constructor) reads these.
        # ``C=None`` resolves through the process-wide configured
        # defaults (repro.core.sellcs.configure_sell_defaults — the
        # autotuner's hook); an explicit C keeps sigma=8C unless sigma
        # is also given, preserving the historical hard-coded behavior.
        self.C, self.sigma = resolve_sell_params(C, sigma)
        super().__init__(comm, lmesh, operator, ranges=ranges, elem_scale=elem_scale)
        self.gemm_k_min = gemm_k_min

    # ------------------------------------------------------------------
    # assembly: CSR first (inherited), then the SELL conversion
    # ------------------------------------------------------------------

    def _assemble(self, prefix: str) -> None:
        super()._assemble(prefix)
        comm = self.comm
        with comm.compute(f"{prefix}.sellcs_convert"):
            self.S_diag = build_sellcs(self.A_diag, self.C, self.sigma)
            self.S_pre = (
                build_sellcs(self.A_pre, self.C, self.sigma)
                if self.A_pre.shape[1]
                else None
            )
            self.S_post = (
                build_sellcs(self.A_post, self.C, self.sigma)
                if self.A_post.shape[1]
                else None
            )
            self._sell_blocks = {
                "diag": self.S_diag, "pre": self.S_pre, "post": self.S_post
            }
            self._sell_ws: dict[int, _WsBundle] = {}
        blocks = [s for s in (self.S_diag, self.S_pre, self.S_post) if s is not None]
        padded = sum(s.padded_nnz for s in blocks)
        stored = sum(s.nnz for s in blocks)
        occ = (stored / padded) if padded else 1.0
        # counters carry the *current* layout's values: on reassembly,
        # add only the delta so readers see a gauge, not a running sum
        obs = comm.obs
        obs.incr("sellcs.padded_nnz", padded - getattr(self, "_padded_prev", 0))
        obs.incr("sellcs.occupancy", occ - getattr(self, "_occ_prev", 0.0))
        self._padded_prev = padded
        self._occ_prev = occ
        self.padded_nnz = padded
        self.occupancy = occ

    def _bundle(self, k: int) -> _WsBundle:
        b = self._sell_ws.get(k)
        if b is None:
            b = self._sell_ws[k] = _WsBundle(
                self.S_diag, self.S_pre, self.S_post, k
            )
        return b

    # ------------------------------------------------------------------
    # application: the base-class skeleton with SELL block products
    # ------------------------------------------------------------------

    _phase = "spmv.sell"
    _result_in_workspace = True

    def _block_product(self, block: str, x: np.ndarray) -> np.ndarray:
        """Slice kernel (flat ``x``) or chunk-batched matmul (``(·, k)``
        ``x``) of one SELL block, into its per-``k`` workspace."""
        S = self._sell_blocks[block]
        if x.ndim == 1:
            return sell_spmv(S, x, getattr(self._bundle(1), block))
        return sell_spmm(S, x, getattr(self._bundle(x.shape[1]), block))

    # ------------------------------------------------------------------
    # accounting
    # ------------------------------------------------------------------

    def flops_per_spmv(self) -> float:
        """2 flops per stored *slot* including padding — the SELL kernels
        really do multiply every pad slot by the pinned zero."""
        return 2.0 * self.padded_nnz

    def stored_bytes(self) -> int:
        """CSR blocks (kept for preconditioning and reassembly) plus the
        dual slice-/group-major SELL storage — the honest total."""
        total = super().stored_bytes()
        for s in (self.S_diag, self.S_pre, self.S_post):
            if s is not None:
                total += s.stored_bytes()
        return total
