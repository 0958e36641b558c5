"""Distributed preconditioned conjugate gradients.

Operates on owned-dof vectors; all inner products are distributed
reductions through the simulated communicator, and the operator
application internally performs the ghost exchange — the same division of
labour as PETSc's KSPCG over a MatShell.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.simmpi.communicator import Communicator

__all__ = ["cg", "cg_multi", "CGResult", "ResilienceConfig"]

ApplyFn = Callable[[np.ndarray], np.ndarray]


@dataclass(frozen=True)
class ResilienceConfig:
    """Breakdown detection + restart policy for :func:`cg_multi`.

    When passed, every iteration reduces a fault flag across ranks (one
    extra scalar allreduce): non-finite ``p^T A p`` / residual norms,
    non-SPD breakdowns, and locally detected ghost corruption (the
    ``faults.checksum_fail`` / ``spmv.ghost_nonfinite`` counters) all
    trigger a collective restart from the last globally-clean iterate
    instead of diverging silently.  ``max_restarts`` bounds recovery; the
    solve fails loudly past it.
    """

    max_restarts: int = 3


@dataclass
class CGResult:
    """Outcome of a CG solve (per rank: ``x`` is the owned block)."""

    x: np.ndarray
    iterations: int
    converged: bool
    residual_norms: list[float] = field(default_factory=list)
    restarts: int = 0

    @property
    def final_relative_residual(self) -> float:
        if not self.residual_norms or self.residual_norms[0] == 0.0:
            return 0.0
        return self.residual_norms[-1] / self.residual_norms[0]


def _fault_signals(obs) -> float:
    """Locally observed corruption indicators (monotonic counters)."""
    return obs.counter("faults.checksum_fail") + obs.counter(
        "spmv.ghost_nonfinite"
    )


def cg(
    comm: Communicator,
    apply_A: ApplyFn,
    b: np.ndarray,
    x0: np.ndarray | None = None,
    apply_M: ApplyFn | None = None,
    rtol: float = 1e-3,
    atol: float = 0.0,
    maxiter: int = 10000,
    resilience: ResilienceConfig | None = None,
) -> CGResult:
    """Preconditioned CG on the distributed system ``A x = b``: the
    ``k = 1`` case of :func:`cg_multi`.

    Parameters
    ----------
    comm:
        Rank communicator (collective call).
    apply_A:
        SPD operator on owned dof vectors.
    b:
        Owned right-hand side.
    apply_M:
        Preconditioner application (``M ≈ A^-1``); identity if None.
        The solver keeps each returned array until the next application,
        so it must not hand out a buffer it reuses.
    rtol:
        Relative tolerance on ``||r||_2 / ||r_0||_2`` (the paper solves to
        ``1e-3``).
    resilience:
        Optional :class:`ResilienceConfig` enabling breakdown detection
        and restart-from-last-good-iterate (chaos/fault-injection runs).
        ``None`` fails fast on a non-SPD breakdown.
    """
    b = np.asarray(b, dtype=np.float64)
    n = b.shape[0]

    def apply_block(P: np.ndarray) -> np.ndarray:
        return apply_A(P.ravel()).reshape(n, 1)

    return cg_multi(
        comm, apply_block, b.reshape(n, 1),
        x0=None if x0 is None else np.reshape(x0, (n, 1)),
        apply_M=apply_M, rtol=rtol, atol=atol, maxiter=maxiter,
        resilience=resilience,
    )[0]


def _identity(v: np.ndarray) -> np.ndarray:
    return v


def cg_multi(
    comm: Communicator,
    apply_A: Callable[[np.ndarray], np.ndarray],
    B: np.ndarray,
    x0: np.ndarray | None = None,
    apply_M: ApplyFn | None = None,
    rtol: float = 1e-3,
    atol: float = 0.0,
    maxiter: int = 10000,
    mode: str | None = None,
    resilience: ResilienceConfig | None = None,
) -> list[CGResult]:
    """Blocked multi-RHS CG: solve ``A X = B`` for all ``k`` columns of
    ``B`` at once, advancing the ``k`` independent Krylov iterations in
    lock-step.  This is the only CG iteration; :func:`cg` is its
    ``k = 1`` case.

    Each iteration ships ONE allreduce of a ``k``-vector of ``p·Ap``
    values and one of the ``[r·r, r·z]`` pairs of every column (the
    residual norm and the ``beta`` numerator travel together, so the
    preconditioner runs before the convergence check and its value is
    discarded on the final iteration).  All block vectors are
    preallocated and updated in place through per-column views cached
    once per solve.  With the default/oracle execution, column ``j`` is
    **bitwise identical** to ``cg(comm, ..., B[:, j])``: each column's
    arithmetic is the same axpy sequence on contiguous dot operands, the
    columns never mix numerically, the elementwise vector allreduce
    reduces every slot in the same rank order as a scalar, and a
    converged column is frozen — never touched again — just as its
    single-RHS solve would have stopped.  With the batched SPMV
    (``apply_owned_multi``) as ``apply_A`` global synchronizations per
    iteration drop k-fold against ``k`` sequential solves.

    ``mode`` (``"oracle"`` | ``"gemm"`` | ``"auto"``) is forwarded to
    ``apply_A`` as a keyword on every matvec, selecting the multi-RHS
    execution mode of operators that support it; ``None`` (the default)
    calls ``apply_A(P)`` unchanged, so plain closures keep working.
    Under a resolved ``"gemm"`` the per-column bitwise identity above is
    relaxed to rounding-level equivalence (the BLAS3 elemental stage
    reorders accumulation, see
    :func:`repro.core.kernels.gemm_equivalence_rtol`); CG convergence
    behaviour is unaffected beyond the usual last-ulp iterate drift.

    ``resilience`` adds one max-allreduce fault flag per iteration: a
    non-finite or non-positive ``p·Ap``, a non-finite ``[r·r, r·z]``
    pair, or locally detected ghost corruption on any rank rolls every
    unconverged column back to the last clean block iterate in
    lock-step.  A fault-free resilient solve is bitwise identical to the
    plain one.  Without it, ``p·Ap <= 0`` raises and a NaN runs on.

    Returns one :class:`CGResult` per column.
    """
    obs = comm.obs
    B = np.asarray(B, dtype=np.float64)
    if B.ndim != 2:
        raise ValueError(f"expected (n, k) multivector RHS, got shape {B.shape}")
    n, k = B.shape
    t_solve = comm.vtime

    def matvec(P: np.ndarray) -> np.ndarray:
        t = comm.vtime
        AP = apply_A(P) if mode is None else apply_A(P, mode=mode)
        obs.record("solve.spmv", vtime=comm.vtime - t)
        return AP

    def reduce(payload: np.ndarray) -> list[float]:
        # every payload is a fresh array: sibling ranks read it by
        # reference while they reduce
        t = comm.vtime
        out = comm.allreduce(payload)
        obs.record("solve.reduce", vtime=comm.vtime - t)
        return out.tolist()

    X = np.zeros_like(B) if x0 is None else np.asarray(
        x0, dtype=np.float64
    ).reshape(n, k).copy()
    R = B - matvec(X) if x0 is not None else B.copy()
    P = np.empty_like(B)
    # every block update below is in place, so these views stay valid
    xs, rs, ps = ([V[:, j] for j in range(k)] for V in (X, R, P))
    # z_j: the preconditioner's fresh array, or r_j itself without one
    zs = list(rs)
    # dots run on contiguous operands so BLAS picks the same accumulation
    # path for every k (strided ddot kernels may sum in a different order)
    col = _identity if k == 1 else np.ascontiguousarray
    live = list(range(k))  # unconverged columns, in column order

    def precond() -> None:
        if apply_M is None:
            return
        t = comm.vtime
        for j in live:
            zs[j] = apply_M(col(rs[j]))
        obs.record("solve.precond", vtime=comm.vtime - t)

    def restart_directions() -> list[float]:
        precond()
        dots = np.zeros(k)
        for j in live:
            ps[j][...] = zs[j]
            dots[j] = col(rs[j]).dot(col(zs[j]))
        return reduce(dots)

    rz = restart_directions()
    dots = np.zeros(k)
    for j in live:
        dots[j] = col(rs[j]).dot(col(rs[j]))
    r0 = [math.sqrt(v) for v in reduce(dots)]
    tol = [max(rtol * v, atol) for v in r0]
    norms = [[v] for v in r0]
    iters = [0] * k
    conv = [v == 0.0 for v in r0]
    live = [j for j in live if not conv[j]]

    detect = resilience is not None
    if detect:
        X_good = X.copy()
        seen_faults = _fault_signals(obs)
    restarts = 0
    w = np.empty(n)  # axpy scratch, shared across columns
    it = 0
    while live and it < maxiter:
        it += 1
        AP = matvec(P)
        dots = np.zeros(k)
        for j in live:
            dots[j] = col(ps[j]).dot(col(AP[:, j]))
        pAp = reduce(dots)
        broken = False
        for j in live:
            if pAp[j] <= 0.0 or (detect and not math.isfinite(pAp[j])):
                if not detect:
                    raise RuntimeError(
                        f"CG breakdown: p^T A p = {pAp[j]:.3e} "
                        "(operator not SPD?)"
                    )
                broken = True  # the rollback below undoes any update
                break
            alpha = rz[j] / pAp[j]
            np.multiply(ps[j], alpha, out=w)
            xs[j] += w
            np.multiply(AP[:, j], alpha, out=w)
            rs[j] -= w
        if not broken:
            precond()
            pairs = np.zeros(2 * k)  # [r·r, r·z] per column
            for j in live:
                r = col(rs[j])
                pairs[2 * j] = r.dot(r)
                pairs[2 * j + 1] = r.dot(col(zs[j]))
            red = reduce(pairs)
            broken = detect and not all(map(math.isfinite, red))
        if detect:
            faulted = _fault_signals(obs) > seen_faults
            flag = comm.allreduce(1.0 if (broken or faulted) else 0.0, op="max")
            if flag > 0.0:
                # collective rollback: every rank restores the last block
                # iterate that completed without breakdowns or detected
                # corruption, then rebuilds the Krylov state from fresh
                # residuals
                seen_faults = _fault_signals(obs)
                restarts += 1
                obs.incr("solve.breakdowns")
                if restarts > resilience.max_restarts:
                    raise RuntimeError(
                        "CG: breakdown/corruption persisted beyond "
                        f"max_restarts={resilience.max_restarts}"
                    )
                obs.incr("solve.restarts")
                t_r = comm.vtime
                np.copyto(X, X_good)
                np.subtract(B, matvec(X), out=R)
                rz = restart_directions()
                obs.record("solve.restart", vtime=comm.vtime - t_r)
                continue
            np.copyto(X_good, X)
        still = []
        for j in live:
            rn = math.sqrt(red[2 * j])
            norms[j].append(rn)
            if rn <= tol[j]:
                conv[j] = True
                iters[j] = it
                continue
            beta = red[2 * j + 1] / rz[j]
            rz[j] = red[2 * j + 1]
            # p = z + beta*p in place (IEEE addition commutes bitwise)
            ps[j] *= beta
            ps[j] += zs[j]
            still.append(j)
        live = still
    for j in live:
        iters[j] = it
    obs.incr("solve.iterations", sum(iters))
    obs.record("solve.cg", vtime=comm.vtime - t_solve)
    return [
        CGResult(
            np.ascontiguousarray(xs[j]), iters[j], conv[j], norms[j],
            restarts=restarts,
        )
        for j in range(k)
    ]
