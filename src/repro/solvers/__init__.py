"""Distributed iterative solvers and preconditioners.

The paper integrates HYMV into PETSc's CG through the MatShell interface;
here the equivalent is :func:`repro.solvers.cg.cg`, which consumes any
object exposing ``apply_owned`` (HYMV, matrix-free, assembled, and the GPU
variants all do).  Preconditioners: Jacobi (exact assembled diagonal) and
block Jacobi (owned diagonal block factorized with SuperLU).
"""

from repro.solvers.cg import CGResult, ResilienceConfig, cg
from repro.solvers.constrained import dirichlet_system
from repro.solvers.preconditioners import (
    BlockJacobiPreconditioner,
    JacobiPreconditioner,
)

__all__ = [
    "cg",
    "CGResult",
    "ResilienceConfig",
    "JacobiPreconditioner",
    "BlockJacobiPreconditioner",
    "dirichlet_system",
]
