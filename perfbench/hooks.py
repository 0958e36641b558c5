"""Where the benchmark's spans go: the layer boundaries of ``repro``.

Every target is an attribute the caller looks up when it makes the call,
so patching it is seen by that caller:

* class methods (``HymvOperator.spmv`` is looked up on the class at
  every ``A.spmv(...)``);
* entries of ``repro.harness.driver.OPERATOR_FACTORIES``;
* the global name in the *calling* module for functions imported by
  name (``repro.harness.driver.cg``, ``repro.serve.cache.cg_multi``,
  ``repro.problems.build_partition``).  Patching the defining module
  (``repro.solvers.cg.cg``) would not be seen by those callers.

Span names are ``<layer>.<what>``; the layer is the ``repro`` package
the call enters.  The hottest calls get no span of their own, because a
span costs about as much as they do: ``Communicator.isend``/``irecv``
(their time stays in the ``core.halo`` span that posts them), the
per-column EMV sweeps (one ``core.emv`` span covers each sweep block)
and ``spmv_multi`` (only ``apply_owned_multi`` calls it; that span is
``core`` too).
"""

from __future__ import annotations

from perfbench.tracer import Tracer

#: the span that starts rank threads: their spans hang under it
LAUNCHER = "simmpi.run"


def _elements(args) -> int:
    """Element count of ``element_matrices(self, coords, etype)``."""
    return int(args[1].shape[0])


def _traced_run(tracer: Tracer, orig):
    """``Simulator.run`` (the ``LAUNCHER`` span) with each rank program
    in a span named ``<layer>.rank.<program>``, the layer being the
    program's ``repro`` package."""

    def run(sim, program, rank_args=None, **kwargs):
        if not tracer.active:
            return orig(sim, program, rank_args=rank_args, **kwargs)
        module = program.__module__.split(".")
        layer = module[1] if module[0] == "repro" else "bench"
        with tracer.block(LAUNCHER):
            prog = tracer.wrap(f"{layer}.rank.{program.__name__}", program)
            return orig(sim, prog, rank_args=rank_args, **kwargs)

    return run


def _traced_compute(tracer: Tracer, orig):
    """``Communicator.compute`` with its EMV sweep blocks as ``core.emv``
    spans: two per SPMV, whatever the number of right-hand sides (the
    oracle multi-RHS path sweeps column by column inside one block)."""

    def compute(comm, label="compute"):
        if tracer.active and label.startswith("spmv.emv"):
            return tracer.block("core.emv", orig(comm, label))
        return orig(comm, label)

    return compute


def install(tracer: Tracer, names=None) -> None:
    """Patch every layer boundary, or only the spans named in ``names``."""
    import repro.adapt.apply as adapt_apply
    import repro.harness.driver as driver
    import repro.problems as problems
    import repro.serve.cache as cache
    from repro.baselines.assembled import AssembledOperator
    from repro.core.hymv import EbeOperatorBase
    from repro.core.scatter import HaloExchange
    from repro.fem.operators import ElasticityOperator, PoissonOperator
    from repro.serve.service import SolverService
    from repro.simmpi.communicator import Communicator
    from repro.simmpi.engine import Simulator
    from repro.solvers.preconditioners import JacobiPreconditioner

    targets = [
        (problems, "elastic_bar_problem", "problems.build"),
        (problems, "poisson_problem", "problems.build"),
        (problems, "box_hex_mesh", "mesh.build"),
        (problems, "jittered_hex_mesh", "mesh.build"),
        (problems, "box_tet_mesh", "mesh.build"),
        (problems, "build_partition", "partition.build"),
        (ElasticityOperator, "element_matrices", "fem.ke", _elements),
        (PoissonOperator, "element_matrices", "fem.ke", _elements),
        (driver.OPERATOR_FACTORIES, "hymv", "core.setup"),
        (driver.OPERATOR_FACTORIES, "assembled", "baselines.setup"),
        (EbeOperatorBase, "apply_owned", "core.apply_owned"),
        (EbeOperatorBase, "apply_owned_multi", "core.apply_owned"),
        (EbeOperatorBase, "spmv", "core.spmv"),
        (EbeOperatorBase, "diagonal", "core.diagonal"),
        (HaloExchange, "scatter_begin", "core.halo"),
        (HaloExchange, "scatter_end", "core.halo"),
        (HaloExchange, "gather_begin", "core.halo"),
        (HaloExchange, "gather_end", "core.halo"),
        (AssembledOperator, "apply_owned", "baselines.csr_apply"),
        (Communicator, "wait", "simmpi.wait"),
        (Communicator, "allreduce", "simmpi.collective"),
        (Communicator, "allgather", "simmpi.collective"),
        (Communicator, "alltoall", "simmpi.collective"),
        (Communicator, "bcast", "simmpi.collective"),
        (Communicator, "barrier", "simmpi.collective"),
        (driver, "cg", "solvers.cg"),
        (cache, "cg", "solvers.cg"),
        (cache, "cg_multi", "solvers.cg"),
        (JacobiPreconditioner, "__call__", "solvers.precond"),
        (SolverService, "dispatch", "serve.dispatch"),
        (cache.OperatorCache, "get", "serve.cache_get"),
        (cache.SolverContext, "apply_multi", "serve.context"),
        (cache.SolverContext, "solve_multi", "serve.context"),
        (cache, "_dirichlet_state", "serve.dirichlet_state"),
        (cache.OperatorCache, "update", "adapt.update"),
        (EbeOperatorBase, "update_elements", "adapt.patch"),
        (adapt_apply, "apply_delta_to_spec", "adapt.apply_spec"),
        (adapt_apply, "localize_delta", "adapt.localize"),
    ]
    for owner, attr, name, *count in targets:
        if names is None or name in names:
            tracer.patch(owner, attr, name, count=count[0] if count else None)
    if names is None or LAUNCHER in names:
        tracer.patch(Simulator, "run", LAUNCHER, wrapper=_traced_run)
    if names is None or "core.emv" in names:
        tracer.patch(Communicator, "compute", "core.emv",
                     wrapper=_traced_compute)
