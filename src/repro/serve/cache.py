"""Operator cache: warm solver contexts keyed by a problem fingerprint.

A :class:`SolverContext` is the expensive thing the service amortizes: a
persistent :class:`~repro.simmpi.engine.Simulator` whose ranks hold a
fully set-up operator (element matrices computed and stored — the paper's
one-time setup cost), the Dirichlet machinery (mask, prescribed values,
precomputed ``A u0``) and a Jacobi preconditioner.  Requests then execute
as multi-RHS products/solves against the warm context; only a cache miss
pays setup again.

:class:`OperatorCache` is a bounded LRU over contexts, with hit/miss/
eviction counters reported through :mod:`repro.obs`.

Contexts run in modeled virtual time (``compute_scale=0`` plus a fixed
modeled EMV rate), so every latency the serve harness reports is a
deterministic function of the code path and the network model — identical
on a laptop and a CI runner, which is what makes the checked-in serve
baseline comparable across machines.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.faults.plan import FaultPlan
from repro.obs.instrumentation import Instrumentation
from repro.simmpi.engine import Simulator
from repro.simmpi.network import NetworkModel
from repro.solvers.cg import ResilienceConfig, cg, cg_multi
from repro.solvers.preconditioners import JacobiPreconditioner
from repro.util.arrays import INDEX_DTYPE

__all__ = ["ProblemKey", "SolverContext", "OperatorCache", "DEFAULT_RATE_GFLOPS"]

#: deterministic modeled EMV rate (GFLOP/s) — matches the smoke bench's
#: convention of a deliberately slow rate so modeled durations sit well
#: above the compare gate's noise floor
DEFAULT_RATE_GFLOPS = 1.0

_MODELED_METHODS = ("hymv", "matfree", "partial")
_KERNEL_METHODS = ("hymv", "matfree", "partial", "hymv_gpu")


@dataclass(frozen=True)
class ProblemKey:
    """Canonical identity of one servable operator.

    Two requests share a cached context iff their keys are equal; the
    :meth:`fingerprint` is the stable cache/string form of that identity.
    """

    problem: str = "poisson"  # "poisson" | "elastic" | "graphlap"
    nel: int = 4
    n_parts: int = 4
    etype: str = "tet4"
    seed: int = 0  # mesh jitter seed (tet meshes)
    method: str = "hymv"
    kernel: str = "einsum"
    #: applied :class:`~repro.adapt.delta.MeshDelta` history, in order —
    #: a delta-updated operator and one built fresh from the same key are
    #: the same servable identity (and bitwise the same operator)
    deltas: tuple = ()

    def fingerprint(self) -> str:
        """Stable short hash of the canonical field tuple."""
        canon = (
            f"problem={self.problem};nel={self.nel};n_parts={self.n_parts};"
            f"etype={self.etype};seed={self.seed};method={self.method};"
            f"kernel={self.kernel}"
        )
        if self.deltas:
            canon += ";deltas=" + ",".join(
                d.fingerprint() for d in self.deltas
            )
        return hashlib.sha1(canon.encode()).hexdigest()[:12]

    def n_dofs_estimate(self) -> int:
        """Cheap closed-form dof-count estimate for backend routing (no
        mesh build).  Exact for the structured box meshes all three
        problem kinds use: ``(nel + 1)`` grid nodes per axis (the bar is
        ``2 nel`` elements tall), times dofs per node."""
        n = self.nel + 1
        if self.problem == "elastic":
            return n * n * (2 * self.nel + 1) * 3
        return n * n * n

    def with_delta(self, delta) -> "ProblemKey":
        """The key of this operator after one more applied delta."""
        from dataclasses import replace

        return replace(self, deltas=self.deltas + (delta,))

    def build_spec(self):
        """Materialize the :class:`~repro.problems.ProblemSpec`, replaying
        the delta history so a fresh build lands on the post-update mesh."""
        from repro.mesh.element import ElementType
        from repro.problems import (
            elastic_bar_problem,
            graph_laplacian_problem,
            poisson_problem,
        )

        etype = ElementType[self.etype.upper()]
        if self.problem == "poisson":
            spec = poisson_problem(
                self.nel, n_parts=self.n_parts, etype=etype, seed=self.seed
            )
        elif self.problem == "elastic":
            spec = elastic_bar_problem(
                (self.nel, self.nel, 2 * self.nel),
                n_parts=self.n_parts,
                etype=etype,
            )
        elif self.problem == "graphlap":
            spec = graph_laplacian_problem(
                self.nel, n_parts=self.n_parts, etype=etype, seed=self.seed
            )
        else:
            raise ValueError(f"unknown problem {self.problem!r}")
        if self.deltas:
            from repro.adapt.apply import apply_delta_to_spec

            for d in self.deltas:
                spec, _ = apply_delta_to_spec(spec, d)
        return spec


def _dirichlet_state(comm, A, maps, lmesh, spec) -> dict:
    """Dirichlet machinery derived from the (current) operator: mask,
    prescribed values, precomputed ``A u0`` and Jacobi preconditioner.
    Shared by first setup and in-place delta updates so both paths hold
    bitwise-identical state for the same operator."""
    from repro.core.rhs import local_node_coords

    ndpn = spec.operator.ndpn
    owned_ids = np.arange(lmesh.n_begin, lmesh.n_end, dtype=INDEX_DTYPE)
    coords = local_node_coords(maps, lmesh)[maps.owned_slice]
    mask = np.zeros(owned_ids.size * ndpn, dtype=bool)
    u0 = np.zeros(owned_ids.size * ndpn)
    for bc in spec.bcs:
        m = bc.mask_slice(lmesh.n_begin, lmesh.n_end)
        vals = bc.values_for(owned_ids, coords).reshape(-1)
        u0[m] = vals[m]
        mask |= m

    Au0 = A.apply_owned(u0)
    d = A.diagonal_owned()
    d[mask] = 1.0
    return {
        "mask": mask,
        "u0": u0,
        "Au0": Au0,
        "M": JacobiPreconditioner(d),
        "n_owned": owned_ids.size * ndpn,
    }


def _setup_program(comm, lmesh, spec, method, kernel, modeled_rate,
                   ke_cache=None):
    """Per-rank setup: operator + Dirichlet machinery + preconditioner."""
    from repro.core.maps import build_node_maps
    from repro.core.scatter import build_comm_maps
    from repro.harness.driver import OPERATOR_FACTORIES

    ranges = np.asarray(
        comm.allgather((lmesh.n_begin, lmesh.n_end)), dtype=INDEX_DTYPE
    )
    options = {}
    if method in _KERNEL_METHODS:
        options["kernel"] = kernel
    if method in _MODELED_METHODS and modeled_rate is not None:
        options["modeled_rate_gflops"] = modeled_rate
    if spec.elem_scale is not None:
        options["elem_scale"] = spec.elem_scale[lmesh.elements]
    if ke_cache is not None and method in ("hymv", "hymv_gpu"):
        options["ke_cache"] = ke_cache
    A = OPERATOR_FACTORIES[method](
        comm, lmesh, spec.operator, ranges=ranges, **options
    )

    if hasattr(A, "e2l_dofs"):
        maps = A.maps
    else:
        maps = build_node_maps(lmesh.e2g, lmesh.n_begin, lmesh.n_end)
        build_comm_maps(comm, maps, ranges=ranges)

    st = {"A": A, "lmesh": lmesh, "maps": maps}
    st.update(_dirichlet_state(comm, A, maps, lmesh, spec))
    return st


def _update_program(comm, st, od, n_model, spec, ke_flops, rate):
    """Per-rank in-place delta patch: update the touched element batch,
    advance the modeled recompute time, refresh Dirichlet machinery."""
    A = st["A"]
    A.update_elements(
        od.local_elems, coords=od.coords, stiffness_scale=od.scale
    )
    if rate and n_model:
        comm.advance(n_model * ke_flops / (rate * 1e9), "update.modeled")
    st.update(_dirichlet_state(comm, A, st["maps"], st["lmesh"], spec))


def _rebuild_advance_program(comm, st, n_model, ke_flops, rate):
    """Modeled element-recompute cost of a full rebuild (setup compute is
    measured at ``compute_scale=0`` inside the setup program, so the
    element-matrix work is modeled explicitly, net of ke-cache hits)."""
    if rate and n_model > 0:
        comm.advance(n_model * ke_flops / (rate * 1e9), "update.modeled")


def _hat_multi(st, X, mode="auto"):
    """Dirichlet-projected multi-RHS operator; under the resolved oracle
    mode column-bitwise identical to
    :func:`repro.solvers.constrained.dirichlet_system`'s ``apply_hat``."""
    Xp = X.copy()
    Xp[st["mask"], :] = 0.0
    Y = st["A"].apply_owned_multi(Xp, mode=mode)
    Y[st["mask"], :] = X[st["mask"], :]
    return Y


def _hat_single(st, f):
    """Single-column Dirichlet system matching :func:`_hat_multi` bitwise."""
    mask, u0, A = st["mask"], st["u0"], st["A"]
    b_hat = np.ascontiguousarray(f) - st["Au0"]
    b_hat[mask] = u0[mask]

    def apply_hat(x):
        xp = x.copy()
        xp[mask] = 0.0
        y = A.apply_owned(xp)
        y[mask] = x[mask]
        return y

    return apply_hat, b_hat


def _apply_program(comm, st, Xr, mode="auto"):
    return st["A"].apply_owned_multi(Xr, mode=mode)


def _solve_program(comm, st, Fr, rtol, maxiter, degraded, mode="auto"):
    k = Fr.shape[1]
    if degraded:
        # fault-aware degradation: per-column resilient CG (breakdown
        # detection + restart) instead of the lock-step blocked batch
        xs, iters, conv, restarts = [], [], [], []
        for j in range(k):
            apply_hat, b_hat = _hat_single(st, Fr[:, j])
            r = cg(
                comm, apply_hat, b_hat, apply_M=st["M"], rtol=rtol,
                maxiter=maxiter, resilience=ResilienceConfig(),
            )
            xs.append(r.x)
            iters.append(r.iterations)
            conv.append(r.converged)
            restarts.append(r.restarts)
        X = np.column_stack(xs)
        return {"x": X, "iterations": iters, "converged": conv,
                "restarts": restarts}

    B_hat = Fr - st["Au0"][:, None]
    B_hat[st["mask"], :] = st["u0"][st["mask"], None]
    res = cg_multi(
        comm, lambda X, mode=mode: _hat_multi(st, X, mode=mode), B_hat,
        apply_M=st["M"], rtol=rtol, maxiter=maxiter, mode=mode,
    )
    X = np.column_stack([r.x for r in res])
    return {
        "x": X,
        "iterations": [r.iterations for r in res],
        "converged": [r.converged for r in res],
        "restarts": [0] * k,
    }


def _residual_program(comm, st, Fr, Xr):
    """Per-column local residual/rhs square sums of the Dirichlet system."""
    B_hat = Fr - st["Au0"][:, None]
    B_hat[st["mask"], :] = st["u0"][st["mask"], None]
    R = _hat_multi(st, Xr) - B_hat
    return (
        np.einsum("ij,ij->j", R, R),
        np.einsum("ij,ij->j", B_hat, B_hat),
    )


class SolverContext:
    """One warm servable operator on a persistent simulated machine."""

    def __init__(
        self,
        key: ProblemKey,
        faults: FaultPlan | None = None,
        network: NetworkModel | None = None,
        modeled_rate_gflops: float | None = DEFAULT_RATE_GFLOPS,
        setup_attempts: int = 3,
    ):
        self.key = key
        self.spec = key.build_spec()
        self.n_parts = self.spec.n_parts
        self.n_dofs = self.spec.n_dofs
        self.faulted = faults is not None
        self.modeled_rate = modeled_rate_gflops
        #: number of deltas applied to this live context (in-place or by
        #: rebuild-on-the-same-simulator); the key's ``deltas`` history may
        #: be longer if the context was built fresh from a delta'd key
        self.delta_version = 0
        self.sim = Simulator(
            self.n_parts, network=network, compute_scale=0.0, faults=faults
        )
        part = self.spec.partition
        rank_args = [(part.local(r),) for r in range(self.n_parts)]
        # a fault plan may corrupt setup traffic; detected corruption
        # (checksum/ghost counters) triggers a clean re-setup on the same
        # simulator, so its per-rule budgets keep draining and the stored
        # context is never built from a corrupted exchange
        sig = 0.0
        for attempt in range(setup_attempts):
            self.ranks = self.sim.run(
                _setup_program,
                rank_args=rank_args,
                spec=self.spec,
                method=key.method,
                kernel=key.kernel,
                modeled_rate=modeled_rate_gflops,
            )
            now = self.fault_signal()
            if now == sig:
                break
            sig = now
        else:
            raise RuntimeError(
                f"operator setup stayed corrupted after {setup_attempts} "
                f"attempts (key {key.fingerprint()})"
            )
        counts = [st["n_owned"] for st in self.ranks]
        self._bounds = np.concatenate(([0], np.cumsum(counts)))
        self.build_vtime = self.sim.max_vtime

    # ------------------------------------------------------------------

    def fault_signal(self) -> float:
        """Total detected-corruption signal across ranks (monotonic)."""
        return sum(
            c.obs.counter("faults.checksum_fail")
            + c.obs.counter("spmv.ghost_nonfinite")
            for c in self.sim.comms
        )

    def counters(self) -> dict[str, float]:
        """Summed per-rank simulator counters (faults.*, spmv.*, ...)."""
        out: dict[str, float] = {}
        for c in self.sim.comms:
            for name, val in c.obs.counters.items():
                out[name] = out.get(name, 0) + val
        return out

    def _split(self, X: np.ndarray) -> list[np.ndarray]:
        if X.ndim != 2 or X.shape[0] != self.n_dofs:
            raise ValueError(
                f"expected ({self.n_dofs}, k) multivector, got {X.shape}"
            )
        b = self._bounds
        return [
            np.ascontiguousarray(X[b[r]: b[r + 1]], dtype=np.float64)
            for r in range(self.n_parts)
        ]

    def _run(self, program, parts, extra=(), **kw):
        t0 = self.sim.max_vtime
        res = self.sim.run(
            program,
            rank_args=[
                (self.ranks[r], parts[r], *[e[r] for e in extra])
                for r in range(self.n_parts)
            ],
            **kw,
        )
        return res, self.sim.max_vtime - t0

    # ------------------------------------------------------------------

    def apply_multi(
        self, X: np.ndarray, mode: str = "auto"
    ) -> tuple[np.ndarray, float]:
        """One batched SPMV of the raw operator; returns ``(Y, vtime)``.

        ``mode`` selects the multi-RHS execution mode (see
        :mod:`repro.core.kernels`); the default ``"auto"`` keeps small
        batches on the bitwise per-column oracle.
        """
        res, dt = self._run(_apply_program, self._split(X), mode=mode)
        return np.vstack(res), dt

    def solve_multi(
        self,
        F: np.ndarray,
        rtol: float,
        maxiter: int = 2000,
        degraded: bool = False,
        mode: str = "auto",
    ) -> tuple[dict, float]:
        """Batched Dirichlet-constrained CG solve; returns ``(out, vtime)``.

        ``out["x"]`` stacks the per-column solutions; ``degraded=True``
        switches to sequential single-RHS resilient CG (the fault-aware
        path — slower, never wrong; ``mode`` is then irrelevant).
        """
        res, dt = self._run(
            _solve_program, self._split(F),
            rtol=rtol, maxiter=maxiter, degraded=degraded, mode=mode,
        )
        return {
            "x": np.vstack([r["x"] for r in res]),
            "iterations": res[0]["iterations"],
            "converged": res[0]["converged"],
            "restarts": res[0]["restarts"],
        }, dt

    def residuals(self, F: np.ndarray, X: np.ndarray) -> np.ndarray:
        """Per-column relative residuals of the constrained system (used
        by the load harness's answer verification on a fault-free
        context)."""
        res, _ = self._run(
            _residual_program, self._split(F), extra=(self._split(X),),
        )
        r2 = np.sum([r[0] for r in res], axis=0)
        b2 = np.sum([r[1] for r in res], axis=0)
        return np.sqrt(r2 / np.where(b2 > 0, b2, 1.0))

    # -- incremental updates -------------------------------------------

    def apply_delta(self, delta, threshold: float = 0.10) -> dict:
        """Apply one :class:`~repro.adapt.delta.MeshDelta` to the warm
        context; returns an info dict (``path``, ``touched``,
        ``fraction``, ``vtime``, ...).

        Small non-structural deltas take the **patch** path: only the
        touched elements' matrices are recomputed in place
        (``update_elements``) and the touched scatter/workspace caches
        invalidated — the paper's adaptive-matrix claim as a serving
        operation.  Structural deltas, or deltas touching more than
        ``threshold`` of the elements, fall back to a **full_rebuild** on
        the same simulator, reusing unchanged element matrices as a
        ``ke_cache`` where the method supports it.  Either way the
        resulting operator is bitwise identical to one freshly built from
        ``key.with_delta(delta)``.
        """
        from repro.adapt.apply import apply_delta_to_spec, localize_delta

        if self.faulted:
            raise RuntimeError(
                "apply_delta on a fault-injected context is not supported "
                "(corrupted update traffic cannot be re-verified in place)"
            )
        new_key = self.key.with_delta(delta)
        t0 = self.sim.max_vtime
        if delta.is_empty:
            info = {"path": "patch", "touched": 0, "fraction": 0.0}
        elif delta.is_structural:
            spec_new, ref = apply_delta_to_spec(self.spec, delta)
            info = self._rebuild(spec_new, ref=ref)
            info["touched"] = int(delta.refine_elements.size)
            info["fraction"] = (
                delta.refine_elements.size / self.spec.mesh.n_elements
            )
        else:
            spec, _ = apply_delta_to_spec(self.spec, delta)
            touched, ods = localize_delta(spec, delta)
            fraction = touched.size / spec.mesh.n_elements
            if fraction > threshold:
                info = self._rebuild(spec, exclude=touched)
            else:
                part = spec.partition
                n_model = [
                    self._model_count(ods[r].n_touched,
                                      part.local(r).elements.size)
                    for r in range(self.n_parts)
                ]
                kf = spec.operator.ke_flops(spec.mesh.etype)
                self.sim.run(
                    _update_program,
                    rank_args=[
                        (self.ranks[r], ods[r], n_model[r])
                        for r in range(self.n_parts)
                    ],
                    spec=spec,
                    ke_flops=kf,
                    rate=self.modeled_rate,
                )
                info = {"path": "patch"}
            info["touched"] = int(touched.size)
            info["fraction"] = float(fraction)
        info["vtime"] = self.sim.max_vtime - t0
        self.key = new_key
        self.delta_version += 1
        return info

    def _model_count(self, touched_local: int, n_local: int) -> int:
        """Elements whose matrices an in-place patch recomputes on one
        rank: the touched batch for element-wise methods, everything for
        the assembled baselines (reassembly is all-or-nothing — the
        SELL-C-sigma operator reassembles and reconverts the same way),
        nothing for matrix-free (state is coords/scale only)."""
        method = self.key.method
        if method == "matfree":
            return 0
        if method.startswith("assembled") or method == "sellcs":
            return n_local
        return touched_local

    def _rebuild(self, spec_new, ref=None, exclude=None) -> dict:
        """Full re-setup on the same simulator, carrying unchanged
        element matrices over as a ``ke_cache`` (hymv methods)."""
        method = self.key.method
        ke_cache = None
        if method in ("hymv", "hymv_gpu"):
            merged: dict = {}
            for st in self.ranks:
                merged.update(st["A"].export_ke_cache())
            if ref is not None:
                # refinement: an unchanged child is its ancestor, matrix
                # and all (scale history included — it was carried over by
                # elem_scale[ancestor])
                ke_cache = {
                    int(e): merged[int(ref.ancestor[e])]
                    for e in np.flatnonzero(ref.unchanged)
                    if int(ref.ancestor[e]) in merged
                }
            else:
                drop = {int(g) for g in np.asarray(exclude).ravel()}
                ke_cache = {
                    g: v for g, v in merged.items() if g not in drop
                }
        self.spec = spec_new
        self.n_dofs = spec_new.n_dofs
        part = spec_new.partition
        self.ranks = self.sim.run(
            _setup_program,
            rank_args=[(part.local(r),) for r in range(self.n_parts)],
            spec=spec_new,
            method=method,
            kernel=self.key.kernel,
            modeled_rate=self.modeled_rate,
            ke_cache=ke_cache,
        )
        counts = [st["n_owned"] for st in self.ranks]
        self._bounds = np.concatenate(([0], np.cumsum(counts)))
        hits = [
            int(getattr(st["A"], "cache_hits", 0) or 0) for st in self.ranks
        ]
        kf = spec_new.operator.ke_flops(spec_new.mesh.etype)
        self.sim.run(
            _rebuild_advance_program,
            rank_args=[
                (
                    self.ranks[r],
                    self._model_count(
                        part.local(r).elements.size - hits[r],
                        part.local(r).elements.size,
                    ),
                )
                for r in range(self.n_parts)
            ],
            ke_flops=kf,
            rate=self.modeled_rate,
        )
        return {"path": "full_rebuild", "ke_cache_hits": int(sum(hits))}


class OperatorCache:
    """Bounded LRU cache of :class:`SolverContext` entries.

    ``cluster``/``cluster_name`` register every built context's simulator
    with a :class:`~repro.simmpi.cluster.VirtualCluster`, so multi-service
    simulations (the sharded tier) can account busy virtual time per
    logical node across the whole cache history.  ``on_invalidate`` is an
    optional hook fired after an explicit :meth:`invalidate` (not on LRU
    eviction — an evicted context was still *valid*); the shard tier uses
    it for cache-coherent invalidation of replicas.
    """

    def __init__(
        self,
        capacity: int = 4,
        obs: Instrumentation | None = None,
        faults: FaultPlan | None = None,
        network: NetworkModel | None = None,
        modeled_rate_gflops: float | None = DEFAULT_RATE_GFLOPS,
        cluster=None,
        cluster_name: str = "",
    ):
        if capacity < 1:
            raise ValueError(f"cache capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.obs = obs if obs is not None else Instrumentation(rank=-1)
        self.faults = faults
        self.network = network
        self.modeled_rate_gflops = modeled_rate_gflops
        self.cluster = cluster
        self.cluster_name = cluster_name
        #: post-invalidation hook ``(key) -> None`` (see class docstring)
        self.on_invalidate = None
        self._entries: OrderedDict[str, SolverContext] = OrderedDict()
        #: simulator counters of evicted/invalidated contexts, so scenario
        #: reports see the whole history, not just live entries
        self._retired: dict[str, float] = {}
        #: per-tenant hit/miss accounting: tenant label -> [hits, misses].
        #: Unlike the per-context simulator counters (which are retired on
        #: eviction), hit/miss stats always lived only on ``self.obs`` with
        #: no tenant dimension; this map adds the labels the multi-tenant
        #: Zipf harness needs for per-tenant hit rates.
        self._tenants: dict[str, list[int]] = {}

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: ProblemKey) -> bool:
        return key.fingerprint() in self._entries

    def get(
        self, key: ProblemKey, tenants: Sequence[str] | None = None
    ) -> tuple[SolverContext, float]:
        """Warm context for ``key``; returns ``(ctx, build_vtime)`` where
        ``build_vtime`` is 0 on a hit (setup already amortized).

        ``tenants`` optionally attributes this lookup to tenant labels
        (one per batched request); each listed tenant's hit/miss counters
        move by one, feeding :meth:`tenant_stats`.
        """
        fp = key.fingerprint()
        ctx = self._entries.get(fp)
        if ctx is not None:
            self._entries.move_to_end(fp)
            self.obs.incr("serve.cache.hits")
            self._account_tenants(tenants, hit=True)
            return ctx, 0.0
        self.obs.incr("serve.cache.misses")
        self._account_tenants(tenants, hit=False)
        ctx = SolverContext(
            key,
            faults=self.faults,
            network=self.network,
            modeled_rate_gflops=self.modeled_rate_gflops,
        )
        if self.cluster is not None:
            self.cluster.register(self.cluster_name, ctx.sim)
        self._entries[fp] = ctx
        while len(self._entries) > self.capacity:
            _, old = self._entries.popitem(last=False)
            self._retire(old)
            self.obs.incr("serve.cache.evictions")
        return ctx, ctx.build_vtime

    def _account_tenants(
        self, tenants: Sequence[str] | None, hit: bool
    ) -> None:
        for t in tenants or ():
            stats = self._tenants.setdefault(t, [0, 0])
            stats[0 if hit else 1] += 1
            self.obs.incr(
                f"serve.cache.tenant.{t}.{'hits' if hit else 'misses'}"
            )

    def peek(self, key: ProblemKey) -> SolverContext | None:
        """Cached context for ``key`` without touching LRU order or
        hit/miss counters (introspection only)."""
        return self._entries.get(key.fingerprint())

    def update(self, key: ProblemKey, delta, threshold: float = 0.10):
        """Apply ``delta`` to the cached context for ``key``, re-keying it
        **in place** to ``key.with_delta(delta)``; returns
        ``(new_key, info)``.

        On a hit the context keeps its LRU position (an update is not a
        use — it must not keep an otherwise-cold entry warm) and its
        tenant accounting, and only its key changes: re-fingerprint, not
        invalidate-and-rebuild.  On a miss nothing is built — the next
        ``get(new_key)`` pays a fresh setup, which lands on the same
        post-update operator because the key replays its delta history.

        Either way :attr:`on_invalidate` fires for the **old** key:
        replicas of the pre-update operator are stale no matter whether
        this shard had it cached.
        """
        fp = key.fingerprint()
        new_key = key.with_delta(delta)
        ctx = self._entries.get(fp)
        info = None
        if ctx is None:
            self.obs.incr("serve.cache.delta_misses")
        else:
            info = ctx.apply_delta(delta, threshold=threshold)
            # rename in place, preserving LRU order
            self._entries = OrderedDict(
                (new_key.fingerprint() if k == fp else k, v)
                for k, v in self._entries.items()
            )
            self.obs.incr("serve.cache.delta_updates")
            self.obs.incr(
                "serve.cache.delta_patches"
                if info["path"] == "patch"
                else "serve.cache.delta_rebuilds"
            )
        if self.on_invalidate is not None:
            self.on_invalidate(key)
        return new_key, info

    def invalidate(self, key: ProblemKey) -> bool:
        """Drop a (possibly poisoned) context; next ``get`` rebuilds.

        Fires :attr:`on_invalidate` (when set) after the local drop, so a
        coherence layer can propagate the invalidation to replicas — the
        hook fires even when the key was not locally cached, because a
        poison signal on one replica says nothing about the others.
        """
        ctx = self._entries.pop(key.fingerprint(), None)
        if ctx is not None:
            self._retire(ctx)
        if self.on_invalidate is not None:
            self.on_invalidate(key)
        return ctx is not None

    def _retire(self, ctx: SolverContext) -> None:
        for name, val in ctx.counters().items():
            self._retired[name] = self._retired.get(name, 0) + val

    def tenant_stats(self) -> dict[str, dict[str, float]]:
        """Per-tenant hit/miss counters accumulated by :meth:`get`."""
        return {
            t: {
                "hits": hits,
                "misses": misses,
                "hit_rate": hits / (hits + misses) if hits + misses else 0.0,
            }
            for t, (hits, misses) in sorted(self._tenants.items())
        }

    def stats(self) -> dict[str, float]:
        hits = self.obs.counter("serve.cache.hits")
        misses = self.obs.counter("serve.cache.misses")
        total = hits + misses
        return {
            "hits": hits,
            "misses": misses,
            "evictions": self.obs.counter("serve.cache.evictions"),
            "hit_rate": hits / total if total else 0.0,
            "size": len(self._entries),
            "capacity": self.capacity,
        }

    def counters(self) -> dict[str, float]:
        """Simulator counters summed over live and retired contexts."""
        out = dict(self._retired)
        for ctx in self._entries.values():
            for name, val in ctx.counters().items():
                out[name] = out.get(name, 0) + val
        return out
