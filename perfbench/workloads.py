"""The three seeded workloads, driven through ``repro``'s public API.

Each ``run_*`` function builds its inputs from ``seed``, measures for
``seconds`` of host wall-clock time (answer checks run with the clock
stopped) and returns a :class:`~perfbench.common.Result`.  The loop is
cut into rounds (:meth:`~perfbench.common.Result.round`); a traced run
traces every other round.  ``tiny=True`` shrinks the problem for the
benchmark's own tests.

* ``solve-p1`` — jittered-Hex8 elastic bar, one rank, inline: the
  paper's ``run_bench`` (setup + single-RHS SPMVs) and ``run_solve``
  (Jacobi CG) protocols on ``hymv``, plus the scipy-CSR ``assembled``
  SPMV as the named baseline.  A round is one mesh.
* ``serve-p2`` — a closed loop of 16 callers on four warm 2-rank
  Poisson keys through ``SolverService``: 75% SPMV, 25% solve requests.
  A round is one dispatch.
* ``adapt-p2`` — crack fronts driven through a warm 2-rank Poisson
  context: ``OperatorCache.update`` (patch path), then a 4-RHS solve.
  A round is one front: warming the context and its eight steps.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

import numpy as np
from perfbench.common import MIN_CG_ITERATIONS, RTOL, Clock, Result
from perfbench.tracer import Tracer

import repro.problems as problems
from repro.adapt.delta import CrackFront
from repro.harness import driver
from repro.mesh.element import ElementType
from repro.obs.instrumentation import Instrumentation
from repro.serve.cache import OperatorCache, ProblemKey, SolverContext
from repro.serve.loadgen import SPMV_REL_TOL
from repro.serve.queue import ServeRequest
from repro.serve.service import SolverService
from repro.util.arrays import INDEX_DTYPE

#: solve-p1: err_inf of the jittered bar against Timoshenko's solution
#: is 6.7e-5 to 7.7e-5 on eight jitters of the (12, 12, 24) mesh and
#: 3.2e-3 on the (3, 3, 6) test mesh; the bounds leave headroom for other
#: jitters, not for a wrong solve (those miss by decades)
BAR_ERR_BOUND = {False: 2e-4, True: 1e-2}
#: single-RHS SPMVs per run_bench call
N_SPMV = 40
#: bar meshes per solve-p1 sweep; odd, so that alternating traced and
#: untraced rounds trace every mesh equally often
N_MESHES = 3

N_CALLERS = 16
SOLVE_FRAC = 0.25
MAX_BATCH = 8
#: answers held back before a verification pause (bounds memory)
VERIFY_EVERY = 256

FRONT_STEPS = 8
N_RHS = 4


# ----------------------------------------------------------------------------
# solve-p1
# ----------------------------------------------------------------------------

def bar_meshes(seed: int) -> list[int]:
    """Jitter seeds of the run's bar meshes.  CG needs about 375 or about
    430 iterations depending on the jitter, so one run solves several
    meshes and times them together."""
    rng = np.random.default_rng([seed, 0xBA4])
    return [int(x) for x in rng.integers(2**31, size=N_MESHES)]


def run_solve_p1(seed: int, seconds: float, tracer: Tracer, clock: Clock,
                 tiny: bool = False) -> Result:
    """An operation is one mesh: build the problem, run the two
    protocols and the CSR baseline.  ``op`` times a sweep over all
    meshes of :func:`bar_meshes` (RHS to verified solution, summed)."""
    size = (3, 3, 6) if tiny else (12, 12, 24)
    res = Result("solve-p1")
    spans = tracer.spans
    iterations: list[int] = []

    def durations(mark: int, name: str) -> list[float]:
        return [s.dur for s in spans[mark:] if s.name == name]

    def one_mesh(mesh_seed: int) -> float:
        """Returns the mesh's RHS-to-solution seconds."""
        res.ops += 1
        t0 = clock.now()
        # looked up on the module at call time, so the tracer sees it
        spec = problems.elastic_bar_problem(
            size, n_parts=1, etype=ElementType.HEX8, unstructured=True,
            seed=mesh_seed,
        )
        t_problem = clock.now() - t0

        mark = len(spans)
        bench = driver.run_bench(spec, "hymv", n_spmv=N_SPMV, seed=mesh_seed)
        res.samples.setdefault("spmv", []).extend(durations(mark, "core.spmv"))
        mark = len(spans)
        driver.run_bench(spec, "assembled", n_spmv=N_SPMV, seed=mesh_seed)
        res.samples.setdefault("csr_spmv", []).extend(
            durations(mark, "baselines.csr_apply"))

        mark = len(spans)
        t0 = clock.now()
        sol = driver.run_solve(spec, "hymv", precond="jacobi", rtol=RTOL)
        t_solve = clock.now() - t0
        t_setup = sum(durations(mark, "core.setup"))
        res.add("setup", t_problem + t_setup)

        with clock.paused(), tracer.paused():
            res.check(
                sol.converged
                and sol.iterations >= MIN_CG_ITERATIONS
                and sol.err_inf <= BAR_ERR_BOUND[tiny]
            )
            iterations.append(sol.iterations)
            res.info["err_inf_max"] = max(res.info.get("err_inf_max", 0.0),
                                          sol.err_inf)
            counters = sol.obs["counters"]
            for name, val in (
                ("msgs_per_op", counters.get("comm.msgs_sent", 0)),
                ("bytes_per_op", counters.get("comm.bytes_sent", 0)),
                ("emv_flops_per_op",
                 bench.flops_spmv + counters.get("spmv.flops", 0)),
            ):
                res.counts[name] = res.counts.get(name, 0) + val
            res.counts["flops_per_spmv"] = bench.flops_spmv / bench.n_spmv
            res.counts["bytes_per_spmv_computed"] = _spmv_bytes(
                spec, bench.stored_bytes)
        return t_solve - t_setup

    start = clock.now()
    while clock.now() - start < seconds or not res.ops:
        sweep = 0.0
        for mesh_seed in bar_meshes(seed):
            with res.round(tracer, clock) as rnd:
                rnd.stratum = mesh_seed
                sweep += one_mesh(mesh_seed)
        res.add("op", sweep)
    res.loop_s = clock.now() - start
    for name in ("msgs_per_op", "bytes_per_op", "emv_flops_per_op"):
        res.counts[name] /= res.ops
    res.counts["iterations"] = float(np.mean(iterations))
    return res


def _per_op(counters: dict[str, float], ops: int) -> dict[str, float]:
    """Message, byte and EMV flop counts per operation."""
    ops = max(ops, 1)
    return {
        "msgs_per_op": counters.get("comm.msgs_sent", 0) / ops,
        "bytes_per_op": counters.get("comm.bytes_sent", 0) / ops,
        "emv_flops_per_op": counters.get("spmv.flops", 0) / ops,
    }


def _operator_counts(contexts) -> dict[str, float]:
    """Flops and computed bytes of one single-RHS SPMV, averaged over
    the warm contexts' operators (summed over their ranks)."""
    flops, nbytes = [], []
    for ctx in contexts:
        ops = [st["A"] for st in ctx.ranks]
        flops.append(sum(A.flops_per_spmv() for A in ops))
        nbytes.append(_spmv_bytes(ctx.spec, sum(A.stored_bytes() for A in ops)))
    return {"flops_per_spmv": float(np.mean(flops)),
            "bytes_per_spmv_computed": float(np.mean(nbytes))}


def _spmv_bytes(spec, ke_bytes: int) -> int:
    """Bytes one single-RHS EBE SPMV moves by its own arithmetic: every
    stored element matrix, plus the gathered element vectors, the
    element results and the dof map each read or written once."""
    n_el = spec.mesh.n_elements
    nd = spec.operator.element_dofs(spec.mesh.etype)
    return int(ke_bytes + n_el * nd * (2 * 8 + np.dtype(INDEX_DTYPE).itemsize))


# ----------------------------------------------------------------------------
# serve-p2
# ----------------------------------------------------------------------------

def serve_keys(seed: int, tiny: bool = False):
    """The four warm operator keys (tet meshes are jittered by ``seed``)."""
    jitter = seed % 10007
    sizes = ((5, 6), (4, 5)) if tiny else ((8, 12), (6, 8))
    return tuple(
        [ProblemKey("poisson", nel=n, n_parts=2, etype="hex8")
         for n in sizes[0]]
        + [ProblemKey("poisson", nel=n, n_parts=2, etype="tet4", seed=jitter)
           for n in sizes[1]]
    )


class Caller:
    """One closed-loop client: its own seeded stream of requests."""

    def __init__(self, seed: int, caller: int, n_keys: int):
        self.rng = np.random.default_rng([seed, caller])
        self.n_keys = n_keys

    def next_request(self) -> tuple[int, str, int]:
        """``(key index, kind, vector seed)`` of the next request."""
        key = int(self.rng.integers(self.n_keys))
        kind = "solve" if self.rng.random() < SOLVE_FRAC else "spmv"
        return key, kind, int(self.rng.integers(2**31))


def _warm(keys):
    cache = OperatorCache(capacity=len(keys), obs=Instrumentation(rank=-1))
    for key in keys:
        cache.get(key)
    return cache


def run_serve_p2(seed: int, seconds: float, tracer: Tracer, clock: Clock,
                 tiny: bool = False) -> Result:
    keys = serve_keys(seed, tiny)
    res = Result("serve-p2")
    # set up three times: the first cache is the verifier's reference,
    # the last one serves
    caches = []
    for _ in range(3):
        t0 = clock.now()
        caches.append(_warm(keys))
        res.add("setup", clock.now() - t0)
    ref, cache = caches[0], caches[-1]
    del caches
    counts0 = _sum_counters(cache, keys)
    stats0 = cache.stats()

    service = SolverService(cache, max_batch=MAX_BATCH)
    callers = [Caller(seed, c, len(keys)) for c in range(N_CALLERS)]
    submitted: dict[int, tuple[int, float]] = {}
    held: list = []
    iterations: list[int] = []
    rid = 0

    def submit(caller: int) -> None:
        nonlocal rid
        k, kind, vseed = callers[caller].next_request()
        rid += 1
        req = ServeRequest(rid=rid, key=keys[k], kind=kind, seed=vseed,
                           rtol=RTOL)
        submitted[rid] = (caller, clock.now())
        if not service.submit(req):  # the queue holds every caller
            res.check(False)

    loop0 = clock.now()
    for c in range(N_CALLERS):
        submit(c)
    while (clock.now() - loop0 < seconds or res.ops < N_CALLERS
           or len(res.rounds) < 2):
        with res.round(tracer, clock) as rnd:
            t0 = clock.now()
            out = service.dispatch(t0)
            t1 = clock.now()
            req = out.completions[0].request
            rnd.stratum = (keys.index(req.key), req.kind, out.batch_size)
            res.add("dispatch", t1 - t0)
            for comp in out.completions:
                caller, t_sub = submitted.pop(comp.request.rid)
                res.add("op", t1 - t_sub)
                res.add("queue_wait", t0 - t_sub)
                res.ops += 1
                held.append(comp)
                if comp.request.kind == "solve" and comp.status == "ok":
                    iterations.append(comp.info["iterations"])
                submit(caller)
        if len(held) >= VERIFY_EVERY:
            with clock.paused(), tracer.paused():
                _verify_serve(ref, held, res)
            held = []
    res.loop_s = clock.now() - loop0
    with clock.paused(), tracer.paused():
        _verify_serve(ref, held, res)
        counts = _sum_counters(cache, keys)
        stats = cache.stats()
        batches = sum(service.batch_histogram.values())
        res.counts = _per_op(
            {name: counts[name] - counts0.get(name, 0) for name in counts},
            res.ops,
        )
        res.counts["iterations"] = float(np.mean(iterations)) if iterations else 0.0
        res.counts.update(_operator_counts(cache.peek(k) for k in keys))
        res.info.update(
            batch_k_mean=sum(k * n for k, n in service.batch_histogram.items())
            / max(batches, 1),
            gemm_batch_frac=service.mode_histogram.get("gemm", 0)
            / max(batches, 1),
            cache_hit_ratio=(stats["hits"] - stats0["hits"]) / max(
                stats["hits"] + stats["misses"]
                - stats0["hits"] - stats0["misses"], 1),
            batches=batches,
            n_dofs=[k.n_dofs_estimate() for k in keys],
        )
    return res


def _sum_counters(cache, keys) -> dict[str, float]:
    out: dict[str, float] = {}
    for key in keys:
        ctx = cache.peek(key)
        for name, val in ctx.counters().items():
            out[name] = out.get(name, 0) + val
    return out


def _verify_serve(ref, completions, res: Result) -> None:
    """Check answers against the reference contexts, up to ``MAX_BATCH``
    columns per reference call (operators keep work buffers per column
    count, so wider calls would grow the reference's memory): SPMVs to
    ``SPMV_REL_TOL`` of the oracle product, solves to a true residual of
    at most ``10 * rtol``."""
    groups: dict = {}
    for comp in completions:
        groups.setdefault((comp.request.key, comp.request.kind), []).append(comp)
    for (key, kind), comps in groups.items():
        good = [c for c in comps if c.status == "ok" and c.value is not None]
        for _ in range(len(comps) - len(good)):
            res.check(False)
        for i in range(0, len(good), MAX_BATCH):
            _verify_columns(ref.peek(key), kind, good[i:i + MAX_BATCH], res)


def _verify_columns(ctx, kind: str, good: list, res: Result) -> None:
    X = np.column_stack(
        [SolverService.input_vector(ctx, c.request.seed) for c in good]
    )
    V = np.column_stack([c.value for c in good])
    if kind == "spmv":
        Y, _ = ctx.apply_multi(X, mode="oracle")
        err = np.linalg.norm(V - Y, axis=0)
        scale = np.linalg.norm(Y, axis=0)
        for j in range(len(good)):
            res.check(bool(np.isfinite(err[j]))
                      and err[j] <= SPMV_REL_TOL * (scale[j] or 1.0))
    else:
        rel = ctx.residuals(X, V)
        for j, c in enumerate(good):
            res.check(
                bool(np.isfinite(rel[j])) and rel[j] <= 10 * RTOL
                and c.info["iterations"] >= MIN_CG_ITERATIONS
            )


# ----------------------------------------------------------------------------
# adapt-p2
# ----------------------------------------------------------------------------

def adapt_front(rng: np.random.Generator):
    """A crack front at a seeded height with a seeded softening.  Its
    band is 2 of 16 element columns by 52% of the height, 6.5% of the
    elements, so every delta takes the patch path."""
    return CrackFront(
        soft_scale=float(rng.uniform(0.02, 0.2)),
        y0=float(rng.uniform(0.35, 0.65)),
        half_width=0.26,
    )


def adapt_deltas(rng: np.random.Generator, mesh) -> list:
    """The scale deltas of one front crossing the mesh."""
    front = adapt_front(rng)
    return [front.scale_delta(mesh, s, FRONT_STEPS) for s in range(FRONT_STEPS)]


def run_adapt_p2(seed: int, seconds: float, tracer: Tracer, clock: Clock,
                 tiny: bool = False) -> Result:
    base_key = ProblemKey("poisson", nel=6 if tiny else 16, n_parts=2,
                          etype="hex8")
    rng = np.random.default_rng([seed, 0xB])
    res = Result("adapt-p2")
    tally = {"touched": 0, "patches": 0, "iterations": []}
    counts: dict[str, float] = {}
    start = clock.now()
    while clock.now() - start < seconds or len(res.rounds) < 2:
        with res.round(tracer, clock):
            ctx = _front_round(res, tracer, clock, rng, base_key, tally,
                               counts)
    res.loop_s = clock.now() - start
    res.counts = _per_op(counts, res.ops)
    res.counts["iterations"] = float(np.mean(tally["iterations"]))
    res.counts.update(_operator_counts([ctx]))
    res.info.update(
        touched_elements=tally["touched"] / res.ops,
        patch_ratio=tally["patches"] / res.ops,
        n_dofs=ctx.n_dofs,
    )
    return res


def _front_round(res, tracer, clock, rng, base_key, tally, counts):
    """One front on a freshly warmed context: the key's delta history,
    and so the cost of every update, has the same length in every round.
    Returns the final context."""
    t0 = clock.now()
    cache = OperatorCache(capacity=2, obs=Instrumentation(rank=-1))
    ctx, _ = cache.get(base_key)
    res.add("setup", clock.now() - t0)
    with clock.paused(), tracer.paused():
        deltas = adapt_deltas(rng, ctx.spec.mesh)
        rhs = [rng.standard_normal((ctx.n_dofs, N_RHS)) for _ in deltas]
        check_step = int(rng.integers(FRONT_STEPS))
        c0 = ctx.counters()
    key = base_key
    for step, (delta, F) in enumerate(zip(deltas, rhs)):
        res.ops += 1
        t0 = clock.now()
        key, info = cache.update(key, delta)
        t1 = clock.now()
        ctx, _ = cache.get(key)
        out, _ = ctx.solve_multi(F, rtol=RTOL)
        t2 = clock.now()
        res.add("update", t1 - t0)
        res.add("op", t2 - t0)
        with clock.paused(), tracer.paused():
            tally["patches"] += info["path"] == "patch"
            tally["touched"] += info["touched"]
            tally["iterations"].extend(out["iterations"])
            rel = ctx.residuals(F, out["x"])
            res.check(
                all(out["converged"])
                and min(out["iterations"]) >= MIN_CG_ITERATIONS
                and bool(np.all(rel <= 10 * RTOL))
            )
            if step == check_step:
                # bitwise against a fresh build of the post-update key
                fresh = SolverContext(key)
                X = rng.standard_normal((ctx.n_dofs, N_RHS))
                Yd, _ = ctx.apply_multi(X, mode="oracle")
                Yf, _ = fresh.apply_multi(X, mode="oracle")
                res.check(np.array_equal(Yd, Yf))
    with clock.paused(), tracer.paused():
        for name, val in ctx.counters().items():
            counts[name] = counts.get(name, 0) + val - c0.get(name, 0)
    return ctx


class Workload(NamedTuple):
    run: Callable[..., Result]
    ranks: int  # rank threads of every simulated run
    #: spans kept in the untraced run: solve-p1 reads the operator
    #: set-up time out of run_solve and single SPMV times out of
    #: run_bench from them (one span per call, none nested)
    probes: frozenset = frozenset()


WORKLOADS = {
    "solve-p1": Workload(run_solve_p1, 1, frozenset(
        {"core.setup", "core.spmv", "baselines.csr_apply"})),
    "serve-p2": Workload(run_serve_p2, 2),
    "adapt-p2": Workload(run_adapt_p2, 2),
}
