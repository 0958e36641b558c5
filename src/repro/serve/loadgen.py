"""Closed-loop load harness: ``python -m repro.harness serve``.

Drives a :class:`~repro.serve.service.SolverService` with a seeded
open-loop (Poisson arrivals) or closed-loop (fixed client population with
think time) workload, entirely in *virtual* time: request latencies are
modeled simulator seconds, so the emitted ``SERVE_report.json`` is a
deterministic function of the seed and the code path — comparable across
machines, like the smoke bench.

Every completed answer is re-checked after the run against a fresh,
fault-free reference cache (SPMV results must match the reference to
~machine precision; solves must satisfy the constrained-system residual
tolerance), and any miss counts as a ``wrong_answer`` — the number the CI
gate requires to be exactly zero, fault plan or not.

Alongside the serve report, the harness writes a ``BENCH_serve.json`` in
the standard bench schema so the existing ``repro.obs.compare`` gate can
diff latency percentiles and request counters against a checked-in
baseline.
"""

from __future__ import annotations

import heapq
import pathlib
import sys
from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.core.scatter import SCATTER_TAG
from repro.faults.plan import Corrupt, Delay, Drop, FaultPlan, Straggler
from repro.obs.instrumentation import Instrumentation, percentile_summary
from repro.obs.report import emit, harness_parser, install_tuned, point_phase
from repro.obs.schema import BENCH_SCHEMA, SERVE_SCHEMA, new_doc
from repro.serve.cache import OperatorCache, ProblemKey
from repro.serve.queue import ServeRequest
from repro.serve.service import SolverService

__all__ = [
    "Workload",
    "bench_projection",
    "gate",
    "run_workload",
    "run_serve_suite",
    "verify_answers",
    "main",
]

#: SPMV answers must match the fault-free reference this tightly (the
#: batched path is bitwise-identical per column, so anything above noise
#: means corruption leaked through)
SPMV_REL_TOL = 1e-9


@dataclass(frozen=True)
class Workload:
    """One seeded serving scenario."""

    name: str
    keys: tuple[ProblemKey, ...]
    arrival: str = "open"  # "open" | "closed"
    n_requests: int = 40
    rate_rps: float = 1000.0  # open-loop mean arrival rate (virtual req/s)
    n_clients: int = 4  # closed-loop client population
    think_s: float = 0.002  # closed-loop think time
    solve_frac: float = 0.3
    rtol: float = 1e-6
    deadline_s: float | None = None  # relative per-request deadline
    cancel_frac: float = 0.0  # open loop: fraction cancelled post-submit
    max_batch: int = 8
    queue_capacity: int = 32
    cache_capacity: int = 2
    faults: FaultPlan | None = None
    mode: str = "auto"  # multi-RHS execution mode per batch
    k_min: int | None = None  # "auto" crossover (None -> DEFAULT_K_MIN)
    backend: str | None = None  # operator routing policy (None/auto/hymv/sellcs)
    sellcs_crossover_dofs: int | None = None  # "auto" backend crossover
    verify: bool = True  # post-run answer re-check (off for tuner probes)

    def describe(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "arrival": self.arrival,
            "n_requests": self.n_requests,
            "rate_rps": self.rate_rps,
            "n_clients": self.n_clients,
            "think_s": self.think_s,
            "solve_frac": self.solve_frac,
            "rtol": self.rtol,
            "deadline_s": self.deadline_s,
            "cancel_frac": self.cancel_frac,
            "max_batch": self.max_batch,
            "queue_capacity": self.queue_capacity,
            "cache_capacity": self.cache_capacity,
            "mode": self.mode,
            "k_min": self.k_min,
            "backend": self.backend,
            "sellcs_crossover_dofs": self.sellcs_crossover_dofs,
            "verify": self.verify,
            "keys": [k.fingerprint() for k in self.keys],
            "faults": self.faults.describe() if self.faults else None,
        }


def run_workload(
    w: Workload, seed: int = 1234, k_min: int | None = None, tuned=None
) -> dict[str, Any]:
    """Simulate one scenario; returns a schema-conforming scenario dict.

    ``k_min`` overrides the workload's ``auto`` crossover (e.g. a
    calibrated ``gemm_k_min`` loaded with
    :func:`repro.tune.calibration.load_tuned_config`); the workload's
    own ``k_min`` wins when set, keeping checked-in scenario baselines deterministic.
    ``tuned`` (a ``get``-able autotuner artifact) fills the service
    knobs the workload left at defaults — same precedence as
    :class:`~repro.serve.service.SolverService`.
    """
    obs = Instrumentation(rank=-1)
    cache = OperatorCache(capacity=w.cache_capacity, obs=obs, faults=w.faults)
    service = SolverService(
        cache, max_batch=w.max_batch, queue_capacity=w.queue_capacity,
        mode=w.mode, k_min=w.k_min if w.k_min is not None else k_min,
        backend=w.backend, sellcs_crossover_dofs=w.sellcs_crossover_dofs,
        tuned=tuned,
    )
    rng = np.random.default_rng(seed)

    # discrete events: (time, tiebreak, kind, payload)
    events: list[tuple[float, int, str, Any]] = []
    order = 0

    def push(t: float, kind: str, payload: Any) -> None:
        nonlocal order
        heapq.heappush(events, (t, order, kind, payload))
        order += 1

    issued = 0

    def make_request(t: float, client: int | None = None) -> ServeRequest:
        nonlocal issued
        rid = issued
        issued += 1
        key = w.keys[int(rng.integers(len(w.keys)))]
        kind = "solve" if rng.random() < w.solve_frac else "spmv"
        return ServeRequest(
            rid=rid,
            key=key,
            kind=kind,
            seed=int(seed * 100003 + rid),
            arrival=t,
            deadline=(t + w.deadline_s) if w.deadline_s is not None else None,
            rtol=w.rtol,
            meta={} if client is None else {"client": client},
        )

    if w.arrival == "open":
        # pre-drawn Poisson arrival process (+ optional cancellations)
        t = 0.0
        for _ in range(w.n_requests):
            t += float(rng.exponential(1.0 / w.rate_rps))
            push(t, "submit", None)
    elif w.arrival == "closed":
        for c in range(w.n_clients):
            push(float(rng.exponential(w.think_s)), "client", c)
    else:
        raise ValueError(f"unknown arrival process {w.arrival!r}")

    completions: list = []
    latency: dict[str, list[float]] = {"all": [], "spmv": [], "solve": []}
    now = 0.0
    makespan = 0.0

    def deliver(ev: tuple) -> None:
        t, _, kind, payload = ev
        if kind == "submit":
            req = make_request(t)
            if service.submit(req) and w.cancel_frac and (
                rng.random() < w.cancel_frac
            ):
                push(t + float(rng.exponential(0.2 / w.rate_rps)),
                     "cancel", req.rid)
        elif kind == "cancel":
            service.cancel(payload)
        elif kind == "client":
            if issued >= w.n_requests:
                return
            req = make_request(t, client=payload)
            if not service.submit(req):  # shed: client backs off and retries
                push(t + w.think_s, "client", payload)

    while events or service.pending:
        while events and events[0][0] <= now:
            deliver(heapq.heappop(events))
        if not service.pending:
            if not events:
                break
            now = events[0][0]
            continue
        out = service.dispatch(now)
        t_end = now + out.duration
        for r in out.expired:
            if "client" in r.meta:
                push(t_end + w.think_s, "client", r.meta["client"])
        for c in out.completions:
            if c.status == "ok":
                lat = t_end - c.request.arrival
                latency["all"].append(lat)
                latency[c.request.kind].append(lat)
                completions.append(c)
            if "client" in c.request.meta:
                push(t_end + w.think_s, "client", c.request.meta["client"])
        now = t_end
        makespan = max(makespan, now)

    if w.verify:
        wrong, ref = verify_answers(w.keys, completions)
        ctx0, _ = ref.get(w.keys[0])
        n_parts, n_dofs = ctx0.n_parts, ctx0.n_dofs
    else:
        # tuner probes skip the (expensive) re-check: answer correctness
        # is the serve suite's job, the probe only measures scheduling
        wrong = 0
        ctx0 = cache.peek(w.keys[0])
        n_parts = ctx0.n_parts if ctx0 else w.keys[0].n_parts
        n_dofs = ctx0.n_dofs if ctx0 else w.keys[0].n_dofs_estimate()
    obs.incr("serve.wrong_answers", wrong)  # materialize even when 0

    req_counts = {
        "submitted": int(obs.counter("serve.submitted")),
        "completed": int(obs.counter("serve.completed")),
        "rejected": int(obs.counter("serve.rejected")),
        "shed_deadline": int(obs.counter("serve.shed_deadline")),
        "cancelled": int(obs.counter("serve.cancelled")),
        "failed": int(obs.counter("serve.failed")),
        "wrong_answers": int(wrong),
    }
    counters = dict(sorted(obs.counters.items()))
    for name, val in sorted(cache.counters().items()):
        counters[name] = counters.get(name, 0) + val
    return {
        "scenario": w.name,
        "workload": w.describe(),
        "n_parts": n_parts,
        "n_dofs": n_dofs,
        "requests": req_counts,
        "latency_s": {
            k: percentile_summary(v) for k, v in latency.items() if v
        },
        "throughput_rps": (
            req_counts["completed"] / makespan if makespan > 0 else 0.0
        ),
        "makespan_s": makespan,
        "batch_histogram": {
            str(k): v for k, v in sorted(service.batch_histogram.items())
        },
        "modes": {
            m: v for m, v in sorted(service.mode_histogram.items())
        },
        "cache": cache.stats(),
        "counters": counters,
    }


def verify_answers(
    keys, completions: list, bitwise: bool = False
) -> tuple[int, OperatorCache]:
    """Re-check every delivered answer on a fresh, fault-free single-node
    reference cache over ``keys``; returns ``(wrong_answers, ref)``.

    SPMV answers must match the reference within :data:`SPMV_REL_TOL`
    and solves must meet ``10 * rtol`` on the true residual.  With
    ``bitwise`` (oracle-mode runs, where every column is bitwise whatever
    batch it rode in) both must equal the reference exactly.
    """
    ref = OperatorCache(
        capacity=max(len(keys), 1), obs=Instrumentation(rank=-1)
    )
    wrong = 0
    for c in completions:
        ctx, _ = ref.get(c.request.key)
        x = SolverService.input_vector(ctx, c.request.seed)
        if c.request.kind == "spmv":
            y_ref, _ = ctx.apply_multi(x[:, None])
            y_ref = y_ref[:, 0]
            if bitwise:
                if not np.array_equal(c.value, y_ref):
                    wrong += 1
                continue
            scale = float(np.linalg.norm(y_ref)) or 1.0
            err = float(np.linalg.norm(c.value - y_ref))
            if not np.isfinite(err) or err > SPMV_REL_TOL * scale:
                wrong += 1
        elif bitwise:
            out, _ = ctx.solve_multi(x[:, None], rtol=c.request.rtol)
            if not np.array_equal(c.value, out["x"][:, 0]):
                wrong += 1
        else:
            rel = float(ctx.residuals(x[:, None], c.value[:, None])[0])
            if not np.isfinite(rel) or rel > max(10 * c.request.rtol, 1e-8):
                wrong += 1
    return wrong, ref


# ----------------------------------------------------------------------------
# the standard suite
# ----------------------------------------------------------------------------

def suite_workloads(seed: int, smoke: bool = True) -> tuple[Workload, ...]:
    """The three standard scenarios: a clean open-loop burst (batching +
    cache churn + cancellations), a wide-batch open-loop burst
    (``max_batch=16`` so ``auto`` crosses into the BLAS3 GEMM mode —
    and its answers still verify against the oracle reference), and a
    fault-injected closed loop (degradation, retries, deadline shedding —
    and still zero wrong answers)."""
    scale = 1 if smoke else 3
    keys = (
        ProblemKey(problem="poisson", nel=4, n_parts=4, etype="tet4", seed=1),
        ProblemKey(problem="poisson", nel=5, n_parts=4, etype="tet4", seed=2),
    )
    # a third key over-subscribes the capacity-2 cache (LRU churn)
    keys_churn = keys + (
        ProblemKey(problem="poisson", nel=4, n_parts=4, etype="hex8"),
    )
    clean = Workload(
        name="open-clean",
        keys=keys_churn,
        arrival="open",
        n_requests=40 * scale,
        rate_rps=20000.0,
        solve_frac=0.3,
        cancel_frac=0.08,
        max_batch=6,
        cache_capacity=2,
    )
    # wide batches: one hot key, arrivals far faster than service, so the
    # queue backs up and the batcher forms (close to) max_batch-wide
    # batches — k >= DEFAULT_K_MIN lands on the GEMM path, which the
    # post-run verification still checks against the fault-free oracle
    # reference (SPMV_REL_TOL has ~6 decades of headroom over the
    # gemm-vs-oracle rounding difference)
    gemm = Workload(
        name="open-gemm",
        keys=keys[:1],
        arrival="open",
        n_requests=48 * scale,
        rate_rps=100000.0,
        solve_frac=0.25,
        max_batch=16,
        queue_capacity=64,
        cache_capacity=2,
    )
    plan = FaultPlan(
        rules=(
            Delay(2e-4, tag=SCATTER_TAG, jitter=1e-4),
            Drop(src=0, dst=1, tag=SCATTER_TAG, times=1),
            Corrupt("nan", src=1, dst=2, tag=SCATTER_TAG, skip=3, times=2),
            Straggler(2, 2.0),
        ),
        seed=seed + 7,
        checksums=True,
    )
    faulted = Workload(
        name="closed-faulted",
        keys=keys,
        arrival="closed",
        n_requests=24 * scale,
        n_clients=6,
        think_s=0.002,
        solve_frac=0.3,
        deadline_s=0.01,
        max_batch=4,
        cache_capacity=2,
        faults=plan,
    )
    return (clean, gemm, faulted)


def run_serve_suite(
    seed: int = 1234,
    smoke: bool = True,
    verbose: bool = True,
    k_min: int | None = None,
    tuned=None,
) -> tuple[dict[str, Any], dict[str, Any]]:
    """Run the standard scenarios; returns ``(serve_doc, bench_doc)``."""
    doc = new_doc(
        SERVE_SCHEMA, {"seed": seed, "smoke": smoke, "k_min": k_min},
        scenarios=[],
    )
    for w in suite_workloads(seed, smoke=smoke):
        if verbose:
            print(f"[serve] scenario {w.name} ...", flush=True)
        sc = run_workload(w, seed=seed, k_min=k_min, tuned=tuned)
        doc["scenarios"].append(sc)
        if verbose:
            lat = sc["latency_s"].get("all", {})
            modes = ", ".join(
                f"{m}:{v}" for m, v in sorted(sc["modes"].items())
            ) or "-"
            print(
                f"[serve]   {sc['requests']['completed']}/"
                f"{sc['requests']['submitted']} ok, "
                f"p50 {lat.get('p50', 0) * 1e3:.3f} ms, "
                f"p99 {lat.get('p99', 0) * 1e3:.3f} ms, "
                f"hit rate {sc['cache']['hit_rate']:.2f}, "
                f"modes [{modes}], "
                f"wrong {sc['requests']['wrong_answers']}"
            )
    return doc, bench_projection("serve", doc, _BENCH_COUNTERS)


#: request counters exported to the bench doc — only ones that are robust
#: to cross-version numeric drift (per-split queueing counters can shift
#: when a latency moves by one CG iteration)
_BENCH_COUNTERS = ("submitted", "completed", "failed", "wrong_answers")


def bench_projection(
    suite: str,
    doc: dict[str, Any],
    counters: tuple[str, ...],
    tail: bool = False,
) -> dict[str, Any]:
    """Project a serve or shard report onto the standard bench schema so
    the ``repro.obs.compare`` gate applies unchanged.

    Each scenario becomes result ``<suite>-<scenario>`` with one
    ``<suite>.latency.<kind>`` phase per latency summary (median = p50,
    plus p95/p99) and a ``<suite>.makespan`` phase; ``tail`` adds the p99
    as its own ``….p99`` phase, which puts the tail directly under the
    phase budget.  ``counters`` name the ``requests`` tallies exported as
    ``<suite>.<name>``.
    """
    results = []
    for sc in doc["scenarios"]:
        phases = {}
        for kind, summ in sc["latency_s"].items():
            phases[f"{suite}.latency.{kind}"] = {
                "median": summ["p50"],
                "min": summ["min"],
                "max": summ["max"],
                "repeats": summ["n"],
                "p95": summ["p95"],
                "p99": summ["p99"],
            }
            if tail:
                phases[f"{suite}.latency.{kind}.p99"] = point_phase(
                    summ["p99"], summ["n"]
                )
        phases[f"{suite}.makespan"] = point_phase(sc["makespan_s"])
        results.append({
            "case": f"{suite}-{sc['scenario']}",
            "method": suite,
            "n_parts": sc["n_parts"],
            "n_dofs": sc["n_dofs"],
            "phases": phases,
            "counters": {
                f"{suite}.{name}": sc["requests"][name] for name in counters
            },
        })
    return new_doc(
        BENCH_SCHEMA, doc["config"], suite=suite, repeats=1, results=results
    )


def gate(doc: dict[str, Any]) -> list[str]:
    """Serve gate: no scenario delivered a wrong answer."""
    wrong = sum(sc["requests"]["wrong_answers"] for sc in doc["scenarios"])
    return [f"{wrong} wrong answer(s)"] if wrong else []


def main(argv: list[str] | None = None) -> int:
    ap = harness_parser(
        "serve",
        "Closed-loop load harness for the batched solver service; emits "
        "SERVE_report.json (+ BENCH_serve.json for the compare gate)",
        out="SERVE_report.json",
        bench_out="BENCH_serve.json",
    )
    ap.add_argument(
        "--k-min",
        type=int,
        default=None,
        help="auto-mode GEMM crossover (default: kernels DEFAULT_K_MIN)",
    )
    ap.add_argument(
        "--tuned-from",
        type=pathlib.Path,
        default=None,
        metavar="TUNED_CONFIG_JSON",
        help="load an autotuner artifact (tuned_config.json, "
        "TUNE_report.json or a kernels bench doc) and apply its service "
        "knobs + SELL (C, sigma) defaults (--k-min wins for the GEMM "
        "crossover)",
    )
    args = ap.parse_args(argv)

    tuned = install_tuned(args.tuned_from, "serve", args.quiet)
    doc, bench = run_serve_suite(
        seed=args.seed, smoke=args.smoke, verbose=not args.quiet,
        k_min=args.k_min, tuned=tuned,
    )
    return emit(
        "serve", [(args.out, doc), (args.bench_out, bench)], gate, args.quiet
    )


if __name__ == "__main__":
    sys.exit(main())
