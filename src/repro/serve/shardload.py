"""Zipf multi-tenant load harness: ``python -m repro.harness shard``.

Drives a :class:`~repro.serve.shard.ShardCluster` with a seeded open-loop
workload whose *key* and *tenant* popularity both follow (finite) Zipf
distributions — the classic shape of multi-tenant traffic, where a few
hot operators and a few heavy tenants dominate.  Everything runs in
virtual time, so "millions of users" compress into a deterministic
discrete-event simulation: latencies, utilization and failover counts are
pure functions of the seed and the code path, comparable across machines.

Every delivered answer is re-checked after the run against a fresh,
fault-free **single-node** reference cache — the same solver stack with
no sharding, no replication, no failover.  Scenarios that run the bitwise
per-column oracle mode check spmv *and* solve results with
``np.array_equal`` (sharding must be invisible down to the last bit, even
across a shard kill); auto-mode scenarios use the same tolerance contract
as the serve harness (GEMM batches answer at rounding-level agreement).
Any miss counts as a ``wrong_answer`` — gated to exactly zero in CI.

Alongside ``SHARD_report.json`` (schema ``repro.shard/1``) the harness
writes a ``BENCH_shard.json`` projection for the ``repro.obs.compare``
gate: p50 and p99 latency as gated phases, plus robust request counters
and the per-shard utilization peak-to-mean skew.
"""

from __future__ import annotations

import heapq
import pathlib
import sys
from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.faults.shard import ShardFaultPlan, ShardKill
from repro.obs.instrumentation import Instrumentation, percentile_summary
from repro.obs.report import emit, harness_parser, install_tuned
from repro.obs.schema import SHARD_SCHEMA, new_doc
from repro.serve.batcher import BatchPolicy, DeadlineBatcher
from repro.serve.cache import OperatorCache, ProblemKey
from repro.serve.loadgen import bench_projection, verify_answers
from repro.serve.queue import ServeRequest
from repro.serve.service import SolverService
from repro.serve.shard import ShardCluster, ShardRouter
from repro.simmpi.cluster import VirtualCluster

__all__ = [
    "ShardWorkload",
    "build_cluster",
    "gate",
    "run_shard_workload",
    "run_shard_suite",
    "shard_suite_workloads",
    "main",
]


def zipf_weights(n: int, s: float) -> np.ndarray:
    """Normalized finite Zipf pmf over ranks ``1..n`` with exponent ``s``."""
    if n < 1:
        raise ValueError(f"zipf_weights: n must be >= 1, got {n}")
    w = 1.0 / np.arange(1, n + 1, dtype=np.float64) ** s
    return w / w.sum()


@dataclass(frozen=True)
class ShardWorkload:
    """One seeded sharded-serving scenario."""

    name: str
    keys: tuple[ProblemKey, ...]
    n_shards: int = 4
    n_tenants: int = 8
    zipf_s: float = 1.1  # key-popularity skew exponent
    tenant_zipf_s: float = 1.0  # tenant-traffic skew exponent
    n_requests: int = 96
    rate_rps: float = 20000.0  # open-loop mean arrival rate (virtual req/s)
    solve_frac: float = 0.25
    rtol: float = 1e-6
    deadline_s: float | None = None
    max_batch: int = 8
    queue_capacity: int = 16
    cache_capacity: int = 3
    tenant_quota: int | None = None  # per-tenant outstanding-work cap
    hot_threshold: int = 12
    max_replicas: int = 1
    vnodes: int = 64
    mode: str = "auto"
    k_min: int | None = None
    shard_faults: ShardFaultPlan | None = None
    verify: str = "tolerance"  # "tolerance" | "bitwise"

    def describe(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "n_shards": self.n_shards,
            "n_tenants": self.n_tenants,
            "zipf_s": self.zipf_s,
            "tenant_zipf_s": self.tenant_zipf_s,
            "n_requests": self.n_requests,
            "rate_rps": self.rate_rps,
            "solve_frac": self.solve_frac,
            "rtol": self.rtol,
            "deadline_s": self.deadline_s,
            "max_batch": self.max_batch,
            "queue_capacity": self.queue_capacity,
            "cache_capacity": self.cache_capacity,
            "tenant_quota": self.tenant_quota,
            "hot_threshold": self.hot_threshold,
            "max_replicas": self.max_replicas,
            "vnodes": self.vnodes,
            "mode": self.mode,
            "k_min": self.k_min,
            "verify": self.verify,
            "keys": [k.fingerprint() for k in self.keys],
            "shard_faults": (
                self.shard_faults.describe() if self.shard_faults else None
            ),
        }


def build_cluster(
    w: ShardWorkload, k_min: int | None = None
) -> tuple[ShardCluster, VirtualCluster, Instrumentation]:
    """Materialize the cluster a workload describes: one
    :class:`SolverService` (own cache, own instrumentation, deadline
    batcher) per shard, wired through a :class:`ShardRouter` and
    registered on a :class:`VirtualCluster` for per-shard busy-time
    accounting."""
    obs = Instrumentation(rank=-1)
    vcluster = VirtualCluster()
    shard_ids = [f"s{i}" for i in range(w.n_shards)]
    router = ShardRouter(
        shard_ids,
        vnodes=w.vnodes,
        hot_threshold=w.hot_threshold,
        max_replicas=w.max_replicas,
    )
    services = {}
    for sid in shard_ids:
        cache = OperatorCache(
            capacity=w.cache_capacity,
            obs=Instrumentation(rank=-1),
            cluster=vcluster,
            cluster_name=sid,
        )
        services[sid] = SolverService(
            cache,
            queue_capacity=w.queue_capacity,
            mode=w.mode,
            k_min=w.k_min if w.k_min is not None else k_min,
            batcher=DeadlineBatcher(BatchPolicy(w.max_batch)),
        )
    cluster = ShardCluster(
        router,
        services,
        obs=obs,
        tenant_quota=w.tenant_quota,
        shard_faults=w.shard_faults,
    )
    return cluster, vcluster, obs


def run_shard_workload(
    w: ShardWorkload, seed: int = 1234, k_min: int | None = None
) -> dict[str, Any]:
    """Simulate one scenario; returns a schema-conforming scenario dict."""
    cluster, vcluster, obs = build_cluster(w, k_min=k_min)
    rng = np.random.default_rng(seed)
    key_p = zipf_weights(len(w.keys), w.zipf_s)
    tenant_p = zipf_weights(w.n_tenants, w.tenant_zipf_s)

    # pre-drawn Poisson arrival process with Zipf key/tenant marks
    arrivals: list[tuple[float, ServeRequest]] = []
    t = 0.0
    for rid in range(w.n_requests):
        t += float(rng.exponential(1.0 / w.rate_rps))
        key = w.keys[int(rng.choice(len(w.keys), p=key_p))]
        tenant = f"t{int(rng.choice(w.n_tenants, p=tenant_p))}"
        kind = "solve" if rng.random() < w.solve_frac else "spmv"
        arrivals.append((
            t,
            ServeRequest(
                rid=rid,
                key=key,
                kind=kind,
                seed=int(seed * 100003 + rid),
                arrival=t,
                deadline=(
                    t + w.deadline_s if w.deadline_s is not None else None
                ),
                rtol=w.rtol,
                tenant=tenant,
            ),
        ))
    heapq.heapify(arrivals)

    completions: list = []
    latency: dict[str, list[float]] = {"all": [], "spmv": [], "solve": []}
    tenant_counts: dict[str, dict[str, int]] = {}
    now = 0.0
    makespan = 0.0

    def tcount(tenant: str, field: str) -> None:
        rec = tenant_counts.setdefault(
            tenant, {"submitted": 0, "completed": 0}
        )
        rec[field] += 1

    while arrivals or cluster.pending:
        while arrivals and arrivals[0][0] <= now:
            _, req = heapq.heappop(arrivals)
            tcount(req.tenant, "submitted")
            cluster.submit(req, now)
        for disp in cluster.step(now):
            for c in disp.outcome.completions:
                if c.status == "ok":
                    lat = disp.end - c.request.arrival
                    latency["all"].append(lat)
                    latency[c.request.kind].append(lat)
                    tcount(c.request.tenant, "completed")
                    completions.append(c)
            makespan = max(makespan, disp.end)
        candidates = []
        if arrivals:
            candidates.append(arrivals[0][0])
        wake = cluster.next_wakeup(now)
        if wake > now and wake != float("inf"):
            candidates.append(wake)
        future = [c for c in candidates if c > now]
        if not future:
            if cluster.pending:
                continue  # an idle shard can still drain work at `now`
            break
        now = min(future)
    cluster.advance(makespan)  # late-scheduled fault events still apply

    # oracle-mode scenarios are bitwise per column regardless of the
    # batch a request rode in, so sharding must be invisible down to the
    # last bit against the single-node reference — kill or no kill
    wrong, _ = verify_answers(
        w.keys, completions, bitwise=w.verify == "bitwise"
    )
    obs.incr("shard.wrong_answers", wrong)  # materialize even when 0

    counters = cluster.request_counters()
    counters["shard.wrong_answers"] = int(wrong)
    req_counts = {
        "submitted": counters.get("shard.submitted", 0),
        "completed": counters.get("serve.completed", 0),
        "rejected": (
            counters.get("shard.shed_full", 0)
            + counters.get("shard.failover_shed", 0)
        ),
        "shed_tenant": counters.get("shard.shed_tenant", 0),
        "shed_deadline": counters.get("serve.shed_deadline", 0),
        "spilled": counters.get("shard.spills", 0),
        "failed": counters.get("serve.failed", 0),
        "failovers": counters.get("shard.failovers", 0),
        "wrong_answers": int(wrong),
    }

    util = cluster.utilization(makespan)
    shards = {}
    for sid in cluster.shard_ids():
        sh = cluster.shard_state(sid)
        shards[sid] = {
            "utilization": util[sid],
            "busy_s": sh.busy_s,
            "sim_busy_s": vcluster.busy_vtime(sid),
            "dispatches": sh.dispatches,
            "alive": sh.alive,
            "cache": sh.service.cache.stats(),
        }
    batches, modes = cluster.merged_histograms()
    tenants = {
        t: {
            **tenant_counts.get(t, {"submitted": 0, "completed": 0}),
            **{
                k: v
                for k, v in cluster.tenant_cache_stats().get(t, {}).items()
                if k == "hit_rate"
            },
        }
        for t in sorted(tenant_counts)
    }
    ctx0 = w.keys[0].build_spec()
    return {
        "scenario": w.name,
        "workload": w.describe(),
        "n_shards": w.n_shards,
        "n_parts": ctx0.n_parts,
        "n_dofs": ctx0.n_dofs,
        "requests": req_counts,
        "latency_s": {
            k: percentile_summary(v) for k, v in latency.items() if v
        },
        "throughput_rps": (
            req_counts["completed"] / makespan if makespan > 0 else 0.0
        ),
        "makespan_s": makespan,
        "shards": shards,
        "utilization": cluster.utilization_summary(makespan),
        "replication": cluster.router.replication_report(),
        "tenants": tenants,
        "batch_histogram": {str(k): v for k, v in sorted(batches.items())},
        "modes": dict(sorted(modes.items())),
        "counters": counters,
    }


# ----------------------------------------------------------------------------
# the standard suite
# ----------------------------------------------------------------------------

def _catalog(n: int) -> tuple[ProblemKey, ...]:
    """``n`` small distinct operators (2-rank contexts keep builds cheap)."""
    keys = []
    for i in range(n):
        if i % 2:
            keys.append(ProblemKey(
                problem="poisson", nel=3 + (i % 3), n_parts=2, etype="tet4",
                seed=i,
            ))
        else:
            keys.append(ProblemKey(
                problem="poisson", nel=3 + (i // 2) % 2, n_parts=2,
                etype="hex8", seed=i,
            ))
    return tuple(keys)


def shard_suite_workloads(
    seed: int, smoke: bool = True
) -> tuple[ShardWorkload, ...]:
    """The three standard sharded scenarios.

    * ``zipf-hot`` — skewed key popularity over a 4-shard ring: the hot
      head keys cross the replication threshold, spill balances them
      across replicas, and per-shard utilization stays within the gated
      peak-to-mean skew bound;
    * ``tenant-storm`` — heavily skewed tenant traffic against a
      per-tenant quota: the storm tenant is clipped by admission control
      (fair queueing), light tenants keep completing, per-tenant hit
      rates come from the new cache tenant labels;
    * ``shard-kill`` — a shard dies mid-run under the bitwise oracle
      mode: queued work fails over, its keys rebuild (or hit a warm
      replica) on the survivors, and every delivered answer — spmv *and*
      solve — is ``np.array_equal`` to the fault-free single-node
      reference.
    """
    scale = 1 if smoke else 3
    zipf = ShardWorkload(
        name="zipf-hot",
        keys=_catalog(8),
        n_shards=4,
        n_tenants=8,
        zipf_s=1.4,
        tenant_zipf_s=1.0,
        n_requests=96 * scale,
        rate_rps=30000.0,
        solve_frac=0.25,
        max_batch=8,
        queue_capacity=12,
        cache_capacity=3,
        hot_threshold=10,
        max_replicas=2,
    )
    storm = ShardWorkload(
        name="tenant-storm",
        keys=_catalog(6),
        n_shards=4,
        n_tenants=6,
        zipf_s=1.1,
        tenant_zipf_s=1.6,
        n_requests=72 * scale,
        rate_rps=150000.0,
        solve_frac=0.2,
        deadline_s=0.02,
        max_batch=6,
        queue_capacity=10,
        cache_capacity=3,
        tenant_quota=3,
        hot_threshold=12,
        max_replicas=1,
    )
    kill = ShardWorkload(
        name="shard-kill",
        keys=_catalog(4),
        n_shards=4,
        n_tenants=4,
        zipf_s=1.2,
        tenant_zipf_s=1.0,
        n_requests=64 * scale,
        rate_rps=400000.0,
        solve_frac=0.3,
        max_batch=6,
        queue_capacity=32 * scale,  # backlog grows with the request count
        cache_capacity=4,
        hot_threshold=4,  # replicate early so the kill has warm failover
        max_replicas=2,
        mode="oracle",
        verify="bitwise",
        # arrivals outpace service (2.5 us inter-arrival vs tens-of-us
        # dispatches) so every shard holds a backlog; the kill lands mid
        # arrival window and s1's queued work must fail over.
        shard_faults=ShardFaultPlan(kills=(ShardKill("s1", at=1.0e-4),)),
    )
    return (zipf, storm, kill)


def run_shard_suite(
    seed: int = 1234,
    smoke: bool = True,
    verbose: bool = True,
    k_min: int | None = None,
) -> tuple[dict[str, Any], dict[str, Any]]:
    """Run the standard scenarios; returns ``(shard_doc, bench_doc)``."""
    doc = new_doc(
        SHARD_SCHEMA, {"seed": seed, "smoke": smoke, "k_min": k_min},
        scenarios=[],
    )
    for w in shard_suite_workloads(seed, smoke=smoke):
        if verbose:
            print(f"[shard] scenario {w.name} ...", flush=True)
        sc = run_shard_workload(w, seed=seed, k_min=k_min)
        doc["scenarios"].append(sc)
        if verbose:
            lat = sc["latency_s"].get("all", {})
            print(
                f"[shard]   {sc['requests']['completed']}/"
                f"{sc['requests']['submitted']} ok over "
                f"{sc['n_shards']} shards, "
                f"p50 {lat.get('p50', 0) * 1e3:.3f} ms, "
                f"p99 {lat.get('p99', 0) * 1e3:.3f} ms, "
                f"skew {sc['utilization']['peak_to_mean']:.2f}, "
                f"repl x{sc['replication']['replication_factor']:.2f}, "
                f"failovers {sc['requests']['failovers']}, "
                f"wrong {sc['requests']['wrong_answers']}"
            )
    bench = bench_projection("shard", doc, _BENCH_COUNTERS, tail=True)
    # the utilization skew rides as an integer-percent counter
    for sc, res in zip(doc["scenarios"], bench["results"]):
        res["counters"]["shard.util_peak_to_mean_pct"] = int(
            round(100 * sc["utilization"]["peak_to_mean"])
        )
    return doc, bench


#: request counters exported to the bench doc — the deterministic ones
#: (per-split queueing counters shift when one latency moves by one CG
#: iteration across numpy versions; these stay put or are gated hard)
_BENCH_COUNTERS = ("submitted", "completed", "failed", "wrong_answers",
                   "failovers")

#: the standard suite spreads every scenario over at least this many shards
MIN_SHARDS = 4


def gate(doc: dict[str, Any], max_skew: float | None = None) -> list[str]:
    """Shard gate: no wrong answer, a kill scenario that exercised
    failover, every scenario on >= :data:`MIN_SHARDS` shards and, with
    ``max_skew``, per-shard utilization peak-to-mean within the bound."""
    scenarios = doc["scenarios"]
    failures = []
    wrong = sum(sc["requests"]["wrong_answers"] for sc in scenarios)
    if wrong:
        failures.append(f"{wrong} wrong answer(s)")
    kills = [sc for sc in scenarios if sc["counters"].get("shard.kills")]
    if not kills or not all(sc["requests"]["failovers"] > 0 for sc in kills):
        failures.append("kill scenario exercised no failover")
    for sc in scenarios:
        if sc["n_shards"] < MIN_SHARDS:
            failures.append(
                f"{sc['scenario']} runs on {sc['n_shards']} shards "
                f"(< {MIN_SHARDS})"
            )
        skew = sc["utilization"]["peak_to_mean"]
        if max_skew is not None and skew > max_skew:
            failures.append(
                f"{sc['scenario']} utilization peak-to-mean {skew:.2f} "
                f"> bound {max_skew:.2f}"
            )
    return failures


def main(argv: list[str] | None = None) -> int:
    ap = harness_parser(
        "shard",
        "Zipf multi-tenant load harness for the sharded solver tier; "
        "emits SHARD_report.json (+ BENCH_shard.json for the compare gate)",
        out="SHARD_report.json",
        bench_out="BENCH_shard.json",
    )
    ap.add_argument(
        "--max-skew",
        type=float,
        default=None,
        metavar="PEAK_TO_MEAN",
        help="fail when any scenario's per-shard utilization peak-to-mean "
        "ratio exceeds this bound (1.0 = perfectly balanced)",
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
        "TUNE_report.json or a kernels bench doc) and apply its GEMM "
        "crossover + SELL (C, sigma) defaults (--k-min wins)",
    )
    args = ap.parse_args(argv)

    tuned = install_tuned(args.tuned_from, "shard", args.quiet)
    k_min = args.k_min
    if k_min is None and tuned is not None and tuned.get("gemm_k_min") is not None:
        k_min = int(tuned.get("gemm_k_min"))

    doc, bench = run_shard_suite(
        seed=args.seed, smoke=args.smoke, verbose=not args.quiet, k_min=k_min
    )
    return emit(
        "shard",
        [(args.out, doc), (args.bench_out, bench)],
        lambda d: gate(d, args.max_skew),
        args.quiet,
    )


if __name__ == "__main__":
    sys.exit(main())
