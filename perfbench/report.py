"""Metrics and printed tables of one benchmark run.

End-to-end metrics (``--trace 0``) exist on every workload; what
``setup_s``, ``op_ms`` and ``inner_ms`` time depends on the workload's
operation (``perfbench/README.md`` has the table).  Timings are medians;
``peak_rss_mb`` is the process's peak resident set.  The printed table
adds the workload-specific names (``solve_s``, ``spmv_ms``,
``serve_rps``, ``serve_p50_ms``, ``serve_p99_ms``, ``adapt_update_ms``,
``adapt_step_ms``), the CSR baseline and ``failed_frac``.

Per-layer metrics (``--trace 1``) come from the traced rounds (every
other round of the run).  Every ``*_ms`` layer metric is milliseconds per
operation of the workload (a mesh, a request, a step), measured on the
critical path; counts are exact and come from the program's public
results.
"""

from __future__ import annotations

from collections import defaultdict

from perfbench.common import Result, median, p99
from perfbench.hooks import LAUNCHER
from perfbench.tracer import Span, attribute, layer_of, span_parents
from perfbench.workloads import N_MESHES

INNER = {"solve-p1": "spmv", "serve-p2": "dispatch", "adapt-p2": "update"}


def named(res: Result, metrics: dict) -> list[tuple[str, float, str, int]]:
    """The generic metrics under their workload-specific names, as
    ``(name, value, unit, samples)``."""
    s, v = res.samples, {k: m["value"] for k, m in metrics.items()}
    if res.workload == "solve-p1":
        return [("solve_s", v["op_ms"] / 1e3 / N_MESHES, "s",
                 len(s["op"]) * N_MESHES),
                ("spmv_ms", v["inner_ms"], "ms", len(s["spmv"]))]
    if res.workload == "serve-p2":
        out = [("serve_rps", res.ops / res.loop_s, "1/s", res.ops),
               ("serve_p50_ms", v["op_ms"], "ms", len(s["op"]))]
        tail = p99(s["op"])
        if tail is not None:
            out.append(("serve_p99_ms", tail * 1e3, "ms", len(s["op"])))
        return out
    return [("adapt_update_ms", v["inner_ms"], "ms", len(s["update"])),
            ("adapt_step_ms", v["op_ms"], "ms", len(s["op"]))]


def _m(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def end_to_end(res: Result, rss_mb: float) -> dict:
    s = res.samples
    return {
        "setup_s": _m(median(s["setup"]), "s"),
        "op_ms": _m(median(s["op"]) * 1e3, "ms"),
        "inner_ms": _m(median(s[INNER[res.workload]]) * 1e3, "ms"),
        "peak_rss_mb": _m(rss_mb, "MB"),
    }


def result_doc(res: Result, metrics: dict) -> dict:
    """The JSON object printed as the last output line."""
    return {"correct": res.failed == 0 and res.attempted > 0,
            "attempted": res.attempted, "failed": res.failed,
            "metrics": metrics}


def record(res: Result, doc: dict, seed: int, info: dict) -> dict:
    """The full result of one run, machine facts included."""
    return {
        "workload": res.workload,
        "seed": seed,
        "machine": info,
        **doc,
        "samples": {
            name: {"n": len(xs), "median": median(xs), "p99": p99(xs)}
            for name, xs in res.samples.items()
        },
        "counts": res.counts,
        "info": res.info,
    }


def _header(res: Result, seed: int, info: dict, what: str) -> list[str]:
    return [
        f"== {res.workload}  seed {seed}  {what}",
        "   machine: " + ", ".join(
            f"{k}={info[k]}" for k in ("nproc", "L2", "L3", "rank_threads",
                                       "blas_threads", "python", "numpy")
            if k in info
        ),
    ]


def end_to_end_table(res: Result, metrics: dict, seed: int, info: dict) -> str:
    s = res.samples
    n = {"setup_s": len(s["setup"]), "op_ms": len(s["op"]),
         "inner_ms": len(s[INNER[res.workload]]), "peak_rss_mb": 1}
    lines = _header(res, seed, info, f"{res.ops} operations in "
                    f"{res.loop_s:.1f} s")
    rows = [(k, m["value"], m["unit"], n[k]) for k, m in metrics.items()]
    rows += named(res, metrics)
    csr = median(s.get("csr_spmv", [])) * 1e3
    if csr:
        rows.append(("csr_spmv_ms (baseline)", csr, "ms", len(s["csr_spmv"])))
    rows.append(("failed_frac", res.failed / max(res.attempted, 1), "",
                 res.attempted))
    for name, value, unit, count in rows:
        lines.append(f"   {name:<24} {value:14.4f} {unit:<4}  n={count}")
    if csr:
        lines.append(f"   spmv_ms / csr_spmv_ms = "
                     f"{metrics['inner_ms']['value'] / csr:.2f} "
                     "(base: scipy CSR `assembled` SPMV on the same meshes; "
                     "not gated)")
    return "\n".join(lines)


# ----------------------------------------------------------------------------
# per-layer attribution
# ----------------------------------------------------------------------------

PER_LAYER = (
    "mesh.build_ms", "partition.build_ms", "fem.ke_ms", "fem.ke_elements",
    "core.spmv_self_ms", "core.emv_ms", "core.halo_ms",
    "core.flops_per_spmv", "core.bytes_per_spmv_computed", "core.gflops",
    "simmpi.runs_per_op", "simmpi.run_overhead_ms", "simmpi.wait_ms",
    "simmpi.msgs_per_op", "simmpi.bytes_per_op",
    "solvers.iterations", "solvers.vecops_ms", "solvers.reduce_ms",
    "solvers.precond_ms",
    "serve.queue_wait_ms", "serve.batch_k_mean", "serve.gemm_batch_frac",
    "serve.dispatch_self_ms", "serve.cache_hit_ratio",
    "adapt.localize_ms", "adapt.patch_ms", "adapt.refresh_ms",
    "adapt.touched_elements", "adapt.patch_ratio",
    "baseline.csr_spmv_ms", "baseline.hymv_over_csr",
    "trace.overhead_frac", "unattributed_ms",
)


def split_rounds(res: Result) -> tuple[float, int, float]:
    """``(wall, ops)`` of the traced rounds, and the wall seconds the
    untraced rounds of the same run take for that work: stratum by
    stratum, at the untraced seconds per operation of that stratum (of
    all untraced rounds when the stratum has none)."""
    strata: dict = defaultdict(lambda: [0.0, 0, 0.0, 0])
    for traced, wall, ops, stratum in res.rounds:
        acc = strata[stratum]
        k = 0 if traced else 2
        acc[k] += wall
        acc[k + 1] += ops
    u_wall = sum(a[2] for a in strata.values())
    u_ops = sum(a[3] for a in strata.values())
    wall = sum(a[0] for a in strata.values())
    ops = sum(a[1] for a in strata.values())
    equiv = sum(
        a[1] * (a[2] / a[3] if a[3] else u_wall / max(u_ops, 1))
        for a in strata.values()
    )
    return wall, ops, equiv


def per_layer(res: Result, spans: list[Span], ranks: int):
    """Layer metrics of a traced run: ``spans`` cover its traced rounds.
    Returns ``(metrics, layer_rows)``; rows are self ms per operation."""
    parents = span_parents(spans, LAUNCHER)
    self_by_name, kept = attribute(spans, parents)
    wall, ops, untraced = split_rounds(res)
    ms = 1e3 / ops

    def self_ms(*names: str) -> float:
        return sum(self_by_name.get(n, 0.0) for n in names) * ms

    def incl_ms(name: str, parent: str | None = None,
                ancestor: str | None = None) -> float:
        total = 0.0
        for i in kept:
            if spans[i].name != name:
                continue
            if parent and spans[parents[i]].name != parent:
                continue
            if ancestor and not _has_ancestor(i, ancestor, spans, parents):
                continue
            total += spans[i].dur
        return total * ms

    rows: dict[str, float] = defaultdict(float)
    for name, t in self_by_name.items():
        rows[layer_of(name)] += t * ms
    rows["unattributed"] = wall * ms - sum(rows.values())
    c, info = res.counts, res.info
    emv_s = self_by_name.get("core.emv", 0.0) / ops
    # single SPMV times of the traced rounds (both sides equally traced)
    csr = median(res.samples.get("csr_spmv", []))
    hymv = median(res.samples.get("spmv", []))
    values = {
        "mesh.build_ms": self_ms("mesh.build"),
        "partition.build_ms": self_ms("partition.build"),
        "fem.ke_ms": self_ms("fem.ke"),
        "fem.ke_elements": sum(spans[i].n for i in kept
                               if spans[i].name == "fem.ke") / ops,
        "core.spmv_self_ms": self_ms("core.spmv", "core.apply_owned"),
        "core.emv_ms": self_ms("core.emv"),
        "core.halo_ms": self_ms("core.halo"),
        "core.flops_per_spmv": c.get("flops_per_spmv", 0.0),
        "core.bytes_per_spmv_computed": c.get("bytes_per_spmv_computed", 0.0),
        "core.gflops": (c.get("emv_flops_per_op", 0.0)
                        / ranks / emv_s / 1e9) if emv_s else 0.0,
        "simmpi.runs_per_op": sum(1 for s in spans if s.name == LAUNCHER)
        / ops,
        "simmpi.run_overhead_ms": self_ms("simmpi.run"),
        "simmpi.wait_ms": self_ms("simmpi.wait", "simmpi.collective"),
        "simmpi.msgs_per_op": c.get("msgs_per_op", 0.0),
        "simmpi.bytes_per_op": c.get("bytes_per_op", 0.0),
        "solvers.iterations": c.get("iterations", 0.0),
        "solvers.vecops_ms": self_ms("solvers.cg"),
        "solvers.reduce_ms": incl_ms("simmpi.collective", parent="solvers.cg"),
        "solvers.precond_ms": self_ms("solvers.precond"),
        "serve.queue_wait_ms": median(res.samples.get("queue_wait", [])) * 1e3,
        "serve.batch_k_mean": info.get("batch_k_mean", 0.0),
        "serve.gemm_batch_frac": info.get("gemm_batch_frac", 0.0),
        "serve.dispatch_self_ms": self_ms("serve.dispatch"),
        "serve.cache_hit_ratio": info.get("cache_hit_ratio", 0.0),
        "adapt.localize_ms": incl_ms("adapt.localize"),
        "adapt.patch_ms": incl_ms("adapt.patch"),
        "adapt.refresh_ms": incl_ms("serve.dirichlet_state",
                                    ancestor="adapt.update"),
        "adapt.touched_elements": info.get("touched_elements", 0.0),
        "adapt.patch_ratio": info.get("patch_ratio", 0.0),
        "baseline.csr_spmv_ms": csr * 1e3,
        "baseline.hymv_over_csr": hymv / csr if csr else 0.0,
        "trace.overhead_frac": wall / untraced - 1.0,
        "unattributed_ms": rows["unattributed"],
    }
    units = _layer_units()
    metrics = {name: _m(values[name], units[name]) for name in PER_LAYER}
    return metrics, dict(rows)


def _has_ancestor(i: int, name: str, spans: list[Span],
                  parents: list[int]) -> bool:
    while parents[i] >= 0:
        i = parents[i]
        if spans[i].name == name:
            return True
    return False


def _layer_units() -> dict[str, str]:
    units = {}
    for name in PER_LAYER:
        if name.endswith("_ms"):
            units[name] = "ms"
        elif name.endswith(("_frac", "_ratio", "_mean", "hymv_over_csr")):
            units[name] = "ratio"
        elif name == "core.gflops":
            units[name] = "GFLOP/s"
        elif "bytes" in name:
            units[name] = "bytes"
        elif "flops" in name:
            units[name] = "flop"
        else:
            units[name] = "count"
    return units


def layer_table(res: Result, metrics: dict, rows: dict, seed: int,
                info: dict) -> str:
    wall, ops, untraced = split_rounds(res)
    lines = _header(res, seed, info, f"traced rounds: {ops} of {res.ops} "
                    "operations")
    lines.append(f"   {'layer':<14} {'self ms/op':>12} {'share':>7}")
    total = sum(rows.values())
    for layer, v in sorted(rows.items(), key=lambda kv: -kv[1]):
        lines.append(f"   {layer:<14} {v:12.4f} {v / total:7.1%}")
    lines.append(f"   {'sum':<14} {total:12.4f}   = traced wall per op")
    lines.append(f"   untraced rounds, same work: {untraced * 1e3 / ops:.4f} "
                 f"ms/op; sum / untraced = {wall / untraced:.3f} "
                 "(target 0.9-1.1)")
    for name, m in metrics.items():
        lines.append(f"   {name:<30} {m['value']:14.6g} {m['unit']}")
    return "\n".join(lines)
