"""Report-document schemas: versioning, machine fingerprint, validation.

Every harness writes JSON documents (``BENCH_*.json``, ``*_report.json``,
``tuned_config.json``) whose shape is versioned by a ``schema`` id and
declared once, in :data:`SCHEMAS`: a table of per-schema rules that the
single :func:`validate` walks, keyed on ``doc["schema"]``.  The bench
schema is the one the CI perf gate (:mod:`repro.obs.compare`) exchanges
between runs: a flat list of ``(case, method)`` results, each with
per-phase statistics over repeats and summed counters.
"""

from __future__ import annotations

import os
import platform
import socket
import time
from typing import Any

__all__ = [
    "ADAPT_SCHEMA",
    "BENCH_SCHEMA",
    "CHAOS_SCHEMA",
    "SCHEMAS",
    "SERVE_SCHEMA",
    "SHARD_SCHEMA",
    "TUNE_CONFIG_SCHEMA",
    "TUNE_SCHEMA",
    "SchemaError",
    "machine_fingerprint",
    "new_doc",
    "result_key",
    "validate",
]

#: Schema identifier; bump the trailing integer on breaking changes.
BENCH_SCHEMA = "repro.bench/1"

#: Chaos-report schema (``CHAOS_report.json`` written by
#: ``python -m repro.harness chaos``).
CHAOS_SCHEMA = "repro.chaos/1"

#: Serve-report schema (``SERVE_report.json`` written by
#: ``python -m repro.harness serve``).  v2 adds the per-scenario
#: ``modes`` histogram (execution mode each dispatched batch ran under:
#: oracle / gemm / degraded).
SERVE_SCHEMA = "repro.serve/2"

#: Shard-report schema (``SHARD_report.json`` written by
#: ``python -m repro.harness shard``): the sharded-tier counterpart of
#: the serve report, adding per-shard utilization, replication state,
#: per-tenant stats and failover counts.
SHARD_SCHEMA = "repro.shard/1"

#: Tune-report schema (``TUNE_report.json`` written by
#: ``python -m repro.harness tune``): the autotuner's full record —
#: declarative search space, seeded search trajectory, Pareto set over
#: (throughput, p99, memory), calibrated machine constants, and the
#: winning config for the machine profile.  Bit-reproducible given the
#: seed and the calibration inputs (modulo ``created_unix``/``machine``).
TUNE_SCHEMA = "repro.tune/1"

#: Tuned-config artifact schema (``tuned_config.json``): the small
#: loadable distillation of a tune run — one flat knob→value config plus
#: the calibrated constants — consumed by ``SolverService`` and the
#: benches through :func:`repro.tune.calibration.load_tuned_config`.
TUNE_CONFIG_SCHEMA = "repro.tune-config/1"

#: Adapt-report schema (``ADAPT_report.json`` written by
#: ``python -m repro.harness adapt``): incremental-update scenarios —
#: per-scenario delta accounting (patches vs rebuilds), differential
#: verification tallies (delta-updated vs freshly built, bitwise) and the
#: modeled cost comparison delta / full rebuild / CSR reassembly.
ADAPT_SCHEMA = "repro.adapt/1"


class SchemaError(ValueError):
    """A report document does not conform to its declared schema."""


def machine_fingerprint() -> dict[str, Any]:
    """Identify the machine a bench document was produced on."""
    import numpy
    import scipy

    return {
        "hostname": socket.gethostname(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "cpu_count": os.cpu_count() or 1,
    }


def new_doc(
    schema: str, config: dict[str, Any] | None = None, **body: Any
) -> dict[str, Any]:
    """A report document: the shared header (schema id, creation stamp,
    machine fingerprint, run config) plus the schema's ``body`` fields,
    e.g. ``new_doc(SERVE_SCHEMA, cfg, scenarios=[])``."""
    return {
        "schema": schema,
        "created_unix": time.time(),
        "machine": machine_fingerprint(),
        "config": dict(config or {}),
        **body,
    }


def result_key(res: dict[str, Any]) -> str:
    """Stable identity of one result row: ``case/method``."""
    return f"{res['case']}/{res['method']}"


# ----------------------------------------------------------------------------
# the schema table
# ----------------------------------------------------------------------------
#
# A rule is ``(path, kind, required_keys)`` with an optional fourth item
# ``when(parent) -> bool`` that limits it to some nodes.  ``path`` is
# dotted from the document root ("" is the root itself); a ``[]`` suffix
# visits every element of a list, ``{}`` every value of an object.  Rules
# run in order, so a container's rule precedes the rules inside it.

_KINDS = {
    "an object": lambda v: isinstance(v, dict),
    "a list": lambda v: isinstance(v, list),
    "a non-empty object": lambda v: isinstance(v, dict) and bool(v),
    "a non-empty list": lambda v: isinstance(v, list) and bool(v),
    "an object or null": lambda v: v is None or isinstance(v, dict),
}

_HEADER = ("machine", "config", "scenarios")
_CACHE = ("hits", "misses", "evictions", "hit_rate")
_LATENCY = ("p50", "p95", "p99", "mean", "min", "max", "n")
_OBJECTIVES = ("throughput_rps", "p99_s", "mem_bytes")


def _completed(scenario: dict[str, Any]) -> bool:
    return bool(scenario["requests"]["completed"])


#: latency rules shared by the serve and shard reports: the ``all``
#: summary is required as soon as any request completed
_LATENCY_RULES = (
    ("scenarios[].latency_s", "an object", ()),
    ("scenarios[].latency_s", "an object", ("all",), _completed),
    ("scenarios[].latency_s{}", "an object", _LATENCY),
)

SCHEMAS: dict[str, tuple[tuple, ...]] = {
    BENCH_SCHEMA: (
        ("", "an object", ("suite", "repeats", "machine", "results")),
        ("results", "a list", ()),
        ("results[]", "an object",
         ("case", "method", "n_parts", "n_dofs", "phases", "counters")),
        ("results[].phases", "an object", ()),
        ("results[].phases{}", "an object",
         ("median", "min", "max", "repeats")),
        ("results[].counters", "an object", ()),
    ),
    CHAOS_SCHEMA: (
        ("", "an object", _HEADER),
        ("scenarios", "a list", ()),
        ("scenarios[]", "an object",
         ("scenario", "ok", "failures", "plan", "counters", "iterations",
          "restarts", "rel_err")),
        ("scenarios[].counters", "an object", ()),
        ("scenarios[].failures", "a list", ()),
    ),
    SERVE_SCHEMA: (
        ("", "an object", _HEADER),
        ("scenarios", "a list", ()),
        ("scenarios[]", "an object",
         ("scenario", "workload", "requests", "latency_s", "throughput_rps",
          "makespan_s", "batch_histogram", "cache", "counters", "modes")),
        ("scenarios[].modes", "an object", ()),
        ("scenarios[].requests", "an object",
         ("submitted", "completed", "rejected", "shed_deadline", "cancelled",
          "failed", "wrong_answers")),
        *_LATENCY_RULES,
        ("scenarios[].batch_histogram", "an object", ()),
        ("scenarios[].cache", "an object", _CACHE),
        ("scenarios[].counters", "an object", ()),
    ),
    SHARD_SCHEMA: (
        ("", "an object", _HEADER),
        ("scenarios", "a list", ()),
        ("scenarios[]", "an object",
         ("scenario", "workload", "n_shards", "requests", "latency_s",
          "throughput_rps", "makespan_s", "shards", "utilization",
          "replication", "tenants", "batch_histogram", "modes", "counters")),
        ("scenarios[].requests", "an object",
         ("submitted", "completed", "rejected", "shed_tenant",
          "shed_deadline", "spilled", "failed", "failovers",
          "wrong_answers")),
        *_LATENCY_RULES,
        ("scenarios[].shards", "a non-empty object", ()),
        ("scenarios[].shards{}", "an object",
         ("utilization", "busy_s", "dispatches", "alive", "cache")),
        ("scenarios[].shards{}.cache", "an object", _CACHE),
        ("scenarios[].utilization", "an object",
         ("mean", "min", "max", "peak_to_mean")),
        ("scenarios[].replication", "an object",
         ("keys_seen", "replicated_keys", "replication_factor")),
        ("scenarios[].tenants", "an object", ()),
        ("scenarios[].batch_histogram", "an object", ()),
        ("scenarios[].modes", "an object", ()),
        ("scenarios[].counters", "an object", ()),
    ),
    ADAPT_SCHEMA: (
        ("", "an object", _HEADER),
        ("scenarios", "a list", ()),
        ("scenarios[]", "an object",
         ("scenario", "method", "n_parts", "n_dofs", "steps", "deltas",
          "verify", "costs", "cache", "steps_detail", "counters")),
        ("scenarios[].deltas", "an object",
         ("applied", "patches", "rebuilds", "touched_total", "max_fraction")),
        ("scenarios[].verify", "an object",
         ("checks", "bitwise", "wrong_answers")),
        ("scenarios[].costs", "an object",
         ("delta_s", "rebuild_s", "reassembly_s", "speedup_vs_rebuild")),
        ("scenarios[].cache", "an object", _CACHE),
        ("scenarios[].steps_detail", "a list", ()),
        ("scenarios[].counters", "an object", ()),
    ),
    TUNE_SCHEMA: (
        ("", "an object",
         ("machine", "config", "space", "calibrated", "trajectory",
          "evaluations", "cache_hits", "pareto", "default", "winner",
          "machine_profile")),
        ("space", "a non-empty list", ()),
        ("space[]", "an object", ("name", "values", "default")),
        ("trajectory", "a non-empty list", ()),
        ("trajectory[]", "an object",
         ("step", "strategy", "fingerprint", "config", "objectives", "score",
          "cached")),
        ("trajectory[].objectives", "an object", _OBJECTIVES),
        ("pareto", "a non-empty list", ()),
        ("pareto[]", "an object", ("fingerprint", "config", "objectives")),
        ("pareto[].objectives", "an object", _OBJECTIVES),
        ("default", "an object",
         ("fingerprint", "config", "objectives", "metrics", "score")),
        ("winner", "an object",
         ("fingerprint", "config", "objectives", "metrics", "score")),
        ("calibrated", "an object or null", ()),
    ),
    TUNE_CONFIG_SCHEMA: (
        ("", "an object", ("config", "source")),
        ("config", "an object", ()),
    ),
}


def _walk(node: Any, path: str, where: str = "", parent: Any = None):
    """Yield ``(where, node, parent)`` for every node ``path`` selects."""
    if not path:
        yield where or "doc", node, parent
        return
    seg, _, rest = path.partition(".")
    name = seg.rstrip("[]{}")
    each = seg[len(name):]
    here = f"{where}.{name}" if where else name
    if not isinstance(node, dict) or name not in node:
        raise SchemaError(f"{where or 'doc'} missing key {name!r}")
    child = node[name]
    if each == "[]":
        if not isinstance(child, list):
            raise SchemaError(f"{here} must be a list")
        items = [(f"{here}[{i}]", v) for i, v in enumerate(child)]
    elif each == "{}":
        if not isinstance(child, dict):
            raise SchemaError(f"{here} must be an object")
        items = [(f"{here}[{k!r}]", v) for k, v in child.items()]
    else:
        items = [(here, child)]
    for w, v in items:
        yield from _walk(v, rest, w, node)


def validate(doc: Any, schema: str | None = None) -> dict[str, Any]:
    """Validate a parsed report against the rules of its ``schema`` id
    (which must equal ``schema`` when given); returns it on success.

    Raises :class:`SchemaError` naming the offending path otherwise.
    """
    if not isinstance(doc, dict):
        raise SchemaError(f"report must be an object, got {type(doc).__name__}")
    sid = doc.get("schema")
    if sid not in SCHEMAS or (schema is not None and sid != schema):
        expected = schema or ", ".join(sorted(SCHEMAS))
        raise SchemaError(f"unsupported schema {sid!r} (expected {expected})")
    for path, kind, keys, *when in SCHEMAS[sid]:
        for where, node, parent in _walk(doc, path):
            if when and not when[0](parent):
                continue
            if not _KINDS[kind](node):
                raise SchemaError(f"{where} must be {kind}")
            for key in keys:
                if key not in node:
                    raise SchemaError(f"{where} missing key {key!r}")
    return doc
