"""Unified observability: phase timers, counters, traces, bench gating.

* :mod:`repro.obs.instrumentation` — the per-rank/process registry.
* :mod:`repro.obs.schema` — the versioned report shapes, declared once
  in one rule table and checked by one ``validate``.
* :mod:`repro.obs.report` — the harness CLIs' shared flags and
  validate / write / gate step.
* :mod:`repro.obs.bench` — the CI smoke-bench suite (``python -m
  repro.harness bench``).
* :mod:`repro.obs.compare` — the perf gate (``python -m repro.obs.compare
  baseline.json candidate.json``).
"""

from repro.obs.instrumentation import (
    Instrumentation,
    PhaseStats,
    TraceEvent,
    get_instrumentation,
    merge_snapshots,
    percentile,
    percentile_summary,
    reset_instrumentation,
)
from repro.obs.schema import (
    BENCH_SCHEMA,
    CHAOS_SCHEMA,
    SERVE_SCHEMA,
    SchemaError,
    machine_fingerprint,
    validate,
)

__all__ = [
    "Instrumentation",
    "PhaseStats",
    "TraceEvent",
    "get_instrumentation",
    "merge_snapshots",
    "percentile",
    "percentile_summary",
    "reset_instrumentation",
    "BENCH_SCHEMA",
    "CHAOS_SCHEMA",
    "SERVE_SCHEMA",
    "SchemaError",
    "machine_fingerprint",
    "validate",
]
