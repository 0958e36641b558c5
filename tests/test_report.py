"""The shared report-and-gate path: the declared schema table, the
harness gates that CI relies on, and the compare gate's shape check.

Every rule of :data:`repro.obs.schema.SCHEMAS` is broken once on a
minimal valid document and must raise :class:`SchemaError` naming the
broken path.  Every harness gate is fed one synthetic document that
violates it and must report the violation, and the harness ``main`` must
exit 1 on it (the suite runner is swapped for one returning that
document, so no scenario runs).
"""

from __future__ import annotations

import copy
import json

import pytest

from repro.obs.compare import compare_docs
from repro.obs.schema import (
    ADAPT_SCHEMA,
    BENCH_SCHEMA,
    CHAOS_SCHEMA,
    SCHEMAS,
    SERVE_SCHEMA,
    SHARD_SCHEMA,
    TUNE_CONFIG_SCHEMA,
    TUNE_SCHEMA,
    SchemaError,
    new_doc,
    validate,
)
from repro.tune.evaluate import GATED_METRICS

# ----------------------------------------------------------------------------
# minimal valid documents (every list and map the rules visit is non-empty)
# ----------------------------------------------------------------------------

_CACHE = {"hits": 1, "misses": 1, "evictions": 0, "hit_rate": 0.5}
_LAT = {"p50": 1e-3, "p95": 2e-3, "p99": 3e-3, "mean": 1e-3, "min": 1e-3,
        "max": 3e-3, "n": 2}


def _bench():
    return new_doc(BENCH_SCHEMA, suite="smoke", repeats=1, results=[{
        "case": "c", "method": "hymv", "n_parts": 2, "n_dofs": 100,
        "phases": {"spmv.total": {"median": 1e-3, "min": 1e-3, "max": 1e-3,
                                  "repeats": 1}},
        "counters": {"spmv.elements": 8},
    }])


def _chaos():
    return new_doc(CHAOS_SCHEMA, scenarios=[{
        "scenario": "delay", "ok": True, "failures": [], "plan": {},
        "counters": {"faults.delayed": 1}, "iterations": 10, "restarts": 0,
        "rel_err": 0.0,
    }])


def _serve():
    return new_doc(SERVE_SCHEMA, scenarios=[{
        "scenario": "s", "workload": {}, "n_parts": 4, "n_dofs": 125,
        "requests": {"submitted": 2, "completed": 2, "rejected": 0,
                     "shed_deadline": 0, "cancelled": 0, "failed": 0,
                     "wrong_answers": 0},
        "latency_s": {"all": dict(_LAT)}, "throughput_rps": 10.0,
        "makespan_s": 0.2, "batch_histogram": {"2": 1}, "modes": {"oracle": 1},
        "cache": dict(_CACHE), "counters": {"serve.completed": 2},
    }])


def _shard_scenario(name="shard-kill", kills=1, failovers=2, n_shards=4):
    return {
        "scenario": name, "workload": {}, "n_shards": n_shards, "n_parts": 2,
        "n_dofs": 64,
        "requests": {"submitted": 2, "completed": 2, "rejected": 0,
                     "shed_tenant": 0, "shed_deadline": 0, "spilled": 0,
                     "failed": 0, "failovers": failovers, "wrong_answers": 0},
        "latency_s": {"all": dict(_LAT)}, "throughput_rps": 10.0,
        "makespan_s": 0.2,
        "shards": {"s0": {"utilization": 0.5, "busy_s": 0.1, "dispatches": 1,
                          "alive": True, "cache": dict(_CACHE)}},
        "utilization": {"mean": 0.5, "min": 0.5, "max": 0.5,
                        "peak_to_mean": 1.0},
        "replication": {"keys_seen": 1, "replicated_keys": 0,
                        "replication_factor": 1.0},
        "tenants": {"t0": {"submitted": 2, "completed": 2}},
        "batch_histogram": {"2": 1}, "modes": {"oracle": 1},
        "counters": {"shard.kills": kills},
    }


def _shard():
    return new_doc(SHARD_SCHEMA, scenarios=[_shard_scenario()])


def _adapt():
    return new_doc(ADAPT_SCHEMA, scenarios=[{
        "scenario": "crack-scale", "method": "hymv", "n_parts": 2,
        "n_dofs": 125, "steps": 1,
        "deltas": {"applied": 1, "patches": 1, "rebuilds": 0,
                   "touched_total": 3, "max_fraction": 0.1},
        "verify": {"checks": 3, "bitwise": 3, "wrong_answers": 0},
        "costs": {"delta_s": 1e-4, "rebuild_s": 3e-4, "reassembly_s": 2e-4,
                  "speedup_vs_rebuild": 3.0},
        "cache": dict(_CACHE),
        "steps_detail": [{"delta_s": 1e-4, "rebuild_s": 3e-4,
                          "reassembly_s": 2e-4}],
        "counters": {"adapt.wrong_answers": 0},
    }])


def _tune_entry(**metrics):
    objectives = {"throughput_rps": 10.0, "p99_s": 1e-3, "mem_bytes": 1}
    m = {k: 1.0 for k in GATED_METRICS} | metrics
    return {"fingerprint": "f", "config": {"max_batch": 8},
            "objectives": objectives, "metrics": m, "score": 0.0}


def _tune():
    entry = _tune_entry()
    return new_doc(
        TUNE_SCHEMA, {"seed": 1},
        space=[{"name": "max_batch", "values": [4, 8], "default": 8}],
        calibrated=None,
        trajectory=[{"step": 0, "strategy": "random", "fingerprint": "f",
                     "config": {"max_batch": 8},
                     "objectives": dict(entry["objectives"]), "score": 0.0,
                     "cached": False}],
        evaluations=1, cache_hits=0,
        pareto=[{"fingerprint": "f", "config": {"max_batch": 8},
                 "objectives": dict(entry["objectives"])}],
        default=entry, winner=copy.deepcopy(entry),
        machine_profile="frontera-rtx5000",
    )


def _tune_config():
    return {"schema": TUNE_CONFIG_SCHEMA, "config": {"max_batch": 8},
            "source": "TUNE_report.json"}


MINIMAL = {
    BENCH_SCHEMA: _bench,
    CHAOS_SCHEMA: _chaos,
    SERVE_SCHEMA: _serve,
    SHARD_SCHEMA: _shard,
    ADAPT_SCHEMA: _adapt,
    TUNE_SCHEMA: _tune,
    TUNE_CONFIG_SCHEMA: _tune_config,
}


# ----------------------------------------------------------------------------
# the schema table
# ----------------------------------------------------------------------------

def test_every_schema_has_a_minimal_valid_document():
    assert set(MINIMAL) == set(SCHEMAS)
    for sid, make in MINIMAL.items():
        doc = make()
        assert validate(json.loads(json.dumps(doc)), sid)["schema"] == sid


def _locate(doc, path):
    """The first node ``path`` selects: ``(where, parent, slot, node)``
    with ``parent[slot] is node`` and ``where`` the name :func:`validate`
    reports for it."""
    where, parent, slot, node = "doc", None, None, doc
    for seg in path.split(".") if path else []:
        name = seg.rstrip("[]{}")
        where = name if where == "doc" else f"{where}.{name}"
        parent, slot, node = node, name, node[name]
        if seg.endswith("[]"):
            parent, slot, node = node, 0, node[0]
            where += "[0]"
        elif seg.endswith("{}"):
            k = next(iter(node))
            parent, slot, node = node, k, node[k]
            where += f"[{k!r}]"
    return where, parent, slot, node


_RULES = [
    pytest.param(sid, i, id=f"{sid}:{rule[0] or 'root'}#{i}")
    for sid, rules in SCHEMAS.items()
    for i, rule in enumerate(rules)
]


@pytest.mark.parametrize("sid, index", _RULES)
def test_breaking_a_schema_rule_raises_naming_its_path(sid, index):
    path, kind, keys, *_ = SCHEMAS[sid][index]
    # (action, argument, expected message fragment)
    breakages = [("pop", key, f"missing key {key!r}") for key in keys]
    if path:  # the root's type is checked before any rule runs
        breakages.append(("set", "x", f"must be {kind}"))
        if "non-empty" in kind:
            breakages.append(("set", [] if "list" in kind else {}, "non-empty"))
    assert breakages, "a rule that checks nothing"
    for action, arg, fragment in breakages:
        doc = MINIMAL[sid]()
        where, parent, slot, node = _locate(doc, path)
        if action == "pop":
            node.pop(arg)
        else:
            parent[slot] = arg
        with pytest.raises(SchemaError) as exc:
            validate(doc)
        assert where in str(exc.value) and fragment in str(exc.value)


def test_validate_rejects_unknown_and_unexpected_schema_ids():
    with pytest.raises(SchemaError, match="unsupported schema"):
        validate({"schema": "repro.nope/1"})
    with pytest.raises(SchemaError, match="unsupported schema"):
        validate(_serve(), BENCH_SCHEMA)
    with pytest.raises(SchemaError, match="must be an object"):
        validate([])


def test_latency_all_summary_required_only_once_requests_completed():
    doc = _serve()
    sc = doc["scenarios"][0]
    sc["latency_s"] = {}
    with pytest.raises(SchemaError, match="missing key 'all'"):
        validate(doc)
    sc["requests"]["completed"] = 0
    validate(doc)


# ----------------------------------------------------------------------------
# harness gates: each violation is reported and main exits 1
# ----------------------------------------------------------------------------

def _serve_wrong():
    doc = _serve()
    doc["scenarios"][0]["requests"]["wrong_answers"] = 1
    return doc


def _shard_with(**kw):
    return new_doc(SHARD_SCHEMA, scenarios=[_shard_scenario(**kw)])


def _shard_wrong():
    doc = _shard()
    doc["scenarios"][0]["requests"]["wrong_answers"] = 2
    return doc


def _adapt_with(section, **values):
    doc = _adapt()
    doc["scenarios"][0][section].update(values)
    return doc


def _tune_worse():
    doc = _tune()
    doc["winner"] = _tune_entry(**{GATED_METRICS[0]: 2.0})
    return doc


def _sellcs(spmv=(), gemm=(), crossover=125):
    """A sellcs bench doc with one SELL SPMV and one SELL GEMM row;
    ``spmv``/``gemm`` override fields of that row, ``None`` drops it."""
    row = {"case": "tiny", "n_parts": 1, "n_dofs": 125, "phases": {},
           "counters": {}}
    rows = [
        (row | {"method": "sellcs-C32-s256-spmv",
                "bitwise_identical_to_reference": True}, spmv),
        (row | {"method": "sellcs-multirhs-k32-gemm",
                "oracle_bitwise_identical": True}, gemm),
    ]
    return new_doc(BENCH_SCHEMA, {"sellcs_crossover_dofs": crossover},
                   suite="sellcs", repeats=1,
                   results=[r | dict(o) for r, o in rows if o is not None])


def _chaos_failed():
    doc = _chaos()
    doc["scenarios"][0].update(ok=False, failures=["solve did not converge"])
    return doc


# (harness, synthetic doc, message fragment)
_GATE_CASES = [
    ("serve", _serve_wrong, "1 wrong answer"),
    ("shard", _shard_wrong, "2 wrong answer"),
    ("shard", lambda: _shard_with(failovers=0), "exercised no failover"),
    ("shard", lambda: _shard_with(kills=0), "exercised no failover"),
    ("shard", lambda: _shard_with(n_shards=3), "on 3 shards"),
    ("adapt", lambda: _adapt_with("verify", wrong_answers=1), "wrong answer"),
    ("adapt", lambda: _adapt_with("verify", bitwise=2), "2/3 checks bitwise"),
    ("adapt", lambda: _adapt_with("costs", delta_s=5e-4),
     "not cheaper than rebuild"),
    ("tune", _tune_worse, "winner regresses the default"),
    ("sellcs", lambda: _sellcs(spmv={"bitwise_identical_to_reference": None}),
     "lost its bitwise verdict"),
    ("sellcs", lambda: _sellcs(gemm={"oracle_bitwise_identical": False}),
     "lost its oracle verdict"),
    ("sellcs", lambda: _sellcs(crossover=0), "is not positive"),
    ("sellcs", lambda: _sellcs(spmv=None, gemm=None), "no sellcs rows"),
    ("chaos", _chaos_failed, "solve did not converge"),
]


def _harness(name):
    """``(gate, main, patch(monkeypatch, doc), argv(tmp_path))``."""
    if name == "serve":
        from repro.serve import loadgen as mod

        def patch(mp, doc):
            mp.setattr(mod, "run_serve_suite", lambda **kw: (
                doc, mod.bench_projection("serve", doc, ("wrong_answers",))))
        return mod.gate, mod.main, patch, _two_outputs
    if name == "shard":
        from repro.serve import shardload as mod

        def patch(mp, doc):
            mp.setattr(mod, "run_shard_suite", lambda **kw: (
                doc, mod.bench_projection("shard", doc, ("wrong_answers",))))
        return mod.gate, mod.main, patch, _two_outputs
    if name == "adapt":
        from repro.adapt import harness as mod

        def patch(mp, doc):
            mp.setattr(mod, "run_adapt_suite",
                       lambda **kw: (doc, mod._bench_doc(doc)))
        return mod.gate, mod.main, patch, _two_outputs
    if name == "tune":
        from repro.tune import harness as mod

        def patch(mp, doc):
            mp.setattr(mod, "run_tune", lambda **kw: doc)
        return mod.gate, mod.main, patch, lambda t: _two_outputs(t) + [
            "--tuned-out", str(t / "tuned.json")]
    if name == "sellcs":
        from repro.obs import bench, kernelbench

        def patch(mp, doc):
            mp.setattr(kernelbench, "run_sellcs_suite", lambda **kw: doc)
        return bench.gate, bench.main, patch, lambda t: [
            "--suite", "sellcs", "--out", str(t / "b.json"), "--quiet"]
    from repro.faults import chaos as mod

    def patch(mp, doc):
        mp.setattr(mod, "run_chaos", lambda **kw: doc)
    return mod.gate, mod.main, patch, lambda t: ["--out", str(t / "c.json")]


def _two_outputs(tmp_path):
    return ["--out", str(tmp_path / "r.json"),
            "--bench-out", str(tmp_path / "b.json"), "--quiet"]


@pytest.mark.parametrize("name, make, fragment", _GATE_CASES,
                         ids=[f"{c[0]}-{c[2]}" for c in _GATE_CASES])
def test_gate_reports_violation_and_main_exits_1(
    name, make, fragment, monkeypatch, tmp_path, capsys
):
    gate, main, patch, argv = _harness(name)
    doc = validate(make())
    assert any(fragment in msg for msg in gate(doc)), gate(doc)
    patch(monkeypatch, doc)
    assert main(argv(tmp_path)) == 1
    assert fragment in capsys.readouterr().err


@pytest.mark.parametrize("name", ["serve", "shard", "adapt", "tune",
                                  "sellcs", "chaos"])
def test_gate_passes_clean_minimal_document(name, monkeypatch, tmp_path):
    gate, main, patch, argv = _harness(name)
    doc = (_sellcs() if name == "sellcs" else MINIMAL[{
        "serve": SERVE_SCHEMA, "shard": SHARD_SCHEMA, "adapt": ADAPT_SCHEMA,
        "tune": TUNE_SCHEMA, "chaos": CHAOS_SCHEMA}[name]]())
    assert gate(doc) == []
    patch(monkeypatch, doc)
    assert main(argv(tmp_path)) == 0


def test_shard_gate_max_skew_bound():
    from repro.serve.shardload import gate

    doc = _shard()
    doc["scenarios"][0]["utilization"]["peak_to_mean"] = 3.0
    assert gate(doc) == []
    assert any("peak-to-mean 3.00 > bound 2.75" in m
               for m in gate(doc, max_skew=2.75))


def test_tune_gate_checks_tuned_config_round_trip(tmp_path):
    from repro.tune.calibration import TunedConfig
    from repro.tune.harness import gate

    doc = _tune()
    path = tmp_path / "tuned_config.json"
    path.write_text(json.dumps(TunedConfig({"max_batch": 8}).to_doc()))
    assert gate(doc, path) == []
    path.write_text(json.dumps(TunedConfig({"max_batch": 4}).to_doc()))
    assert any("does not load back" in m for m in gate(doc, path))
    assert any("does not load back" in m
               for m in gate(doc, tmp_path / "missing.json"))


# ----------------------------------------------------------------------------
# compare: a changed problem shape fails instead of skipping the result
# ----------------------------------------------------------------------------

@pytest.mark.parametrize("field", ["n_dofs", "n_parts"])
def test_compare_fails_when_problem_shape_changes(field):
    base = _bench()
    cand = copy.deepcopy(base)
    cand["results"][0][field] //= 2
    ok, findings = compare_docs(base, cand)
    assert not ok
    (f,) = [f for f in findings if f.severity == "fail"]
    assert f.where == "c/hymv" and "problem shape changed" in f.message
    assert "regenerate the baseline" in f.message
