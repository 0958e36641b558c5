"""Fault injection: rule semantics, determinism, recovery, chaos suite."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.faults import (
    Corrupt,
    Delay,
    Drop,
    FaultPlan,
    MessageLostError,
    Reorder,
    Straggler,
    corrupt_array,
    payload_checksum,
)
from repro.faults.chaos import run_chaos
from repro.problems import ElementType, poisson_problem
from repro.simmpi import run_spmd
from repro.solvers.cg import ResilienceConfig


# ----------------------------------------------------------------------------
# plan validation
# ----------------------------------------------------------------------------

def test_plan_rejects_invalid_rules():
    with pytest.raises(ValueError):
        FaultPlan(rules=(Delay(-1.0),))
    with pytest.raises(ValueError):
        FaultPlan(rules=(Reorder(period=0),))
    with pytest.raises(ValueError):
        FaultPlan(rules=(Drop(times=0),))
    with pytest.raises(ValueError):
        FaultPlan(rules=(Straggler(0, 0.5),))  # speedups are not faults
    with pytest.raises(ValueError):
        FaultPlan(rules=(Corrupt(mode="gamma-ray"),))
    with pytest.raises(ValueError):
        FaultPlan(rules=(Drop(skip=-1),))
    with pytest.raises(TypeError):
        FaultPlan(rules=("drop",))
    with pytest.raises(ValueError):
        FaultPlan(retry_timeout=0.0)
    with pytest.raises(ValueError):
        FaultPlan(max_retries=0)


def test_bind_validates_rank_ranges():
    with pytest.raises(ValueError):
        FaultPlan(rules=(Straggler(4, 2.0),)).bind(4)
    with pytest.raises(ValueError):
        FaultPlan(rules=(Drop(src=9),)).bind(4)
    fi = FaultPlan(rules=(Straggler(1, 3.0),)).bind(4)
    assert fi.compute_factor(1) == 3.0
    assert fi.compute_factor(0) == 1.0


def test_plan_describe_is_json_able():
    plan = FaultPlan(
        rules=(Delay(1e-3, src=0, dst=1), Straggler(2, 4.0)),
        seed=7,
        checksums=True,
    )
    doc = json.loads(json.dumps(plan.describe()))
    assert doc["seed"] == 7 and doc["checksums"] is True
    assert [r["rule"] for r in doc["rules"]] == ["Delay", "Straggler"]


# ----------------------------------------------------------------------------
# payload helpers
# ----------------------------------------------------------------------------

def test_corrupt_array_nan_and_bitflip():
    rng = np.random.default_rng(0)
    a = rng.standard_normal(32)
    b = a.copy()
    assert corrupt_array(b, "nan", seed=5)
    assert np.isnan(b).sum() == 1 and np.isfinite(b).sum() == 31

    c = a.copy()
    assert corrupt_array(c, "bitflip", seed=5)
    assert (c != a).sum() == 1  # exactly one word changed
    assert payload_checksum(c) != payload_checksum(a)

    ints = np.arange(4)  # non-float payloads are left alone
    assert not corrupt_array(ints.copy(), "nan", seed=0)


def test_corruption_is_seed_deterministic():
    base = np.linspace(0.0, 1.0, 64)
    a, b = base.copy(), base.copy()
    corrupt_array(a, "bitflip", seed=123)
    corrupt_array(b, "bitflip", seed=123)
    np.testing.assert_array_equal(a, b)
    c = base.copy()
    corrupt_array(c, "bitflip", seed=124)
    assert not np.array_equal(a, c)


# ----------------------------------------------------------------------------
# injection semantics on the simulated communicator
# ----------------------------------------------------------------------------

def _pingpong(comm):
    """Rank 0 sends one array to rank 1; both return their counters
    (send-side rules count on rank 0, recovery counts on rank 1)."""
    got = None
    if comm.rank == 0:
        comm.isend(np.arange(8, dtype=np.float64), 1, tag=5)
    else:
        got = comm.recv(0, tag=5)
    comm.barrier()
    return got, comm.vtime, dict(comm.obs.counters)


def test_delay_postpones_arrival():
    plan = FaultPlan(rules=(Delay(0.25, src=0, dst=1, tag=5),))
    res, _ = run_spmd(2, _pingpong, faults=plan)
    got, vtime, _ = res[1]
    sender_counters = res[0][2]
    np.testing.assert_array_equal(got, np.arange(8.0))
    assert vtime >= 0.25
    assert sender_counters["faults.delayed"] == 1
    assert sender_counters["faults.delay_s"] == pytest.approx(0.25)


def test_drop_recovers_payload_with_retry_cost():
    plan = FaultPlan(rules=(Drop(src=0, dst=1, tag=5),), retry_timeout=0.1)
    res, _ = run_spmd(2, _pingpong, faults=plan)
    got, vtime, counters = res[1]
    np.testing.assert_array_equal(got, np.arange(8.0))  # exact recovery
    assert res[0][2]["faults.dropped"] == 1
    assert counters["faults.retries"] == 1
    assert vtime >= 0.1  # the receiver paid at least the loss timeout

    # only the first message on the edge is dropped
    nofault, _ = run_spmd(2, _pingpong)
    assert nofault[1][2].get("faults.retries", 0) == 0


def test_drop_beyond_max_retries_is_fatal():
    plan = FaultPlan(rules=(Drop(src=0, dst=1, tag=5, times=3),), max_retries=3)
    with pytest.raises(MessageLostError):
        run_spmd(2, _pingpong, faults=plan)


def test_straggler_scales_modeled_compute():
    def prog(comm):
        comm.advance(1.0, "work")
        return comm.vtime, comm.obs.counter("faults.straggler_s")

    plan = FaultPlan(rules=(Straggler(1, 4.0),))
    res, _ = run_spmd(2, prog, faults=plan)
    assert res[0] == (1.0, 0.0)
    t1, extra = res[1]
    assert t1 == pytest.approx(4.0)
    assert extra == pytest.approx(3.0)


def test_checksum_flags_corruption():
    plan = FaultPlan(
        rules=(Corrupt("bitflip", src=0, dst=1, tag=5),), checksums=True
    )
    res, _ = run_spmd(2, _pingpong, faults=plan)
    got, _, counters = res[1]
    assert counters["faults.checksum_fail"] == 1
    assert not np.array_equal(got, np.arange(8.0))

    # checksums alone (no corruption) never fire
    res, _ = run_spmd(2, _pingpong, faults=FaultPlan(checksums=True))
    assert res[1][2].get("faults.checksum_fail", 0) == 0


def test_rules_fire_deterministically_under_fixed_seed():
    """The same plan on the same program produces identical fault counters
    and payload outcomes on every run, despite thread interleaving."""

    def prog(comm):
        for i in range(6):
            nxt = (comm.rank + 1) % comm.size
            comm.isend(np.full(16, float(i)), nxt, tag=2)
        prv = (comm.rank - 1) % comm.size
        out = [float(comm.recv(prv, tag=2)[0]) for _ in range(6)]
        comm.barrier()
        return out, {
            k: v
            for k, v in comm.obs.counters.items()
            # straggler_s integrates measured thread time -> not bitwise
            # reproducible; every other fault counter must be
            if k.startswith("faults.") and k != "faults.straggler_s"
        }

    plan = FaultPlan(
        rules=(
            Delay(1e-4, tag=2, jitter=5e-5),
            Reorder(period=2, tag=2),
            Drop(src=0, dst=1, tag=2),
            Corrupt("bitflip", src=1, dst=2, tag=2, skip=1),
        ),
        seed=42,
        checksums=True,
    )
    runs = [run_spmd(4, prog, faults=plan)[0] for _ in range(3)]
    for other in runs[1:]:
        assert other == runs[0]
    # and the rules actually fired
    counters = runs[0][1][1]
    assert counters["faults.delayed"] > 0
    assert counters["faults.reordered"] > 0
    assert runs[0][2][1]["faults.checksum_fail"] == 1


# ----------------------------------------------------------------------------
# resilient CG: breakdown detection + restart
# ----------------------------------------------------------------------------

def _spec8():
    return poisson_problem(5, 8, etype=ElementType.TET4)


def test_cg_restart_recovers_corrupted_solve():
    from repro.harness import run_solve

    spec = _spec8()
    ref = run_solve(spec, "hymv", precond="jacobi", rtol=1e-10,
                    return_solution=True)
    plan = FaultPlan(
        rules=(Corrupt("nan", tag=101, times=1, skip=1),), checksums=True
    )
    out = run_solve(
        spec, "hymv", precond="jacobi", rtol=1e-10, return_solution=True,
        faults=plan, resilience=ResilienceConfig(),
    )
    assert out.converged
    assert out.restarts >= 1
    counters = out.obs["counters"]
    assert counters["faults.corrupted"] > 0
    assert (
        counters.get("faults.checksum_fail", 0)
        + counters.get("spmv.ghost_nonfinite", 0)
    ) > 0
    scale = np.abs(ref.solution).max()
    np.testing.assert_allclose(out.solution, ref.solution,
                               atol=1e-6 * scale)


def test_cg_without_resilience_fails_on_nan_corruption():
    from repro.harness import run_solve

    spec = _spec8()
    plan = FaultPlan(rules=(Corrupt("nan", tag=101, times=1, skip=1),))
    out = run_solve(spec, "hymv", precond="jacobi", rtol=1e-10, maxiter=60,
                    faults=plan)
    assert not out.converged  # NaN poisons the Krylov space for good


def test_cg_restart_budget_is_bounded():
    from repro.harness import run_solve

    spec = _spec8()
    # corrupt every scatter message forever: restarts cannot help
    plan = FaultPlan(rules=(Corrupt("nan", tag=101, times=10**6),),
                     checksums=True)
    with pytest.raises(RuntimeError, match="max_restarts"):
        run_solve(spec, "hymv", precond="jacobi", rtol=1e-10,
                  faults=plan, resilience=ResilienceConfig(max_restarts=2))


# ----------------------------------------------------------------------------
# the chaos suite (the issue's acceptance scenario matrix)
# ----------------------------------------------------------------------------

def test_chaos_suite_all_scenarios_pass(tmp_path):
    doc = run_chaos(nel=5, n_ranks=8)
    by_name = {s["scenario"]: s for s in doc["scenarios"]}
    for s in doc["scenarios"]:
        assert s["ok"], f"{s['scenario']}: {s['failures']}"

    # acceptance: drop + 4x straggler completes and matches fault-free
    combo = by_name["drop_plus_straggler"]
    assert combo["rel_err"] <= 1e-10
    assert combo["counters"]["faults.retries"] > 0
    assert combo["counters"]["faults.straggler_s"] > 0

    # acceptance: corruption detected (checksum counter) and recovered
    for name in ("corrupt_nan", "corrupt_bitflip"):
        s = by_name[name]
        assert s["counters"]["faults.checksum_fail"] > 0
        assert s["restarts"] >= 1

    # the report is machine-readable and schema-valid after a round-trip
    from repro.obs import CHAOS_SCHEMA, validate

    p = tmp_path / "CHAOS_report.json"
    p.write_text(json.dumps(doc))
    validate(json.loads(p.read_text()), CHAOS_SCHEMA)


def test_chaos_cli_smoke(tmp_path):
    from repro.faults.chaos import main

    out = tmp_path / "report.json"
    assert main(["--smoke", "--nel", "4", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["schema"] == "repro.chaos/1"
    assert len(doc["scenarios"]) >= 5
