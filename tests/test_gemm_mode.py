"""GEMM execution mode: BLAS3 batched EMV vs the per-column oracle.

The oracle path is the verification reference — bitwise identical per
column to k single-RHS runs (tests/test_multirhs.py).  The GEMM path
reorders the elemental accumulation into one batched ``(nd, nd) @
(nd, k)`` matmul per element, so it matches the oracle to *rounding*,
not bitwise.  These tests pin down both sides of that contract:

* the drift is bounded by the **derived** rtol
  (:func:`repro.core.kernels.gemm_equivalence_rtol`) relative to the
  magnitude scale ``|K| |u|`` — a rigorous bound on every intermediate
  of either accumulation order, not a hand-tuned tolerance;
* ``mode="oracle"`` stays bitwise at any batch width;
* ``resolve_mode`` / ``SegmentScatter.add_into_multi`` / the serve
  layer's mode plumbing behave as specified.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.kernels import (
    DEFAULT_K_MIN,
    EMV_MODES,
    EmvWorkspace,
    emv_columns,
    emv_einsum,
    gemm_equivalence_rtol,
    resolve_mode,
)
from repro.core.segment import SegmentScatter

# ----------------------------------------------------------------------------
# resolve_mode
# ----------------------------------------------------------------------------


def test_resolve_mode_auto_threshold():
    assert resolve_mode("auto", DEFAULT_K_MIN - 1) == "oracle"
    assert resolve_mode("auto", DEFAULT_K_MIN) == "gemm"
    assert resolve_mode("auto", 64) == "gemm"


def test_resolve_mode_explicit_passthrough():
    # explicit modes ignore k entirely
    assert resolve_mode("oracle", 1000) == "oracle"
    assert resolve_mode("gemm", 1) == "gemm"


def test_resolve_mode_k_min_override():
    assert resolve_mode("auto", 2, k_min=2) == "gemm"
    assert resolve_mode("auto", 2, k_min=3) == "oracle"
    # None -> DEFAULT_K_MIN
    assert resolve_mode("auto", DEFAULT_K_MIN, k_min=None) == "gemm"


@pytest.mark.parametrize("bad", ["blas3", "", "Oracle", None])
def test_resolve_mode_rejects_unknown(bad):
    with pytest.raises(ValueError):
        resolve_mode(bad, 4)


def test_emv_modes_tuple():
    assert EMV_MODES == ("oracle", "gemm", "auto")


# ----------------------------------------------------------------------------
# kernel-level equivalence (hypothesis property, both dtypes)
# ----------------------------------------------------------------------------

_KS = (1, 2, 3, 8, 32)


def _kernel_case(seed: int, nd: int, k: int, dtype):
    rng = np.random.default_rng(seed)
    E = 17
    ke = rng.standard_normal((E, nd, nd)).astype(dtype)
    ue = rng.standard_normal((E, nd, k)).astype(dtype)
    return ke, ue


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    nd=st.sampled_from([4, 8, 24]),
    k=st.sampled_from(_KS),
    dtype=st.sampled_from([np.float64, np.float32]),
)
def test_emv_gemm_within_derived_bound(seed, nd, k, dtype):
    ke, ue = _kernel_case(seed, nd, k, dtype)
    y_oracle = emv_einsum(ke, ue, mode="oracle")
    y_gemm = emv_einsum(ke, ue, mode="gemm")
    # magnitude scale: the oracle product of |K| and |u| bounds every
    # partial sum of either accumulation order entrywise
    y_abs = emv_einsum(np.abs(ke), np.abs(ue), mode="oracle")
    rtol = gemm_equivalence_rtol(nd, k=k, dtype=dtype)
    bound = rtol * np.maximum(y_abs, np.finfo(dtype).tiny)
    assert np.all(np.abs(y_gemm - y_oracle) <= bound)


@pytest.mark.parametrize("k", _KS)
def test_emv_columns_gemm_matches_einsum_gemm(k):
    ke, ue = _kernel_case(99, 8, k, np.float64)
    # in the 3-D gemm regime both kernel formulations degenerate to the
    # same batched matmul — bitwise identical
    assert np.array_equal(
        emv_columns(ke, ue, mode="gemm"), emv_einsum(ke, ue, mode="gemm")
    )


def test_emv_oracle_is_bitwise_per_column():
    ke, ue = _kernel_case(7, 8, 5, np.float64)
    y = emv_einsum(ke, ue, mode="oracle")
    for j in range(5):
        assert np.array_equal(y[:, :, j], emv_einsum(ke, ue[:, :, j]))


def test_emv_workspace_multi_views_cached():
    ws = EmvWorkspace(n_elements=10, nd=8)
    ue, ve = ws.multi_views(6, 4)
    assert ue.shape == (6, 8, 4) and ve.shape == (6, 8, 4)
    ue2, ve2 = ws.multi_views(4, 4)
    # same per-k backing buffers, sliced shorter
    assert ue2.base is ue.base and ve2.base is ve.base


# ----------------------------------------------------------------------------
# SegmentScatter.add_into_multi
# ----------------------------------------------------------------------------


@pytest.mark.parametrize("force_fallback", [False, True])
@pytest.mark.parametrize("k", [1, 3, 8])
def test_add_into_multi_bitwise_per_column(force_fallback, k):
    rng = np.random.default_rng(5)
    idx = rng.integers(0, 40, size=(30, 6))
    vals = rng.standard_normal((30, 6, k))
    seg = SegmentScatter(idx, force_fallback=force_fallback)
    out_multi = rng.standard_normal((40, k))
    out_cols = out_multi.copy()
    seg.add_into_multi(out_multi, vals)
    seg1 = SegmentScatter(idx, force_fallback=force_fallback)
    for j in range(k):
        col = np.ascontiguousarray(out_cols[:, j])
        seg1.add_into(col, np.ascontiguousarray(vals[:, :, j]))
        out_cols[:, j] = col
    assert np.array_equal(out_multi, out_cols)


def test_add_into_multi_csr_and_fallback_identical():
    rng = np.random.default_rng(6)
    idx = rng.integers(0, 25, size=(20, 4))
    vals = rng.standard_normal((20, 4, 5))
    out_a = np.zeros((25, 5))
    out_b = np.zeros((25, 5))
    SegmentScatter(idx).add_into_multi(out_a, vals)
    SegmentScatter(idx, force_fallback=True).add_into_multi(out_b, vals)
    assert np.array_equal(out_a, out_b)


def test_add_into_multi_shape_validation():
    seg = SegmentScatter(np.arange(12).reshape(4, 3))
    vals = np.zeros((4, 3, 2))
    with pytest.raises(ValueError):
        seg.add_into_multi(np.zeros(12), vals)  # 1-D destination
    with pytest.raises(ValueError):
        seg.add_into_multi(np.zeros((12, 3)), vals)  # k mismatch
    with pytest.raises(IndexError):
        seg.add_into_multi(np.zeros((11, 2)), vals)  # destination too small


def test_add_into_multi_empty_structure():
    seg = SegmentScatter(np.empty((0, 3), dtype=np.int64))
    out = np.ones((5, 2))
    seg.add_into_multi(out, np.empty((0, 3, 2)))
    assert np.array_equal(out, np.ones((5, 2)))


# ----------------------------------------------------------------------------
# operator-level equivalence, all five kinds
# ----------------------------------------------------------------------------

N_PARTS = 4
K_OP = 8  # >= DEFAULT_K_MIN: "auto" resolves to gemm


def _operator_modes(kind: str, k: int):
    """Owned products of the oracle/gemm/auto modes plus the |K||u|
    magnitude scale, each rank's block stacked in rank order."""
    from repro.baselines import AssembledOperator, MatrixFreeOperator
    from repro.baselines.partial import PartialAssemblyOperator
    from repro.core import HymvOperator
    from repro.fem import ElasticityOperator
    from repro.gpu import HymvGpuOperator
    from repro.mesh import ElementType, jittered_hex_mesh
    from repro.partition import build_partition
    from repro.simmpi import run_spmd

    factories = {
        "hymv": HymvOperator,
        "matfree": MatrixFreeOperator,
        "partial": PartialAssemblyOperator,
        "assembled": AssembledOperator,
        "hymv_gpu": HymvGpuOperator,
    }
    mesh = jittered_hex_mesh(3, 3, 3, ElementType.HEX8, jitter=0.25, seed=11)
    op = ElasticityOperator()
    part = build_partition(mesh, N_PARTS, method="graph")
    n = mesh.n_nodes * op.ndpn
    X = np.random.default_rng(31).standard_normal((n, k))

    def prog(comm, lmesh, Xr):
        A = factories[kind](comm, lmesh, op)
        return {
            m: A.apply_owned_multi(Xr, mode=m)
            for m in ("oracle", "gemm", "auto")
        }

    rank_args = []
    for r in range(N_PARTS):
        lm = part.local(r)
        rank_args.append((lm, X[lm.n_begin * op.ndpn: lm.n_end * op.ndpn]))
    results, _ = run_spmd(N_PARTS, prog, rank_args=rank_args)
    out = {m: np.vstack([res[m] for res in results])
           for m in ("oracle", "gemm", "auto")}
    return out, op.element_dofs(mesh.etype)


@pytest.mark.parametrize(
    "kind", ["hymv", "matfree", "partial", "assembled", "hymv_gpu"]
)
def test_operator_gemm_within_derived_bound(kind):
    out, ndpe = _operator_modes(kind, K_OP)
    # norm-scale form of the derived bound: columnwise drift relative to
    # the oracle column magnitude (the entrywise |K||u| scale is >= this)
    rtol = gemm_equivalence_rtol(ndpe, k=K_OP)
    scale = np.max(np.abs(out["oracle"]), axis=0)
    err = np.max(np.abs(out["gemm"] - out["oracle"]), axis=0)
    assert np.all(err <= rtol * scale)
    # auto at k >= DEFAULT_K_MIN IS the gemm path, bit for bit
    assert np.array_equal(out["auto"], out["gemm"])


# ----------------------------------------------------------------------------
# cg_multi under gemm
# ----------------------------------------------------------------------------


def test_cg_multi_gemm_converges_to_oracle_solution():
    from repro.core import HymvOperator
    from repro.problems import poisson_problem
    from repro.simmpi import run_spmd
    from repro.solvers.cg import cg_multi

    k, rtol = 8, 1e-9
    spec = poisson_problem(5, n_parts=2)
    F = np.random.default_rng(13).standard_normal((spec.n_dofs, k))

    def prog(comm, lmesh, Fr):
        A = HymvOperator(comm, lmesh, spec.operator)

        # the pure-Neumann Poisson matrix is singular (constant
        # nullspace); shift to the SPD K + I so lock-step CG converges
        def apply_shifted(X, mode="auto"):
            return A.apply_owned_multi(X, mode=mode) + X

        sols = {}
        for m in ("oracle", "gemm"):
            res = cg_multi(comm, apply_shifted, Fr, rtol=rtol, mode=m)
            assert all(r.converged for r in res)
            sols[m] = np.column_stack([r.x for r in res])
        return sols

    rank_args = []
    for r in range(2):
        lm = spec.partition.local(r)
        rank_args.append((lm, F[lm.n_begin: lm.n_end]))
    results, _ = run_spmd(2, prog, rank_args=rank_args)
    X_o = np.vstack([res["oracle"] for res in results])
    X_g = np.vstack([res["gemm"] for res in results])
    # both converged to rtol of the same system: iterates agree to the
    # solver tolerance (the elemental reordering only shifts last ulps
    # per matvec, amplified at most by the usual CG error constant)
    scale = np.max(np.abs(X_o), axis=0)
    assert np.all(np.max(np.abs(X_g - X_o), axis=0) <= 100 * rtol * scale)


# ----------------------------------------------------------------------------
# serve layer: mode plumbing, histogram, schema
# ----------------------------------------------------------------------------


def test_solver_service_rejects_unknown_mode():
    from repro.obs.instrumentation import Instrumentation
    from repro.serve.service import SolverService

    class _Cache:
        obs = Instrumentation(rank=-1)

    with pytest.raises(ValueError):
        SolverService(_Cache(), mode="blas3")


def test_run_workload_records_modes():
    from repro.serve.loadgen import run_workload, suite_workloads

    _clean, gemm, _faulted = suite_workloads(seed=5, smoke=True)
    sc = run_workload(gemm, seed=5)
    assert sc["requests"]["wrong_answers"] == 0
    assert "gemm" in sc["modes"] and sc["modes"]["gemm"] > 0
    assert sum(sc["modes"].values()) == sum(sc["batch_histogram"].values())


def test_forced_oracle_workload_never_runs_gemm():
    import dataclasses

    from repro.serve.loadgen import run_workload, suite_workloads

    _clean, gemm, _faulted = suite_workloads(seed=5, smoke=True)
    forced = dataclasses.replace(gemm, name="open-forced-oracle",
                                 mode="oracle")
    sc = run_workload(forced, seed=5)
    assert set(sc["modes"]) <= {"oracle", "degraded"}


def test_serve_schema_v2_requires_modes():
    from repro.obs.schema import SERVE_SCHEMA, SchemaError, new_doc, validate

    sc = {
        "scenario": "s", "workload": {}, "requests": {
            "submitted": 0, "completed": 0, "rejected": 0,
            "shed_deadline": 0, "cancelled": 0, "failed": 0,
            "wrong_answers": 0,
        },
        "latency_s": {}, "throughput_rps": 0.0, "makespan_s": 0.0,
        "batch_histogram": {}, "cache": {
            "hits": 0, "misses": 0, "evictions": 0, "hit_rate": 0.0,
        },
        "counters": {},
    }
    doc = new_doc(SERVE_SCHEMA, scenarios=[dict(sc)])
    with pytest.raises(SchemaError):
        validate(doc)  # v2 without "modes"
    doc["scenarios"][0]["modes"] = {"oracle": 0}
    validate(doc)
    # the pre-v2 schema id is no longer accepted on read
    legacy = new_doc("repro.serve/1", scenarios=[dict(sc)])
    with pytest.raises(SchemaError):
        validate(legacy)


def test_load_calibrated_k_min_roundtrip(tmp_path):
    """A legacy kernels-bench document still yields the GEMM crossover
    through the single tuned-config loader (what ``--tuned-from``
    reads)."""
    import json

    from repro.tune.calibration import load_tuned_config

    p = tmp_path / "BENCH_kernels.json"
    p.write_text(json.dumps({"config": {"gemm_k_min_crossover": 2}}))
    assert load_tuned_config(p).get("gemm_k_min") == 2
    assert load_tuned_config(tmp_path / "missing.json") is None
    p.write_text(json.dumps({"config": {}}))
    assert load_tuned_config(p) is None
