"""The measured kernels/sellcs microbenches on a tiny case: row set,
verdict fields and the allocation counter's stability and sensitivity."""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp

from repro.core.sellcs import SellWorkspace, build_sellcs, sell_spmv
from repro.obs.instrumentation import Instrumentation
from repro.obs.kernelbench import (
    ALLOC_FLOOR_BYTES,
    MULTIRHS_KS,
    SELLCS_CASES,
    SELLCS_CHUNKS,
    SELLCS_KS,
    KernelCase,
    measure,
    run_kernels_suite,
    run_sellcs_suite,
)
from repro.obs.schema import BENCH_SCHEMA, validate

TINY = next(c for c in SELLCS_CASES if c.name == "poisson-hex8-tiny")


@pytest.fixture(scope="module")
def sellcs_doc():
    return validate(
        run_sellcs_suite(repeats=1, cases=(TINY,), verbose=False), BENCH_SCHEMA
    )


@pytest.fixture(scope="module")
def kernels_doc():
    case = KernelCase(name=TINY.name, make_spec=TINY.make_spec)
    return validate(
        run_kernels_suite(repeats=1, cases=(case,), verbose=False), BENCH_SCHEMA
    )


def _rows(doc):
    return {r["method"]: r for r in doc["results"]}


def test_sellcs_rows_and_verdicts(sellcs_doc):
    rows = _rows(sellcs_doc)
    grid = [
        f"sellcs-C{C}-s{s}-spmv" for C in SELLCS_CHUNKS for s in (1, C, 8 * C)
    ]
    multi = [
        f"{tag}-multirhs-k{k}-{mode}"
        for k in SELLCS_KS
        for tag, mode in (
            ("assembled", "oracle"), ("assembled", "gemm"),
            ("sellcs", "gemm"), ("hymv", "gemm"),
        )
    ]
    assert list(rows) == ["assembled-spmv", *grid, *multi]
    assert {r["case"] for r in rows.values()} == {TINY.name}
    for m in grid:
        assert rows[m]["bitwise_identical_to_reference"] is True
        assert rows[m]["speedup_vs_reference"] > 0
    for m in multi:
        r = rows[m]
        assert r["k"] in SELLCS_KS
        assert ("gemm_equivalence_rtol" in r) == m.endswith("gemm")
        assert r.get("oracle_bitwise_identical") is (
            True if m.startswith("sellcs") else None
        )
    assert "sellcs_crossover_dofs" in sellcs_doc["config"]
    # the gated verdict: SELL rows allocate nothing in steady state
    for m in grid + [m for m in multi if m.startswith("sellcs")]:
        assert rows[m]["counters"]["spmv.bytes_alloc"] == 0.0


def test_sellcs_single_rhs_alloc_counter_is_one_value(sellcs_doc):
    """Every (C, sigma) point runs the same Python path, so the raw
    steady-state churn must not depend on the grid point."""
    raw = {
        r["counters"]["spmv.bytes_alloc_raw"]
        for r in sellcs_doc["results"]
        if r["method"].startswith("sellcs-") and r["method"].endswith("-spmv")
    }
    assert len(raw) == 1, raw


def test_kernels_rows_and_verdicts(kernels_doc):
    rows = _rows(kernels_doc)
    single = [
        f"hymv-{kernel}-{tag}"
        for kernel in ("einsum", "columns")
        for tag in ("reference", "workspace")
    ]
    multi = [
        f"hymv-einsum-multirhs-k{k}-{mode}"
        for k in MULTIRHS_KS
        for mode in ("oracle", "gemm")
    ]
    assert list(rows) == single + multi
    for m in single:
        assert rows[m]["bitwise_identical_to_reference"] is True
        assert ("speedup_vs_reference" in rows[m]) == m.endswith("workspace")
    for m in multi:
        assert rows[m]["gemm_equivalence_rtol"] > 0
        assert ("speedup_vs_reference" in rows[m]) == m.endswith("gemm")
    for m in [m for m in single + multi if m.endswith(("workspace", "gemm"))]:
        assert rows[m]["counters"]["spmv.bytes_alloc"] == 0.0
    assert kernels_doc["config"]["multirhs_ks"] == list(MULTIRHS_KS)


def test_measure_counts_a_fresh_vector_per_call():
    """The allocation window sees the fresh n-vector a CSR product
    returns and floors only what the SELL workspace product of the same
    matrix leaves behind."""
    n = 4 * ALLOC_FLOOR_BYTES // 8
    A = sp.random(n, n, density=8 / n, format="csr", random_state=0)
    layout = build_sellcs(A, C=32, sigma=256)
    ws = SellWorkspace(layout, 1)
    x = np.random.default_rng(0).standard_normal(n)
    fresh = measure(lambda: A @ x, Instrumentation(), n=5, repeats=1)
    inplace = measure(
        lambda: sell_spmv(layout, x, ws), Instrumentation(), n=5, repeats=1
    )
    assert fresh["counters"]["spmv.bytes_alloc_raw"] > ALLOC_FLOOR_BYTES
    assert fresh["counters"]["spmv.bytes_alloc"] > 0
    assert inplace["counters"]["spmv.bytes_alloc_raw"] <= ALLOC_FLOOR_BYTES
    assert inplace["counters"]["spmv.bytes_alloc"] == 0.0
    assert fresh["phases"]["spmv.total"]["repeats"] == 1
