"""CG, preconditioners, Dirichlet projection."""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp

from repro.simmpi import run_spmd
from repro.solvers import (
    BlockJacobiPreconditioner,
    JacobiPreconditioner,
    ResilienceConfig,
    cg,
    dirichlet_system,
)
from repro.solvers.cg import cg_multi


def _spd_matrix(n, seed=0, cond=50.0):
    rng = np.random.default_rng(seed)
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    w = np.linspace(1.0, cond, n)
    return (Q * w) @ Q.T


def test_cg_serial_matches_direct():
    A = _spd_matrix(40)
    b = np.random.default_rng(1).standard_normal(40)

    def prog(comm):
        return cg(comm, lambda x: A @ x, b, rtol=1e-12, maxiter=500)

    res, _ = run_spmd(1, prog)
    r = res[0]
    assert r.converged
    np.testing.assert_allclose(r.x, np.linalg.solve(A, b), atol=1e-8)
    # residual history is monotone-ish and ends below tolerance
    assert r.residual_norms[-1] <= 1e-12 * r.residual_norms[0]


def test_cg_zero_rhs_returns_zero():
    def prog(comm):
        return cg(comm, lambda x: 2.0 * x, np.zeros(7))

    res, _ = run_spmd(1, prog)
    assert res[0].iterations == 0 and res[0].converged
    np.testing.assert_array_equal(res[0].x, np.zeros(7))


def test_cg_distributed_block_diagonal():
    """A block-diagonal SPD system distributed over ranks: CG converges to
    the per-rank direct solutions."""
    p = 3
    blocks = [_spd_matrix(12, seed=s) for s in range(p)]
    rhs = [np.random.default_rng(10 + s).standard_normal(12) for s in range(p)]

    def prog(comm):
        A = blocks[comm.rank]
        b = rhs[comm.rank]
        res = cg(comm, lambda x: A @ x, b, rtol=1e-12, maxiter=400)
        return np.abs(res.x - np.linalg.solve(A, b)).max(), res.iterations

    res, _ = run_spmd(p, prog)
    errs, iters = zip(*res)
    assert max(errs) < 1e-7
    assert len(set(iters)) == 1  # collective iteration count


def test_cg_detects_non_spd():
    A = -np.eye(5)

    def prog(comm):
        with pytest.raises(RuntimeError, match="breakdown"):
            cg(comm, lambda x: A @ x, np.ones(5))
        return True

    res, _ = run_spmd(1, prog)
    assert res[0]


def test_cg_maxiter_not_converged():
    A = _spd_matrix(60, cond=1e6)
    b = np.ones(60)

    def prog(comm):
        return cg(comm, lambda x: A @ x, b, rtol=1e-14, maxiter=3)

    res, _ = run_spmd(1, prog)
    assert not res[0].converged
    assert res[0].iterations == 3


def test_cg_reductions_per_iteration():
    """One CG loop for both policies: each iteration ships one ``p·Ap``
    and one ``[r·r, r·z]`` allreduce, plus the two setup reductions.
    The resilient fault flag is a separate max-allreduce, not a
    ``solve.reduce``."""
    A = _spd_matrix(40)
    b = np.random.default_rng(2).standard_normal(40)

    def prog(comm):
        def n_reduce():
            phases = comm.obs.snapshot()["phases"]
            return phases.get("solve.reduce", {}).get("count", 0)

        out = []
        for resilience in (None, ResilienceConfig()):
            before = n_reduce()
            res = cg(comm, lambda x: A @ x, b, rtol=1e-10, maxiter=500,
                     resilience=resilience)
            out.append((res.iterations, n_reduce() - before))
        return out

    res, _ = run_spmd(1, prog)
    (it_plain, red_plain), (it_res, red_res) = res[0]
    assert it_plain == it_res
    assert red_plain == 2 * it_plain + 2
    assert red_res == 2 * it_res + 2


@pytest.mark.parametrize("k", [1, 3])
def test_cg_resilient_fault_free_is_bitwise_plain(k):
    """Without faults the resilient solve takes exactly the plain
    solve's arithmetic: same iterates, counts and residual histories,
    on every rank and for every column of a block."""
    p, n = 2, 30
    rng = np.random.default_rng(7)
    blocks = [
        np.diag(rng.uniform(1.0, 50.0, n)) + _spd_matrix(n, seed=s, cond=5.0)
        for s in range(p)
    ]
    rhs = [rng.standard_normal((n, k)) for _ in range(p)]

    def prog(comm):
        A = blocks[comm.rank]
        M = JacobiPreconditioner(np.diag(A).copy())
        kw = dict(apply_M=M, rtol=1e-10, maxiter=500)
        if k == 1:
            b = rhs[comm.rank][:, 0]
            plain = [cg(comm, lambda x: A @ x, b, **kw)]
            resilient = [cg(comm, lambda x: A @ x, b,
                            resilience=ResilienceConfig(), **kw)]
        else:
            B = rhs[comm.rank]
            plain = cg_multi(comm, lambda X: A @ X, B, **kw)
            resilient = cg_multi(comm, lambda X: A @ X, B,
                                 resilience=ResilienceConfig(), **kw)
        return [
            (
                np.array_equal(a.x, r.x),
                a.iterations == r.iterations,
                a.residual_norms == r.residual_norms,
                a.converged and r.converged and r.restarts == 0,
            )
            for a, r in zip(plain, resilient)
        ]

    res, _ = run_spmd(p, prog)
    for cols in res:
        assert len(cols) == k
        assert all(all(checks) for checks in cols)


def test_cg_multi_resilient_rollback_is_lockstep():
    """A transient fault (one corrupted product, flagged by the ghost
    checksum counter) rolls every unconverged column back together; a
    column that converged before the fault stays bitwise frozen."""
    n = 30
    w, V = np.linalg.eigh(_spd_matrix(n, seed=3))
    A = (V * w) @ V.T
    B = np.column_stack([
        V[:, 0],  # an eigenvector: converges in the first iteration
        np.random.default_rng(4).standard_normal(n),
        np.random.default_rng(5).standard_normal(n),
    ])
    calls = []

    def prog(comm):
        plain = cg_multi(comm, lambda X: A @ X, B, rtol=1e-10, maxiter=500)

        def faulty(X):
            calls.append(1)
            if len(calls) == 10:
                comm.obs.incr("faults.checksum_fail")
                return 2.0 * (A @ X)
            return A @ X

        res = cg_multi(comm, faulty, B, rtol=1e-10, maxiter=500,
                       resilience=ResilienceConfig())
        return plain, res, comm.obs.counter("solve.restarts")

    out, _ = run_spmd(1, prog)
    plain, res, restarts = out[0]
    assert restarts == 1
    assert plain[0].iterations == res[0].iterations == 1
    np.testing.assert_array_equal(res[0].x, plain[0].x)
    for j in (1, 2):
        assert res[j].converged and res[j].restarts == 1
        assert res[j].iterations > plain[j].iterations
        np.testing.assert_allclose(res[j].x, np.linalg.solve(A, B[:, j]),
                                   atol=1e-8)


def test_cg_resilient_breakdown_exhausts_restarts():
    """A non-SPD operator breaks down on every restart: the resilient
    solve rolls back ``max_restarts`` times, then fails loudly."""
    def prog(comm):
        with pytest.raises(RuntimeError, match="breakdown"):
            cg(comm, lambda x: -x, np.ones(5),
               resilience=ResilienceConfig(max_restarts=2))
        return comm.obs.counter("solve.breakdowns")

    res, _ = run_spmd(1, prog)
    assert res[0] == 3


def test_jacobi_reduces_iterations():
    rng = np.random.default_rng(4)
    d = rng.uniform(1.0, 1000.0, 80)
    A = np.diag(d) + 0.5 * _spd_matrix(80, seed=5, cond=2.0)
    b = rng.standard_normal(80)

    def prog(comm):
        plain = cg(comm, lambda x: A @ x, b, rtol=1e-10, maxiter=2000)
        M = JacobiPreconditioner(np.diag(A).copy())
        prec = cg(comm, lambda x: A @ x, b, apply_M=M, rtol=1e-10, maxiter=2000)
        return plain.iterations, prec.iterations

    res, _ = run_spmd(1, prog)
    plain_it, prec_it = res[0]
    assert prec_it < plain_it


def test_jacobi_rejects_nonpositive_diagonal():
    with pytest.raises(ValueError):
        JacobiPreconditioner(np.array([1.0, 0.0]))


def test_block_jacobi_exact_for_block_system():
    B = _spd_matrix(20, seed=7)
    M = BlockJacobiPreconditioner(sp.csr_matrix(B))
    r = np.random.default_rng(8).standard_normal(20)
    np.testing.assert_allclose(M(r), np.linalg.solve(B, r), atol=1e-9)


def test_block_jacobi_requires_square():
    with pytest.raises(ValueError):
        BlockJacobiPreconditioner(sp.csr_matrix(np.ones((2, 3))))


def test_dirichlet_system_solution_matches_elimination():
    n = 30
    A = _spd_matrix(n, seed=11)
    f = np.random.default_rng(12).standard_normal(n)
    mask = np.zeros(n, dtype=bool)
    mask[[0, 5, 17]] = True
    u0 = np.zeros(n)
    u0[mask] = [1.0, -2.0, 0.5]

    apply_hat, b_hat = dirichlet_system(lambda x: A @ x, f, u0, mask)

    def prog(comm):
        return cg(comm, apply_hat, b_hat, rtol=1e-13, maxiter=500).x

    res, _ = run_spmd(1, prog)
    x = res[0]
    # compare against direct elimination
    free = ~mask
    x_ref = u0.copy()
    x_ref[free] = np.linalg.solve(
        A[np.ix_(free, free)], (f - A @ u0)[free]
    ) + u0[free]
    np.testing.assert_allclose(x, x_ref, atol=1e-8)
    np.testing.assert_allclose(x[mask], u0[mask], atol=1e-12)


def test_dirichlet_system_operator_is_spd():
    n = 15
    A = _spd_matrix(n, seed=2)
    mask = np.zeros(n, dtype=bool)
    mask[:4] = True
    apply_hat, _ = dirichlet_system(
        lambda x: A @ x, np.zeros(n), np.zeros(n), mask
    )
    H = np.column_stack([apply_hat(e) for e in np.eye(n)])
    np.testing.assert_allclose(H, H.T, atol=1e-12)
    assert np.linalg.eigvalsh(H).min() > 0


def test_dirichlet_system_shape_mismatch():
    with pytest.raises(ValueError):
        dirichlet_system(lambda x: x, np.zeros(3), np.zeros(4), np.zeros(3, bool))
