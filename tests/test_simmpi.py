"""Simulated MPI runtime: semantics, determinism, virtual time."""

from __future__ import annotations

import os
import signal
import sys
import threading
import time

import numpy as np
import pytest

from repro.simmpi import NetworkModel, Simulator, run_spmd


def test_point_to_point_roundtrip():
    def prog(comm):
        nxt, prv = (comm.rank + 1) % comm.size, (comm.rank - 1) % comm.size
        comm.isend(np.arange(5) + comm.rank, nxt, tag=3)
        got = comm.recv(prv, tag=3)
        np.testing.assert_array_equal(got, np.arange(5) + prv)
        return True

    res, _ = run_spmd(6, prog)
    assert all(res)


def test_message_payload_is_copied():
    def prog(comm):
        if comm.rank == 0:
            buf = np.ones(4)
            comm.isend(buf, 1)
            buf[:] = -1.0  # mutate after send: receiver must see ones
            comm.barrier()
            return None
        got = comm.recv(0)
        comm.barrier()
        return got

    res, _ = run_spmd(2, prog)
    np.testing.assert_array_equal(res[1], np.ones(4))


def test_fifo_ordering_same_source_tag():
    def prog(comm):
        if comm.rank == 0:
            for i in range(5):
                comm.isend(np.array([i]), 1, tag=9)
            return None
        return [int(comm.recv(0, tag=9)[0]) for _ in range(5)]

    res, _ = run_spmd(2, prog)
    assert res[1] == [0, 1, 2, 3, 4]


def test_collectives_values_and_determinism():
    def prog(comm):
        s = comm.allreduce(comm.rank + 1.5)
        mx = comm.allreduce(float(comm.rank), op="max")
        mn = comm.allreduce(float(comm.rank), op="min")
        g = comm.allgather(comm.rank * 2)
        b = comm.bcast("hello" if comm.rank == 2 else None, root=2)
        return s, mx, mn, g, b

    for _ in range(3):  # determinism across repeated runs
        res, _ = run_spmd(5, prog)
        for s, mx, mn, g, b in res:
            assert s == sum(r + 1.5 for r in range(5))
            assert mx == 4.0 and mn == 0.0
            assert g == [0, 2, 4, 6, 8]
            assert b == "hello"


def test_allreduce_array():
    def prog(comm):
        return comm.allreduce(np.full(3, float(comm.rank)))

    res, _ = run_spmd(4, prog)
    np.testing.assert_allclose(res[0], np.full(3, 6.0))


def test_alltoall_personalized():
    def prog(comm):
        out = comm.alltoall(
            [np.array([comm.rank * 100 + d]) for d in range(comm.size)]
        )
        return [int(v[0]) for v in out]

    res, _ = run_spmd(4, prog)
    for r, row in enumerate(res):
        assert row == [s * 100 + r for s in range(4)]


def test_exception_propagates_and_aborts_peers():
    def prog(comm):
        if comm.rank == 1:
            raise KeyError("rank1 failure")
        comm.recv(1)  # would deadlock without the abort path

    with pytest.raises(KeyError):
        run_spmd(3, prog)


def _bounded(fn, timeout: float = 10.0):
    """Run ``fn`` on a helper thread; returns ``(exception, seconds)``.
    A hang fails the test instead of the suite."""
    out: dict = {}

    def target():
        t0 = time.perf_counter()
        try:
            fn()
        except Exception as exc:  # noqa: BLE001 - handed to the test
            out["exc"] = exc
        out["dt"] = time.perf_counter() - t0

    t = threading.Thread(target=target, daemon=True)
    t.start()
    t.join(timeout=timeout)
    assert not t.is_alive(), "simulated run hung"
    return out.get("exc"), out["dt"]


@pytest.mark.parametrize(
    "n, prog, waits",
    [
        (1, lambda c: c.recv(0, 9), ["rank 0 waits for ('recv', 0, 9)"]),
        (
            2,
            lambda c: c.recv(1 - c.rank, 3),
            ["rank 0 waits for ('recv', 1, 3)", "rank 1 waits for ('recv', 0, 3)"],
        ),
        (
            3,
            lambda c: None if c.rank == 0 else c.allreduce(1.0),
            [
                "rank 1 waits for ('collective', 0)",
                "rank 2 waits for ('collective', 0)",
            ],
        ),
    ],
    ids=["p1-recv", "p2-crossed-recv", "p3-exit-in-allreduce"],
)
def test_deadlock_raises_at_once_naming_each_wait(n, prog, waits):
    exc, dt = _bounded(lambda: run_spmd(n, prog))
    assert isinstance(exc, RuntimeError), exc
    msg = str(exc)
    assert msg.startswith("simulated ranks deadlocked: ")
    assert msg.count("waits for") == len(waits)
    for w in waits:
        assert w in msg
    assert dt < 1.0


def test_failed_run_leaves_simulator_reusable():
    """A rank fails while its peers sit in recv and in allreduce, leaving
    an unreceived message and a half-filled collective behind; the same
    simulator then runs a clean program to exact results."""

    def failing(comm):
        if comm.rank == 0:
            time.sleep(0.05)  # let the peers block first
            raise KeyError("rank0 failure")
        if comm.rank == 1:
            comm.isend(np.full(3, -1.0), 2, tag=7)
            comm.recv(0, tag=1)
        else:
            comm.allreduce(1.0)

    def clean(comm):
        comm.isend(np.full(3, float(comm.rank)), (comm.rank + 1) % 4, tag=7)
        got = comm.recv((comm.rank - 1) % 4, tag=7)
        return got, comm.allreduce(np.full(2, float(comm.rank)))

    sim = Simulator(4)
    exc, _ = _bounded(lambda: sim.run(failing))
    assert isinstance(exc, KeyError)
    out: list = []
    exc, _ = _bounded(lambda: out.extend(sim.run(clean)))
    assert exc is None, exc
    assert len(out) == 4
    for r, (got, total) in enumerate(out):
        np.testing.assert_array_equal(got, np.full(3, float((r - 1) % 4)))
        np.testing.assert_array_equal(total, np.full(2, 6.0))


def test_runs_reuse_parked_rank_threads():
    threads: set = set()

    def prog(comm):
        threads.add(threading.current_thread())
        return comm.allreduce(comm.rank)

    sim = Simulator(4)
    sim.run(prog)  # warm-up: the pool grows to four parked workers
    threads.clear()
    before = threading.active_count()
    for _ in range(200):
        assert sim.run(prog) == [6] * 4
    assert threading.active_count() <= before + 4
    assert len(threads) == 4
    assert threading.current_thread() not in threads


def test_handoff_survives_preemption_with_more_ranks_than_cores():
    """Ring exchanges and allreduces with a tiny switch interval: a lost
    wakeup shows as a false deadlock error or a hang, a lost update as a
    wrong sum."""

    def prog(comm):
        acc = 0
        for i in range(100):
            comm.isend(comm.rank + i, (comm.rank + 1) % comm.size, tag=i % 3)
            acc += comm.recv((comm.rank - 1) % comm.size, tag=i % 3)
            assert comm.allreduce(comm.rank + i) == 28 + 8 * i
        return acc

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        exc, _ = _bounded(lambda: run_spmd(8, prog), timeout=60.0)
    finally:
        sys.setswitchinterval(old)
    assert exc is None, exc


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_forked_child_starts_its_own_rank_threads():
    run_spmd(2, lambda c: c.barrier())  # this process now has parked workers
    pid = os.fork()
    if pid == 0:  # the child dies by SIGALRM if the run hangs
        signal.alarm(10)
        ok = run_spmd(2, lambda c: c.allreduce(1))[0] == [2, 2]
        os._exit(0 if ok else 1)
    _, status = os.waitpid(pid, 0)
    assert os.waitstatus_to_exitcode(status) == 0


def test_unreceived_messages_flagged():
    def prog(comm):
        if comm.rank == 0:
            comm.isend(np.zeros(1), 1)
        comm.barrier()

    with pytest.raises(RuntimeError, match="unreceived"):
        run_spmd(2, prog)


def test_virtual_time_monotone_and_message_causality():
    def prog(comm):
        marks = [comm.vtime]
        if comm.rank == 0:
            comm.advance(0.5, "work")
            comm.isend(np.zeros(1), 1)
            marks.append(comm.vtime)
        else:
            got = comm.recv(0)
            marks.append(comm.vtime)
        comm.barrier()
        marks.append(comm.vtime)
        return marks

    res, sim = run_spmd(2, prog)
    for marks in res:
        assert all(b >= a for a, b in zip(marks, marks[1:]))
    # receiver cannot complete before the send was posted (t=0.5)
    assert res[1][1] >= 0.5
    # barrier synchronizes clocks
    assert abs(res[0][-1] - res[1][-1]) < 1e-12


def test_overlap_reduces_total_time():
    def prog(comm, do_overlap):
        if comm.rank == 0:
            comm.isend(np.zeros(1_000_000), 1)
            comm.barrier()
        else:
            req = comm.irecv(0)
            if do_overlap:
                comm.advance(0.01, "compute")
                comm.wait(req)
            else:
                comm.wait(req)
                comm.advance(0.01, "compute")
            comm.barrier()

    _, s1 = run_spmd(2, prog, do_overlap=True)
    _, s2 = run_spmd(2, prog, do_overlap=False)
    assert s1.max_vtime < s2.max_vtime


def test_compute_context_measures_and_labels():
    def prog(comm):
        with comm.compute("kernel"):
            np.ones(200_000) @ np.ones(200_000)
        return comm.obs.total("kernel")

    res, _ = run_spmd(2, prog)
    assert all(t > 0 for t in res)


def test_compute_scale_applied():
    def prog(comm):
        with comm.compute("k"):
            np.ones(100_000) @ np.ones(100_000)
        return comm.vtime

    _, s1 = run_spmd(1, prog, compute_scale=1.0)
    _, s2 = run_spmd(1, prog, compute_scale=0.0)
    assert s2.max_vtime == 0.0
    assert s1.max_vtime > 0.0


def test_network_model_topology():
    net = NetworkModel(cores_per_node=4)
    assert net.same_node(0, 3) and not net.same_node(3, 4)
    intra = net.msg_time(0, 1, 8000)
    inter = net.msg_time(0, 5, 8000)
    assert inter > intra
    assert net.allreduce_time(1, 8) == 0.0
    assert net.allreduce_time(16, 8) == 4 * net.allreduce_time(2, 8)


def test_invalid_ranks_rejected():
    def prog(comm):
        with pytest.raises(ValueError):
            comm.isend(np.zeros(1), comm.size)
        with pytest.raises(ValueError):
            comm.irecv(-1)
        comm.barrier()

    run_spmd(2, prog)


def test_simulator_rank_bounds():
    with pytest.raises(ValueError):
        Simulator(0)
    with pytest.raises(ValueError):
        Simulator(100000)


def test_advance_rejects_negative():
    def prog(comm):
        with pytest.raises(ValueError):
            comm.advance(-1.0)

    run_spmd(1, prog)


def test_wait_is_idempotent():
    """A second wait on a completed request returns the cached payload
    without advancing the clock or double-counting traffic."""

    def prog(comm):
        if comm.rank == 0:
            sreq = comm.isend(np.arange(3, dtype=np.float64), 1, tag=4)
            comm.wait(sreq)
            comm.wait(sreq)  # double-wait on a send: no-op
            comm.barrier()
            return None
        req = comm.irecv(0, tag=4)
        first = comm.wait(req)
        t = comm.vtime
        msgs = comm.obs.counter("comm.msgs_recv")
        again = comm.wait(req)
        assert again is first  # cached payload, not a re-receive
        assert comm.vtime == t
        assert comm.obs.counter("comm.msgs_recv") == msgs
        comm.barrier()
        return first

    res, _ = run_spmd(2, prog)
    np.testing.assert_array_equal(res[1], np.arange(3.0))


def test_waitall_order_preserved_under_reorder_fault():
    """Sequence-numbered matching restores MPI's non-overtaking guarantee:
    even when a fault plan permutes physical delivery, waitall returns
    payloads in posted-request order."""
    from repro.faults import FaultPlan, Reorder

    def prog(comm):
        if comm.rank == 0:
            for i in range(3):
                comm.isend(np.array([float(i)]), 1, tag=7)
            comm.barrier()
            return comm.obs.counter("faults.reordered")
        reqs = [comm.irecv(0, tag=7) for _ in range(3)]
        vals = [float(v[0]) for v in comm.waitall(reqs)]
        comm.barrier()
        return vals

    plan = FaultPlan(rules=(Reorder(period=2, src=0, dst=1, tag=7),))
    res, _ = run_spmd(2, prog, faults=plan)
    assert res[0] == 1  # the second message physically overtook the first
    assert res[1] == [0.0, 1.0, 2.0]
