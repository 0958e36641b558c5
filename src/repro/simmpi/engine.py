"""SPMD execution engine: parked rank threads with direct-handoff waits.

Ranks run free on worker threads taken from a module-level pool, so
their NumPy work overlaps on a multi-core host.  A worker is started
once and parks on its own lock between runs; the pool grows only to the
largest number of ranks in flight at once.

All mailbox queues and the collective state of one :class:`Simulator`
sit under one lock.  A rank that must wait records what it waits for,
``("recv", src, tag)`` or ``("collective", gen)``, and blocks on its own
gate; the message or collective deposit that satisfies it releases
exactly that gate.  Since every wait is recorded, a rank that would block
(or exits) while every other live rank is blocked is a deadlock, and the
run raises at once with each blocked rank's wait.
"""

from __future__ import annotations

import os
import threading
from typing import Any, Callable, Sequence

from repro.faults.plan import FaultPlan
from repro.simmpi.communicator import Communicator, _Aborted, _Mailbox, _Message
from repro.simmpi.network import NetworkModel

__all__ = ["Simulator", "run_spmd"]

MAX_RANKS = 256

#: the one bounded wait: a run whose ranks are all busy (none blocked, so
#: no deadlock is detectable) for this long is reported as stuck
WALL_GUARD_S = 600.0


def _closed_gate() -> threading.Lock:
    gate = threading.Lock()
    gate.acquire()
    return gate


class _Worker:
    """A rank thread that runs one job per release of its gate."""

    def __init__(self) -> None:
        self.gate = _closed_gate()
        self.job: Callable[[_Worker], None] | None = None
        threading.Thread(target=self._loop, name="simmpi-rank", daemon=True).start()

    def _loop(self) -> None:
        while True:
            self.gate.acquire()
            job, self.job = self.job, None
            job(self)


_idle: list[_Worker] = []
_idle_lock = threading.Lock()


def _forget_workers() -> None:
    """A forked child has none of its parent's threads: start afresh."""
    global _idle_lock
    _idle.clear()
    _idle_lock = threading.Lock()


if hasattr(os, "register_at_fork"):  # not on Windows
    os.register_at_fork(after_in_child=_forget_workers)


def _start(jobs: list[Callable[[_Worker], None]]) -> None:
    """Run each ``job(worker)`` on a parked worker (started if none is
    idle).  A job hands its worker back with :func:`_park` before it
    signals completion, so a caller that starts the next run at once
    finds the worker idle."""
    with _idle_lock:
        workers = [_idle.pop() for _ in range(min(len(jobs), len(_idle)))]
    workers += [_Worker() for _ in range(len(jobs) - len(workers))]
    for w, job in zip(workers, jobs):
        w.job = job
        w.gate.release()


def _park(worker: _Worker) -> None:
    with _idle_lock:
        _idle.append(worker)


class Simulator:
    """Runs an SPMD program on ``n_ranks`` simulated MPI ranks.

    Parameters
    ----------
    n_ranks:
        Number of ranks (threads).  Bounded by ``MAX_RANKS``; paper-scale
        rank counts are handled by the analytic model in
        :mod:`repro.perfmodel`, not by emulation.
    network:
        Communication cost model (default: Frontera-like
        :class:`NetworkModel`).
    compute_scale:
        Factor applied to measured compute durations before advancing
        virtual clocks.  ``1.0`` reports this host's speed; the perfmodel
        calibration uses it to map onto Frontera core speeds.
    faults:
        Optional :class:`repro.faults.plan.FaultPlan`; when given, the
        plan is bound to this run and the communicators inject its
        message/compute faults (chaos testing).
    """

    def __init__(
        self,
        n_ranks: int,
        network: NetworkModel | None = None,
        compute_scale: float = 1.0,
        trace: bool = False,
        faults: FaultPlan | None = None,
    ):
        if not (1 <= n_ranks <= MAX_RANKS):
            raise ValueError(f"n_ranks must be in [1, {MAX_RANKS}]")
        self.n_ranks = n_ranks
        self.network = network or NetworkModel()
        self.compute_scale = compute_scale
        self.trace_enabled = trace
        #: bound per-run fault injector (None = fault-free)
        self.faults = faults.bind(n_ranks) if faults is not None else None
        #: one gate per rank, released by whoever satisfies its wait
        self._gates = [_closed_gate() for _ in range(n_ranks)]
        #: released by the last rank to exit a run
        self._done = _closed_gate()
        # the state below is guarded by _lock
        self._lock = threading.Lock()
        self._mailboxes = [_Mailbox() for _ in range(n_ranks)]
        self._waits: list[tuple | None] = [None] * n_ranks
        self._blocked = 0
        self._live = 0
        self._aborted = False
        self._deadlock: RuntimeError | None = None
        self._slots: list[Any] = [None] * n_ranks
        self._count = 0
        self._gen = 0
        self._result: list[Any] = []
        self.comms = [Communicator(self, r) for r in range(n_ranks)]

    @property
    def vtimes(self) -> list[float]:
        """Per-rank virtual clocks (inspect after :meth:`run`)."""
        return [c.vtime for c in self.comms]

    @property
    def max_vtime(self) -> float:
        return max(self.vtimes)

    # ------------------------------------------------------------------
    # blocking substrate: _claim, _block and _abort run under _lock
    # ------------------------------------------------------------------

    def deliver(
        self, dest: int, source: int, tag: int, msg: _Message, front: bool = False
    ) -> None:
        """Enqueue ``msg`` for ``dest``; wakes ``dest`` if it waits on
        this ``(source, tag)``."""
        with self._lock:
            self._mailboxes[dest].put(source, tag, msg, front=front)
            woken = self._waits[dest] == ("recv", source, tag)
            if woken:
                self._claim(dest)
        if woken:
            self._gates[dest].release()

    def receive(self, rank: int, source: int, tag: int, seq: int) -> _Message:
        """Take message ``seq`` of ``(source, tag)`` from ``rank``'s
        mailbox, blocking until it arrives."""
        mb = self._mailboxes[rank]
        with self._lock:
            while (msg := mb.take(source, tag, seq)) is None:
                self._block(rank, ("recv", source, tag))
            return msg

    def exchange(self, rank: int, value: Any) -> list[Any]:
        """All-ranks exchange point (the collective substrate): returns
        every rank's ``value`` in rank order."""
        with self._lock:
            gen = self._gen
            self._slots[rank] = value
            self._count += 1
            if self._count < self.n_ranks:
                while self._gen == gen:
                    self._block(rank, ("collective", gen))
                return self._result
            result = self._result = self._slots
            self._slots = [None] * self.n_ranks
            self._count = 0
            self._gen += 1
            done = ("collective", gen)
            woken = [r for r, w in enumerate(self._waits) if w == done]
            for r in woken:
                self._claim(r)
        for r in woken:
            self._gates[r].release()
        return result

    def _claim(self, rank: int) -> None:
        """Mark blocked ``rank`` runnable; the caller releases its gate
        (after dropping ``_lock`` on the hot paths)."""
        self._waits[rank] = None
        self._blocked -= 1

    def _block(self, rank: int, what: tuple) -> None:
        """Park ``rank`` on its gate until a peer claims it; re-takes
        ``_lock`` before returning, so the caller re-tests its
        condition."""
        if self._aborted:
            raise _Aborted()
        self._waits[rank] = what
        self._blocked += 1
        if self._blocked == self._live:
            self._abort(deadlock=True)
            raise _Aborted()
        self._lock.release()
        self._gates[rank].acquire()
        self._lock.acquire()

    def _abort(self, deadlock: bool = False) -> None:
        """Fail the run: wake every blocked rank; each then raises
        :class:`_Aborted` at its next wait."""
        if deadlock and self._deadlock is None:
            waits = "; ".join(
                f"rank {r} waits for {w}"
                for r, w in enumerate(self._waits)
                if w is not None
            )
            self._deadlock = RuntimeError(f"simulated ranks deadlocked: {waits}")
        self._aborted = True
        for r, w in enumerate(self._waits):
            if w is not None:
                self._claim(r)
                self._gates[r].release()

    def _exit(self, rank: int) -> None:
        with self._lock:
            self._live -= 1
            if self._live and self._blocked == self._live:
                self._abort(deadlock=True)
            if not self._live:
                self._done.release()

    def _reset_channels(self) -> None:
        """Drop the protocol state a failed run left behind, so the next
        run starts from empty mailboxes and matched sequence numbers."""
        for mb in self._mailboxes:
            mb.clear()
        self._slots = [None] * self.n_ranks
        self._count = 0
        for c in self.comms:
            c.reset_sequences()

    def run(
        self,
        program: Callable[..., Any],
        rank_args: Sequence[tuple] | None = None,
        **shared_kwargs: Any,
    ) -> list[Any]:
        """Execute ``program(comm, *rank_args[r], **shared_kwargs)`` on
        every rank concurrently; returns per-rank results.

        One rank runs on the calling thread; more ranks each run on a
        parked pool worker.  Any rank exception aborts the whole run and
        is re-raised (first by rank order); a deadlock raises at once
        naming every blocked rank's wait.  Leftover unreceived messages
        are a protocol error and raise.
        """
        n = self.n_ranks
        results: list[Any] = [None] * n
        errors: list[BaseException | None] = [None] * n
        self._live, self._aborted, self._deadlock = n, False, None

        def runner(rank: int, worker: _Worker | None = None) -> None:
            args = rank_args[rank] if rank_args is not None else ()
            try:
                results[rank] = program(self.comms[rank], *args, **shared_kwargs)
            except _Aborted:
                pass  # killed because a peer failed or the ranks deadlocked
            except BaseException as exc:  # noqa: BLE001 - re-raised below
                errors[rank] = exc
                with self._lock:
                    self._abort()
            if worker is not None:
                _park(worker)
            self._exit(rank)

        if n == 1:
            runner(0)
        else:
            _start([lambda w, r=r: runner(r, w) for r in range(n)])
        if not self._done.acquire(timeout=WALL_GUARD_S):
            with self._lock:
                self._abort()
            raise RuntimeError(
                f"simulated ranks still busy after the {WALL_GUARD_S:.0f} s "
                "wall guard"
            )
        try:
            for err in errors:
                if err is not None:
                    raise err
            if self._deadlock is not None:
                raise self._deadlock
            for r, mb in enumerate(self._mailboxes):
                if not mb.empty():
                    raise RuntimeError(
                        f"rank {r} finished with unreceived messages "
                        "(mismatched send/recv protocol)"
                    )
        except BaseException:
            self._reset_channels()
            raise
        return results


def run_spmd(
    n_ranks: int,
    program: Callable[..., Any],
    rank_args: Sequence[tuple] | None = None,
    network: NetworkModel | None = None,
    compute_scale: float = 1.0,
    trace: bool = False,
    faults: FaultPlan | None = None,
    **shared_kwargs: Any,
) -> tuple[list[Any], Simulator]:
    """Convenience wrapper: build a :class:`Simulator`, run, return
    ``(per-rank results, simulator)``."""
    sim = Simulator(
        n_ranks,
        network=network,
        compute_scale=compute_scale,
        trace=trace,
        faults=faults,
    )
    results = sim.run(program, rank_args=rank_args, **shared_kwargs)
    return results, sim
