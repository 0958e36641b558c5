"""Thread-per-rank SPMD execution engine."""

from __future__ import annotations

import threading
from typing import Any, Callable, Sequence

from repro.faults.plan import FaultPlan
from repro.simmpi.communicator import Communicator, _Aborted, _Mailbox
from repro.simmpi.network import NetworkModel

__all__ = ["Simulator", "run_spmd"]

MAX_RANKS = 256


class _Rendezvous:
    """Reusable all-ranks exchange point (the collective substrate)."""

    def __init__(self, n: int, abort: threading.Event) -> None:
        self._n = n
        self._abort = abort
        self._cond = threading.Condition()
        self._slots: list[Any] = [None] * n
        self._count = 0
        self._gen = 0
        self._result: list[Any] = []

    def exchange(self, rank: int, value: Any) -> list[Any]:
        with self._cond:
            gen = self._gen
            self._slots[rank] = value
            self._count += 1
            if self._count == self._n:
                self._result = list(self._slots)
                self._slots = [None] * self._n
                self._count = 0
                self._gen += 1
                self._cond.notify_all()
                return self._result
            while self._gen == gen:
                if self._abort.is_set():
                    raise _Aborted()
                self._cond.wait(timeout=0.05)
            return self._result

    def wake(self) -> None:
        with self._cond:
            self._cond.notify_all()


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
        self.abort_event = threading.Event()
        self._mailboxes = [_Mailbox(self.abort_event) for _ in range(n_ranks)]
        self._rendezvous = _Rendezvous(n_ranks, self.abort_event)
        self.comms = [Communicator(self, r) for r in range(n_ranks)]

    def mailbox(self, rank: int) -> _Mailbox:
        return self._mailboxes[rank]

    def exchange(self, rank: int, value: Any) -> list[Any]:
        return self._rendezvous.exchange(rank, value)

    @property
    def vtimes(self) -> list[float]:
        """Per-rank virtual clocks (inspect after :meth:`run`)."""
        return [c.vtime for c in self.comms]

    @property
    def max_vtime(self) -> float:
        return max(self.vtimes)

    def _abort(self) -> None:
        self.abort_event.set()
        self._rendezvous.wake()
        for mb in self._mailboxes:
            mb.wake()

    def run(
        self,
        program: Callable[..., Any],
        rank_args: Sequence[tuple] | None = None,
        **shared_kwargs: Any,
    ) -> list[Any]:
        """Execute ``program(comm, *rank_args[r], **shared_kwargs)`` on
        every rank concurrently; returns per-rank results.

        Any rank exception aborts the whole run and is re-raised (first
        by rank order).  Leftover unreceived messages are a protocol
        error and raise.
        """
        results: list[Any] = [None] * self.n_ranks
        errors: list[BaseException | None] = [None] * self.n_ranks

        def runner(rank: int) -> None:
            args = rank_args[rank] if rank_args is not None else ()
            try:
                results[rank] = program(self.comms[rank], *args, **shared_kwargs)
            except _Aborted:
                pass  # killed because a peer failed
            except BaseException as exc:  # noqa: BLE001 - re-raised below
                errors[rank] = exc
                self._abort()

        if self.n_ranks == 1:
            runner(0)
        else:
            threads = [
                threading.Thread(target=runner, args=(r,), daemon=True)
                for r in range(self.n_ranks)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=600.0)
                if t.is_alive():
                    self._abort()
                    raise RuntimeError(
                        "simulated rank deadlocked (600 s timeout)"
                    )
        for err in errors:
            if err is not None:
                raise err
        for r, mb in enumerate(self._mailboxes):
            if not mb.empty():
                raise RuntimeError(
                    f"rank {r} finished with unreceived messages "
                    "(mismatched send/recv protocol)"
                )
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
