"""Deterministic in-process MPI runtime (the distributed-memory substitute).

The paper runs MPI on TACC Frontera.  This package provides an mpi4py-like
API whose ranks run as threads inside one process: a one-rank run uses
the calling thread, and a multi-rank run puts each rank on a parked
worker thread that is reused across runs.  A rank that waits
sleeps on its own gate until the matching send or collective deposit
hands off to it, and a wait that no live rank can satisfy raises at
once as a deadlock naming every blocked rank's wait:

* **Real data movement** — ``isend``/``irecv`` transfer actual NumPy
  payloads between rank mailboxes, so every distributed algorithm in the
  library is exercised end-to-end and checked bitwise against serial
  references.
* **Virtual time** — every rank carries a virtual clock advanced by
  (a) *measured* per-thread CPU time of its local NumPy compute
  (``time.thread_time``, so sibling ranks running at once do not pollute
  each other's measurements), and (b) *modeled*
  communication costs from an α–β :class:`~repro.simmpi.network.NetworkModel`
  that distinguishes intra-node from inter-node links.  Message completion
  respects true dependencies (a receive cannot complete before the matching
  send was posted plus transfer time), which is exactly what makes
  communication/computation overlap measurable — the paper's Alg. 2.

The scaling *shape* experiments use these virtual clocks; correctness tests
use the payloads.

A bound :class:`repro.faults.plan.FaultPlan` (``Simulator(...,
faults=plan)``) injects deterministic message/compute faults — delays,
reordering, drop+retry, stragglers, in-flight corruption with optional
payload checksums — for the chaos suite in :mod:`repro.faults`.
"""

from repro.simmpi.communicator import Communicator, Request
from repro.simmpi.engine import Simulator, run_spmd
from repro.simmpi.network import NetworkModel

__all__ = ["NetworkModel", "Simulator", "run_spmd", "Communicator", "Request"]
