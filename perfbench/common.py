"""Shared pieces of the benchmark: thread discipline, clock, statistics,
machine facts and the per-run result record."""

from __future__ import annotations

import os
import resource
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

#: every pool a BLAS or OpenMP build may start; pinned before numpy loads
THREAD_ENV = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)

#: CG tolerance of every solve in every workload
RTOL = 1e-6
#: a solve that stops in fewer iterations is a degenerate problem
#: (the Poisson-hex manufactured load converges in one), not a fast one
MIN_CG_ITERATIONS = 10


def pin_threads() -> None:
    """One BLAS/OpenMP thread per process; must run before numpy loads."""
    for name in THREAD_ENV:
        os.environ[name] = "1"


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not Linux
        return os.cpu_count() or 1


def cache_sizes() -> dict[str, str]:
    """Per-level data/unified cache sizes of cpu0, as sysfs reports them."""
    out: dict[str, str] = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    try:
        entries = sorted(os.listdir(base))
    except OSError:
        return out
    for entry in entries:
        try:
            with open(f"{base}/{entry}/level") as fh:
                level = fh.read().strip()
            with open(f"{base}/{entry}/type") as fh:
                kind = fh.read().strip()
            with open(f"{base}/{entry}/size") as fh:
                size = fh.read().strip()
        except OSError:
            continue
        if kind != "Instruction":
            out[f"L{level}"] = size
    return out


def machine(rank_threads: int) -> dict:
    """The machine facts every result carries."""
    from repro.obs.schema import machine_fingerprint

    if rank_threads > nproc():
        raise RuntimeError(
            f"{rank_threads} rank threads on {nproc()} cores oversubscribe"
        )
    info = machine_fingerprint()
    info.update(cache_sizes())
    info["nproc"] = nproc()
    info["rank_threads"] = rank_threads
    info["blas_threads"] = int(os.environ.get("OPENBLAS_NUM_THREADS", "0"))
    return info


def peak_rss_mb() -> float:
    """Peak resident set of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Clock:
    """``perf_counter`` that stops while answers are verified, so a
    closed loop's latencies and the run length exclude verification."""

    def __init__(self) -> None:
        self._paused = 0.0

    def now(self) -> float:
        return time.perf_counter() - self._paused

    @contextmanager
    def paused(self):
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self._paused += time.perf_counter() - t0


def median(xs) -> float:
    return float(statistics.median(xs)) if xs else 0.0


def p99(xs) -> float | None:
    """The 99th percentile, or None when fewer than ten samples lie
    beyond it (fewer than 1000 samples)."""
    if len(xs) < 1000:
        return None
    return float(statistics.quantiles(xs, n=100, method="inclusive")[98])


class Round:
    __slots__ = ("stratum",)

    def __init__(self) -> None:
        self.stratum = None


@dataclass
class Result:
    """Everything one pass of a workload measured."""

    workload: str
    #: timing samples: name -> list of seconds
    samples: dict[str, list[float]] = field(default_factory=dict)
    #: exact counts read from the program's public results
    counts: dict[str, float] = field(default_factory=dict)
    #: workload-specific values for the report (ratios, histograms)
    info: dict = field(default_factory=dict)
    #: every loop round: ``(traced, wall seconds, operations, stratum)``
    rounds: list[tuple] = field(default_factory=list)
    ops: int = 0  # completed operations (solves, requests, steps)
    attempted: int = 0  # verified operations
    failed: int = 0  # failed, refused or wrong operations
    loop_s: float = 0.0  # the operation loop, verification excluded

    def add(self, name: str, seconds: float) -> None:
        self.samples.setdefault(name, []).append(seconds)

    @contextmanager
    def round(self, tracer, clock: Clock):
        """One round of the workload loop.  In a traced run every other
        round is traced, so traced and untraced rounds see the same host
        load.  The round records its wall time, its operations and the
        ``stratum`` the body sets on the yielded handle: rounds of one
        stratum (a mesh, a batch shape) cost the same per operation."""
        tracer.request = len(self.rounds) + 1
        if tracer.alternate:
            tracer.active = len(self.rounds) % 2 == 1
        handle = Round()
        ops, t0 = self.ops, clock.now()
        try:
            yield handle
        finally:
            self.rounds.append((tracer.active, clock.now() - t0,
                                self.ops - ops, handle.stratum))
            if tracer.alternate:
                tracer.active = False

    def check(self, ok: bool) -> None:
        self.attempted += 1
        self.failed += not ok
