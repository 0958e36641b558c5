"""Multi-objective scoring: dominance pruning and the Pareto front.

The tuner scores every candidate on three axes — serving throughput
(maximize), tail latency p99 (minimize), and resident memory footprint
(minimize).  :func:`pareto_front` keeps the non-dominated set; the front
is computed over a canonically sorted copy of the input so the result is
invariant to evaluation order (a property the hypothesis suite pins
down).
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["Objectives", "dominates", "pareto_front"]


@dataclass(frozen=True)
class Objectives:
    """One candidate's scores. Throughput is maximized, the rest minimized."""

    throughput_rps: float
    p99_s: float
    mem_bytes: float

    def as_min_tuple(self) -> tuple[float, float, float]:
        """All-minimization view (throughput negated) used for dominance."""
        return (-self.throughput_rps, self.p99_s, self.mem_bytes)

    def to_dict(self) -> dict:
        return {
            "throughput_rps": self.throughput_rps,
            "p99_s": self.p99_s,
            "mem_bytes": self.mem_bytes,
        }


def dominates(a: Objectives, b: Objectives) -> bool:
    """True iff ``a`` is no worse than ``b`` on every axis and strictly
    better on at least one (strict Pareto dominance)."""
    ta, tb = a.as_min_tuple(), b.as_min_tuple()
    return all(x <= y for x, y in zip(ta, tb)) and any(
        x < y for x, y in zip(ta, tb)
    )


def pareto_front(candidates: list) -> list:
    """Non-dominated subset of ``candidates``.

    Each candidate is an object with ``.objectives`` (an
    :class:`Objectives`) and ``.fingerprint`` (a stable id).  Duplicate
    fingerprints collapse to one entry.  The scan runs over a canonical
    sort (objective tuple, then fingerprint), so the returned front —
    including its order — does not depend on the order candidates were
    evaluated in.
    """
    by_fp: dict = {}
    for c in candidates:
        by_fp.setdefault(c.fingerprint, c)
    pool = sorted(
        by_fp.values(),
        key=lambda c: (c.objectives.as_min_tuple(), c.fingerprint),
    )
    front = []
    for c in pool:
        if not any(dominates(f.objectives, c.objectives) for f in front):
            front.append(c)
    return front
