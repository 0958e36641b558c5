"""Declarative search space: typed knobs over the system's tunables.

A :class:`Knob` is an ordered grid of admissible values (ranges are
materialized as explicit grids — linear or log-spaced — so every search
strategy moves on the same discrete lattice and configs fingerprint
stably).  Knobs may be *conditional* on the rest of the config (the SELL
``(C, sigma)`` pair only matters when the backend crossover routes any
shape to sellcs); inactive knobs are pinned to their default so two
configs that differ only in dead knobs share one fingerprint and one
evaluation-cache entry.

:data:`default_space` covers every hand-picked default the system
exposes: GPU streams ``Ns``, chunk count, micro-batch cap, cache
capacity, queue bound, the GEMM ``k_min``
crossover, the HYMV-vs-SELL backend crossover, and SELL ``(C, sigma)``.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from repro.core.sellcs import DEFAULT_C, DEFAULT_SIGMA_FACTOR

__all__ = [
    "Knob",
    "SearchSpace",
    "choice_knob",
    "default_space",
    "int_knob",
]


@dataclass(frozen=True)
class Knob:
    """One typed, ordered tunable.

    ``values`` is the full admissible grid in search order (adjacent
    entries are "neighbors" for hill-climb moves); ``condition`` gates
    the knob on the rest of the config — an inactive knob is pinned to
    ``default`` by :meth:`SearchSpace.normalize`.
    """

    name: str
    values: tuple
    default: Any
    kind: str = "choice"  # "int" | "choice"
    log: bool = False  # grid was log-spaced (documentation of intent)
    condition: Callable[[dict], bool] | None = field(
        default=None, compare=False
    )

    def __post_init__(self):
        if not self.values:
            raise ValueError(f"knob {self.name!r} has an empty grid")
        if len(set(self.values)) != len(self.values):
            raise ValueError(f"knob {self.name!r} grid has duplicates")
        if self.default not in self.values:
            raise ValueError(
                f"knob {self.name!r} default {self.default!r} not on the grid"
            )

    def active(self, config: dict) -> bool:
        return self.condition is None or bool(self.condition(config))

    def describe(self) -> dict:
        return {
            "name": self.name,
            "kind": self.kind,
            "values": list(self.values),
            "default": self.default,
            "log": self.log,
            "conditional": self.condition is not None,
        }


def int_knob(
    name: str,
    lo: int,
    hi: int,
    default: int,
    *,
    log: bool = False,
    step: int = 1,
    condition: Callable[[dict], bool] | None = None,
) -> Knob:
    """An integer range knob, materialized as an explicit grid.

    ``log=True`` doubles from ``lo`` to ``hi`` (powers-of-two ladder,
    the natural spacing for stream counts and batch caps); otherwise the
    grid is ``lo, lo+step, ...``.
    """
    if log:
        vals, v = [], int(lo)
        while v < hi:
            vals.append(v)
            v *= 2
        vals.append(int(hi))
    else:
        vals = list(range(int(lo), int(hi) + 1, int(step)))
        if vals[-1] != hi:
            vals.append(int(hi))
    return Knob(
        name=name, values=tuple(vals), default=default, kind="int",
        log=log, condition=condition,
    )


def choice_knob(
    name: str,
    values: tuple,
    default: Any,
    condition: Callable[[dict], bool] | None = None,
) -> Knob:
    return Knob(
        name=name, values=tuple(values), default=default, kind="choice",
        condition=condition,
    )


@dataclass(frozen=True)
class SearchSpace:
    """An ordered collection of knobs with seeded move operators.

    Every operator (sample, neighbor, mutate, crossover) draws from a
    caller-supplied ``numpy`` generator and returns a *normalized*
    config — values on the grid, inactive knobs pinned — so identical
    seeds give identical search trajectories on every machine.
    """

    knobs: tuple

    def __post_init__(self):
        names = [k.name for k in self.knobs]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate knob names in {names}")

    def knob(self, name: str) -> Knob:
        for k in self.knobs:
            if k.name == name:
                return k
        raise KeyError(name)

    def default_config(self) -> dict:
        return {k.name: k.default for k in self.knobs}

    def normalize(self, config: dict) -> dict:
        """Project onto the space: every knob present, every value on its
        grid, inactive knobs pinned to their default.

        Conditions are evaluated against the partially-normalized config
        in knob order, so conditional knobs may only depend on knobs
        declared before them (the declaration order is the dependency
        order).
        """
        out: dict = {}
        for k in self.knobs:
            v = config.get(k.name, k.default)
            if v not in k.values:
                raise ValueError(
                    f"knob {k.name!r}: value {v!r} not on the grid {k.values}"
                )
            out[k.name] = v if k.active(out) else k.default
        return out

    def fingerprint(self, config: dict) -> str:
        """Stable short hash of the normalized config (the evaluation
        cache key): configs that differ only in inactive knobs collide
        by construction."""
        canon = json.dumps(self.normalize(config), sort_keys=True)
        return hashlib.sha1(canon.encode()).hexdigest()[:12]

    # ------------------------------------------------------------------
    # seeded move operators
    # ------------------------------------------------------------------

    def sample(self, rng: np.random.Generator) -> dict:
        """One uniform draw per knob (inactive knobs then pinned)."""
        cfg = {
            k.name: k.values[int(rng.integers(len(k.values)))]
            for k in self.knobs
        }
        return self.normalize(cfg)

    def neighbor(self, config: dict, rng: np.random.Generator) -> dict:
        """One hill-climb move: pick an active knob uniformly, step one
        grid position up or down (choices/bools jump to a different
        value)."""
        config = self.normalize(config)
        active = [k for k in self.knobs if k.active(config)]
        k = active[int(rng.integers(len(active)))]
        i = k.values.index(config[k.name])
        if k.kind == "int" and len(k.values) > 1:
            j = i + (1 if rng.random() < 0.5 else -1)
            j = min(max(j, 0), len(k.values) - 1)
            if j == i:  # bounced off the edge: step the other way
                j = i + (1 if i == 0 else -1)
        else:
            others = [jj for jj in range(len(k.values)) if jj != i]
            if not others:
                return config
            j = others[int(rng.integers(len(others)))]
        out = dict(config)
        out[k.name] = k.values[j]
        return self.normalize(out)

    def mutate(
        self, config: dict, rng: np.random.Generator, p: float = 0.3
    ) -> dict:
        """Evolutionary mutation: each knob independently resampled with
        probability ``p`` (grid-uniform)."""
        config = self.normalize(config)
        out = dict(config)
        for k in self.knobs:
            if rng.random() < p:
                out[k.name] = k.values[int(rng.integers(len(k.values)))]
        return self.normalize(out)

    def crossover(
        self, a: dict, b: dict, rng: np.random.Generator
    ) -> dict:
        """Uniform crossover of two parents."""
        a, b = self.normalize(a), self.normalize(b)
        child = {
            k.name: (a if rng.random() < 0.5 else b)[k.name]
            for k in self.knobs
        }
        return self.normalize(child)

    def describe(self) -> list[dict]:
        return [k.describe() for k in self.knobs]


def _sell_routed(cfg: dict) -> bool:
    # the (C, sigma) pair only matters once the backend crossover can
    # route at least one shape to the SELL backend
    return cfg.get("sellcs_crossover_dofs", 0) > 0


def default_space() -> SearchSpace:
    """The full system search space (ISSUE 10's knob inventory)."""
    return SearchSpace(knobs=(
        # GPU stream pipeline (Algorithm 3)
        choice_knob("n_streams", (1, 2, 4, 8, 16), default=8),
        int_knob("gpu_chunks", 2, 64, default=8, log=True),
        # serving tier
        choice_knob("max_batch", (2, 4, 6, 8, 12, 16, 24, 32), default=8),
        choice_knob("cache_capacity", (1, 2, 3, 4, 6, 8), default=2),
        int_knob("queue_capacity", 8, 128, default=32, log=True),
        # BLAS3 crossover
        int_knob("gemm_k_min", 1, 32, default=8, log=True),
        # backend routing: largest dof count still served by SELL
        # (0 = every shape stays on HYMV)
        choice_knob(
            "sellcs_crossover_dofs",
            (0, 100, 400, 1000, 5000, 20000),
            default=0,
        ),
        # SELL-C-sigma layout, live only when some shape routes to it
        choice_knob(
            "sell_c", (4, 8, 16, 32, 64), default=DEFAULT_C,
            condition=_sell_routed,
        ),
        choice_knob(
            "sell_sigma_factor", (1, 2, 8, 16),
            default=DEFAULT_SIGMA_FACTOR, condition=_sell_routed,
        ),
    ))
