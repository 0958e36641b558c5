"""Property-based laws of the autotuner machinery.

* Pareto: no dominated point ever survives the front, the front is
  invariant under any permutation of the candidates, and every dropped
  candidate is dominated by some front member (no over-pruning).
* Search: the full strategy battery is a pure function of the seed.
* Evaluation cache: a config re-probed under any fingerprint-preserving
  rewrite (knob order, inactive-knob noise) hits the cache and returns
  the identical result.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.tune.evaluate import BaseEvaluator
from repro.tune.pareto import Objectives, dominates, pareto_front
from repro.tune.space import default_space
from repro.tune.strategies import run_search

# small positive floats with ties made likely (ties are the sharp edge
# of dominance logic)
_vals = st.sampled_from([1.0, 2.0, 3.0, 5.0, 8.0])


class _Cand:
    def __init__(self, i, thr, p99, mem):
        self.fingerprint = f"c{i:04d}-{thr}-{p99}-{mem}"
        self.objectives = Objectives(thr, p99, mem)


_cands = st.lists(
    st.tuples(_vals, _vals, _vals), min_size=1, max_size=24
).map(lambda ts: [_Cand(i, *t) for i, t in enumerate(ts)])


class TestParetoProperties:
    @given(_cands)
    @settings(max_examples=200, deadline=None)
    def test_no_dominated_point_survives(self, cands):
        front = pareto_front(cands)
        assert front
        for a in front:
            for b in front:
                assert not dominates(a.objectives, b.objectives) or a is b

    @given(_cands, st.randoms(use_true_random=False))
    @settings(max_examples=200, deadline=None)
    def test_front_is_order_invariant(self, cands, rnd):
        ref = pareto_front(cands)
        shuffled = list(cands)
        rnd.shuffle(shuffled)
        perm = pareto_front(shuffled)
        assert [c.fingerprint for c in ref] == [c.fingerprint for c in perm]

    @given(_cands)
    @settings(max_examples=200, deadline=None)
    def test_every_dropped_candidate_is_dominated(self, cands):
        front = pareto_front(cands)
        kept = {c.fingerprint for c in front}
        for c in cands:
            if c.fingerprint in kept:
                continue
            assert any(
                dominates(f.objectives, c.objectives)
                or f.objectives == c.objectives
                for f in front
            )


class _StubEvaluator(BaseEvaluator):
    """Deterministic analytic metrics (no harness runs)."""

    def _compute(self, config):
        thr = 1e4 / config["max_batch"] + config["n_streams"]
        return {
            "serve.throughput_rps": thr,
            "serve.p99_s": 1e-4 * config["max_batch"]
            + 1e-6 * config["queue_capacity"],
            "serve.time_per_req_s": 1.0 / thr,
            "solve.vtime_s": 1e-3 if config["gemm_k_min"] >= 8 else 2e-3,
            "model.gpu_pipeline_s": 1e-2 / config["n_streams"]
            + 1e-4 * config["gpu_chunks"],
            "mem.bytes": float(
                config["cache_capacity"] * 1000
                + config["queue_capacity"] * 8
                + config["max_batch"] * 16
            ),
        }


class TestSearchDeterminism:
    @given(st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=20, deadline=None)
    def test_battery_is_a_pure_function_of_the_seed(self, seed):
        space = default_space()
        runs = []
        for _ in range(2):
            traj, results = run_search(
                space, _StubEvaluator(space), seed, budget_per_strategy=6
            )
            runs.append((traj, [r.fingerprint for r in results]))
        assert runs[0] == runs[1]

    def test_different_seeds_can_diverge(self):
        space = default_space()
        t1, _ = run_search(space, _StubEvaluator(space), 1, 6)
        t2, _ = run_search(space, _StubEvaluator(space), 2, 6)
        # the deterministic hill-climb prefix may agree; the random
        # strategy must not produce the identical trajectory
        assert t1 != t2


def _space_configs(space):
    return st.fixed_dictionaries(
        {k.name: st.sampled_from(list(k.values)) for k in space.knobs}
    )


class TestEvalCacheProperties:
    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_fingerprint_equivalence_implies_cache_hit(self, data):
        space = default_space()
        ev = _StubEvaluator(space)
        cfg = data.draw(_space_configs(space))
        first = ev.evaluate(cfg)
        assert not first.cached and ev.evaluations == 1

        # same config, different dict ordering
        reordered = dict(sorted(cfg.items(), reverse=True))
        again = ev.evaluate(reordered)
        assert again.cached
        assert again.objectives == first.objectives
        assert again.score == first.score

        # inactive-knob noise must also hit (fingerprints collapse)
        if space.normalize(cfg)["sellcs_crossover_dofs"] == 0:
            noisy = dict(cfg, sell_c=4, sell_sigma_factor=16)
            assert ev.evaluate(noisy).cached
        assert ev.evaluations == 1

    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_distinct_fingerprints_recompute(self, data):
        space = default_space()
        ev = _StubEvaluator(space)
        a = data.draw(_space_configs(space))
        b = data.draw(_space_configs(space))
        ra = ev.evaluate(a)
        rb = ev.evaluate(b)
        if ra.fingerprint != rb.fingerprint:
            assert ev.evaluations == 2
        else:
            assert ev.evaluations == 1 and rb.cached
