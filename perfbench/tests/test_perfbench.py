"""The benchmark's own tests: seeded inputs, self-time arithmetic, and
every workload end to end at a tiny size with its verification on.

Run from the repository root: ``python3 -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import threading

import numpy as np
import pytest

from perfbench import hooks, report
from perfbench.tracer import Span, Tracer, attribute, span_parents
from perfbench.workloads import Caller, adapt_deltas, bar_meshes, serve_keys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


# -- seeded inputs ----------------------------------------------------------

def _stream(seed: int, caller: int, n: int = 40):
    c = Caller(seed, caller, n_keys=4)
    return [c.next_request() for _ in range(n)]


def test_same_seed_same_requests():
    assert _stream(7, 3) == _stream(7, 3)
    assert _stream(7, 3) != _stream(8, 3)
    assert _stream(7, 3) != _stream(7, 4)
    assert serve_keys(7) == serve_keys(7)
    assert serve_keys(7) != serve_keys(8)


def test_request_mix():
    reqs = [r for c in range(16) for r in _stream(1, c, 200)]
    solve = sum(kind == "solve" for _, kind, _ in reqs) / len(reqs)
    assert 0.2 < solve < 0.3
    assert {k for k, _, _ in reqs} == {0, 1, 2, 3}


def test_same_seed_same_deltas():
    from repro.serve.cache import ProblemKey

    mesh = ProblemKey("poisson", nel=8, n_parts=2, etype="hex8").build_spec().mesh
    def fp(seed):
        rng = np.random.default_rng([seed, 0xB])
        return [d.fingerprint() for d in adapt_deltas(rng, mesh)]

    assert fp(5) == fp(5)
    assert fp(5) != fp(6)
    assert bar_meshes(5) == bar_meshes(5) and bar_meshes(5) != bar_meshes(6)
    # every step softens a band small enough for the patch path
    for d in adapt_deltas(np.random.default_rng(5), mesh):
        assert 0 < d.scale_elements.size <= 0.10 * mesh.n_elements


# -- self-time arithmetic ------------------------------------------------------

def _span(name, t0, t1, thread=1):
    return Span(name, t0, t1, thread, 0, 0)


def test_self_time_on_hand_built_tree():
    spans = [
        _span("serve.dispatch", 0.0, 10.0),
        _span("core.spmv", 1.0, 4.0),
        _span("core.emv", 1.5, 3.0),
        _span("simmpi.run", 5.0, 9.0),
        # two concurrent rank programs: only the slower one is followed
        _span("serve.rank.p", 5.1, 8.6, thread=2),
        _span("serve.rank.p", 5.2, 7.0, thread=3),
        _span("simmpi.wait", 6.0, 8.0, thread=2),
        _span("core.emv", 5.5, 6.5, thread=3),
        # a later run of the same dispatch reuses thread 2
        _span("simmpi.run", 9.5, 9.9),
        _span("serve.rank.q", 9.6, 9.8, thread=2),
    ]
    parents = span_parents(spans, "simmpi.run")
    assert parents == [-1, 0, 1, 0, 3, 3, 4, 5, 0, 8]
    by_name, kept = attribute(spans, parents)
    assert by_name["serve.dispatch"] == pytest.approx(10 - 3 - 4 - 0.4)
    assert by_name["core.spmv"] == pytest.approx(3 - 1.5)
    assert by_name["core.emv"] == pytest.approx(1.5)  # rank 3 is dropped
    assert by_name["simmpi.run"] == pytest.approx(4 - 3.5 + 0.4 - 0.2)
    assert by_name["serve.rank.p"] == pytest.approx(3.5 - 2)
    assert by_name["simmpi.wait"] == pytest.approx(2)
    assert sum(by_name.values()) == pytest.approx(10)
    assert set(kept) == {0, 1, 2, 3, 4, 6, 8, 9}


def test_untraced_equivalent_is_stratified():
    from perfbench.common import Result

    res = Result("x")
    # stratum "a" costs 1 s/op untraced, "b" 10 s/op; the traced rounds
    # ran one op of each, 10% slower
    res.rounds = [(False, 2.0, 2, "a"), (True, 1.1, 1, "a"),
                  (False, 10.0, 1, "b"), (True, 11.0, 1, "b"),
                  (True, 3.3, 1, "c")]  # no untraced "c": 12 s / 3 ops
    wall, ops, untraced = report.split_rounds(res)
    assert (wall, ops) == (pytest.approx(15.4), 3)
    assert untraced == pytest.approx(1.0 + 10.0 + 4.0)


def test_tracer_nests_and_adopts_threads():
    class Toy:
        def outer(self):
            self.inner()

        def inner(self):
            pass

        def launch(self):
            t = threading.Thread(target=self.outer)
            t.start()
            t.join(timeout=10)
            assert not t.is_alive()

    tracer = Tracer()
    tracer.patch(Toy, "outer", "a.outer")
    tracer.patch(Toy, "inner", "b.inner")
    tracer.patch(Toy, "launch", "c.launch")
    tracer.active = True
    Toy().outer()
    Toy().launch()
    tracer.active = False
    tracer.unpatch_all()
    assert Toy.__dict__["inner"].__name__ == "inner"
    assert "traced" not in repr(Toy.__dict__["outer"])
    spans = tracer.spans
    parents = span_parents(spans, "c.launch")
    named = [(s.name, spans[p].name if p >= 0 else "")
             for s, p in zip(spans, parents)]
    # a worker thread's tree hangs under the span that started it
    assert sorted(named) == sorted([
        ("b.inner", "a.outer"), ("a.outer", ""),
        ("b.inner", "a.outer"), ("a.outer", "c.launch"), ("c.launch", ""),
    ])
    assert spans[-1].name == "c.launch"
    assert spans[-2].thread != spans[-1].thread


# -- workloads end to end ---------------------------------------------------------

@pytest.mark.parametrize("workload", ["solve-p1", "serve-p2", "adapt-p2"])
def test_workload_tiny_verified_and_closes(workload):
    from perfbench.run import measure
    from perfbench.workloads import WORKLOADS

    plain, probes = measure(workload, 3, 0, tiny=True)
    res, spans = measure(workload, 3, 0, traced=True, tiny=True)
    # the untraced run keeps only the workload's own probes
    assert {s.name for s in probes} <= WORKLOADS[workload].probes
    for r in (plain, res):
        assert r.ops > 0 and r.attempted > 0 and r.failed == 0
        assert min(r.samples["op"]) > 0
    # every other round is traced, and only traced rounds leave spans
    assert [r[0] for r in res.rounds] == [
        i % 2 == 1 for i in range(len(res.rounds))]
    traced = {i + 1 for i, r in enumerate(res.rounds) if r[0]}
    assert {s.request for s in spans} == traced
    metrics, rows = report.per_layer(res, spans, WORKLOADS[workload].ranks)
    spec = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    assert {k: m["unit"] for k, m in metrics.items()} == {
        m["name"]: m["unit"] for m in spec["per_layer"]}
    # the self times plus the unattributed rest are the traced wall time
    wall, ops, _ = report.split_rounds(res)
    assert sum(rows.values()) == pytest.approx(wall * 1e3 / ops)
    assert rows["core"] > 0
    # tracing is off again: no wrapper left behind
    from repro.core.hymv import EbeOperatorBase

    assert EbeOperatorBase.spmv.__qualname__ == "EbeOperatorBase.spmv"


def test_install_restores_every_target():
    from repro.harness import driver

    before = dict(driver.OPERATOR_FACTORIES)
    tracer = Tracer()
    hooks.install(tracer)
    assert driver.OPERATOR_FACTORIES["hymv"] is not before["hymv"]
    tracer.unpatch_all()
    assert driver.OPERATOR_FACTORIES == before


# -- the command ----------------------------------------------------------------

def _run(args, cwd):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=600,
    )


def test_command_prints_result_json():
    spec = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    out = _run(["--workload", "adapt-p2", "--seed", "2", "--seconds", "0",
                "--trace", "0"], ROOT)
    assert out.returncode == 0, out.stderr
    doc = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(doc) == {"correct", "attempted", "failed", "metrics"}
    assert doc["correct"] and doc["failed"] == 0
    assert set(doc["metrics"]) == {m["name"] for m in spec["end_to_end"]}
    for m in spec["end_to_end"]:
        assert doc["metrics"][m["name"]]["unit"] == m["unit"]
        assert doc["metrics"][m["name"]]["value"] > 0


def test_command_fails_without_the_program(tmp_path):
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    out = _run(["--workload", "solve-p1", "--seconds", "1"], tmp_path)
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout
