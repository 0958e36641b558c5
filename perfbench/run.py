"""Host wall-clock benchmark of the ``repro`` package.

Run from the repository root::

    python3 perfbench/run.py --workload solve-p1 --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10 --trace 1

``--trace 0`` measures the end-to-end metrics with tracing off (only the
few single spans ``solve-p1`` needs to split set-up from solve time and
to time single SPMVs are kept).
``--trace 1`` traces every other round of the workload loop (a mesh, a
dispatch, a front), prints the per-layer self-time table of the traced
rounds, and reports the layer metrics, the tracing overhead (traced
against untraced rounds of the same run) and the unattributed time.

Each run also writes ``.perfbench/<workload>-seed<n>-trace<t>.json`` (the
metrics with the machine facts, sample counts and exact counts) and, for
``--trace 1``, ``...trace1.trace.json`` (the spans as Chrome trace events).

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  A wrong answer makes
the command exit with code 1.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

from perfbench.common import pin_threads  # noqa: E402

pin_threads()

from perfbench import hooks, report  # noqa: E402
from perfbench.common import Clock, machine, peak_rss_mb  # noqa: E402
from perfbench.tracer import Tracer, write_chrome_trace  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402


def measure(workload: str, seed: int, seconds: float, traced: bool = False,
            tiny: bool = False):
    """One run of a workload.  Untraced, only the workload's probes are
    patched; traced, every layer boundary is, and every other round is
    traced.  Returns ``(result, spans)``."""
    w = WORKLOADS[workload]
    tracer = Tracer()
    hooks.install(tracer, None if traced else w.probes)
    tracer.alternate = traced
    tracer.active = not traced
    try:
        res = w.run(seed, seconds, tracer, Clock(), tiny=tiny)
    finally:
        tracer.active = False
        tracer.unpatch_all()
    return res, tracer.spans


def run_workload(workload: str, seed: int, seconds: float,
                 trace: bool) -> dict:
    ranks = WORKLOADS[workload].ranks
    info = machine(rank_threads=ranks)
    out = os.path.join(ROOT, ".perfbench")
    os.makedirs(out, exist_ok=True)
    stem = os.path.join(out, f"{workload}-seed{seed}-trace{int(trace)}")
    # first calls import lazily and fill caches; users pay that once
    measure(workload, seed, 0, tiny=True)
    if not trace:
        res, _ = measure(workload, seed, seconds)
        metrics = report.end_to_end(res, peak_rss_mb())
        print(report.end_to_end_table(res, metrics, seed, info))
    else:
        res, spans = measure(workload, seed, seconds, traced=True)
        metrics, rows = report.per_layer(res, spans, ranks)
        write_chrome_trace(spans, stem + ".trace.json")
        print(report.layer_table(res, metrics, rows, seed, info))
    doc = report.result_doc(res, metrics)
    with open(stem + ".json", "w") as fh:
        json.dump(report.record(res, doc, seed, info), fh, indent=1)
    return doc


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    docs = {
        name: run_workload(name, args.seed, args.seconds, bool(args.trace))
        for name in names
    }
    if len(docs) == 1:
        doc = docs[names[0]]
    else:
        doc = {
            "correct": all(d["correct"] for d in docs.values()),
            "attempted": sum(d["attempted"] for d in docs.values()),
            "failed": sum(d["failed"] for d in docs.values()),
            "metrics": {f"{n}/{m}": v for n, d in docs.items()
                        for m, v in d["metrics"].items()},
        }
    print(json.dumps(doc))
    return 0 if doc["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
