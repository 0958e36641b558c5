"""``python -m repro.harness tune`` — the autotuner entry point.

Pipeline: calibrate the perfmodel from the checked-in measured reports,
run the seeded strategy battery over the full search space, keep the
Pareto front over (throughput, p99, memory), and pick the winner — the
best-scoring config that is **no worse than the hand-picked default on
every gated metric** (the default itself always qualifies, so the
winner can never regress it).  Everything runs in virtual time or
against the cost model, so the ``TUNE_report.json`` is bit-reproducible
given the seed — the CI determinism gate diffs two runs.

Artifacts:

* ``TUNE_report.json`` — schema ``repro.tune/1``: the full trajectory,
  Pareto front, calibrated constants, default and winner;
* ``tuned_config.json`` — schema ``repro.tune-config/1``: just the
  winning knobs, consumable by ``SolverService(tuned=...)`` and the
  serve/shard harness ``--tuned-from`` flags;
* ``BENCH_tune.json`` — the standard bench projection so
  ``repro.obs.compare`` can gate default-vs-winner phases against a
  checked-in baseline.
"""

from __future__ import annotations

import pathlib
import sys

from repro.obs.report import emit, harness_parser, point_phase
from repro.obs.schema import BENCH_SCHEMA, TUNE_SCHEMA, new_doc
from repro.tune.calibration import (
    TunedConfig,
    fit_machine_constants,
    load_tuned_config,
)
from repro.tune.evaluate import GATED_METRICS, Evaluator
from repro.tune.pareto import pareto_front
from repro.tune.space import default_space
from repro.tune.strategies import run_search

__all__ = ["gate", "main", "run_tune"]

_DEFAULT_KERNELS = pathlib.Path("benchmarks/baseline/BENCH_kernels.json")
_DEFAULT_SELLCS = pathlib.Path("benchmarks/baseline/BENCH_sellcs.json")


def _worse(metrics: dict, default: dict) -> list[str]:
    """Winner gate: the gated metrics on which ``metrics`` regresses the
    hand-picked ``default`` (a qualifying winner has none)."""
    return [k for k in GATED_METRICS if metrics[k] > default[k]]


def run_tune(
    seed: int = 1234,
    budget: int = 20,
    kernels_baseline=None,
    sellcs_baseline=None,
    machine_profile: str = "frontera-rtx5000",
    verbose: bool = True,
) -> dict:
    """Run the full tuning pipeline; returns the TUNE report document."""
    calibrated = fit_machine_constants(kernels_baseline, sellcs_baseline)
    if verbose and calibrated is not None:
        print(
            f"[tune] calibrated emv={calibrated.get('emv_gflops', 0):.3g} "
            f"csr={calibrated.get('csr_gflops', 0):.3g} "
            f"sellcs={calibrated.get('sellcs_gflops', 0):.3g} GF/s, "
            f"rank agreement "
            f"{calibrated.get('rank_agreement', 0):.0%} over "
            f"{calibrated.get('rank_cases', 0)} case(s)"
        )
    space = default_space()
    evaluator = Evaluator(space, seed=seed, calibrated=calibrated)

    default = evaluator.evaluate(space.default_config())
    trajectory, results = run_search(space, evaluator, seed, budget)
    if verbose:
        print(
            f"[tune] {len(trajectory)} trials, "
            f"{evaluator.evaluations} evaluations, "
            f"{evaluator.cache_hits} cache hits"
        )

    front = pareto_front([default, *results])
    qualified = [
        r for r in [default, *results] if not _worse(r.metrics, default.metrics)
    ]
    winner = min(qualified, key=lambda r: (r.score, r.fingerprint))
    if verbose:
        print(
            f"[tune] pareto front {len(front)} point(s); winner "
            f"{winner.fingerprint} score {winner.score:.4f} "
            f"(default {default.score:.4f})"
        )
        for name in sorted(
            k for k in winner.config if winner.config[k] != default.config[k]
        ):
            print(
                f"[tune]   {name}: {default.config[name]} -> "
                f"{winner.config[name]}"
            )

    return new_doc(
        TUNE_SCHEMA,
        {
            "seed": seed,
            "budget_per_strategy": budget,
            "kernels_baseline": (
                str(kernels_baseline) if kernels_baseline else None
            ),
            "sellcs_baseline": str(sellcs_baseline) if sellcs_baseline else None,
        },
        machine_profile=machine_profile,
        space=space.describe(),
        calibrated=calibrated,
        trajectory=trajectory,
        evaluations=evaluator.evaluations,
        cache_hits=evaluator.cache_hits,
        pareto=[
            {
                "fingerprint": r.fingerprint,
                "config": dict(r.config),
                "objectives": r.objectives.to_dict(),
            }
            for r in front
        ],
        default=default.as_winner(),
        winner=winner.as_winner(),
    )


def _bench_doc(doc: dict) -> dict:
    """Project default-vs-winner onto the bench schema for the compare
    gate.  All phases are virtual-time/model numbers — machine-
    independent, so the checked-in baseline holds everywhere."""
    regressions = len(_worse(doc["winner"]["metrics"], doc["default"]["metrics"]))
    results = []
    for case, entry in (("tune-default", doc["default"]),
                        ("tune-winner", doc["winner"])):
        m = entry["metrics"]
        phases = {
            name: point_phase(m[key])
            for name, key in (
                ("tune.serve.time_per_req", "serve.time_per_req_s"),
                ("tune.serve.p99", "serve.p99_s"),
                ("tune.solve.total", "solve.vtime_s"),
                ("tune.model.gpu_pipeline", "model.gpu_pipeline_s"),
            )
        }
        counters = {
            "tune.mem_bytes": m["mem.bytes"],
            "tune.evaluations": doc["evaluations"],
            "tune.winner_worse_than_default": regressions,
        }
        results.append({
            "case": case,
            "method": "tune",
            "n_parts": 1,
            "n_dofs": 0,
            "phases": phases,
            "counters": counters,
        })
    return new_doc(
        BENCH_SCHEMA, doc["config"], suite="tune", repeats=1, results=results
    )


def gate(doc: dict, tuned_path=None) -> list[str]:
    """Tune gate: the winner is never worse than the default on a gated
    metric, and the written ``tuned_path`` loads back to the winner's
    config."""
    failures = []
    worse = _worse(doc["winner"]["metrics"], doc["default"]["metrics"])
    if worse:
        failures.append(f"winner regresses the default on {worse}")
    if tuned_path is not None:
        tuned = load_tuned_config(tuned_path)
        if tuned is None or tuned.values != doc["winner"]["config"]:
            failures.append(
                f"{tuned_path} does not load back to the winner's config"
            )
    return failures


def main(argv: list[str] | None = None) -> int:
    ap = harness_parser(
        "tune",
        "Autotuner: seeded search over the system knobs against "
        "virtual-time harness probes and the perfmodel; emits "
        "TUNE_report.json, tuned_config.json and BENCH_tune.json",
        out="TUNE_report.json",
        bench_out="BENCH_tune.json",
        smoke="CI-sized budget (same pipeline, fewer trials)",
    )
    ap.add_argument(
        "--budget", type=int, default=None,
        help="trials per strategy (default: 20, or 12 with --smoke)",
    )
    ap.add_argument(
        "--tuned-out", type=pathlib.Path,
        default=pathlib.Path("tuned_config.json"),
        help="winning-knobs artifact for SolverService/--tuned-from",
    )
    ap.add_argument(
        "--kernels-baseline", type=pathlib.Path, default=_DEFAULT_KERNELS,
        help="measured kernels report to calibrate from (missing: skip)",
    )
    ap.add_argument(
        "--sellcs-baseline", type=pathlib.Path, default=_DEFAULT_SELLCS,
        help="measured sellcs report to calibrate from (missing: skip)",
    )
    ap.add_argument("--machine-profile", default="frontera-rtx5000")
    args = ap.parse_args(argv)

    budget = args.budget if args.budget is not None else (12 if args.smoke else 20)
    doc = run_tune(
        seed=args.seed,
        budget=budget,
        kernels_baseline=args.kernels_baseline,
        sellcs_baseline=args.sellcs_baseline,
        machine_profile=args.machine_profile,
        verbose=not args.quiet,
    )
    tuned = TunedConfig(doc["winner"]["config"], source=str(args.out))
    return emit(
        "tune",
        [
            (args.out, doc),
            (args.tuned_out, tuned.to_doc()),
            (args.bench_out, _bench_doc(doc)),
        ],
        lambda d: gate(d, args.tuned_out),
        args.quiet,
    )


if __name__ == "__main__":
    sys.exit(main())
