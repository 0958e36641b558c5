"""One report-and-gate path for the harness CLIs.

Every ``python -m repro.harness <name>`` load or bench harness follows
the same protocol: parse the common flags (:func:`harness_parser`), run
its scenarios into schema documents, then hand them to :func:`emit`,
which validates each document after a JSON round-trip, writes it, and
turns the harness's ``gate(doc) -> list[str]`` verdict into the exit
code (0 pass, 1 any gate failure).  A CI job therefore needs only the
harness command and the ``repro.obs.compare`` baseline diff.

The small shared pieces of the report projections live here too: the
single-value phase row and the install step for tuned SELL-C-sigma
defaults.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
from typing import Any, Callable

from repro.obs.schema import validate

__all__ = ["emit", "harness_parser", "install_tuned", "point_phase"]


def harness_parser(
    name: str,
    description: str,
    out: str | None,
    *,
    bench_out: str | None = None,
    smoke: str | None = "CI-sized scenarios (fewer requests; same structure)",
    seed: int | None = 1234,
    quiet: bool = True,
) -> argparse.ArgumentParser:
    """The argument parser of ``python -m repro.harness <name>`` with the
    common flags: ``--smoke`` (help text ``smoke``), ``--seed`` (default
    ``seed``), ``--out`` (default file ``out``), ``--bench-out`` (default
    file ``bench_out``) and ``--quiet``.  Passing ``None`` (or
    ``quiet=False``) leaves a flag out for harnesses that never had it."""
    ap = argparse.ArgumentParser(
        prog=f"python -m repro.harness {name}", description=description
    )
    if smoke is not None:
        ap.add_argument("--smoke", action="store_true", help=smoke)
    if seed is not None:
        ap.add_argument("--seed", type=int, default=seed)
    ap.add_argument(
        "--out",
        type=pathlib.Path,
        default=pathlib.Path(out) if out else None,
        help=f"report path (default: ./{out})" if out else "report path",
    )
    if bench_out is not None:
        ap.add_argument(
            "--bench-out",
            type=pathlib.Path,
            default=pathlib.Path(bench_out),
            help=f"bench-schema projection for the compare gate "
            f"(default: ./{bench_out})",
        )
    if quiet:
        ap.add_argument("--quiet", action="store_true")
    return ap


def emit(
    name: str,
    outputs: list[tuple[pathlib.Path, dict[str, Any]]],
    gate: Callable[[dict[str, Any]], list[str]],
    quiet: bool = False,
) -> int:
    """Validate every ``(path, doc)`` after a JSON round-trip, write them,
    and gate the first one; returns the harness exit code.

    ``gate`` sees the round-tripped document, exactly as a later reader
    of the file would, and returns one message per violation.
    """
    docs = [validate(json.loads(json.dumps(doc))) for _, doc in outputs]
    for path, doc in outputs:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    if not quiet:
        paths = [str(p) for p, _ in outputs]
        written = ", ".join(paths[:-1]) + " and " if len(paths) > 1 else ""
        print(f"[{name}] wrote {written}{paths[-1]}")
    failures = gate(docs[0])
    for msg in failures:
        print(f"[{name}] FAIL: {msg}", file=sys.stderr)
    return 1 if failures else 0


def point_phase(value: float, repeats: int = 1) -> dict[str, float]:
    """A bench phase row whose median, min and max are one value."""
    return {"median": value, "min": value, "max": value, "repeats": repeats}


def install_tuned(path, name: str, quiet: bool = False):
    """Load an autotuner artifact (``--tuned-from``) and install its SELL
    (C, sigma) defaults; returns the :class:`TunedConfig` or ``None``."""
    from repro.tune.calibration import load_tuned_config

    tuned = load_tuned_config(path)
    if tuned is None:
        return None
    if not quiet:
        print(f"[{name}] tuned config from {path}")
    if tuned.get("sell_c") is not None:
        from repro.core.sellcs import configure_sell_defaults

        c = int(tuned.get("sell_c"))
        sigma = int(tuned.get("sell_sigma_factor", 8)) * c
        configure_sell_defaults(c, sigma)
        if not quiet:
            print(f"[{name}] tuned SELL defaults C={c} sigma={sigma}")
    return tuned
