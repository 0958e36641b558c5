"""Diff two directories of harness reports modulo run-specific fields.

Usage::

    python benchmarks/report_diff.py DIR_A DIR_B

Compares every ``*.json`` file present in either directory after
recursively dropping the fields that legitimately differ between two
seeded runs of the same code: ``created_unix``, ``machine``, any
``wall_*`` key (host wall clock) and the ``faults.straggler_s`` counter
(a straggler's injected delay is measured on the host).  Prints one line
per file and exits 1 when any file differs or exists on one side only.
"""

from __future__ import annotations

import json
import pathlib
import sys

_DROP = ("created_unix", "machine", "faults.straggler_s")


def strip(node):
    """``node`` without the run-specific fields, at any depth."""
    if isinstance(node, dict):
        return {
            k: strip(v)
            for k, v in node.items()
            if k not in _DROP and not k.startswith("wall_")
        }
    if isinstance(node, list):
        return [strip(v) for v in node]
    return node


def first_difference(a, b, where: str = "doc") -> str | None:
    """Path of the first place where ``a`` and ``b`` differ, or None."""
    if isinstance(a, dict) and isinstance(b, dict):
        for k in sorted(set(a) | set(b), key=str):
            if k not in a or k not in b:
                return f"{where}[{k!r}] on one side only"
            diff = first_difference(a[k], b[k], f"{where}[{k!r}]")
            if diff:
                return diff
        return None
    if isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            return f"{where} lengths {len(a)} != {len(b)}"
        for i, (x, y) in enumerate(zip(a, b)):
            diff = first_difference(x, y, f"{where}[{i}]")
            if diff:
                return diff
        return None
    # NaN == NaN here: a recorded "no value" is the same in both runs
    if a != b and not (a != a and b != b):
        return f"{where}: {a!r} != {b!r}"
    return None


def main(argv: list[str]) -> int:
    dir_a, dir_b = (pathlib.Path(p) for p in argv)
    names = sorted({p.name for d in (dir_a, dir_b) for p in d.glob("*.json")})
    status = 0
    for name in names:
        pa, pb = dir_a / name, dir_b / name
        if not (pa.exists() and pb.exists()):
            print(f"{name}: only in {dir_a if pa.exists() else dir_b}")
            status = 1
            continue
        diff = first_difference(
            strip(json.loads(pa.read_text())), strip(json.loads(pb.read_text()))
        )
        print(f"{name}: {'identical' if diff is None else diff}")
        status |= diff is not None
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
