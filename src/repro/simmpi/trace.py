"""Virtual-time trace rendering: per-rank Gantt charts.

With ``Simulator(trace=True)`` every compute section, modeled advance and
blocking wait records a ``(label, start, end)`` interval; this module
renders them as an ASCII Gantt per rank — the distributed analogue of the
Fig. 3 device timeline, showing where each rank spends its virtual time
(EMV sweeps vs scatter waits vs gathers).
"""

from __future__ import annotations

from repro.simmpi.communicator import Communicator

__all__ = ["render_gantt"]

# label prefix -> glyph; matched longest-prefix-first so that a specific
# entry (``spmv.emv``) is never shadowed by a generic one (``spmv``)
# regardless of the table's textual order
_GLYPHS = [
    ("spmv.emv", "E"),
    ("spmv.scatter.wait", "w"),
    ("setup", "S"),
    ("wait", "w"),
    ("spmv", "c"),
    ("update", "U"),
    ("precond", "P"),
    ("fault", "F"),
]
_GLYPHS_BY_LENGTH = sorted(_GLYPHS, key=lambda e: len(e[0]), reverse=True)


def _glyph(label: str) -> str:
    for prefix, g in _GLYPHS_BY_LENGTH:
        if label.startswith(prefix):
            return g
    return "*"


def render_gantt(
    comms: list[Communicator],
    width: int = 72,
    t_max: float | None = None,
) -> str:
    """Render the traced intervals of all ranks as one Gantt chart.

    Returns a string with one lane per rank plus a legend.  ``t_max``
    truncates/expands the horizontal axis (defaults to the latest traced
    end time).
    """
    if t_max is None:
        t_max = max((e.t1 for c in comms for e in c.obs.events), default=0.0)
    if t_max <= 0:
        return "(no traced intervals — run with Simulator(trace=True))"
    lanes = []
    for c in comms:
        row = [" "] * width
        for e in c.obs.events:
            a = int(min(e.t0, t_max) / t_max * (width - 1))
            b = max(int(min(e.t1, t_max) / t_max * (width - 1)), a + 1)
            g = _glyph(e.label)
            for i in range(a, min(b, width)):
                row[i] = g
        lanes.append(f"rank {c.rank:3d} |" + "".join(row) + "|")
    legend = (
        "S=setup  E=EMV sweep  w=blocking wait  c=other spmv  "
        "U=update  P=precond  F=fault  *=other"
    )
    scale = f"0 {'-' * (width - 12)} {t_max * 1e3:.3f} ms"
    return "\n".join([*lanes, scale, legend])
