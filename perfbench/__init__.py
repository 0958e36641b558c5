"""Host wall-clock benchmark of ``repro`` with per-layer attribution
(entry point: ``perfbench/run.py``)."""
