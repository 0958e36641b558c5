"""In-memory span tracer for the host wall-clock benchmark.

A span is one call into a layer of the program, recorded as the tuple
``(name, t0, t1, thread, request, n)``:

* ``name`` is ``"<layer>.<what>"``; the layer is the part before the
  first dot (``core.emv`` belongs to ``core``);
* ``t0``/``t1`` are ``time.perf_counter`` stamps, ``thread`` the thread
  that made the call;
* ``request`` is the benchmark's current round, so the spans of one
  dispatch, mesh or front share it;
* ``n`` is an optional work count taken from the call's arguments.

Recording a span is the per-call cost of a traced run, so the wrapper
keeps no stack and assigns no ids: spans of one thread nest by time, and
:func:`span_parents` rebuilds the tree afterwards.  A span that opens a
thread's tree hangs under the launching span of another thread that
contains it in time (a rank program under its ``Simulator.run``).

Spans are only recorded while :attr:`Tracer.active` is set, kept in a
list, and written out as Chrome trace-event JSON at exit.  The tracer
patches *attributes that callers look up at call time* — class methods,
dictionary entries, and the global name in the module that makes the
call — and restores them on :meth:`Tracer.unpatch_all`.

:func:`attribute` turns the tree into self times that add up to the
spans' wall time: a span's self time is its duration minus the time its
children cover.  Children on the span's own thread are nested, so their
durations are subtracted; children on other threads are concurrent rank
programs, and only the slowest one (the critical path) is subtracted and
descended into.
"""

from __future__ import annotations

import bisect
import functools
import json
import threading
import time
from collections import defaultdict
from contextlib import contextmanager, nullcontext
from typing import Any, Callable, NamedTuple

__all__ = ["Span", "Tracer", "attribute", "layer_of", "span_parents",
           "write_chrome_trace"]


class Span(NamedTuple):
    name: str
    t0: float
    t1: float
    thread: int
    request: int
    n: float

    @property
    def dur(self) -> float:
        return self.t1 - self.t0


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


class Tracer:
    """Records spans of patched calls into one shared list."""

    def __init__(self) -> None:
        #: never replaced: the wrappers hold its ``append``
        self.spans: list[Span] = []
        self.active = False
        #: trace every other workload round (see ``Result.round``)
        self.alternate = False
        self.request = 0
        self._patches: list[tuple[Any, str, Any]] = []

    # -- recording ------------------------------------------------------

    def wrap(self, name: str, fn: Callable,
             count: Callable | None = None) -> Callable:
        """``fn`` inside a span while :attr:`active`; ``count`` maps the
        call's positional arguments to the span's work count."""
        tracer, append = self, self.spans.append
        perf, ident, make = time.perf_counter, threading.get_ident, tuple.__new__

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            t0 = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                append(make(Span, (
                    name, t0, perf(), ident(), tracer.request,
                    count(args) if count is not None else 0)))

        return traced

    def block(self, name: str, inner=None):
        """Context manager recording the block it guards as a span, inside
        the optional context manager ``inner`` (class-based: a generator
        context manager costs several times more per block).  Call it
        only while :attr:`active`."""
        return _Block(self, name, inner or nullcontext())

    @contextmanager
    def paused(self):
        """Record nothing inside the block (answer verification)."""
        was, self.active = self.active, False
        try:
            yield
        finally:
            self.active = was

    # -- patching ---------------------------------------------------------

    def patch(
        self,
        owner: Any,
        attr: str,
        name: str,
        count: Callable | None = None,
        wrapper: Callable | None = None,
    ) -> None:
        """Replace ``owner.attr`` (or ``owner[attr]`` for a dict) by a
        traced version; ``wrapper(tracer, orig)`` builds a custom one."""
        if isinstance(owner, dict):
            orig = owner[attr]
        elif isinstance(owner, type):
            orig = owner.__dict__[attr]  # the raw function, not a binding
        else:
            orig = getattr(owner, attr)
        new = wrapper(self, orig) if wrapper else self.wrap(name, orig, count)
        self._set(owner, attr, new)
        self._patches.append((owner, attr, orig))

    @staticmethod
    def _set(owner: Any, attr: str, value: Any) -> None:
        if isinstance(owner, dict):
            owner[attr] = value
        else:
            setattr(owner, attr, value)

    def unpatch_all(self) -> None:
        while self._patches:
            owner, attr, orig = self._patches.pop()
            self._set(owner, attr, orig)


class _Block:
    __slots__ = ("tracer", "name", "inner", "t0")

    def __init__(self, tracer: Tracer, name: str, inner) -> None:
        self.tracer, self.name, self.inner = tracer, name, inner

    def __enter__(self):
        value = self.inner.__enter__()
        self.t0 = time.perf_counter()
        return value

    def __exit__(self, *exc):
        t1 = time.perf_counter()
        tracer = self.tracer
        tracer.spans.append(tuple.__new__(Span, (
            self.name, self.t0, t1, threading.get_ident(), tracer.request,
            0)))
        return self.inner.__exit__(*exc)


def span_parents(spans: list[Span], launcher: str) -> list[int]:
    """Index of each span's parent (-1 for a root).  Within a thread the
    parent is the innermost span that contains it in time; the first
    span of a thread's tree hangs under the ``launcher`` span of another
    thread that contains it."""
    parents = [-1] * len(spans)
    order = sorted(range(len(spans)),
                   key=lambda i: (spans[i].thread, spans[i].t0, -spans[i].t1))
    stack: list[int] = []
    thread = None
    for i in order:
        s = spans[i]
        if s.thread != thread:
            stack, thread = [], s.thread
        while stack and spans[stack[-1]].t1 < s.t1:
            stack.pop()
        if stack:
            parents[i] = stack[-1]
        stack.append(i)
    launches = sorted((s.t0, i) for i, s in enumerate(spans)
                      if s.name == launcher)
    starts = [t0 for t0, _ in launches]
    for i, s in enumerate(spans):
        if parents[i] != -1:
            continue
        # launches do not overlap: only the latest one started before
        # this span can contain it
        k = bisect.bisect_right(starts, s.t0) - 1
        if k >= 0:
            j = launches[k][1]
            if spans[j].thread != s.thread and s.t1 <= spans[j].t1:
                parents[i] = j
    return parents


def attribute(
    spans: list[Span], parents: list[int],
) -> tuple[dict[str, float], dict[int, float]]:
    """Self time per span name along the critical path.

    Returns ``(self_by_name, kept)`` where ``kept`` maps the index of
    every span on the critical path to its self time.  Spans of
    non-critical rank threads are left out, so the kept self times add up
    to the total duration of the root spans.
    """
    children: dict[int, list[int]] = defaultdict(list)
    roots = []
    for i, p in enumerate(parents):
        (children[p] if p >= 0 else roots).append(i)
    by_name: dict[str, float] = defaultdict(float)
    kept: dict[int, float] = {}
    todo = list(roots)
    while todo:
        i = todo.pop()
        s = spans[i]
        kids = children.get(i, ())
        follow = [k for k in kids if spans[k].thread == s.thread]
        other = [k for k in kids if spans[k].thread != s.thread]
        if other:
            follow.append(max(other, key=lambda k: spans[k].dur))
        self_t = s.dur - sum(spans[k].dur for k in follow)
        by_name[s.name] += self_t
        kept[i] = self_t
        todo.extend(follow)
    return dict(by_name), kept


def write_chrome_trace(spans: list[Span], path: str) -> None:
    """Chrome/Perfetto trace-event JSON (complete events, microseconds)."""
    t_base = min((s.t0 for s in spans), default=0.0)
    threads = {t: i for i, t in enumerate(dict.fromkeys(s.thread for s in spans))}
    events = [
        {
            "name": s.name,
            "cat": layer_of(s.name),
            "ph": "X",
            "ts": (s.t0 - t_base) * 1e6,
            "dur": s.dur * 1e6,
            "pid": 1,
            "tid": threads[s.thread],
            "args": {"request": s.request, "n": s.n},
        }
        for s in spans
    ]
    with open(path, "w") as fh:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh)
