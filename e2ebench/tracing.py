"""In-memory span recorder for the traced benchmark run.

The benchmark times the program's layers from outside: :meth:`Tracer.wrap`
replaces a public function or method with a wrapper that records one span
per call (name, step id, parent span, start, end) and restores the
original on :meth:`Tracer.restore`.  Nothing inside ``src/`` is modified.

A layer's self time is its spans' duration minus the part covered by their
child spans.  Spans are kept in memory and written out when the run ends;
fleet worker processes inherit the wrappers through ``fork`` and hand their
spans to the parent through per-process files (see ``workloads.py``).
"""

from __future__ import annotations

import functools
import itertools
import os
import time
from collections import defaultdict

# Span record layout (lists, not objects: one is allocated per wrapped call).
ID, NAME, STEP, PARENT, START, END = range(6)


class Tracer:
    """Records spans around wrapped calls; one tracer per process."""

    def __init__(self) -> None:
        self.pid = os.getpid()
        #: Names this process's spans (span ids are unique per process; a
        #: pid alone could be reused by a later worker).
        self.token = f"{self.pid}-{time.time_ns()}"
        self.spans: list[list] = []
        self.step = None
        self._ids = itertools.count()
        self._stack: list[list] = []
        self._patches: list[tuple[object, str, object]] = []

    def reset_after_fork(self) -> None:
        """Drop spans inherited from the parent (call first in a child)."""
        if os.getpid() != self.pid:
            self.pid = os.getpid()
            self.token = f"{self.pid}-{time.time_ns()}"
            self.spans = []
            self._ids = itertools.count()
            self._stack = []
            self.step = None

    def wrap(self, owner, attr: str, name: str, after=None,
             step=None) -> None:
        """Record a ``name`` span around every call of ``owner.attr``.

        ``after(args, kwargs, result)`` runs once the span has closed (for
        counts taken from the call's result).  ``step``, when given,
        gets the call's ``(args, kwargs)`` and returns the step id for the
        call's span; it also resets the tracer after a ``fork``.
        """
        original = (owner.__dict__[attr] if isinstance(owner, type)
                    else getattr(owner, attr))
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if step is not None:
                tracer.reset_after_fork()
                tracer.step = step(args, kwargs)
            stack = tracer._stack
            span = [next(tracer._ids), name, tracer.step,
                    stack[-1][ID] if stack else None, 0.0, 0.0]
            tracer.spans.append(span)
            stack.append(span)
            span[START] = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                span[END] = time.perf_counter()
                stack.pop()
            if after is not None:
                after(args, kwargs, result)
            return result

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))

    def restore(self) -> None:
        """Put every wrapped function back (last wrapped first)."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


def self_times(spans: list[list], key: int = NAME) -> dict:
    """Self seconds (duration minus child-span cover) summed per span name,
    or per step id with ``key=STEP``.

    Span ids are unique per process, so pass one process's spans at a time.
    """
    child_cover: dict[int, float] = defaultdict(float)
    for span in spans:
        if span[PARENT] is not None:
            child_cover[span[PARENT]] += span[END] - span[START]
    totals: dict = defaultdict(float)
    for span in spans:
        totals[span[key]] += (span[END] - span[START]
                              - child_cover.get(span[ID], 0.0))
    return dict(totals)
