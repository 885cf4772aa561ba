"""Outside-in span recorder.

Functions of the program are wrapped at the name where their caller looks
them up (a module global or a class attribute), so nothing inside the program
changes.  Each call opens a span with a name, a start, an end and the index of
the span that was open when it began (its parent).  Spans stay in memory and
are written out once, when the benchmark ends.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """Collects spans; ``clock`` is injectable so tests can script time."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self._open: list[int] = []

    def _begin(self, name: str) -> Span:
        span = Span(name, 0.0, parent=self._open[-1] if self._open else None)
        self._open.append(len(self.spans))
        self.spans.append(span)
        span.start = self.clock()
        return span

    def _finish(self, span: Span) -> None:
        span.end = self.clock()
        self._open.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        """Record the enclosed block as one span."""
        span = self._begin(name)
        try:
            yield span
        finally:
            self._finish(span)

    def wrap(self, fn, name: str, annotate=None):
        """``fn`` recorded as span ``name``.

        ``annotate(result, args)`` returns attributes read off the call's
        arguments and result, such as output sizes; it runs after the span
        closes, so its cost is not charged to the span.
        """

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self._begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._finish(span)
            if annotate is not None:
                span.attrs = annotate(result, args)
            return result

        return wrapper


@contextlib.contextmanager
def instrumented(recorder: Recorder, points):
    """Wrap each ``(owner, attribute, span_name, annotate)`` for the block.

    ``owner`` is the module or class through which callers look the function
    up.  The original attributes are put back on exit, also after an error.
    """
    saved = []
    try:
        for owner, attr, name, annotate in points:
            original = owner.__dict__[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, recorder.wrap(original, name, annotate))
        yield recorder
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def self_times(spans) -> list[float]:
    """Per span: its duration minus the durations of its direct children."""
    own = [s.duration for s in spans]
    for s in spans:
        if s.parent is not None:
            own[s.parent] -= s.duration
    return own


def ancestor_names(spans, index: int) -> list[str]:
    """Names of the spans enclosing ``spans[index]``, innermost first."""
    names = []
    parent = spans[index].parent
    while parent is not None:
        names.append(spans[parent].name)
        parent = spans[parent].parent
    return names


def write_jsonl(spans, path, **common) -> None:
    """Append one JSON object per span; ``common`` fields go on every line."""
    with open(path, "a", encoding="utf-8") as fh:
        for i, s in enumerate(spans):
            record = {"id": i, "name": s.name, "parent": s.parent,
                      "start": s.start, "end": s.end, **common}
            if s.attrs:
                record["attrs"] = s.attrs
            fh.write(json.dumps(record) + "\n")
