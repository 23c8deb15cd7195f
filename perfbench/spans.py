"""In-memory timing spans, counters and the wrappers that record them.

A traced run wraps public entry points of each layer (see ``layers.py``)
so that every call records a span: name, parent, start and end on the
host's monotonic clock. Spans and counters stay in memory; the caller
writes them out once, when the run ends.

A layer's *self time* is its span's duration minus the part of that
interval its child spans cover. Children that overlap each other (the
legs of a process pool run side by side) are merged first, so an
interval is never subtracted twice.

Process workers record into their own copy of the recorder and ship
their spans back with the task result (:func:`traced_task`), so a
sharded serve is measured inside its workers, not only as the parent's
wait.
"""

from __future__ import annotations

import contextlib
import importlib
import os
import pickle
import time
from collections import defaultdict
from typing import NamedTuple

__all__ = [
    "NULL",
    "Span",
    "Recorder",
    "NullRecorder",
    "Patcher",
    "active",
    "activate",
    "union_length",
    "self_times",
    "self_seconds_by_name",
    "traced_task",
]


class Span(NamedTuple):
    sid: str
    parent: str | None
    name: str
    start: float
    end: float

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """Spans, counters and samples of one process, kept in memory."""

    def __init__(self):
        self.reset()

    def reset(self, root: str | None = None) -> None:
        """Drop everything recorded; new top-level spans get ``root`` as
        their parent (a worker's spans hang under the parent's map span)."""
        self.pid = os.getpid()
        self.spans: list[Span] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.samples: dict[str, list[float]] = defaultdict(list)
        self._stack: list[str | None] = [root]
        self._n = 0

    def open(self, name: str) -> tuple:
        self._n += 1
        sid = f"{self.pid}:{self._n}"
        token = (sid, self._stack[-1], name, time.perf_counter())
        self._stack.append(sid)
        return token

    def close(self, token: tuple) -> None:
        end = time.perf_counter()
        self._stack.pop()
        self.spans.append(Span(*token, end))

    @contextlib.contextmanager
    def span(self, name: str):
        token = self.open(name)
        try:
            yield token[0]
        finally:
            self.close(token)

    def count(self, name: str, value: float = 1.0) -> None:
        self.counters[name] += value

    def sample(self, name: str, value: float) -> None:
        self.samples[name].append(value)

    def merge(self, spans, counters, samples) -> None:
        """Fold in what a worker process recorded."""
        self.spans.extend(Span(*s) for s in spans)
        for k, v in counters.items():
            self.counters[k] += v
        for k, v in samples.items():
            self.samples[k].extend(v)

    def export(self) -> tuple[list[tuple], dict, dict]:
        return (
            [tuple(s) for s in self.spans],
            dict(self.counters),
            {k: list(v) for k, v in self.samples.items()},
        )


class NullRecorder:
    """Stands in when tracing is off: its spans record nothing."""

    def span(self, name: str):
        return contextlib.nullcontext()


NULL = NullRecorder()

# The wrapped library functions and forked pool workers have no argument
# through which a recorder could reach them, so the tracer that installs
# the wrappers registers its recorder here for the life of the traced run.
_active: Recorder | NullRecorder = NULL


def active() -> Recorder | NullRecorder:
    """The recorder of the traced run in progress (a no-op one if none)."""
    return _active


def activate(rec: Recorder | NullRecorder) -> None:
    global _active
    _active = rec


# ------------------------------------------------------------ self time
def union_length(intervals) -> float:
    """Total length covered by ``(start, end)`` intervals, overlaps once."""
    total = 0.0
    cur_s = cur_e = None
    for s, e in sorted(intervals):
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        elif e > cur_e:
            cur_e = e
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def self_times(spans) -> dict[str, float]:
    """Self time of every span: its duration minus the union of its
    children's intervals, clipped to its own."""
    spans = [Span(*s) for s in spans]
    by_id = {s.sid: s for s in spans}
    children: dict[str, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        p = by_id.get(s.parent)
        if p is not None:
            lo, hi = max(s.start, p.start), min(s.end, p.end)
            if hi > lo:
                children[p.sid].append((lo, hi))
    return {
        s.sid: s.duration - union_length(children.get(s.sid, ()))
        for s in spans
    }


def self_seconds_by_name(spans) -> dict[str, float]:
    """Sum of self times per span name."""
    own = self_times(spans)
    out: dict[str, float] = defaultdict(float)
    for s in spans:
        out[s[2]] += own[s[0]]
    return dict(out)


# ------------------------------------------------------------- patching
class Patcher:
    """Replaces attributes with wrappers and puts the originals back.

    ``wrap`` resolves ``"package.module"`` + ``"Class.attr"``; when the
    target no longer exists it returns False and changes nothing, so a
    renamed entry point makes a layer's metrics absent instead of failing
    the run.
    """

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []

    def wrap(self, module: str, attr: str, make_wrapper) -> bool:
        try:
            owner = importlib.import_module(module)
            *path, name = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = getattr(owner, name)
        except (ImportError, AttributeError):
            return False
        self._saved.append((owner, name, original))
        setattr(owner, name, make_wrapper(original))
        return True

    def restore(self) -> None:
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)


# ------------------------------------------------------ worker processes
def traced_task(fn, parent_sid: str, item):
    """Run one pool task in a worker and return what it recorded with it.

    The forked worker inherited a copy of the parent's recorder; it is
    cleared so only this task's spans travel back, and they hang under
    the parent's map span ``parent_sid``.
    """
    rec = _active
    rec.reset(root=parent_sid)
    with rec.span("parallel.leg"):
        result = fn(item)
    with rec.span("bench.count"):
        rec.count("parallel.result_bytes", len(pickle.dumps(result)))
    return result, rec.export()
