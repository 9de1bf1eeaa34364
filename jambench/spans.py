"""Span recording around the jammer's layer boundaries, from outside.

The benchmark never edits the program: it replaces public methods on
the *instances* of one configured jammer with timing wrappers.  Each
call becomes a span ``(name, start_ns, end_ns, parent)``, where
``parent`` is the index of the enclosing span (``-1`` at the root), and
spans stay in memory until the benchmark writes them out.

A layer's self time is its spans' durations minus the time covered by
their direct children, so the self times of every layer add up to the
root span's wall time exactly.
"""

from __future__ import annotations

import time
from collections import defaultdict
from typing import Any, Callable

#: (instance attribute path on a ReactiveJammer, method, span name).
#: ``device.core.fsm`` is rebuilt by trigger-config register writes, so
#: the recorder must be attached after ``configure``.
LAYER_METHODS = (
    ("", "run", "jammer"),
    ("device", "process", "chunk"),
    ("device.ddc", "process", "ddc"),
    ("device.core.correlator", "detect", "xcorr"),
    ("device.core.banked", "detect", "xcorr"),
    ("device.core.energy", "detect", "energy"),
    ("device.core.fsm", "process_events", "fsm"),
    ("device.core.tx", "schedule", "tx.schedule"),
    ("device.core.tx", "observe_rx", "tx.capture"),
    ("device.core.tx", "synthesize", "tx.synth"),
    ("device.duc", "process", "duc"),
)

#: Span name -> the layer its self time is charged to.  The ``chunk``
#: span is ``UsrpN210.process``; what it does beyond the wrapped
#: children is the DSP core's own orchestration (detection merge, burst
#: admission, interval retire).
SELF_LAYER = {"jammer": "jammer", "chunk": "core"}


def resolve(root: Any, path: str) -> Any:
    """``root`` followed along a dotted attribute path."""
    obj = root
    for part in filter(None, path.split(".")):
        obj = getattr(obj, part)
    return obj


class SpanRecorder:
    """In-memory span log fed by instance-method wrappers."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, int, int, int]] = []
        #: Event counts read at the same boundaries as the spans.
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._wrapped: list[tuple[Any, str]] = []

    def wrap(self, obj: Any, method: str, name: str,
             count: Callable[[tuple, Any, dict], None] | None = None
             ) -> None:
        """Shadow ``obj.method`` with a span-recording wrapper.

        ``count(args, result, counts)`` runs after each call to read
        event counts from the call's arguments and result.
        """
        original = getattr(obj, method)
        spans = self.spans
        stack = self._stack
        counts = self.counts
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            # The slot is taken before the call, so a span's children
            # always come after it in the log.
            index = len(spans)
            parent = stack[-1] if stack else -1
            spans.append((name, 0, 0, parent))
            stack.append(index)
            start = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent)
            if count is not None:
                count(args, result, counts)
            return result

        setattr(obj, method, traced)
        self._wrapped.append((obj, method))

    def attach(self, jammer: Any) -> None:
        """Wrap every layer method of a configured jammer."""
        for path, method, name in LAYER_METHODS:
            self.wrap(resolve(jammer, path), method, name,
                      _COUNTERS.get(name))

    def detach(self) -> None:
        """Restore the class methods on every wrapped instance."""
        for obj, method in reversed(self._wrapped):
            # The wrapper lives in the instance dict; deleting it lets
            # attribute lookup fall back to the class method.
            delattr(obj, method)
        self._wrapped.clear()

    def clear(self) -> None:
        """Drop recorded spans and counts (wrappers stay in place)."""
        self.spans.clear()
        self.counts.clear()


def _count_fsm(args, result, counts) -> None:
    counts["fsm.events_in"] += len(args[0])
    counts["fsm.fires"] += len(result)


def _count_schedule(args, result, counts) -> None:
    counts["tx.bursts"] += len(result)


_COUNTERS = {"fsm": _count_fsm, "tx.schedule": _count_schedule}


def self_times(spans: list[tuple[str, int, int, int]]) -> list[int]:
    """Each span's duration minus its direct children's durations."""
    own = [end - start for _name, start, end, _parent in spans]
    for _name, start, end, parent in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def layer_totals(spans: list[tuple[str, int, int, int]]
                 ) -> tuple[dict[str, int], dict[str, int]]:
    """``(self_ns, calls)`` per layer name.

    Each span is charged its self time; ``jammer`` and ``chunk`` spans
    are charged under the layer names in :data:`SELF_LAYER`, while
    ``calls`` keeps the span names.
    """
    busy: dict[str, int] = defaultdict(int)
    calls: dict[str, int] = defaultdict(int)
    for (name, _start, _end, _parent), own in zip(spans, self_times(spans)):
        busy[SELF_LAYER.get(name, name)] += own
        calls[name] += 1
    return dict(busy), dict(calls)
