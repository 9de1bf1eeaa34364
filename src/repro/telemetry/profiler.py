"""Scoped host wall-time profiling for the hot numpy paths.

The sample-domain trace says *where on the signal timeline* things
happened; the host profiler says *how long the model took* to compute
them — the number the ROADMAP's "fast as the hardware allows" goal
optimizes.  A :class:`HostProfiler` wraps a code region in a
``with profiler.profile("xcorr"):`` scope and records the wall-clock
duration into a latency histogram (``host.<name>_ns``) and, when a
tracer is attached, a host-domain span event.

Probe points default to :data:`NULL_PROFILER`, whose scopes are one
shared no-op context, so every probe point is written once and the
disabled cost is a method call per scope.
"""

from __future__ import annotations

from collections.abc import Iterator
from contextlib import AbstractContextManager, contextmanager, nullcontext

from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.timebase import Timebase
from repro.telemetry.tracer import CAT_HOST, NULL_TRACER, Tracer


class HostProfiler:
    """Scoped wall-clock timers feeding a metrics registry + tracer."""

    def __init__(self, metrics: MetricsRegistry,
                 tracer: Tracer = NULL_TRACER,
                 timebase: Timebase | None = None) -> None:
        self.metrics = metrics
        self.tracer = tracer
        self.timebase = timebase if timebase is not None else Timebase()

    @contextmanager
    def profile(self, name: str) -> Iterator[None]:
        """Time the enclosed block under ``host.<name>_ns``.

        The duration is recorded even when the block raises — a slow
        failing path is still a slow path.
        """
        clock = self.timebase.wall_clock_ns
        start_ns = clock()
        try:
            yield
        finally:
            end_ns = clock()
            self.metrics.histogram(f"host.{name}_ns").observe(end_ns - start_ns)
            if self.tracer.enabled:
                self.tracer.host_span(name, CAT_HOST, start_ns, end_ns)


class NullProfiler(HostProfiler):
    """The disabled profiler: every scope is one shared no-op context."""

    _SCOPE = nullcontext()

    def profile(self, name: str) -> AbstractContextManager[None]:
        return self._SCOPE


#: The shared disabled profiler; safe to use as a default everywhere.
NULL_PROFILER = NullProfiler(MetricsRegistry())
