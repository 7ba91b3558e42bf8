"""Query telemetry: tracing spans + metrics registry, off by default.

The paper's architecture spreads every query across ``n`` providers and
reassembles answers client-side, so the costs that matter — per-provider
round trips, quorum wait, bytes moved, shares split and interpolated,
faults injected vs. detected — are *distributed*.  This package makes
them first-class:

* :class:`~repro.telemetry.metrics.MetricsRegistry` — dependency-free
  counters / gauges / fixed-bucket histograms keyed by name + labels;
* :class:`~repro.telemetry.tracing.Tracer` — hierarchical spans
  (``query → rewrite → fan_out → rpc → reconstruct``) timed by a
  deterministic clock (the sim's modelled clock in the CLI/benchmarks),
  so traces are reproducible per seed, and by the wall clock beside it
  (:func:`~repro.telemetry.tracing.stage_times` sums both per stage).

Switch semantics
----------------

Telemetry is **disabled by default** and instrumentation sites go
through the module-level helpers below (:func:`span`, :func:`count`,
:func:`observe`), which short-circuit on one ``is None`` check when no
hub is active — no registry lookups, no span allocation, no behaviour
change.  Query results are bit-identical either way (pinned by
``tests/telemetry/test_instrumentation.py``).

Usage::

    from repro import telemetry

    with telemetry.session(clock=lambda: network.modelled_seconds) as hub:
        source.sql("SELECT COUNT(*) FROM Employees")
        print(hub.export())

or imperatively with :func:`enable` / :func:`disable`.
"""

from __future__ import annotations

import functools
from contextlib import contextmanager
from typing import Callable, Dict, Optional

from .metrics import (  # noqa: F401  (re-exported API)
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from .tracing import (  # noqa: F401
    NULL_SPAN,
    NullSpan,
    Span,
    StageTime,
    StepClock,
    Tracer,
    stage_times,
)


class TelemetryHub:
    """One enabled telemetry session: a registry plus a tracer."""

    def __init__(
        self,
        clock: Optional[Callable[[], float]] = None,
        max_traces: int = 256,
    ) -> None:
        self.registry = MetricsRegistry()
        self.tracer = Tracer(clock=clock, max_traces=max_traces)

    def set_clock(self, clock: Callable[[], float]) -> None:
        self.tracer.set_clock(clock)

    def reset(self) -> None:
        self.registry.reset()
        self.tracer.reset()

    def export(self) -> Dict[str, object]:
        """JSON-able dump of everything the session observed."""
        return {
            "metrics": self.registry.snapshot(),
            "traces": [span.to_dict() for span in self.tracer.traces],
            "dropped_traces": self.tracer.dropped_traces,
        }


#: The active hub, or None when telemetry is off.  Module-level so the
#: disabled-path check in the helpers below is a single load + is-None.
_HUB: Optional[TelemetryHub] = None


def enable(
    clock: Optional[Callable[[], float]] = None, max_traces: int = 256
) -> TelemetryHub:
    """Turn telemetry on (replacing any active hub); returns the hub."""
    global _HUB
    _HUB = TelemetryHub(clock=clock, max_traces=max_traces)
    return _HUB


def disable() -> None:
    """Turn telemetry off; instrumentation reverts to no-ops."""
    global _HUB
    _HUB = None


def is_enabled() -> bool:
    return _HUB is not None


def hub() -> Optional[TelemetryHub]:
    """The active hub, or None."""
    return _HUB


@contextmanager
def session(
    clock: Optional[Callable[[], float]] = None, max_traces: int = 256
):
    """Enable telemetry for a block, restoring the previous state after.

    Nesting is last-wins while inside the block (the outer hub stops
    receiving events) and the outer hub is reinstated on exit — the
    behaviour tests and the CLI want.
    """
    global _HUB
    previous = _HUB
    current = TelemetryHub(clock=clock, max_traces=max_traces)
    _HUB = current
    try:
        yield current
    finally:
        _HUB = previous


class _NullContext:
    """Reusable no-op context manager for the disabled path."""

    __slots__ = ()

    def __enter__(self) -> NullSpan:
        return NULL_SPAN

    def __exit__(self, *exc_info: object) -> bool:
        return False


_NULL_CONTEXT = _NullContext()


def span(name: str, **attributes: object):
    """Open a span on the active tracer; a shared no-op when disabled."""
    active = _HUB
    if active is None:
        return _NULL_CONTEXT
    return active.tracer.span(name, **attributes)


def spanned(name: str):
    """Decorate a function so that each call runs in a span called
    ``name`` while telemetry is on.  Off, a call costs one more frame and
    one ``is None`` check, where a ``with span(...)`` block costs a call
    with keywords and a Python ``__enter__`` / ``__exit__``: the stages
    it marks run once per column or per RPC."""

    def decorate(function):
        @functools.wraps(function)
        def traced(*args, **kwargs):
            active = _HUB
            if active is None:
                return function(*args, **kwargs)
            with active.tracer.span(name):
                return function(*args, **kwargs)

        return traced

    return decorate


def annotate(**attributes: object) -> None:
    """Attach attributes to the innermost open span, if any."""
    active = _HUB
    if active is None:
        return
    current = active.tracer.current()
    if current is not None:
        current.set(**attributes)


def annotate_enclosing(span_name: str, **attributes: object) -> None:
    """Attach attributes to the innermost open span called ``span_name``,
    if any — for a stage that describes the span its caller opened."""
    active = _HUB
    if active is None:
        return
    enclosing = active.tracer.enclosing(span_name)
    if enclosing is not None:
        enclosing.set(**attributes)


def count(name: str, value: float = 1, **labels: object) -> None:
    """Increment a counter; no-op when disabled."""
    active = _HUB
    if active is None:
        return
    active.registry.counter(name, **labels).inc(value)


def observe(name: str, value: float, **labels: object) -> None:
    """Record a histogram observation; no-op when disabled."""
    active = _HUB
    if active is None:
        return
    active.registry.histogram(name, **labels).observe(value)


def set_gauge(name: str, value: float, **labels: object) -> None:
    """Set a gauge; no-op when disabled."""
    active = _HUB
    if active is None:
        return
    active.registry.gauge(name, **labels).set(value)
