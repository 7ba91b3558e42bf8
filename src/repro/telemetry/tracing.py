"""Hierarchical tracing spans with pluggable deterministic clocks.

A trace is a tree of :class:`Span` objects mirroring the query pipeline
of the reproduction::

    query → select → rewrite → fan_out → rpc (per provider)
                                       → reconstruct

Spans are timed by two clocks.  ``start`` / ``end`` read a **clock
callable**: by default a deterministic step clock (each reading
advances a logical tick), and the CLI/benchmarks bind the simulated
network's modelled clock (``lambda: network.modelled_seconds``) instead
— so the same seed produces the *identical* trace, byte for byte, run
after run.  That is the property the paper's evaluation needs:
communication and quorum waits are modelled quantities, and the trace
reports those models, not host scheduling noise.  Beside them,
``wall_start`` / ``wall_end`` read :func:`time.perf_counter`, so a
trace also says where the host's time went (``repro.cli trace
--analyze`` prints both per stage).  The wall readings stay out of
:meth:`Span.to_dict`, which keeps exports reproducible.

The span stack is thread-local: spans opened on the cluster's fan-out
pool threads would start their own roots rather than racing the client
thread's stack, so instrumented code only opens spans on the calling
thread (pool workers record commutative counters instead).
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional


class Span:
    """One timed node of a trace tree."""

    __slots__ = (
        "name", "attributes", "start", "end", "wall_start", "wall_end", "children", "error"
    )

    def __init__(
        self, name: str, attributes: Dict[str, object], start: float, wall_start: float = 0.0
    ) -> None:
        self.name = name
        self.attributes = attributes
        self.start = start
        self.end: Optional[float] = None
        self.wall_start = wall_start
        self.wall_end: Optional[float] = None
        self.children: List["Span"] = []
        self.error: Optional[str] = None

    def set(self, **attributes: object) -> None:
        """Attach/overwrite attributes on an open (or closed) span."""
        self.attributes.update(attributes)

    @property
    def duration(self) -> float:
        return (self.end - self.start) if self.end is not None else 0.0

    @property
    def wall_duration(self) -> float:
        """Seconds of ``time.perf_counter`` between opening and closing."""
        return (self.wall_end - self.wall_start) if self.wall_end is not None else 0.0

    def walk(self):
        """This span and every descendant, depth-first."""
        yield self
        for child in self.children:
            yield from child.walk()

    def find(self, name: str) -> List["Span"]:
        """Every descendant span (including self) with the given name."""
        return [span for span in self.walk() if span.name == name]

    def to_dict(self) -> Dict[str, object]:
        """JSON-able tree on the deterministic clock only: the wall-clock
        readings differ run to run and stay out."""
        out: Dict[str, object] = {
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "duration": self.duration,
        }
        if self.attributes:
            out["attributes"] = {
                k: self.attributes[k] for k in sorted(self.attributes)
            }
        if self.error is not None:
            out["error"] = self.error
        if self.children:
            out["children"] = [child.to_dict() for child in self.children]
        return out


class StageTime:
    """What the spans of one name took in a trace: calls, wall seconds
    (``wall``; ``self_wall`` less their children's) and modelled ones."""

    __slots__ = ("calls", "wall", "self_wall", "modelled")

    def __init__(self) -> None:
        self.calls = 0
        self.wall = 0.0
        self.self_wall = 0.0
        self.modelled = 0.0


def stage_times(root: Span) -> Dict[str, StageTime]:
    """Per span name, in first-seen order, the :class:`StageTime` of its
    spans under ``root`` (``root`` included)."""
    stages: Dict[str, StageTime] = {}
    for span in root.walk():
        stage = stages.get(span.name)
        if stage is None:
            stage = stages[span.name] = StageTime()
        stage.calls += 1
        stage.wall += span.wall_duration
        stage.self_wall += span.wall_duration - sum(c.wall_duration for c in span.children)
        stage.modelled += span.duration
    return stages


class NullSpan:
    """The no-op span handed out while telemetry is disabled."""

    __slots__ = ()

    def set(self, **attributes: object) -> None:
        pass


NULL_SPAN = NullSpan()


class StepClock:
    """Deterministic default clock: each reading advances one tick."""

    __slots__ = ("_ticks", "_lock")

    def __init__(self) -> None:
        self._ticks = 0
        self._lock = threading.Lock()

    def __call__(self) -> float:
        with self._lock:
            self._ticks += 1
            return float(self._ticks)


class Tracer:
    """Builds span trees on a per-thread stack; keeps finished roots.

    ``max_traces`` bounds memory on long-lived sessions: the oldest root
    is dropped (and counted) once the buffer is full, so a service-shaped
    deployment can leave tracing on without unbounded growth.
    """

    def __init__(
        self,
        clock: Optional[Callable[[], float]] = None,
        max_traces: int = 256,
    ) -> None:
        if max_traces < 1:
            raise ValueError(f"max_traces must be >= 1, got {max_traces}")
        self._clock = clock if clock is not None else StepClock()
        self._local = threading.local()
        self._lock = threading.Lock()
        self.max_traces = max_traces
        self.traces: List[Span] = []
        self.dropped_traces = 0

    def set_clock(self, clock: Callable[[], float]) -> None:
        self._clock = clock

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = []
            self._local.stack = stack
        return stack

    def current(self) -> Optional[Span]:
        """The innermost open span on this thread, if any."""
        stack = self._stack()
        return stack[-1] if stack else None

    def enclosing(self, name: str) -> Optional[Span]:
        """The innermost open span called ``name`` on this thread, if any."""
        for span in reversed(self._stack()):
            if span.name == name:
                return span
        return None

    @contextmanager
    def span(self, name: str, **attributes: object):
        span = Span(name, dict(attributes), self._clock(), time.perf_counter())
        stack = self._stack()
        if stack:
            stack[-1].children.append(span)
        stack.append(span)
        try:
            yield span
        except BaseException as exc:
            span.error = type(exc).__name__
            raise
        finally:
            span.wall_end = time.perf_counter()
            span.end = self._clock()
            stack.pop()
            if not stack:
                with self._lock:
                    self.traces.append(span)
                    if len(self.traces) > self.max_traces:
                        del self.traces[0]
                        self.dropped_traces += 1

    def last_trace(self) -> Optional[Span]:
        with self._lock:
            return self.traces[-1] if self.traces else None

    def reset(self) -> None:
        with self._lock:
            self.traces = []
            self.dropped_traces = 0
