"""Per-provider circuit breakers for overload survival.

The :class:`~repro.providers.health.HealthTracker` is the resilience
layer's *memory* — it quarantines providers that failed repeatedly.
Under sustained overload that is not enough: every re-admission after a
cooldown charges a full modelled RPC timeout against a provider that is
still down.  This module layers the classical guard on top:

* :class:`CircuitBreaker` — a per-provider closed / open / half-open
  state machine over a sliding window of RPC outcomes.  When the
  failure rate in the window crosses the threshold the breaker *opens*
  and subsequent calls **fail fast** client-side (no bytes, no modelled
  timeout — the saving that keeps latency bounded at 4× load).  After a
  cooldown the breaker admits a limited number of *probe* RPCs
  (half-open); probes all succeeding re-closes it, one failing re-opens
  it.  Unlike quarantine expiry, recovery therefore costs at most
  ``half_open_probes`` timeouts, not a full re-admission.

:class:`BreakerBoard` bundles one breaker per
provider and is what :class:`~repro.providers.cluster.ProviderCluster`
consults when a board is installed (it is opt-in: clusters without a
board behave exactly as before).  All timing uses the injected modelled
clock, so breaker trajectories are deterministic per seed.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Callable, Dict, List, Optional, Sequence

from .. import telemetry
from ..errors import ConfigurationError

#: Breaker states (plain strings: they appear in snapshots/telemetry).
CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half_open"


class CircuitBreaker:
    """Failure-rate circuit breaker over a sliding outcome window.

    Parameters
    ----------
    window:
        Number of most-recent RPC outcomes considered.
    failure_threshold:
        Failure fraction within the window at which the breaker opens.
    min_calls:
        Outcomes required in the window before the rate is meaningful;
        below this the breaker never opens (a single early failure must
        not black-hole a provider).
    open_seconds:
        Modelled cooldown before an open breaker admits probes.
    half_open_probes:
        Probe RPCs admitted in half-open state; all must succeed to
        close the breaker again.
    clock:
        Zero-argument modelled-time callable (deterministic per seed).
    """

    def __init__(
        self,
        *,
        window: int = 16,
        failure_threshold: float = 0.5,
        min_calls: int = 4,
        open_seconds: float = 10.0,
        half_open_probes: int = 2,
        clock: Optional[Callable[[], float]] = None,
        name: str = "",
    ) -> None:
        if window < 1:
            raise ConfigurationError(f"window must be >= 1, got {window}")
        if not 0.0 < failure_threshold <= 1.0:
            raise ConfigurationError(
                f"failure_threshold must be in (0, 1], got {failure_threshold}"
            )
        if min_calls < 1:
            raise ConfigurationError(
                f"min_calls must be >= 1, got {min_calls}"
            )
        if open_seconds < 0:
            raise ConfigurationError(
                f"open_seconds must be >= 0, got {open_seconds}"
            )
        if half_open_probes < 1:
            raise ConfigurationError(
                f"half_open_probes must be >= 1, got {half_open_probes}"
            )
        self.window = window
        self.failure_threshold = failure_threshold
        self.min_calls = min_calls
        self.open_seconds = open_seconds
        self.half_open_probes = half_open_probes
        self.name = name
        self._clock = clock if clock is not None else (lambda: 0.0)
        self._lock = threading.Lock()
        self._state = CLOSED
        self._outcomes: deque = deque(maxlen=window)  # True = failure
        self._opened_at = 0.0
        self._probes_issued = 0
        self._probe_successes = 0
        self.times_opened = 0
        self.fast_fails = 0

    # -- state machine -------------------------------------------------------

    def _failure_rate_locked(self) -> float:
        if not self._outcomes:
            return 0.0
        return sum(self._outcomes) / len(self._outcomes)

    def _trip_locked(self) -> None:
        self._state = OPEN
        self._opened_at = self._clock()
        self.times_opened += 1
        telemetry.count("breaker.opened", provider=self.name)

    def _close_locked(self) -> None:
        self._state = CLOSED
        self._outcomes.clear()
        telemetry.count("breaker.closed", provider=self.name)

    def _maybe_half_open_locked(self) -> None:
        """Lazy OPEN → HALF_OPEN transition on cooldown expiry."""
        if (
            self._state == OPEN
            and self._clock() >= self._opened_at + self.open_seconds
        ):
            self._state = HALF_OPEN
            self._probes_issued = 0
            self._probe_successes = 0
            telemetry.count("breaker.half_open", provider=self.name)

    def allow(self) -> bool:
        """Whether one RPC may be dispatched now (consumes a probe slot).

        ``False`` means the caller must fail fast without touching the
        network; the refusal is counted so reports can show the calls
        the breaker absorbed.
        """
        with self._lock:
            self._maybe_half_open_locked()
            if self._state == CLOSED:
                return True
            if self._state == HALF_OPEN:
                if self._probes_issued < self.half_open_probes:
                    self._probes_issued += 1
                    return True
            self.fast_fails += 1
            return False

    def admits(self) -> bool:
        """Non-consuming view of :meth:`allow` (quorum ordering)."""
        with self._lock:
            self._maybe_half_open_locked()
            if self._state == CLOSED:
                return True
            return (
                self._state == HALF_OPEN
                and self._probes_issued < self.half_open_probes
            )

    def record_success(self) -> None:
        with self._lock:
            if self._state == HALF_OPEN:
                self._probe_successes += 1
                if self._probe_successes >= self.half_open_probes:
                    self._close_locked()
                return
            if self._state == CLOSED:
                self._outcomes.append(False)

    def record_failure(self) -> None:
        with self._lock:
            if self._state == HALF_OPEN:
                # a failed probe: the provider is still sick
                self._trip_locked()
                return
            if self._state == CLOSED:
                self._outcomes.append(True)
                if (
                    len(self._outcomes) >= self.min_calls
                    and self._failure_rate_locked() >= self.failure_threshold
                ):
                    self._trip_locked()

    # -- inspection ----------------------------------------------------------

    @property
    def state(self) -> str:
        with self._lock:
            self._maybe_half_open_locked()
            return self._state

    def snapshot(self) -> Dict[str, object]:
        with self._lock:
            self._maybe_half_open_locked()
            return {
                "state": self._state,
                "failure_rate": round(self._failure_rate_locked(), 4),
                "window_calls": len(self._outcomes),
                "times_opened": self.times_opened,
                "fast_fails": self.fast_fails,
            }


class BreakerBoard:
    """One breaker per provider in a cluster."""

    def __init__(
        self,
        n_providers: int,
        *,
        clock: Optional[Callable[[], float]] = None,
        names: Optional[Sequence[str]] = None,
        **breaker_kwargs: object,
    ) -> None:
        if n_providers < 1:
            raise ConfigurationError(
                f"breaker board needs at least one provider, got {n_providers}"
            )
        self._names = (
            list(names)
            if names is not None
            else [str(i) for i in range(n_providers)]
        )
        self.breakers: List[CircuitBreaker] = [
            CircuitBreaker(clock=clock, name=self._names[i], **breaker_kwargs)
            for i in range(n_providers)
        ]

    def allow(self, index: int) -> bool:
        return self.breakers[index].allow()

    def admits(self, index: int) -> bool:
        return self.breakers[index].admits()

    def record_success(self, index: int) -> None:
        self.breakers[index].record_success()

    def record_failure(self, index: int) -> None:
        self.breakers[index].record_failure()

    def snapshot(self) -> Dict[str, Dict[str, object]]:
        return {
            name: breaker.snapshot()
            for name, breaker in zip(self._names, self.breakers)
        }
