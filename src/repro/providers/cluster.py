"""The provider cluster: fan-out, quorum collection, failure routing.

The data source talks to ``n`` providers through one
:class:`ProviderCluster`, which

* serialises every request/response through the simulated network so the
  benchmarks get byte-exact communication accounting,
* collects responses, routing around crashed providers,
* enforces the quorum rule: reads need ``k`` responses (reconstruction
  threshold), writes are best-effort to all live providers (a provider
  that was down during a write is stale — handled by the availability
  experiments, EXP-T7).

Fan-out clock model
-------------------

Every RPC — a broadcast, a failover wave, a single :meth:`call_one` —
is one *wave*: request bytes are accounted in provider-index order, the
handlers run in-line on the calling thread in the same order, response
bytes are accounted, and the modelled clock advances by what the client
would have *waited* had the providers worked concurrently — the
slowest round trip for ``quorum="all"``, the k-th fastest for
``quorum="first_k"`` (the client reconstructs the moment a quorum has
answered; Sec. III needs *any* k shares), the timeout for unavailable
providers unless the quorum was met without them.  Overlap is a property
of the clock formula (:meth:`ProviderCluster._round_elapsed`), not of
threads: providers are in-process objects whose compute is a rounding
error next to share volume, so nothing is gained by running them on a
pool, and single-threaded index-order execution makes every byte count,
clock reading and provider cost counter deterministic per seed.

Batching is a mode of that one wave, not a second dispatch path.  With
a :class:`~repro.service.scheduler.FanoutBatcher` installed as
``cluster.batcher`` (a :class:`~repro.service.QueryService` does that),
every threshold read — a round with a ``minimum``, failover waves
included — is parked at the batcher's combining barrier, travels inside
one combined ``batch`` wave with its concurrent peers, and comes back as
the same ``(responses, failures)`` pair :meth:`ProviderCluster.wave`
returns for it alone; every other round (writes, DDL, :meth:`call_one`,
transaction control) goes straight to :meth:`ProviderCluster.wave` under
the batcher's dispatch lock.  Quorum rules, retries, failover and error
handling therefore exist once, here.

Resilience
----------

Three mechanisms turn "any k of n shares suffice" (Sec. III) from a
theorem into an end-to-end read guarantee:

* **Per-RPC retry with backoff** (:class:`RetryPolicy`): an unavailable
  provider costs a modelled ``timeout_seconds`` of clock; with
  ``max_attempts > 1`` the RPC is re-sent after an exponential backoff.
  Retries are unconditional per provider (not gated on quorum state).
  The default policy performs **no** retries, preserving the historical
  accounting.
* **Quorum failover** (``broadcast(..., failover=True)``): when a
  ``first_k`` round comes up short, the missing sub-requests are
  re-dispatched to spare live providers — an extra accounted round per
  failover wave — instead of raising :class:`QuorumError`.  The error
  still surfaces when no spares remain.
* **Health tracking** (:class:`~repro.providers.health.HealthTracker`),
  the client's one failure memory per provider: consecutive failures
  quarantine a provider for a cooldown measured on the modelled clock.
  :meth:`ProviderCluster.read_quorum` leaves a provider quarantined as
  down out of reads while ``k`` others can answer — it costs no bytes
  and no timeout until its cooldown readmits it — and sorts every other
  quarantined provider last; failover spares are picked in the same
  health order.  Dispatch itself never refuses a provider.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .. import telemetry
from ..errors import ConfigurationError, ProviderUnavailableError, QuorumError
from ..sim.costmodel import CostRecorder
from ..sim.network import SimulatedNetwork
from .failures import Fault
from .health import HealthTracker
from .provider import ShareProvider

CLIENT_NAME = "client"

#: Valid quorum modes for :meth:`ProviderCluster.call_all`.
QUORUM_MODES = ("all", "first_k")


@dataclass(frozen=True)
class RetryPolicy:
    """Per-RPC retry/backoff/timeout configuration.

    ``max_attempts=1`` (the default) means fail-fast per RPC — exactly
    the historical behaviour, so default clusters account byte-for-byte
    like they always did.  ``timeout_seconds`` is the modelled clock
    charge for waiting out an unavailable provider (the request bytes
    were spent; the time was too).  Retry ``j`` (1-based) waits
    ``backoff_seconds * backoff_multiplier**(j-1)`` before re-sending.
    """

    max_attempts: int = 1
    backoff_seconds: float = 0.05
    backoff_multiplier: float = 2.0
    timeout_seconds: float = 0.25

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ConfigurationError(
                f"max_attempts must be >= 1, got {self.max_attempts}"
            )
        if self.backoff_seconds < 0 or self.timeout_seconds < 0:
            raise ConfigurationError("backoff/timeout seconds must be >= 0")
        if self.backoff_multiplier < 1.0:
            raise ConfigurationError(
                f"backoff_multiplier must be >= 1, got {self.backoff_multiplier}"
            )

    def backoff_for(self, retry_number: int) -> float:
        """Backoff before the ``retry_number``-th retry (1-based)."""
        return self.backoff_seconds * self.backoff_multiplier ** (
            retry_number - 1
        )


def _record_link(src: str, dst: str, size: int) -> None:
    """Mirror one network message into the telemetry registry.

    Called at the exact sites where :class:`SimulatedNetwork` records a
    message, with the size the network reported — so the telemetry
    counters are *definitionally* equal to the cluster's existing byte
    accounting (asserted by ``tests/telemetry/test_instrumentation.py``).
    """
    telemetry.count("net.messages", src=src, dst=dst)
    telemetry.count("net.bytes", size, src=src, dst=dst)


def _reasons(failures: Dict[int, ProviderUnavailableError]) -> Dict[int, str]:
    """Per-provider failure messages, the form :class:`QuorumError` carries."""
    return {index: str(exc) for index, exc in failures.items()}


class ProviderCluster:
    """``n`` share providers behind a byte-accounted network."""

    def __init__(
        self,
        n_providers: int,
        threshold: int,
        network: Optional[SimulatedNetwork] = None,
        retry: Optional[RetryPolicy] = None,
        name_prefix: str = "",
    ) -> None:
        # constructor misuse is a configuration bug, not a runtime quorum
        # loss — callers legitimately catch QuorumError around reads
        if n_providers < 1:
            raise ConfigurationError(
                f"need at least one provider, got {n_providers}"
            )
        if not 1 <= threshold <= n_providers:
            raise ConfigurationError(
                f"threshold k={threshold} must satisfy 1 <= k <= n={n_providers}"
            )
        self.threshold = threshold
        self.network = network or SimulatedNetwork()
        self.retry = retry or RetryPolicy()
        # name_prefix disambiguates clusters sharing one telemetry hub —
        # a sharded deployment runs several groups whose providers would
        # otherwise all report as DAS1..DASn
        self.providers: List[ShareProvider] = [
            ShareProvider(f"{name_prefix}DAS{i + 1}") for i in range(n_providers)
        ]
        self.health = HealthTracker(
            n_providers,
            clock=lambda: self.network.modelled_seconds,
            names=[p.name for p in self.providers],
        )
        #: the installed :class:`~repro.service.scheduler.FanoutBatcher`
        #: threshold reads are combined through, or ``None``
        self.batcher = None

    @property
    def n_providers(self) -> int:
        return len(self.providers)

    # -- fault management ---------------------------------------------------------

    def inject_fault(self, provider_index: int, fault: Fault) -> None:
        telemetry.count(
            "faults.injected",
            mode=fault.mode.value,
            provider=self.providers[provider_index].name,
        )
        self.providers[provider_index].inject_fault(fault)

    def clear_faults(self) -> None:
        for provider in self.providers:
            provider.clear_fault()

    def live_provider_indexes(self) -> List[int]:
        """Providers not currently fail-stopped.

        A delayed crash (``Fault(CRASH, after_requests=m)``) counts as
        live until its budget is spent — exactly the window in which a
        quorum can select it and then lose it mid-round, which the
        failover path covers.
        """
        return [
            i
            for i, p in enumerate(self.providers)
            if p.fault is None or not p.fault.crash_active
        ]

    # -- RPC ---------------------------------------------------------------------------

    def call_one(self, provider_index: int, method: str, request: Dict) -> Dict:
        """One accounted round trip to one provider: a one-request wave.

        Raises :class:`ProviderUnavailableError` if the provider is down —
        after the request bytes were spent and the modelled timeout was
        charged, as in a real timeout.  With ``retry.max_attempts > 1``
        the request is re-sent after an exponential backoff; each attempt
        spends request bytes again.  A quarantined provider is addressed
        like any other: only read selection consults the health tracker,
        so repair still reaches a provider revived during its cooldown.
        """
        responses, failures = self._call_round(
            method, {provider_index: request}, None, "all"
        )
        if failures:
            raise failures[provider_index]
        return responses[provider_index]

    def call_all(
        self,
        method: str,
        requests: Dict[int, Dict],
        minimum: Optional[int] = None,
        quorum: str = "all",
    ) -> Dict[int, Dict]:
        """Fan a per-provider request map out; collect responses.

        ``minimum=None`` means "need every *addressed* provider" (writes to
        the live set); an integer demands at least that many successes and
        raises :class:`QuorumError` below it, naming the failed providers.

        ``quorum`` shapes the *modelled latency* of the round: ``"all"``
        waits for every response (max round trip), ``"first_k"`` models a
        read that proceeds as soon as ``minimum`` providers have answered
        (the minimum-th fastest round trip).  Responses and byte
        accounting are identical in both modes — straggler responses still
        arrive and are still counted; only the waiting time differs.

        Provider-side errors (anything other than unavailability) surface
        only after the whole round has been drained: every addressed
        provider's request — and every successful response — is accounted
        before the first error is re-raised.
        """
        responses, failures = self._call_round(method, requests, minimum, quorum)
        required = len(requests) if minimum is None else minimum
        if len(responses) < required:
            raise QuorumError(
                f"{method}: only {len(responses)}/{len(requests)} providers "
                f"responded (need {required}); failures: {_reasons(failures)}"
            )
        return responses

    def _call_round(
        self,
        method: str,
        requests: Dict[int, Dict],
        minimum: Optional[int],
        quorum: str,
    ) -> Tuple[Dict[int, Dict], Dict[int, ProviderUnavailableError]]:
        """Send one round: a threshold read through the installed batcher,
        anything else straight to :meth:`wave` (serialised against
        combined rounds by the batcher's dispatch lock)."""
        batcher = self.batcher
        if batcher is None:
            return self.wave(method, requests, minimum, quorum)
        if minimum is not None:
            return batcher.submit(method, requests, minimum, quorum)
        with batcher.dispatch_lock:
            return self.wave(method, requests, minimum, quorum)

    def wave(
        self,
        method: str,
        requests: Dict[int, Dict],
        minimum: Optional[int],
        quorum: str,
    ) -> Tuple[Dict[int, Dict], Dict[int, ProviderUnavailableError]]:
        """The one wave every RPC takes — a batcher's combined ``batch``
        round included; no quorum enforcement.

        Request bytes in provider-index order, then the handlers in-line
        in the same order with each response accounted as it returns,
        then the clock advances by the legs :meth:`_round_elapsed`
        computes.  Nothing here depends on scheduling, so the same seed
        yields the same per-link bytes, clock and provider cost counters.
        Every outcome is reported to the health tracker.

        Retries run as additional waves over the providers that were
        unavailable, unconditionally up to ``retry.max_attempts``; each
        wave charges its backoff plus its own elapsed time.

        Returns ``(responses, failures)`` so callers choose the policy on
        shortfall: :meth:`call_all` raises, :meth:`call_one` re-raises the
        provider's own error, the failover path re-dispatches to spares.
        A provider-side error (anything other than unavailability) is
        re-raised only after the round is drained and the clock advanced —
        the bytes were spent, so the time was too.
        """
        if quorum not in QUORUM_MODES:
            raise ConfigurationError(
                f"unknown quorum mode {quorum!r}; expected one of {QUORUM_MODES}"
            )
        policy = self.retry
        responses: Dict[int, Dict] = {}
        failures: Dict[int, ProviderUnavailableError] = {}
        error: Optional[BaseException] = None
        legs: List[float] = []
        pending = sorted(requests.items())
        with telemetry.span(
            "fan_out",
            method=method,
            addressed=len(requests),
            quorum=quorum,
            minimum=len(requests) if minimum is None else minimum,
        ) as fan_span:
            for attempt in range(1, policy.max_attempts + 1):
                if not pending:
                    break
                if attempt > 1:
                    legs.append(policy.backoff_for(attempt - 1))
                    for index, _ in pending:
                        telemetry.count(
                            "fanout.retries", provider=self.providers[index].name
                        )
                request_seconds: Dict[int, float] = {}
                request_bytes: Dict[int, int] = {}
                for index, request in pending:
                    name = self.providers[index].name
                    size, seconds = self.network.send_unclocked(
                        CLIENT_NAME, name, {"method": method, **request}
                    )
                    _record_link(CLIENT_NAME, name, size)
                    request_seconds[index] = seconds
                    request_bytes[index] = size
                response_seconds: Dict[int, float] = {}
                wave_failed: List[Tuple[int, Dict]] = []
                for index, request in pending:
                    name = self.providers[index].name
                    with telemetry.span("rpc", provider=name, method=method) as sp:
                        sp.set(request_bytes=request_bytes[index])
                        try:
                            response = self.providers[index].handle(method, request)
                        except ProviderUnavailableError as exc:
                            failures[index] = exc
                            wave_failed.append((index, request))
                            telemetry.count("fanout.unavailable", provider=name)
                            sp.set(outcome="unavailable")
                            self.health.record_failure(index)
                            continue
                        except Exception as exc:  # surface after drain
                            if error is None:
                                error = exc
                            sp.set(outcome="error", error=type(exc).__name__)
                            continue
                        size, seconds = self.network.send_unclocked(
                            name, CLIENT_NAME, response
                        )
                        _record_link(name, CLIENT_NAME, size)
                        responses[index] = response
                        failures.pop(index, None)
                        response_seconds[index] = seconds
                        sp.set(
                            outcome="ok",
                            response_bytes=size,
                            rtt_seconds=request_seconds[index] + seconds,
                        )
                        self.health.record_success(index)
                # the first wave waits per the caller's quorum shape; retry
                # waves wait on everyone they re-addressed
                legs += self._round_elapsed(
                    request_seconds,
                    response_seconds,
                    minimum if attempt == 1 else None,
                    quorum if attempt == 1 else "all",
                    n_unavailable=len(wave_failed),
                    timeout_seconds=policy.timeout_seconds,
                    serial=len(requests) == 1,
                )
                pending = wave_failed
            for leg in legs:
                self.network.advance_clock(leg)
            if telemetry.is_enabled():
                elapsed = sum(legs)
                telemetry.observe(
                    "fanout.round_seconds", elapsed, method=method, quorum=quorum
                )
                fan_span.set(
                    round_seconds=elapsed,
                    responded=len(responses),
                    unavailable=len(failures),
                )
                if quorum == "first_k" and minimum is not None:
                    stragglers = max(0, len(responses) - minimum)
                    telemetry.count("fanout.stragglers", stragglers)
                    fan_span.set(stragglers=stragglers)
            if error is not None:
                raise error
            return responses, failures

    @staticmethod
    def _round_elapsed(
        request_seconds: Dict[int, float],
        response_seconds: Dict[int, float],
        minimum: Optional[int],
        quorum: str,
        n_unavailable: int,
        timeout_seconds: float,
        serial: bool,
    ) -> List[float]:
        """The clock legs the client waits through for one wave.

        The messages of a wave overlap in time, so a wave is one leg: the
        slowest round trip (``"all"``) or the ``minimum``-th fastest
        (``"first_k"``), never their sum.  Unavailable providers charge
        ``timeout_seconds`` from the start of the wave — unless a
        ``first_k`` wave met its quorum, in which case the client
        proceeded at the k-th fastest response and never waited out the
        timeouts.

        A round addressed to a single provider (``serial``) has nothing
        to overlap with: it is the request out, then the response — or
        the timeout — back, kept as two legs so the clock sums them in
        the order an ordinary RPC spends them.
        """
        # sending the n requests overlaps; the client is busy until the
        # slowest request has left, even if that provider never answers
        send_wave = max(request_seconds.values(), default=0.0)
        if serial:
            if n_unavailable:
                return [send_wave, timeout_seconds]
            return [send_wave, max(response_seconds.values(), default=0.0)]
        round_trips = sorted(
            request_seconds[index] + seconds
            for index, seconds in response_seconds.items()
        )
        if (
            quorum == "first_k"
            and minimum is not None
            and len(round_trips) >= minimum
        ):
            return [max(send_wave, round_trips[max(minimum, 1) - 1])]
        ceiling = round_trips[-1] if round_trips else 0.0
        if n_unavailable:
            ceiling = max(ceiling, timeout_seconds)
        return [max(send_wave, ceiling)]

    def broadcast(
        self,
        method: str,
        request_builder: Callable[[int], Dict],
        minimum: Optional[int] = None,
        provider_indexes: Optional[List[int]] = None,
        quorum: str = "all",
        failover: bool = False,
    ) -> Dict[int, Dict]:
        """Like :meth:`call_all` with per-provider requests built on demand.

        ``failover=True`` (reads with a ``minimum``) re-dispatches missing
        sub-requests to spare live providers when a round comes up short,
        instead of raising :class:`QuorumError` — see
        :meth:`_call_with_failover`.
        """
        indexes = (
            provider_indexes
            if provider_indexes is not None
            else list(range(self.n_providers))
        )
        requests = {i: request_builder(i) for i in indexes}
        if not failover or minimum is None:
            return self.call_all(method, requests, minimum, quorum=quorum)
        return self._call_with_failover(
            method, request_builder, requests, minimum, quorum
        )

    def _call_with_failover(
        self,
        method: str,
        request_builder: Callable[[int], Dict],
        requests: Dict[int, Dict],
        minimum: int,
        quorum: str,
    ) -> Dict[int, Dict]:
        """Quorum failover: short rounds re-dispatch to spare providers.

        Spares are drawn from the health-preferred live order, excluding
        providers already addressed; each failover wave is a fully
        accounted round (bytes and clock) sized to the shortfall.  When
        the quorum is still short after every spare has been tried, the
        :class:`QuorumError` the caller would have seen without failover
        surfaces — callers never handle partial results.
        """
        responses, failed = self._call_round(method, requests, minimum, quorum)
        addressed = set(requests)
        all_failures = _reasons(failed)
        while len(responses) < minimum:
            needed = minimum - len(responses)
            # knowledge-based like read_quorum: every not-yet-addressed
            # provider is a candidate spare (health-ordered); a spare that
            # turns out to be down fails its RPC and the next wave moves on
            spares = [
                index
                for index in self.health.preferred_order(range(self.n_providers))
                if index not in addressed
            ]
            if not spares:
                raise QuorumError(
                    f"{method}: only {len(responses)}/{len(addressed)} "
                    f"providers responded (need {minimum}) and no spare "
                    f"providers remain; failures: {all_failures}"
                )
            wave = spares[:needed]
            addressed.update(wave)
            for index in wave:
                telemetry.count(
                    "fanout.failovers", provider=self.providers[index].name
                )
            extra, failed = self._call_round(
                method,
                {i: request_builder(i) for i in wave},
                min(needed, len(wave)),
                quorum,
            )
            responses.update(extra)
            all_failures.update(_reasons(failed))
        return responses

    # -- quorum helpers ------------------------------------------------------------------

    def read_quorum(
        self, extra: int = 0, exclude: Sequence[int] = ()
    ) -> List[int]:
        """The first k (+``extra``) preferred providers, sorted.

        Selection is **knowledge-based**: it consults only what the
        client has learned (the health tracker), never the providers'
        actual fault state — a client cannot know a provider crashed
        until an RPC to it times out.  A provider quarantined as down is
        left out while at least k other candidates remain, so it costs
        neither bytes nor a timeout until its cooldown readmits it (or a
        repair releases it); with fewer than k others it is addressed
        after them, since any k providers suffice (Sec. III).  Other
        quarantined providers (blamed for bad shares) sort after healthy
        ones and stay addressable as a last resort.  An undiscovered
        crash is found at dispatch time and handled by retry/failover,
        not here.  ``extra`` requests redundant shares (the verified-read
        path); ``exclude`` drops specific providers (e.g. the repair
        target).  Deterministic selection keeps experiments reproducible.
        """
        excluded = set(exclude)
        candidates = [
            i for i in range(self.n_providers) if i not in excluded
        ]
        if len(candidates) < self.threshold:
            raise QuorumError(
                f"only {len(candidates)} providers addressable after "
                f"exclusions, need k={self.threshold}"
            )
        down = self.health.down(candidates)
        if down and len(candidates) - len(down) >= self.threshold:
            candidates = [i for i in candidates if i not in down]
        ordered = self.health.preferred_order(candidates)
        want = min(len(ordered), self.threshold + max(0, extra))
        return sorted(ordered[:want])

    def write_targets(self) -> List[int]:
        """All live providers (writes are best-effort to everyone)."""
        return self.live_provider_indexes()

    # -- accounting -----------------------------------------------------------------------

    def total_provider_cost(self) -> CostRecorder:
        """Merged computation counters across providers."""
        merged = CostRecorder("providers")
        for provider in self.providers:
            merged.merge(provider.cost)
        return merged

    def reset_accounting(self) -> None:
        self.network.reset()
        for provider in self.providers:
            provider.cost.reset()
            provider.requests_served = 0
