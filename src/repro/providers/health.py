"""Provider health tracking: the client's one failure memory per provider.

Every fan-out round reports per-provider outcomes here; a provider that
fails :data:`QUARANTINE_AFTER` consecutive RPCs is quarantined as
``unavailable`` for :data:`COOLDOWN_SECONDS` of *modelled* network time
(the cluster passes its simulated clock in, so quarantine expiry is
deterministic per seed — no wall time anywhere).  The verified-read path
also quarantines explicitly, as ``blamed``, when redundant interpolation
catches a provider returning inconsistent shares.

The reason decides what selection does with a quarantined provider
(:meth:`ProviderCluster.read_quorum`): one quarantined as down is left
out of reads while ``k`` others can answer, so a crash stops costing
timeouts once it is known; one quarantined for blame answers promptly,
so it only sorts last (:meth:`preferred_order`) and stays addressable
as a last resort — robust decoding can still outvote it.  Cooldown
expiry readmits either kind, so a provider that is still down costs at
most :data:`QUARANTINE_AFTER` timeouts per cooldown.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Set

from .. import telemetry
from ..errors import ConfigurationError

#: Consecutive failed RPCs before a provider is quarantined.
QUARANTINE_AFTER = 2

#: How long (modelled seconds) a quarantine lasts; after expiry the
#: provider rejoins the preferred order with a clean failure count.
COOLDOWN_SECONDS = 30.0

#: Quarantine reason of a provider that stopped answering.
UNAVAILABLE = "unavailable"


@dataclass
class _ProviderHealth:
    """Mutable per-provider state (internal)."""

    consecutive_failures: int = 0
    quarantined_until: Optional[float] = None
    quarantine_reason: str = ""
    times_quarantined: int = 0


class HealthTracker:
    """Consecutive-failure quarantine with a deterministic cooldown.

    Parameters
    ----------
    n_providers:
        Size of the cluster this tracker watches.
    clock:
        Zero-argument callable returning the current modelled time; the
        cluster injects its simulated network's clock.
    names:
        Provider names for telemetry labels and :meth:`snapshot` keys.
    """

    def __init__(
        self,
        n_providers: int,
        clock: Optional[Callable[[], float]] = None,
        names: Optional[Sequence[str]] = None,
    ) -> None:
        if n_providers < 1:
            raise ConfigurationError(
                f"health tracker needs at least one provider, got {n_providers}"
            )
        self._clock = clock if clock is not None else (lambda: 0.0)
        self._names = list(names) if names is not None else [
            str(i) for i in range(n_providers)
        ]
        self._states = [_ProviderHealth() for _ in range(n_providers)]
        # indexes with a quarantine on record (expiry is lazy, so some
        # may have lapsed): lets selection skip all work when it is empty
        self._quarantined: Set[int] = set()

    # -- outcome reporting ---------------------------------------------------

    def record_failure(self, index: int, reason: str = UNAVAILABLE) -> None:
        """One failed RPC; quarantines after :data:`QUARANTINE_AFTER` in a row."""
        state = self._states[index]
        state.consecutive_failures += 1
        if (
            state.consecutive_failures >= QUARANTINE_AFTER
            and not self.is_quarantined(index)
        ):
            self.quarantine(index, reason)

    def record_success(self, index: int) -> None:
        """One successful RPC; resets the consecutive-failure count.

        Transport-level success does **not** lift an active quarantine —
        a tampering provider answers promptly; only cooldown expiry (or
        an explicit :meth:`release`, e.g. after repair) readmits it.
        """
        self._states[index].consecutive_failures = 0

    # -- quarantine lifecycle ------------------------------------------------

    def quarantine(self, index: int, reason: str = "blamed") -> None:
        """Quarantine a provider for :data:`COOLDOWN_SECONDS` from now."""
        state = self._states[index]
        state.quarantined_until = self._clock() + COOLDOWN_SECONDS
        state.quarantine_reason = reason
        state.times_quarantined += 1
        self._quarantined.add(index)
        telemetry.count(
            "health.quarantined", provider=self._names[index], reason=reason
        )

    def release(self, index: int) -> None:
        """Lift a quarantine explicitly (e.g. after a successful repair)."""
        state = self._states[index]
        state.quarantined_until = None
        state.quarantine_reason = ""
        state.consecutive_failures = 0
        self._quarantined.discard(index)

    def is_quarantined(self, index: int) -> bool:
        """Whether a provider is currently quarantined (lazy expiry)."""
        state = self._states[index]
        if state.quarantined_until is None:
            return False
        if self._clock() >= state.quarantined_until:
            # cooldown over: readmit with a clean slate
            self.release(index)
            return False
        return True

    # -- selection -----------------------------------------------------------

    def preferred_order(self, indexes: Sequence[int]) -> List[int]:
        """Order candidates for quorum selection: healthy first.

        Both groups keep ascending index order so selection stays
        deterministic; quarantined providers trail as a last resort.

        :meth:`is_quarantined` is evaluated exactly **once** per index:
        it mutates state on lazy cooldown expiry, so calling it twice
        per index (as this method once did) let a provider whose
        cooldown expired between the two partition scans land in both
        partitions — or, with a clock that advanced between calls, in
        neither.  One evaluation makes the partition a true partition.
        """
        if not self._quarantined:
            return list(indexes)
        healthy: List[int] = []
        quarantined: List[int] = []
        for index in indexes:
            if self.is_quarantined(index):
                quarantined.append(index)
            else:
                healthy.append(index)
        return healthy + quarantined

    def down(self, indexes: Sequence[int]) -> Set[int]:
        """The candidates currently quarantined as unavailable.

        Providers quarantined for blame are not in it: they answer, and
        robust decoding may still want their shares.
        """
        if not self._quarantined:
            return set()
        return {
            index
            for index in indexes
            if self.is_quarantined(index)
            and self._states[index].quarantine_reason == UNAVAILABLE
        }

    # -- introspection ---------------------------------------------------------

    def snapshot(self) -> Dict[str, Dict[str, object]]:
        """Per-provider health summary (CLI/benchmark reports)."""
        now = self._clock()
        out: Dict[str, Dict[str, object]] = {}
        for index, state in enumerate(self._states):
            out[self._names[index]] = {
                "consecutive_failures": state.consecutive_failures,
                "quarantined": self.is_quarantined(index),
                "quarantine_reason": state.quarantine_reason,
                "times_quarantined": state.times_quarantined,
                "cooldown_remaining": (
                    round(max(0.0, state.quarantined_until - now), 6)
                    if state.quarantined_until is not None
                    else 0.0
                ),
            }
        return out
