"""Group commit (ISSUE-8 tentpole, part b).

Every committed transaction costs one WAL fsync plus one
prepare+commit round per provider.  When writers are concurrent those
costs are *combinable*: the first committer to arrive becomes the
**leader**, drains everything queued behind it, and pays the round
once for the whole group; the rest — **followers** — block until the
leader posts their outcome.  This is textbook group commit (DeWitt et
al. 1984), applied to provider RPC rounds instead of disk writes: with
w concurrent writers the per-provider message count drops from w
prepare+commit rounds to ~1.

The engine is policy-free: it batches *ids* and delegates the actual
flush to a callback, so the transaction manager owns WAL order and RPC
mechanics while this module owns only the leader election and the
handoff.
"""

from __future__ import annotations

import threading
from typing import Callable, Dict, List, Optional


class GroupCommitEngine:
    """Leader/follower batching of commit requests.

    ``flush`` is called with a batch of transaction ids **in submission
    order** and must apply all of them; it runs on exactly one thread at
    a time (the current leader), so the callback needs no internal
    locking against itself.  If it raises, every transaction in the
    batch observes the exception.
    """

    def __init__(self, flush: Callable[[List[int]], None]) -> None:
        self._flush = flush
        self._lock = threading.Lock()
        self._wakeup = threading.Condition(self._lock)
        self._queue: List[int] = []
        #: txn_id -> None (success) or the exception the flush raised
        self._outcomes: Dict[int, Optional[BaseException]] = {}
        self._leader_active = False
        self.groups_flushed = 0
        self.txns_flushed = 0
        self.max_observed_group = 0

    def submit(self, txn_id: int) -> None:
        """Block until ``txn_id`` has been flushed (by us or a leader).

        Raises whatever the flush callback raised for our group.
        """
        with self._lock:
            self._queue.append(txn_id)
            while True:
                if txn_id in self._outcomes:
                    # a leader carried us: surface its outcome
                    outcome = self._outcomes.pop(txn_id)
                    if outcome is not None:
                        raise outcome
                    return
                if not self._leader_active:
                    break
                self._wakeup.wait()
            # leader election: we are the only non-waiting submitter
            self._leader_active = True
            batch, self._queue = self._queue, []
        failure: Optional[BaseException] = None
        try:
            self._flush(batch)
        except BaseException as exc:  # noqa: BLE001 — relayed to every follower
            failure = exc
        with self._lock:
            self.groups_flushed += 1
            self.txns_flushed += len(batch)
            self.max_observed_group = max(self.max_observed_group, len(batch))
            for member in batch:
                if member != txn_id:
                    self._outcomes[member] = failure
            self._leader_active = False
            self._wakeup.notify_all()
        if failure is not None:
            raise failure

    def stats(self) -> Dict[str, float]:
        with self._lock:
            groups = self.groups_flushed
            return {
                "groups_flushed": groups,
                "txns_flushed": self.txns_flushed,
                "max_group": self.max_observed_group,
                "mean_group": (self.txns_flushed / groups) if groups else 0.0,
            }
