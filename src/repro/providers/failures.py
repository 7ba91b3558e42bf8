"""Fault injection for providers.

Sec. VI(b) calls for "exploration of different failure models and the
development of algorithms for both benign and malicious environments".
We model four provider behaviours beyond honest operation:

* **CRASH** — the provider stops responding (benign fail-stop).  The
  cluster routes around it as long as k providers remain (EXP-T7).
  ``after_requests`` delays the crash: the provider serves that many
  more requests first, modelling a failure *between* quorum selection
  and response collection (the mid-round crash the failover path must
  survive).
* **FLAKY** — transient unavailability: each request independently fails
  with probability ``rate`` (a timeout, not a fail-stop), so the
  provider stays in the live set and per-RPC retries are meaningful.
* **TAMPER** — a malicious provider perturbs the share values it returns.
  Detected by checked reads (``verified_reads=True``: redundant shares
  decoded robustly, the outvoted provider blamed) and, for
  order-preserving shares, by out-of-domain reconstruction (EXP-T9).
* **OMIT** — a lazy/malicious provider silently drops a fraction of
  matching rows from range results.  Detected by checked reads' presence
  vote, which blames the provider missing a row the majority returned
  (EXP-T9); a plain quorum read comes back short.

Each fault draws from its own RNG stream, derived from the provider it
is injected into (see :meth:`Fault.bind`): two default-configured
tamperers corrupt *independently*, which is the failure model robust
decoding is designed for — correlated corruption would require
collusion, a different adversary.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, List, Optional

from .. import telemetry
from ..sim.network import ShareRows
from ..sim.rng import DeterministicRNG


class FailureMode(enum.Enum):
    """What kind of misbehaviour a faulty provider exhibits."""

    CRASH = "crash"
    FLAKY = "flaky"
    TAMPER = "tamper"
    OMIT = "omit"


@dataclass
class Fault:
    """A fault configuration attached to a provider.

    ``rate`` is the per-item probability of corruption (TAMPER), drop
    (OMIT), or per-request unavailability (FLAKY); CRASH ignores it.
    ``seed`` seeds the fault's private RNG stream; the stream *label* is
    derived from the provider the fault is injected into (via
    :meth:`bind`), so two faults with identical configuration misbehave
    independently — deterministic per (seed, provider), reproducible
    across runs.  Passing an explicit ``rng`` overrides the derivation.
    """

    mode: FailureMode
    rate: float = 1.0
    rng: Optional[DeterministicRNG] = None
    seed: int = 0
    #: CRASH only: serve this many more requests, then go down.  Models a
    #: crash that lands between quorum selection and response collection.
    after_requests: int = 0

    def __post_init__(self) -> None:
        if not 0.0 <= self.rate <= 1.0:
            raise ValueError(f"fault rate must be in [0, 1], got {self.rate}")
        if self.after_requests < 0:
            raise ValueError(
                f"after_requests must be >= 0, got {self.after_requests}"
            )

    def bind(self, site: str) -> "Fault":
        """Derive the RNG stream from the injection site (provider name).

        Called by :meth:`ShareProvider.inject_fault`; a no-op when the
        caller supplied an explicit ``rng``.  Returns self for chaining.
        """
        if self.rng is None:
            self.rng = DeterministicRNG(self.seed, f"fault/{site}")
        return self

    def _stream(self) -> DeterministicRNG:
        """The fault's RNG; bound lazily for faults never injected."""
        if self.rng is None:
            self.bind("unbound")
        return self.rng

    @property
    def is_crash(self) -> bool:
        """True for CRASH faults, regardless of any delayed-crash budget."""
        return self.mode is FailureMode.CRASH

    @property
    def crash_active(self) -> bool:
        """True once a CRASH fault's request budget is exhausted.

        A delayed crash (``after_requests > 0``) keeps the provider in
        the live set until it has served its budget — exactly the window
        in which a quorum can select it and then lose it mid-round.
        """
        return self.mode is FailureMode.CRASH and self.after_requests <= 0

    def on_request(self) -> bool:
        """Per-request availability check; True means "refuse this request".

        CRASH: refuses once the ``after_requests`` budget is spent
        (decremented here, so the budget counts requests actually served).
        FLAKY: refuses independently with probability ``rate``.
        """
        if self.mode is FailureMode.CRASH:
            if self.after_requests > 0:
                self.after_requests -= 1
                return False
            return True
        if self.mode is FailureMode.FLAKY:
            return self._stream().random() < self.rate
        return False

    def maybe_corrupt_share(self, share: Optional[int]) -> Optional[int]:
        """TAMPER: perturb a share value with probability ``rate``.

        The perturbation is a small additive offset — the hardest kind of
        tampering to notice without verification, since the share stays
        plausible in magnitude.
        """
        if share is None or self.mode is not FailureMode.TAMPER:
            return share
        rng = self._stream()
        if rng.random() < self.rate:
            telemetry.count("faults.tampered_shares")
            return share + rng.randint(1, 1_000)
        return share

    def corrupt_row(
        self, values: Dict[str, Optional[int]]
    ) -> Dict[str, Optional[int]]:
        """TAMPER: apply per-share corruption across a row."""
        if self.mode is not FailureMode.TAMPER:
            return values
        return {
            column: self.maybe_corrupt_share(share)
            for column, share in values.items()
        }

    def corrupt_share_rows(self, rows: ShareRows) -> ShareRows:
        """OMIT and TAMPER on a column-major result, drawing what
        :meth:`filter_rows` then :meth:`corrupt_row` per row draw on the
        row-major list it stands for: one number per row in row order, or
        one per non-NULL share in row-then-column order."""
        if self.mode is FailureMode.OMIT:
            kept = self.filter_rows(rows.row_ids)
            return rows if len(kept) == len(rows) else rows.take(kept)
        if self.mode is FailureMode.TAMPER and rows.row_ids and rows.columns:
            corrupted = [
                [self.maybe_corrupt_share(share) for share in cells]
                for cells in zip(*rows.shares)
            ]
            return ShareRows(rows.row_ids, rows.columns, list(zip(*corrupted)))
        return rows

    def filter_rows(self, rows: List) -> List:
        """OMIT: silently drop each result row with probability ``rate``."""
        if self.mode is not FailureMode.OMIT:
            return rows
        rng = self._stream()
        kept = [row for row in rows if rng.random() >= self.rate]
        if len(kept) != len(rows):
            telemetry.count("faults.omitted_rows", len(rows) - len(kept))
        return kept
