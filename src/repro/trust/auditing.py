"""Client-side audit registry wiring the trust layer into the data source.

An :class:`AuditRegistry` attached to a :class:`~repro.client.datasource.
DataSource` mirrors every write (the client knows each share it uploads)
and offers three verification services:

* :meth:`verify_responses` — per-row correctness of query results;
* :meth:`audit_roots` — O(1)-communication whole-table audit against each
  provider's claimed Merkle root;
* :meth:`spot_check` — O(log N) proof-based check of one row without
  trusting the provider's root claim.

EXP-T9 measures the overhead of each and the tamper-detection rate.
"""

from __future__ import annotations

from typing import Dict, Tuple

from ..errors import IntegrityError
from ..providers.cluster import ProviderCluster
from ..providers.storage import ShareRow
from .merkle import ShareAuditor


class AuditRegistry:
    """Per-(table, provider) share auditors for one data source."""

    def __init__(self, n_providers: int, namespace: str = "") -> None:
        if n_providers < 1:
            raise IntegrityError("need at least one provider to audit")
        self.n_providers = n_providers
        #: set automatically when attached to a namespaced DataSource; used
        #: to address the provider-side (physical) table in audit RPCs
        self.namespace = namespace
        self._auditors: Dict[Tuple[str, int], ShareAuditor] = {}
        self.rows_verified = 0
        self.tampering_detected = 0

    def _physical(self, table: str) -> str:
        return f"{self.namespace}::{table}" if self.namespace else table

    # -- write mirroring (called by the data source) ----------------------------

    def on_create_table(self, table: str) -> None:
        for index in range(self.n_providers):
            key = (table, index)
            if key in self._auditors:
                raise IntegrityError(f"table {table!r} already audited")
            # hash under the provider-side (physical) name so client and
            # provider Merkle trees agree in namespaced deployments
            self._auditors[key] = ShareAuditor(self._physical(table), index)

    def on_insert(
        self, table: str, provider_index: int, row_id: int, values: ShareRow
    ) -> None:
        self._auditor(table, provider_index).record_insert(row_id, values)

    def on_update(
        self, table: str, provider_index: int, row_id: int, assignments: ShareRow
    ) -> None:
        self._auditor(table, provider_index).record_update(row_id, assignments)

    def on_delete(self, table: str, row_id: int) -> None:
        for index in range(self.n_providers):
            auditor = self._auditors.get((table, index))
            if auditor is not None and row_id in auditor:
                auditor.record_delete(row_id)

    def on_resync(self, table: str) -> None:
        """Reset a table's auditors ahead of a full re-share (anti-entropy).

        The data source re-records every row via :meth:`on_insert` right
        after, so ground truth is rebuilt from the fresh shares.
        """
        for index in range(self.n_providers):
            self._auditors[(table, index)] = ShareAuditor(
                self._physical(table), index
            )

    def _auditor(self, table: str, provider_index: int) -> ShareAuditor:
        try:
            return self._auditors[(table, provider_index)]
        except KeyError:
            raise IntegrityError(
                f"no auditor for table {table!r} provider {provider_index}"
            ) from None

    # -- verification services ------------------------------------------------------

    def verify_responses(
        self, table: str, responses: Dict[int, Dict]
    ) -> None:
        """Check every share row of a select response against ground truth.

        Raises :class:`IntegrityError` naming the offending provider on
        the first tampered share.
        """
        for provider_index, response in responses.items():
            auditor = self._auditor(table, provider_index)
            for row_id, values in response["rows"]:
                try:
                    auditor.verify_row(row_id, values)
                except IntegrityError:
                    self.tampering_detected += 1
                    raise
                self.rows_verified += 1

    def audit_roots(
        self, cluster: ProviderCluster, table: str
    ) -> Dict[int, bool]:
        """Ask every live provider for its Merkle root and compare.

        Returns provider_index → passed; callers decide whether a failed
        audit is fatal (it means the provider's *stored* table diverged
        from what the client uploaded).
        """
        results: Dict[int, bool] = {}
        for provider_index in cluster.live_provider_indexes():
            response = cluster.call_one(
                provider_index, "merkle_root", {"table": self._physical(table)}
            )
            auditor = self._auditor(table, provider_index)
            try:
                auditor.verify_root(response["root"])
                results[provider_index] = True
            except IntegrityError:
                self.tampering_detected += 1
                results[provider_index] = False
        return results

    def spot_check(
        self,
        cluster: ProviderCluster,
        table: str,
        row_id: int,
        provider_index: int,
    ) -> None:
        """Fetch one row with a Merkle proof and verify both.

        Catches a provider that serves tampered rows while keeping honest
        storage (response-level tampering) *and* one whose storage itself
        diverged (the proof will not reach the client's root).
        """
        response = cluster.call_one(
            provider_index,
            "merkle_proof",
            {"table": self._physical(table), "row_id": row_id},
        )
        returned_id, values = response["row"]
        if returned_id != row_id:
            self.tampering_detected += 1
            raise IntegrityError(
                f"provider {provider_index} answered spot check for row "
                f"{row_id} with row {returned_id}"
            )
        auditor = self._auditor(table, provider_index)
        path = [(side, sibling) for side, sibling in response["proof"]]
        try:
            auditor.verify_row(row_id, values)
            auditor.verify_spot_proof(row_id, values, path)
        except IntegrityError:
            self.tampering_detected += 1
            raise
        self.rows_verified += 1
