"""Unit tests for result reconstruction and alignment."""

import pytest

from repro.client.datasource import DataSource
from repro.client.reconstruct import (
    align_by_row_id,
    consistent_scalar,
    reconstruct_rows,
    reconstruct_rows_checked,
    reconstruct_single_rows,
    rows_from_responses,
)
from repro.core.scheme import TableSharing
from repro.core.secrets import generate_client_secrets
from repro.errors import IntegrityError, ReconstructionError
from repro.providers.cluster import ProviderCluster
from repro.sim.network import ShareRows
from repro.sim.rng import DeterministicRNG
from repro.sqlengine.expression import Comparison, ComparisonOp
from repro.sqlengine.schema import TableSchema, integer_column
from repro.workloads.employees import employees_table
from tests.pipeline_runs import recording


@pytest.fixture
def sharing():
    schema = TableSchema(
        "T", (integer_column("k", 0, 1000), integer_column("v", 0, 1000))
    )
    return TableSharing(
        schema, generate_client_secrets(4, seed=8), 3, DeterministicRNG(8)
    )


def make_responses(sharing, rows):
    """Simulate honest provider responses for given plaintext rows."""
    shared = sharing.share_rows([row for _, row in rows], [rid for rid, _ in rows])
    return {i: {"rows": shared[i]} for i in range(4)}


EMPTY = ShareRows([], (), [])


class TestAlignment:
    def test_rows_from_responses(self, sharing):
        responses = make_responses(sharing, [(0, {"k": 1, "v": 2})])
        provider_rows = rows_from_responses(responses)
        assert set(provider_rows) == {0, 1, 2, 3}

    def test_align_by_row_id_sorted(self, sharing):
        responses = make_responses(
            sharing, [(5, {"k": 1, "v": 1}), (2, {"k": 2, "v": 2})]
        )
        aligned = align_by_row_id(rows_from_responses(responses))
        assert list(aligned) == [2, 5]
        assert set(aligned[2]) == {0, 1, 2, 3}


class TestReconstruct:
    def test_roundtrip(self, sharing):
        rows = [(0, {"k": 10, "v": 20}), (1, {"k": 30, "v": 40})]
        responses = make_responses(sharing, rows)
        out = reconstruct_rows(sharing, responses)
        assert out == rows

    def test_residual_filters(self, sharing):
        rows = [(0, {"k": 10, "v": 20}), (1, {"k": 30, "v": 40})]
        responses = make_responses(sharing, rows)
        out = reconstruct_rows(
            sharing, responses, residual=Comparison("v", ComparisonOp.GT, 25)
        )
        assert out == [(1, {"k": 30, "v": 40})]

    def test_underquorum_rows_dropped_silently(self, sharing):
        responses = make_responses(sharing, [(0, {"k": 1, "v": 2})])
        # provider 3 omits the row; 3 ≥ k=3 still → kept.  Then drop from
        # provider 2 as well → only 2 copies → dropped.
        responses[3]["rows"] = EMPTY
        assert len(reconstruct_rows(sharing, responses)) == 1
        responses[2]["rows"] = EMPTY
        assert reconstruct_rows(sharing, responses) == []

    def test_two_omitters_of_four_raise_rather_than_shorten(self, sharing):
        """Row 0 is returned by two of the four responders: a presence
        tie, so the checked decode raises instead of dropping it."""
        rows = [(0, {"k": 1, "v": 2}), (1, {"k": 3, "v": 4})]
        responses = make_responses(sharing, rows)
        for index in (2, 3):
            responses[index]["rows"] = responses[index]["rows"].take([1])
        with pytest.raises(ReconstructionError, match="presence tie"):
            reconstruct_rows_checked(sharing, responses)


class TestSingleRowAggregates:
    def test_agreeing_nominations(self, sharing):
        share_rows = sharing.share_row({"k": 5, "v": 6})
        responses = {
            i: {"row": [7, share_rows[i]], "count": 3} for i in range(4)
        }
        row = reconstruct_single_rows(sharing, responses)
        assert row == {"k": 5, "v": 6}

    def test_disagreeing_nominations_detected(self, sharing):
        share_rows = sharing.share_row({"k": 5, "v": 6})
        responses = {
            i: {"row": [7, share_rows[i]], "count": 3} for i in range(4)
        }
        responses[2]["row"][0] = 8  # different row id
        with pytest.raises(IntegrityError):
            reconstruct_single_rows(sharing, responses)

    def test_empty_everywhere(self, sharing):
        responses = {i: {"row": None, "count": 0} for i in range(4)}
        assert reconstruct_single_rows(sharing, responses) is None

    def test_partial_emptiness_detected(self, sharing):
        share_rows = sharing.share_row({"k": 5, "v": 6})
        responses = {i: {"row": [7, share_rows[i]], "count": 3} for i in range(4)}
        responses[1]["row"] = None
        with pytest.raises(IntegrityError):
            reconstruct_single_rows(sharing, responses)


class TestConsistentScalar:
    def test_agreement(self):
        responses = {0: {"count": 5}, 1: {"count": 5}}
        assert consistent_scalar(responses, "count") == 5

    def test_disagreement(self):
        responses = {0: {"count": 5}, 1: {"count": 6}}
        with pytest.raises(IntegrityError):
            consistent_scalar(responses, "count")

    def test_empty_responses_raise_reconstruction_error(self):
        """An empty quorum surfaces as ReconstructionError, not a bare
        StopIteration escaping from ``next(iter(...))``."""
        with pytest.raises(
            ReconstructionError, match="no provider responses to agree on"
        ):
            consistent_scalar({}, "count")


def test_a_fault_free_range_read_decodes_each_providers_own_rows(monkeypatch):
    """No copy when ids agree: every responder returned the same ids, so
    the rows each one reaches ``TableSharing.reconstruct_rows`` with are
    the very ``ShareRows`` that provider answered (``take`` returns it)."""
    source = DataSource(ProviderCluster(5, 3), seed=3)
    source.outsource_table(employees_table(300, seed=3))
    decoded = []
    whole = TableSharing.reconstruct_rows

    def watched(self, share_rows, columns=None):
        decoded.append(dict(share_rows))
        return whole(self, share_rows, columns)

    monkeypatch.setattr(TableSharing, "reconstruct_rows", watched)
    with recording(source.cluster.providers) as calls:
        rows = source.sql("SELECT * FROM Employees WHERE salary BETWEEN 40000 AND 70000")
    answered = {index: response["rows"] for index, _, _, response in calls if "rows" in response}
    assert len(rows) > 50 and len(decoded) == 1 and len(answered) >= 3
    assert {index: id(share_rows) for index, share_rows in decoded[0].items()} == {
        index: id(share_rows) for index, share_rows in answered.items()
    }
