"""Property tests: the write sites that re-share draw the RNG stream of
one share per cell.

* ``DataSource.prepare_update_shares`` (eager UPDATE, the lazy buffer's
  flush) shares its changes in batches, one per run of changes assigning
  the same columns.  Its payloads equal one ``share_value`` per cell,
  rows then columns, under the same seed — whatever columns each change
  assigns (the lazy buffer's changes differ row to row), random and
  order-preserving, NULLs included.
* ``DataSource.refresh_table_shares`` shares all its zeros in one batch.
  Its increments equal one ``random_scheme.split(0)`` per (row, random
  column), rows then columns.
"""

from hypothesis import given, settings, strategies as st

from repro.client.datasource import DataSource
from repro.providers.cluster import ProviderCluster
from tests import pipeline_runs
from tests.client.test_load_path import ledger_rows, ledger_schema
from tests.property.test_prop_load_path import _cells

SCHEMA = ledger_schema()
N, K = 5, 3
#: the primary key cannot be updated
ASSIGNABLE = [name for name in SCHEMA.column_names if name != SCHEMA.primary_key]


def ledger_source(seed: int) -> DataSource:
    source = DataSource(ProviderCluster(N, K), seed=seed)
    source.create_table(ledger_schema())
    return source


@st.composite
def change_lists(draw):
    """``[(row_id, {column: value})]`` drawn from a few column lists (so
    runs of equal columns occur), each in its own order."""
    column_lists = draw(
        st.lists(
            st.lists(st.sampled_from(ASSIGNABLE), min_size=1, max_size=5, unique=True),
            min_size=1,
            max_size=3,
        )
    )
    changes = []
    for row_id in draw(st.lists(st.integers(0, 10**6), max_size=10)):
        columns = draw(st.sampled_from(column_lists))
        changes.append((row_id, {column: draw(_cells[column]) for column in columns}))
    return changes


@settings(max_examples=80, deadline=None)
@given(changes=change_lists(), seed=st.integers(0, 2**16))
def test_update_shares_are_share_value_per_cell(changes, seed):
    source, twin = ledger_source(seed), ledger_source(seed)
    op = source.prepare_update_shares("Ledger", changes)
    sharing = twin.sharing("Ledger")
    expected = [[] for _ in range(N)]
    for row_id, values in changes:
        shares = {column: sharing.share_value(column, v) for column, v in values.items()}
        for i, updates in enumerate(expected):
            updates.append([row_id, {column: s[i] for column, s in shares.items()}])
    assert [request["updates"] for request in op.requests] == (
        expected if changes else []
    )
    assert op.result == len(changes)
    cells = sum(len(values) for _, values in changes)
    assert source.cost.count("poly_eval") == cells * N
    # both streams stand at the same place afterwards
    assert source.sharing("Ledger").share_value("balance", 1) == sharing.share_value(
        "balance", 1
    )


@settings(max_examples=25, deadline=None)
@given(rows=st.integers(1, 12), seed=st.integers(0, 2**16))
def test_refresh_increments_are_one_split_of_zero_per_cell(rows, seed):
    source, twin = ledger_source(seed), ledger_source(seed)
    for deployment in (source, twin):
        deployment.insert_many("Ledger", ledger_rows(rows))
    before = source.cost.count("poly_eval")
    with pipeline_runs.recording(source.cluster.providers) as calls:
        assert source.refresh_table_shares("Ledger") == rows
    increments = [request["increments"] for _, method, request, _ in calls if method == "increment_rows"]
    row_ids = [row_id for row_id, _ in increments[0]]
    assert len(set(row_ids)) == rows
    random_columns = [c.name for c in SCHEMA.columns if not c.searchable]
    expected = [[] for _ in range(N)]
    scheme = twin.sharing("Ledger").random_scheme
    for row_id in row_ids:
        zeros = {column: scheme.split(0, twin._rng) for column in random_columns}
        for i, out in enumerate(expected):
            out.append([row_id, {column: s[i] for column, s in zeros.items()}])
    assert increments == expected
    assert source.cost.count("poly_eval") - before == rows * len(random_columns) * N
