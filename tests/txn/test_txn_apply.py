"""``txn_apply``: one validate-then-apply round per commit, all or
nothing at each provider.

A provider validates every op of a request (a transactional method, a
table it holds) before it mutates anything, so a request refused there
leaves it exactly as it was, ``version`` included.  What validation
cannot see is a provider whose rows have drifted from the client's view
— ``plan_write`` cannot either, and neither could the old
``txn_prepare`` (it checked the same two things): such a provider
refuses alone, after the others applied.  It refuses whole: the ops that
ran before the refused one are undone through each table's undo log, so
its rows, indexes, history, epoch, horizon, ``applied_txns`` and every
read answer are what they were before the request, and only ``version``
has moved — forward (the property below).
"""

import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.client.datasource import DataSource
from repro.core import kernels
from repro.errors import ProviderError
from repro.persistence import provider_to_dict
from repro.providers.cluster import ProviderCluster
from repro.providers.provider import ShareProvider
from repro.sim.network import ShareRows
from repro.sqlengine.schema import TableSchema, integer_column
from repro.sqlengine.sqlparser import parse_sql
from repro.txn import ShardedTransactionManager, TransactionManager
from tests import pipeline_runs
from tests.sharding.shardutil import build_router

TXN_METHODS = {"insert_many", "update_rows", "delete_rows", "increment_rows"}


def accounts_schema():
    return TableSchema(
        "Accounts",
        (
            integer_column("aid", 0, 1_000),
            integer_column("balance", 0, 1_000_000, searchable=False),
        ),
        primary_key="aid",
    )


@pytest.fixture
def deployment(tmp_path):
    source = DataSource(ProviderCluster(3, 2), seed=29)
    source.create_table(accounts_schema())
    source.insert_many("Accounts", [{"aid": i, "balance": 100 * i} for i in range(5)])
    manager = TransactionManager(source, str(tmp_path / "client.wal"))
    # one applied transaction, so applied_txns and the undo history hold it
    manager.execute("UPDATE Accounts SET balance = 7 WHERE aid = 2")
    yield source, manager
    manager.close()


def provider_state(provider):
    table = provider.store.table("Accounts")
    indexes = {
        column: table.index_for(column).entries_in_order()
        for column in sorted(table.searchable)
    }
    return provider_to_dict(provider), table.version, indexes


VALID = ["delete_rows", {"table": "Accounts", "row_ids": [0], "epoch": 9}]

REFUSED = {
    "later_op_names_an_unknown_table": [
        [50, [VALID, ["delete_rows", {"table": "Nope", "row_ids": [1], "epoch": 9}]]],
    ],
    "later_op_is_not_transactional": [
        [50, [VALID, ["merge_table", {"table": "Accounts", "into": "Accounts"}]]],
    ],
    "later_transaction_is_refused": [
        [50, [VALID]],
        [51, [["create_table", {"table": "X", "columns": ["a"], "searchable": []}]]],
    ],
}


@pytest.mark.parametrize("case", sorted(REFUSED))
def test_a_refused_apply_changes_nothing(deployment, case):
    source, _ = deployment
    provider = source.cluster.providers[0]
    before = provider_state(provider)
    with pytest.raises(ProviderError):
        provider.handle("txn_apply", {"txns": REFUSED[case]})
    assert provider_state(provider) == before
    # the same request minus the refused part applies
    provider.handle("txn_apply", {"txns": [[50, [VALID]]]})
    assert 50 in provider.store.applied_txns
    assert not provider.store.table("Accounts").has_row(0)


@pytest.mark.parametrize(
    "sql",
    [
        "INSERT INTO Accounts (aid, balance) VALUES (77, 1)",
        "UPDATE Accounts SET balance = 5 WHERE aid = 1",
        "UPDATE Accounts SET balance = balance + 5 WHERE aid >= 1",
        "DELETE FROM Accounts WHERE aid = 4",
    ],
)
def test_a_planned_op_always_passes_validation(deployment, sql):
    """What ``txn_apply`` validates is what ``plan_write`` guarantees: one
    of the four transactional methods, on a table every provider holds."""
    source, manager = deployment
    op = source.plan_write(parse_sql(sql))
    assert op.method in TXN_METHODS
    physical = source.physical_name(op.table)
    assert all(p.store.has_table(physical) for p in source.cluster.providers)
    manager.execute(sql)  # and it applies everywhere
    ids = [sorted(p.store.applied_txns) for p in source.cluster.providers]
    assert ids[0] == ids[1] == ids[2]


def _writes(calls, n_providers):
    """Per provider, the methods it was sent other than a read."""
    return [
        [method for at, method, _, _ in calls if at == index and method != "select"]
        for index in range(n_providers)
    ]


COMMITTED_WRITES = [
    "UPDATE Accounts SET balance = 9 WHERE aid >= 3",
    "UPDATE Accounts SET balance = balance + 1 WHERE aid <= 2",
    "DELETE FROM Accounts WHERE aid = 1",
]


@pytest.mark.parametrize("sql", COMMITTED_WRITES)
def test_a_write_commits_in_one_txn_apply_round(deployment, sql):
    """Past its match read, an UPDATE / DELETE through the manager is one
    ``txn_apply`` request to every provider and nothing else."""
    source, manager = deployment
    with pipeline_runs.recording(source.cluster.providers) as calls:
        manager.execute(sql)
    assert _writes(calls, 3) == [["txn_apply"]] * 3


@pytest.mark.parametrize("sql", [
    "UPDATE Employees SET salary = 9 WHERE salary > 50000",
    "UPDATE Employees SET salary = salary + 1 WHERE salary > 50000",
    "DELETE FROM Employees WHERE salary < 30000",
])
def test_a_sharded_write_commits_in_one_txn_apply_round_per_group(tmp_path, sql):
    with build_router("hash") as router:
        manager = ShardedTransactionManager(router, str(tmp_path / "client.wal"))
        with pipeline_runs.recording(router) as calls:
            try:
                assert manager.execute(sql) > 0
            finally:
                manager.close()
        n_providers = sum(len(group.cluster.providers) for group in router.groups)
    assert _writes(calls, n_providers) == [["txn_apply"]] * n_providers


def test_a_provider_whose_rows_drifted_refuses_alone(deployment):
    """The answer to "can a provider-side error still hit some providers
    and not others once ``plan_write`` validated the statement?": yes, but
    only from state the client cannot see — here provider 1 already holds
    the row id the client assigns next.  Prepare-then-commit checked no
    more than ``txn_apply`` does, so its commit round failed the same way.
    """
    source, manager = deployment
    drifted = source.cluster.providers[1]
    drifted.handle(
        "insert_many", {"table": "Accounts", "rows": [[5, {"aid": 1, "balance": 2}]]}
    )
    before = provider_state(drifted)
    with pytest.raises(ProviderError, match="duplicate row id 5"):
        manager.execute("INSERT INTO Accounts (aid, balance) VALUES (99, 1)")
    txn_id = source.txn_id_high
    applied = [txn_id in p.store.applied_txns for p in source.cluster.providers]
    assert applied == [True, False, True]
    assert provider_state(drifted) == before


# -- a transaction refused at any op ------------------------------------------

#: table -> (columns, searchable); the one random column takes increments
SCHEMAS = {"T": (["k", "w"], ["k"]), "U": (["a", "b", "c"], ["a", "c"])}
RANDOM_COLUMN = {"T": "w", "U": "b"}
#: fewer epochs than one request can span: a request's first records fall
#: past the horizon before its last op runs
RETENTION = 2
BACKENDS = [b for b in ("numpy", "scalar") if b in kernels.available_backends()]

shares = st.integers(min_value=0, max_value=30)


def two_table_provider():
    provider = ShareProvider("P")
    provider.store.history_retention = RETENTION
    for name, (columns, searchable) in SCHEMAS.items():
        provider.handle("create_table", {"table": name, "columns": columns, "searchable": searchable})
        provider.handle("insert_many", {"table": name, "epoch": 1, "rows": [
            [rid, {c: (7 * rid + len(c)) % 31 for c in columns}] for rid in range(6)
        ]})
        provider.handle("update_rows", {"table": name, "epoch": 2, "updates": [
            [1, {columns[0]: None}], [2, {columns[-1]: 3}],
        ]})
        provider.handle("delete_rows", {"table": name, "epoch": 3, "row_ids": [4]})
    return provider


def table_state(provider):
    """Each table's rows, index entries, history, epoch and horizon; and
    its ``version``, apart."""
    store, state, versions = provider.store, {}, {}
    for name in store.table_names():
        table = store.table(name)
        state[name] = (
            table.rows,
            {column: index.entries_in_order() for column, index in table.indexes.items()},
            list(table.history),
            table.epoch,
            table.history_floor,
        )
        versions[name] = table.version
    return state, versions


def read_battery(provider):
    """Every read answer as bytes, on each kernel backend."""
    reads = [
        ("select", {"table": "T", "conditions": [
            {"column": "k", "op": "range", "low": 5, "high": 25}]}),
        ("select", {"table": "U", "order_by": "a", "descending": True, "limit": 3}),
        ("select", {"table": "T", "order_by": "k"}),
        ("scan", {"table": "U"}),
        ("aggregate", {"table": "T", "func": "sum", "column": "w"}),
        ("aggregate", {"table": "U", "func": "count", "conditions": [
            {"column": "c", "op": "range", "low": 0, "high": 20}]}),
        ("aggregate_group", {"table": "U", "func": "sum", "group_column": "a", "column": "b"}),
        ("scan", {"table": "T"}),
    ]
    for name in SCHEMAS:
        table = provider.store.table(name)
        reads += [
            ("scan_asof", {"table": name, "epoch": epoch})
            for epoch in range(table.history_floor, table.epoch + 1)
        ]

    def plain(value):
        return list(value) if type(value) is ShareRows else value.hex()

    answers = []
    for backend in BACKENDS:
        previous = kernels.set_kernel_backend(backend)
        try:
            answers += [
                json.dumps(provider.handle(method, request), default=plain, sort_keys=True)
                for method, request in reads
            ]
        finally:
            kernels.set_kernel_backend(previous)
    return answers


@st.composite
def an_op(draw, table, held, epoch, refused):
    """One transactional op on ``table`` whose rows are ``held`` (updated
    as the op would change them); ``refused`` names a missing row id —
    or, for an insert, a taken one — after the ids it may write."""
    kinds = ["insert", "update", "delete", "increments", "deltas"]
    kind = draw(st.sampled_from(kinds if held or refused else ["insert"]))
    columns, _ = SCHEMAS[table]
    column = RANDOM_COLUMN[table]
    if kind == "insert":
        ids = draw(st.lists(st.integers(6, 40).filter(lambda r: r not in held),
                            min_size=1, max_size=2, unique=True))
    else:
        ids = draw(st.lists(st.sampled_from(sorted(held)), max_size=2, unique=True)) if held else []
        ids = ids or ([] if refused else [min(held)])
    if refused:
        if kind == "insert" and held:
            ids.append(draw(st.sampled_from(sorted(held))))
        else:
            kind = "delete" if kind == "insert" else kind
            ids.append(draw(st.integers(41, 60)))
    elif kind in ("insert", "delete"):
        (held.update if kind == "insert" else held.difference_update)(ids)
    payload = {"table": table}
    if draw(st.booleans()):
        payload["epoch"] = epoch
    if kind == "insert":
        payload["rows"] = [[rid, {c: draw(st.none() | shares) for c in columns}] for rid in ids]
        return ["insert_many", payload]
    if kind == "update":
        payload["updates"] = [
            [rid, draw(st.dictionaries(st.sampled_from(columns), st.none() | shares, min_size=1))]
            for rid in ids
        ]
        return ["update_rows", payload]
    if kind == "delete":
        payload["row_ids"] = ids
        return ["delete_rows", payload]
    if kind == "increments":
        payload["increments"] = [[rid, {column: draw(shares)}] for rid in ids]
    else:
        payload["row_ids"], payload["deltas"] = ids, {column: draw(shares)}
    if draw(st.booleans()):
        payload["modulus"] = 31
    return ["increment_rows", payload]


@given(data=st.data())
@settings(max_examples=100, deadline=None)
def test_a_transaction_refused_at_any_op_changes_nothing(data):
    """m ops over one or two transactions and tables; op j fails on the
    provider's rows.  Afterwards the provider reads as before — state,
    history and every read answer — with ``version`` not fallen; then the
    request without op j applies, and leaves the provider equal to one
    that never met op j and took the same ops one RPC at a time."""
    provider = two_table_provider()
    held = {name: set(provider.store.table(name).all_row_ids()) for name in SCHEMAS}
    m = data.draw(st.integers(1, 4), label="m")
    j = data.draw(st.integers(0, m - 1), label="j")
    epoch, ops = 3, []
    for i in range(m):
        table = data.draw(st.sampled_from(sorted(SCHEMAS)))
        epoch += data.draw(st.integers(0, 3))
        ops.append(data.draw(an_op(table, held[table], epoch, refused=i == j)))
    split = data.draw(st.integers(1, m))

    def request(ops):
        cut = min(split, len(ops))
        return {"txns": [[70, ops[:cut]], [71, ops[cut:]]] if cut < len(ops) else [[70, ops]]}

    before, versions = table_state(provider)
    applied = set(provider.store.applied_txns)
    reads = read_battery(provider)
    for _ in range(2):  # the first attempt, then a replay of it
        with pytest.raises(ProviderError):
            provider.handle("txn_apply", request(ops))
        after, moved = table_state(provider)
        assert after == before and provider.store.applied_txns == applied
        assert all(moved[name] >= versions[name] for name in versions)
        assert read_battery(provider) == reads
    rest = ops[:j] + ops[j + 1:]
    committed = provider.handle("txn_apply", request(rest))["committed"]
    assert set(committed) <= provider.store.applied_txns and 70 in committed
    twin = two_table_provider()
    for method, payload in rest:  # one RPC at a time, each pruning as it goes
        twin.handle(method, payload)
    assert table_state(provider)[0] == table_state(twin)[0]
    assert read_battery(provider) == read_battery(twin)
