"""Property tests for the transactional write path (ISSUE-8).

Three properties, each against the plaintext oracle:

* a random mix of incremental (delta) and absolute UPDATEs, with reads
  interleaved, leaves the outsourced table bit-identical to the oracle —
  on unsharded and 2-group sharded deployments (the delta path and the
  eager path must be indistinguishable in outcome);
* WAL replay is idempotent: recovering a crashed deployment twice
  produces the same state as recovering once (and the oracle's);
* an ``as_of_epoch`` read at every historical epoch E equals the oracle
  replayed to exactly E statements.

Each example builds a provider cluster, so example counts are modest;
the fixed-seed recovery matrix in tests/txn covers volume.
"""

from hypothesis import given, settings, strategies as st

from repro import drills
from repro.client.datasource import DataSource
from repro.errors import SimulatedCrash
from repro.providers.cluster import ProviderCluster
from repro.sqlengine.sqlparser import parse_sql
from repro.sqlengine.table import Table
from repro.txn import KILL_PHASES, ShardedTransactionManager, TransactionManager
from repro.workloads.accounts import accounts_schema

ROWS = 8
START = 100_000


def start_table():
    """Account ``i`` holds ``START + i``."""
    return Table(
        accounts_schema(),
        [{"aid": i, "balance": START + i} for i in range(ROWS)],
    )


def to_sql(op) -> str:
    kind, amount, lo, hi = op
    where = f"WHERE aid >= {lo} AND aid <= {hi}"
    if kind == "delta":
        sign = "+" if amount >= 0 else "-"
        return (
            f"UPDATE Accounts SET balance = balance {sign} {abs(amount)} "
            + where
        )
    # keep absolute values near START so later negative deltas cannot
    # push a balance below the column's domain floor
    return f"UPDATE Accounts SET balance = {START + abs(amount)} {where}"


bounds = st.tuples(
    st.integers(min_value=0, max_value=ROWS - 1),
    st.integers(min_value=0, max_value=ROWS - 1),
).map(lambda pair: (min(pair), max(pair)))

operations = st.lists(
    st.tuples(
        st.sampled_from(["delta", "set"]),
        st.integers(min_value=-500, max_value=500),
        st.just(0),
        st.just(0),
    ).flatmap(
        lambda op: bounds.map(lambda b: (op[0], op[1], b[0], b[1]))
    ),
    min_size=1,
    max_size=6,
)


def fill(manager):
    for i in range(ROWS):
        manager.execute(
            f"INSERT INTO Accounts (aid, balance) VALUES ({i}, {START + i})"
        )


@settings(max_examples=12, deadline=None)
@given(ops=operations, read_after=st.integers(min_value=0, max_value=5))
def test_delta_path_equals_eager_and_oracle(ops, read_after):
    oracle = drills.plaintext_oracle(start_table())

    txn_source = DataSource(ProviderCluster(3, 2), seed=5)
    txn_source.create_table(accounts_schema())
    manager = TransactionManager(txn_source)
    fill(manager)

    eager_source = DataSource(ProviderCluster(3, 2), seed=5)
    eager_source.create_table(accounts_schema())
    eager_source.insert_many("Accounts", start_table().rows())

    for position, op in enumerate(ops):
        text = to_sql(op)
        statement = parse_sql(text)
        manager.execute(text)
        eager_source.update(statement)
        oracle.execute(statement)
        if position == read_after:
            # interleaved read through the manager barriers the outbox
            # and must already agree with the oracle mid-sequence
            assert drills.accounts(manager) == drills.accounts(oracle)
    manager.close()
    expected = drills.accounts(oracle)
    assert drills.accounts(txn_source) == expected
    assert drills.accounts(eager_source) == expected


@settings(max_examples=8, deadline=None)
@given(ops=operations)
def test_sharded_delta_sequence_equals_oracle(ops):
    from repro.service.sharding import ShardRouter

    oracle = drills.plaintext_oracle(start_table())
    router = ShardRouter.build(
        n_groups=2, providers_per_group=3, threshold=2, seed=5
    )
    router.create_table(accounts_schema())
    manager = ShardedTransactionManager(router)
    fill(manager)
    for op in ops:
        text = to_sql(op)
        manager.execute(text)
        oracle.execute(parse_sql(text))
    manager.close()
    assert drills.accounts(router) == drills.accounts(oracle)


@settings(max_examples=10, deadline=None)
@given(ops=operations, phase=st.sampled_from(list(KILL_PHASES)))
def test_wal_replay_is_idempotent(tmp_path_factory, ops, phase):
    wal = str(tmp_path_factory.mktemp("txn") / "prop.wal")
    oracle = drills.plaintext_oracle(start_table())
    source = DataSource(ProviderCluster(3, 2), seed=5)
    source.create_table(accounts_schema())
    manager = TransactionManager(source, wal)
    fill(manager)
    *prefix, victim = ops
    for op in prefix:
        text = to_sql(op)
        manager.execute(text)
        oracle.execute(parse_sql(text))
    manager.kill_at = phase
    crashed = False
    try:
        manager.execute(to_sql(victim))
    except SimulatedCrash:
        crashed = True
    assert crashed
    if phase != "pre-log":
        oracle.execute(parse_sql(to_sql(victim)))
    manager.close()
    once = TransactionManager(source, wal)
    once.recover()
    state_once = drills.accounts(source)
    once.close()
    twice = TransactionManager(source, wal)
    report = twice.recover()
    twice.close()
    assert report["replayed"] == 0
    assert drills.accounts(source) == state_once == drills.accounts(oracle)


@settings(max_examples=10, deadline=None)
@given(ops=operations)
def test_time_travel_equals_oracle_at_every_epoch(ops):
    oracle = drills.plaintext_oracle(start_table())
    source = DataSource(ProviderCluster(3, 2), seed=5)
    source.create_table(accounts_schema())
    source.insert_many("Accounts", start_table().rows())
    manager = TransactionManager(source)
    states = {source.table_epoch("Accounts"): drills.accounts(oracle)}
    for op in ops:
        text = to_sql(op)
        manager.execute(text)
        oracle.execute(parse_sql(text))
        states[source.table_epoch("Accounts")] = drills.accounts(oracle)
    manager.close()
    select_all = parse_sql("SELECT * FROM Accounts")
    for epoch, expected in states.items():
        past = sorted(
            (r["aid"], r["balance"])
            for r in source.select_asof(select_all, epoch)
        )
        assert past == expected, f"as_of_epoch={epoch} diverged"
