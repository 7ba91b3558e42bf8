"""One join, four ways to run it, one answer (ISSUE-20).

A join is two row reads and the client's ``hash_join`` wherever the match
runs: at the providers (equal shares of one domain), at the client (the
``client_join_fallback`` for keys of different domains) or across shards
(``ShardRouter``).  For small generated tables with duplicate, NULL and
N:M join keys, a side predicate on each table (one of them an ``OR`` the
providers cannot take, so it stays a client-side residual of that side)
and a cross-table residual, all three must return the plaintext oracle's
rows in the oracle's order, in plain and in ``verified_reads`` mode.  The
select list is any subset of the six columns, and every route asks the
providers for exactly the columns ``explain`` reports for each side — the
select list, the join key and both residuals' columns, or whole rows for
``SELECT *``, for a side that uses every column and for a checked read.

Faults at one provider: a verified join still returns the oracle's rows
and quarantines the provider that omitted or tampered; a plain quorum
join under omission returns a subset — the silent shrink
``client/reconstruct.py`` documents.
"""

from hypothesis import example, given, settings, strategies as st

from repro import DataSource, ProviderCluster
from repro.providers.failures import Fault, FailureMode
from repro.service.sharding import ShardRouter
from repro.sqlengine.catalog import Catalog
from repro.sqlengine.executor import PlaintextExecutor
from repro.sqlengine.schema import TableSchema, integer_column
from repro.sqlengine.sqlparser import parse_sql
from repro.sqlengine.table import Table
from tests import pipeline_runs

N_PROVIDERS, THRESHOLD = 5, 3
FAULTY = 1  # a member of the plain read quorum [0, 1, 2]


def schemas(same_domain: bool):
    """``L`` and ``R``; their ``k`` columns share a domain (provider-side
    match) or not (the join falls back to the client)."""
    label = "domain/k" if same_domain else None
    left = TableSchema(
        "L",
        (
            integer_column("id", 1, 999),
            integer_column("k", 0, 9, nullable=True, domain_label="domain/k"),
            integer_column("a", 0, 9, nullable=True),
        ),
        primary_key="id",
    )
    right = TableSchema(
        "R",
        (
            integer_column("id", 1, 999),
            integer_column("k", 0, 9, nullable=True, domain_label=label),
            integer_column("b", 0, 9, nullable=True, searchable=False),
        ),
        primary_key="id",
    )
    return left, right


def tables(left_rows, right_rows, same_domain=True):
    left, right = schemas(same_domain)
    return (
        Table(left, [{"id": i + 1, "k": k, "a": a} for i, (k, a) in enumerate(left_rows)]),
        Table(right, [{"id": i + 1, "k": k, "b": b} for i, (k, b) in enumerate(right_rows)]),
    )


def unsharded(left_rows, right_rows, same_domain=True, **kwargs) -> DataSource:
    source = DataSource(ProviderCluster(N_PROVIDERS, THRESHOLD), seed=20, **kwargs)
    for table in tables(left_rows, right_rows, same_domain):
        source.outsource_table(table)
    return source


def sharded(left_rows, right_rows) -> ShardRouter:
    router = ShardRouter.build(
        n_groups=2, providers_per_group=N_PROVIDERS, threshold=THRESHOLD, seed=20
    )
    for table in tables(left_rows, right_rows):
        router.outsource_table(table)
    return router


def oracle_rows(left_rows, right_rows, query):
    catalog = Catalog()
    for table in tables(left_rows, right_rows):
        catalog.add_table(table)
    return PlaintextExecutor(catalog).execute(query)


COLUMNS = ["L.id", "L.k", "L.a", "R.id", "R.k", "R.b"]


def projections_sent(calls, query):
    """Per table, the projections its reads carried (``None``: whole rows,
    which a join request says by leaving the field out); empties ``calls``."""
    out = {query.left_table: set(), query.right_table: set()}
    for _, method, request, _ in calls:
        if method == "join":
            out[query.left_table].add(request.get("left_projection"))
            out[query.right_table].add(request.get("right_projection"))
        else:
            out[request["table"]].add(request.get("projection"))
    calls.clear()
    return out


#: few distinct keys, so duplicates and N:M matches are the common case
keys = st.sampled_from([None, 0, 0, 1, 1, 2])
rows = st.lists(
    st.tuples(keys, st.one_of(st.none(), st.integers(0, 9))), min_size=2, max_size=7
)


@st.composite
def joins(draw):
    low, high, floor = (draw(st.integers(0, 9)) for _ in range(3))
    where = [
        f"(L.a < {low} OR L.a > {high})",  # stays L's client-side residual
        f"R.k >= {draw(st.integers(0, 2))}",  # pushed to the providers
        f"(L.a >= {floor} OR R.b >= {floor})",  # cross-table residual
    ]
    kept = [part for part in where if draw(st.booleans())]
    # any subset of the six columns, in any order; none is ``*``
    columns = draw(st.lists(st.sampled_from(COLUMNS), unique=True))
    sql = f"SELECT {', '.join(columns) or '*'} FROM L JOIN R ON L.k = R.k"
    if kept:
        sql += " WHERE " + " AND ".join(kept)
    return parse_sql(sql)


@settings(max_examples=30, deadline=None)
@given(left_rows=rows, right_rows=rows, query=joins())
@example(
    # L.id 2 matches at the providers and fails L's client-side residual
    left_rows=[(1, 2), (1, 5), (2, 9), (None, 3)],
    right_rows=[(1, 4), (1, None), (2, 2)],
    query=parse_sql("SELECT * FROM L JOIN R ON L.k = R.k WHERE (L.a < 3 OR L.a > 8)"),
)
@example(
    left_rows=[],
    right_rows=[(1, 4)],
    query=parse_sql("SELECT * FROM L JOIN R ON L.k = R.k"),
)
def test_every_join_route_equals_the_oracle(left_rows, right_rows, query):
    expected = oracle_rows(left_rows, right_rows, query)
    matched = unsharded(left_rows, right_rows)
    fallback = unsharded(
        left_rows, right_rows, same_domain=False, client_join_fallback=True
    )
    plan = matched.explain(query)
    assert plan["strategy"].startswith("provider-side")
    assert fallback.explain(query)["strategy"].startswith("fetch both sides")
    # the helper's columns, as explain reports them: a side that uses
    # every column fetches whole rows
    fetched = {
        table: None if len(columns) == 3 else tuple(columns)
        for table, columns in (
            ("L", plan["left_fetched_columns"]), ("R", plan["right_fetched_columns"]),
        )
    }
    with sharded(left_rows, right_rows) as router:
        sources = [matched, fallback] + [g.source for g in router.groups]
        providers = [p for source in sources for p in source.cluster.providers]
        with pipeline_runs.recording(providers) as calls:
            for verified in (False, True):
                for source in sources:
                    source.verified_reads = verified
                # checked reads fetch whole rows
                wanted = {
                    table: {None if verified else columns} for table, columns in fetched.items()
                }
                for route in (matched, fallback, router):
                    assert route.join(query) == expected
                    assert projections_sent(calls, query) == wanted


@settings(max_examples=30, deadline=None)
@given(
    left_rows=rows,
    right_rows=rows,
    query=joins(),
    same_domain=st.booleans(),
    mode=st.sampled_from([FailureMode.OMIT, FailureMode.TAMPER]),
    seed=st.integers(0, 5),
)
def test_verified_join_masks_and_quarantines_one_faulty_provider(
    left_rows, right_rows, query, same_domain, mode, seed
):
    expected = oracle_rows(left_rows, right_rows, query)
    source = unsharded(
        left_rows, right_rows, same_domain,
        client_join_fallback=True, verified_reads=True,
    )
    # every row omitted, every share tampered: whenever the provider
    # answers with rows at all, the cross-check has something to catch
    source.cluster.inject_fault(FAULTY, Fault(mode, seed=seed))
    before = source.cluster.network.total_messages
    assert source.join(query) == expected
    # bounded re-issue: at most n rounds per read, two reads when the
    # join falls back to the client
    rounds = N_PROVIDERS * (1 if same_domain else 2)
    assert source.cluster.network.total_messages - before <= rounds * 2 * N_PROVIDERS
    if expected:
        assert source.cluster.health.is_quarantined(FAULTY)
        assert FAULTY not in source.explain(query)["read_quorum"]


@settings(max_examples=30, deadline=None)
@given(
    left_rows=rows,
    right_rows=rows,
    query=joins(),
    same_domain=st.booleans(),
    seed=st.integers(0, 5),
)
def test_plain_join_under_omission_shrinks_silently(
    left_rows, right_rows, query, same_domain, seed
):
    expected = oracle_rows(left_rows, right_rows, query)
    source = unsharded(left_rows, right_rows, same_domain, client_join_fallback=True)
    source.cluster.inject_fault(FAULTY, Fault(FailureMode.OMIT, rate=0.5, seed=seed))
    remaining = list(expected)
    for row in source.join(query):
        remaining.remove(row)  # a subset of the oracle's rows, as a multiset
    assert not source.cluster.health.is_quarantined(FAULTY)
