"""Property tests: the vectorized provider engine == the scalar oracle.

The provider execution path (select, scan, aggregates, grouped
aggregates, compact increment deltas) runs on numpy mirrors when the
backend allows.  The invariant is total: for any table and any request
battery, a provider forced onto the numpy backend must be
**bit-identical** to one forced onto the scalar backend — same
responses, same raised errors, same cost counters, same storage state
(rows, history, version, epoch), same Merkle roots and proofs —
including under CRASH/TAMPER/OMIT fault injection (same provider name ⇒
same fault RNG stream) and across the ``applied_txns`` exactly-once
replay path.

The first half drives synthetic narrow shares through every RPC; the
second half (``real share tables``) drives the shares the system
actually stores — ``TableSharing``'s 90–122-bit order-preserving shares
of ``Employees``/``Managers`` — and additionally asserts that the numpy
run was answered *by the vector engine*: width is no reason to decline.

Without numpy the whole module skips — the scalar oracle cannot
diverge from itself; the CI matrix runs the suite both ways.
"""

import dataclasses
import random
from contextlib import contextmanager

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import kernels
from repro.core.field import MERSENNE_61
from repro.core.scheme import TableSharing
from repro.core.secrets import generate_client_secrets
from repro.errors import ReproError
from repro.providers import provider as provider_module
from repro.providers.failures import FailureMode, Fault
from repro.providers.provider import ShareProvider
from repro.sim.network import measure_bytes
from repro.sim.rng import DeterministicRNG
from repro.workloads.employees import employees_table, managers_table

pytestmark = pytest.mark.skipif(
    "numpy" not in kernels.available_backends(),
    reason="numpy backend not installed (repro[fast])",
)

COLUMNS = ["k", "g", "v", "w"]
SEARCHABLE = ["k", "g"]

seeds = st.integers(min_value=0, max_value=2**32 - 1)
sizes = st.integers(min_value=0, max_value=50)


def make_rows(rng, n):
    """n share rows over the schema above."""
    rows = []
    for rid in range(n):
        values = {
            "k": rng.randrange(max(n // 3, 1)) * 5
            if rng.random() >= 0.1
            else None,
            "g": rng.randrange(4) * 1_000,
            "v": rng.randrange(MERSENNE_61) if rng.random() >= 0.15 else None,
            "w": rng.randrange(MERSENNE_61),
        }
        rows.append((rid, values))
    return rows


def build_provider(rows, fault=None):
    # identical name on both twins ⇒ identical fault RNG streams
    provider = ShareProvider("P")
    provider.handle(
        "create_table",
        {"table": "T", "columns": COLUMNS, "searchable": SEARCHABLE},
    )
    if rows:
        provider.handle("insert_many", {"table": "T", "rows": rows})
    if fault is not None:
        provider.inject_fault(fault)
    return provider


def request_battery(rng, rows):
    """A deterministic mixed battery derived from the row population."""
    ks = sorted(
        {v["k"] for _, v in rows if v["k"] is not None} or {0, 10}
    )
    mid = ks[len(ks) // 2]
    cond_range = [{"column": "k", "op": "range", "low": ks[0], "high": mid}]
    cond_eq = [{"column": "k", "op": "eq", "low": rng.choice(ks)}]
    cond_pair = [
        {"column": "k", "op": "ge", "low": mid},
        {"column": "g", "op": "le", "low": 2_000},
    ]
    cond_empty = [{"column": "g", "op": "gt", "low": 10_000}]
    battery = [
        ("select", {"table": "T", "conditions": []}),
        ("select", {"table": "T", "conditions": cond_range,
                    "projection": ["v", "w"]}),
        ("select", {"table": "T", "conditions": cond_eq, "order_by": "k"}),
        ("select", {"table": "T", "conditions": cond_pair, "order_by": "g",
                    "descending": True, "limit": 7}),
        ("select", {"table": "T", "conditions": cond_empty}),
        ("select", {"table": "T", "conditions": [], "order_by": "k",
                    "limit": 5}),
        ("scan", {"table": "T", "projection": ["k", "v"]}),
        ("scan", {"table": "T"}),
        ("aggregate", {"table": "T", "func": "count", "column": None,
                       "conditions": []}),
        ("aggregate", {"table": "T", "func": "count", "column": "v",
                       "conditions": cond_range}),
        ("aggregate", {"table": "T", "func": "sum", "column": "v",
                       "conditions": []}),
        ("aggregate", {"table": "T", "func": "sum", "column": "v",
                       "conditions": cond_pair}),
        ("aggregate", {"table": "T", "func": "sum", "column": "w",
                       "conditions": cond_empty}),
        ("aggregate", {"table": "T", "func": "min", "column": "k",
                       "conditions": []}),
        ("aggregate", {"table": "T", "func": "max", "column": "k",
                       "conditions": cond_range}),
        ("aggregate", {"table": "T", "func": "median", "column": "k",
                       "conditions": cond_range}),
        ("aggregate_group", {"table": "T", "group_column": "g",
                             "func": "sum", "column": "v",
                             "conditions": []}),
        ("aggregate_group", {"table": "T", "group_column": "g",
                             "func": "count", "column": None,
                             "conditions": cond_range}),
        ("aggregate_group", {"table": "T", "group_column": "g",
                             "func": "median", "column": "w",
                             "conditions": []}),
        ("merkle_root", {"table": "T"}),
    ]
    if rows:
        sample = [rid for rid, _ in rows][:: max(len(rows) // 7, 1)]
        battery.append(("get_rows", {"table": "T", "row_ids": sample}))
        for rid in sample[:3]:
            battery.append(("merkle_proof", {"table": "T", "row_id": rid}))
    return battery


def run_battery(provider, battery):
    """Execute every request, capturing results and raised errors alike."""
    out = []
    for method, request in battery:
        try:
            out.append(provider.handle(method, dict(request)))
        except ReproError as exc:
            out.append(("err", type(exc).__name__, str(exc)))
    return out


def state_snapshot(provider):
    table = provider.store.table("T")
    return (
        table.rows,
        table.version,
        list(table.history),
        table.epoch,
        set(provider.store.applied_txns),
    )


def twin_run(fn):
    """Run ``fn()`` under forced scalar and forced numpy; return both."""
    results = {}
    for backend in ("scalar", "numpy"):
        previous = kernels.set_kernel_backend(backend)
        try:
            results[backend] = fn()
        finally:
            kernels.set_kernel_backend(previous)
    return results["scalar"], results["numpy"]


@given(seed=seeds, n=sizes)
@settings(max_examples=40, deadline=None)
def test_read_battery_backends_identical(seed, n):
    """Every read RPC: same responses, same cost counters."""
    rows = make_rows(random.Random(seed), n)
    battery = request_battery(random.Random(seed + 1), rows)

    def run():
        provider = build_provider(rows)
        responses = run_battery(provider, battery)
        return responses, provider.cost.snapshot()

    scalar, vector = twin_run(run)
    assert scalar == vector


@given(seed=seeds, n=st.integers(min_value=1, max_value=50))
@settings(max_examples=40, deadline=None)
def test_increment_backends_identical(seed, n):
    """Compact increment deltas: same results/errors, same storage state."""
    rng = random.Random(seed)
    rows = make_rows(rng, n)
    all_ids = [rid for rid, _ in rows]
    batches = [
        # plain batch over payload columns (NULL v cells must stay NULL)
        {"table": "T", "row_ids": all_ids[: max(n // 2, 1)],
         "deltas": {"v": rng.randrange(MERSENNE_61),
                    "w": rng.randrange(MERSENNE_61)},
         "modulus": MERSENNE_61, "epoch": 1},
        # unknown column rides along and is skipped
        {"table": "T", "row_ids": all_ids[:1],
         "deltas": {"w": 3, "zz": 9}, "modulus": MERSENNE_61},
        # missing row id: both engines must raise the same error pre-write
        {"table": "T", "row_ids": [n + 50],
         "deltas": {"w": 1}, "modulus": MERSENNE_61},
        # searchable column: both engines must refuse identically
        {"table": "T", "row_ids": all_ids[:1],
         "deltas": {"k": 2}, "modulus": MERSENNE_61},
        # per-row legacy shape (always scalar; must still match)
        {"table": "T",
         "increments": [[all_ids[-1], {"w": rng.randrange(1_000)}]],
         "modulus": MERSENNE_61},
    ]

    def run():
        provider = build_provider(rows)
        out = []
        for request in batches:
            try:
                out.append(provider.handle("increment_rows", dict(request)))
            except ReproError as exc:
                out.append(("err", str(exc)))
        return out, state_snapshot(provider), provider.cost.snapshot()

    scalar, vector = twin_run(run)
    assert scalar == vector


@given(
    seed=seeds,
    n=sizes,
    mode=st.sampled_from(
        [FailureMode.CRASH, FailureMode.TAMPER, FailureMode.OMIT]
    ),
)
@settings(max_examples=30, deadline=None)
def test_faulty_battery_backends_identical(seed, n, mode):
    """Fault injection operates on per-request copies: with the same
    provider name (⇒ same fault RNG stream), a tampering/omitting/crashed
    provider misbehaves identically on both backends."""
    rows = make_rows(random.Random(seed), n)
    battery = request_battery(random.Random(seed + 1), rows)
    rate = 0.4 if mode is not FailureMode.CRASH else 1.0
    after = 5 if mode is FailureMode.CRASH else 0

    def run():
        provider = build_provider(
            rows,
            fault=Fault(mode, rate=rate, seed=seed, after_requests=after),
        )
        responses = run_battery(provider, battery)
        return responses, state_snapshot(provider)

    scalar, vector = twin_run(run)
    assert scalar == vector


@given(seed=seeds, n=st.integers(min_value=2, max_value=40))
@settings(max_examples=30, deadline=None)
def test_txn_replay_backends_identical(seed, n):
    """The exactly-once replay path: a re-sent applied transaction is
    skipped, and increments are applied exactly once per backend."""
    rng = random.Random(seed)
    rows = make_rows(rng, n)
    ids = [rid for rid, _ in rows][: max(n // 2, 1)]
    inc = {"table": "T", "row_ids": ids,
           "deltas": {"w": rng.randrange(MERSENNE_61)},
           "modulus": MERSENNE_61, "epoch": 2}
    ops = [["increment_rows", inc]]

    def run():
        provider = build_provider(rows)
        out = [provider.handle("txn_apply", {"txns": [[7, ops]]})]
        # WAL replay after a simulated client crash: same txn again
        out.append(provider.handle("txn_apply", {"txns": [[7, ops]]}))
        assert out == [{"committed": [7], "skipped": []},
                       {"committed": [], "skipped": [7]}]
        out.append(provider.handle("select", {"table": "T", "conditions": []}))
        return out, state_snapshot(provider)

    scalar, vector = twin_run(run)
    assert scalar == vector


@given(seed=seeds, n=st.integers(min_value=1, max_value=30))
@settings(max_examples=25, deadline=None)
def test_merkle_after_increments_identical(seed, n):
    """Roots and proofs over post-increment storage match: the batched
    writeback feeds the same bytes into the Merkle tree."""
    rng = random.Random(seed)
    rows = make_rows(rng, n)
    ids = [rid for rid, _ in rows]
    inc = {"table": "T", "row_ids": ids,
           "deltas": {"v": rng.randrange(MERSENNE_61)},
           "modulus": MERSENNE_61}

    def run():
        provider = build_provider(rows)
        provider.handle("increment_rows", dict(inc))
        root = provider.handle("merkle_root", {"table": "T"})
        proofs = [
            provider.handle("merkle_proof", {"table": "T", "row_id": rid})
            for rid in ids
        ]
        return root, proofs, state_snapshot(provider)

    scalar, vector = twin_run(run)
    assert scalar == vector


# ---------------------------------------------------------------------------
# real share tables: what TableSharing stores for Employees / Managers
# ---------------------------------------------------------------------------

N_PROVIDERS = 5
#: the providers whose share tables the batteries run at
PROVIDERS_UNDER_TEST = (0, 2, 4)
EMPLOYEE_COLUMNS = ["eid", "name", "lastname", "department", "salary"]
MANAGER_COLUMNS = ["eid", "manager_id", "manager_username", "password"]


class RealShares:
    """Employees + Managers shared once; per-provider share rows.

    ``department`` keeps its 8-value ties; ``salary`` and ``department``
    get ~12% NULLs (``share_row`` stores NULL as None everywhere), so a
    NULL can sit in the condition, order, group or aggregate column.
    """

    def __init__(self, seed: int, n: int) -> None:
        rng = random.Random(seed)
        employees = employees_table(n_rows=n, seed=seed)
        managers = managers_table(employees, 0.4, seed)
        secrets = generate_client_secrets(N_PROVIDERS, seed=seed)
        registry = {}
        self.sharing = {}
        self.rows = {}
        for table, nullable in (
            (employees, ("salary", "department")),
            (managers, ("manager_id",)),
        ):
            name = table.schema.name
            # share_row validates like the insert path: the columns that
            # are handed NULLs have to admit them
            schema = dataclasses.replace(table.schema, columns=tuple(
                dataclasses.replace(column, nullable=column.name in nullable)
                for column in table.schema.columns
            ))
            sharing = TableSharing(
                schema, secrets, 3, DeterministicRNG(seed), op_schemes=registry,
            )
            per_provider = [[] for _ in range(N_PROVIDERS)]
            for rid, row in enumerate(table.rows()):
                row = dict(row)
                for column in nullable:
                    if rng.random() < 0.12:
                        row[column] = None
                for i, share_row in enumerate(sharing.share_row(row)):
                    per_provider[i].append((rid, share_row))
            self.sharing[name] = sharing
            self.rows[name] = per_provider

    def provider(self, index: int, fault=None) -> "ShareProvider":
        # identical name on both twins ⇒ identical fault RNG streams
        provider = ShareProvider(f"DAS{index}")
        for name, columns in (
            ("Employees", EMPLOYEE_COLUMNS), ("Managers", MANAGER_COLUMNS),
        ):
            sharing = self.sharing[name]
            provider.handle("create_table", {
                "table": name, "columns": columns,
                "searchable": [c for c in columns if sharing.is_searchable(c)],
            })
            provider.handle(
                "insert_many", {"table": name, "rows": self.rows[name][index]}
            )
        if fault is not None:
            provider.inject_fault(fault)
        return provider

    def stored(self, index: int, table: str, column: str):
        """Ascending distinct non-NULL shares of one column at a provider."""
        return sorted({
            values[column] for _, values in self.rows[table][index]
            if values[column] is not None
        })


def bound_sweep(stored):
    """Bounds below, between, equal to and above every stored share."""
    lowest, highest = stored[0], stored[-1]
    middle = stored[len(stored) // 2]
    return [lowest - 1, lowest, lowest + 1, middle, middle + 1,
            highest - 1, highest, highest + 1]


def employees_battery(shares: RealShares, index: int):
    """Every vector-eligible read shape over real Employees shares."""
    salaries = shares.stored(index, "Employees", "salary")
    departments = shares.stored(index, "Employees", "department")
    low, mid, high = salaries[0], salaries[len(salaries) // 2], salaries[-1]
    wide = [{"column": "salary", "op": "range", "low": low, "high": high}]
    upper = [{"column": "salary", "op": "ge", "low": mid}]
    one_department = [{"column": "department", "op": "eq", "low": departments[0]}]
    pair = upper + [{"column": "department", "op": "le", "low": departments[3]}]
    # the second condition empties the intersection; the third is never probed
    early_exit = upper + [
        {"column": "salary", "op": "lt", "low": mid},
        {"column": "department", "op": "ge", "low": departments[0]},
    ]
    nothing = [{"column": "salary", "op": "gt", "low": high}]
    battery = []

    def add(method, **request):
        battery.append((method, {"table": "Employees", **request}))

    for op in ("lt", "le", "gt", "ge", "eq"):
        for bound in bound_sweep(salaries):
            conditions = [{"column": "salary", "op": op, "low": bound}]
            add("select", conditions=conditions, projection=["eid", "salary"])
            add("aggregate", func="sum", column="salary", conditions=conditions)
    for bound in bound_sweep(salaries):
        conditions = [
            {"column": "salary", "op": "range", "low": bound, "high": mid}
        ]
        add("select", conditions=conditions, projection=["eid"])
        add("aggregate", func="count", column=None, conditions=conditions)
    # 8-value department ties order by row id in both directions; NULL
    # departments sort first ascending, last descending
    for descending in (False, True):
        add("select", conditions=[], order_by="department",
            descending=descending)
        add("select", conditions=wide, order_by="department",
            descending=descending, projection=["eid", "department"])
        for limit in (0, 1, 7, 10_000):
            add("select", conditions=upper, order_by="salary",
                descending=descending, limit=limit)
        # a condition on another column: the walk is mask-filtered
        for conditions in (one_department, pair):
            for limit in (0, 2, 10_000):
                add("select", conditions=conditions, order_by="salary",
                    descending=descending, limit=limit,
                    projection=["eid", "salary"])
        # ~9 rows per department and ~9 NULLs at 72 rows: each LIMIT cuts
        # inside a run longer than itself (NULLs, first / last department,
        # the NULLs after every department descending), or passes the match
        for conditions in ([], upper):
            for limit in (3, 12, 66, 10_000):
                add("select", conditions=conditions, order_by="department",
                    descending=descending, limit=limit,
                    projection=["eid", "department"])
    add("select", conditions=pair)
    add("select", conditions=early_exit)
    add("select", conditions=nothing, order_by="salary")
    add("scan", projection=["name", "salary"])
    for conditions in ([], wide, upper, one_department, pair, early_exit, nothing):
        add("aggregate", func="count", column=None, conditions=conditions)
        add("aggregate", func="count", column="salary", conditions=conditions)
        add("aggregate", func="sum", column="salary", conditions=conditions)
        add("aggregate", func="sum", column="eid", conditions=conditions)
        for func in ("min", "max", "median"):
            add("aggregate", func=func, column="salary", conditions=conditions)
            add("aggregate", func=func, column="department",
                conditions=conditions)
        for func, column in (("sum", "salary"), ("count", None),
                             ("count", "salary"), ("sum", "lastname")):
            add("aggregate_group", group_column="department", func=func,
                column=column, conditions=conditions)
    add("aggregate_group", group_column="salary", func="count", column=None,
        conditions=one_department)
    add("aggregate_group", group_column="department", func="median",
        column="salary", conditions=[])
    return battery


@contextmanager
def every_match_is_wide():
    """Lift the narrow-probe rule so the vector engine takes every
    request that matches anything — the battery then checks it on narrow
    shapes too, not only where the rule would send them."""
    previous = provider_module._VECTOR_MATCH_RATIO
    provider_module._VECTOR_MATCH_RATIO = 1 << 40
    try:
        yield
    finally:
        provider_module._VECTOR_MATCH_RATIO = previous


def watch_dispatch(provider):
    """Record ``(method, vectorized)`` per vector-eligible RPC."""
    seen = []
    note = provider._note_dispatch

    def recording(method, vectorized):
        seen.append((method, vectorized))
        note(method, vectorized)

    provider._note_dispatch = recording
    return seen


def run_real(provider, battery):
    """Responses (or raised errors), their wire sizes, the cost counters
    and the engine that answered each vector-eligible RPC."""
    dispatch = watch_dispatch(provider)
    responses = run_battery(provider, battery)
    sizes = [
        measure_bytes(out) if isinstance(out, dict) else None
        for out in responses
    ]
    return responses, sizes, provider.cost.snapshot(), dispatch


def assert_twins_equal(scalar, vector):
    assert scalar[0] == vector[0]  # responses
    assert scalar[1] == vector[1]  # wire bytes
    assert scalar[2] == vector[2]  # cost counters
    assert not any(vectorized for _, vectorized in scalar[3])


def matches_anything(provider, request):
    """False when every condition matches no index entry — the one shape
    the narrow-probe rule still keeps scalar with the ratio lifted."""
    conditions = request.get("conditions")
    if not conditions:
        return True
    table = provider.store.table(request["table"])
    return any(
        provider._condition_row_ids(table, condition)
        for condition in conditions
    )


@given(seed=st.integers(min_value=0, max_value=2**16))
@settings(max_examples=6, deadline=None)
def test_real_share_read_battery_vectorized_identical(seed):
    """Real order-preserving shares: identical answers, bytes and costs,
    and the numpy run is answered by the vector engine."""
    shares = RealShares(seed, 72)
    for index in PROVIDERS_UNDER_TEST:
        battery = employees_battery(shares, index)

        def run():
            return run_real(shares.provider(index), battery)

        with every_match_is_wide():
            scalar, vector = twin_run(run)
        assert_twins_equal(scalar, vector)
        probe = shares.provider(index)
        eligible = [request for _, request in battery]
        assert len(vector[3]) == len(eligible)
        for (method, vectorized), request in zip(vector[3], eligible):
            order_funcs = request.get("func") in ("min", "max", "median")
            expected = matches_anything(probe, request) and not (
                method == "aggregate_group" and order_funcs
            )
            assert vectorized == expected, (method, request)


@given(seed=st.integers(min_value=0, max_value=2**16))
@settings(max_examples=5, deadline=None)
def test_real_share_mirrors_follow_every_dml_kind(seed):
    """Mirrors after UPDATE, INSERT, swap-remove DELETE and increments
    answer exactly like the scalar engine over the same storage."""
    shares = RealShares(seed, 48)
    index = PROVIDERS_UNDER_TEST[seed % len(PROVIDERS_UNDER_TEST)]
    rows = shares.rows["Employees"][index]
    donor = dict(rows[-1][1])
    battery = [
        request for position, request in
        enumerate(employees_battery(shares, index)) if position % 5 == 0
    ]
    managers_reads = [
        ("select", {"table": "Managers", "conditions": [],
                    "order_by": "manager_id", "descending": True}),
        ("aggregate", {"table": "Managers", "func": "sum",
                       "column": "password", "conditions": []}),
        ("aggregate_group", {"table": "Managers", "group_column": "manager_id",
                             "func": "sum", "column": "password",
                             "conditions": []}),
    ]
    manager_ids = [rid for rid, _ in shares.rows["Managers"][index]]
    writes = [
        # UPDATE: two rows take another row's salary/department shares
        ("update_rows", {"table": "Employees", "epoch": 2, "updates": [
            [rows[0][0], {"salary": donor["salary"]}],
            [rows[3][0], {"department": donor["department"], "salary": None}],
        ]}),
        # INSERT: fresh row ids, one of them all-NULL in the searchable columns
        ("insert_many", {"table": "Employees", "epoch": 3, "rows": [
            [1_000, dict(rows[5][1])],
            [1_001, {**donor, "salary": None, "department": None}],
        ]}),
        # DELETE from the middle: the last slot swaps into the hole
        ("delete_rows", {"table": "Employees", "epoch": 4,
                         "row_ids": [rows[1][0], rows[7][0]]}),
        # increment the randomly-shared column (never a searchable one)
        ("increment_rows", {"table": "Managers", "epoch": 5,
                            "row_ids": manager_ids[::2],
                            "deltas": {"password": 123_456_789},
                            "modulus": MERSENNE_61}),
    ]
    script = list(battery) + managers_reads
    for write in writes:
        script += [write] + battery + managers_reads

    def run():
        provider = shares.provider(index)
        out = run_real(provider, script)
        return out + (
            provider.store.table("Employees").rows,
            provider.store.table("Managers").rows,
        )

    with every_match_is_wide():
        scalar, vector = twin_run(run)
    assert_twins_equal(scalar, vector)
    assert scalar[4:] == vector[4:]  # storage after the writes
    assert sum(vectorized for _, vectorized in vector[3]) > len(vector[3]) // 2


@given(
    seed=st.integers(min_value=0, max_value=2**16),
    mode=st.sampled_from([FailureMode.TAMPER, FailureMode.OMIT]),
)
@settings(max_examples=6, deadline=None)
def test_real_share_faults_draw_the_same_stream(seed, mode):
    """A tampering / omitting provider misbehaves identically on both
    engines over real shares: fault copies are made from the same clean
    payloads in the same order."""
    shares = RealShares(seed, 40)
    index = PROVIDERS_UNDER_TEST[seed % len(PROVIDERS_UNDER_TEST)]
    battery = employees_battery(shares, index)[::3]

    def run():
        provider = shares.provider(index, Fault(mode, rate=0.4, seed=seed))
        return run_real(provider, battery)

    with every_match_is_wide():
        scalar, vector = twin_run(run)
    assert_twins_equal(scalar, vector)
    assert any(vectorized for _, vectorized in vector[3])


def test_tampered_negative_share_in_summed_column_declines():
    """A negative stored share cannot be split into limbs: SUM over that
    column declines to the scalar engine (same answer), while the order
    mirror — comparisons only — keeps serving the column."""
    shares = RealShares(11, 40)
    rows = shares.rows["Employees"][0]
    reads = [
        ("aggregate", {"table": "Employees", "func": "sum",
                       "column": "salary", "conditions": []}),
        ("aggregate_group", {"table": "Employees", "group_column": "department",
                             "func": "sum", "column": "salary",
                             "conditions": []}),
        ("select", {"table": "Employees", "conditions": [],
                    "order_by": "salary", "limit": 5}),
        ("aggregate", {"table": "Employees", "func": "min",
                       "column": "salary", "conditions": []}),
    ]
    tampered = rows[2][0]

    def run():
        provider = shares.provider(0)
        provider.handle("update_rows", {"table": "Employees", "updates": [
            [tampered, {"salary": -(1 << 90)}],
        ]})
        return run_real(provider, reads)

    scalar, vector = twin_run(run)
    assert_twins_equal(scalar, vector)
    assert vector[3] == [
        ("aggregate", False), ("aggregate_group", False),
        ("select", True), ("aggregate", True),
    ]
    assert vector[0][3]["row"][0] == tampered  # the negative share is the MIN
