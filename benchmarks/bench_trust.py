"""EXP-T9 — trust-mechanism overhead and detection (Sec. I issue 3, VI b).

Two mechanisms, three questions:

* what does a checked read (``verified_reads=True``) cost when everyone
  is honest — bytes against a plain quorum read, with one redundant share
  and with every provider asked?
* does a checked read catch a provider that tampers with or omits rows,
  where a plain quorum read comes back silently short?
* how does canary detection probability track the closed form 1-(1-f)^c?
"""

from repro import DataSource, ProviderCluster, Select
from repro.bench.reporting import record_experiment
from repro.errors import IntegrityError, ReconstructionError
from repro.providers.failures import Fault, FailureMode
from repro.sim.rng import DeterministicRNG
from repro.sqlengine.catalog import Catalog
from repro.sqlengine.executor import PlaintextExecutor, rows_equal_unordered
from repro.sqlengine.expression import Between
from repro.sqlengine.table import Table
from repro.trust.assurance import AssuranceWrapper, detection_probability
from repro.workloads.employees import employees_table

N_ROWS = 400
N_PROVIDERS, THRESHOLD = 4, 2
RANGE_QUERY = Select("Employees", where=Between("salary", 20_000, 80_000))


def _build(**kwargs):
    source = DataSource(ProviderCluster(N_PROVIDERS, THRESHOLD), seed=2009, **kwargs)
    source.outsource_table(employees_table(N_ROWS, seed=2009))
    return source


def _read_kb(source) -> float:
    source.cluster.network.reset()
    source.select(RANGE_QUERY)
    return round(source.cluster.network.total_bytes / 1024, 2)


def _overhead_rows():
    return [
        {"read": "plain quorum read (k)", "KB": _read_kb(_build())},
        {
            "read": "checked read, r=1 (k+1)",
            "KB": _read_kb(_build(verified_reads=True, read_redundancy=1)),
        },
        {"read": "checked read, every provider (n)", "KB": _read_kb(_build(verified_reads=True))},
    ]


def test_verification_overhead_table(benchmark):
    rows = benchmark.pedantic(_overhead_rows, rounds=1, iterations=1)
    record_experiment(
        "EXP-T9a",
        "Checked-read communication overhead (N=400, n=4, k=2)",
        rows,
    )
    plain, one_more, everyone = (row["KB"] for row in rows)
    # a checked read moves the same rows from more providers: r/k more bytes
    assert abs(one_more / plain - (THRESHOLD + 1) / THRESHOLD) < 0.05
    assert abs(everyone / plain - N_PROVIDERS / THRESHOLD) < 0.05


def _outcome(source, expected) -> str:
    try:
        rows = source.select(RANGE_QUERY)
    except ReconstructionError as exc:
        return "refused: presence tie" if "presence tie" in str(exc) else "refused"
    if not rows_equal_unordered(rows, expected):
        if len(rows) < len(expected):
            return f"short by {len(expected) - len(rows)} rows, no error"
        return "WRONG rows, no error"
    health = source.cluster.health
    quarantined = [i for i in range(N_PROVIDERS) if health.is_quarantined(i)]
    return f"exact; quarantined {quarantined}" if quarantined else "exact"


def _detection_rows():
    table = employees_table(N_ROWS, seed=2009)
    catalog = Catalog()
    catalog.add_table(Table(table.schema, table.rows()))
    expected = PlaintextExecutor(catalog).execute(RANGE_QUERY)
    cases = [
        ("checked read", {"verified_reads": True}, FailureMode.TAMPER, 0.3, (0,)),
        ("checked read", {"verified_reads": True}, FailureMode.OMIT, 0.2, (0,)),
        ("checked read", {"verified_reads": True}, FailureMode.OMIT, 0.2, (0, 1)),
        ("plain quorum read", {}, FailureMode.OMIT, 0.2, (0,)),
    ]
    rows = []
    for read, kwargs, mode, rate, faulty in cases:
        source = _build(**kwargs)
        for index in faulty:
            source.cluster.inject_fault(
                index, Fault(mode, rate=rate, rng=DeterministicRNG(1, f"{mode.value}{index}"))
            )
        where = " and ".join(map(str, faulty))
        rows.append(
            {
                "read": read,
                "fault": f"{mode.value} {rate:.0%} @ provider {where}",
                "outcome": _outcome(source, expected),
            }
        )
    return rows


def test_detection_table(benchmark):
    rows = benchmark.pedantic(_detection_rows, rounds=1, iterations=1)
    record_experiment("EXP-T9b", "Misbehaviour detection outcomes", rows)
    checked = [row["outcome"] for row in rows if row["read"] == "checked read"]
    # a checked read is exact (blaming the faulty provider) or refuses
    assert all(outcome.startswith(("exact; quarantined", "refused")) for outcome in checked)
    # the contrast: the same omission leaves a plain quorum read short
    assert rows[-1]["outcome"].startswith("short by")


def _canary_rows():
    def factory(rng, i):
        return {
            "eid": 900_000 + i,
            "name": "CANARY",
            "lastname": "ROW",
            "department": "ENG",
            "salary": rng.randint(0, 100_000),
        }

    rows = []
    for omission_rate in (0.1, 0.3, 0.6):
        detected = 0
        trials = 30
        for trial in range(trials):
            cluster = ProviderCluster(3, 2)
            source = DataSource(cluster, seed=3000 + trial)
            wrapper = AssuranceWrapper(source, DeterministicRNG(trial, "a"))
            wrapper.outsource_with_canaries(
                employees_table(40, seed=3000 + trial), factory, 6
            )
            for i in (0, 1):
                cluster.inject_fault(
                    i,
                    Fault(
                        FailureMode.OMIT,
                        rate=omission_rate,
                        rng=DeterministicRNG(trial, f"o{i}"),
                    ),
                )
            try:
                wrapper.select(Select("Employees", where=Between("salary", 0, 10**6)))
            except IntegrityError:
                detected += 1
        rows.append(
            {
                "omission rate": omission_rate,
                "canaries": 6,
                "measured detection": round(detected / trials, 2),
                "closed form 1-(1-f)^c": round(
                    detection_probability(omission_rate, 6), 2
                ),
            }
        )
    return rows


def test_canary_detection_table(benchmark):
    rows = benchmark.pedantic(_canary_rows, rounds=1, iterations=1)
    record_experiment(
        "EXP-T9c",
        "Canary detection rate vs omission rate (30 trials each)",
        rows,
    )
    # detection grows with omission rate and lands near the closed form
    measured = [row["measured detection"] for row in rows]
    assert measured == sorted(measured)
    assert measured[-1] > 0.9


def test_verified_read_latency(benchmark):
    source = _build(verified_reads=True)
    benchmark(lambda: source.select(RANGE_QUERY))
