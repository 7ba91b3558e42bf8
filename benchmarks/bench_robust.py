"""EXP-X2 — malicious-environment reads: checked reads vs quorum reads.

Sec. VI(b) asks for algorithms for "both benign and malicious
environments".  The benign read uses a k-quorum; the malicious-model read
is a checked read (``verified_reads=True``): it asks every provider,
outvotes a minority of tampered shares, quarantines the providers it
blames and re-issues without them.  The table sweeps the number of
tampering providers and reports whether each read path returns correct
rows, errors, and what the checking costs in bytes — on the first read,
which pays the re-issue, and on the next, which leaves the quarantined
providers out.
"""


from repro import DataSource, ProviderCluster, Select
from repro.bench.reporting import record_experiment
from repro.errors import ReconstructionError
from repro.providers.failures import Fault, FailureMode
from repro.sim.rng import DeterministicRNG
from repro.sqlengine.executor import rows_equal_unordered
from repro.sqlengine.expression import Between
from repro.workloads.employees import employees_table

N_ROWS = 150
QUERY = Select("Employees", where=Between("salary", 0, 10**6))


def _build():
    source = DataSource(ProviderCluster(5, 2), seed=2009)
    source.outsource_table(employees_table(N_ROWS, seed=2009))
    return source


def _outcome(callable_):
    try:
        rows = callable_()
        return rows, f"{len(rows)} rows"
    except ReconstructionError:
        return None, "ABORT (corruption detected)"
    except Exception as exc:  # pragma: no cover - defensive
        return None, type(exc).__name__


def _measured(source, callable_):
    source.reset_accounting()
    rows, note = _outcome(callable_)
    return rows, note, round(source.cluster.network.total_bytes / 1024, 1)


def _sweep():
    rows = []
    truth = _build().select(QUERY)

    def ok(result):
        return result is not None and rows_equal_unordered(result, truth)

    for n_tamperers in range(0, 3):
        source = _build()
        for index in range(n_tamperers):
            source.cluster.inject_fault(
                index,
                Fault(FailureMode.TAMPER, rate=1.0,
                      rng=DeterministicRNG(index, "t")),
            )
        quorum_rows, quorum_note, quorum_kb = _measured(
            source, lambda: source.select(QUERY)
        )
        source.verified_reads = True
        first_rows, first_note, first_kb = _measured(
            source, lambda: source.select(QUERY)
        )
        next_rows, _, next_kb = _measured(source, lambda: source.select(QUERY))
        rows.append(
            {
                "tamperers": f"{n_tamperers}/5",
                "quorum read": quorum_note + (" OK" if ok(quorum_rows) else ""),
                "quorum KB": quorum_kb,
                "checked read": first_note
                + (" OK" if ok(first_rows) and ok(next_rows) else ""),
                "checked KB, first read": first_kb,
                "checked KB, next read": next_kb,
            }
        )
    return rows


def test_checked_read_table(benchmark):
    rows = benchmark.pedantic(_sweep, rounds=1, iterations=1)
    record_experiment(
        "EXP-X2",
        "Benign vs malicious read paths under tampering (n=5, k=2)",
        rows,
    )
    # with tamperers present: the quorum read aborts (its quorum includes
    # provider 0), the checked read still returns the correct rows
    assert "OK" in rows[0]["quorum read"]
    for row in rows:
        assert "OK" in row["checked read"]
    for row in rows[1:]:
        assert "ABORT" in row["quorum read"]
    for row in rows:
        # the first read paid for the quarantine; the next one leaves the
        # quarantined providers out
        assert row["checked KB, next read"] <= row["checked KB, first read"]
    # checking is paid in bytes: every provider answers, not k
    assert rows[0]["checked KB, first read"] > rows[0]["quorum KB"]


def test_checked_read_latency(benchmark):
    source = _build()
    source.verified_reads = True
    source.cluster.inject_fault(
        0, Fault(FailureMode.TAMPER, rate=1.0, rng=DeterministicRNG(9, "t"))
    )
    benchmark(lambda: source.select(QUERY))


def test_quorum_read_latency(benchmark):
    source = _build()
    benchmark(lambda: source.select(QUERY))
