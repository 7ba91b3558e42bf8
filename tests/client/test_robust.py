"""Tests for error-correcting reconstruction, reads that survive tamperers
(checked reads), and key rotation."""

import pytest

from repro import DataSource, ProviderCluster, Select
from repro.core.order_preserving import IntegerDomain, OrderPreservingScheme
from repro.core.secrets import generate_client_secrets
from repro.core.shamir import ShamirScheme
from repro.errors import QuorumError, ReconstructionError
from repro.providers.failures import Fault, FailureMode
from repro.sim.rng import DeterministicRNG
from repro.sqlengine.catalog import Catalog
from repro.sqlengine.executor import PlaintextExecutor, rows_equal_unordered
from repro.sqlengine.expression import Between
from repro.sqlengine.query import Aggregate, AggregateFunc
from repro.sqlengine.table import Table
from repro.workloads.employees import employees_table

SECRETS = generate_client_secrets(7, seed=55)


class TestRobustShamir:
    scheme = ShamirScheme(SECRETS, threshold=3)

    def shares_of(self, secret, seed=1):
        return dict(enumerate(self.scheme.split(secret, DeterministicRNG(seed, "r"))))

    def test_clean_shares_decode(self):
        shares = self.shares_of(12345)
        assert self.scheme.reconstruct_robust_with_blame(shares)[0] == 12345

    @pytest.mark.parametrize("n_bad", [1, 2])
    def test_minority_corruption_corrected(self, n_bad):
        # n=7, k=3: unique decoding corrects ⌊(7-3)/2⌋ = 2 bad shares
        shares = self.shares_of(98765)
        for index in range(n_bad):
            shares[index] = (shares[index] + 7 + index) % self.scheme.field.modulus
        assert self.scheme.reconstruct_robust_with_blame(shares)[0] == 98765

    def test_majority_corruption_raises(self):
        shares = self.shares_of(5)
        for index in range(4):  # 4 of 7 corrupted
            shares[index] = (shares[index] + 99 + index) % self.scheme.field.modulus
        with pytest.raises(ReconstructionError):
            self.scheme.reconstruct_robust_with_blame(shares)

    def test_too_few_shares(self):
        shares = self.shares_of(5)
        with pytest.raises(ReconstructionError):
            self.scheme.reconstruct_robust_with_blame({0: shares[0], 1: shares[1]})

    def test_exactly_k_shares_clean(self):
        shares = self.shares_of(444)
        subset = {i: shares[i] for i in (1, 3, 5)}
        assert self.scheme.reconstruct_robust_with_blame(subset)[0] == 444


class TestRobustOrderPreserving:
    scheme = OrderPreservingScheme(
        SECRETS, IntegerDomain(0, 100_000), threshold=3, label="robust"
    )

    def test_clean(self):
        shares = dict(enumerate(self.scheme.split(777)))
        assert self.scheme.reconstruct_robust(shares) == 777

    @pytest.mark.parametrize("n_bad", [1, 2])
    def test_minority_corruption_corrected(self, n_bad):
        shares = dict(enumerate(self.scheme.split(50_000)))
        for index in range(n_bad):
            shares[index] += 1_000 + index
        assert self.scheme.reconstruct_robust(shares) == 50_000

    def test_majority_corruption_raises(self):
        shares = dict(enumerate(self.scheme.split(5)))
        for index in range(5):
            shares[index] += 123 + index
        with pytest.raises(ReconstructionError):
            self.scheme.reconstruct_robust(shares)


class TestSelectRobust:
    """A read that must survive tamperers is a checked read
    (``verified_reads=True``): it asks every provider, outvotes a minority
    of tampered shares, quarantines the liar and re-issues without it."""

    @pytest.fixture
    def source(self):
        source = DataSource(ProviderCluster(5, 2), seed=57, verified_reads=True)
        source.outsource_table(employees_table(50, seed=57))
        return source

    @pytest.fixture
    def oracle(self):
        catalog = Catalog()
        table = employees_table(50, seed=57)
        catalog.add_table(Table(table.schema, table.rows()))
        return PlaintextExecutor(catalog)

    def tamper(self, source, index, seed):
        source.cluster.inject_fault(
            index,
            Fault(FailureMode.TAMPER, rate=1.0, rng=DeterministicRNG(seed, "t")),
        )

    def test_clean_matches_plain_select(self, source):
        query = Select("Employees", where=Between("salary", 20_000, 80_000))
        checked = source.select(query)
        source.verified_reads = False
        assert rows_equal_unordered(checked, source.select(query))

    def test_tolerates_tampering_provider(self, source, oracle):
        query = Select("Employees", where=Between("salary", 0, 10**6))
        self.tamper(source, 0, seed=1)
        assert rows_equal_unordered(source.select(query), oracle.execute(query))
        assert source.cluster.health.is_quarantined(0)

    def test_plain_select_poisoned_by_same_fault(self, source):
        """The contrast: the quorum read either errors or needs luck."""
        source.verified_reads = False
        self.tamper(source, 0, seed=2)
        with pytest.raises(ReconstructionError):
            source.select(Select("Employees", where=Between("salary", 0, 10**6)))

    def test_tolerates_two_tamperers_of_five(self, source, oracle):
        query = Select("Employees", where=Between("salary", 0, 10**6))
        for index in (0, 1):
            self.tamper(source, index, seed=3 + index)
        assert rows_equal_unordered(source.select(query), oracle.execute(query))

    def test_projection_order_limit(self, source, oracle):
        query = Select(
            "Employees",
            columns=("name", "salary"),
            order_by="salary",
            descending=True,
            limit=5,
        )
        self.tamper(source, 3, seed=6)
        assert source.select(query) == oracle.execute(query)

    @pytest.mark.parametrize("func", [AggregateFunc.COUNT, AggregateFunc.SUM])
    def test_aggregates_under_a_tamperer(self, source, oracle, func):
        query = Select(
            "Employees",
            where=Between("salary", 20_000, 80_000),
            aggregate=Aggregate(func, None if func is AggregateFunc.COUNT else "salary"),
        )
        self.tamper(source, 1, seed=7)
        assert source.select(query) == oracle.execute(query)

    def test_quorum_still_required(self, source):
        for index in range(4):
            source.cluster.inject_fault(index, Fault(FailureMode.CRASH))
        with pytest.raises(QuorumError):
            source.select(Select("Employees"))


class TestKeyRotation:
    def test_rotation_preserves_data(self):
        source = DataSource(ProviderCluster(4, 2), seed=59)
        source.outsource_table(employees_table(30, seed=59))
        before = source.sql("SELECT * FROM Employees")
        old_points = source.secrets.evaluation_points
        counts = source.rotate_secrets(new_seed=60)
        assert counts == {"Employees": 30}
        assert source.secrets.evaluation_points != old_points
        after = source.sql("SELECT * FROM Employees")
        assert rows_equal_unordered(before, after)

    def test_rotation_changes_stored_shares(self):
        source = DataSource(ProviderCluster(4, 2), seed=59)
        source.outsource_table(employees_table(10, seed=59))
        provider = source.cluster.providers[0]
        before = {
            rid: dict(provider.store.table("Employees").get(rid))
            for rid in provider.store.table("Employees").all_row_ids()
        }
        source.rotate_secrets(new_seed=61)
        after_table = provider.store.table("Employees")
        changed = sum(
            1 for rid in after_table.all_row_ids()
            if after_table.get(rid) != before[rid]
        )
        assert changed == len(before)

    def test_writes_work_after_rotation(self):
        source = DataSource(ProviderCluster(4, 2), seed=59)
        source.outsource_table(employees_table(10, seed=59))
        source.rotate_secrets(new_seed=62)
        source.sql(
            "INSERT INTO Employees (eid, name, lastname, department, salary) "
            "VALUES (999999, 'NEW', 'KEY', 'ENG', 42)"
        )
        assert source.sql("SELECT COUNT(*) FROM Employees WHERE salary = 42") == 1
        assert source.sql(
            "SELECT department, COUNT(*) FROM Employees GROUP BY department"
        )


class TestTwoOmitters:
    """Two omitters among four responders: a row both dropped is returned
    by two of four, a presence tie with no majority to trust, so a checked
    read raises a typed error — it never comes back short."""

    def test_full_omission_raises(self):
        source = DataSource(ProviderCluster(4, 2), seed=65, verified_reads=True)
        source.outsource_table(employees_table(20, seed=65))
        for index in (0, 1):
            source.cluster.inject_fault(index, Fault(FailureMode.OMIT))
        with pytest.raises(ReconstructionError, match="presence tie"):
            source.select(Select("Employees", where=Between("salary", 0, 10**6)))

    def test_partial_omission_raises_or_is_exact(self):
        outcomes = []
        for seed in range(8):
            table = employees_table(20, seed=seed)
            source = DataSource(ProviderCluster(4, 2), seed=seed, verified_reads=True)
            source.outsource_table(table)
            for index in (0, 1):
                source.cluster.inject_fault(
                    index, Fault(FailureMode.OMIT, rate=0.1, seed=seed)
                )
            try:
                rows = source.select(Select("Employees"))
            except ReconstructionError:
                outcomes.append("raised")
                continue
            assert rows_equal_unordered(rows, table.rows())
            outcomes.append("exact")
        assert set(outcomes) == {"raised", "exact"}
