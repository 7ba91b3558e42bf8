"""Multi-tenancy tests: namespaced clients sharing one provider cluster."""

import pytest

from repro import DataSource, ProviderCluster, Select
from repro.errors import ReconstructionError, SchemaError
from repro.providers.failures import Fault, FailureMode
from repro.sqlengine.expression import Between
from repro.workloads.employees import employees_table


@pytest.fixture
def tenants():
    cluster = ProviderCluster(4, 2)
    acme = DataSource(cluster, seed=101, namespace="acme")
    globex = DataSource(cluster, seed=202, namespace="globex")
    acme.outsource_table(employees_table(20, seed=101))
    globex.outsource_table(employees_table(30, seed=202))
    return cluster, acme, globex


class TestIsolation:
    def test_same_table_name_coexists(self, tenants):
        cluster, acme, globex = tenants
        assert acme.sql("SELECT COUNT(*) FROM Employees") == 20
        assert globex.sql("SELECT COUNT(*) FROM Employees") == 30

    def test_provider_stores_both_physical_tables(self, tenants):
        cluster, _, _ = tenants
        names = cluster.providers[0].store.table_names()
        assert names == ["acme::Employees", "globex::Employees"]

    def test_writes_do_not_cross(self, tenants):
        _, acme, globex = tenants
        acme.sql("DELETE FROM Employees WHERE salary >= 0")
        assert acme.sql("SELECT COUNT(*) FROM Employees") == 0
        assert globex.sql("SELECT COUNT(*) FROM Employees") == 30

    def test_queries_work_per_tenant(self, tenants):
        _, acme, globex = tenants
        a = acme.sql("SELECT SUM(salary) FROM Employees")
        g = globex.sql("SELECT SUM(salary) FROM Employees")
        assert a != g  # different workloads

    def test_foreign_shares_unreadable(self, tenants):
        """A tenant cannot decode another tenant's shares: even if it
        addressed the other physical table, its secret evaluation points
        and hash keys differ, so reconstruction fails or yields garbage."""
        cluster, acme, globex = tenants
        globex_table = cluster.providers[0].store.table("globex::Employees")
        rid = globex_table.all_row_ids()[0]
        foreign_shares = {
            i: cluster.providers[i].store.table("globex::Employees").get(rid)
            for i in range(2)
        }
        acme_sharing = acme.sharing("Employees")
        truth = None
        for row in employees_table(30, seed=202):
            truth = row  # any real row; we only check acme can't get one
            break
        with pytest.raises(ReconstructionError):
            # acme's OP scheme rejects the foreign shares (out-of-domain /
            # non-integer interpolation under the wrong points)
            acme_sharing.reconstruct_row(foreign_shares)


class TestValidationAndCompat:
    def test_invalid_namespace_rejected(self, cluster):
        with pytest.raises(SchemaError):
            DataSource(cluster, namespace="bad namespace!")

    def test_hyphen_underscore_allowed(self, cluster):
        DataSource(cluster, namespace="tenant-a_1")

    def test_empty_namespace_is_plain(self, cluster):
        source = DataSource(cluster, seed=1)
        assert source.physical_name("T") == "T"

    def test_checked_read_in_namespace(self):
        cluster = ProviderCluster(5, 2)
        source = DataSource(cluster, seed=7, namespace="acme", verified_reads=True)
        source.outsource_table(employees_table(10, seed=7))
        cluster.inject_fault(0, Fault(FailureMode.TAMPER, seed=7))
        rows = source.select(Select("Employees", where=Between("salary", 0, 10**6)))
        assert len(rows) == 10
        assert cluster.health.is_quarantined(0)

    def test_persistence_of_namespace(self, tmp_path):
        from repro.persistence import load_deployment, save_deployment

        cluster = ProviderCluster(3, 2)
        source = DataSource(cluster, seed=9, namespace="acme")
        source.outsource_table(employees_table(5, seed=9))
        save_deployment(source, str(tmp_path))
        restored = load_deployment(str(tmp_path))
        assert restored.namespace == "acme"
        assert restored.sql("SELECT COUNT(*) FROM Employees") == 5

    def test_extensions_respect_namespace(self, tenants):
        _, acme, _ = tenants
        assert acme.sql(
            "SELECT department, COUNT(*) FROM Employees GROUP BY department"
        )
        assert acme.resync_table("Employees") == 20
        acme.rotate_secrets(new_seed=303)
        assert acme.sql("SELECT COUNT(*) FROM Employees") == 20
