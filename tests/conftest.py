"""Shared fixtures: clusters, data sources, workloads, and the oracle."""

from __future__ import annotations

import pytest

from repro import DataSource, ProviderCluster
from repro.sqlengine.catalog import Catalog
from repro.sqlengine.executor import PlaintextExecutor
from repro.workloads.employees import employees_table, managers_table


@pytest.fixture
def cluster():
    """A fresh 5-provider, threshold-3 cluster."""
    return ProviderCluster(n_providers=5, threshold=3)


@pytest.fixture
def employees():
    """A deterministic 120-row Employees table."""
    return employees_table(120, seed=42)


@pytest.fixture
def managers(employees):
    """Managers drawn from the employees fixture (20%)."""
    return managers_table(employees, fraction=0.2, seed=42)


@pytest.fixture
def oracle(employees, managers):
    """Plaintext reference executor over copies of the fixture tables."""
    from repro.sqlengine.table import Table

    catalog = Catalog()
    catalog.add_table(Table(employees.schema, employees.rows()))
    catalog.add_table(Table(managers.schema, managers.rows()))
    return PlaintextExecutor(catalog)


@pytest.fixture
def outsourced(cluster, employees, managers):
    """A data source with both fixture tables outsourced."""
    source = DataSource(cluster, seed=42)
    source.outsource_table(employees)
    source.outsource_table(managers)
    return source
