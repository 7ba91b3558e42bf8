"""Tests for the benchmark measurement/reporting infrastructure."""


import pytest

from repro import DataSource, ProviderCluster, parse_sql
from repro.baselines.encryption import OPEClient
from repro.bench.metrics import measure_encrypted_query, measure_share_query
from repro.bench.reporting import format_table, print_experiment, record_experiment
from repro.workloads.employees import employees_table


@pytest.fixture(scope="module")
def source():
    source = DataSource(ProviderCluster(3, 2), seed=91)
    source.outsource_table(employees_table(30, seed=91))
    return source


class TestMeasurement:
    def test_share_query_measurement(self, source):
        query = parse_sql(
            "SELECT * FROM Employees WHERE salary BETWEEN 20000 AND 80000"
        )
        measurement = measure_share_query(source, query)
        assert measurement.system == "secret-sharing"
        assert measurement.messages > 0
        assert measurement.bytes_transferred > 0
        assert measurement.result_rows is not None
        assert measurement.modelled_seconds() > 0
        assert measurement.client_seconds() >= 0
        assert measurement.server_seconds() >= 0

    def test_a_repeated_share_measurement_starts_cold(self, source):
        # the first measurement fills the row cache; the second must
        # still price the provider round, not a cache hit
        query = parse_sql(
            "SELECT * FROM Employees WHERE salary BETWEEN 30000 AND 70000"
        )
        first, second = (measure_share_query(source, query) for _ in range(2))
        assert first.messages > 0
        assert (second.messages, second.bytes_transferred, second.client_ops) == (
            first.messages, first.bytes_transferred, first.client_ops
        )

    def test_scalar_query_has_no_row_count(self, source):
        measurement = measure_share_query(
            source, parse_sql("SELECT COUNT(*) FROM Employees")
        )
        assert measurement.result_rows is None
        assert measurement.as_row()["rows"] == "-"

    def test_encrypted_query_measurement(self):
        client = OPEClient()
        client.outsource_table(employees_table(20, seed=92))
        measurement = measure_encrypted_query(
            client, parse_sql("SELECT * FROM Employees WHERE salary > 0"), "ope"
        )
        assert measurement.system == "ope"
        assert measurement.bytes_transferred > 0

    def test_as_row_keys(self, source):
        row = measure_share_query(
            source, parse_sql("SELECT * FROM Employees")
        ).as_row()
        assert set(row) == {
            "system", "rows", "msgs", "KB", "client ops", "server ops",
            "model sec",
        }


class TestReporting:
    def test_format_table_alignment(self):
        text = format_table([{"a": 1, "bb": "x"}, {"a": 22, "bb": "yy"}])
        lines = text.splitlines()
        assert len(lines) == 4  # header, rule, two rows
        assert len({len(line) for line in lines}) == 1  # aligned widths

    def test_format_table_union_of_keys(self):
        text = format_table([{"a": 1}, {"b": 2}])
        assert "a" in text and "b" in text

    def test_format_empty(self):
        assert format_table([]) == "(no rows)"

    def test_float_formatting(self):
        text = format_table([{"x": 0.123456789}])
        assert "0.1235" in text

    def test_record_experiment_writes_file(self, tmp_path, capsys):
        rows = [{"metric": "v", "value": 1}]
        rendered = record_experiment(
            "EXP-TEST", "a test table", rows, output_dir=str(tmp_path)
        )
        assert "metric" in rendered
        path = tmp_path / "EXP-TEST.txt"
        assert path.exists()
        assert "a test table" in path.read_text()
        captured = capsys.readouterr()
        assert "EXP-TEST" in captured.out

    def test_print_experiment(self, capsys):
        print_experiment("X", "title", [{"a": 1}])
        assert "== X: title ==" in capsys.readouterr().out
