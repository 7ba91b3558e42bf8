"""Tests for the command-line interface."""

import io
import json

import pytest

from repro.cli import build_parser, build_source, cmd_sql, main, render_result
from repro.errors import ReproError


def run(argv):
    out = io.StringIO()
    code = main(argv, out=out)
    return code, out.getvalue()


class TestDemo:
    def test_demo_runs(self):
        code, text = run(["demo", "--rows", "60"])
        assert code == 0
        assert "outsourced Employees(60)" in text
        assert "GROUP BY department" in text
        assert "messages:" in text

    def test_custom_cluster_shape(self):
        code, text = run(["demo", "--rows", "30", "--providers", "3",
                          "--threshold", "2"])
        assert code == 0
        assert "3 providers (threshold 2)" in text


class TestFigure1:
    def test_prints_share_table(self):
        code, text = run(["figure1"])
        assert code == 0
        assert "210" in text and "410" in text
        assert "[10, 20, 40, 60, 80]" in text


class TestSqlBatch:
    def test_execute_statements(self):
        code, text = run([
            "sql", "--rows", "40",
            "-e", "SELECT COUNT(*) FROM Employees",
            "-e", "SELECT MAX(salary) FROM Employees",
        ])
        assert code == 0
        assert "40" in text

    def test_parse_error_reported_not_fatal(self):
        code, text = run([
            "sql", "--rows", "10",
            "-e", "SELEKT broken",
            "-e", "SELECT COUNT(*) FROM Employees",
        ])
        assert code == 0
        assert "error:" in text
        assert "10" in text

    def test_ecommerce_workload(self):
        code, text = run([
            "sql", "--workload", "ecommerce", "--rows", "50",
            "-e", "SELECT action, COUNT(*) FROM Events GROUP BY action",
        ])
        assert code == 0
        assert "action" in text

    def test_snapshot_roundtrip(self, tmp_path):
        directory = str(tmp_path / "snap")
        code, _ = run([
            "sql", "--rows", "15", "--save", directory,
            "-e", "SELECT COUNT(*) FROM Employees",
        ])
        assert code == 0
        code, text = run([
            "sql", "--snapshot", directory,
            "-e", "SELECT COUNT(*) FROM Employees",
        ])
        assert code == 0
        assert "15" in text


class TestInteractiveShell:
    def drive(self, lines, rows=20):
        out = io.StringIO()
        parser = build_parser()
        args = parser.parse_args(["sql", "--rows", str(rows)])
        cmd_sql(args, out, input_lines=lines)
        return out.getvalue()

    def test_meta_tables(self):
        text = self.drive(["\\tables", "\\quit"])
        assert "Employees" in text and "(random)" in text

    def test_meta_stats(self):
        text = self.drive(["SELECT COUNT(*) FROM Employees", "\\stats"])
        assert "messages:" in text

    def test_meta_explain(self):
        text = self.drive(
            ["\\explain SELECT * FROM Employees WHERE salary BETWEEN 1 AND 2"]
        )
        assert "pushdown" in text

    def test_meta_explain_join_prints_each_sides_columns(self):
        text = self.drive([
            "\\explain SELECT Employees.name FROM Employees JOIN Managers "
            "ON Employees.eid = Managers.eid"
        ])
        assert "left_fetched_columns: ['eid', 'name']" in text
        assert "right_fetched_columns: ['eid']" in text

    def test_meta_explain_usage(self):
        text = self.drive(["\\explain"])
        assert "usage" in text

    def test_unknown_meta_shows_help(self):
        text = self.drive(["\\bogus"])
        assert "meta-commands" in text

    def test_quit_stops(self):
        text = self.drive(["\\quit", "SELECT COUNT(*) FROM Employees"])
        # the post-quit statement never executes: no standalone scalar line
        assert "20" not in [line.strip() for line in text.splitlines()]

    def test_empty_lines_ignored(self):
        text = self.drive(["", "   ", "\\quit"])
        assert "error" not in text

    def test_save_meta(self, tmp_path):
        directory = str(tmp_path / "metasnap")
        text = self.drive([f"\\save {directory}", "\\quit"])
        assert "saved" in text


class TestTrace:
    STATEMENT = (
        "SELECT name, salary FROM Employees "
        "WHERE salary BETWEEN 10000 AND 50000 ORDER BY salary LIMIT 5"
    )

    def test_prints_span_tree_and_counters(self):
        code, text = run(["trace", "--rows", "40", self.STATEMENT])
        assert code == 0
        for span_name in ("query", "select", "rewrite", "fan_out", "rpc",
                          "reconstruct"):
            assert span_name in text
        assert "counters:" in text
        assert "net.bytes{dst=DAS1,src=client}" in text
        assert "modelled" in text

    def test_analyze_prints_wall_and_modelled_time_per_stage(self):
        code, text = run(["trace", "--rows", "40", "--analyze", self.STATEMENT])
        assert code == 0
        table = text.split("stages (wall clock beside modelled):")[1].split("\n\n")[0]
        rows = {line.split()[0]: line.split()[1:] for line in table.strip().splitlines()[1:]}
        assert {"query", "provider.handle", "kernels.batch_reconstruct_integer"} <= set(rows)
        calls, wall, self_wall, modelled = rows["query"]
        assert calls == "1" and float(wall) >= float(self_wall) > 0
        assert float(modelled) > 0
        assert rows["provider.handle"][0] == "3"

    def test_trace_is_deterministic(self):
        outputs = [run(["trace", "--rows", "40", self.STATEMENT])
                   for _ in range(2)]
        assert outputs[0] == outputs[1]

    def test_json_export_parses_and_matches_network(self):
        code, text = run(["trace", "--rows", "40", "--json", self.STATEMENT])
        assert code == 0
        export = json.loads(text)
        assert sorted(export) == [
            "dropped_traces", "kernel_backend", "kernels", "metrics",
            "network", "traces",
        ]
        assert export["kernel_backend"] in ("scalar", "numpy")
        counters = export["metrics"]["counters"]
        telemetry_bytes = sum(
            value for key, value in counters.items()
            if key.startswith("net.bytes{")
        )
        assert telemetry_bytes == export["network"]["bytes"]
        telemetry_messages = sum(
            value for key, value in counters.items()
            if key.startswith("net.messages{")
        )
        assert telemetry_messages == export["network"]["messages"]
        (trace,) = export["traces"]
        assert trace["name"] == "query"
        assert trace["end"] == export["network"]["modelled_seconds"]

    def test_trace_restores_prior_telemetry_state(self):
        from repro import telemetry

        before = telemetry.hub()
        run(["trace", "--rows", "20", "SELECT COUNT(*) FROM Employees"])
        assert telemetry.hub() is before

    def test_trace_query_error_is_reported(self):
        code, text = run(["trace", "--rows", "10", "SELEKT broken"])
        assert code == 1
        assert "error:" in text

    def test_trace_ecommerce_workload(self):
        code, text = run([
            "trace", "--workload", "ecommerce", "--rows", "30",
            "SELECT COUNT(*) FROM Events",
        ])
        assert code == 0
        assert "fan_out" in text

    def test_trace_against_snapshot(self, tmp_path):
        directory = str(tmp_path / "snap")
        code, _ = run([
            "sql", "--rows", "15", "--save", directory,
            "-e", "SELECT COUNT(*) FROM Employees",
        ])
        assert code == 0
        code, text = run([
            "trace", "--snapshot", directory,
            "SELECT COUNT(*) FROM Employees",
        ])
        assert code == 0
        assert "15" in text and "fan_out" in text

    def test_trace_bad_snapshot_path_exits_nonzero(self, tmp_path):
        """A missing deployment is a one-line error, never a traceback."""
        code, text = run([
            "trace", "--snapshot", str(tmp_path / "no-such-dir"),
            "SELECT COUNT(*) FROM Employees",
        ])
        assert code == 1
        assert text.startswith("error:")
        assert "Traceback" not in text

    def test_trace_output_writes_export(self, tmp_path):
        target = tmp_path / "trace.json"
        code, text = run([
            "trace", "--rows", "20", "--output", str(target),
            "SELECT COUNT(*) FROM Employees",
        ])
        assert code == 0
        assert "wrote trace export" in text
        export = json.loads(target.read_text())
        assert export["network"]["messages"] > 0

    def test_trace_unwritable_output_exits_nonzero(self, tmp_path):
        code, text = run([
            "trace", "--rows", "20",
            "--output", str(tmp_path / "missing-dir" / "trace.json"),
            "SELECT COUNT(*) FROM Employees",
        ])
        assert code == 1
        assert text.startswith("error: cannot write trace export")


WALL_KEYS = ("wall_seconds",)


def without_wall(report):
    assert all(key in report for key in WALL_KEYS)
    return {k: v for k, v in report.items() if k not in WALL_KEYS}


class TestServeSim:
    def test_pretty_report(self):
        code, text = run([
            "serve-sim", "--rows", "30", "--clients", "3",
            "--statements", "4",
        ])
        assert code == 0
        assert "serve-sim: 3 clients x 4 statements" in text
        assert "completed: 12 of 12 statements" in text
        assert "throughput" in text
        assert "s modelled" in text and "s wall" in text  # both clocks
        assert "admission:" in text
        assert "slo: availability 1.0000" in text

    def test_both_modes_share_one_printer(self):
        closed = run(["serve-sim", "--rows", "30", "--clients", "3",
                      "--statements", "4"])[1]
        flood = run(["serve-sim", "--rows", "30", "--open-loop", "--load",
                     "4", "--queries", "60", "--max-in-flight", "2",
                     "--queue-limit", "6"])[1]
        assert "serve-sim --open-loop: 60 queries at 4x capacity" in flood

        def labels(text):
            return [
                line.split(":")[0].strip() for line in text.splitlines()[1:]
            ]

        assert labels(closed) == labels(flood)
        for text in (closed, flood):
            assert "health: DAS1=ok, DAS2=ok, DAS3=ok" in text

    def test_json_report_parses(self):
        code, text = run([
            "serve-sim", "--rows", "30", "--clients", "3",
            "--statements", "4", "--json",
        ])
        assert code == 0
        report = json.loads(text)
        assert report["completed"] == report["offered"] == 3 * 4
        assert report["failed"] == report["incorrect"] == 0
        assert report["admission"]["rejected_total"] == 0
        # both clocks, side by side
        assert report["wall_seconds"] > 0
        assert report["makespan_seconds"] > 0
        assert report["slo"]["offered"] == 12

    def test_deterministic_per_seed(self):
        args = [
            "serve-sim", "--rows", "30", "--clients", "5",
            "--statements", "6", "--max-in-flight", "2", "--queue-limit",
            "2", "--seed", "5", "--json",
        ]
        a = json.loads(run(args)[1])
        b = json.loads(run(args)[1])
        # one virtual clock, no threads: everything but the host's wall
        # time is a function of the seed — queueing and shedding included
        assert without_wall(a) == without_wall(b)
        assert a["shed"] > 0 and a["admission"]["queued_peak"] == 2
        other = json.loads(run(args[:-3] + ["--seed", "6", "--json"])[1])
        assert without_wall(other) != without_wall(a)

    def test_transactional_writes_through_the_wal(self, monkeypatch):
        from repro import drills
        from repro.sqlengine.query import Select
        from repro.sqlengine.sqlparser import parse_sql
        from repro.txn import TransactionManager
        from repro.workloads.employees import employees_table

        sources, writes = [], []

        class CapturedSource(drills.DataSource):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                sources.append(self)

        inner_execute = TransactionManager.execute

        def recording_execute(self, statement, *args, **kwargs):
            if not isinstance(statement, Select):
                writes.append(statement)
            return inner_execute(self, statement, *args, **kwargs)

        monkeypatch.setattr(drills, "DataSource", CapturedSource)
        monkeypatch.setattr(TransactionManager, "execute", recording_execute)
        code, text = run([
            "serve-sim", "--rows", "30", "--clients", "4", "--statements",
            "10", "--seed", "5", "--transactional", "--json",
        ])
        assert code == 0
        report = json.loads(text)
        assert report["completed"] == 40 and report["incorrect"] == 0
        txn = report["txn"]
        assert writes and txn["logged"] == txn["committed"] == len(writes)
        assert txn["pending"] == 0 and txn["wal_fsyncs"] > 0
        # the table the run left behind is the oracle's, write for write
        oracle = drills.plaintext_oracle(employees_table(30, seed=5))
        for statement in writes:
            oracle.execute(statement)
        everything = "SELECT * FROM Employees ORDER BY eid"
        (source,) = sources
        assert source.sql(everything) == oracle.execute(parse_sql(everything))
        # without the flag there is no WAL to report on
        plain = json.loads(run([
            "serve-sim", "--rows", "30", "--clients", "4", "--statements",
            "10", "--seed", "5", "--json",
        ])[1])
        assert "txn" not in plain


class TestTxnReplay:
    def test_kill_choices_are_the_kill_phases(self):
        import argparse

        from repro.txn import KILL_PHASES

        parser = build_parser()
        commands = next(
            action for action in parser._actions
            if isinstance(action, argparse._SubParsersAction)
        )
        kill = next(
            action for action in commands.choices["txn-replay"]._actions
            if action.dest == "kill"
        )
        assert list(kill.choices) == ["all", *KILL_PHASES]

    def test_lost_ack_recovers_exactly(self):
        code, text = run(["txn-replay", "--kill", "lost-ack", "--rows", "8"])
        assert code == 0, text
        assert "lost-ack  : crashed=true  replayed=1 state=exact" in text


SHARD_VERIFY = [
    "  verify 'SELECT COUNT(*) FROM Employees': ok",
    "  verify 'SELECT SUM(salary) FROM Employees': ok",
    "  verify 'SELECT AVG(salary) FROM Employees WHERE salary >= 50000': ok",
    "  verify 'SELECT * FROM Employees WHERE eid < 5000': ok",
    "  verify row placement: ok (60 rows, no duplicates)",
]

#: each drill command's output, every line but its byte count
DRILLS = {
    "time-travel --rows 20": [
        "epoch | rows | sum(balance)",
        "------+------+-------------",
        "1     | 20   | 20190       ",
        "2     | 20   | 22690       ",
        "3     | 20   | 22216       ",
        "4     | 19   | 21197       ",
        "5     | 19   | 20747       ",
        "time-travel: 5 epochs readable; as_of_epoch=5 matches the live "
        "read exactly",
    ],
    "shard-split --rows 60": [
        "range-sharded Employees across 2 groups:",
        "  group0: 31 rows",
        "  group1: 29 rows",
        "split at eid=250000: 11 rows migrated to group2 (online, staging "
        "cutover)",
        "  group0: 20 rows",
        "  group1: 29 rows",
        "  group2: 11 rows",
        *SHARD_VERIFY,
    ],
    "shard-rebalance --rows 60": [
        "hash-sharded Employees across 2 groups:",
        "  group0: 35 rows",
        "  group1: 25 rows",
        "registered 1 new group(s)",
        "rebalanced: 18 rows migrated across 3 active groups",
        "  group0: 24 rows",
        "  group1: 18 rows",
        "  group2: 18 rows",
        *SHARD_VERIFY,
    ],
    "txn-replay --sharded --rows 12 --providers 3 --threshold 2": [
        "  pre-log   : crashed=true  replayed=0 state=exact",
        "  post-log  : crashed=true  replayed=1 state=exact",
        "  mid-round : crashed=true  replayed=1 state=exact",
        "  pre-ack   : crashed=true  replayed=1 state=exact",
        "  post-ack  : crashed=true  replayed=0 state=exact",
        "  lost-ack  : crashed=true  replayed=1 state=exact",
        "txn-replay: all 6 kill phases recovered exactly (sharded (2 "
        "groups), 12 rows)",
    ],
    "repair --provider 2 --simulate-loss --rows 60": [
        "simulated storage loss at DAS3",
        "  repaired Employees: 60 rows",
        "  repaired Managers: 6 rows",
        "  verify Employees: 60 rows at DAS3 vs 60 at the quorum — consistent",
        "  verify Managers: 6 rows at DAS3 vs 6 at the quorum — consistent",
    ],
}


@pytest.mark.parametrize("command", sorted(DRILLS))
def test_drill_command_prints_its_verdict(command):
    code, text = run(command.split())
    assert code == 0, text
    lines = text.splitlines()
    assert [line for line in lines if not line.startswith("  network: ")] == (
        DRILLS[command]
    )


class TestHelpers:
    def test_render_scalar(self):
        assert render_result(42) == "42"

    def test_render_empty(self):
        assert render_result([]) == "(0 rows)"

    def test_render_rows(self):
        text = render_result([{"a": 1}, {"a": 2}])
        assert "(2 rows)" in text

    def test_unknown_workload(self):
        with pytest.raises(ReproError):
            build_source("nope", 10, 3, 2, 1)


class TestSubprocess:
    def test_module_entrypoint(self):
        import subprocess
        import sys

        completed = subprocess.run(
            [sys.executable, "-m", "repro.cli", "figure1"],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert completed.returncode == 0
        assert "210" in completed.stdout
