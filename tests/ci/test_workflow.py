"""Structural validation of .github/workflows/ci.yml.

actionlint isn't vendorable here, so this is the executable equivalent:
the workflow must parse as YAML, reference only jobs that exist, pin
action versions, and run the same tier-1 command ROADMAP.md documents —
so a CI regression is caught by the suite CI itself runs.
"""

from pathlib import Path

import pytest

yaml = pytest.importorskip("yaml")

REPO_ROOT = Path(__file__).resolve().parent.parent.parent
WORKFLOW = REPO_ROOT / ".github" / "workflows" / "ci.yml"

EXPECTED_JOBS = {
    "lint",
    "tests",
    "bench-smoke",
    "chaos-smoke",
    "chaos-long",
    "editable-install",
    "coverage",
}


@pytest.fixture(scope="module")
def workflow():
    return yaml.safe_load(WORKFLOW.read_text())


@pytest.fixture(scope="module")
def jobs(workflow):
    return workflow["jobs"]


class TestWorkflowShape:
    def test_parses_and_has_required_top_level_keys(self, workflow):
        assert workflow["name"] == "CI"
        # YAML 1.1 reads the bare `on:` key as boolean True
        triggers = workflow.get("on", workflow.get(True))
        assert "push" in triggers and "pull_request" in triggers
        assert triggers["push"]["branches"] == ["main"]

    def test_long_matrix_triggers_present(self, workflow):
        """chaos-long needs a weekly schedule and a manual trigger."""
        triggers = workflow.get("on", workflow.get(True))
        assert "workflow_dispatch" in triggers
        crons = [entry["cron"] for entry in triggers["schedule"]]
        assert crons and all(len(c.split()) == 5 for c in crons)

    def test_setup_python_steps_cache_pip(self, jobs):
        """Every job restores the pip cache keyed on pyproject.toml."""
        for name, job in jobs.items():
            setup = [
                s for s in job["steps"]
                if str(s.get("uses", "")).startswith("actions/setup-python")
            ]
            assert setup, f"job {name} never sets up python"
            for step in setup:
                assert step["with"].get("cache") == "pip", name
                assert (
                    step["with"].get("cache-dependency-path")
                    == "pyproject.toml"
                ), name

    def test_expected_jobs_present(self, jobs):
        assert set(jobs) == EXPECTED_JOBS

    def test_every_job_runs_on_pinned_ubuntu(self, jobs):
        for name, job in jobs.items():
            assert job["runs-on"] == "ubuntu-latest", name
            assert job["steps"], f"job {name} has no steps"

    def test_needs_reference_existing_jobs(self, jobs):
        for name, job in jobs.items():
            for dependency in job.get("needs", []):
                assert dependency in jobs, (
                    f"job {name} needs unknown job {dependency}"
                )

    def test_actions_are_version_pinned(self, jobs):
        for name, job in jobs.items():
            for step in job["steps"]:
                uses = step.get("uses")
                if uses is not None:
                    assert "@" in uses, (
                        f"unpinned action {uses!r} in job {name}"
                    )

    def test_steps_are_well_formed(self, jobs):
        for name, job in jobs.items():
            for step in job["steps"]:
                assert "run" in step or "uses" in step, (
                    f"step in {name} does neither run nor use: {step}"
                )
                if "run" in step:
                    assert step["run"].strip(), f"empty run step in {name}"


class TestTier1Gate:
    def test_matrix_covers_supported_pythons(self, jobs):
        matrix = jobs["tests"]["strategy"]["matrix"]
        assert matrix["python-version"] == ["3.9", "3.11", "3.13"]
        assert jobs["tests"]["strategy"]["fail-fast"] is False

    def test_matrix_runs_with_and_without_numpy(self, jobs):
        """The scalar oracle is a supported runtime, not a dev fallback:
        every python version runs the suite both with the numpy backend
        and with numpy absent entirely."""
        matrix = jobs["tests"]["strategy"]["matrix"]
        assert matrix["kernels"] == ["numpy", "no-numpy"]
        steps = jobs["tests"]["steps"]
        base_install = [
            s for s in steps
            if "run" in s and s["run"].startswith("python -m pip install")
            and "numpy" not in s["run"]
        ]
        assert base_install, "base dependency install must not pull numpy"
        numpy_install = [
            s for s in steps if "run" in s and "pip install numpy" in s["run"]
        ]
        assert numpy_install, "no step installs numpy for the vector leg"
        assert numpy_install[0]["if"] == "matrix.kernels == 'numpy'"

    def test_tests_job_runs_tier1_command_with_pythonpath(self, jobs):
        steps = jobs["tests"]["steps"]
        run_steps = [s for s in steps if "run" in s]
        tier1 = [s for s in run_steps if "pytest -x -q" in s["run"]]
        assert tier1, "tests job never runs the tier-1 suite"
        assert tier1[0]["env"]["PYTHONPATH"] == "src"

    def test_bench_smoke_runs_check_mode(self, jobs):
        runs = " ".join(
            s["run"] for s in jobs["bench-smoke"]["steps"] if "run" in s
        )
        assert "bench_hotpath.py --check" in runs
        assert "bench_service.py --check" in runs
        assert "bench_provider.py --check" in runs
        assert "bench_resilience.py --check" in runs
        assert "bench_sharding.py --check" in runs
        assert "bench_txn.py --check" in runs
        assert "bench_updates.py --check" in runs
        assert "bench_overload.py --check" in runs
        assert "repro.cli trace" in runs
        # the hot-path check gates the >=10x vectorized speedup, which
        # requires numpy in the bench-smoke environment, and the >=5x
        # exact-integer order-preserving kernel, which does not
        assert "pip install numpy" in runs
        hotpath_check = next(
            s for s in jobs["bench-smoke"]["steps"]
            if s.get("run") == "python benchmarks/bench_hotpath.py --check"
        )
        assert ">=10x" in hotpath_check["name"]
        assert ">=5x" in hotpath_check["name"]
        # plain --check: the response-path bar against the parent's frozen
        # numbers (RESPONSE_PATH_GATE) is enforced here, not in tier-1
        assert ">=1.3x" in hotpath_check["name"]

    def test_bench_smoke_runs_e2e_smoke(self, jobs):
        """The end-to-end benchmark's own tests (oracle checks and the
        traced runs that resolve every ``layers.TARGETS`` entry) run in
        CI; tier-1 only resolves the targets (tests/ci/test_trace_targets)."""
        steps = [s for s in jobs["bench-smoke"]["steps"] if "run" in s]
        e2e = [s for s in steps if "pytest benchmarks/e2e -q" in s["run"]]
        assert len(e2e) == 1
        assert e2e[0]["name"].startswith("e2e-smoke")
        assert e2e[0]["env"]["PYTHONPATH"] == "src"
        installs = [s["run"] for s in steps if "pip install" in s["run"]]
        assert any("pytest" in run for run in installs)

    def test_bench_smoke_regenerates_the_paper_tables(self, jobs):
        """Every script that writes a paper table (``record_experiment``)
        runs at its committed sizes, and the step fails when a table under
        ``benchmarks/results`` moved."""
        scripts = [
            f"benchmarks/{path.name}"
            for path in sorted((REPO_ROOT / "benchmarks").glob("bench_*.py"))
            if "record_experiment(" in path.read_text(encoding="utf-8")
        ]
        (step,) = [s for s in jobs["bench-smoke"]["steps"] if "benchmarks/results" in s.get("run", "")]
        command, diff = step["run"].replace("\\\n", " ").strip().splitlines()
        assert command.startswith("python -m pytest") and command.split()[-len(scripts):] == scripts
        assert diff == "git diff --exit-code -- benchmarks/results"
        assert step["env"]["PYTHONPATH"] == "src"

    def test_provider_gates_run_on_both_backends(self, jobs):
        """The provider engine check must pass on the vectorized backend
        (speedup gates) AND with the backend forced to the scalar oracle
        (equivalence + relaxed gates) in the same numpy-equipped env."""
        steps = jobs["bench-smoke"]["steps"]
        checks = [
            s for s in steps
            if "run" in s and "bench_provider.py --check" in s["run"]
        ]
        assert len(checks) == 2
        # plain --check: the gates tier-1 leaves out (scalar range scan,
        # incremental-load milliseconds) are enforced here
        assert all("--skip" not in s["run"] for s in checks)
        forced = [
            s for s in checks
            if s.get("env", {}).get("REPRO_KERNEL_BACKEND") == "scalar"
        ]
        assert len(forced) == 1
        # the step name quotes bench_provider.py's numpy gates
        # (RANGE_SCAN_GATES / FILTERED_SUM_GATES), re-measured in ISSUE-17
        vectorized = next(s for s in checks if s not in forced)
        assert ">=12x scan" in vectorized["name"]
        assert ">=50x SUM" in vectorized["name"]

    def test_bench_smoke_uploads_regenerated_reports(self, jobs):
        steps = jobs["bench-smoke"]["steps"]
        runs = " ".join(s["run"] for s in steps if "run" in s)
        # these benches regenerate their JSON before upload, so the
        # artifact never carries a stale report shape
        run_lines = "\n".join(s["run"] for s in steps if "run" in s) + "\n"
        assert "python benchmarks/bench_hotpath.py\n" in run_lines
        assert "python benchmarks/bench_resilience.py\n" in run_lines
        assert "python benchmarks/bench_sharding.py\n" in run_lines
        assert "python benchmarks/bench_txn.py\n" in run_lines
        assert "python benchmarks/bench_provider.py\n" in run_lines
        assert "python benchmarks/bench_overload.py\n" in run_lines
        uploads = [
            s for s in steps
            if str(s.get("uses", "")).startswith("actions/upload-artifact")
        ]
        assert uploads and uploads[0]["with"]["path"] == "BENCH_*.json"
        assert "bench_sharding.py --check" in runs

    def test_chaos_smoke_runs_fault_matrix_and_gates(self, jobs):
        runs = " ".join(
            s["run"] for s in jobs["chaos-smoke"]["steps"] if "run" in s
        )
        assert "tests/integration/test_fault_matrix.py" in runs
        assert "tests/sharding/test_shard_chaos.py" in runs
        # reads that must survive tamperers: the checked mode
        assert "tests/client/test_verified_reads.py" in runs
        assert "tests/client/test_robust.py" in runs
        assert "tests/txn/test_recovery.py" in runs
        assert "bench_resilience.py --check" in runs
        assert "repro.cli repair" in runs
        assert "repro.cli shard-split" in runs

    def test_chaos_smoke_runs_overload_drills(self, jobs):
        """The overload gates run in chaos-smoke too (the --check mode
        includes the combined 4x flood + (n-k) crash drill, where each
        crashed provider must be quarantined and then cost no bytes),
        plus an open-loop flood through the CLI."""
        runs = [
            s["run"] for s in jobs["chaos-smoke"]["steps"] if "run" in s
        ]
        assert any("bench_overload.py --check" in r for r in runs)
        floods = [r for r in runs if "serve-sim --open-loop" in r]
        assert floods and all("--load 4" in r for r in floods)

    def test_chaos_smoke_diffs_two_closed_loop_simulations(self, jobs):
        """Closed-loop serve-sim runs on the virtual clock: two runs must
        be equal line for line once the wall-clock key is dropped."""
        runs = [
            s["run"] for s in jobs["chaos-smoke"]["steps"] if "run" in s
        ]
        (step,) = [r for r in runs if "diff serve-sim-a.json" in r]
        sims = [
            line for line in step.splitlines() if "repro.cli serve-sim" in line
        ]
        assert len(sims) == 2
        assert sims[0].replace("-a.json", "-b.json") == sims[1]
        for line in sims:
            assert "--json" in line and "--open-loop" not in line
            assert "grep -v '\"wall_seconds\"'" in line

    def test_chaos_smoke_runs_crash_replay_drills(self, jobs):
        """The WAL kill-at-every-phase drill runs through the CLI both
        unsharded and sharded — the command exits nonzero on divergence."""
        runs = [
            s["run"] for s in jobs["chaos-smoke"]["steps"] if "run" in s
        ]
        drills = [r for r in runs if "repro.cli txn-replay" in r]
        assert len(drills) == 2
        assert any("--sharded" in r for r in drills)

    def test_chaos_long_is_gated_and_exhaustive(self, jobs):
        job = jobs["chaos-long"]
        condition = job["if"]
        assert "schedule" in condition
        assert "workflow_dispatch" in condition
        matrix_steps = [
            s for s in job["steps"]
            if "run" in s and "test_chaos_long.py" in s["run"]
        ]
        assert matrix_steps, "chaos-long never runs the long matrix"
        assert matrix_steps[0]["env"]["REPRO_CHAOS_LONG"] == "1"
        assert matrix_steps[0]["env"]["PYTHONPATH"] == "src"

    def test_editable_install_exercises_package_metadata(self, jobs):
        runs = " ".join(
            s["run"] for s in jobs["editable-install"]["steps"] if "run" in s
        )
        assert "pip install -e .[dev]" in runs
        assert "pytest" in runs

    def test_coverage_job_gates_and_uploads(self, jobs):
        steps = jobs["coverage"]["steps"]
        runs = " ".join(s["run"] for s in steps if "run" in s)
        assert "--cov=repro" in runs
        uploads = [
            s for s in steps
            if str(s.get("uses", "")).startswith("actions/upload-artifact")
        ]
        assert uploads and uploads[0]["with"]["path"] == "coverage.xml"


class TestRatchetConfigured:
    def test_pyproject_records_coverage_ratchet(self):
        text = (REPO_ROOT / "pyproject.toml").read_text()
        assert "[tool.coverage.report]" in text
        assert "fail_under" in text

    def test_pyproject_configures_ruff(self):
        text = (REPO_ROOT / "pyproject.toml").read_text()
        assert "[tool.ruff]" in text
