"""Smoke tests: every shipped example must run cleanly end to end.

These guard the documentation — an example that crashes is worse than no
example.  Each runs in a subprocess exactly as a user would invoke it.
"""

import os
import subprocess
import sys

import pytest

EXAMPLES_DIR = os.path.join(os.path.dirname(__file__), "..", "..", "examples")

EXAMPLES = [
    ("quickstart.py", ["outsourced 1000 rows", "total payroll"]),
    ("payroll_analytics.py", ["all answers matched the plaintext oracle"]),
    ("private_public_mashup.py", ["leaked nothing", "LEAKED"]),
    ("fault_tolerance.py", ["UNAVAILABLE", "tamper", "all exact: True", "presence vote"]),
    ("pir_demo.py", ["trivial download", "data privacy holds"]),
    ("ecommerce_analytics.py", ["revenue by action type", "adjusted"]),
]


@pytest.mark.parametrize("script,expected", EXAMPLES, ids=[e[0] for e in EXAMPLES])
def test_example_runs(script, expected):
    completed = subprocess.run(
        [sys.executable, os.path.join(EXAMPLES_DIR, script)],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert completed.returncode == 0, completed.stderr[-2000:]
    for marker in expected:
        assert marker in completed.stdout, (script, marker)
    assert "Traceback" not in completed.stderr
