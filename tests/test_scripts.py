"""The scripts under scripts/ run end to end and print their summary line;
table_report.py's whole output matches its golden file."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).parents[1]


def run_script(script):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.mark.parametrize(
    "script, summary",
    [
        ("table_report.py", "all ranks match the table"),
        ("vertex_removal_scan.py", "rank-16 subpolytopes with l0=0: 0 "),
    ],
)
def test_script_runs_and_summarizes(script, summary):
    assert run_script(script).splitlines()[-1].startswith(summary)


def test_table_report_matches_golden():
    """Every column, the dual ranks included, byte for byte."""
    golden = (ROOT / "tests" / "golden" / "table_report.txt").read_text()
    assert run_script("table_report.py") == golden
