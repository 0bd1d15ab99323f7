"""The scripts under scripts/ run end to end and print their summary line."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).parents[1]


@pytest.mark.parametrize(
    "script, summary",
    [
        ("table_report.py", "all ranks match the table"),
        ("vertex_removal_scan.py", "rank-16 subpolytopes with l0=0: 0 "),
    ],
)
def test_script_runs_and_summarizes(script, summary):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1].startswith(summary)
