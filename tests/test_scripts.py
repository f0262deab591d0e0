"""Smoke runs of the example scripts, so they cannot rot unnoticed."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _run_script(name, *args):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True, text=True, env=env, cwd=ROOT, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def _rows(lines, width):
    """Output lines whose first `width` fields are numbers."""
    rows = []
    for line in lines:
        fields = line.split()[:width]
        try:
            rows.append(tuple(float(f) for f in fields))
        except ValueError:
            continue
    return [row for row in rows if len(row) == width]


def test_linear_grid():
    lines = _run_script("linear_grid.py", "--skip-mcs")
    assert _rows(lines, 2) == [(1, 9), (3, 7), (5, 5), (7, 3), (9, 1)]


def test_crank_slider_sweep():
    lines = _run_script("crank_slider_sweep.py", "--skip-mcs", "--step", "20")
    assert [row[0] for row in _rows(lines, 3)] == [0.0, 20.0, 40.0]


def test_cantilever_report():
    lines = _run_script("cantilever_report.py", "--samples", "10000")
    for prefix in ("design point:", "failure interval:", "reliability interval:",
                   "MCS (10000 samples"):
        assert sum(line.startswith(prefix) for line in lines) == 1, prefix
    assert any(line.strip().startswith("shift=") for line in lines)

