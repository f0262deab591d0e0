"""Smoke runs of the example scripts, so they cannot rot unnoticed."""

import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

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


def test_lsf_call_us():
    lines = _run_script("lsf_call_us.py", "--number", "200", "--repeat", "1")
    assert lines[0].split() == ["case", "point_us", "row_us", "stencil_us",
                                "batch_us"]
    rows = [line.split() for line in lines[1:4]]
    assert [row[0] for row in rows] == ["linear(m=5,n=5)", "crank_slider(t=0)",
                                        "cantilever_tube"]
    assert all(len(row) == 5 for row in rows)
    assert all(float(value) > 0.0 for row in rows for value in row[1:])

    assert lines[4] == ""
    assert lines[5].split() == ["search", "solves", "solve_us", "reach_calls",
                                "reach_rows", "blocks", "search_ms"]
    solves = [line.split() for line in lines[6:]]
    assert [row[0] for row in solves] == ["cantilever_tube", "crank_slider(t=40)"]
    for _, count, solve_us, calls, rows, blocks, search_ms in solves:
        assert int(count) > 0 and float(solve_us) > 0.0
        assert 1.0 <= float(calls) <= float(rows)
        assert float(search_ms) > 0.0
    # the tube's search: both box seeds' passes share a block
    assert int(solves[0][5]) == 260


@pytest.mark.skipif(shutil.which("git") is None or not (ROOT / ".git").exists(),
                    reason="needs a git checkout")
def test_compare_outputs_against_head(tmp_path):
    # both sides are HEAD's committed files, a clone's tree and its own
    # `git archive HEAD` extraction, so the outcome does not depend on what
    # the working tree holds; the script run is the working tree's
    clone = tmp_path / "clone"
    subprocess.run(["git", "clone", "-q", str(ROOT), str(clone)], check=True)
    shutil.copy(ROOT / "scripts" / "compare_outputs.py", clone / "scripts")
    proc = subprocess.run(
        [sys.executable, str(clone / "scripts" / "compare_outputs.py"),
         "--against", "HEAD", "--limit", "2"],
        capture_output=True, text=True, cwd=clone, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["against HEAD: 2 manifest entries",
                                        "paper rows: identical"]


def test_compare_outputs_reads_changes_in_ulps():
    import importlib.util

    spec = importlib.util.spec_from_file_location(
        "compare_outputs", ROOT / "scripts" / "compare_outputs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    tiny = 5e-324  # the smallest subnormal, its own ulp
    moved = 0.75 + 3 * math.ulp(0.75)
    lines = module.compare(
        [("rows", "a", {"R": [0.75, 0.5], "flag": 0.0}),
         ("rows", "b", {"R": [tiny, 2.0], "flag": 0.0})],
        [("rows", "a", {"R": [moved, 0.5], "flag": -0.0}),
         ("rows", "b", {"R": [2 * tiny, 2.0], "flag": 0.0})])
    # one ulp at b is a relative change of 0.5, three at a one of 4e-16;
    # -0.0 against 0.0 is no number of ulps apart
    assert lines == [
        "rows: R: largest relative change 0.5 (b), largest change 3 ulps (a)",
        "rows: flag: differs (a)",
    ]


def test_compare_outputs_reads_count_moves_as_old_to_new():
    import importlib.util

    spec = importlib.util.spec_from_file_location(
        "compare_outputs", ROOT / "scripts" / "compare_outputs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    # integers on both sides read as counts; a bool does not, and an int
    # against the same value as a float is the same number
    lines = module.compare(
        [("oracle", "a", {"calls": 3, "rows": 0, "ok": True, "exit": 2}),
         ("oracle", "b", {"calls": 5, "rows": 7, "ok": True, "exit": 2}),
         ("oracle", "c", {"calls": 1, "rows": 7, "ok": True, "exit": 2})],
        [("oracle", "a", {"calls": 0, "rows": 0, "ok": False, "exit": 2}),
         ("oracle", "b", {"calls": 6, "rows": 7, "ok": True, "exit": 2.0}),
         ("oracle", "c", {"calls": 1, "rows": 7, "ok": True, "exit": 2})])
    assert lines == [
        "oracle: ok: differs (a)",
        "oracle: calls: largest move 3 -> 0 (a), entries moved: 2",
    ]
    assert module.compare([("cli", "a", {"exit": 2})],
                          [("cli", "a", {"exit": 2})]) == ["cli: identical"]
