"""Smoke runs of the scripts under ``scripts/`` against the source tree."""

import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]


@pytest.mark.parametrize(
    "script",
    [
        ["spectrum_scan.py", "--n-max", "1", "--L-max", "1", "--fd"],
        ["manifold_tour.py"],
        ["spectrum_scan.py", "--fd"],
    ],
)
def test_script_runs(script):
    proc = _run(script)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout
    assert "unavailable" not in proc.stdout


@pytest.mark.parametrize("grid", ["1e-3,100,4000", "1,2", "abc,4000", "100,x"])
def test_scan_refuses_a_malformed_grid(grid):
    """--grid takes r_max,n_points; anything else is a usage error."""
    proc = _run(["spectrum_scan.py", "--fd", "--grid", grid])
    assert proc.returncode == 2
    assert "usage:" in proc.stderr
    assert "Traceback" not in proc.stderr


def _run(script):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script[0]), *script[1:]],
        capture_output=True,
        text=True,
        timeout=120,
        env=env,
    )
