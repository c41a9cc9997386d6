"""Smoke runs of the scripts under ``scripts/`` against the source tree."""

import os
import pathlib
import re
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


def test_output_digest_is_stable():
    """One 64-hex-digit line, the same under two hash seeds: the run set
    has a fixed order and the digest sees no temporary path."""
    digests = []
    for seed in ("1", "2"):
        proc = _run(["output_digest.py"], PYTHONHASHSEED=seed)
        assert proc.returncode == 0, proc.stderr
        assert re.fullmatch(r"[0-9a-f]{64}\n", proc.stdout)
        digests.append(proc.stdout)
    assert digests[0] == digests[1]


def _run(script, **env_extra):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), **env_extra)
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script[0]), *script[1:]],
        capture_output=True,
        text=True,
        timeout=120,
        env=env,
    )
