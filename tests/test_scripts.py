"""Smoke runs of the scripts under ``scripts/`` against the source tree."""

import importlib.util
import os
import pathlib
import re
import shutil
import subprocess
import sys

import pytest

from phasenu.acceptance import CRITERIA

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


@pytest.mark.parametrize("flag", ["--n-max", "--L-max"])
def test_scan_refuses_a_negative_count(flag):
    proc = _run(["spectrum_scan.py", flag, "-1"])
    assert proc.returncode == 2
    assert "must be non-negative" in proc.stderr
    assert not proc.stdout


def test_scan_reports_more_states_than_the_grid_holds():
    """The companion grid of the default 1,000 points has 499 unknowns."""
    proc = _run(["spectrum_scan.py", "--n-max", "4000", "--L-max", "0", "--fd"])
    assert proc.returncode == 0, proc.stderr
    assert (
        "fd oracle unavailable for L=0: 4001 states requested, "
        "but the companion grid has only 499 unknowns"
    ) in proc.stdout


def test_verify_times_names_every_criterion():
    """One "<seconds> <criterion>" line per criterion, in suite order."""
    proc = _run(["verify_times.py"])
    assert proc.returncode == 0, proc.stderr
    lines = [line.split(" ") for line in proc.stdout.splitlines()]
    assert [name for _, name in lines] == list(CRITERIA)
    assert all(re.fullmatch(r"\d+\.\d{6}", seconds) for seconds, _ in lines)


def test_output_digest_is_stable():
    """One 64-hex-digit line, the same under two hash seeds: the run set
    has a fixed order and the digest sees no temporary path.  --per-run
    puts one line per run, its digest and arguments, before that line."""
    digests = []
    for seed, flags in (("1", []), ("2", ["--per-run"])):
        proc = _run(["output_digest.py", *flags], PYTHONHASHSEED=seed)
        assert proc.returncode == 0, proc.stderr
        *runs, last = proc.stdout.splitlines()
        assert re.fullmatch(r"[0-9a-f]{64}", last)
        digests.append(last)
    assert digests[0] == digests[1]
    assert len(runs) > 100
    assert all(re.fullmatch(r"[0-9a-f]{64} [a-z]+ --.*", line) for line in runs)
    assert runs[0].endswith(" solve --n 0 --L 0 --alphadelta -3")


def test_mutants_refuses_a_tree_without_a_target(tmp_path):
    """A target that a refactor moved stops the script before any run."""
    shutil.copytree(ROOT / "src", tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__"))
    path = tmp_path / "src" / "phasenu" / "opspace.py"
    path.write_text(path.read_text().replace("1 - d))", "1 - d) )"))
    proc = _run(["mutants.py", "--tree", str(tmp_path)])
    assert proc.returncode == 1
    assert "opspace.py: '1 - d))' occurs 0 times, not once" in proc.stderr
    assert not proc.stdout


@pytest.mark.parametrize("survivor", [None, 3])
def test_mutants_exit_status_counts_survivors(tmp_path, monkeypatch, capsys, survivor):
    """Exit 0 when tier-1 kills every row, 1 when one row survives; the
    runs themselves are stubbed, so only the scoring is under test."""
    shutil.copytree(ROOT / "src", tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__"))
    spec = importlib.util.spec_from_file_location("mutants", ROOT / "scripts" / "mutants.py")
    mutants = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mutants)
    results = iter(
        "survived" if number == survivor else "killed: stub"
        for number in range(1, len(mutants.MUTANTS) + 1)
    )
    monkeypatch.setattr(mutants, "first_failure", lambda copy: next(results))
    monkeypatch.setattr(mutants, "outputs", lambda copy: ([], ""))
    monkeypatch.setattr(sys, "argv", ["mutants.py", "--tree", str(tmp_path)])
    assert mutants.main() == (0 if survivor is None else 1)
    killed = len(mutants.MUTANTS) - (survivor is not None)
    assert capsys.readouterr().out.endswith(
        f"{killed} of {len(mutants.MUTANTS)} mutants killed by tier-1\n"
    )


def _run(script, **env_extra):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), **env_extra)
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script[0]), *script[1:]],
        capture_output=True,
        text=True,
        timeout=120,
        env=env,
    )
