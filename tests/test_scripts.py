"""Smoke runs of the scripts under ``scripts/`` against the source tree."""

import importlib.util
import os
import pathlib
import re
import shutil
import signal
import subprocess
import sys
import tempfile

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


def test_scan_refuses_a_grid_above_the_point_bound():
    """A grid of more than 100,000 points is a usage error before any
    level: one state holds about 535 B per point."""
    proc = _run(["spectrum_scan.py", "--fd", "--grid", "100,100001", "--n-max", "0", "--L-max", "0"])
    assert proc.returncode == 2
    assert "at most 100,000" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not proc.stdout


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


@pytest.mark.parametrize("r_max", ["1e300", "1e-150", "1e-300"])
def test_scan_reports_a_grid_beyond_the_float_range(r_max):
    """Cells whose width squared overflows or underflows to zero are
    refused by name, like a grid too small for the states asked."""
    proc = _run(["spectrum_scan.py", "--fd", "--grid", f"{r_max},1000",
                 "--n-max", "0", "--L-max", "0"])
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr
    assert (
        f"fd oracle unavailable for L=0: the cells of a grid with r_max={float(r_max):g} "
        "leave the float range"
    ) in proc.stdout


def test_verify_times_names_every_criterion():
    """One "<seconds> <criterion>" line per criterion, in suite order, then
    one "<calls> oracle.<name>" line per counted oracle function."""
    proc = _run(["verify_times.py"])
    assert proc.returncode == 0, proc.stderr
    lines = [line.split(" ") for line in proc.stdout.splitlines()]
    times, counts = lines[: len(CRITERIA)], lines[len(CRITERIA):]
    assert [name for _, name in times] == list(CRITERIA)
    assert all(re.fullmatch(r"\d+\.\d{6}", seconds) for seconds, _ in times)
    names = ["oracle._sturm", "oracle._twisted", "oracle._weighted_coulomb"]
    assert [name for _, name in counts] == names
    assert all(re.fullmatch(r"[1-9]\d*", calls) for calls, _ in counts)


def test_cli_times_names_every_command(monkeypatch, capsys):
    """One "<ms> <command>" line for the bare interpreter and each command,
    in order, one "<us> us main <command>" line for each command, then the
    import breakdown, led by phasenu.cli, without site."""
    spec = importlib.util.spec_from_file_location("cli_times", ROOT / "scripts" / "cli_times.py")
    cli_times = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(cli_times)
    monkeypatch.setattr(cli_times, "RUNS", 1)
    monkeypatch.setenv("PYTHONPATH", str(ROOT / "src"))
    cli_times.main()
    lines = capsys.readouterr().out.splitlines()
    count = len(cli_times.COMMANDS)
    times, mains, imports = lines[: 1 + count], lines[1 + count: 1 + 2 * count], lines[1 + 2 * count:]
    labels = ["python -c pass", *(" ".join(argv) for argv in cli_times.COMMANDS)]
    assert [line.split(" ", 1)[1] for line in times] == labels
    assert all(re.fullmatch(r"\d+\.\d{3}", line.split(" ", 1)[0]) for line in times)
    assert [line.split(" us main ", 1)[1] for line in mains] == labels[1:]
    assert all(re.fullmatch(r"\d+ us main .+", line) for line in mains)
    assert 1 < len(imports) <= cli_times.TOP
    assert imports[0].endswith(" us import phasenu.cli")
    assert all(re.fullmatch(r"\d+ us import [\w.]+", line) for line in imports)
    assert not any(line.endswith(" import site") for line in imports)


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
    """Exit 0 when tier-1 kills every row, 1 when one row survives, and a
    last line that counts the rows whose verify flags what the unmutated
    copy's does not; the runs themselves are stubbed, so only the scoring
    is under test."""
    shutil.copytree(ROOT / "src", tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__"))
    spec = importlib.util.spec_from_file_location("mutants", ROOT / "scripts" / "mutants.py")
    mutants = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mutants)
    results = iter(
        "survived" if number == survivor else "killed: stub"
        for number in range(1, len(mutants.MUTANTS) + 1)
    )
    monkeypatch.setattr(mutants, "first_failure", lambda copy: next(results))
    flags = {
        "pristine": ("configuration-limit",),
        "mutant1": ("configuration-limit", "recovery-rule raised IndexError"),
        "mutant2": ("configuration-limit",),
    }
    monkeypatch.setattr(mutants, "outputs", lambda copy: ([], flags.get(copy.name, ())))
    monkeypatch.setattr(sys, "argv", ["mutants.py", "--tree", str(tmp_path)])
    assert mutants.main() == (0 if survivor is None else 1)
    killed = len(mutants.MUTANTS) - (survivor is not None)
    out = capsys.readouterr().out
    assert out.count("; verify flags nothing\n") == len(mutants.MUTANTS) - 1
    assert "; verify flags recovery-rule raised IndexError\n" in out
    assert out.endswith(
        f"{killed} of {len(mutants.MUTANTS)} mutants killed by tier-1\n"
        f"verify flags 1 of {len(mutants.MUTANTS)}\n"
    )


def test_mutants_removes_its_copies_when_sigterm_stops_it(tmp_path, monkeypatch):
    """SIGTERM during a run exits 143 after the temporary copies are
    removed, and main leaves the SIGTERM handler as it found it."""
    tree, tmp = tmp_path / "tree", tmp_path / "tmp"
    shutil.copytree(ROOT / "src", tree / "src", ignore=shutil.ignore_patterns("__pycache__"))
    tmp.mkdir()
    spec = importlib.util.spec_from_file_location("mutants", ROOT / "scripts" / "mutants.py")
    mutants = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mutants)
    monkeypatch.setattr(mutants, "outputs", lambda copy: ([], ()))
    monkeypatch.setattr(mutants, "first_failure",
                        lambda copy: os.kill(os.getpid(), signal.SIGTERM))
    monkeypatch.setattr(tempfile, "tempdir", str(tmp))
    monkeypatch.setattr(sys, "argv", ["mutants.py", "--tree", str(tree)])
    handler = signal.getsignal(signal.SIGTERM)
    with pytest.raises(SystemExit) as stop:
        mutants.main()
    assert stop.value.code == 143
    assert list(tmp.iterdir()) == []
    assert signal.getsignal(signal.SIGTERM) is handler


def _run(script, **env_extra):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), **env_extra)
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script[0]), *script[1:]],
        capture_output=True,
        text=True,
        timeout=120,
        env=env,
    )
