#!/usr/bin/env python3
"""Wall milliseconds of each command run as a process, microseconds of
``cli.main`` on it in process, and what the import of ``phasenu.cli``
spends.

Runs ``python -m phasenu`` with each argument list of ``COMMANDS`` as a
subprocess, with ``python -c pass`` first for the interpreter's own
start-up, and ``phasenu.cli.main`` on the same list in this process
with its output redirected, interleaved: each round runs every command
once each way.  Prints one line per command, "<ms> <command>", with the
fastest of ``RUNS`` rounds, then one per command, "<us> us main
<command>", the fastest in-process call, which the interpreter's
start-up does not hide, then the ``TOP`` modules of ``python -X
importtime -c "import phasenu.cli"`` by cumulative time, "<us> us
import <module>", each the fastest of as many runs: ``phasenu.cli`` and
what its import loads, ``site`` left out.  It checks no result and sets
no bound, but stops if a command fails; compare two trees with

    PYTHONPATH=<tree>/src python3 scripts/cli_times.py
"""

import contextlib
import io
import subprocess
import sys
from time import perf_counter

from phasenu import cli

#: The command lines timed, after ``python -m phasenu``.
COMMANDS = [
    ["solve", "--n", "0", "--L", "0", "--alphadelta", "-3"],
    ["scan", "--n-max", "3", "--L-max", "2", "--alphadelta", "-1"],
    ["manifold", "--apply", "3:2"],
    ["wavefunction", "--n", "0", "--L", "0", "--alphadelta", "-3", "--grid", "0.01,20,400"],
    ["verify", "--suite", "all"],
]

#: How many rounds are run; the fastest of each command is printed.
RUNS = 9

#: How many modules of the import breakdown are printed.
TOP = 12


def run(argv):
    """Seconds ``python <argv>`` takes, and its stderr; a failure stops the script."""
    start = perf_counter()
    proc = subprocess.run(
        [sys.executable, *argv], stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True
    )
    seconds = perf_counter() - start
    if proc.returncode != 0:
        sys.exit(f"python {' '.join(argv)} exited {proc.returncode}:\n{proc.stderr}")
    return seconds, proc.stderr


def main_seconds(argv):
    """Seconds ``cli.main(argv)`` takes with its output redirected; a
    failure stops the script."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = perf_counter()
        code = cli.main(argv)
        seconds = perf_counter() - start
    if code != 0:
        sys.exit(f"cli.main({argv}) returned {code}:\n{err.getvalue()}")
    return seconds


def import_times(stderr):
    """Cumulative microseconds of ``phasenu.cli`` and of each module that
    its import loaded, from ``-X importtime`` output; the imports of
    ``site``, which come first, are left out."""
    subtree = {}
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        _self_us, cumulative, name = line[len("import time:"):].split("|")
        if not cumulative.strip().isdigit():  # the header
            continue
        subtree[name.strip()] = int(cumulative)
        if not name.startswith("  "):  # a top-level import closes its subtree
            if name.strip() == "phasenu.cli":
                return subtree
            subtree = {}
    return {}


def main():
    labels = ["python -c pass", *(" ".join(argv) for argv in COMMANDS)]
    argvs = [["-c", "pass"], *(["-m", "phasenu", *argv] for argv in COMMANDS)]
    best = [float("inf")] * len(argvs)
    in_process = [float("inf")] * len(COMMANDS)
    imports = {}
    for _ in range(RUNS):
        for i, argv in enumerate(argvs):
            best[i] = min(best[i], run(argv)[0])
        for i, argv in enumerate(COMMANDS):
            in_process[i] = min(in_process[i], main_seconds(argv))
        _, stderr = run(["-X", "importtime", "-c", "import phasenu.cli"])
        for name, us in import_times(stderr).items():
            imports[name] = min(imports.get(name, us), us)
    for seconds, label in zip(best, labels):
        print(f"{1e3 * seconds:.3f} {label}")
    for seconds, label in zip(in_process, labels[1:]):
        print(f"{1e6 * seconds:.0f} us main {label}")
    for name, us in sorted(imports.items(), key=lambda item: -item[1])[:TOP]:
        print(f"{us} us import {name}")


if __name__ == "__main__":
    main()
