#!/usr/bin/env python3
"""One SHA-256 over the output of a fixed set of CLI runs.

Runs the README examples, a scan/solve/wavefunction grid in four unit
systems on both branches, ``verify --suite all``, two edge inputs of
``--alphadelta``, three edge grids of ``wavefunction`` (a body whose
Horner value overflows, an error, and A = 0 at powers L and 0) and three
``manifold`` compositions (a forbidden mix, a custom start matrix with a
point, an image that overflows), each in process through
``phasenu.cli.main``, and
prints the SHA-256 of every run's arguments, stdout, stderr and exit
code.  A refactor that must not change what the CLI prints keeps the
digest; compare two trees with

    PYTHONPATH=<tree>/src python3 scripts/output_digest.py

Unit-system config files are written to a temporary directory, and the
digest sees their unit-system names, never their paths.
"""

import contextlib
import hashlib
import io
import json
import os
import tempfile

from phasenu import cli

#: Custom unit systems besides the atomic default.
UNITS = {
    "hbar30": {"unit_system": "custom", "m": 1.0, "hbar": 30.0, "k": 1.0, "e2": 1.0},
    "scaled": {"unit_system": "custom", "m": 2.5, "hbar": 1.7, "k": 0.8, "e2": 1.3},
    "muonic": {"unit_system": "custom", "m": 186.0, "hbar": 1.0, "k": 1.0, "e2": 1.0},
}

README = [
    ["solve", "--n", "0", "--L", "0", "--alphadelta", "-3"],
    ["scan", "--n-max", "3", "--L-max", "2", "--alphadelta", "-3"],
    ["manifold", "--apply", "3:2"],
    ["manifold", "--apply", "3:1", "--point=-3,1,-2,1"],
    ["wavefunction", "--n", "0", "--L", "0", "--alphadelta", "-3", "--grid", "0.01,20,400"],
    ["verify", "--suite", "all"],
]

EDGES = [
    ["solve", "--n", "0", "--L", "0", "--alphadelta", "-2"],
    ["solve", "--n", "1", "--L", "1", "--alphadelta", "-3.0000000000000004"],
    ["wavefunction", "--n", "40", "--L", "0", "--alphadelta", "-1", "--grid", "0,1e12,3"],
    ["wavefunction", "--n", "0", "--L", "2", "--alphadelta", "-3", "--grid", "0,4,3"],
    ["wavefunction", "--n", "0", "--L", "0", "--alphadelta", "-3", "--grid", "0,4,3"],
    ["manifold", "--apply", "1:1,3:1"],
    ["manifold", "--apply", "3:1,4:-2", "--g0", "2,-1,3,0", "--point=-3,1,-2,1"],
    ["manifold", "--apply", "3:-100000", "--point=1,1,1e305,1"],
]


def grid(unit):
    """The runs of one unit system (``unit`` is None for atomic units)."""
    config = [] if unit is None else ["--config", unit]
    for branch in ("-1", "-3"):
        yield ["scan", "--n-max", "8", "--L-max", "5", "--alphadelta", branch, *config]
        for n in ("0", "3", "20", "40"):
            for L in ("0", "2", "5"):
                yield ["solve", "--n", n, "--L", L, "--alphadelta", branch, *config]
        for n, L, extra in (("0", "0", ["--grid", "0.01,20,400"]),
                            ("3", "2", ["--grid", "0,40,200", "--pbar", "0.5+1j"])):
            yield ["wavefunction", "--n", n, "--L", L, "--alphadelta", branch, *extra, *config]


def run(argv):
    """stdout, stderr and exit code of one in-process CLI run."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as stop:  # argparse usage errors
            code = stop.code
    return out.getvalue(), err.getvalue(), code


def main():
    runs = [*README, *EDGES, *grid(None), *(argv for unit in UNITS for argv in grid(unit))]
    digest = hashlib.sha256()
    with tempfile.TemporaryDirectory() as tmp:
        paths = {}
        for unit, constants in UNITS.items():
            paths[unit] = os.path.join(tmp, f"{unit}.json")
            with open(paths[unit], "w", encoding="utf-8") as fh:
                json.dump(constants, fh)
        for argv in runs:
            stdout, stderr, code = run([paths.get(arg, arg) for arg in argv])
            for text in (stdout, stderr):
                for unit, path in paths.items():
                    text = text.replace(path, unit)
                digest.update(text.encode() + b"\0")
            digest.update(f"{argv!r} {code!r}\n".encode())
    print(digest.hexdigest())


if __name__ == "__main__":
    main()
