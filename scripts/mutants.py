#!/usr/bin/env python3
"""Which check kills each known mutant of the source.

Each row of ``MUTANTS`` names a module under ``src/phasenu/``, a text in
it, the text that replaces it and why the change is a fault.  Every old
text must occur exactly once in its module of the tree, or the script
stops before it runs anything, so a refactor that moves a target says so.

For each mutant, the tree is copied without ``.git`` to a temporary
directory and the one replacement made there.  Then

    python -m pytest -q -x tests
    python scripts/output_digest.py
    python -m phasenu verify --suite all

run in the copy, one mutant at a time.  One line per mutant gives the
first failing test or "survived", and whether the digest and the stdout
of ``verify`` moved against an unmutated copy.  The script exits 1 if
any mutant survives tier-1; score two trees with

    python3 scripts/mutants.py --tree <tree>

Each mutant costs up to one tier-1 run, so a full table takes minutes.
"""

import argparse
import os
import pathlib
import shutil
import subprocess
import sys
import tempfile
import time

#: (module, old text, new text, why the change is a fault)
MUTANTS = [
    ("nu.py", "falling *= b + j", "falling *= b + j + 1",
     "Rodrigues coefficients: the falling factorial is off by one"),
    ("nu.py", "pi0 = b0 - v", "pi0 = b0 + v",
     "pi's constant term takes the other root of its quadratic"),
    ("nu.py", "- 1.0 - 2.0 * n)", "- 1.0 - 2.0 * n - 1e-9)",
     "kappa's root is detuned by 1e-9 in its denominator"),
    ("hydrogen.py", "(p * p - c_pi0)", "(p * p - 0.999 * c_pi0)",
     "ode_residual's transformed equation scales pi0 by 0.999"),
    ("hydrogen.py", "span = 4 * n +", "span = 2 * n +",
     "the residual samples half the span where the state lives"),
    ("oracle.py", "((i + 0.5) / n)", "((i + 0.51) / n)",
     "the oracle's cell edges leave the midpoints"),
    ("nu.py", "c_n * binomial * a_j[j] * falling", "c_n * (binomial * (a_j[j] * falling))",
     "the Rodrigues product regrouped: the same value up to rounding"),
    ("opspace.py", "1 - d))", "1 + d))",
     "complement's last slot is no involution"),
    ("opspace.py", "for shift, count in applications:", "for shift, count in applications[:1]:",
     "compose adds only the first application"),
    ("acceptance.py", "(x, y, 0, 0) if group[0] == 0 else (0, 0, x, y)",
     "(y, x, 0, 0) if group[0] == 0 else (0, 0, y, x)",
     "transform-algebra's complement takes its two counts in the other order"),
]

#: What the copy leaves out: history and what building and testing leave behind.
IGNORED = shutil.ignore_patterns(
    ".git", "__pycache__", ".pytest_cache", ".hypothesis", ".perfbench", "*.egg-info"
)

#: Seconds after which a mutant's tier-1 run is stopped; it counts as killed.
TIMEOUT_S = 900


def check_targets(tree):
    """Refuse the tree unless each old text occurs once in its module."""
    bad = []
    for module, old, _new, _why in MUTANTS:
        path = tree / "src" / "phasenu" / module
        count = path.read_text(encoding="utf-8").count(old) if path.is_file() else 0
        if count != 1:
            bad.append(f"{module}: {old!r} occurs {count} times, not once")
    if bad:
        sys.exit("mutant targets not found exactly once:\n" + "\n".join(bad))


def run(copy, *argv, timeout=None):
    env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
    return subprocess.run(
        [sys.executable, *argv], cwd=copy, env=env, capture_output=True, text=True,
        timeout=timeout,
    )


def outputs(copy):
    """The digest's last line and verify's stdout."""
    digest = run(copy, "scripts/output_digest.py").stdout.splitlines()[-1:]
    verify = run(copy, "-m", "phasenu", "verify", "--suite", "all").stdout
    return digest, verify


def first_failure(copy):
    """The first failing test of tier-1 under -x, or "survived"."""
    try:
        proc = run(copy, "-m", "pytest", "-q", "-x", "tests", timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return f"killed: timed out after {TIMEOUT_S} s"
    if proc.returncode == 0:
        return "survived"
    for line in proc.stdout.splitlines():
        if line.startswith(("FAILED ", "ERROR ")):
            return "killed: " + line.split(" - ")[0]
    return f"killed: pytest exit {proc.returncode}"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--tree", type=pathlib.Path, default=pathlib.Path(__file__).resolve().parents[1],
        help="checkout whose src/ and tests/ are mutated (default: this one)",
    )
    tree = parser.parse_args().tree.resolve()
    check_targets(tree)
    with tempfile.TemporaryDirectory() as tmp:
        pristine = pathlib.Path(tmp) / "pristine"
        shutil.copytree(tree, pristine, ignore=IGNORED)
        base_digest, base_verify = outputs(pristine)
        survivors = 0
        for number, (module, old, new, why) in enumerate(MUTANTS, 1):
            copy = pathlib.Path(tmp) / f"mutant{number}"
            shutil.copytree(tree, copy, ignore=IGNORED)
            path = copy / "src" / "phasenu" / module
            path.write_text(path.read_text(encoding="utf-8").replace(old, new), encoding="utf-8")
            start = time.perf_counter()
            result = first_failure(copy)
            seconds = time.perf_counter() - start
            digest, verify = outputs(copy)
            survivors += result == "survived"
            print(f"{number}. {module}: {old!r} -> {new!r} ({why})")
            print(
                f"   {result} ({seconds:.1f} s); digest "
                f"{'moved' if digest != base_digest else 'same'}; verify stdout "
                f"{'moved' if verify != base_verify else 'same'}",
                flush=True,
            )
            shutil.rmtree(copy)
    print(f"{len(MUTANTS) - survivors} of {len(MUTANTS)} mutants killed by tier-1")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
