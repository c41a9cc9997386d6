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
first failing test or "survived", whether the digest moved against an
unmutated copy, and what ``verify`` flags that the unmutated copy does
not: each criterion with a FAIL row, a criterion that raised with the
class it raised, or, when ``verify`` prints no table, its exit code and
the last line of its stderr.  The last two lines count the mutants that
tier-1 kills and those that ``verify`` flags.  The script exits 1 if any
mutant survives tier-1, and 143 when SIGTERM stops it, after it has
removed its copies; score two trees with

    python3 scripts/mutants.py --tree <tree>

Each mutant costs up to one tier-1 run, so a full table takes minutes.
"""

import argparse
import os
import pathlib
import re
import shutil
import signal
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
    ("hydrogen.py", "2.0 * (sig * dy + p * y)", "(sig * dy + p * y)",
     "ode_residual's tau_tilde term loses its factor 2"),
    ("oracle.py", "((i + 0.5) / n)", "((i + 0.51) / n)",
     "the oracle's cell edges leave the midpoints"),
    ("nu.py", "c_n * binomial * a_j[j] * falling", "c_n * (binomial * (a_j[j] * falling))",
     "the Rodrigues product regrouped: the same value up to rounding"),
    ("opspace.py", "1 - d))", "1 + d))",
     "complement's last slot is no involution"),
    ("opspace.py", "for shift, count in applications:", "for shift, count in applications[:1]:",
     "compose adds only the first application"),
    ("acceptance.py", "(2, -1, 0, 0)", "(-1, 2, 0, 0)",
     "transform-algebra's (2, -1) complement takes its two entries in the other order"),
    ("hydrogen.py", "not 0.0 < value < math.inf", "not 0.0 <= value < math.inf",
     "PhysicalParams admits a zero constant, which zeta's message then refuses"),
    ("opspace.py", "g.diag[3] * d", "g.diag[3] / d",
     "apply_to_point divides the delta slot by its entry"),
    ("hydrogen.py", "MANIFOLD_TOL * abs(label)", "MANIFOLD_TOL / abs(label)",
     "branch_of's snap window shrinks at the -3 label instead of widening"),
    ("hydrogen.py", "max(1.0, abs(product))", "max(2.0, abs(product))",
     "check_point admits a product twice as far from a label of -1"),
    ("nu.py", "default=-1)", "default=0)",
     "rodrigues_y names degree 0 for a y whose every coefficient underflows"),
    ("hydrogen.py", "abs(point.gamma) > MANIFOLD_TOL", "abs(point.gamma) >= MANIFOLD_TOL",
     "recover_configuration_space refuses a gamma exactly MANIFOLD_TOL from zero"),
    ("hydrogen.py", "abs(point.beta) > MANIFOLD_TOL", "abs(point.beta) >= MANIFOLD_TOL",
     "recover_configuration_space refuses a beta exactly MANIFOLD_TOL from zero"),
    ("opspace.py", "2**1024 - 2**970", "2**1024 - 2**971",
     "apply_to_point names an entry that fits a float as the one that overflows"),
    ("nu.py", "(1.0 + abs(b.K)", "(2.0 + abs(b.K)",
     "solve_state's gate admits one more unit of residual than its terms' scale"),
    ("nu.py", "abs(b.K)", "abs(b.lam)",
     "solve_state's gate scale takes |lambda| = |K + pi'| for |K|"),
    ("nu.py", "abs(b.pi1)", "abs(b.tau1)",
     "solve_state's gate scale takes |tau'| = 2 |pi'| for |pi'|"),
    ("nu.py", "abs(lam_n))", "1.5 * abs(lam_n))",
     "solve_state's gate scale takes |lambda_n| at 1.5 times its value"),
    ("acceptance.py", "not value <= worst", "value > worst",
     "acceptance's _worst drops a NaN, so a NaN measure passes its row"),
    ("cli.py", "if command is None or extra:", "if command is None:",
     "main drops the top-level fallback, so extra arguments are silently ignored"),
    ("acceptance.py", "(not math.isnan(r[0]), r[0])", "r[0]",
     "residual-detector's detuned min skips a NaN, so a NaN residual passes its row"),
    ("hydrogen.py", "self.point.gamma / self.point.delta", "self.point.gamma * self.point.delta",
     "prefactor_rate multiplies gamma by delta instead of dividing"),
    ("opspace.py", "(p * r / hbar) * (point.gamma", "(p * r * hbar) * (point.gamma",
     "the phi3 angle multiplies by hbar instead of dividing"),
    ("oracle.py", "elif mid >= b:\n                hi = mid", "elif mid >= b:\n                lo = mid",
     "a mid beyond the bracket's upper end is decided as below the level"),
    ("oracle.py", "hi = b = mid", "hi = mid",
     "a counted mid above the level no longer narrows the bracket: same bits, more counts"),
    ("oracle.py", "_sturm(rows, seed, tail) > j", "_sturm(rows, seed, tail) >= j",
     "the seed's count is read on the wrong side: a seed just below the level ends its bracket"),
    ("oracle.py", "above = d - hi - c / above", "above = d - lo - c / above",
     "the wall guard's fused sweep takes the pivots above the level at the point below it"),
    ("oracle.py", "d - radius - b", "d - radius + b",
     "the Gershgorin lower bounds add |b_k| instead of subtracting it"),
    ("oracle.py", "@lru_cache(maxsize=2)", "@lru_cache(maxsize=1)",
     "the geometry memo keeps one grid, so each fd_spectrum builds both: same bits, more work"),
    ("oracle.py", "if q <= 0.0:\n            count += 1\n            q = q or _PIVMIN\n    for",
     "if q < 0.0:\n            count += 1\n            q = q or _PIVMIN\n    for",
     "the count before the exit skips an exact zero pivot: the count just below x on the "
     "last row, a ZeroDivisionError on the next"),
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
    """The digest's last line, and what verify flags in the order it prints:
    "<criterion>" for a FAIL row, "<criterion> raised <class>" for a raise,
    or "exit <code>: <last stderr line>" when verify prints no table."""
    digest = run(copy, "scripts/output_digest.py").stdout.splitlines()[-1:]
    verify = run(copy, "-m", "phasenu", "verify", "--suite", "all")
    lines = verify.stdout.splitlines()
    if not (lines and lines[-1].endswith(" checks passed")):
        stderr = verify.stderr.splitlines() or [""]
        return digest, (f"exit {verify.returncode}: {stderr[-1]}",)
    flags = {}
    for line in lines:
        row = re.fullmatch(r"FAIL  (\S+) +(.*?)  \[(.*)\]", line)
        if row:
            criterion, detail, measure = row.groups()
            raised = f" raised {measure.split(':')[0]}" if detail == "raised" else ""
            flags[criterion + raised] = None
    return digest, tuple(flags)


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
    # SIGTERM as SystemExit, so the with block removes the copies
    previous = signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        with tempfile.TemporaryDirectory() as tmp:
            pristine = pathlib.Path(tmp) / "pristine"
            shutil.copytree(tree, pristine, ignore=IGNORED)
            base_digest, base_flags = outputs(pristine)
            survivors = flagged = 0
            for number, (module, old, new, why) in enumerate(MUTANTS, 1):
                copy = pathlib.Path(tmp) / f"mutant{number}"
                shutil.copytree(tree, copy, ignore=IGNORED)
                path = copy / "src" / "phasenu" / module
                path.write_text(path.read_text(encoding="utf-8").replace(old, new),
                                encoding="utf-8")
                start = time.perf_counter()
                result = first_failure(copy)
                seconds = time.perf_counter() - start
                digest, flags = outputs(copy)
                flags = [flag for flag in flags if flag not in base_flags]
                survivors += result == "survived"
                flagged += bool(flags)
                print(f"{number}. {module}: {old!r} -> {new!r} ({why})")
                print(
                    f"   {result} ({seconds:.1f} s); digest "
                    f"{'moved' if digest != base_digest else 'same'}; verify flags "
                    f"{', '.join(flags) or 'nothing'}",
                    flush=True,
                )
                shutil.rmtree(copy)
        print(f"{len(MUTANTS) - survivors} of {len(MUTANTS)} mutants killed by tier-1")
        print(f"verify flags {flagged} of {len(MUTANTS)}")
        return 1 if survivors else 0
    finally:
        signal.signal(signal.SIGTERM, previous)


if __name__ == "__main__":
    sys.exit(main())
