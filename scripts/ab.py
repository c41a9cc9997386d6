#!/usr/bin/env python3
"""A/B of two checkouts on one benchmark workload, in alternating pairs.

    python3 scripts/ab.py --base <tree> --head <tree> --workload verify --pairs 10

Each pair runs the benchmark command of the base tree's ``BENCHMARK.json``
(``python3 perfbench/run.py``) with ``--workload W --seed S --seconds T
--trace 0`` once from the root of each tree, so each side measures its own
source.  The first pair runs base first, the next head first, and so on.
Each run's summary, the last line of its stdout, is printed as it comes,
after its pair number and side.  At the end one line per end-to-end metric
of that ``BENCHMARK.json`` gives each side's median and quartiles over its
runs and the pairs each side won (a tie counts for neither), and a last
line counts the runs that were not correct or failed an op.  It checks no
bound; a run that exits non-zero stops the script with its stderr.
"""

import argparse
import json
import pathlib
import statistics
import subprocess
import sys

SIDES = ("base", "head")


def run(tree, command, args):
    """The JSON summary of one benchmark run from the root of ``tree``."""
    argv = [*command, "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.exit(f"{' '.join(argv)} in {tree} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def summary(pairs, end_to_end):
    """Lines of the per-metric medians, quartiles and wins over ``pairs``,
    each a dict of the base and head summaries of one pair; ``end_to_end``
    is the list of that name in ``BENCHMARK.json``."""
    lines = []
    for metric in end_to_end:
        name, lower = metric["name"], metric["better"] == "lower"
        values = {side: [pair[side]["metrics"][name]["value"] for pair in pairs] for side in SIDES}
        shown = []
        for side in SIDES:
            q1, median, q3 = statistics.quantiles(values[side], n=4, method="inclusive")
            shown.append(f"{side} {median:.4g} [{q1:.4g}, {q3:.4g}]")
        wins = dict.fromkeys(SIDES, 0)
        for base, head in zip(values["base"], values["head"]):
            if base != head:
                wins["head" if (head < base) == lower else "base"] += 1
        lines.append(
            f"{name} ({metric['unit']}, {metric['better']} is better): {', '.join(shown)}; "
            f"head won {wins['head']}, base {wins['base']} of {len(pairs)} pairs"
        )
    bad = {side: sum(not pair[side]["correct"] or pair[side]["failed"] > 0 for pair in pairs)
           for side in SIDES}
    lines.append(f"runs not correct or with failed ops: base {bad['base']}, head {bad['head']}")
    return lines


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", type=pathlib.Path, required=True, help="parent checkout")
    parser.add_argument("--head", type=pathlib.Path, required=True, help="changed checkout")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    args = parser.parse_args()
    if args.pairs < 2:
        parser.error("--pairs must be at least 2, so each side has quartiles")
    spec = json.loads((args.base / "BENCHMARK.json").read_text(encoding="utf-8"))
    trees = {"base": args.base.resolve(), "head": args.head.resolve()}
    pairs = []
    for number in range(1, args.pairs + 1):
        pair = {}
        for side in SIDES if number % 2 else SIDES[::-1]:
            pair[side] = run(trees[side], spec["command"], args)
            print(f"pair {number} {side} {json.dumps(pair[side])}", flush=True)
        pairs.append(pair)
    print("\n".join(summary(pairs, spec["end_to_end"])))


if __name__ == "__main__":
    main()
