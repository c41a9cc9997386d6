#!/usr/bin/env python3
"""Best-of-3 wall seconds of each acceptance criterion.

Runs every criterion of ``phasenu verify --suite all`` three times in
process and prints one line per criterion, "<seconds> <name>", with the
fastest of the three.  It checks no result and sets no bound; compare two
trees with

    PYTHONPATH=<tree>/src python3 scripts/verify_times.py
"""

from time import perf_counter

from phasenu.acceptance import CRITERIA

REPEAT = 3


def main():
    for name, check in CRITERIA.items():
        times = []
        for _ in range(REPEAT):
            start = perf_counter()
            check()
            times.append(perf_counter() - start)
        print(f"{min(times):.6f} {name}")


if __name__ == "__main__":
    main()
