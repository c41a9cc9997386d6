#!/usr/bin/env python3
"""Best-of-3 wall seconds of each acceptance criterion, and the oracle's
work in one configuration-limit call.

Runs every criterion of ``phasenu verify --suite all`` three times in
process and prints one line per criterion, "<seconds> <name>", with the
fastest of the three.  Then it runs configuration-limit once more with
each name of ``COUNTED`` wrapped in a counter, and prints one line per
name, "<calls> oracle.<name>": Sturm counts, secant passes of the twisted
pivot and row builds.  Counts do not vary from run to run as times do.
It checks no result and sets no bound; compare two trees with

    PYTHONPATH=<tree>/src python3 scripts/verify_times.py
"""

from time import perf_counter

from phasenu import oracle
from phasenu.acceptance import CRITERIA

REPEAT = 3

#: Oracle functions whose calls one configuration-limit call counts.
COUNTED = ("_sturm", "_twisted", "_weighted_coulomb")


def counted_calls():
    """Calls of each ``COUNTED`` function in one configuration-limit call."""
    calls = dict.fromkeys(COUNTED, 0)
    originals = {name: getattr(oracle, name) for name in COUNTED}

    def counter(name, function):
        def counted(*args, **kwargs):
            calls[name] += 1
            return function(*args, **kwargs)

        return counted

    for name, function in originals.items():
        setattr(oracle, name, counter(name, function))
    try:
        CRITERIA["configuration-limit"]()
    finally:
        for name, function in originals.items():
            setattr(oracle, name, function)
    return calls


def main():
    for name, check in CRITERIA.items():
        times = []
        for _ in range(REPEAT):
            start = perf_counter()
            check()
            times.append(perf_counter() - start)
        print(f"{min(times):.6f} {name}")
    for name, calls in counted_calls().items():
        print(f"{calls} oracle.{name}")


if __name__ == "__main__":
    main()
