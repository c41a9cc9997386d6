#!/usr/bin/env python3
"""Python opcodes executed by each acceptance criterion, by one ``solve``
per branch through ``cli.main``, and by one 500-point tabulate batch per
branch.

A ``sys.settrace`` tracer turns on ``f_trace_opcodes`` in every new frame
and counts its "opcode" events.  Each item runs once untraced first, so
memos and lazily built parsers are warm, as in a repeated benchmark op,
and is then counted over one call.  Prints one line per item, "<opcodes>
<item>": every criterion of ``phasenu verify --suite all`` in suite
order, then ``SOLVES`` (output discarded), then ``BATCHES``.  Counts do
not vary from run to run as times do, but they miss work done inside C
(float ``repr``, ``math`` and complex arithmetic, argparse's C parts), and
bytecode differs between Python versions, so compare two trees under one
interpreter:

    PYTHONPATH=<tree>/src python3 scripts/op_counts.py

Tracing makes the calls about 10 to 40 times slower.  It checks no result
and sets no bound.
"""

import contextlib
import inspect
import io
import sys

from phasenu import cli, hydrogen
from phasenu.acceptance import CRITERIA

#: One ``solve`` argument list per branch.
SOLVES = [
    ["solve", "--n", "5", "--L", "2", "--alphadelta", "-3"],
    ["solve", "--n", "5", "--L", "2", "--alphadelta", "-1"],
]

#: (alphadelta, n, L, pbar) of each batch: every 32nd point of a tabulate
#: op's 16,000, over r in [0, 40/|rate|].  On the -1 branch A is real; on
#: the -3 branch this pbar makes it complex.
BATCHES = [(-1.0, 30, 2, 0.7 + 0j), (-3.0, 30, 2, 0.7 + 0j)]
BATCH_POINTS, GRID_POINTS, GRID_SPAN = 500, 16_000, 40.0


def opcodes(function, *args):
    """Opcodes executed in one call of ``function(*args)``, after one
    untraced call."""
    function(*args)
    count = 0

    def local(frame, event, arg):
        nonlocal count
        count += event == "opcode"
        return local

    def call(frame, event, arg):
        frame.f_trace, frame.f_trace_lines, frame.f_trace_opcodes = local, False, True
        return local

    # From 3.12 on, settrace reports opcodes only once some frame has asked
    # for them, and only in a frame whose f_trace is set as well as returned.
    inspect.currentframe().f_trace_opcodes = True
    previous = sys.gettrace()
    sys.settrace(call)
    try:
        function(*args)
    finally:
        sys.settrace(previous)
    return count


def batch(alphadelta, n, L, pbar):
    """A function that evaluates the assembled body at ``BATCH_POINTS``
    points of a tabulate grid, as tabulate does."""
    params = hydrogen.PhysicalParams(angular_momentum=L)
    wf = hydrogen.assemble_wavefunction(params, hydrogen.canonical_config(alphadelta), n)
    step = GRID_SPAN / abs(wf.body.rate) / (GRID_POINTS - 1)
    stride = GRID_POINTS // BATCH_POINTS

    def evaluate():
        for j in range(0, GRID_POINTS, stride):
            hydrogen.eval_wavefunction(wf, j * step, pbar, params.hbar)

    return evaluate


def main():
    for name, check in CRITERIA.items():
        print(f"{opcodes(check)} {name}")
    for argv in SOLVES:
        with contextlib.redirect_stdout(io.StringIO()):
            count = opcodes(cli.main, argv)
        print(f"{count} {' '.join(argv)}")
    for alphadelta, n, L, pbar in BATCHES:
        count = opcodes(batch(alphadelta, n, L, pbar))
        print(f"{count} tabulate {BATCH_POINTS} points, n {n} L {L} alphadelta {alphadelta:g} pbar {pbar}")


if __name__ == "__main__":
    main()
