#!/usr/bin/env python3
"""Scan bound-state energies on both solvable branches.

For every (n, L) in the requested window the script reports the
closed-form energy, the solved energy, and their relative gap.
With --fd it also runs the finite-difference oracle for L <= 1 on the
-1 branch, the configuration-space limit, and columns the cross-check
error.
"""

import argparse

from phasenu.cli import _count_arg
from phasenu.errors import GridTooCoarse
from phasenu.hydrogen import BRANCHES, PhysicalParams, closed_form_energy, solve_energy
from phasenu.oracle import DEFAULT_GRID, RadialGrid, fd_spectrum


def scan_branch(alphadelta, n_max, L_max, want_fd, grid):
    # the oracle solves configuration space, which is the -1 branch only
    want_fd = want_fd and alphadelta == -1.0
    print(f"branch alphadelta = {alphadelta:g}")
    header = f"{'n':>3} {'L':>3} {'E_closed':>16} {'E_solved':>16} {'rel_gap':>10}"
    if want_fd:
        header += f" {'E_fd':>16} {'fd_rel':>10}"
    print(header)
    fd_cache = {}
    for L in range(L_max + 1):
        params = PhysicalParams(angular_momentum=L)
        if want_fd and L <= 1:
            try:
                fd_cache[L] = fd_spectrum(params, grid, n_states=n_max + 1)
            except GridTooCoarse as exc:
                print(f"  fd oracle unavailable for L={L}: {exc}")
        for n in range(n_max + 1):
            e_closed = closed_form_energy(params, n, alphadelta)
            e_solved = solve_energy(params, n, alphadelta)
            gap = abs(e_solved - e_closed) / abs(e_closed)
            line = f"{n:>3} {L:>3} {e_closed:>16.10f} {e_solved:>16.10f} {gap:>10.2e}"
            if L in fd_cache:
                e_fd = fd_cache[L][n]
                line += f" {e_fd:>16.10f} {abs(e_fd - e_closed) / abs(e_closed):>10.2e}"
            print(line)
    print()


def radial_grid(text):
    """argparse type: 'r_max,n_points' -> RadialGrid."""
    try:
        r_max, n_points = text.split(",")
        return RadialGrid(float(r_max), int(n_points))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected r_max,n_points: {exc}") from exc


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n-max", type=_count_arg, default=3)
    ap.add_argument("--L-max", type=_count_arg, default=2)
    ap.add_argument("--fd", action="store_true", help="cross-check against the grid oracle")
    ap.add_argument(
        "--grid",
        type=radial_grid,
        default=DEFAULT_GRID,
        help=f"r_max,n_points for --fd (default {DEFAULT_GRID.r_max:g},{DEFAULT_GRID.n_points})",
    )
    args = ap.parse_args()

    for alphadelta in BRANCHES:
        scan_branch(alphadelta, args.n_max, args.L_max, args.fd, args.grid)


if __name__ == "__main__":
    main()
