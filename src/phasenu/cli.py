"""Command-line surface: solve, scan, manifold, wavefunction, verify.

Machine-readable output only: JSON documents for single results, CSV for
grids.  JSON documents come from :func:`_json`, byte-identical to
``json.dumps(indent=2)``; CSV floats use shortest-round-trip
formatting.  Exit codes: 0 success, 1 a failed ``verify`` row, 2 usage
error, 3 domain/solver error or a float overflow (class name on stderr).
"""

from __future__ import annotations

import argparse
import cmath
import functools
import json
import math
import sys
from typing import Sequence

from . import hydrogen, nu, opspace
from .acceptance import SUITES, run_suite
from .errors import PhasenuError


def _json(value: object, pad: str = "\n") -> str:
    """``json.dumps(value, indent=2)`` for a document with str keys, where
    ``pad`` is the newline and indent of the enclosing level.  json runs
    its pure-Python encoder whenever ``indent`` is set; this writer joins
    non-empty containers itself, writes finite floats and ints with
    ``repr`` as json does, each key by the escaper ``json.dumps`` ends in
    for a str, and every other value by plain ``json.dumps``."""
    kind = type(value)
    if kind is float and math.isfinite(value) or kind is int:
        return repr(value)
    if value and isinstance(value, (list, tuple)):
        inner = pad + "  "
        items = [_json(item, inner) for item in value]
        return "[" + inner + ("," + inner).join(items) + pad + "]"
    if value and isinstance(value, dict):
        inner = pad + "  "
        items = [
            json.encoder.encode_basestring_ascii(key) + ": " + _json(item, inner)
            for key, item in value.items()
        ]
        return "{" + inner + ("," + inner).join(items) + pad + "}"
    return json.dumps(value)


def _count_arg(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be non-negative, got {value}")
    return value


def _point_arg(text: str) -> opspace.OpPoint:
    parts = text.split(",")
    if len(parts) != 4:
        raise argparse.ArgumentTypeError(
            f"--point needs 4 comma-separated values, got {len(parts)}"
        )
    try:
        values = tuple(float(x) for x in parts)
    except ValueError as err:
        raise argparse.ArgumentTypeError(f"bad --point: {err}") from None
    if not all(map(math.isfinite, values)):
        raise argparse.ArgumentTypeError(f"--point must be finite, got {text!r}")
    return opspace.OpPoint(*values)


def _g0_arg(text: str) -> opspace.GEta:
    parts = text.split(",")
    if len(parts) != 4:
        raise argparse.ArgumentTypeError("--g0 needs 4 comma-separated integers")
    try:
        return opspace.GEta(tuple(int(x) for x in parts))
    except ValueError as err:
        raise argparse.ArgumentTypeError(f"bad --g0: {err}") from None


#: Most rows ``wavefunction`` prints: a row holds about 0.26 kB until the
#: table is written and takes about 5 us, so the bound keeps a table under
#: about 260 MB and 5 s.
WAVEFUNCTION_MAX_ROWS = 1_000_000

#: Most rows ``scan`` prints, (n_max + 1)(L_max + 1): a row holds about
#: 0.2 kB and takes at least 57 us (more at high n), so the bound keeps a
#: table under about 200 MB and costs at least a minute.
SCAN_MAX_ROWS = 1_000_000


def _grid_arg(text: str) -> tuple[float, float, int]:
    parts = text.split(",")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError("--grid needs rmin,rmax,steps")
    try:
        rmin, rmax, steps = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError as err:
        raise argparse.ArgumentTypeError(f"bad --grid: {err}") from None
    if not (math.isfinite(rmin) and math.isfinite(rmax)):
        raise argparse.ArgumentTypeError("--grid bounds must be finite")
    if steps < 2 or not rmax > rmin:
        raise argparse.ArgumentTypeError("--grid needs rmax > rmin and steps >= 2")
    try:
        span = (steps - 1) * (rmax - rmin)
    except OverflowError:  # a step count beyond the float range
        span = math.inf
    if not math.isfinite(span):
        raise argparse.ArgumentTypeError("--grid span (steps - 1) * (rmax - rmin) overflows")
    if steps > WAVEFUNCTION_MAX_ROWS:
        raise argparse.ArgumentTypeError(
            f"--grid steps {steps} exceed the bound of {WAVEFUNCTION_MAX_ROWS:,} rows"
        )
    return rmin, rmax, steps


def _apply_arg(text: str) -> list[tuple[int, int]]:
    out: list[tuple[int, int]] = []
    for chunk in text.split(","):
        kind_text, _, count_text = chunk.partition(":")
        try:
            kind, count = int(kind_text), int(count_text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"bad --apply entry {chunk!r}; expected KIND:COUNT"
            ) from None
        if kind not in (1, 2, 3, 4):
            raise argparse.ArgumentTypeError("--apply kinds must be 1..4")
        out.append((kind, count))
    return out


def _pbar_arg(text: str) -> complex:
    try:
        value = complex(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad --pbar value {text!r}") from None
    if not cmath.isfinite(value):
        raise argparse.ArgumentTypeError(f"--pbar must be finite, got {text!r}")
    return value


_CUSTOM_KEYS = ("m", "hbar", "k", "e2")


def _load_params(config_path: str | None, L: int) -> hydrogen.PhysicalParams:
    """Unit system from a JSON config file; atomic units when absent."""
    if config_path is None:
        return hydrogen.PhysicalParams(angular_momentum=L)
    with open(config_path, encoding="utf-8") as fh:
        try:
            data = json.load(fh, parse_int=float)  # an int too large for a float reads inf
        except RecursionError:
            raise ValueError(f"config {config_path} nests too deeply") from None
        except (json.JSONDecodeError, UnicodeDecodeError) as err:
            raise ValueError(f"config {config_path} is not valid JSON: {err}") from None
    if not isinstance(data, dict):
        raise ValueError(f"config must be a JSON object, got {type(data).__name__}")
    unit = data.get("unit_system", "atomic")
    if unit == "atomic":
        return hydrogen.PhysicalParams(angular_momentum=L)
    if unit != "custom":
        raise ValueError(f"unit_system must be 'atomic' or 'custom', got {unit!r}")
    missing = [key for key in _CUSTOM_KEYS if key not in data]
    if missing:
        raise ValueError(f"custom unit system requires {_CUSTOM_KEYS}; missing {missing}")
    values = {key: data[key] for key in _CUSTOM_KEYS}
    bad = {k: v for k, v in values.items() if type(v) is not float or not 0.0 < v < math.inf}
    if bad:
        raise ValueError(f"custom constants must be finite positive numbers: {bad}")
    return hydrogen.PhysicalParams(
        mass=values["m"],
        hbar=values["hbar"],
        coulomb_constant=values["k"],
        charge_squared=values["e2"],
        angular_momentum=L,
    )


def _emit(text: str, out_path: str | None) -> None:
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _cmd_solve(args: argparse.Namespace) -> int:
    params = _load_params(args.config, args.L)
    alphadelta = hydrogen.branch_of(args.alphadelta)
    if args.point is not None:
        hydrogen.check_point(args.point, alphadelta)
    state = nu.solve_state(hydrogen.build_radial_family(params, alphadelta), args.n)
    branch = state.branch
    (phi_rate, phi_power), (rho_rate, rho_power) = branch._factor, branch._weight
    document = {
        "n": args.n,
        "L": args.L,
        "alphadelta": alphadelta,
        "kappa": state.kappa,
        "energy": params.energy_of_kappa(state.kappa),
        "energy_closed_form": hydrogen.closed_form_energy(params, args.n, alphadelta),
        "K": branch.K,
        "pi": [branch.pi0, branch.pi1],
        "tau": [branch.tau0, branch.tau1],
        "phi": {"rate": phi_rate, "power": phi_power},
        "rho": {"rate": rho_rate, "power": rho_power},
        "y": nu.rodrigues_y(branch, args.n),
        "residual": hydrogen.ode_residual(state),
    }
    if not math.isfinite(document["residual"]):
        raise OverflowError(f"the residual of level n={args.n}, L={args.L} is not finite")
    _emit(_json(document) + "\n", args.out)
    return 0


def _cmd_scan(args: argparse.Namespace) -> int:
    hydrogen.check_residual_level(args.n_max)
    rows = (args.n_max + 1) * (args.L_max + 1)
    if rows > SCAN_MAX_ROWS:
        raise ValueError(f"scan asks for {rows:,} rows, above the bound of {SCAN_MAX_ROWS:,}")
    lines = ["n,L,energy,residual"]
    units = _load_params(args.config, 0)
    for n in range(args.n_max + 1):
        for L in range(args.L_max + 1):
            params = hydrogen.PhysicalParams(*units[:4], angular_momentum=L)
            family = hydrogen.build_radial_family(params, args.alphadelta)
            state = nu.solve_state(family, n)
            energy = params.energy_of_kappa(state.kappa)
            residual = hydrogen.ode_residual(state)
            lines.append(f"{n},{L},{energy!r},{residual!r}")
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_manifold(args: argparse.Namespace) -> int:
    applications = [
        (opspace.complement(opspace.fundamental(kind)), count)
        for kind, count in args.apply
    ]
    g0 = args.g0 if args.g0 is not None else opspace.identity()
    composed = opspace.compose(g0, applications)
    # 0 means no limit, as before 3.10.7; 10**limit > 2**(3 limit) spares short entries the power
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    for slot, entry in zip(opspace.OpPoint._fields, composed.diag):
        if limit and abs(entry).bit_length() > 3 * limit and abs(entry) >= 10**limit:
            raise OverflowError(
                f"transform entry {slot} has more than {limit} digits, the limit "
                "of sys.get_int_max_str_digits() for printing an int"
            )
    document: dict[str, object] = {"g": list(composed.diag)}
    if args.point is not None:
        image, member = opspace.apply_to_point(composed, args.point)
        if not all(map(math.isfinite, image)):
            raise OverflowError(f"transformed point is not finite: {tuple(image)!r}")
        document["point"] = list(args.point)
        document["transformed"] = list(image)
        document["on_manifold"] = member
    _emit(_json(document) + "\n", args.out)
    return 0


def _cmd_wavefunction(args: argparse.Namespace) -> int:
    params = _load_params(args.config, args.L)
    point = hydrogen.canonical_config(args.alphadelta)
    wf = hydrogen.assemble_wavefunction(params, point, args.n)
    rmin, rmax, steps = args.grid
    header = (
        f"# prefactor_rate={wf.prefactor_rate!r}"
        f" kappa={wf.kappa!r} n={args.n} L={args.L} alphadelta={args.alphadelta!r}"
    )
    lines = [header, "r,A_re,A_im,psi_re,psi_im"]
    for j in range(steps):
        r = rmin + j * (rmax - rmin) / (steps - 1)
        a_val = point.alpha * r + 1j * params.hbar * point.beta * args.pbar
        try:
            psi = hydrogen.eval_wavefunction(wf, r, args.pbar, params.hbar)
        except OverflowError as err:  # exp or z**power beyond the float range
            raise OverflowError(f"psi overflows at r = {r!r}: {err}") from None
        if not cmath.isfinite(psi):  # overflowed, or an infinite P(A) met e^{aA} = 0
            raise OverflowError(f"psi is not finite at r = {r!r}: {psi!r}")
        lines.append(
            f"{r!r},{a_val.real!r},{a_val.imag!r},{psi.real!r},{psi.imag!r}"
        )
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    results = run_suite(args.suite)
    width = max(len(r.criterion) for r in results)
    for r in results:
        flag = "PASS" if r.passed else "FAIL"
        sys.stdout.write(
            f"{flag}  {r.criterion:<{width}}  {r.detail}  [{r.measure}]\n"
        )
    failed = sum(1 for r in results if not r.passed)
    sys.stdout.write(
        f"{len(results) - failed}/{len(results)} checks passed\n"
    )
    return 0 if failed == 0 else 1


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every command, built once per process: parsing leaves
    it unchanged, and each call of :func:`main` parses into a fresh
    namespace.  Its ``commands`` maps each command name to that command's
    own parser."""
    parser = argparse.ArgumentParser(
        prog="phasenu",
        description="Phase-space hydrogen solver and operator-manifold toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="quantize one (n, L) level")
    solve.add_argument("--n", type=int, required=True)
    solve.add_argument("--L", type=int, required=True)
    solve.add_argument("--alphadelta", type=float, required=True)
    solve.add_argument("--point", type=_point_arg, default=None)
    solve.add_argument("--config", default=None)
    solve.add_argument("--out", default=None)
    solve.set_defaults(handler=_cmd_solve)

    scan = sub.add_parser("scan", help="energy table over an (n, L) grid")
    scan.add_argument("--n-max", dest="n_max", type=_count_arg, required=True)
    scan.add_argument("--L-max", dest="L_max", type=_count_arg, required=True)
    scan.add_argument("--alphadelta", type=float, required=True)
    scan.add_argument("--config", default=None)
    scan.add_argument("--out", default=None)
    scan.set_defaults(handler=_cmd_scan)

    manifold = sub.add_parser("manifold", help="compose and apply transforms")
    manifold.add_argument("--apply", type=_apply_arg, required=True)
    manifold.add_argument("--g0", type=_g0_arg, default=None)
    manifold.add_argument("--point", type=_point_arg, default=None)
    manifold.add_argument("--out", default=None)
    manifold.set_defaults(handler=_cmd_manifold)

    wavefunction = sub.add_parser("wavefunction", help="tabulate a solved state")
    wavefunction.add_argument("--n", type=int, required=True)
    wavefunction.add_argument("--L", type=int, required=True)
    wavefunction.add_argument("--alphadelta", type=float, required=True)
    wavefunction.add_argument("--grid", type=_grid_arg, required=True)
    wavefunction.add_argument("--pbar", type=_pbar_arg, default=0j)
    wavefunction.add_argument("--config", default=None)
    wavefunction.add_argument("--out", default=None)
    wavefunction.set_defaults(handler=_cmd_wavefunction)

    verify = sub.add_parser("verify", help="run the acceptance checks")
    verify.add_argument("--suite", choices=tuple(SUITES), default="all")
    verify.set_defaults(handler=_cmd_verify)

    parser.commands = sub.choices
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else argv
    # The top-level pass over a known command only hands argv[1:] to that
    # command's parser, so that parser alone parses it.  Any other argv, and
    # one whose command's parser leaves arguments over, goes through the
    # top-level parser, which prints argparse's own message.
    command = parser.commands.get(argv[0]) if argv else None
    if command is not None:
        args, extra = command.parse_known_args(argv[1:])
    if command is None or extra:
        args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (PhasenuError, OverflowError) as err:
        print(f"{type(err).__name__}: {err}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
