"""The seeded workloads of the phasenu benchmark and the checks on their outputs.

Each workload turns the seed into a fixed list of ops, its deck.  A run
replays the deck in whole passes, so every op is measured several times and
every pass does the same work: counts per pass repeat exactly, and latency
is taken per op as the median over passes before any percentile.  Decks are
stratified (a full factorial over the inputs that change the solver's path,
with the remaining inputs drawn from the seed), so that two seeds give the
same mix of work and the same number of known defects per pass.

An op that raises, exits non-zero or returns an output that fails its check
is a failed op; it is never retried or dropped.  A failure that matches one
of the defects documented at the seed commit is tagged with that defect;
any other failure is unexpected and makes the run incorrect.
"""

from __future__ import annotations

import cmath
import contextlib
import io
import json
import random
from dataclasses import dataclass
from typing import Any

#: Relative tolerance on solved energies and kappas against the closed form.
ENERGY_TOL = 1e-10

#: Largest equation residual accepted from ``phasenu solve``.
RESIDUAL_TOL = 1e-8

#: Unit systems for solve-mix, written as ``--config`` files at set-up.
CONFIGS: dict[str, dict[str, Any]] = {
    "atomic": {"unit_system": "atomic"},
    # a large hbar shrinks zeta and widens the bracket the kappa search walks
    "hbar30": {"unit_system": "custom", "m": 1.0, "hbar": 30.0, "k": 1.0, "e2": 1.0},
    "scaled": {"unit_system": "custom", "m": 2.5, "hbar": 1.7, "k": 0.8, "e2": 1.3},
    # muonic hydrogen: a reduced mass of about 186 electron masses
    "muonic": {"unit_system": "custom", "m": 186.0, "hbar": 1.0, "k": 1.0, "e2": 1.0},
}

#: One solve-mix block: the heavy muonic system is one state in sixteen.
SOLVE_SLOTS = ("atomic",) * 5 + ("hbar30",) * 5 + ("scaled",) * 5 + ("muonic",)

#: n of the twelve muonic states, by (branch, L) in deck-building order:
#: spread evenly over 0..40 and the same for every seed, because whether a
#: muonic state fails depends on its n, and the number of failed ops in a
#: pass must not change with the seed.
MUONIC_N = tuple(round(40 * (i + 0.5) / 12) for i in range(12))

#: At and above this zeta the seed solver fails: NoBranch at the kappa
#: floor for L <= 1, and an annulus residual above RESIDUAL_TOL at higher n.
HEAVY_ZETA = 200.0

#: Radial grid of one tabulate op: r from 0 to GRID_SPAN / |Re rate|.
GRID_POINTS = 16_000
GRID_SPAN = 40.0

#: Every this many grid points, a value is recomputed here from the body's
#: coefficients and compared with what ``eval_wavefunction`` returned.
SPOT_STRIDE = 1_000

#: Rows each acceptance criterion returns at the seed commit.
VERIFY_ROWS = {
    "deep-branch-spectrum": 1,
    "configuration-limit": 3,
    "ground-state-chain": 7,
    "residual-detector": 2,
    "rodrigues-laguerre": 1,
    "transform-algebra": 5,
    "manifold-invariants": 3,
    "recovery-rule": 1,
}

# Tags of the failures documented at the seed commit.
NOBRANCH_HEAVY = "nobranch-heavy-mass"
RESIDUAL_HEAVY = "annulus-residual-heavy-mass"
BRANCH_POINT = "branch-point-at-origin"
FD_RED_ROW = "fd-l0-red-row"


@dataclass(frozen=True)
class Outcome:
    """Result of checking one op.

    ``defect`` names the documented defect a failed op reproduces; a failed
    op without one is unexpected.
    """

    ok: bool
    defect: str | None = None
    detail: str = ""

    @property
    def expected(self) -> bool:
        return self.ok or self.defect is not None


OK = Outcome(True)


def zeta_of(config: dict[str, Any]) -> float:
    if config["unit_system"] == "atomic":
        return 2.0
    return 2.0 * config["e2"] * config["k"] * config["m"] / config["hbar"] ** 2


def closed_form_energy(config: dict[str, Any], branch: float, n: int, L: int) -> float:
    """E = -zeta^2 hbar^2 / (8 m d^2), d = L+3n+2 (alphadelta -3) or n+L+1.

    Written out here rather than taken from the package, so the check does
    not share code with what it checks; the solver never sees it.
    """
    m = config.get("m", 1.0)
    hbar = config.get("hbar", 1.0)
    d = L + 3 * n + 2 if branch == -3.0 else n + L + 1
    return -zeta_of(config) ** 2 * hbar**2 / (8.0 * m * d * d)


def _stratified(rng: random.Random, count: int, lo: int, hi: int) -> list[int]:
    """``count`` integers spread evenly over lo..hi, in random order."""
    span = hi - lo + 1
    values = [lo + int(span * (i + rng.random()) / count) for i in range(count)]
    rng.shuffle(values)
    return values


# ------------------------------------------------------------- solve-mix


@dataclass(frozen=True)
class SolveOp:
    branch: float
    n: int
    L: int
    config: str


class SolveMix:
    """``phasenu solve`` in process, one quantized state per op."""

    name = "solve-mix"
    #: Nominal seconds of one pass with its set-up; a run makes
    #: round(seconds / pass_seconds) passes.
    pass_seconds = 3.6

    def deck(self, seed: int, env: Any) -> list[SolveOp]:
        rng = random.Random(seed)
        cells = [
            (branch, L, config)
            for branch in (-3.0, -1.0)
            for L in range(6)
            for config in SOLVE_SLOTS
        ]
        muonic = dict(zip([c for c in cells if c[2] == "muonic"], MUONIC_N))
        rng.shuffle(cells)
        ns = iter(_stratified(rng, len(cells) - len(muonic), 0, 40))
        return [SolveOp(b, muonic[b, L, c] if c == "muonic" else next(ns), L, c) for b, L, c in cells]

    def run(self, env: Any, op: SolveOp) -> tuple[int, str, str]:
        argv = [
            "solve", "--n", str(op.n), "--L", str(op.L),
            "--alphadelta", repr(op.branch), "--config", env.config_paths[op.config],
        ]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = env.cli.main(argv)
        return code, out.getvalue(), err.getvalue()

    def check(self, op: SolveOp, result: Any, error: BaseException | None) -> Outcome:
        if error is not None:
            return Outcome(False, None, f"raised {type(error).__name__}: {error}")
        code, out, err = result
        config = CONFIGS[op.config]
        heavy = zeta_of(config) >= HEAVY_ZETA
        if code == 3 and err.startswith("NoBranch:") and heavy:
            return Outcome(False, NOBRANCH_HEAVY, err.strip())
        if code != 0:
            return Outcome(False, None, f"exit {code}: {err.strip()}")
        try:
            doc = json.loads(out)
            energy, residual = float(doc["energy"]), float(doc["residual"])
        except (ValueError, KeyError, TypeError) as exc:
            return Outcome(False, None, f"unreadable output: {exc}")
        want = closed_form_energy(config, op.branch, op.n, op.L)
        if not abs(energy - want) <= ENERGY_TOL * abs(want):
            return Outcome(False, None, f"energy {energy!r}, closed form {want!r}")
        if not residual <= RESIDUAL_TOL:
            return Outcome(False, RESIDUAL_HEAVY if heavy else None, f"residual {residual:.3e}")
        return OK


# -------------------------------------------------------------- tabulate


@dataclass(frozen=True)
class TabulateOp:
    branch: float
    n: int
    L: int
    pbar: complex


class Tabulate:
    """Assemble one wavefunction and evaluate it on a dense radial grid."""

    name = "tabulate"
    pass_seconds = 2.6

    def deck(self, seed: int, env: Any) -> list[TabulateOp]:
        rng = random.Random(seed)
        cells = [
            (branch, kind, L)
            for branch in (-3.0, -1.0)
            for kind in ("zero", "real", "imaginary")
            for L in range(6)
        ]
        rng.shuffle(cells)
        ns = _stratified(rng, len(cells), 20, 40)
        ops = []
        for (branch, kind, L), n in zip(cells, ns):
            size = rng.uniform(0.2, 2.0)
            pbar = {"zero": 0j, "real": complex(size, 0.0), "imaginary": complex(0.0, size)}[kind]
            ops.append(TabulateOp(branch, n, L, pbar))
        return ops

    def run(self, env: Any, op: TabulateOp) -> tuple[Any, list[complex]]:
        hydrogen = env.hydrogen
        params = hydrogen.PhysicalParams(angular_momentum=op.L)
        wf = hydrogen.assemble_wavefunction(params, hydrogen.canonical_config(op.branch), op.n)
        step = GRID_SPAN / abs(wf.body.rate.real) / (GRID_POINTS - 1)
        values = [
            hydrogen.eval_wavefunction(wf, j * step, op.pbar, params.hbar)
            for j in range(GRID_POINTS)
        ]
        return wf, values

    def check(self, op: TabulateOp, result: Any, error: BaseException | None) -> Outcome:
        if error is not None:
            # A = alpha*r + i*hbar*beta*pbar is 0 at r = 0 only when pbar = 0;
            # the deep-branch body has a non-integer power there for L % 3 != 2
            if type(error).__name__ == "BranchPointError" and op.branch == -3.0 and op.pbar == 0:
                return Outcome(False, BRANCH_POINT, str(error))
            return Outcome(False, None, f"raised {type(error).__name__}: {error}")
        wf, values = result
        d = op.L + 3 * op.n + 2 if op.branch == -3.0 else op.n + op.L + 1
        if not abs(wf.kappa - 1.0 / d**2) <= ENERGY_TOL / d**2:
            return Outcome(False, None, f"kappa {wf.kappa!r}, closed form {1.0 / d**2!r}")
        if len(values) != GRID_POINTS or not all(cmath.isfinite(v) for v in values):
            return Outcome(False, None, "non-finite or missing values")
        body, point = wf.body, wf.config.point
        step = GRID_SPAN / abs(body.rate.real) / (GRID_POINTS - 1)
        for j in range(0, GRID_POINTS, SPOT_STRIDE):
            a = point.alpha * j * step + 1j * point.beta * op.pbar  # hbar = 1 in atomic units
            if a == 0:
                continue
            tail = cmath.exp(body.rate * a) * a**body.power
            want = sum(c * a**k for k, c in enumerate(body.poly.coeffs)) * tail
            scale = sum(abs(c) * abs(a) ** k for k, c in enumerate(body.poly.coeffs)) * abs(tail)
            if not abs(values[j] - want) <= 1e-10 * scale:
                return Outcome(False, None, f"value at grid point {j} is {values[j]!r}, want {want!r}")
        return OK


# ---------------------------------------------------------------- verify


class Verify:
    """``acceptance.run_suite("all")`` one criterion per op, in registry order.

    The suite has no inputs, so the seed does not change the deck.
    """

    name = "verify"
    pass_seconds = 2.4

    def deck(self, seed: int, env: Any) -> list[str]:
        return list(env.acceptance.SUITES["all"])

    def run(self, env: Any, op: str) -> list[Any]:
        return env.acceptance.CRITERIA[op]()

    def check(self, op: str, result: Any, error: BaseException | None) -> Outcome:
        if error is not None:
            return Outcome(False, None, f"raised {type(error).__name__}: {error}")
        if len(result) != VERIFY_ROWS.get(op, -1):
            return Outcome(False, None, f"{len(result)} rows, {VERIFY_ROWS.get(op)} at seed")
        failed = [row for row in result if not row.passed]
        if not failed:
            return OK
        # the L=0 finite-difference cross-check is red at the seed commit;
        # it may turn green, every other row must stay green
        if op == "configuration-limit" and all(
            "finite-difference" in row.detail and "L=0" in row.detail for row in failed
        ):
            return Outcome(False, FD_RED_ROW, failed[0].measure)
        return Outcome(False, None, "; ".join(f"{row.detail}: {row.measure}" for row in failed))


WORKLOADS = {w.name: w for w in (SolveMix(), Tabulate(), Verify())}

