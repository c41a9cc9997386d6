"""End-to-end acceptance checks at pinned tolerances.

Each check returns row-level results instead of raising, so the CLI can
print a table and the test suite can assert on it.  Every expected value
here is either a closed form stated in the module docstrings or an
independently computed oracle value; nothing is read back from the code
under test.
"""

from __future__ import annotations

import itertools
import math
import random
from typing import Callable, Iterable, NamedTuple

from . import hydrogen, nu, opspace, oracle
from .errors import ForbiddenCombination, PhasenuError, UnsupportedRecovery


class CheckResult(NamedTuple):
    criterion: str
    detail: str
    passed: bool
    measure: str


# ---------------------------------------------------------------- spectra


def _solved_spectrum(alphadelta: float) -> dict[tuple[int, int], float]:
    """Solved energies for n <= 5, L <= 3, keyed by (n, L)."""
    return {
        (n, L): hydrogen.solve_energy(
            hydrogen.PhysicalParams(angular_momentum=L), n, alphadelta
        )
        for n in range(6)
        for L in range(4)
    }


def _solved_state(n: int, L: int, alphadelta: float) -> nu.NuState:
    """Level (n, L) in atomic units, quantized and assembled."""
    params = hydrogen.PhysicalParams(angular_momentum=L)
    return nu.solve_state(hydrogen.build_radial_family(params, alphadelta), n)


def _worst(pairs: Iterable[tuple[float, object]], at: object) -> tuple[float, object]:
    """The largest ``(value, where)`` of ``pairs``, or ``(0.0, at)`` if none
    is positive; the first NaN counts as the largest."""
    worst = 0.0
    for value, where in pairs:
        if not math.isnan(worst) and not value <= worst:  # larger, or the first NaN
            worst, at = value, where
    return worst, at


def _bounded(crit: str, detail: str, label: str, value: float, tol: str,
             at: str = "") -> CheckResult:
    """The row that passes iff ``value <= tol``, so a NaN fails it; ``tol``
    is the tolerance as printed."""
    return CheckResult(crit, detail, value <= float(tol), f"{label} {value:.3e}{at} (tol {tol})")


def _spectrum_rows(
    criterion: str,
    alphadelta: float,
    ref: Callable[[int, int], float],
    solved: dict[tuple[int, int], float],
) -> CheckResult:
    rels = ((abs(got - ref(n, L)) / abs(ref(n, L)), (n, L)) for (n, L), got in solved.items())
    worst, at = _worst(rels, (0, 0))
    detail = f"solved spectrum vs closed form, n<=5, L<=3, alphadelta={alphadelta:g}"
    return _bounded(criterion, detail, "max rel err", worst, "1e-10", f" at (n,L)={at}")


def check_deep_branch_spectrum() -> list[CheckResult]:
    """Deep branch: E = -1/(2 (L+3n+2)^2) in atomic units."""
    return [
        _spectrum_rows(
            "deep-branch-spectrum",
            -3.0,
            lambda n, L: -1.0 / (2.0 * (L + 3 * n + 2) ** 2),
            _solved_spectrum(-3.0),
        )
    ]


def check_configuration_limit() -> list[CheckResult]:
    """Shallow branch equals the textbook spectrum and the grid oracle."""
    crit = "configuration-limit"
    solved = _solved_spectrum(-1.0)
    rows = [
        _spectrum_rows(
            crit, -1.0, lambda n, L: -1.0 / (2.0 * (n + L + 1) ** 2), solved
        )
    ]
    for L in (0, 1):
        params = hydrogen.PhysicalParams(angular_momentum=L)
        detail = f"finite-difference oracle vs solver, 3 lowest states, L={L}"
        try:
            fd = oracle.fd_spectrum(params, oracle.DEFAULT_GRID, 3)
        except PhasenuError as err:
            measure = f"{type(err).__name__}: {err}"
            rows.append(CheckResult(crit, detail, False, measure))
            continue
        rels = ((abs(got - solved[n, L]) / abs(solved[n, L]), n) for n, got in enumerate(fd))
        worst, _ = _worst(rels, 0)
        rows.append(_bounded(crit, detail, "max rel err", worst, "1e-4"))
    return rows


# ------------------------------------------------- worked ground state


def check_ground_state_chain() -> list[CheckResult]:
    """Every intermediate of the deep-branch ground state, to 1e-12.

    Hand values for n=0, L=0, alphadelta=-3 in atomic units:
    kappa=1/4, K=1/2, pi=1-A/2, tau=4-A, lambda=lambda_0=0,
    phi=e^{-A/6}A^{1/3}, rho=e^{-A/3}A^{1/3}.
    """
    crit = "ground-state-chain"
    state = _solved_state(0, 0, -3.0)
    branch = state.branch
    rows = [
        ("kappa", (state.kappa,), (0.25,)),
        ("K", (branch.K,), (0.5,)),
        ("pi", (branch.pi0, branch.pi1), (1.0, -0.5)),
        ("tau", (branch.tau0, branch.tau1), (4.0, -1.0)),
        ("lambda and lambda_0", (branch.lam, branch.lam_n(state.n)), (0.0, 0.0)),
        ("phi", branch._factor, (-1.0 / 6.0, 1.0 / 3.0)),
        ("rho", branch._weight, (-1.0 / 3.0, 1.0 / 3.0)),
    ]
    return [
        _bounded(crit, name, "abs gap",
                 _worst(((abs(g - w), w) for g, w in zip(got, want)), 0.0)[0], "1e-12")
        for name, got, want in rows
    ]


# ---------------------------------------------------- residual detector


def check_residual_detector() -> list[CheckResult]:
    """Solved states satisfy their equation; detuned ones visibly fail."""
    crit = "residual-detector"
    solved, detuned = [], []
    for alphadelta in (-3.0, -1.0):
        for n in range(6):
            for L in range(3):
                state = _solved_state(n, L, alphadelta)
                tag = (f"alphadelta={alphadelta:g}", n, L)
                solved.append((hydrogen.ode_residual(state), tag))
                off = nu.assemble(state.family, 1.1 * state.kappa, n)
                detuned.append((hydrogen.ode_residual(off), tag))
    worst, worst_at = _worst(solved, ("", 0, 0))
    # the first NaN counts as the weakest, as _worst counts it the largest
    weakest, weakest_at = min(detuned, key=lambda r: (not math.isnan(r[0]), r[0]))
    return [
        _bounded(crit, "equation residual at quantized kappa, n<=5, L<=2, both branches",
                 "max residual", worst, "1e-8", f" at {worst_at}"),
        CheckResult(crit, "residual under a 10% kappa detuning", weakest > 1e-4,
                    f"min residual {weakest:.3e} at {weakest_at} (floor 1e-4)"),
    ]


# ------------------------------------------------- Rodrigues / Laguerre


def check_rodrigues_laguerre() -> list[CheckResult]:
    """Rodrigues output is an associated Laguerre polynomial in disguise.

    On the deep branch the weight is e^{-2 sqrt(kappa) A/3} A^{(2L+1)/3},
    so y_n must be proportional to L_n^{((2L+1)/3)}((2 sqrt(kappa)/3) A);
    the ratio across sample points has to be flat.
    """
    crit = "rodrigues-laguerre"
    spreads = []
    points = [0.3 + 2.7 * j / 19.0 for j in range(20)]
    for n in range(9):
        for L in (0, 1, 2):
            state = _solved_state(n, L, -3.0)
            a = (2 * L + 1) / 3.0
            scale = 2.0 * state.kappa**0.5 / 3.0
            coeffs = nu.rodrigues_y(state.branch, n)
            ratios = []
            for A in points:
                y = 0.0  # Horner over the solver's coefficients
                for c in reversed(coeffs):
                    y = y * A + c
                ratios.append(y / oracle.laguerre(n, a, scale * A))
            mean = sum(ratios) / len(ratios)
            spreads.append((max(abs(r - mean) for r in ratios) / abs(mean), (n, L)))
    worst, at = _worst(spreads, (0, 0))
    return [_bounded(crit, "y_n / L_n ratio flatness, n<=8, L<=2, 20 points",
                     "max rel spread", worst, "1e-9", f" at (n,L)={at}")]


# ------------------------------------------------------ transform algebra


def check_transform_algebra() -> list[CheckResult]:
    crit = "transform-algebra"
    rows: list[CheckResult] = []

    double_shift = opspace.compose(
        opspace.identity(), [(opspace.complement(opspace.fundamental(3)), 2)]
    )
    rows.append(
        CheckResult(
            crit,
            "double application of the third shift",
            double_shift.diag == (1, 1, -1, 1),
            f"got diag{double_shift.diag}, want diag(1, 1, -1, 1)",
        )
    )

    # integer identities over a fixed grid: every diagonal with entries in
    # -2..2, and every 26th, (a, b, a, b), which puts each entry in each
    # slot; the entries are ints, so the records skip GEta's checks
    compose, complement, geta = opspace.compose, opspace.complement, opspace._geta
    grid = [geta(diag) for diag in itertools.product(range(-2, 3), repeat=4)]
    involution_ok = all(complement(complement(g)).diag == g.diag for g in grid)
    comps = [geta(diag) for diag in ((1, 0, 0, 0), (0, 1, 0, 0), (2, -1, 0, 0),
                                     (0, 0, 1, 0), (0, 0, 0, 1), (0, 0, 2, -1))]
    additivity_ok = all(
        compose(g, [(comp, a), (comp, b)]).diag == compose(g, [(comp, a + b)]).diag
        and compose(compose(g, [(comp, a)]), [(comp, -a)]).diag == g.diag
        for g in grid[::26] for comp in comps for a, b in ((1, 1), (2, -1), (-3, 2))
    )
    rows.append(
        CheckResult(crit, "complement involution, all 625 diagonals with entries in -2..2",
                    involution_ok, "exact equality" if involution_ok else "mismatch found")
    )
    rows.append(
        CheckResult(crit, "composition additivity and inverses, 25 diagonals x 6 "
                    "one-group complements x 3 count pairs, 450 cases",
                    additivity_ok, "exact equality" if additivity_ok else "mismatch found")
    )

    table_ok = True
    for mask in range(1, 16):
        kinds = [k for k in (1, 2, 3, 4) if mask & (1 << (k - 1))]
        mixed = not (set(kinds) <= {1, 2} or set(kinds) <= {3, 4})
        shifts = [(opspace.complement(opspace.fundamental(k)), 1) for k in kinds]
        try:
            opspace.compose(opspace.identity(), shifts)
            refused = False
        except ForbiddenCombination:
            refused = True
        table_ok = table_ok and refused == mixed
    rows.append(
        CheckResult(crit, "combination rule on all 15 nonempty kind subsets", table_ok,
                    "truth table matches" if table_ok else "truth table mismatch")
    )

    kinds_ok = (
        opspace.classify(opspace.GEta((1, 0, 0, 1))) is opspace.SpaceKind.POSITION_LIKE
        and opspace.classify(opspace.GEta((0, 1, 1, 0)))
        is opspace.SpaceKind.MOMENTUM_LIKE
        and opspace.classify(opspace.identity()) is opspace.SpaceKind.FULL
        and opspace.classify(double_shift) is opspace.SpaceKind.OTHER
    )
    rows.append(
        CheckResult(crit, "named phase-space masks", kinds_ok,
                    "all four classifications correct" if kinds_ok else "misclassification")
    )
    return rows


# --------------------------------------------------- manifold invariants


def check_manifold_invariants() -> list[CheckResult]:
    crit = "manifold-invariants"
    rows: list[CheckResult] = []
    rng = random.Random(90125)

    gaps = []
    for _ in range(1000):
        alpha = rng.uniform(-3.0, 3.0)
        beta = rng.choice((-1.0, 1.0)) * rng.uniform(0.1, 3.0)
        delta = rng.uniform(-3.0, 3.0)
        p = opspace.manifold_point(alpha, beta, delta)
        gaps.append((abs(opspace.commutator_coefficient(p) - 1.0), p))
    rows.append(_bounded(crit, "constraint residual on 1000 constructor points",
                         "max |bg-ad-1| =", _worst(gaps, None)[0], "1e-12"))

    gaps = []
    for _ in range(200):
        delta = rng.choice((-1.0, 1.0)) * rng.uniform(0.3, 3.0)
        beta = rng.choice((-1.0, 1.0)) * rng.uniform(0.1, 3.0)
        p = opspace.manifold_point(-3.0 / delta, beta, delta)
        gaps.append((abs(p.beta * p.gamma - (-2.0)), p))
    rows.append(_bounded(crit, "beta*gamma = -2 on alphadelta=-3 manifold points",
                         "max |bg+2| =", _worst(gaps, None)[0], "1e-12"))

    probes = [(0.3, -0.4), (-0.9, 0.2), (0.5, 1.1), (-1.2, -0.7), (0.0, 0.6)]
    pts = [
        opspace.manifold_point(
            rng.uniform(-2.0, 2.0),
            rng.choice((-1.0, 1.0)) * rng.uniform(0.5, 2.0),
            rng.uniform(-2.0, 2.0),
        )
        for _ in range(8)
    ]
    pts.append(opspace.OpPoint(1.0, 0.0, 0.0, -2.0))  # off the surface
    pts.append(opspace.OpPoint(0.5, 1.5, -1.0, 1.0))  # off the surface
    off_n = sum(1 for p in pts if not opspace.is_on_manifold(p))
    worst, _ = _worst(
        ((abs(oracle.commutator_check(p, probes) - opspace.commutator_coefficient(p)), p)
         for p in pts), None
    )
    row = _bounded(crit, f"finite-difference commutator vs coefficient, 10 points "
                   f"({off_n} off-manifold)", "max gap", worst, "1e-6")
    rows.append(row._replace(passed=row.passed and off_n >= 1))
    return rows


# --------------------------------------------------------- recovery rule


def check_recovery_rule() -> list[CheckResult]:
    crit = "recovery-rule"
    points: list[opspace.OpPoint] = []
    for a in (1.0, 2.0, 0.5, -1.0, 4.0):
        points.append(opspace.OpPoint(a, 0.0, 0.0, -1.0 / a))  # recoverable
    rng = random.Random(777)
    for _ in range(5):  # shallow branch but beta != 0: prefactor-free yet entangled
        beta = rng.choice((-1.0, 1.0)) * rng.uniform(0.5, 2.0)
        delta = rng.choice((-1.0, 1.0)) * rng.uniform(0.5, 2.0)
        points.append(opspace.manifold_point(-1.0 / delta, beta, delta))
    for _ in range(10):  # deep branch: gamma and beta both nonzero
        delta = rng.choice((-1.0, 1.0)) * rng.uniform(0.5, 2.0)
        beta = rng.choice((-1.0, 1.0)) * rng.uniform(0.5, 2.0)
        points.append(opspace.manifold_point(-3.0 / delta, beta, delta))

    notes: list[str] = []
    for p in points:
        alphadelta = p.alpha * p.delta
        should_recover = abs(p.beta) <= 1e-12 and abs(p.gamma) <= 1e-12
        try:
            recovered = hydrogen.recover_configuration_space(p)
            did = True
            ok = should_recover and recovered.beta == recovered.gamma == 0.0
        except UnsupportedRecovery:
            did = False
            ok = not should_recover
        if not ok:
            notes.append(
                f"point {tuple(p)} (alphadelta={alphadelta:g}): "
                f"recovered={did}, expected={should_recover}"
            )
    return [
        CheckResult(crit, "degenerate-prefactor recovery over 20 manifold points",
                    not notes, "; ".join(notes) or "success iff beta=gamma=0")
    ]


# ------------------------------------------------------------- registry


CRITERIA: dict[str, Callable[[], list[CheckResult]]] = {
    "deep-branch-spectrum": check_deep_branch_spectrum,
    "configuration-limit": check_configuration_limit,
    "ground-state-chain": check_ground_state_chain,
    "residual-detector": check_residual_detector,
    "rodrigues-laguerre": check_rodrigues_laguerre,
    "transform-algebra": check_transform_algebra,
    "manifold-invariants": check_manifold_invariants,
    "recovery-rule": check_recovery_rule,
}

SUITES: dict[str, tuple[str, ...]] = {
    "nu": ("ground-state-chain", "rodrigues-laguerre"),
    "opspace": ("transform-algebra", "manifold-invariants"),
    "hta": ("deep-branch-spectrum", "residual-detector", "recovery-rule"),
    "oracle": ("configuration-limit",),
    "all": tuple(CRITERIA),
}


def run_suite(suite: str) -> list[CheckResult]:
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}; choose from {sorted(SUITES)}")
    results: list[CheckResult] = []
    for name in SUITES[suite]:
        try:
            results.extend(CRITERIA[name]())
        except Exception as err:  # a fault in the code under check fails its row
            results.append(CheckResult(name, "raised", False, f"{type(err).__name__}: {err}"))
    return results
