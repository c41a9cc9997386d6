"""End-to-end acceptance checks at pinned tolerances.

Each check returns row-level results instead of raising, so the CLI can
print a table and the test suite can assert on it.  Every expected value
here is either a closed form stated in the module docstrings or an
independently computed oracle value; nothing is read back from the code
under test.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

from . import hydrogen, nu, opspace, oracle
from .errors import ForbiddenCombination, PhasenuError, UnsupportedRecovery


@dataclass(frozen=True)
class CheckResult:
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


def _spectrum_rows(
    criterion: str,
    alphadelta: float,
    ref: Callable[[int, int], float],
    solved: dict[tuple[int, int], float],
) -> CheckResult:
    worst = 0.0
    worst_at = (0, 0)
    for (n, L), got in solved.items():
        want = ref(n, L)
        rel = abs(got - want) / abs(want)
        if rel > worst:
            worst, worst_at = rel, (n, L)
    return CheckResult(
        criterion,
        f"solved spectrum vs closed form, n<=5, L<=3, alphadelta={alphadelta:g}",
        worst <= 1e-10,
        f"max rel err {worst:.3e} at (n,L)={worst_at} (tol 1e-10)",
    )


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
        worst = 0.0
        for idx, fd_val in enumerate(fd):
            want = solved[idx, L]
            worst = max(worst, abs(fd_val - want) / abs(want))
        measure = f"max rel err {worst:.3e} (tol 1e-4)"
        rows.append(CheckResult(crit, detail, worst <= 1e-4, measure))
    return rows


# ------------------------------------------------- worked ground state


def check_ground_state_chain() -> list[CheckResult]:
    """Every intermediate of the deep-branch ground state, to 1e-12.

    Hand values for n=0, L=0, alphadelta=-3 in atomic units:
    kappa=1/4, K=1/2, pi=1-A/2, tau=4-A, lambda=lambda_0=0,
    phi=e^{-A/6}A^{1/3}, rho=e^{-A/3}A^{1/3}.
    """
    crit = "ground-state-chain"
    tol = 1e-12
    state = _solved_state(0, 0, -3.0)
    branch = state.branch

    def max_gap(got: tuple[float, ...], want: tuple[float, ...]) -> float:
        return max(abs(g - w) for g, w in zip(got, want))

    rows = [
        ("kappa", abs(state.kappa - 0.25)),
        ("K", abs(branch.K - 0.5)),
        ("pi", max_gap((branch.pi0, branch.pi1), (1.0, -0.5))),
        ("tau", max_gap((branch.tau0, branch.tau1), (4.0, -1.0))),
        ("lambda and lambda_0", max(abs(branch.lam), abs(branch.lam_n(state.n)))),
        ("phi", max_gap(branch._factor, (-1.0 / 6.0, 1.0 / 3.0))),
        ("rho", max_gap(branch._weight, (-1.0 / 3.0, 1.0 / 3.0))),
    ]
    return [
        CheckResult(crit, name, gap <= tol, f"abs gap {gap:.3e} (tol 1e-12)")
        for name, gap in rows
    ]


# ---------------------------------------------------- residual detector


def check_residual_detector() -> list[CheckResult]:
    """Solved states satisfy their equation; detuned ones visibly fail."""
    crit = "residual-detector"
    worst_solved = 0.0
    worst_solved_at = ("", 0, 0)
    weakest_detuned = float("inf")
    weakest_at = ("", 0, 0)
    for alphadelta in (-3.0, -1.0):
        for n in range(6):
            for L in range(3):
                state = _solved_state(n, L, alphadelta)
                tag = (f"alphadelta={alphadelta:g}", n, L)
                solved = hydrogen.ode_residual(state)
                if solved > worst_solved:
                    worst_solved, worst_solved_at = solved, tag
                detuned = hydrogen.ode_residual(nu.assemble(state.family, 1.1 * state.kappa, n))
                if detuned < weakest_detuned:
                    weakest_detuned, weakest_at = detuned, tag
    return [
        CheckResult(
            crit,
            "equation residual at quantized kappa, n<=5, L<=2, both branches",
            worst_solved <= 1e-8,
            f"max residual {worst_solved:.3e} at {worst_solved_at} (tol 1e-8)",
        ),
        CheckResult(
            crit,
            "residual under a 10% kappa detuning",
            weakest_detuned > 1e-4,
            f"min residual {weakest_detuned:.3e} at {weakest_at} (floor 1e-4)",
        ),
    ]


# ------------------------------------------------- Rodrigues / Laguerre


def check_rodrigues_laguerre() -> list[CheckResult]:
    """Rodrigues output is an associated Laguerre polynomial in disguise.

    On the deep branch the weight is e^{-2 sqrt(kappa) A/3} A^{(2L+1)/3},
    so y_n must be proportional to L_n^{((2L+1)/3)}((2 sqrt(kappa)/3) A);
    the ratio across sample points has to be flat.
    """
    crit = "rodrigues-laguerre"
    worst_spread = 0.0
    worst_at = (0, 0)
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
            spread = max(abs(r - mean) for r in ratios) / abs(mean)
            if spread > worst_spread:
                worst_spread, worst_at = spread, (n, L)
    return [
        CheckResult(
            crit,
            "y_n / L_n ratio flatness, n<=8, L<=2, 20 points",
            worst_spread < 1e-9,
            f"max rel spread {worst_spread:.3e} at (n,L)={worst_at} (tol 1e-9)",
        )
    ]


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

    rng = random.Random(4251)
    # randrange(lo, hi + 1) draws what randint(lo, hi) draws, in the same order
    # the drawn entries are ints, so the records skip GEta's checks
    randrange, compose, complement = rng.randrange, opspace.compose, opspace.complement
    geta = opspace._geta
    involution_ok = additivity_ok = True
    for _ in range(1000):
        g = geta((randrange(-5, 6), randrange(-5, 6), randrange(-5, 6), randrange(-5, 6)))
        back = complement(complement(g))
        involution_ok = involution_ok and back.diag == g.diag
        # one-group complement, random counts, split vs merged application
        group = rng.choice(((0, 1), (2, 3)))
        x, y = randrange(-3, 4), randrange(-3, 4)
        comp = geta((x, y, 0, 0) if group[0] == 0 else (0, 0, x, y))
        a, b = randrange(-4, 5), randrange(-4, 5)
        split = compose(g, [(comp, a), (comp, b)])
        merged = compose(g, [(comp, a + b)])
        undone = compose(compose(g, [(comp, a)]), [(comp, -a)])
        additivity_ok = additivity_ok and split.diag == merged.diag and undone.diag == g.diag
    rows.append(
        CheckResult(crit, "complement involution, 1000 random diagonals", involution_ok,
                    "exact equality" if involution_ok else "mismatch found")
    )
    rows.append(
        CheckResult(crit, "composition additivity and inverses, 1000 random cases",
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

    worst = 0.0
    for _ in range(1000):
        alpha = rng.uniform(-3.0, 3.0)
        beta = rng.choice((-1.0, 1.0)) * rng.uniform(0.1, 3.0)
        delta = rng.uniform(-3.0, 3.0)
        p = opspace.manifold_point(alpha, beta, delta)
        worst = max(worst, abs(opspace.commutator_coefficient(p) - 1.0))
    rows.append(
        CheckResult(crit, "constraint residual on 1000 constructor points",
                    worst <= 1e-12, f"max |bg-ad-1| = {worst:.3e} (tol 1e-12)")
    )

    worst = 0.0
    for _ in range(200):
        delta = rng.choice((-1.0, 1.0)) * rng.uniform(0.3, 3.0)
        beta = rng.choice((-1.0, 1.0)) * rng.uniform(0.1, 3.0)
        p = opspace.manifold_point(-3.0 / delta, beta, delta)
        worst = max(worst, abs(p.beta * p.gamma - (-2.0)))
    rows.append(
        CheckResult(crit, "beta*gamma = -2 on alphadelta=-3 manifold points",
                    worst <= 1e-12, f"max |bg+2| = {worst:.3e} (tol 1e-12)")
    )

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
    worst = 0.0
    off_n = sum(1 for p in pts if not opspace.is_on_manifold(p))
    for p in pts:
        got = oracle.commutator_check(p, 1.0, probes)
        worst = max(worst, abs(got - opspace.commutator_coefficient(p)))
    rows.append(
        CheckResult(
            crit,
            f"finite-difference commutator vs coefficient, 10 points ({off_n} off-manifold)",
            worst < 1e-6 and off_n >= 1,
            f"max gap {worst:.3e} (tol 1e-6)",
        )
    )
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

    all_ok = True
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
            all_ok = False
            notes.append(
                f"point {p.as_tuple()} (alphadelta={alphadelta:g}): "
                f"recovered={did}, expected={should_recover}"
            )
    return [
        CheckResult(crit, "degenerate-prefactor recovery over 20 manifold points",
                    all_ok, "success iff beta=gamma=0" if all_ok else "; ".join(notes))
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
        results.extend(CRITERIA[name]())
    return results
