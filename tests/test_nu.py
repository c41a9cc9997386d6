"""Generic hypergeometric-type pipeline: branch selection, integrating
factors, Rodrigues polynomials, and eigenvalue quantization."""

import cmath
import math
import random

import pytest

from phasenu import nu

from phasenu.errors import (
    CancellationFailure,
    DegenerateDiscriminant,
    DegreeError,
    NoBranch,
    NoSignChange,
    UnsupportedSigma,
)
from phasenu.numeric import ExpPowerTerm, Poly
from phasenu.nu import (
    NuBranch,
    NuProblem,
    eigen_residual,
    phi_of,
    rho_of,
    rodrigues_y,
    select_branch,
    assemble,
    solve_kappa,
    solve_state,
)


def radial_problem(omega, zeta, kappa, alphadelta):
    """Transformed Coulomb problem at a fixed kappa."""
    return NuProblem(
        sigma=Poly((0.0, -alphadelta)),
        sigma_tilde=Poly((-omega, zeta, -kappa)),
        tau_tilde=Poly((2.0,)),
    )


def radial_family(omega, zeta, alphadelta):
    """The same problem at kappa = 0, the form the quantization takes."""
    return radial_problem(omega, zeta, 0.0, alphadelta)


def reference_combinations(problem):
    """Every (K, sign) combination with Re(tau') < 0, in the documented
    order (K roots by real then imaginary part, then sign -1 before +1),
    as (K, sign, pi, tau, admissible); built from Poly arithmetic and
    cmath alone.  K zeroes the discriminant of the radicand
    ((sigma' - tau_tilde)/2)**2 - sigma_tilde + K sigma, whose square root
    u A + v is taken with Re(u) >= 0, from its larger end."""
    c = problem.sigma.coefficient(1)
    base = 0.5 * (problem.sigma.derivative() - problem.tau_tilde)
    q = base * base - problem.sigma_tilde
    q0, q1, q2 = (q.coefficient(k) for k in range(3))
    # (q1 + K c)**2 - 4 q2 q0 = 0, by the stable quadratic formula
    k0, k1, k2 = q1 * q1 - 4.0 * q2 * q0, 2.0 * q1 * c, c * c
    sq = cmath.sqrt(k1 * k1 - 4.0 * k2 * k0)
    big = -0.5 * (k1 + sq if abs(k1 + sq) >= abs(k1 - sq) else k1 - sq)
    roots = (big / k2, k0 / big) if big else (0j, 0j)
    found = []
    for K in sorted(roots, key=lambda z: (z.real, z.imag)):
        r0, r1, r2 = ((q + K * problem.sigma).coefficient(k) for k in range(3))
        if abs(r2) >= abs(r0):
            u = cmath.sqrt(r2)
            v = r1 / (2.0 * u)
        else:
            v = cmath.sqrt(r0)
            u = r1 / (2.0 * v)
            if u.real < 0.0:
                u, v = -u, -v
        for sign in (-1, 1):
            pi = base + sign * Poly((v, u))
            tau = problem.tau_tilde + 2.0 * pi
            t0, t1 = tau.coefficient(0), tau.coefficient(1)
            if t1.real < 0.0:
                admissible = (t1 / c).real < 0.0 and ((t0 - c) / c).real > -1.0
                found.append((K, sign, pi, tau, admissible))
    return found


def grid_problems():
    """The transformed Coulomb problem on a log grid of kappa, 1e-6 to 10."""
    for omega in (0.0, 2.0, 12.0):
        for zeta in (2.0, 2.0 / 900.0):
            for alphadelta in (-1.0, -3.0):
                family = radial_family(omega, zeta, alphadelta)
                for i in range(57):
                    yield family, 10.0 ** (-6.0 + i / 8.0)


def random_problems(count, seed):
    """Seeded problems with complex c, sigma_tilde and tau_tilde."""
    rng = random.Random(seed)

    def z():
        return complex(rng.uniform(-3.0, 3.0), rng.uniform(-3.0, 3.0))

    for _ in range(count):
        yield NuProblem(Poly((0.0, z())), Poly((z(), z(), z())), Poly((z(), z())))


def close(got, want):
    return abs(got - want) <= 1e-12 * abs(want)


def record_residuals(monkeypatch):
    """The kappa of every eigen_residual call, in call order."""
    seen = []
    original = nu.eigen_residual

    def recorded(family, kappa, n):
        seen.append(kappa)
        return original(family, kappa, n)

    monkeypatch.setattr(nu, "eigen_residual", recorded)
    return seen


def record_pi_coeffs(monkeypatch):
    """(K, result) of every _pi_coeffs call of the branch screen, in order."""
    seen = []
    original = nu._pi_coeffs

    def recorded(rad, K):
        pi = original(rad, K)
        seen.append((K, pi))
        return pi

    monkeypatch.setattr(nu, "_pi_coeffs", recorded)
    return seen


DEEP = radial_problem(0.0, 2.0, 0.25, -3.0)


class TestProblemValidation:
    def test_degree_bounds_enforced(self):
        with pytest.raises(DegreeError):
            NuProblem(Poly(()), Poly((1.0,)), Poly((1.0,)))
        with pytest.raises(DegreeError):
            NuProblem(Poly((0.0, 0.0, 0.0, 1.0)), Poly((1.0,)), Poly((1.0,)))
        with pytest.raises(DegreeError):
            NuProblem(Poly((0.0, 1.0)), Poly((0.0, 0.0, 0.0, 1.0)), Poly((1.0,)))
        with pytest.raises(DegreeError):
            NuProblem(Poly((0.0, 1.0)), Poly((1.0,)), Poly((0.0, 0.0, 1.0)))

    def test_family_instantiation(self):
        family = radial_family(0.0, 2.0, -3.0)
        problem = family.at(0.25)
        assert tuple(problem.sigma_tilde) == (0j, 2 + 0j, -0.25 + 0j)

    def test_kappa_shift_has_the_bits_of_poly_arithmetic(self):
        """at(kappa) gives the coefficients of sigma_tilde + kappa *
        Poly((0, 0, -1)), signed zeros included (repr shows them), on the
        kappa grid and at a few kappa of either sign."""
        cases = list(grid_problems())
        cases += [
            (radial_family(0.0, zeta, -1.0), k)
            for zeta in (0.0, 2.0)
            for k in (0.0, -0.5, 3.0)
        ]
        for family, kappa in cases:
            want = family.sigma_tilde + kappa * Poly((0.0, 0.0, -1.0))
            got = family.at(kappa).sigma_tilde
            assert [repr(c) for c in got] == [repr(c) for c in want]


class TestKCandidates:
    """The K roots select_branch tries, and the one it takes."""

    def test_deep_branch_pair(self):
        roots = [K for K, *_ in reference_combinations(DEEP)]
        assert roots == [pytest.approx(0.5), pytest.approx(5.0 / 6.0)]
        assert select_branch(DEEP).K == pytest.approx(0.5)

    def test_higher_angular_momentum(self):
        branch = select_branch(radial_problem(2.0, 2.0, 1.0 / 9.0, -3.0))
        assert branch.K == pytest.approx(1.0 / 3.0)

    def test_already_square_radicand(self):
        problem = NuProblem(Poly((0.0, 1.0)), Poly((0.0, 0.0, -1.0)), Poly((1.0,)))
        assert select_branch(problem).K == 0j
        assert [K for K, *_ in reference_combinations(problem)] == [0j, 0j]

    def test_constant_discriminant_rejected(self):
        """sigma = 1e-9 A against sigma_tilde = 1 + A^2: the K^2 term of the
        discriminant is trimmed below the rest, which does not depend on K."""
        problem = NuProblem(Poly((0.0, 1e-9)), Poly((1.0, 0.0, 1.0)), Poly(()))
        with pytest.raises(DegenerateDiscriminant):
            select_branch(problem)


class TestSelectBranch:
    def test_deep_branch_preferred_combo(self):
        branch = select_branch(DEEP)
        assert branch.K == pytest.approx(0.5)
        assert tuple(branch.pi) == pytest.approx((1 + 0j, -0.5 + 0j))
        assert tuple(branch.tau) == pytest.approx((4 + 0j, -1 + 0j))

    def test_configuration_branch(self):
        branch = select_branch(radial_problem(0.0, 2.0, 1.0, -1.0))
        assert tuple(branch.tau) == pytest.approx((2 + 0j, -2 + 0j))

    def test_always_decaying_tau(self):
        for kappa in (0.04, 0.25, 1.0, 4.0):
            for alphadelta in (-1.0, -3.0):
                branch = select_branch(radial_problem(2.0, 2.0, kappa, alphadelta))
                assert branch.tau.coefficient(1).real < 0.0

    def test_growing_tau_has_no_branch(self):
        problem = NuProblem(Poly((0.0, 1.0)), Poly((0.0, 0.0, 1.0)), Poly((2.0,)))
        with pytest.raises(
            NoBranch, match=r"no \(K, sign\) combination gives Re\(tau'\) < 0"
        ):
            select_branch(problem)

    def test_radicand_off_the_square_has_no_branch(self, monkeypatch):
        """sigma = 1e-9 A, sigma_tilde = 1 + A + A^2: the K^2 term of the
        discriminant is trimmed, which leaves the single root K = -1.5e9,
        tried twice.  The radicand is not a perfect square there, so
        neither try yields a pi, and no tau decays."""
        problem = NuProblem(Poly((0.0, 1e-9)), Poly((1.0, 1.0, 1.0)), Poly(()))
        seen = record_pi_coeffs(monkeypatch)
        with pytest.raises(
            NoBranch, match=r"no \(K, sign\) combination gives Re\(tau'\) < 0"
        ):
            select_branch(problem)
        assert [K for K, _ in seen] == [pytest.approx(-1.5e9)] * 2
        assert [pi for _, pi in seen] == [None, None]

    def test_vanishing_radicand_has_no_branch(self, monkeypatch):
        """sigma = A, sigma_tilde = 0, tau_tilde = 1: the radicand is
        identically zero, so u = v = 0, pi = 0 and tau' = 0, which does
        not decay."""
        problem = NuProblem(Poly((0.0, 1.0)), Poly(()), Poly((1.0,)))
        seen = record_pi_coeffs(monkeypatch)
        with pytest.raises(
            NoBranch, match=r"no \(K, sign\) combination gives Re\(tau'\) < 0"
        ):
            select_branch(problem)
        assert seen == [(0j, (0j, 0j)), (0j, (0j, 0j))]

    def test_no_admissible_weight_has_no_branch(self):
        """sigma = A, sigma_tilde = -2 - 2A + A^2, tau_tilde = 1: a
        combination decays, but its weight is not admissible."""
        problem = NuProblem(Poly((0.0, 1.0)), Poly((-2.0, -2.0, 1.0)), Poly((1.0,)))
        with pytest.raises(
            NoBranch, match="no decaying combination has an admissible weight"
        ):
            select_branch(problem)

    def test_subnormal_tau_slope_tries_only_the_minus_sign(self):
        """With a subnormal tau_tilde' = t1, 0.5 * t1 rounds, and the +1
        sign's tau' is one subnormal step below zero.  Only the -1 sign is
        tried, and neither K root's -1 combination has an admissible weight."""
        problem = NuProblem(Poly((0.0, 1.0)), Poly((-1.0, 1.0)), Poly((0.0, 1.5e-323)))
        with pytest.raises(
            NoBranch, match="no decaying combination has an admissible weight"
        ):
            select_branch(problem)

    def test_pi_keeps_the_signed_zero_of_a_product_by_minus_one(self):
        """sigma = A, sigma_tilde = 0, tau_tilde = (1 + 5e-324j) A: pi' is
        -0.5 - 0j plus (-1) * (0.5 + 0j), a complex product whose imaginary
        part is +0.0; negating 0.5 + 0j would leave pi' = -1 - 0j."""
        problem = NuProblem(Poly((0.0, 1.0)), Poly(()), Poly((0.0, 1.0 + 5e-324j)))
        pi1 = select_branch(problem).pi.coefficient(1)
        assert pi1 == -1.0
        assert math.copysign(1.0, pi1.imag) == 1.0

    def test_matches_the_reference_rule(self):
        """select_branch returns the first admissible combination the
        reference finds, and no sign +1 combination decays, on the kappa
        grid and on seeded random complex problems."""
        problems = [family.at(kappa) for family, kappa in grid_problems()]
        problems += random_problems(400, seed=8)
        selected = refused = 0
        for problem in problems:
            found = reference_combinations(problem)
            assert all(sign == -1 for _, sign, *_ in found)
            admissible = [combo for combo in found if combo[4]]
            if not admissible:
                with pytest.raises(NoBranch):
                    select_branch(problem)
                refused += 1
                continue
            K, _, pi, tau, _ = admissible[0]
            branch = select_branch(problem)
            assert close(branch.K, K)
            for k in range(2):
                assert close(branch.pi.coefficient(k), pi.coefficient(k))
                assert close(branch.tau.coefficient(k), tau.coefficient(k))
            selected += 1
        assert selected > 800 and refused > 100


class TestTauLambda:
    def test_lambda_ground(self):
        state = assemble(radial_family(0.0, 2.0, -3.0), 0.25, 0)
        assert state.lam == pytest.approx(0.0, abs=1e-14)

    def test_lambda_excited(self):
        state = assemble(radial_family(0.0, 2.0, -3.0), 0.04, 1)
        assert state.branch.K == pytest.approx(0.6)
        assert state.lam == pytest.approx(0.4)
        assert state.lam_n == pytest.approx(0.4)

    def test_lambda_n_zero_at_ground(self):
        assert assemble(radial_family(0.0, 2.0, -3.0), 0.25, 0).lam_n == 0j


class TestIntegratingFactors:
    def test_phi_deep_branch(self):
        branch = select_branch(DEEP)
        phi = phi_of(DEEP, branch)
        assert phi.rate == pytest.approx(-1.0 / 6.0)
        assert phi.power == pytest.approx(1.0 / 3.0)

    def test_phi_trivial_for_zero_pi(self):
        branch = NuBranch(K=0j, pi=Poly(()), tau=Poly((2.0,)))
        phi = phi_of(DEEP, branch)
        assert phi.rate == 0j
        assert phi.power == 0j
        assert tuple(phi.poly) == (1 + 0j,)

    def test_phi_configuration_branch_inputs(self):
        problem = radial_problem(0.0, 2.0, 1.0, -1.0)
        branch = NuBranch(K=0j, pi=Poly((1.0, -1.0)), tau=Poly((2.0,)))
        phi = phi_of(problem, branch)
        assert phi.rate == pytest.approx(-1.0)
        assert phi.power == pytest.approx(1.0)

    def test_phi_log_derivative_identity(self):
        branch = select_branch(DEEP)
        phi = phi_of(DEEP, branch)
        d = phi.derivative()
        for z in (0.7, 1.3, 2.9 + 0.4j):
            lhs = d.evaluate(z) / phi.evaluate(z)
            rhs = branch.pi(z) / DEEP.sigma(z)
            assert abs(lhs - rhs) <= 1e-12 * (1.0 + abs(rhs))

    def test_rho_deep_branch(self):
        branch = select_branch(DEEP)
        rho = rho_of(DEEP, branch)
        assert rho.rate == pytest.approx(-1.0 / 3.0)
        assert rho.power == pytest.approx(1.0 / 3.0)

    def test_rho_trivial_when_tau_is_sigma_prime(self):
        branch = NuBranch(K=0j, pi=Poly(()), tau=Poly((3.0,)))
        rho = rho_of(DEEP, branch)
        assert rho.rate == 0j
        assert rho.power == pytest.approx(0.0)

    def test_rho_configuration_branch(self):
        problem = radial_problem(0.0, 2.0, 1.0, -1.0)
        branch = select_branch(problem)
        rho = rho_of(problem, branch)
        assert rho.rate == pytest.approx(-2.0)
        assert rho.power == pytest.approx(1.0)

    def test_rho_pearson_identity(self):
        branch = select_branch(DEEP)
        rho = rho_of(DEEP, branch)
        sigma_rho = rho.times_poly(DEEP.sigma)
        d = sigma_rho.derivative()
        for z in (0.6, 1.9, 1.1 - 0.8j):
            lhs = d.evaluate(z)
            rhs = branch.tau(z) * rho.evaluate(z)
            assert abs(lhs - rhs) <= 1e-12 * (1.0 + abs(rhs))

    def test_unsupported_sigma_shapes(self):
        """Only sigma = c*A is solved; any other sigma is refused when the
        problem is built."""
        for sigma in ((1.0,), (1.0, 1.0), (0.0, 0.0, 1.0)):
            with pytest.raises(UnsupportedSigma):
                NuProblem(Poly(sigma), Poly((0.0, 1.0)), Poly((2.0,)))


class TestRodrigues:
    def test_degree_zero_is_one(self):
        branch = select_branch(DEEP)
        rho = rho_of(DEEP, branch)
        assert tuple(rodrigues_y(DEEP, rho, 0)) == (1 + 0j,)

    def test_first_polynomial_proportional_to_tau(self):
        branch = select_branch(DEEP)
        rho = rho_of(DEEP, branch)
        y = rodrigues_y(DEEP, rho, 1)
        ratio = y.coefficient(0) / branch.tau.coefficient(0)
        assert abs(y.coefficient(1) - ratio * branch.tau.coefficient(1)) <= 1e-10 * abs(
            ratio
        )

    def test_first_polynomial_on_configuration_branch(self):
        problem = radial_problem(0.0, 2.0, 1.0, -1.0)
        branch = select_branch(problem)
        rho = rho_of(problem, branch)
        y = rodrigues_y(problem, rho, 1)
        assert y.coefficient(0) / y.coefficient(1) == pytest.approx(-1.0)

    def test_weight_mismatch_fails_cancellation(self):
        problem = radial_problem(0.0, 2.0, 1.0, -1.0)
        bad_rho = ExpPowerTerm(Poly((1.0,)), rate=-2.0, power=-1.0)
        with pytest.raises(CancellationFailure):
            rodrigues_y(problem, bad_rho, 1)

    def test_polynomial_solves_the_reduced_equation(self):
        """sigma y'' + tau y' + lambda_n y vanishes for Rodrigues output."""
        problem = radial_problem(2.0, 2.0, 2.0 / 81.0, -3.0)
        branch = select_branch(problem)
        rho = rho_of(problem, branch)
        for n in (1, 2, 3):
            y = rodrigues_y(problem, rho, n)
            lam_n = -n * branch.tau.coefficient(1)
            for z in (0.5, 1.4, 2.8, 4.9, 1.0 + 1.0j):
                value = (
                    problem.sigma(z) * y.derivative().derivative()(z)
                    + branch.tau(z) * y.derivative()(z)
                    + lam_n * y(z)
                )
                scale = max(abs(y(z)), 1.0)
                assert abs(value) <= 1e-9 * scale


class TestQuantization:
    def test_residual_sign_structure(self):
        family = radial_family(0.0, 2.0, -3.0)
        assert abs(eigen_residual(family, 0.25, 0)) < 1e-12
        assert eigen_residual(family, 0.16, 0) > 0.0
        assert eigen_residual(family, 0.36, 0) < 0.0

    def test_residual_requires_positive_kappa(self):
        family = radial_family(0.0, 2.0, -3.0)
        with pytest.raises(ValueError):
            eigen_residual(family, 0.0, 0)

    def test_residual_monotone_in_sqrt_kappa(self):
        family = radial_family(0.0, 2.0, -3.0)
        values = [
            eigen_residual(family, (0.1 + 0.9 * i / 99.0) ** 2, 0) for i in range(100)
        ]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_ground_state_kappa(self):
        assert solve_kappa(radial_family(0.0, 2.0, -3.0), 0) == pytest.approx(
            0.25, rel=1e-10
        )

    def test_excited_state_kappa(self):
        assert solve_kappa(radial_family(0.0, 2.0, -3.0), 1) == pytest.approx(
            0.04, rel=1e-10
        )

    def test_higher_angular_momentum_kappa(self):
        assert solve_kappa(radial_family(2.0, 2.0, -3.0), 0) == pytest.approx(
            1.0 / 9.0, rel=1e-10
        )

    def test_configuration_branch_kappa(self):
        assert solve_kappa(radial_family(0.0, 2.0, -1.0), 0) == pytest.approx(
            1.0, rel=1e-10
        )

    def test_no_root_without_attractive_term(self):
        with pytest.raises(NoSignChange, match="keeps one sign"):
            solve_kappa(radial_family(2.0, 0.0, -1.0), 0)

    def test_exact_zero_at_an_endpoint_is_returned(self, monkeypatch):
        """sigma = A/4, tau_tilde = 1/4 and sigma_tilde = A/4 - kappa A^2
        give the ground-state residual 1 - sqrt(kappa), exactly 0 at the
        ceiling kappa = 1; the root search is never entered."""
        family = NuProblem(Poly((0.0, 0.25)), Poly((0.0, 0.25)), Poly((0.25,)))
        seen = record_residuals(monkeypatch)
        assert solve_kappa(family, 0) == 1.0
        assert seen == [nu.KAPPA_FLOOR, 1.0]

    def test_endpoints_of_one_sign_raise_at_once(self, monkeypatch):
        """sigma = A, tau_tilde = 2 and sigma_tilde = 2e-9 A - kappa A^2 put
        the ground-state root near 1e-18, below KAPPA_FLOOR: both endpoint
        residuals are negative, and nothing is searched between them."""
        family = NuProblem(Poly((0.0, 1.0)), Poly((0.0, 2e-9)), Poly((2.0,)))
        seen = record_residuals(monkeypatch)
        with pytest.raises(
            NoSignChange, match=r"keeps one sign on \[1e-12, 1\] for n=0$"
        ):
            solve_kappa(family, 0)
        assert seen == [nu.KAPPA_FLOOR, 1.0]

    def test_configuration_ground_state_is_exact(self):
        state = solve_state(radial_family(0.0, 2.0, -1.0), 0)
        assert state.kappa == 1.0

    def test_residual_is_that_of_the_selected_branch(self):
        """eigen_residual, computed on scalars, equals lambda - lambda_n =
        K + pi' + n tau' of the NuBranch select_branch builds, on a log grid
        of kappa from 1e-6 to 10."""
        for family, kappa in grid_problems():
            branch = select_branch(family.at(kappa))
            for n in (0, 3):
                lam_n = -n * branch.tau.coefficient(1)
                want = (branch.K + branch.pi.coefficient(1) - lam_n).real
                got = eigen_residual(family, kappa, n)
                assert abs(got - want) <= 1e-14 * abs(want)

    def test_solve_state_assembly(self):
        state = solve_state(radial_family(0.0, 2.0, -3.0), 2)
        kappa, problem = state.kappa, state.problem
        assert kappa == pytest.approx(1.0 / 64.0, rel=1e-10)
        assert state.n == 2
        assert state.y.degree == 2
        assert abs(state.lam - state.lam_n) <= 1e-10 * (1.0 + abs(state.lam_n))
        assert state.branch.tau.coefficient(1).real < 0.0
        assert problem.sigma_tilde.coefficient(2) == pytest.approx(-kappa)

    def test_assemble_at_the_root_is_the_solved_state(self):
        family = radial_family(0.0, 2.0, -3.0)
        state = solve_state(family, 1)
        assert assemble(family, state.kappa, 1) == state
        detuned = assemble(family, 1.1 * state.kappa, 1)
        assert detuned.kappa == 1.1 * state.kappa
        assert detuned.y.degree == 1
        assert abs(detuned.lam - detuned.lam_n) > 1e-3

    def test_full_state_solves_the_transformed_equation(self):
        family = radial_family(0.0, 2.0, -3.0)
        state = solve_state(family, 1)
        problem = state.problem
        psi = state.body
        assert psi == state.phi.times_poly(state.y)
        d1 = psi.derivative()
        d2 = d1.derivative()
        for z in (0.5, 1.2, 2.6, 4.8, 2.0 + 1.5j):
            sig = problem.sigma(z)
            lhs = (
                d2.evaluate(z)
                + problem.tau_tilde(z) / sig * d1.evaluate(z)
                + problem.sigma_tilde(z) / (sig * sig) * psi.evaluate(z)
            )
            assert abs(lhs) <= 1e-8 * (1.0 + abs(psi.evaluate(z)))
