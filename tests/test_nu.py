"""Generic hypergeometric-type pipeline: branch selection, integrating
factors, Rodrigues polynomials, and eigenvalue quantization."""

import cmath
import math
import random

import pytest

from phasenu import nu

from phasenu.errors import NoBranch, NoSignChange, RodriguesFailure
from phasenu.numeric import Poly
from phasenu.nu import (
    NuBranch,
    NuProblem,
    eigen_residual,
    rodrigues_y,
    select_branch,
    assemble,
    solve_kappa,
    solve_state,
)


def radial_family(omega, zeta, alphadelta):
    """Transformed Coulomb problem at kappa = 0, the form the quantization
    takes."""
    return NuProblem(-alphadelta, (-omega, zeta, 0.0), (2.0, 0.0))


def radial_problem(omega, zeta, kappa, alphadelta):
    """The same problem at a fixed kappa."""
    return radial_family(omega, zeta, alphadelta).at(kappa)


def polys(problem):
    """sigma = c A, sigma_tilde and tau_tilde of the record as Poly objects."""
    return Poly((0.0, problem.c)), Poly(problem.sigma_tilde), Poly(problem.tau_tilde)


def reference_combinations(problem):
    """Every (K, sign) combination as (K, sign, pi, tau), built from Poly
    arithmetic and cmath alone: K zeroes the discriminant of the radicand
    ((sigma' - tau_tilde)/2)**2 - sigma_tilde + K sigma, whose square root
    u A + v is taken with Re(u) >= 0, from its larger end, and pi is
    (sigma' - tau_tilde)/2 + sign * (u A + v)."""
    c = problem.c
    sigma, sigma_tilde, tau_tilde = polys(problem)
    base = 0.5 * (sigma.derivative() + (-1) * tau_tilde)
    q = base * base + (-1) * sigma_tilde
    q0, q1, q2 = (q.coefficient(k) for k in range(3))
    # (q1 + K c)**2 - 4 q2 q0 = 0, by the stable quadratic formula
    k0, k1, k2 = q1 * q1 - 4.0 * q2 * q0, 2.0 * q1 * c, c * c
    sq = cmath.sqrt(k1 * k1 - 4.0 * k2 * k0)
    big = -0.5 * (k1 + sq if abs(k1 + sq) >= abs(k1 - sq) else k1 - sq)
    roots = (big / k2, k0 / big) if big else (0j, 0j)
    found = []
    for K in sorted(roots, key=lambda z: (z.real, z.imag)):
        r0, r1, r2 = ((q + K * sigma).coefficient(k) for k in range(3))
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
            found.append((K, sign, pi, tau_tilde + 2.0 * pi))
    return found


def decays_with_admissible_weight(c, tau, margin=0.0):
    """Re(tau') < 0 and rho = exp((tau'/c) A) A**((tau(0) - c)/c) admissible:
    Re(rate) < 0 and Re(power) > -1, each by more than ``margin``."""
    t0, t1 = tau.coefficient(0), tau.coefficient(1)
    return (
        t1.real < -margin
        and (t1 / c).real < -margin
        and ((t0 - c) / c).real > -1.0 + margin
    )


def grid_problems():
    """The transformed Coulomb problem on a log grid of kappa, 1e-6 to 10."""
    for omega in (0.0, 2.0, 12.0):
        for zeta in (2.0, 2.0 / 900.0):
            for alphadelta in (-1.0, -3.0):
                family = radial_family(omega, zeta, alphadelta)
                for i in range(57):
                    yield family, 10.0 ** (-6.0 + i / 8.0)


def random_problems(count, seed):
    """Seeded real problems with c > 0.  The constant of sigma_tilde is
    at most zero, as -omega is for hydrogen, so q0 = b0**2 - s0 >= 0: a
    negative q0 has complex K, which the complex reference would offer
    and a real equation does not have (test_negative_radicand_has_no_branch
    covers it).  q2 = b1**2 - s2 takes either sign."""
    rng = random.Random(seed)

    def x():
        return rng.uniform(-3.0, 3.0)

    for _ in range(count):
        c, s0 = rng.uniform(0.1, 3.0), -rng.uniform(0.0, 3.0)
        yield NuProblem(c, (s0, x(), x()), (x(), x()))


def record_residuals(monkeypatch):
    """The kappa of every eigen_residual call, in call order."""
    seen = []
    original = nu.eigen_residual

    def recorded(family, kappa, n):
        seen.append(kappa)
        return original(family, kappa, n)

    monkeypatch.setattr(nu, "eigen_residual", recorded)
    return seen


DEEP = radial_problem(0.0, 2.0, 0.25, -3.0)


class TestProblemValidation:
    def test_c_zero_and_non_finite_scalars_are_refused(self):
        with pytest.raises(ValueError, match="c must be nonzero"):
            NuProblem(0.0, (0.0, 1.0, 0.0), (2.0, 0.0))
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="non-finite"):
                NuProblem(bad, (0.0, 1.0, 0.0), (2.0, 0.0))
            with pytest.raises(ValueError, match="non-finite"):
                NuProblem(1.0, (0.0, bad, 0.0), (2.0, 0.0))
            with pytest.raises(ValueError, match="non-finite"):
                NuProblem(1.0, (0.0, 1.0, 0.0), (2.0, bad))
            with pytest.raises(ValueError, match="non-finite"):
                radial_family(0.0, 2.0, -3.0).at(bad)

    def test_complex_scalars_are_refused_by_name(self):
        """nu solves real equations: a complex scalar is refused, even one
        whose imaginary part is zero, and the message names its field."""
        for bad in (1 + 2j, complex(2.0, 0.0), complex(1.0, -math.inf)):
            with pytest.raises(ValueError, match="c must be real"):
                NuProblem(bad, (0.0, 1.0, 0.0), (2.0, 0.0))
            with pytest.raises(ValueError, match="sigma_tilde must be real"):
                NuProblem(1.0, (0.0, bad, 0.0), (2.0, 0.0))
            with pytest.raises(ValueError, match="tau_tilde must be real"):
                NuProblem(1.0, (0.0, 1.0, 0.0), (2.0, bad))
            with pytest.raises(ValueError, match=r"sigma_tilde\[2\] - kappa must be real"):
                radial_family(0.0, 2.0, -3.0).at(bad)

    def test_kappa_shift_that_overflows_is_refused(self):
        """at(kappa) re-checks only the sums, which alone can overflow."""
        family = NuProblem(1.0, (0.0, 1.0, -1e308), (2.0, 0.0))
        with pytest.raises(ValueError, match="non-finite"):
            family.at(1e308)
        with pytest.raises(ValueError, match="non-finite"):
            NuProblem(1.0, (0.0, 1.0, -math.inf), (2.0, 0.0))

    def test_kappa_shift_is_one_validated_record(self):
        family = radial_family(2.0, 2.0, -1.0)
        shifted = family.at(0.25)
        assert type(shifted) is NuProblem
        assert shifted == NuProblem(family.c, shifted.sigma_tilde, family.tau_tilde)
        assert shifted.c is family.c and shifted.tau_tilde is family.tau_tilde
        assert all(type(s) is float for s in shifted.sigma_tilde)
        assert family.sigma_tilde == (-2.0, 2.0, 0.0)

    def test_family_instantiation(self):
        family = radial_family(0.0, 2.0, -3.0)
        problem = family.at(0.25)
        assert problem.sigma_tilde == (0.0, 2.0, -0.25)

    def test_kappa_shift_has_the_bits_of_poly_arithmetic(self):
        """at(kappa) gives the coefficients of Poly(sigma_tilde) + kappa *
        Poly((0, 0, -1)), on the kappa grid and at a few kappa of either
        sign: the A**2 coefficient has the bits of the sum's real part, and
        s0 and s1 are carried over bit for bit, so a -0.0 constant (-omega
        at L = 0) stays -0.0 where the complex sum reads +0.0."""
        cases = list(grid_problems())
        cases += [
            (radial_family(0.0, zeta, -1.0), k)
            for zeta in (0.0, 2.0)
            for k in (0.0, -0.5, 3.0)
        ]
        for family, kappa in cases:
            want = Poly(family.sigma_tilde) + kappa * Poly((0.0, 0.0, -1.0))
            got = family.at(kappa).sigma_tilde
            assert got == tuple(want.coefficient(k) for k in range(3))
            s0, s1, _ = family.sigma_tilde
            bits = [s0.hex(), s1.hex(), want.coefficient(2).real.hex()]
            assert [c.hex() for c in got] == bits


class TestKCandidates:
    """The K roots select_branch tries, and the one it takes."""

    def test_deep_branch_pair(self):
        roots = [K for K, sign, *_ in reference_combinations(DEEP) if sign == -1]
        assert roots == [pytest.approx(0.5), pytest.approx(5.0 / 6.0)]
        assert select_branch(DEEP).K == pytest.approx(0.5)

    def test_higher_angular_momentum(self):
        branch = select_branch(radial_problem(2.0, 2.0, 1.0 / 9.0, -3.0))
        assert branch.K == pytest.approx(1.0 / 3.0)

    def test_already_square_radicand(self):
        problem = NuProblem(1.0, (0.0, 0.0, -1.0), (1.0, 0.0))
        assert select_branch(problem).K == 0j
        found = reference_combinations(problem)
        assert [K for K, sign, *_ in found if sign == -1] == [0j, 0j]


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

    def test_negative_radicand_has_no_branch(self):
        """A real equation has a real pi only where both radicands are
        non-negative.  sigma = A, sigma_tilde = A^2, tau_tilde = 2 has
        q2 = b1**2 - s2 = -1 (pi' would be -i, whose tau' = -2i never
        decays); sigma = A, sigma_tilde = 1 - A^2, tau_tilde = 1 has
        q2 = 1 but q0 = b0**2 - s0 = -1, so K would be complex."""
        with pytest.raises(NoBranch, match=r"radicand q2 = b1\*\*2 - s2 = -1\.0 is negative"):
            select_branch(NuProblem(1.0, (0.0, 0.0, 1.0), (2.0, 0.0)))
        with pytest.raises(NoBranch, match=r"radicand q0 = b0\*\*2 - s0 = -1\.0 is negative"):
            select_branch(NuProblem(1.0, (1.0, 0.0, -1.0), (1.0, 0.0)))

    def test_vanishing_radicand_has_no_branch(self):
        """sigma = A, sigma_tilde = 0, tau_tilde = 1: the radicand is
        identically zero, so u = v = 0, pi = 0 and tau' = 0, which does
        not decay."""
        problem = NuProblem(1.0, (0.0, 0.0, 0.0), (1.0, 0.0))
        with pytest.raises(NoBranch, match=r"no \(K, sign\) combination gives tau' < 0"):
            select_branch(problem)

    def test_no_admissible_weight_has_no_branch(self):
        """sigma = -A, sigma_tilde = -A^2, tau_tilde = 0: tau' = -2 decays
        for both combinations, but over c = -1 the rate of rho is +2, so
        neither weight is admissible, in exact arithmetic too."""
        problem = NuProblem(-1.0, (0.0, 0.0, -1.0), (0.0, 0.0))
        with pytest.raises(
            NoBranch, match="no decaying combination has an admissible weight"
        ):
            select_branch(problem)

    def test_subnormal_tau_slope_tries_only_the_minus_sign(self):
        """sigma = A, sigma_tilde = 0, tau_tilde = t1 A with a subnormal
        t1: 0.5 * t1 rounds, and u = sqrt(b1**2) underflows to 0, so the +1
        sign's tau' would be -5e-324, one subnormal step below zero.  Only
        the -1 sign is tried: its first K candidate has power -1, and the
        second wins with tau' = -5e-324."""
        t1 = 1.5e-323
        problem = NuProblem(1.0, (0.0, 0.0, 0.0), (0.0, t1))
        plus_tau1 = t1 + 2.0 * (-0.5 * t1 + 0.0)
        assert plus_tau1 < 0.0
        branch = select_branch(problem)
        assert branch.pi.coefficient(1) == -1e-323
        assert branch.tau.coefficient(1) == -5e-324
        assert branch.K == 1e-323
        assert tuple(branch.tau) == (2.0, -5e-324)

    def test_pi_slope_keeps_its_digits_at_small_kappa(self):
        """sigma = A, sigma_tilde = 2A - kappa A^2, tau_tilde = 2: pi' is
        -sqrt(kappa) exactly, and stays within a few ulps of it where the
        K quadratic's discriminant cancels (4e-8 relative at 1e-10 when K
        came from that quadratic)."""
        for kappa in (1e-4, 1e-6, 1e-8, 1e-10):
            problem = NuProblem(1.0, (0.0, 2.0, -kappa), (2.0, 0.0))
            pi1 = select_branch(problem).pi.coefficient(1)
            want = -math.sqrt(kappa)
            assert abs(pi1 - want) <= 4.0 * math.ulp(want), kappa

    def test_matches_the_reference_rule(self):
        """On the kappa grid and on seeded random real problems, the
        returned combination has the defining properties of the choice:
        (pi - base)**2 is the radicand q + K c A to rounding, tau decays
        and the weight is admissible, and no combination of the reference
        with a smaller K passes both tests.  NoBranch is raised only where
        no combination of the reference passes them."""
        problems = [family.at(kappa) for family, kappa in grid_problems()]
        problems += random_problems(400, seed=8)
        selected = refused = 0
        for problem in problems:
            c = problem.c
            found = reference_combinations(problem)
            try:
                branch = select_branch(problem)
            except NoBranch:
                assert not any(
                    decays_with_admissible_weight(c, tau, 1e-9) for *_, tau in found
                )
                refused += 1
                continue
            sigma, sigma_tilde, tau_tilde = polys(problem)
            base = 0.5 * (sigma.derivative() + (-1) * tau_tilde)
            root = branch.pi + (-1) * base
            radicand = base * base + (-1) * sigma_tilde + branch.K * sigma
            scale = max(abs(z) for z in (*radicand, *(base * base), 1e-300))
            for k in range(3):
                gap = (root * root).coefficient(k) - radicand.coefficient(k)
                assert abs(gap) <= 1e-12 * scale
            assert branch.tau == tau_tilde + 2.0 * branch.pi
            assert decays_with_admissible_weight(c, branch.tau)
            slack = 1e-9 * (1.0 + abs(branch.K))
            for K, _, _, tau in found:
                smaller = K.real < branch.K.real - slack or (
                    abs(K.real - branch.K.real) <= slack and K.imag < branch.K.imag - slack
                )
                assert not (smaller and decays_with_admissible_weight(c, tau, 1e-9))
            selected += 1
        assert selected > 800 and refused > 100


class TestTauLambda:
    def test_lambda_ground(self):
        state = assemble(radial_family(0.0, 2.0, -3.0), 0.25, 0)
        assert state.branch.lam == pytest.approx(0.0, abs=1e-14)

    def test_lambda_excited(self):
        state = assemble(radial_family(0.0, 2.0, -3.0), 0.04, 1)
        assert state.branch.K == pytest.approx(0.6)
        assert state.branch.lam == pytest.approx(0.4)
        assert state.branch.lam_n(1) == pytest.approx(0.4)

    def test_lambda_n_zero_at_ground(self):
        assert assemble(radial_family(0.0, 2.0, -3.0), 0.25, 0).branch.lam_n(0) == 0j

    def test_lambdas_of_the_scalars(self):
        """lambda = K + pi1 and lambda_n = -n tau1, read from the record."""
        branch = NuBranch(3.0, 0.75, 1.0, -0.25, 4.0, -0.5)
        assert branch.lam == 0.5 + 0j
        assert branch.lam_n(3) == 1.5 + 0j
        with pytest.raises(ValueError, match="n must be non-negative"):
            branch.lam_n(-1)


class TestIntegratingFactors:
    def test_phi_deep_branch(self):
        phi = select_branch(DEEP).phi
        assert phi.rate == pytest.approx(-1.0 / 6.0)
        assert phi.power == pytest.approx(1.0 / 3.0)

    def test_phi_trivial_for_zero_pi(self):
        """A pi of zeros is the zero polynomial, and phi is the constant 1:
        both exponents are +0.0 + 0.0j."""
        branch = NuBranch(c=3.0, K=0.0, pi0=0.0, pi1=0.0, tau0=2.0, tau1=0.0)
        assert branch.pi.is_zero
        phi = branch.phi
        for exponent in (phi.rate, phi.power):
            assert exponent == 0j
            signs = [math.copysign(1.0, x) for x in (exponent.real, exponent.imag)]
            assert signs == [1.0, 1.0]
        assert tuple(phi.poly) == (1 + 0j,)

    def test_phi_configuration_branch_inputs(self):
        branch = NuBranch(c=1.0, K=0.0, pi0=1.0, pi1=-1.0, tau0=2.0, tau1=0.0)
        phi = branch.phi
        assert phi.rate == pytest.approx(-1.0)
        assert phi.power == pytest.approx(1.0)

    def test_phi_log_derivative_identity(self):
        branch = select_branch(DEEP)
        phi = branch.phi
        d = phi.derivative()
        for z in (0.7, 1.3, 2.9 + 0.4j):
            lhs = d.evaluate(z) / phi.evaluate(z)
            rhs = branch.pi(z) / (DEEP.c * z)
            assert abs(lhs - rhs) <= 1e-12 * (1.0 + abs(rhs))

    def test_rho_deep_branch(self):
        rho = select_branch(DEEP).rho
        assert rho.rate == pytest.approx(-1.0 / 3.0)
        assert rho.power == pytest.approx(1.0 / 3.0)

    def test_rho_trivial_when_tau_is_sigma_prime(self):
        branch = NuBranch(c=3.0, K=0.0, pi0=0.0, pi1=0.0, tau0=3.0, tau1=0.0)
        rho = branch.rho
        assert rho.rate == 0j
        assert rho.power == pytest.approx(0.0)

    def test_rho_configuration_branch(self):
        rho = select_branch(radial_problem(0.0, 2.0, 1.0, -1.0)).rho
        assert rho.rate == pytest.approx(-2.0)
        assert rho.power == pytest.approx(1.0)

    def test_rho_pearson_identity(self):
        branch = select_branch(DEEP)
        rho = branch.rho
        sigma_rho = rho.times_poly(Poly((0.0, DEEP.c)))
        d = sigma_rho.derivative()
        for z in (0.6, 1.9, 1.1 - 0.8j):
            lhs = d.evaluate(z)
            rhs = branch.tau(z) * rho.evaluate(z)
            assert abs(lhs - rhs) <= 1e-12 * (1.0 + abs(rhs))


class TestRodrigues:
    def test_degree_zero_is_one(self):
        assert tuple(rodrigues_y(select_branch(DEEP), 0)) == (1 + 0j,)

    def test_first_polynomial_proportional_to_tau(self):
        branch = select_branch(DEEP)
        y = rodrigues_y(branch, 1)
        ratio = y.coefficient(0) / branch.tau.coefficient(0)
        assert abs(y.coefficient(1) - ratio * branch.tau.coefficient(1)) <= 1e-10 * abs(
            ratio
        )

    def test_first_polynomial_on_configuration_branch(self):
        y = rodrigues_y(select_branch(radial_problem(0.0, 2.0, 1.0, -1.0)), 1)
        assert y.coefficient(0) / y.coefficient(1) == pytest.approx(-1.0)

    def test_matches_the_derivative_chain(self):
        """(1 / rho) d^n/dA^n [sigma**n rho], the derivatives taken in the
        exponential-power family, for the weight of the branch."""
        for problem in (DEEP, radial_problem(2.0, 2.0, 2.0 / 81.0, -3.0)):
            branch = select_branch(problem)
            rho = branch.rho
            for n in range(7):
                term = rho.times_poly(Poly((0.0,) * n + (problem.c**n,)))
                for _ in range(n):
                    term = term.derivative()
                assert term.rate == rho.rate
                assert abs(term.power - rho.power) <= 1e-12
                want = term.poly
                y = rodrigues_y(branch, n)
                assert y.degree == n
                scale = max(abs(z) for z in want)
                for k in range(n + 1):
                    assert abs(y.coefficient(k) - want.coefficient(k)) <= 1e-13 * scale

    def test_overflowing_coefficient_is_an_error(self):
        """sigma = A, sigma_tilde = -100 A^2, tau_tilde = 1: rho = e^{-20 A},
        and the largest coefficient of y is 7.4e303 at n = 150 and beyond
        the float range at n = 160."""
        problem = NuProblem(1.0, (0.0, 0.0, -100.0), (1.0, 0.0))
        branch = select_branch(problem)
        y = rodrigues_y(branch, 150)
        assert y.degree == 150
        assert all(cmath.isfinite(z) for z in y)
        with pytest.raises(RodriguesFailure, match="overflows at n=160"):
            rodrigues_y(branch, 160)

    def test_underflowing_leading_coefficient_is_an_error(self):
        """sigma = A, sigma_tilde = -1e-200 A^2, tau_tilde = 1: tau' = -2e-100,
        whose fourth power underflows to zero, so y falls short of degree 4."""
        problem = NuProblem(1.0, (0.0, 0.0, -1e-200), (1.0, 0.0))
        branch = select_branch(problem)
        with pytest.raises(RodriguesFailure, match="degree 3, expected 4"):
            rodrigues_y(branch, 4)

    def test_polynomial_solves_the_reduced_equation(self):
        """sigma y'' + tau y' + lambda_n y vanishes for Rodrigues output."""
        problem = radial_problem(2.0, 2.0, 2.0 / 81.0, -3.0)
        branch = select_branch(problem)
        for n in (1, 2, 3):
            y = rodrigues_y(branch, n)
            lam_n = branch.lam_n(n)
            for z in (0.5, 1.4, 2.8, 4.9, 1.0 + 1.0j):
                value = (
                    problem.c * z * y.derivative().derivative()(z)
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
        family = NuProblem(0.25, (0.0, 0.25, 0.0), (0.25, 0.0))
        seen = record_residuals(monkeypatch)
        assert solve_kappa(family, 0) == 1.0
        assert seen == [nu.KAPPA_FLOOR, 1.0]

    def test_endpoints_of_one_sign_raise_at_once(self, monkeypatch):
        """sigma = A, tau_tilde = 2 and sigma_tilde = 2e-9 A - kappa A^2 put
        the ground-state root near 1e-18, below KAPPA_FLOOR: both endpoint
        residuals are negative, and nothing is searched between them."""
        family = NuProblem(1.0, (0.0, 2e-9, 0.0), (2.0, 0.0))
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
        """eigen_residual, computed on scalars, equals lambda - lambda_n of
        the NuBranch select_branch returns for the equation at kappa,
        bit for bit, on a log grid of kappa from 1e-6 to 10."""
        for family, kappa in grid_problems():
            branch = select_branch(family.at(kappa))
            for n in (0, 3):
                want = (branch.lam - branch.lam_n(n)).real
                assert eigen_residual(family, kappa, n) == want

    def test_solve_state_assembly(self):
        state = solve_state(radial_family(0.0, 2.0, -3.0), 2)
        kappa, problem = state.kappa, state.problem
        assert kappa == pytest.approx(1.0 / 64.0, rel=1e-10)
        assert state.n == 2
        assert state.y.degree == 2
        lam, lam_n = state.branch.lam, state.branch.lam_n(2)
        assert abs(lam - lam_n) <= 1e-10 * (1.0 + abs(lam_n))
        assert state.branch.tau.coefficient(1).real < 0.0
        assert problem.sigma_tilde[2] == pytest.approx(-kappa)

    def test_assemble_at_the_root_is_the_solved_state(self):
        family = radial_family(0.0, 2.0, -3.0)
        state = solve_state(family, 1)
        assert assemble(family, state.kappa, 1) == state
        detuned = assemble(family, 1.1 * state.kappa, 1)
        assert detuned.kappa == 1.1 * state.kappa
        assert detuned.y.degree == 1
        assert abs(detuned.branch.lam - detuned.branch.lam_n(1)) > 1e-3

    def test_full_state_solves_the_transformed_equation(self):
        family = radial_family(0.0, 2.0, -3.0)
        state = solve_state(family, 1)
        sigma, sigma_tilde, tau_tilde = polys(state.problem)
        psi = state.body
        assert psi == state.branch.phi.times_poly(state.y)
        d1 = psi.derivative()
        d2 = d1.derivative()
        for z in (0.5, 1.2, 2.6, 4.8, 2.0 + 1.5j):
            sig = sigma(z)
            lhs = (
                d2.evaluate(z)
                + tau_tilde(z) / sig * d1.evaluate(z)
                + sigma_tilde(z) / (sig * sig) * psi.evaluate(z)
            )
            assert abs(lhs) <= 1e-8 * (1.0 + abs(psi.evaluate(z)))
