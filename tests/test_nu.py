"""Generic hypergeometric-type pipeline: branch selection, integrating
factors, Rodrigues polynomials, and eigenvalue quantization."""

import cmath
import hashlib
import math
import random
from fractions import Fraction

import pytest

from phasenu.errors import NoBranch, NoSignChange, RodriguesFailure
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

import exact


def radial_family(omega, zeta, alphadelta):
    """Transformed Coulomb problem at kappa = 0, the form the quantization
    takes."""
    return NuProblem(-alphadelta, (-omega, zeta, 0.0), (2.0, 0.0))


def radial_problem(omega, zeta, kappa, alphadelta):
    """The same problem at a fixed kappa."""
    return radial_family(omega, zeta, alphadelta).at(kappa)


def polys(problem):
    """sigma = c A, sigma_tilde and tau_tilde of the record as exact
    polynomials."""
    return exact.poly((0, problem.c)), exact.poly(problem.sigma_tilde), exact.poly(problem.tau_tilde)


def pi_tau(branch):
    """pi and tau of the branch as exact polynomials."""
    return exact.poly((branch.pi0, branch.pi1)), exact.poly((branch.tau0, branch.tau1))


def phi_rho(branch):
    """The integrating factor phi and the weight rho of the branch as exact
    terms."""
    return tuple(exact.term((1,), *ab) for ab in (branch._factor, branch._weight))


def half_difference(problem):
    """(sigma' - tau_tilde) / 2, exactly."""
    sigma, _, tau_tilde = polys(problem)
    return exact.mul((Fraction(1, 2),), exact.add(exact.derivative(sigma), exact.mul((-1,), tau_tilde)))


#: Rational points of the annulus the identities are checked at.
RATIONAL_POINTS = (Fraction(1, 2), Fraction(7, 10), Fraction(13, 10), Fraction(14, 5), Fraction(49, 10))


def reference_combinations(problem):
    """Every (K, sign) combination as (K, sign, pi, tau), pi and tau as
    (constant, slope) pairs, built from exact polynomial arithmetic and cmath
    alone: K zeroes the discriminant of the radicand
    ((sigma' - tau_tilde)/2)**2 - sigma_tilde + K sigma, whose square root
    u A + v is taken with Re(u) >= 0, from its larger end, and pi is
    (sigma' - tau_tilde)/2 + sign * (u A + v).  K, u and v may be complex,
    so the terms with them are summed coefficient by coefficient."""
    c = problem.c
    _, sigma_tilde, tau_tilde = polys(problem)
    base = half_difference(problem)
    q = exact.add(exact.mul(base, base), exact.mul((-1,), sigma_tilde))
    q0, q1, q2 = (float(exact.coefficient(q, k)) for k in range(3))
    # (q1 + K c)**2 - 4 q2 q0 = 0, by the stable quadratic formula
    k0, k1, k2 = q1 * q1 - 4.0 * q2 * q0, 2.0 * q1 * c, c * c
    sq = cmath.sqrt(k1 * k1 - 4.0 * k2 * k0)
    big = -0.5 * (k1 + sq if abs(k1 + sq) >= abs(k1 - sq) else k1 - sq)
    roots = (big / k2, k0 / big) if big else (0j, 0j)
    found = []
    for K in sorted(roots, key=lambda z: (z.real, z.imag)):
        # q + K sigma, with sigma = c A
        r0, r1, r2 = q0, q1 + K * c, q2
        if abs(r2) >= abs(r0):
            u = cmath.sqrt(r2)
            v = r1 / (2.0 * u)
        else:
            v = cmath.sqrt(r0)
            u = r1 / (2.0 * v)
            if u.real < 0.0:
                u, v = -u, -v
        for sign in (-1, 1):
            pi = tuple(float(exact.coefficient(base, k)) + sign * w for k, w in enumerate((v, u)))
            tau = tuple(float(exact.coefficient(tau_tilde, k)) + 2.0 * p for k, p in enumerate(pi))
            found.append((K, sign, pi, tau))
    return found


def decays_with_admissible_weight(c, tau, margin=0.0):
    """Re(tau') < 0 and rho = exp((tau'/c) A) A**((tau(0) - c)/c) admissible:
    Re(rate) < 0 and Re(power) > -1, each by more than ``margin``; tau is
    a (constant, slope) pair."""
    t0, t1 = tau
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


DEEP = radial_problem(0.0, 2.0, 0.25, -3.0)

#: ``TestRodrigues.test_coefficient_bits_are_pinned``'s digest, as
#: ``rodrigues_y`` computes it in one product per coefficient.
RODRIGUES_DIGEST = "23cd413f80f199546bcf5ab34320abc7242ac1f5454f80c513c64b36c0267f23"


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
        whose imaginary part is zero, and so is any other non-number, such
        as a string that float() would parse or a bool (True solved as 1),
        and a real number beyond the float range; the message names the
        field."""
        for bad in (
            1 + 2j, complex(2.0, 0.0), complex(1.0, -math.inf), "1", " 2e0 ", None, True, False
        ):
            with pytest.raises(ValueError, match="c must be real"):
                NuProblem(bad, (0.0, 1.0, 0.0), (2.0, 0.0))
            with pytest.raises(ValueError, match="sigma_tilde must be real"):
                NuProblem(1.0, (0.0, bad, 0.0), (2.0, 0.0))
            with pytest.raises(ValueError, match="tau_tilde must be real"):
                NuProblem(1.0, (0.0, 1.0, 0.0), (2.0, bad))
        for bad in (1 + 2j, complex(2.0, 0.0), complex(1.0, -math.inf), True):
            with pytest.raises(ValueError, match=r"^kappa must be real"):
                radial_family(0.0, 2.0, -3.0).at(bad)
        with pytest.raises(ValueError, match="c must be real, got '1'"):
            NuProblem("1", ("0", "2", "-0.25"), ("2", "0"))
        for bad in (10**400, -(10**400), Fraction(10**400, 3)):
            with pytest.raises(ValueError, match="c is beyond the float range"):
                NuProblem(bad, (0.0, 1.0, 0.0), (2.0, 0.0))
            with pytest.raises(ValueError, match="sigma_tilde is beyond the float range"):
                NuProblem(1.0, (0.0, bad, 0.0), (2.0, 0.0))
            with pytest.raises(ValueError, match="tau_tilde is beyond the float range"):
                NuProblem(1.0, (0.0, 1.0, 0.0), (2.0, bad))

    def test_kappa_shift_that_overflows_is_refused(self):
        """at(kappa) re-checks only the sums, which alone can overflow; a
        finite kappa whose difference overflows names the difference."""
        family = NuProblem(1.0, (0.0, 1.0, -1e308), (2.0, 0.0))
        with pytest.raises(ValueError, match=r"^non-finite value not admitted: sigma_tilde\[2\] - kappa = -inf$"):
            family.at(1e308)
        with pytest.raises(ValueError, match="non-finite"):
            NuProblem(1.0, (0.0, 1.0, -math.inf), (2.0, 0.0))

    def test_kappa_the_subtraction_refuses_is_named(self):
        """A kappa beyond the float range, complex, non-finite or not a
        number at all, is refused naming kappa, by at(kappa) and by
        eigen_residual, where the subtraction or the sign test would raise
        a bare OverflowError or TypeError, or name the difference
        sigma_tilde[2] - kappa.  A finite kappa whose difference overflows
        is refused naming the difference, by eigen_residual too, which
        tests the sign only after at(kappa)."""
        family = radial_family(0.0, 2.0, -1.0)
        for shifted in (family.at, lambda kappa: eigen_residual(family, kappa, 0)):
            for bad in (10**400, Fraction(10**400, 3)):
                with pytest.raises(ValueError, match="kappa is beyond the float range"):
                    shifted(bad)
            for bad in ("x", None, 1j):
                with pytest.raises(ValueError, match=f"^kappa must be real, got {bad!r}$"):
                    shifted(bad)
            for bad in (math.nan, math.inf):
                with pytest.raises(ValueError, match=f"^non-finite value not admitted: kappa = {bad!r}$"):
                    shifted(bad)
        huge = NuProblem(1.0, (0.0, 1.0, 1e308), (2.0, 0.0))
        message = r"^non-finite value not admitted: sigma_tilde\[2\] - kappa = inf$"
        for shifted in (huge.at, lambda kappa: eigen_residual(huge, kappa, 0)):
            with pytest.raises(ValueError, match=message):
                shifted(-1e308)

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
        """at(kappa) gives the coefficients of the exact sum sigma_tilde +
        kappa * (0, 0, -1), on the kappa grid and at a few kappa of either
        sign: the A**2 coefficient has the bits of the sum's, rounded once,
        and s0 and s1 are carried over bit for bit, so a -0.0 constant
        (-omega at L = 0) stays -0.0 where the rounded sum reads +0.0."""
        cases = list(grid_problems())
        cases += [
            (radial_family(0.0, zeta, -1.0), k)
            for zeta in (0.0, 2.0)
            for k in (0.0, -0.5, 3.0)
        ]
        for family, kappa in cases:
            want = exact.add(family.sigma_tilde, exact.mul((kappa,), (0, 0, -1)))
            want = tuple(float(exact.coefficient(want, k)) for k in range(3))
            got = family.at(kappa).sigma_tilde
            assert got == want
            s0, s1, _ = family.sigma_tilde
            assert [c.hex() for c in got] == [s0.hex(), s1.hex(), want[2].hex()]


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
        assert (branch.pi0, branch.pi1) == pytest.approx((1.0, -0.5))
        assert (branch.tau0, branch.tau1) == pytest.approx((4.0, -1.0))

    def test_configuration_branch(self):
        branch = select_branch(radial_problem(0.0, 2.0, 1.0, -1.0))
        assert (branch.tau0, branch.tau1) == pytest.approx((2.0, -2.0))

    def test_always_decaying_tau(self):
        for kappa in (0.04, 0.25, 1.0, 4.0):
            for alphadelta in (-1.0, -3.0):
                branch = select_branch(radial_problem(2.0, 2.0, kappa, alphadelta))
                assert branch.tau1 < 0.0

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
        assert branch.pi1 == -1e-323
        assert branch.K == 1e-323
        assert (branch.tau0, branch.tau1) == (2.0, -5e-324)

    def test_tied_K_takes_the_exact_order(self):
        """sigma = 4A, sigma_tilde = 3 + 1e20 A - A^2, tau_tilde = 0: u = 1
        and v = +/-1, so K = (1e20 +/- 2)/4, which round to the same float.
        Exact arithmetic puts v = -1 first, and its weight power +0.5 is
        admissible; v = +1 would give pi0 = 1 and power -0.5."""
        problem = NuProblem(4.0, (3.0, 1e20, -1.0), (0.0, 0.0))
        assert (1e20 + 2.0) / 4.0 == (1e20 - 2.0) / 4.0
        branch = select_branch(problem)
        assert (branch.pi0, branch.tau0) == (3.0, 6.0)
        assert branch._weight == (-0.5, 0.5)

    def test_pi_slope_keeps_its_digits_at_small_kappa(self):
        """sigma = A, sigma_tilde = 2A - kappa A^2, tau_tilde = 2: pi' is
        -sqrt(kappa) exactly, and stays within a few ulps of it where the
        K quadratic's discriminant cancels (4e-8 relative at 1e-10 when K
        came from that quadratic)."""
        for kappa in (1e-4, 1e-6, 1e-8, 1e-10):
            problem = NuProblem(1.0, (0.0, 2.0, -kappa), (2.0, 0.0))
            pi1 = select_branch(problem).pi1
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
            base = half_difference(problem)
            pi, _ = pi_tau(branch)
            root = exact.add(pi, exact.mul((-1,), base))
            square = exact.mul(base, base)
            radicand = exact.add(
                exact.add(square, exact.mul((-1,), sigma_tilde)), exact.mul((branch.K,), sigma)
            )
            scale = max(abs(z) for z in (*radicand, *square, 1e-300))
            for k in range(3):
                gap = exact.coefficient(exact.mul(root, root), k) - exact.coefficient(radicand, k)
                assert abs(gap) <= 1e-12 * scale
            # tau = tau_tilde + 2 pi, rounded once per coefficient
            tau = exact.add(tau_tilde, exact.mul((2,), pi))
            assert (branch.tau0, branch.tau1) == tuple(
                float(exact.coefficient(tau, k)) for k in range(2)
            )
            assert decays_with_admissible_weight(c, (branch.tau0, branch.tau1))
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
        rate, power = select_branch(DEEP)._factor
        assert rate == pytest.approx(-1.0 / 6.0)
        assert power == pytest.approx(1.0 / 3.0)

    def test_phi_trivial_for_zero_pi(self):
        """A pi of zeros gives the constant phi = 1: both exponents are
        +0.0."""
        branch = NuBranch(c=3.0, K=0.0, pi0=0.0, pi1=0.0, tau0=2.0, tau1=0.0)
        for exponent in branch._factor:
            assert exponent == 0.0 and math.copysign(1.0, exponent) == 1.0

    def test_phi_configuration_branch_inputs(self):
        branch = NuBranch(c=1.0, K=0.0, pi0=1.0, pi1=-1.0, tau0=2.0, tau1=0.0)
        rate, power = branch._factor
        assert rate == pytest.approx(-1.0)
        assert power == pytest.approx(1.0)

    def test_phi_log_derivative_identity(self):
        """phi'/phi = pi/sigma, with phi' the exact derivative: both terms
        share exp(rate*A), and phi' has phi's power less one, so the
        quotient is rational at a rational A."""
        branch = select_branch(DEEP)
        phi, _ = phi_rho(branch)
        pi, _ = pi_tau(branch)
        d = exact.term_derivative(phi)
        assert d.rate == phi.rate
        for z in RATIONAL_POINTS:
            lhs = exact.scaled_value(d, phi.power, z) / exact.scaled_value(phi, phi.power, z)
            rhs = exact.value(pi, z) / (Fraction(DEEP.c) * z)
            assert abs(lhs - rhs) <= 1e-12 * (1 + abs(rhs))

    def test_rho_deep_branch(self):
        rate, power = select_branch(DEEP)._weight
        assert rate == pytest.approx(-1.0 / 3.0)
        assert power == pytest.approx(1.0 / 3.0)

    def test_rho_trivial_when_tau_is_sigma_prime(self):
        branch = NuBranch(c=3.0, K=0.0, pi0=0.0, pi1=0.0, tau0=3.0, tau1=0.0)
        rate, power = branch._weight
        assert rate == 0.0
        assert power == pytest.approx(0.0)

    def test_rho_configuration_branch(self):
        rate, power = select_branch(radial_problem(0.0, 2.0, 1.0, -1.0))._weight
        assert rate == pytest.approx(-2.0)
        assert power == pytest.approx(1.0)

    def test_rho_pearson_identity(self):
        """(sigma rho)' = tau rho, with the exact derivative, both sides
        divided by rho's exp(rate*A) * A**power."""
        branch = select_branch(DEEP)
        _, rho = phi_rho(branch)
        _, tau = pi_tau(branch)
        d = exact.term_derivative(exact.term((0, DEEP.c), *branch._weight))
        assert d.rate == rho.rate
        for z in RATIONAL_POINTS:
            lhs = exact.scaled_value(d, rho.power, z)
            rhs = exact.value(tau, z) * exact.value(rho.poly, z)
            assert abs(lhs - rhs) <= 1e-12 * (1 + abs(rhs))


class TestRodrigues:
    def test_degree_zero_is_one(self):
        assert rodrigues_y(select_branch(DEEP), 0) == (1.0,)

    def test_first_polynomial_proportional_to_tau(self):
        branch = select_branch(DEEP)
        y = rodrigues_y(branch, 1)
        ratio = y[0] / branch.tau0
        assert abs(y[1] - ratio * branch.tau1) <= 1e-10 * abs(ratio)

    def test_first_polynomial_on_configuration_branch(self):
        y = rodrigues_y(select_branch(radial_problem(0.0, 2.0, 1.0, -1.0)), 1)
        assert y[0] / y[1] == pytest.approx(-1.0)

    def test_matches_the_derivative_chain(self):
        """(1 / rho) d^n/dA^n [sigma**n rho], the derivatives taken exactly
        in the exponential-power family, for the weight of the branch."""
        for problem in (DEEP, radial_problem(2.0, 2.0, 2.0 / 81.0, -3.0)):
            branch = select_branch(problem)
            rate, power = branch._weight
            for n in range(7):
                term = exact.term((0,) * n + (problem.c**n,), rate, power)
                for _ in range(n):
                    term = exact.term_derivative(term)
                assert term.rate == rate
                assert term.power == power
                want = term.poly
                y = rodrigues_y(branch, n)
                assert type(y) is tuple and len(y) == n + 1 and y[-1] != 0.0
                scale = max(abs(z) for z in want)
                for k in range(n + 1):
                    assert abs(y[k] - exact.coefficient(want, k)) <= 1e-13 * scale

    def test_overflowing_coefficient_is_an_error(self):
        """sigma = A, sigma_tilde = -100 A^2, tau_tilde = 1: rho = e^{-20 A},
        and the largest coefficient of y is 7.4e303 at n = 150 and beyond
        the float range at n = 160."""
        problem = NuProblem(1.0, (0.0, 0.0, -100.0), (1.0, 0.0))
        branch = select_branch(problem)
        y = rodrigues_y(branch, 150)
        assert len(y) == 151 and y[-1] != 0.0
        assert all(map(math.isfinite, y))
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
        """sigma y'' + tau y' + lambda_n y vanishes for Rodrigues output, at
        more rational points than the degree of y, so identically."""
        problem = radial_problem(2.0, 2.0, 2.0 / 81.0, -3.0)
        branch = select_branch(problem)
        sigma, _, _ = polys(problem)
        _, tau = pi_tau(branch)
        for n in (1, 2, 3):
            y = exact.poly(rodrigues_y(branch, n))
            dy = exact.derivative(y)
            lam_n = Fraction(branch.lam_n(n))
            for z in RATIONAL_POINTS:
                value = (
                    exact.value(sigma, z) * exact.value(exact.derivative(dy), z)
                    + exact.value(tau, z) * exact.value(dy, z)
                    + lam_n * exact.value(y, z)
                )
                scale = max(abs(exact.value(y, z)), 1)
                assert abs(value) <= 1e-9 * scale

    def test_coefficient_bits_are_pinned(self):
        """One SHA-256 over the ``float.hex`` of y at each level, taken at
        the closed-form kappa = zeta^2 / (4 d^2) so that the solver's bits
        do not enter.  A regrouped product moves the last bit of some
        coefficients, within every tolerance above but not here."""
        # atomic units, and e^2 = 1.7, k = 0.8, m = 0.5, hbar = 1.3
        zetas = (2.0, 2.0 * 1.7 * 0.8 * 0.5 / 1.3**2)
        digest = hashlib.sha256()
        for zeta in zetas:
            for alphadelta in (-1.0, -3.0):
                for L in (0, 2, 5):
                    for n in (0, 3, 20, 40):
                        d = n + L + 1 if alphadelta == -1.0 else 3 * n + L + 2
                        kappa = zeta**2 / (4 * d * d)
                        problem = radial_problem(L * (L + 1), zeta, kappa, alphadelta)
                        y = rodrigues_y(select_branch(problem), n)
                        digest.update(" ".join(map(float.hex, y)).encode() + b"\n")
        assert digest.hexdigest() == RODRIGUES_DIGEST


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
        """zeta = 0 puts the root of the residual at sqrt(q2) = -0.0."""
        with pytest.raises(NoSignChange, match=r"^no level n=0: .* sqrt\(q2\) = -0\.0$"):
            solve_kappa(radial_family(2.0, 0.0, -1.0), 0)

    def test_root_with_a_tau_slope_and_a_quadratic_term(self):
        """sigma = 2A, sigma_tilde = -2 + 3A + A**2/2, tau_tilde = 1 + A:
        b = (1/2, -1/2), q0 = 9/4, q1 = -7/2 and v = -3/2, so the residual
        vanishes at u* = (q1/c - b1) / (2v/c - 1 - 2n) = 5/(10 + 8n),
        and kappa = (u*)**2 - b1**2 + s2: 1/2 at n = 0 and 53/162 at n = 1,
        where both -b1**2 and s2 count."""
        family = NuProblem(2.0, (-2.0, 3.0, 0.5), (1.0, 1.0))
        assert solve_kappa(family, 0) == pytest.approx(0.5, rel=1e-15)
        assert solve_kappa(family, 1) == pytest.approx(53.0 / 162.0, rel=1e-15)

    def test_negative_n_is_refused_by_name(self):
        """n = -1 makes the denominator 2v/c - 1 - 2n vanish on the -1
        branch; it is refused first, as lambda_n refuses it."""
        with pytest.raises(ValueError, match="^n must be non-negative$"):
            solve_kappa(radial_family(0.0, 2.0, -1.0), -1)

    def test_negative_c_is_refused_before_dividing(self):
        """c = -1, sigma_tilde = 2 + A, tau_tilde = 2: v = -1/2 and
        2v/c - 1 - 2n vanishes at n = 0.  No weight with c < 0 decays, and
        the refusal is the one select_branch gives."""
        with pytest.raises(NoBranch, match="^no decaying combination has an admissible weight$"):
            solve_kappa(NuProblem(-1.0, (2.0, 1.0, 0.0), (2.0, 0.0)), 0)

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
        kappa, problem = state.kappa, state.family.at(state.kappa)
        assert kappa == pytest.approx(1.0 / 64.0, rel=1e-10)
        assert state.n == 2
        assert len(rodrigues_y(state.branch, state.n)) == 3
        lam, lam_n = state.branch.lam, state.branch.lam_n(2)
        assert abs(lam - lam_n) <= 1e-10 * (1.0 + abs(lam_n))
        assert state.branch.tau1 < 0.0
        assert problem.sigma_tilde[2] == pytest.approx(-kappa)

    def test_assemble_at_the_root_is_the_solved_state(self):
        family = radial_family(0.0, 2.0, -3.0)
        state = solve_state(family, 1)
        assert assemble(family, state.kappa, 1) == state
        detuned = assemble(family, 1.1 * state.kappa, 1)
        assert detuned.kappa == 1.1 * state.kappa
        assert len(rodrigues_y(detuned.branch, detuned.n)) == 2
        assert abs(detuned.branch.lam - detuned.branch.lam_n(1)) > 1e-3

    def test_full_state_solves_the_transformed_equation(self):
        """psi = phi * y, built exactly from the state's floats, with its
        derivatives exact: every term of the equation, divided by psi's
        exp(rate*A) * A**power, is rational at a rational A."""
        family = radial_family(0.0, 2.0, -3.0)
        state = solve_state(family, 1)
        sigma, sigma_tilde, tau_tilde = polys(state.family.at(state.kappa))
        phi, _ = phi_rho(state.branch)
        psi = exact.term(exact.mul(phi.poly, rodrigues_y(state.branch, state.n)), phi.rate, phi.power)
        d1 = exact.term_derivative(psi)
        d2 = exact.term_derivative(d1)
        assert psi.rate == d1.rate == d2.rate
        for z in RATIONAL_POINTS:
            sig = exact.value(sigma, z)
            p0, p1, p2 = (exact.scaled_value(t, psi.power, z) for t in (psi, d1, d2))
            lhs = p2 + exact.value(tau_tilde, z) / sig * p1 + exact.value(sigma_tilde, z) / (sig * sig) * p0
            assert abs(lhs) <= 1e-8 * (1 + abs(p0))
