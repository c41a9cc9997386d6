"""The Nikiforov-Uvarov pipeline for tau_tilde = 2: branch selection,
integrating factors, Rodrigues polynomials, and eigenvalue quantization."""

import cmath
import hashlib
import math
import random
from fractions import Fraction

import pytest

from phasenu.errors import NoBranch, NoSignChange, RodriguesFailure
from phasenu.nu import (
    RESIDUAL_TOL,
    RODRIGUES_MAX_N,
    NuBranch,
    NuProblem,
    rodrigues_y,
    select_branch,
    assemble,
    solve_kappa,
    solve_state,
)

import exact


def radial_family(omega, zeta, alphadelta):
    """Transformed Coulomb problem less its kappa term, the form the
    quantization takes."""
    return NuProblem(-alphadelta, (-omega, zeta))


def polys(family, kappa):
    """sigma = c A, sigma_tilde = s0 + s1 A - kappa A**2 and tau_tilde = 2
    of the equation at kappa as exact polynomials."""
    s0, s1 = family.sigma_tilde
    return exact.poly((0, family.c)), exact.poly((s0, s1, -kappa)), exact.poly((2,))


def residual_at(family, kappa, n):
    """lambda - lambda_n of the branch selected at kappa: what the gate of
    solve_state reads at the root."""
    branch = select_branch(family, kappa)
    return branch.lam - branch.lam_n(n)


def pi_tau(branch):
    """pi and tau of the branch as exact polynomials."""
    return exact.poly((branch.pi0, branch.pi1)), exact.poly((branch.tau0, branch.tau1))


def phi_rho(branch):
    """The integrating factor phi and the weight rho of the branch as exact
    terms."""
    return tuple(exact.term((1,), *ab) for ab in (branch._factor, branch._weight))


def half_difference(family, kappa):
    """(sigma' - tau_tilde) / 2, exactly."""
    sigma, _, tau_tilde = polys(family, kappa)
    return exact.mul((Fraction(1, 2),), exact.add(exact.derivative(sigma), exact.mul((-1,), tau_tilde)))


#: Rational points of the annulus the identities are checked at.
RATIONAL_POINTS = (Fraction(1, 2), Fraction(7, 10), Fraction(13, 10), Fraction(14, 5), Fraction(49, 10))


def reference_combinations(family, kappa):
    """Every (K, sign) combination as (K, sign, pi, tau), pi and tau as
    (constant, slope) pairs, built from exact polynomial arithmetic and cmath
    alone: K zeroes the discriminant of the radicand
    ((sigma' - tau_tilde)/2)**2 - sigma_tilde + K sigma, whose square root
    u A + v is taken with Re(u) >= 0, from its larger end, and pi is
    (sigma' - tau_tilde)/2 + sign * (u A + v).  K, u and v may be complex,
    so the terms with them are summed coefficient by coefficient."""
    c = family.c
    _, sigma_tilde, tau_tilde = polys(family, kappa)
    base = half_difference(family, kappa)
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
    """Seeded real families, each at a kappa from 1e-3 to 10.  c takes
    either sign, and no weight is admissible where c < 0.  The constant of
    sigma_tilde is at most zero, as -omega is for hydrogen, so q0 =
    b0**2 - s0 >= 0: a negative q0 has complex K, which the complex
    reference would offer and a real equation does not have
    (test_negative_radicand_has_no_branch covers it)."""
    rng = random.Random(seed)
    for _ in range(count):
        c = rng.choice((-1.0, 1.0)) * rng.uniform(0.1, 3.0)
        family = NuProblem(c, (-rng.uniform(0.0, 3.0), rng.uniform(-3.0, 3.0)))
        yield family, 10.0 ** rng.uniform(-3.0, 1.0)


#: The deep branch's ground state, as (family, kappa).
DEEP = radial_family(0.0, 2.0, -3.0), 0.25

#: ``TestRodrigues.test_coefficient_bits_are_pinned``'s digest, as
#: ``rodrigues_y`` computes it in one product per coefficient.
RODRIGUES_DIGEST = "23cd413f80f199546bcf5ab34320abc7242ac1f5454f80c513c64b36c0267f23"


class TestProblemValidation:
    def test_c_zero_and_non_finite_scalars_are_refused(self):
        with pytest.raises(ValueError, match="c must be nonzero"):
            NuProblem(0.0, (0.0, 1.0))
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="non-finite"):
                NuProblem(bad, (0.0, 1.0))
            with pytest.raises(ValueError, match="non-finite"):
                NuProblem(1.0, (0.0, bad))
            with pytest.raises(ValueError, match="non-finite"):
                select_branch(radial_family(0.0, 2.0, -3.0), bad)

    def test_sigma_tilde_holds_two_entries(self):
        """The record holds c and the kappa-free (s0, s1), nothing else."""
        assert NuProblem._fields == ("c", "sigma_tilde")
        for bad in ((), (0.0,), (0.0, 2.0, 0.0)):
            with pytest.raises(ValueError, match=rf"^sigma_tilde must be \(s0, s1\), got {len(bad)} entries$"):
                NuProblem(1.0, bad)

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
                NuProblem(bad, (0.0, 1.0))
            with pytest.raises(ValueError, match="sigma_tilde must be real"):
                NuProblem(1.0, (0.0, bad))
        for bad in (1 + 2j, complex(2.0, 0.0), complex(1.0, -math.inf), True):
            with pytest.raises(ValueError, match=r"^kappa must be real"):
                select_branch(radial_family(0.0, 2.0, -3.0), bad)
        with pytest.raises(ValueError, match="c must be real, got '1'"):
            NuProblem("1", ("0", "2"))
        for bad in (10**400, -(10**400), Fraction(10**400, 3)):
            with pytest.raises(ValueError, match="c is beyond the float range"):
                NuProblem(bad, (0.0, 1.0))
            with pytest.raises(ValueError, match="sigma_tilde is beyond the float range"):
                NuProblem(1.0, (0.0, bad))

    def test_kappa_shift_that_overflows_is_refused(self):
        """A finite kappa whose K is beyond the float range is refused
        naming K: at c = 1e-300 and kappa = 1e300, K = 2 u v / c with
        u = 1e150 and v = -1."""
        family = NuProblem(1e-300, (0.0, 0.0))
        for shifted in (
            lambda kappa: select_branch(family, kappa),
            lambda kappa: assemble(family, kappa, 0),
        ):
            with pytest.raises(ValueError, match=r"^non-finite value not admitted: K = -inf$"):
                shifted(1e300)

    def test_kappa_the_subtraction_refuses_is_named(self):
        """A kappa beyond the float range, complex, non-finite or not a
        number at all, is refused naming kappa, by select_branch and by
        assemble, where the sign test or the square root would raise
        a bare OverflowError or TypeError."""
        family = radial_family(0.0, 2.0, -1.0)
        for shifted in (
            lambda kappa: select_branch(family, kappa),
            lambda kappa: assemble(family, kappa, 0),
        ):
            for bad in (10**400, Fraction(10**400, 3)):
                with pytest.raises(ValueError, match="kappa is beyond the float range"):
                    shifted(bad)
            for bad in ("x", None, 1j):
                with pytest.raises(ValueError, match=f"^kappa must be real, got {bad!r}$"):
                    shifted(bad)
            for bad in (math.nan, math.inf):
                with pytest.raises(ValueError, match=f"^non-finite value not admitted: kappa = {bad!r}$"):
                    shifted(bad)

    def test_family_instantiation(self):
        family = radial_family(0.0, 2.0, -3.0)
        assert family == NuProblem(3, (0, 2))
        assert all(type(s) is float for s in (family.c, *family.sigma_tilde))
        assert math.copysign(1.0, family.sigma_tilde[0]) == -1.0

    def test_kappa_shift_has_the_bits_of_poly_arithmetic(self):
        """kappa enters only as -kappa A**2: in the exact radicand
        ((sigma' - 2)/2)**2 - sigma_tilde, q2 is kappa and q1 is -s1, so
        on the kappa grid and at a few kappa with zeta = 0 too, pi' is
        -sqrt(kappa) rounded once, tau' is 2 pi', and tau0 is 2 + 2 pi0
        rounded once."""
        cases = list(grid_problems())
        cases += [(radial_family(0.0, zeta, -1.0), k) for zeta in (0.0, 2.0) for k in (1e-300, 0.5, 3.0)]
        for family, kappa in cases:
            base = half_difference(family, kappa)
            _, sigma_tilde, _ = polys(family, kappa)
            q = exact.add(exact.mul(base, base), exact.mul((-1,), sigma_tilde))
            assert exact.coefficient(q, 2) == Fraction(kappa)
            assert exact.coefficient(q, 1) == -Fraction(family.sigma_tilde[1])
            branch = select_branch(family, kappa)
            assert branch.pi1 == -math.sqrt(kappa) and branch.tau1 == 2.0 * branch.pi1
            assert branch.tau0 == float(2 + 2 * Fraction(branch.pi0))


class TestKCandidates:
    """The K roots select_branch tries, and the one it takes."""

    def test_deep_branch_pair(self):
        roots = [K for K, sign, *_ in reference_combinations(*DEEP) if sign == -1]
        assert roots == [pytest.approx(0.5), pytest.approx(5.0 / 6.0)]
        assert select_branch(*DEEP).K == pytest.approx(0.5)

    def test_higher_angular_momentum(self):
        branch = select_branch(radial_family(2.0, 2.0, -3.0), 1.0 / 9.0)
        assert branch.K == pytest.approx(1.0 / 3.0)

    def test_already_square_radicand(self):
        """sigma = A, sigma_tilde = 1/4 - A**2: the radicand is A**2, a
        square already, so K = 0 is a double root."""
        family = NuProblem(1.0, (0.25, 0.0))
        assert select_branch(family, 1.0).K == 0j
        found = reference_combinations(family, 1.0)
        assert [K for K, sign, *_ in found if sign == -1] == [0j, 0j]


class TestSelectBranch:
    def test_deep_branch_preferred_combo(self):
        branch = select_branch(*DEEP)
        assert branch.K == pytest.approx(0.5)
        assert (branch.pi0, branch.pi1) == pytest.approx((1.0, -0.5))
        assert (branch.tau0, branch.tau1) == pytest.approx((4.0, -1.0))

    def test_configuration_branch(self):
        branch = select_branch(radial_family(0.0, 2.0, -1.0), 1.0)
        assert (branch.tau0, branch.tau1) == pytest.approx((2.0, -2.0))

    def test_always_decaying_tau(self):
        for kappa in (0.04, 0.25, 1.0, 4.0):
            for alphadelta in (-1.0, -3.0):
                branch = select_branch(radial_family(2.0, 2.0, alphadelta), kappa)
                assert branch.tau1 < 0.0

    def test_negative_radicand_has_no_branch(self):
        """A real equation has a real K only where q0 = b0**2 - s0 is
        non-negative: sigma = A, sigma_tilde = 1 - kappa A^2 has b0 = -1/2
        and q0 = -3/4, so K would be complex."""
        with pytest.raises(NoBranch, match=r"radicand q0 = b0\*\*2 - s0 = -0\.75 is negative"):
            select_branch(NuProblem(1.0, (1.0, 0.0)), 1.0)

    def test_vanishing_radicand_has_no_branch(self):
        """sigma = 2A, sigma_tilde = 0 at kappa = 0: the radicand is
        identically zero, so u = v = 0, pi = 0 and tau' = 0, which does
        not decay, and a negative kappa has no real pi'.  Each is refused
        as kappa <= 0, before the radicand is formed."""
        family = NuProblem(2.0, (0.0, 0.0))
        for kappa in (0.0, -0.0, -1.0, -5e-324):
            with pytest.raises(ValueError, match="^kappa must be positive$"):
                select_branch(family, kappa)

    def test_no_admissible_weight_has_no_branch(self):
        """sigma = -A, sigma_tilde = -A^2: tau' = -2 decays for both
        combinations, but over c = -1 the rate of rho is +2, so neither
        weight is admissible, in exact arithmetic too."""
        with pytest.raises(
            NoBranch, match="no decaying combination has an admissible weight"
        ):
            select_branch(NuProblem(-1.0, (0.0, 0.0)), 1.0)

    def test_tied_K_takes_the_exact_order(self):
        """sigma = 4A, sigma_tilde = 1e20 A - A^2: b0 = 1, u = 1 and
        v = +/-1, so K = (1e20 +/- 2)/4, which round to the same float.
        Exact arithmetic puts v = -1 first, and its weight power +0.5 is
        admissible; v = +1 would give pi0 = 0 and power -0.5."""
        assert (1e20 + 2.0) / 4.0 == (1e20 - 2.0) / 4.0
        branch = select_branch(NuProblem(4.0, (0.0, 1e20)), 1.0)
        assert (branch.pi0, branch.tau0) == (2.0, 6.0)
        assert branch._weight == (-0.5, 0.5)

    def test_pi_slope_keeps_its_digits_at_small_kappa(self):
        """sigma = A, sigma_tilde = 2A - kappa A^2: pi' is -sqrt(kappa) bit
        for bit where the K quadratic's discriminant cancels (4e-8 relative
        at 1e-10 when K came from that quadratic)."""
        for kappa in (1e-4, 1e-6, 1e-8, 1e-10):
            assert select_branch(NuProblem(1.0, (0.0, 2.0)), kappa).pi1 == -math.sqrt(kappa)

    def test_matches_the_reference_rule(self):
        """On the kappa grid and on seeded random real problems, the
        returned combination has the defining properties of the choice:
        (pi - base)**2 is the radicand q + K c A to rounding, tau decays
        and the weight is admissible, and no combination of the reference
        with a smaller K passes both tests.  NoBranch is raised only where
        no combination of the reference passes them."""
        selected = refused = 0
        for family, kappa in [*grid_problems(), *random_problems(400, seed=8)]:
            c = family.c
            found = reference_combinations(family, kappa)
            try:
                branch = select_branch(family, kappa)
            except NoBranch:
                assert not any(
                    decays_with_admissible_weight(c, tau, 1e-9) for *_, tau in found
                )
                refused += 1
                continue
            sigma, sigma_tilde, tau_tilde = polys(family, kappa)
            base = half_difference(family, kappa)
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
        assert selected > 800 and refused > 150


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
        rate, power = select_branch(*DEEP)._factor
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
        branch = select_branch(*DEEP)
        phi, _ = phi_rho(branch)
        pi, _ = pi_tau(branch)
        d = exact.term_derivative(phi)
        assert d.rate == phi.rate
        for z in RATIONAL_POINTS:
            lhs = exact.scaled_value(d, phi.power, z) / exact.scaled_value(phi, phi.power, z)
            rhs = exact.value(pi, z) / (Fraction(DEEP[0].c) * z)
            assert abs(lhs - rhs) <= 1e-12 * (1 + abs(rhs))

    def test_rho_deep_branch(self):
        rate, power = select_branch(*DEEP)._weight
        assert rate == pytest.approx(-1.0 / 3.0)
        assert power == pytest.approx(1.0 / 3.0)

    def test_rho_trivial_when_tau_is_sigma_prime(self):
        branch = NuBranch(c=3.0, K=0.0, pi0=0.0, pi1=0.0, tau0=3.0, tau1=0.0)
        rate, power = branch._weight
        assert rate == 0.0
        assert power == pytest.approx(0.0)

    def test_rho_configuration_branch(self):
        rate, power = select_branch(radial_family(0.0, 2.0, -1.0), 1.0)._weight
        assert rate == pytest.approx(-2.0)
        assert power == pytest.approx(1.0)

    def test_rho_pearson_identity(self):
        """(sigma rho)' = tau rho, with the exact derivative, both sides
        divided by rho's exp(rate*A) * A**power."""
        branch = select_branch(*DEEP)
        _, rho = phi_rho(branch)
        _, tau = pi_tau(branch)
        d = exact.term_derivative(exact.term((0, DEEP[0].c), *branch._weight))
        assert d.rate == rho.rate
        for z in RATIONAL_POINTS:
            lhs = exact.scaled_value(d, rho.power, z)
            rhs = exact.value(tau, z) * exact.value(rho.poly, z)
            assert abs(lhs - rhs) <= 1e-12 * (1 + abs(rhs))


class TestRodrigues:
    def test_degree_zero_is_one(self):
        assert rodrigues_y(select_branch(*DEEP), 0) == (1.0,)

    def test_first_polynomial_proportional_to_tau(self):
        branch = select_branch(*DEEP)
        y = rodrigues_y(branch, 1)
        ratio = y[0] / branch.tau0
        assert abs(y[1] - ratio * branch.tau1) <= 1e-10 * abs(ratio)

    def test_first_polynomial_on_configuration_branch(self):
        y = rodrigues_y(select_branch(radial_family(0.0, 2.0, -1.0), 1.0), 1)
        assert y[0] / y[1] == pytest.approx(-1.0)

    def test_matches_the_derivative_chain(self):
        """(1 / rho) d^n/dA^n [sigma**n rho], the derivatives taken exactly
        in the exponential-power family, for the weight of the branch."""
        for family, kappa in (DEEP, (radial_family(2.0, 2.0, -3.0), 2.0 / 81.0)):
            branch = select_branch(family, kappa)
            rate, power = branch._weight
            for n in range(7):
                term = exact.term((0,) * n + (family.c**n,), rate, power)
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
        """sigma = A, sigma_tilde = 1/4 - 100 A^2: rho = e^{-20 A}, and the
        largest coefficient of y is 7.4e303 at n = 150 and beyond the float
        range at n = 160."""
        branch = select_branch(NuProblem(1.0, (0.25, 0.0)), 100.0)
        assert branch._weight == (-20.0, 0.0)
        y = rodrigues_y(branch, 150)
        assert len(y) == 151 and y[-1] != 0.0
        assert all(map(math.isfinite, y))
        with pytest.raises(RodriguesFailure, match="overflows at n=160"):
            rodrigues_y(branch, 160)

    def test_levels_past_the_factorial_bound_are_refused(self):
        """y's constant coefficient carries (b + n)...(b + 1) >= n! for the
        weight power b >= 0 of every branch, and 171! is beyond the float
        range: n = 171 is refused on both labels, with the text the full
        product gives, while at b = 0 and a slow rate y is still built at
        n = 170."""
        branch = select_branch(NuProblem(1.0, (0.25, 0.0)), 2.25e-4)
        assert branch._weight[1] == 0.0
        y = rodrigues_y(branch, RODRIGUES_MAX_N)
        assert len(y) == 171 and all(map(math.isfinite, y)) and y[-1] != 0.0
        for alphadelta in (-1.0, -3.0):
            state = solve_state(radial_family(0.0, 2.0, alphadelta), 171)
            with pytest.raises(RodriguesFailure, match="^a Rodrigues coefficient overflows at n=171$"):
                rodrigues_y(state.branch, 171)

    def test_underflowing_leading_coefficient_is_an_error(self):
        """sigma = A, sigma_tilde = 1/4 - 1e-200 A^2: tau' = -2e-100, whose
        fourth power underflows to zero, so y falls short of degree 4.  At
        c = tau' = 1e-200 every coefficient underflows: the zero polynomial
        has degree -1."""
        branch = select_branch(NuProblem(1.0, (0.25, 0.0)), 1e-200)
        with pytest.raises(RodriguesFailure, match="degree 3, expected 4"):
            rodrigues_y(branch, 4)
        branch = NuBranch(1e-200, 0.0, 0.0, 0.0, 1e-200, -1e-200)
        with pytest.raises(RodriguesFailure, match="^Rodrigues output has degree -1, expected 2$"):
            rodrigues_y(branch, 2)

    def test_polynomial_solves_the_reduced_equation(self):
        """sigma y'' + tau y' + lambda_n y vanishes for Rodrigues output, at
        more rational points than the degree of y, so identically."""
        family, kappa = radial_family(2.0, 2.0, -3.0), 2.0 / 81.0
        branch = select_branch(family, kappa)
        sigma, _, _ = polys(family, kappa)
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
                        family = radial_family(L * (L + 1), zeta, alphadelta)
                        y = rodrigues_y(select_branch(family, kappa), n)
                        digest.update(" ".join(map(float.hex, y)).encode() + b"\n")
        assert digest.hexdigest() == RODRIGUES_DIGEST


class TestQuantization:
    def test_residual_sign_structure(self):
        family = radial_family(0.0, 2.0, -3.0)
        assert abs(residual_at(family, 0.25, 0)) < 1e-12
        assert residual_at(family, 0.16, 0) > 0.0
        assert residual_at(family, 0.36, 0) < 0.0

    def test_residual_requires_positive_kappa(self):
        family = radial_family(0.0, 2.0, -3.0)
        with pytest.raises(ValueError, match="^kappa must be positive$"):
            assemble(family, 0.0, 0)

    def test_residual_monotone_in_sqrt_kappa(self):
        family = radial_family(0.0, 2.0, -3.0)
        values = [
            residual_at(family, (0.1 + 0.9 * i / 99.0) ** 2, 0) for i in range(100)
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
        """zeta = 0 puts the root of the residual at sqrt(q2) = 0.0."""
        with pytest.raises(NoSignChange, match=r"^no level n=0: .* sqrt\(q2\) = 0\.0$"):
            solve_kappa(radial_family(2.0, 0.0, -1.0), 0)

    def test_root_off_the_two_labels(self):
        """At c = 1/2, 2 and 4 the written-down root is the closed form
        kappa = zeta^2 / (4 d^2), d = [c (2n + 1) + sqrt((c - 2)^2 +
        4 omega)] / 2, which no integer d constrains off the two labels."""
        for c in (0.5, 2.0, 4.0):
            for omega in (0.0, 6.0):
                for n in (0, 1, 7):
                    d = (c * (2 * n + 1) + math.sqrt((c - 2.0) ** 2 + 4.0 * omega)) / 2.0
                    kappa = solve_kappa(NuProblem(c, (-omega, 2.0)), n)
                    assert kappa == pytest.approx(1.0 / (d * d), rel=1e-14)

    def test_negative_n_is_refused_by_name(self):
        """n = -1 makes the denominator 2v/c - 1 - 2n vanish on the -1
        branch; it is refused first, as lambda_n refuses it."""
        with pytest.raises(ValueError, match="^n must be non-negative$"):
            solve_kappa(radial_family(0.0, 2.0, -1.0), -1)

    def test_negative_c_is_refused_before_dividing(self):
        """c = -1, sigma_tilde = 2 + A - kappa A^2: v = -1/2 and
        2v/c - 1 - 2n vanishes at n = 0.  No weight with c < 0 decays, and
        the refusal is the one select_branch gives."""
        with pytest.raises(NoBranch, match="^no decaying combination has an admissible weight$"):
            solve_kappa(NuProblem(-1.0, (2.0, 1.0)), 0)

    @pytest.mark.parametrize("c, s0, n", [(1.0, 0.0, 0), (1.0, 0.0, 7), (3.0, -2.0, 4)])
    def test_gate_scale_is_the_terms_the_residual_sums(self, monkeypatch, c, s0, n):
        """solve_state's gate admits a residual of 0.999 RESIDUAL_TOL (1 +
        |K| + |pi'| + |lambda_n|), at the K, pi' and lambda_n of the branch
        it assembles, and refuses 1.001 times that."""
        family = NuProblem(c, (s0, 2.0))
        kappa = solve_kappa(family, n)
        for factor in (0.999, 1.001):

            class Off(NuBranch):
                """The selected branch, with lambda that far from lambda_n."""

                __slots__ = ()

                @property
                def lam(self):
                    lam_n = self.lam_n(n)
                    scale = 1.0 + abs(self.K) + abs(self.pi1) + abs(lam_n)
                    return lam_n + factor * RESIDUAL_TOL * scale

            monkeypatch.setattr(
                "phasenu.nu.select_branch", lambda family, kappa: Off(*select_branch(family, kappa))
            )
            if factor < 1.0:
                assert solve_state(family, n).kappa == kappa
            else:
                with pytest.raises(NoSignChange, match="is out of tolerance$"):
                    solve_state(family, n)

    def test_configuration_ground_state_is_exact(self):
        state = solve_state(radial_family(0.0, 2.0, -1.0), 0)
        assert state.kappa == 1.0

    def test_residual_is_that_of_the_selected_branch(self):
        """The branch the gate reads is the one select_branch returns for
        the equation at kappa, bit for bit, on a log grid of kappa from
        1e-6 to 10, and its lambda - lambda_n is u (2v/c - 1 - 2n) - q1/c,
        u = sqrt(kappa), the affine form whose root solve_kappa writes
        down, to the rounding of the terms it sums."""
        for family, kappa in grid_problems():
            branch = select_branch(family, kappa)
            c, (s0, s1) = family
            v = -math.sqrt((0.5 * (c - 2.0)) ** 2 - s0)
            for n in (0, 3):
                assert assemble(family, kappa, n).branch == branch
                want = math.sqrt(kappa) * (2.0 * v / c - 1.0 - 2.0 * n) + s1 / c
                scale = 1.0 + abs(branch.K) + abs(branch.pi1) + abs(branch.lam_n(n))
                assert abs(residual_at(family, kappa, n) - want) <= 1e-15 * scale

    def test_solve_state_assembly(self):
        state = solve_state(radial_family(0.0, 2.0, -3.0), 2)
        kappa = state.kappa
        assert kappa == pytest.approx(1.0 / 64.0, rel=1e-10)
        assert state.n == 2
        assert len(rodrigues_y(state.branch, state.n)) == 3
        lam, lam_n = state.branch.lam, state.branch.lam_n(2)
        assert abs(lam - lam_n) <= 1e-10 * (1.0 + abs(lam_n))
        assert state.branch.tau1 < 0.0

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
        sigma, sigma_tilde, tau_tilde = polys(state.family, state.kappa)
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
