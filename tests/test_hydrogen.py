"""Phase-space hydrogen pipeline: radial family, spectra on both
perfect-square branches, wavefunction assembly, and the recovery rule."""

import cmath
import collections
import functools
import hashlib
import inspect
import math
import re
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phasenu import hydrogen, nu
from phasenu.errors import (
    LevelTooHigh,
    NoSignChange,
    RodriguesFailure,
    UnsupportedBranch,
    UnsupportedRecovery,
)
from phasenu.hydrogen import (
    BRANCHES,
    CONFIG_SPACE_POINT,
    DEEP_BRANCH_POINT,
    SAMPLE_FRACTIONS,
    PhysicalParams,
    assemble_wavefunction,
    branch_of,
    build_radial_family,
    canonical_config,
    check_point,
    closed_form_energy,
    eval_wavefunction,
    ode_residual,
    recover_configuration_space,
    solve_energy,
)
from phasenu.numeric import ExpPowerTerm, Poly
from phasenu.nu import assemble, rodrigues_y, solve_state
from phasenu.opspace import MANIFOLD_TOL, OpPoint, manifold_point

import exact

ATOMIC = PhysicalParams()

RESIDUAL_UNITS = {
    "atomic": ATOMIC,
    "hbar30": PhysicalParams(hbar=30.0),
    "scaled": PhysicalParams(
        mass=2.5, hbar=1.7, coulomb_constant=0.8, charge_squared=1.3
    ),
}

#: The unit systems of scripts/output_digest.py.
DIGEST_UNITS = {**RESIDUAL_UNITS, "muonic": PhysicalParams(mass=186.0)}

#: Where the operator identities of the half-transform are checked: four
#: manifold points, two states (n, L) and five samples (r, p).  At the deep
#: point every sample keeps |Im A| >= 0.3, off the cut of A**(1/3).
OPERATOR_POINTS = (CONFIG_SPACE_POINT, DEEP_BRANCH_POINT, OpPoint(3.0, 1.0, -2.0, -1.0),
                   OpPoint(1.0, 1.0, -2.0, -3.0))
OPERATOR_STATES = ((0, 0), (2, 1))
OPERATOR_SAMPLES = ((0.7, 0.3), (1.3, -0.4), (2.1, 0.9), (0.4, 1.1), (3.0, -1.2))


def exact_chain(family, n):
    """kappa, (K, pi0, pi1, tau0, tau1) and the y coefficients of level n
    as Fractions of the family's float scalars.  kappa = u*^2 with u* =
    zeta / (2 d) and d = [c (2n + 1) + sqrt((c - 2)^2 + 4 omega)] / 2, the
    closed form, whose square root is the integer 2L + 1 on both labels;
    then K = (2 u v - q1) / c with v = -sqrt(q0) = -(2L + 1)/2 and q1 =
    -zeta, pi = (b0 - v, -u) with b0 = (c - 2)/2, tau = 2 + 2 pi, and y by
    the Leibniz rule for the weight exp((tau1/c) A) A**((tau0 - c)/c)."""
    c, (s0, zeta) = Fraction(family.c), map(Fraction, family.sigma_tilde)
    square = (c - 2) ** 2 - 4 * s0
    root = math.isqrt(int(square))
    assert root * root == square
    u = zeta / (c * (2 * n + 1) + root)
    v = Fraction(-root, 2)
    pi0, pi1 = (c - 2) / 2 - v, -u
    branch = ((2 * u * v + zeta) / c, pi0, pi1, 2 + 2 * pi0, 2 * pi1)
    a, b = branch[4] / c, (branch[3] - c) / c
    y = [Fraction(0)] * (n + 1)
    binomial, falling = Fraction(1), Fraction(1)
    for j in range(n, -1, -1):
        y[j] = c**n * binomial * a**j * falling
        falling *= b + j
        binomial = binomial * j / (n - j + 1)
    return u * u, branch, y


def ulps(x, exact):
    """|x - exact| in units in the last place of ``exact`` rounded."""
    return abs(Fraction(x) - exact) / Fraction(math.ulp(float(exact)))


#: ``TestSamplesAndResiduals.test_chain_bits_are_pinned``'s digest, the one
#: the wider solver gave at tau_tilde = (2, 0) and an A**2 coefficient of 0.
CHAIN_DIGEST = "038a8886f21b02b548e59a8393ccb0904d0649ee31e308e2f429d01b49ac0a4b"


#: Half-decade masses from 1e6 to 1e12: zeta from 2e6 to 2e12, where the
#: float rounding of K + pi' - lambda_n grows with K.
HEAVY_MASSES = tuple(10.0 ** (6 + k / 2) for k in range(13))


def heavy_levels():
    """(family, n, kappa of the closed form) on both labels, L 0..5 and
    n 0..10 at each of HEAVY_MASSES: 1,716 levels."""
    for mass in HEAVY_MASSES:
        for alphadelta in BRANCHES:
            for L in range(6):
                params = PhysicalParams(mass=mass, angular_momentum=L)
                family = build_radial_family(params, alphadelta)
                for n in range(11):
                    energy = closed_form_energy(params, n, alphadelta)
                    yield family, n, -2.0 * mass * energy


@functools.cache
def solved_and_detuned(units, alphadelta):
    """Solved and 1.1*kappa-detuned states, L 0..5, n in {0, 1, 5, 20, 40}."""
    states = []
    for L in range(6):
        params = PhysicalParams(*RESIDUAL_UNITS[units][:4], angular_momentum=L)
        family = build_radial_family(params, alphadelta)
        for n in (0, 1, 5, 20, 40):
            state = solve_state(family, n)
            states += [state, assemble(family, 1.1 * state.kappa, n)]
    return states


def exact_laguerre(n, alpha, x):
    """L_n^(alpha)(x) in Fractions from its explicit sum
    sum_j (-1)^j C(n + alpha, n - j) x^j / j!; zero for n < 0."""
    total, binomial = Fraction(0), Fraction(1)
    for j in range(n, -1, -1):
        total += (-1) ** j * binomial * x**j / math.factorial(j)
        binomial = binomial * (alpha + j) / (n - j + 1)
    return total


class TestParams:
    def test_defaults_are_atomic_units(self):
        assert ATOMIC.mass == 1.0
        assert ATOMIC.hbar == 1.0
        assert ATOMIC.coulomb_constant == 1.0
        assert ATOMIC.charge_squared == 1.0
        assert ATOMIC.angular_momentum == 0

    def test_positivity_enforced(self):
        """A zero constant is refused by its own name, not by zeta's."""
        for name, value in (("mass", 0.0), ("hbar", -1.0), ("hbar", 0.0)):
            with pytest.raises(ValueError, match=f"^{name} must be finite and positive$"):
                PhysicalParams(**{name: value})

    @pytest.mark.parametrize("name", ["mass", "hbar", "coulomb_constant", "charge_squared"])
    @pytest.mark.parametrize("value", [math.inf, math.nan])
    def test_constants_must_be_finite(self, name, value):
        """An infinite hbar would give zeta = 0 and a misleading
        NoSignChange, an infinite mass a late failure in the solver."""
        with pytest.raises(ValueError, match=f"{name} must be finite and positive"):
            PhysicalParams(**{name: value})

    @pytest.mark.parametrize("name", ["mass", "hbar", "coulomb_constant", "charge_squared"])
    @pytest.mark.parametrize(
        "value, message",
        [
            ("1", "must be real, got '1'"),
            (1j, "must be real, got 1j"),
            (None, "must be real, got None"),
            (10**400, "is beyond the float range: int too large to convert to float"),
            (True, "must be real, got True"),
        ],
        ids=["str", "complex", "None", "huge-int", "True"],
    )
    def test_constants_are_refused_by_name(self, name, value, message):
        """A string, a complex number or None failed on the comparison
        with a TypeError, and an int beyond the float range with a bare
        OverflowError from zeta; each now names the constant.  True is an
        int, so a Real, and solved as 1."""
        with pytest.raises(ValueError, match=f"^{name} {re.escape(message)}$"):
            PhysicalParams(**{name: value})

    @pytest.mark.parametrize(
        "constants",
        [
            {"hbar": 1e-200},  # hbar^2 underflows to zero
            {"mass": 1e300, "hbar": 1e-10},  # zeta overflows
            {"hbar": 1e200},  # hbar^2 overflows, zeta underflows to zero
        ],
    )
    def test_zeta_must_be_finite_and_positive(self, constants):
        """Each constant passes its own check; the derived zeta is refused
        by name instead of dividing by zero or overflowing later."""
        with pytest.raises(ValueError, match="zeta = 2 e2 k m / hbar\\^2 must be finite"):
            PhysicalParams(**constants)

    def test_angular_momentum_beyond_the_float_range_is_named(self):
        """omega = L(L+1) raised a bare OverflowError once L(L+1) passed the
        largest float.  The last L below it is admitted; the next, and an L
        too long to print, are refused by name, and the message leaves L
        out."""
        top = math.isqrt(int(sys.float_info.max))
        while top * (top + 1) > sys.float_info.max:
            top -= 1
        assert math.isfinite(PhysicalParams(angular_momentum=top).omega)
        message = "^angular_momentum is too large: L\\(L\\+1\\) is beyond the float range$"
        for L in (top + 1, 10**5000):
            with pytest.raises(ValueError, match=message):
                PhysicalParams(angular_momentum=L)

    @pytest.mark.parametrize(
        "constants, kappa",
        [({"hbar": 1e-150}, "inf"), ({"hbar": 1e150}, "0.0"), ({"mass": 1e-300, "hbar": 1e10}, "0.0")],
    )
    def test_kappa_beyond_the_float_range_is_named(self, constants, kappa):
        """hbar = 1e-150 gives zeta = 2e300, and the ground-state kappa =
        zeta^2 / 4 overflows; zeta = 2e-300 (or the subnormal 2e-320) puts
        it far below the smallest float.  Either is named with n, where the
        written-down kappa would read inf or be refused as not positive."""
        with pytest.raises(
            NoSignChange,
            match=f"^level n=0 lies at kappa = {kappa}, outside the positive float range$",
        ):
            solve_energy(PhysicalParams(**constants), 0, -1.0)

    @pytest.mark.parametrize("hbar", [2e-77, 2.3e-77])
    def test_kappa_near_the_float_limit_solves(self, hbar):
        """hbar = 2e-77 leaves zeta^2 / 4 = 6.25e306 finite, which the
        search's ceiling 10 zeta^2 refused."""
        params = PhysicalParams(hbar=hbar)
        assert solve_energy(params, 0, -1.0) == pytest.approx(
            closed_form_energy(params, 0, -1.0), rel=1e-14
        )

    def test_angular_momentum_must_be_whole(self):
        with pytest.raises(ValueError):
            PhysicalParams(angular_momentum=-1)
        with pytest.raises(ValueError):
            PhysicalParams(angular_momentum=1.5)
        for flag in (True, False):  # ints too: True solved as L = 1
            with pytest.raises(ValueError, match="^angular_momentum must be a non-negative integer$"):
                PhysicalParams(angular_momentum=flag)

    def test_derived_constants(self):
        assert ATOMIC.omega == 0.0
        assert ATOMIC.zeta == pytest.approx(2.0)
        assert PhysicalParams(angular_momentum=1).omega == pytest.approx(2.0)

    def test_kappa_energy_maps_are_inverse(self):
        """energy_of_kappa inverts kappa = -2 m E / hbar^2."""
        assert ATOMIC.energy_of_kappa(1.0) == pytest.approx(-0.5)
        params = PhysicalParams(mass=2.5, hbar=1.7)
        kappa = -2.0 * params.mass * -0.37 / params.hbar**2
        assert params.energy_of_kappa(kappa) == pytest.approx(-0.37)


class TestBranches:
    def test_perfect_square_products(self):
        branches = tuple(BRANCHES)
        assert -1.0 in branches
        assert -3.0 in branches

    def test_radicand_is_odd_square(self):
        for alphadelta in BRANCHES:
            for L in range(6):
                omega = L * (L + 1)
                assert (alphadelta + 2) ** 2 + 4 * omega == (2 * L + 1) ** 2

    def test_family_coefficients(self):
        """c = -alphadelta and sigma_tilde's kappa-free (-omega, zeta);
        tau_tilde = 2 and -kappa A**2 are the solver's own."""
        family = build_radial_family(ATOMIC, -3.0)
        assert family == nu.NuProblem(3.0, (-0.0, 2.0))

    def test_family_shallow_branch(self):
        family = build_radial_family(ATOMIC, -1.0)
        assert family.c == 1 + 0j

    def test_family_higher_angular_momentum(self):
        family = build_radial_family(PhysicalParams(angular_momentum=1), -3.0)
        assert family.sigma_tilde[0] == -2 + 0j

    def test_branch_of_tolerates_rounding(self):
        assert branch_of(-3.0) == -3.0
        assert branch_of(-3.0000000000000004) == -3.0
        assert branch_of(-3.0 - 2e-12) == -3.0  # the window is relative: 3e-12 at -3
        assert branch_of(-1.0 + 1e-13) == -1.0
        for far in (-2.0, -3.0 + 1e-9, -3.0 - 4e-12, 0.0, float("nan")):
            with pytest.raises(UnsupportedBranch):
                branch_of(far)

    def test_family_rejects_zero_product(self):
        with pytest.raises(UnsupportedBranch):
            build_radial_family(ATOMIC, 0.0)

    @pytest.mark.parametrize("alphadelta", [-2.0, 0.0, 1.0])
    def test_solver_refuses_products_off_the_branches(self, alphadelta):
        """build_radial_family resolves the branch, so the solver refuses
        what closed_form_energy and the CLI refuse."""
        with pytest.raises(UnsupportedBranch):
            build_radial_family(ATOMIC, alphadelta)
        with pytest.raises(UnsupportedBranch):
            solve_energy(ATOMIC, 0, alphadelta)

    def test_solver_snaps_a_product_one_ulp_off_the_branch(self):
        for L in range(3):
            params = PhysicalParams(angular_momentum=L)
            for n in (0, 1, 5):
                exact = solve_energy(params, n, -3.0)
                assert solve_energy(params, n, -3.0000000000000004).hex() == exact.hex()


class TestSpectra:
    def test_closed_form_deep_branch(self):
        assert closed_form_energy(ATOMIC, 0, -3.0) == pytest.approx(-0.125)
        assert closed_form_energy(ATOMIC, 1, -3.0) == pytest.approx(-0.02)

    def test_closed_form_shallow_branch(self):
        assert closed_form_energy(ATOMIC, 0, -1.0) == pytest.approx(-0.5)

    @pytest.mark.parametrize(
        "units",
        [
            ATOMIC,
            PhysicalParams(hbar=30.0),
            PhysicalParams(mass=2.5, hbar=1.7, coulomb_constant=0.8, charge_squared=1.3),
            PhysicalParams(mass=186.0),
        ],
        ids=["atomic", "hbar30", "scaled", "muonic"],
    )
    def test_closed_form_denominator_is_the_integer_d(self, units):
        """d(n, L; c) in floats is exactly n + L + 1 at c = 1 and L + 3n + 2
        at c = 3, so the energy has the bits of the integer-d formula."""
        integer_d = {-1.0: lambda n, L: n + L + 1, -3.0: lambda n, L: L + 3 * n + 2}
        num = units.charge_squared**2 * units.coulomb_constant**2 * units.mass
        for L in range(61):
            params = PhysicalParams(*units[:4], angular_momentum=L)
            for alphadelta, d_of in integer_d.items():
                for n in range(61):
                    d = d_of(n, L)
                    want = -num / (2.0 * params.hbar**2 * d * d)
                    assert closed_form_energy(params, n, alphadelta) == want, (n, L)

    def test_closed_form_rejects_other_products(self):
        with pytest.raises(UnsupportedBranch):
            closed_form_energy(ATOMIC, 0, -2.0)

    def test_solver_ground_states(self):
        assert solve_energy(ATOMIC, 0, -3.0) == pytest.approx(-0.125, rel=1e-10)
        p1 = PhysicalParams(angular_momentum=1)
        assert solve_energy(p1, 0, -3.0) == pytest.approx(-1.0 / 18.0, rel=1e-10)

    def test_cross_branch_degeneracy(self):
        """The shallow n=1 level coincides with the deep (0, 0) level."""
        assert solve_energy(ATOMIC, 1, -1.0) == pytest.approx(-0.125, rel=1e-10)

    def test_solver_tracks_closed_form_off_default_units(self):
        params = PhysicalParams(charge_squared=2.0)
        want = closed_form_energy(params, 0, -1.0)
        assert want == pytest.approx(-2.0)
        assert solve_energy(params, 0, -1.0) == pytest.approx(want, rel=1e-10)

    @pytest.mark.parametrize("units", [ATOMIC, PhysicalParams(hbar=30.0)])
    def test_deep_levels_track_the_closed_form(self, units):
        for alphadelta in BRANCHES:
            for L in (0, 3):
                params = PhysicalParams(*units[:4], angular_momentum=L)
                for n in (0, 5, 20, 40):
                    want = closed_form_energy(params, n, alphadelta)
                    got = solve_energy(params, n, alphadelta)
                    assert got == pytest.approx(want, rel=1e-10), (alphadelta, L, n)

    def test_median_residual_evaluations_per_state(self, monkeypatch):
        """Over n 0..40, L 0..5, both branches, and masses 1, 186 and 900,
        every state takes one evaluation, the gate's on the one branch
        solve_state selects: the residual is affine in sqrt(q2), so its
        root is written down (a Brent-Dekker search in sqrt(kappa) took 3
        or 4, one in kappa itself up to 51)."""
        counts = []
        original = nu.select_branch

        def counted(family, kappa):
            counts[-1] += 1
            return original(family, kappa)

        monkeypatch.setattr(nu, "select_branch", counted)
        for mass in (1.0, 186.0, 900.0):
            for alphadelta in BRANCHES:
                for L in range(6):
                    params = PhysicalParams(mass=mass, angular_momentum=L)
                    for n in range(41):
                        counts.append(0)
                        got = solve_energy(params, n, alphadelta)
                        want = closed_form_energy(params, n, alphadelta)
                        assert got == pytest.approx(want, rel=1e-14), (mass, L, n)
        assert len(counts) == 1476
        assert set(counts) == {1}

    def test_heavy_levels_pass_the_gate(self):
        """The gate scales with the terms of K + pi' - lambda_n, whose float
        rounding grows with K ~ zeta: at m = 1e6, n = 0 and L = 2 on the -1
        branch, kappa = 111111111111.1111 is right to every digit and
        the residual reads 1.7e-10, which a bound of 1e-10 (1 +
        |lambda_n|) refused."""
        for family, n, want in heavy_levels():
            assert nu.solve_state(family, n).kappa == pytest.approx(want, rel=1e-14)

    @pytest.mark.parametrize("detuning", [1e-9, -1e-9])
    def test_detuned_heavy_levels_fail_the_gate(self, monkeypatch, detuning):
        """A branch selected at kappa (1 + detuning) instead of the
        written-down kappa leaves solve_kappa's root as it is, and its
        residual is out of solve_state's tolerance at every heavy level."""
        original = nu.select_branch

        def detuned(family, kappa):
            return original(family, kappa * (1.0 + detuning))

        monkeypatch.setattr(nu, "select_branch", detuned)
        for family, n, want in heavy_levels():
            assert nu.solve_kappa(family, n) == pytest.approx(want, rel=1e-14)
            with pytest.raises(NoSignChange, match="out of tolerance"):
                nu.solve_state(family, n)

    def test_heavy_deep_levels_assemble_in_full_degree(self):
        """m = 900, n = 40: y has degree 40 on both branches and every L."""
        for alphadelta in BRANCHES:
            for L in range(6):
                params = PhysicalParams(mass=900.0, angular_momentum=L)
                state = solve_state(build_radial_family(params, alphadelta), 40)
                y = rodrigues_y(state.branch, state.n)
                assert len(y) == 41 and y[-1] != 0.0, (alphadelta, L)
                assert state.kappa == pytest.approx(
                    -2.0 * 900.0 * closed_form_energy(params, 40, alphadelta), rel=1e-14
                )

    @settings(max_examples=40, deadline=None)
    @given(
        mass=st.floats(0.5, 900.0),
        hbar=st.floats(0.5, 30.0),
        coulomb=st.floats(0.5, 2.0),
        e2=st.floats(0.5, 2.0),
        n=st.integers(0, 10),
        L=st.integers(0, 3),
        alphadelta=st.sampled_from(sorted(BRANCHES)),
    )
    def test_solved_energies_scale_with_the_units(
        self, mass, hbar, coulomb, e2, n, L, alphadelta
    ):
        """E = e2^2 k^2 m / hbar^2 times the atomic-unit level, both solved,
        for zeta = 2 e2 k m / hbar^2 from about 1/900 to about 29,000."""
        params = PhysicalParams(mass, hbar, coulomb, e2, L)
        atomic = solve_energy(PhysicalParams(angular_momentum=L), n, alphadelta)
        scale = e2**2 * coulomb**2 * mass / hbar**2
        got = solve_energy(params, n, alphadelta)
        assert got == pytest.approx(scale * atomic, rel=1e-9)


class TestConfigs:
    def test_canonical_points(self):
        assert canonical_config(-3.0) == DEEP_BRANCH_POINT
        assert canonical_config(-1.0) == CONFIG_SPACE_POINT
        assert canonical_config(-3.0000000000000004) == DEEP_BRANCH_POINT
        with pytest.raises(UnsupportedBranch):
            canonical_config(-2.0)

    def test_deep_point_satisfies_product_constraint(self):
        p = DEEP_BRANCH_POINT
        assert p.alpha * p.delta == -3.0
        assert p.beta * p.gamma == -2.0

    def test_config_requires_manifold_membership(self):
        with pytest.raises(ValueError, match="violates the commutator constraint"):
            check_point(OpPoint(1.0, 0.0, 0.0, -2.0), -2.0)
        with pytest.raises(ValueError, match="violates the commutator constraint"):
            assemble_wavefunction(ATOMIC, OpPoint(1.0, 0.0, 0.0, -2.0), 0)
        with pytest.raises(ValueError, match="violates the commutator constraint"):
            recover_configuration_space(OpPoint(1.0, 0.0, 0.0, -2.0))

    def test_config_requires_matching_product(self):
        with pytest.raises(ValueError, match="does not match the point product"):
            check_point(DEEP_BRANCH_POINT, -1.0)
        check_point(DEEP_BRANCH_POINT, -3.0)
        # the product may miss by 1e-12 times the larger of 1 and |alpha*delta|
        with pytest.raises(ValueError, match="does not match the point product"):
            check_point(manifold_point(1.0, 1.0, -1.0 - 1.5e-12), -1.0)
        check_point(manifold_point(1.0, 1.0, -3.0 - 2e-12), -3.0)

    def test_config_refuses_a_nan_product(self):
        """The product check fails closed: NaN compares false."""
        with pytest.raises(ValueError, match="does not match the point product"):
            check_point(CONFIG_SPACE_POINT, float("nan"))


class TestWavefunctions:
    def test_deep_ground_state(self):
        wf = assemble_wavefunction(ATOMIC, canonical_config(-3.0), 0)
        assert wf._fields == ("point", "state", "body", "psi")
        assert wf.prefactor_rate == pytest.approx(-2.0)
        assert wf.kappa == pytest.approx(0.25, rel=1e-10)
        assert wf.body.rate == pytest.approx(-1.0 / 6.0)
        assert wf.body.power == pytest.approx(1.0 / 3.0)
        assert len(wf.body.poly.coeffs) == 1

    def test_deep_first_excited_state(self):
        wf = assemble_wavefunction(ATOMIC, canonical_config(-3.0), 1)
        assert wf.kappa == pytest.approx(0.04, rel=1e-10)
        assert wf.body.rate == pytest.approx(-1.0 / 15.0)
        assert len(wf.body.poly.coeffs) == 2

    def test_shallow_ground_state_is_pure_exponential(self):
        wf = assemble_wavefunction(ATOMIC, canonical_config(-1.0), 0)
        assert wf.prefactor_rate == 0j
        assert wf.kappa == pytest.approx(1.0, rel=1e-10)
        assert wf.body.rate == pytest.approx(-1.0)
        assert wf.body.power == pytest.approx(0.0, abs=1e-12)

    def test_prefactor_rate_is_gamma_over_delta(self):
        """delta is -1 or 1 at both canonical points; at (1, 1, -2, -3) the
        rate gamma/delta is 2/3."""
        wf = assemble_wavefunction(ATOMIC, manifold_point(1.0, 1.0, -3.0), 0)
        assert wf.prefactor_rate == complex(2.0 / 3.0)

    def test_momentum_operator_is_a_derivative_in_a(self):
        """Psi = e psi(A), e = exp(i (gamma/delta) p r / hbar) from
        prefactor_rate and psi from eval_wavefunction, satisfies
        gamma p Psi + i hbar delta dPsi/dr = -i hbar c e psi'(A),
        c = -alpha delta, at OPERATOR_POINTS, OPERATOR_STATES and
        OPERATOR_SAMPLES.  Derivatives are central differences in r of step
        1e-5, psi'(A) that of psi over alpha."""
        hbar, h = ATOMIC.hbar, 1e-5
        worst = 0.0
        for point in OPERATOR_POINTS:
            alpha, _, gamma, delta = point
            for n, L in OPERATOR_STATES:
                wf = assemble_wavefunction(PhysicalParams(angular_momentum=L), point, n)
                for r, p in OPERATOR_SAMPLES:

                    def e(x):
                        return cmath.exp(1j * wf.prefactor_rate * p * x / hbar)

                    def psi(x):
                        return eval_wavefunction(wf, x, p, hbar)

                    d_psi = (psi(r + h) - psi(r - h)) / (2.0 * h) / alpha
                    d_state = (e(r + h) * psi(r + h) - e(r - h) * psi(r - h)) / (2.0 * h)
                    lhs = gamma * p * e(r) * psi(r) + 1j * hbar * delta * d_state
                    rhs = -1j * hbar * (-alpha * delta) * e(r) * d_psi
                    worst = max(worst, abs(lhs - rhs) / abs(rhs))
        assert worst <= 1e-7

    @pytest.mark.parametrize(
        "point", OPERATOR_POINTS, ids=("config", "deep", "beta1-delta-1", "beta1-delta-3")
    )
    def test_position_operator_is_a_multiplier_only_where_beta_is_zero(self, point):
        """Psi = e psi(A) as above satisfies alpha r Psi + i hbar beta
        dPsi/dp = (-r/delta) Psi - hbar^2 beta^2 e psi'(A) at each of
        OPERATOR_POINTS, for OPERATOR_STATES and OPERATOR_SAMPLES.
        Derivatives are central differences in p of step 1e-5; psi'(A) is
        dpsi/dp over i hbar beta, so the last term is i hbar beta e dpsi/dp.
        So r_op acts as multiplication by A only where beta = 0, where
        -1/delta = alpha: it agrees with A Psi at CONFIG_SPACE_POINT and
        differs from it by at least 0.3 at every sample of the three points
        with beta != 0.  Gaps are |x - y| / (|x| + |y|)."""
        hbar, h = ATOMIC.hbar, 1e-5
        alpha, beta, _, delta = point

        def gap(x, y):
            return abs(x - y) / (abs(x) + abs(y))

        worst, apart = 0.0, []
        for n, L in OPERATOR_STATES:
            wf = assemble_wavefunction(PhysicalParams(angular_momentum=L), point, n)
            for r, p in OPERATOR_SAMPLES:

                def e(y):
                    return cmath.exp(1j * wf.prefactor_rate * y * r / hbar)

                def psi(y):
                    return eval_wavefunction(wf, r, y, hbar)

                state = e(p) * psi(p)
                d_psi = (psi(p + h) - psi(p - h)) / (2.0 * h)
                d_state = (e(p + h) * psi(p + h) - e(p - h) * psi(p - h)) / (2.0 * h)
                r_op = alpha * r * state + 1j * hbar * beta * d_state
                rhs = (-r / delta) * state + 1j * hbar * beta * e(p) * d_psi
                worst = max(worst, gap(r_op, rhs))
                apart.append(gap(r_op, (alpha * r + 1j * hbar * beta * p) * state))
        assert worst <= 1e-7
        if point == CONFIG_SPACE_POINT:
            assert max(apart) <= 1e-12
        else:
            assert beta != 0.0
            assert min(apart) >= 0.3

    def test_eval_on_real_slice(self):
        wf = assemble_wavefunction(ATOMIC, canonical_config(-3.0), 0)
        value = eval_wavefunction(wf, -1.0 / 3.0, 0.0, 1.0)
        assert value == pytest.approx(math.exp(-1.0 / 6.0))

    def test_eval_reaches_same_point_through_momentum(self):
        wf = assemble_wavefunction(ATOMIC, canonical_config(-3.0), 0)
        via_r = eval_wavefunction(wf, -1.0 / 3.0, 0.0, 1.0)
        via_p = eval_wavefunction(wf, 0.0, -1j, 1.0)
        assert via_p == pytest.approx(via_r)

    def test_shallow_eval_matches_textbook_tail(self):
        wf = assemble_wavefunction(ATOMIC, canonical_config(-1.0), 0)
        assert eval_wavefunction(wf, 1.0, 0.0, 1.0) == pytest.approx(math.exp(-1.0))

    @pytest.mark.parametrize("L", range(9))
    @pytest.mark.parametrize("alphadelta", sorted(BRANCHES))
    def test_solved_bodies_have_no_branch_point_at_zero(self, alphadelta, L):
        """At A = 0 a solved body is P(0) where phi's power is 0, the -1
        branch at L = 0, and 0 elsewhere: phi's power is L on the -1
        branch and (L + 1)/3 on the -3 branch, so BranchPointError, which
        a negative power would raise, cannot occur."""
        params = PhysicalParams(angular_momentum=L)
        for n in range(4):
            wf = assemble_wavefunction(params, canonical_config(alphadelta), n)
            phi_power = wf.state.branch._factor[1]
            assert (phi_power == 0.0) == (alphadelta == -1.0 and L == 0)
            want = complex(wf.body.poly.coeffs[0]) if phi_power == 0.0 else 0j
            assert eval_wavefunction(wf, 0.0, 0j, 1.0) == want

    @settings(max_examples=40, deadline=None)
    @given(
        alphadelta=st.sampled_from(sorted(BRANCHES)),
        beta=st.one_of(st.floats(-2.0, -0.5), st.floats(0.5, 2.0)),
        delta=st.one_of(st.floats(-2.0, -0.5), st.floats(0.5, 2.0)),
        n=st.integers(0, 5),
        L=st.integers(0, 3),
    )
    def test_state_is_unchanged_along_the_manifold(self, alphadelta, beta, delta, n, L):
        """The point enters the state only through its branch label."""
        point = manifold_point(alphadelta / delta, beta, delta)
        params = PhysicalParams(angular_momentum=L)
        moved = assemble_wavefunction(params, point, n)
        canonical = assemble_wavefunction(params, canonical_config(alphadelta), n)
        assert moved.kappa.hex() == canonical.kappa.hex()
        body, want = moved.body, canonical.body
        assert repr((body.rate, body.power, body.poly.coeffs)) == repr(
            (want.rate, want.power, want.poly.coeffs)
        )

    def test_assembly_rejects_unsupported_product(self):
        with pytest.raises(UnsupportedBranch):
            assemble_wavefunction(ATOMIC, manifold_point(2.0, 1.0, -1.0), 0)

    def test_assembly_rejects_momentum_point(self):
        """delta = 0 gives alpha*delta = 0, which no branch takes, so the
        prefactor rate gamma/delta is never formed."""
        with pytest.raises(UnsupportedBranch):
            assemble_wavefunction(ATOMIC, OpPoint(0.0, 1.0, 1.0, 0.0), 0)

    def test_body_is_built_once(self, monkeypatch):
        """Assembly builds phi*y and binds it to the point's slice, once per
        WavefunctionForm; evaluation runs that evaluator, so tabulating a
        grid builds neither again at any point."""
        calls = collections.Counter()
        new, along = ExpPowerTerm.__new__, ExpPowerTerm.along

        def counted_new(cls, *args, **kwargs):
            calls["__new__"] += 1
            return new(cls, *args, **kwargs)

        def counted_along(self, *args):
            calls["along"] += 1
            return along(self, *args)

        monkeypatch.setattr(ExpPowerTerm, "__new__", counted_new)
        monkeypatch.setattr(ExpPowerTerm, "along", counted_along)
        for n in (0, 5):
            calls.clear()
            wf = assemble_wavefunction(ATOMIC, canonical_config(-1.0), n)
            assert calls == {"__new__": 1, "along": 1}
            for j in range(100):
                eval_wavefunction(wf, 0.01 * (j + 1), 0.0, 1.0)
            assert len(wf.body.poly.coeffs) == n + 1
            assert calls == {"__new__": 1, "along": 1}


class TestSamplesAndResiduals:
    def test_sample_fractions_deterministic(self):
        """The residual measures depend on the sample set, so it is pinned."""
        assert len(set(SAMPLE_FRACTIONS)) == 64
        assert SAMPLE_FRACTIONS[0] == 0.5320976047665532
        assert SAMPLE_FRACTIONS[-1] == 0.6177330015458498
        assert all(0.01 <= u <= 1.0 for u in SAMPLE_FRACTIONS)

    @pytest.mark.parametrize("alphadelta", sorted(BRANCHES))
    @pytest.mark.parametrize("mass", [1.0, 186.0])
    def test_samples_land_on_the_support(self, monkeypatch, mass, alphadelta):
        """x = u (4n + 2b + 10) on the real axis, past the last node of y:
        at n <= 5 the samples see all n sign changes of L_n^(b)(x)."""
        seen, pair_of = [], hydrogen._laguerre_pair

        def spy(steps, x):
            pair = pair_of(steps, x)
            seen.append((x, pair[1] - pair[0]))
            return pair

        monkeypatch.setattr(hydrogen, "_laguerre_pair", spy)
        for L in (0, 2):
            family = build_radial_family(PhysicalParams(mass=mass, angular_momentum=L), alphadelta)
            for n in (0, 1, 5, 40):
                seen.clear()
                state = solve_state(family, n)
                ode_residual(state)
                a, b = (w.real for w in state.branch._weight)
                span = 4 * n + 2 * b + 10
                assert len(seen) == 64 and a < 0.0
                assert all(type(x) is float and 0.01 * span <= x <= span for x, _ in seen)
                if n <= 5:
                    ys = [y for _, y in sorted(seen)]
                    assert sum(u * v < 0.0 for u, v in zip(ys, ys[1:])) == n

    def test_solved_states_have_tiny_residual(self):
        ground = solve_state(build_radial_family(ATOMIC, -3.0), 0)
        assert ode_residual(ground) < 1e-10
        p1 = PhysicalParams(angular_momentum=1)
        assert ode_residual(solve_state(build_radial_family(p1, -3.0), 2)) < 1e-8

    def test_detuned_kappa_is_detected(self):
        drift = ode_residual(assemble(build_radial_family(ATOMIC, -3.0), 0.275, 0))
        assert drift > 1e-3

    @pytest.mark.parametrize("alphadelta", sorted(BRANCHES))
    @pytest.mark.parametrize("units", sorted(RESIDUAL_UNITS))
    def test_solved_and_detuned_states_separate(self, units, alphadelta):
        """Up to n = 40, where the monomial coefficients of y are noise, a
        solved state reads at most 1e-12 and a 1.1*kappa one at least 1e-3."""
        states = solved_and_detuned(units, alphadelta)
        assert max(map(ode_residual, states[0::2])) <= 1e-12
        assert min(map(ode_residual, states[1::2])) >= 1e-3

    @pytest.mark.parametrize("alphadelta", sorted(BRANCHES))
    @pytest.mark.parametrize("units", sorted(DIGEST_UNITS))
    def test_floats_hold_the_exact_chain(self, units, alphadelta):
        """kappa, K, pi, tau and every y coefficient, at L 0..5 and n
        0..40, lie within a few ulps of ``exact_chain``: worst measured
        kappa 3.62, K 6.67, pi1 and tau1 1.63, y 73.2, and pi0 and tau0
        exact."""
        bounds = {"kappa": 5, "K": 9, "pi0": 0, "pi1": 2.5, "tau0": 0, "tau1": 2.5}
        for L in range(6):
            params = PhysicalParams(*DIGEST_UNITS[units][:4], angular_momentum=L)
            family = build_radial_family(params, alphadelta)
            for n in range(41):
                state = solve_state(family, n)
                state_y = rodrigues_y(state.branch, state.n)
                kappa, branch, y = exact_chain(family, n)
                for name, x, want in zip(bounds, (state.kappa, *state.branch[1:]), (kappa, *branch)):
                    assert ulps(x, want) <= bounds[name], (name, L, n)
                assert len(state_y) == len(y) == n + 1
                assert all(ulps(x, want) <= 100 for x, want in zip(state_y, y)), (L, n)
                # what lets solve print pi, tau and y untrimmed
                assert state.branch.pi1 < 0.0 and state.branch.tau1 < 0.0
                assert state_y[-1] != 0.0
                wf = assemble_wavefunction(params, canonical_config(alphadelta), n)
                assert wf.state == state
                body = wf.body
                want = exact.term(exact.mul((1,), state_y), *state.branch._factor)
                assert [x.hex() for x in (body.rate, body.power, *body.poly.coeffs)] == [
                    float(x).hex() for x in (want.rate, want.power, *want.poly)
                ]

    def test_chain_bits_are_pinned(self):
        """One SHA-256 over the ``float.hex`` of kappa, K, pi, tau, the
        residual at kappa and at 1.1 kappa, and y or its RodriguesFailure
        text, for c on and off the two labels, three unit systems, L in
        {0, 1, 2, 7} and n up to 171: 504 states, each built through
        solve_state and assemble."""
        digest = hashlib.sha256()
        for c in (1.0, 3.0, 0.5, 1.7, 2.0, 4.0):
            for units in ("atomic", "hbar30", "scaled"):
                for L in (0, 1, 2, 7):
                    params = PhysicalParams(*DIGEST_UNITS[units][:4], angular_momentum=L)
                    family = nu.NuProblem(c, (-params.omega, params.zeta))
                    for n in (0, 1, 2, 7, 30, 170, 171):
                        state = solve_state(family, n)
                        detuned = assemble(family, 1.1 * state.kappa, n)
                        row = (state.kappa, *state.branch[1:], ode_residual(state), ode_residual(detuned))
                        try:
                            y = " ".join(map(float.hex, rodrigues_y(state.branch, n)))
                        except RodriguesFailure as err:
                            y = str(err)
                        digest.update((" ".join(map(float.hex, row)) + " | " + y + "\n").encode())
        assert digest.hexdigest() == CHAIN_DIGEST

    def test_residual_makes_no_term_or_poly_calls(self, monkeypatch):
        """Spied the way test_state_is_assembled_once spies the solve, on
        every method of Poly and ExpPowerTerm, their checked ``__new__``
        included.  Neither the residual nor an evaluation through a bound
        evaluator calls one; assembly, which builds and binds the body,
        shows that the spy sees the calls it counts."""
        state = solved_and_detuned("atomic", -3.0)[0]
        counts = collections.Counter()

        def spy(cls, name):
            original = getattr(cls, name)

            def counted(*args, **kwargs):
                counts[f"{cls.__name__}.{name}"] += 1
                return original(*args, **kwargs)

            monkeypatch.setattr(cls, name, counted)

        for cls in (Poly, ExpPowerTerm):
            for name, value in list(vars(cls).items()):
                if inspect.isfunction(value) or isinstance(value, staticmethod):
                    spy(cls, name)
        ode_residual(state)
        assert counts == {}
        wf = assemble_wavefunction(RESIDUAL_UNITS["atomic"], canonical_config(-3.0), state.n)
        assert wf.state == state
        assert counts["ExpPowerTerm.__new__"] == counts["ExpPowerTerm.along"] == 1
        counts.clear()
        eval_wavefunction(wf, 0.5, 0j, 1.0)
        eval_wavefunction(wf, 0.7, 0.3, 1.0)
        assert counts == {}

    def test_residual_refuses_a_level_above_its_bound(self):
        """The bound admits CI's scan to n = 1,000; a level above it is
        refused by name, though it solves."""
        assert hydrogen.RESIDUAL_MAX_N >= 1000
        n = hydrogen.RESIDUAL_MAX_N + 1
        state = solve_state(build_radial_family(ATOMIC, -1.0), n)
        with pytest.raises(LevelTooHigh, match=f"^the residual is computed up to n=.*, not n={n}$"):
            ode_residual(state)

    def test_residual_of_a_huge_level_is_refused_at_once(self):
        """Under a 1.5 GB address-space cap, the residual of level 10**12
        ran out of memory after about 6 s, building one step per level; it
        is refused before anything is allocated."""
        code = """
import resource, time
soft, hard = resource.getrlimit(resource.RLIMIT_AS)
cap = 1_500_000_000 if hard == resource.RLIM_INFINITY else min(hard, 1_500_000_000)
resource.setrlimit(resource.RLIMIT_AS, (cap, hard))
from phasenu import hydrogen, nu
family = hydrogen.build_radial_family(hydrogen.PhysicalParams(), -1.0)
state = nu.solve_state(family, 10**12)
start = time.perf_counter()
try:
    hydrogen.ode_residual(state)
except Exception as err:
    print(type(err).__name__, time.perf_counter() - start)
"""
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, timeout=120
        )
        assert proc.returncode == 0, proc.stderr
        name, seconds = proc.stdout.split()
        assert name == "LevelTooHigh"
        assert float(seconds) < 1.0

    @pytest.mark.parametrize("detuned", [False, True])
    def test_non_finite_defect_reads_inf(self, monkeypatch, detuned):
        """At u = 1e200 the terms of the n = 40 defect overflow, though the
        Laguerre pair is scaled, and the defect is nan; max() would drop it
        and read 0."""
        state = solve_state(build_radial_family(ATOMIC, -1.0), 40)
        if detuned:
            state = assemble(state.family, 1.1 * state.kappa, 40)
        for fractions in ([1e200], [*SAMPLE_FRACTIONS, 1e200], [1e200, *SAMPLE_FRACTIONS]):
            monkeypatch.setattr(hydrogen, "SAMPLE_FRACTIONS", fractions)
            assert ode_residual(state) == math.inf

    @pytest.mark.parametrize("alphadelta", sorted(BRANCHES))
    def test_levels_whose_y_leaves_the_float_range(self, alphadelta):
        """Past n = 167 (-1) and 118 (-3) y has no float coefficients, and
        from n = 350 the Laguerre pair leaves the float range unless it is
        scaled.  The levels still solve to the closed form, and their
        residuals stay below the detector's tolerance."""
        for L in (0, 3):
            params = PhysicalParams(angular_momentum=L)
            family = build_radial_family(params, alphadelta)
            for n in (200, 351, 500, 1000):
                state = solve_state(family, n)
                want = closed_form_energy(params, n, alphadelta)
                assert params.energy_of_kappa(state.kappa) == pytest.approx(want, rel=1e-14)
                assert ode_residual(state) <= 1e-8, (L, n)

    @pytest.mark.parametrize("alphadelta", sorted(BRANCHES))
    def test_small_detuning_is_seen_at_high_n(self, alphadelta):
        """At n = 500 the scaled recurrence still separates a 0.1% detuned
        kappa from the solved one: about 7e-2 against 1e-13."""
        family = build_radial_family(PhysicalParams(angular_momentum=2), alphadelta)
        state = solve_state(family, 500)
        assert ode_residual(state) <= 1e-8
        for factor in (0.999, 1.001):
            assert ode_residual(assemble(family, factor * state.kappa, 500)) > 1e-4

    @pytest.mark.parametrize("mass", [186.0, 1e4, 1e6])
    def test_heavy_mass_detuning_is_seen(self, mass):
        """The annulus check read 0.0 for both states at mass 1e6: psi
        underflowed there.  On the support the scale drops out."""
        family = build_radial_family(PhysicalParams(mass=mass), -1.0)
        state = solve_state(family, 5)
        assert ode_residual(state) <= 1e-10
        assert ode_residual(assemble(family, 1.1 * state.kappa, 5)) > 1e-4


class TestLaguerreRecurrence:
    @pytest.mark.parametrize(
        "b", [Fraction(1), Fraction(5), Fraction(1, 3), Fraction(11, 3)], ids=str
    )
    def test_recurrence_matches_exact_values(self, b):
        """(L_{n-1}, L_n) of order b + 1, and y = L_n^(b), at rational x on
        (0, 4n + 2b + 10) against the explicit sum in Fractions, for b of
        both branches (2L + 1 and (2L + 1)/3); points next to a node of any
        of the three are skipped, since a relative error has no meaning
        there."""
        worst = 0.0
        for n in (0, 1, 2, 5, 10, 20, 40):
            span = 4 * n + 2 * math.ceil(b) + 10
            xs = [Fraction(j * span, 32) for j in range(1, 32)]
            want = [
                [exact_laguerre(m, b + beta, x) for x in xs]
                for m, beta in ((n - 1, 1), (n, 1), (n, 0))
            ]
            steps = hydrogen._laguerre_steps(n, float(b) + 1.0)
            for j, x in enumerate(xs):
                windows = [row[max(j - 1, 0) : j + 2] for row in want if any(row)]
                if any(min(w) <= 0 <= max(w) for w in windows):
                    continue
                l1, l0 = hydrogen._laguerre_pair(steps, float(x))
                for got, row in zip((l1, l0, l0 - l1), want):
                    if row[j]:
                        worst = max(worst, abs(Fraction(got) - row[j]) / abs(row[j]))
        assert worst <= 1.5e-12

    @pytest.mark.parametrize("b", [Fraction(3), Fraction(4, 3)], ids=str)
    def test_scaled_pair_matches_exact_values(self, b):
        """At n = 400 and x from 3n to 4n, L_n overflows unless the pair is
        scaled; the scaled pair times 2**(600 k), for the k that the exact
        value's size gives, is the exact pair to 1e-13 relative."""
        n = 400
        steps = hydrogen._laguerre_steps(n, float(b) + 1.0)
        for x in (Fraction(3 * n), Fraction(7 * n, 2), Fraction(4 * n)):
            want = [exact_laguerre(m, b + 1, x) for m in (n - 1, n)]
            l1, l0 = hydrogen._laguerre_pair(steps, float(x))
            size = abs(want[1].numerator).bit_length() - want[1].denominator.bit_length()
            k = round((size - math.frexp(l0)[1]) / 600)
            assert k >= 1
            for got, w in zip((l1, l0), want):
                assert abs(Fraction(got) * 2 ** (600 * k) / w - 1) <= 1e-13, (x, k)

    def test_scaled_pass_keeps_the_plain_bits(self):
        """Where L_n lies between 2**600 and the float limit, the plain
        loop is finite and the scaled pass runs: its pair is the plain one
        times 2**-600, bit for bit, so no finite residual moves."""
        steps = hydrogen._laguerre_steps(300, 3.0)
        for x in range(850, 1201, 50):
            l1, l0 = 0.0, 1.0
            for p, q, r in steps:
                l1, l0 = l0, (p - q * x) * l0 - r * l1
            assert 2.0**600 <= abs(l0) < math.inf, x
            assert hydrogen._laguerre_pair(steps, x) == (l1 * 2.0**-600, l0 * 2.0**-600)


class TestRecovery:
    def test_configuration_point_recovers(self):
        assert recover_configuration_space(CONFIG_SPACE_POINT) == CONFIG_SPACE_POINT
        # beta and gamma within MANIFOLD_TOL of zero become exact zeros
        recovered = recover_configuration_space(OpPoint(2.0, 1e-13, -1e-13, -0.5))
        assert recovered == OpPoint(2.0, 0.0, 0.0, -0.5)
        # and so does either one exactly MANIFOLD_TOL from zero
        for edge in (OpPoint(1.0, 0.0, MANIFOLD_TOL, -1.0), OpPoint(1.0, MANIFOLD_TOL, 0.0, -1.0)):
            assert recover_configuration_space(edge) == OpPoint(1.0, 0.0, 0.0, -1.0)
        wf = assemble_wavefunction(ATOMIC, recovered, 0)
        assert wf.prefactor_rate == 0j

    def test_deep_point_is_not_recoverable(self):
        with pytest.raises(UnsupportedRecovery):
            recover_configuration_space(DEEP_BRANCH_POINT)

    def test_momentum_point_is_not_recoverable(self):
        with pytest.raises(UnsupportedRecovery):
            recover_configuration_space(OpPoint(0.0, 1.0, 1.0, 0.0))
