"""Phase-space hydrogen pipeline: radial family, spectra on both
perfect-square branches, wavefunction assembly, and the recovery rule."""

import collections
import dataclasses
import functools
import inspect
import math
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phasenu import hydrogen, nu
from phasenu.errors import NoSignChange, UnsupportedBranch, UnsupportedRecovery
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
from phasenu.nu import assemble, solve_state
from phasenu.opspace import OpPoint, manifold_point

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


def exact_chain(family, n):
    """kappa, (K, pi0, pi1, tau0, tau1) and the y coefficients of level n
    as Fractions of the family's float scalars.  kappa = u*^2 with u* =
    zeta / (2 d) and d = [c (2n + 1) + sqrt((c - 2)^2 + 4 omega)] / 2, the
    closed form, whose square root is the integer 2L + 1 on both labels;
    then K = (2 u v - q1) / c with v = -sqrt(q0) = -(2L + 1)/2 and q1 =
    -zeta, pi = (b0 - v, -u) with b0 = (c - 2)/2, tau = 2 + 2 pi, and y by
    the Leibniz rule for the weight exp((tau1/c) A) A**((tau0 - c)/c)."""
    c, (s0, zeta, _) = Fraction(family.c), map(Fraction, family.sigma_tilde)
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
        params = dataclasses.replace(RESIDUAL_UNITS[units], angular_momentum=L)
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
        with pytest.raises(ValueError):
            PhysicalParams(mass=0.0)
        with pytest.raises(ValueError):
            PhysicalParams(hbar=-1.0)

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
        family = build_radial_family(ATOMIC, -3.0)
        assert family.c == 3 + 0j
        assert family.tau_tilde == (2 + 0j, 0j)
        assert family.sigma_tilde == (0j, 2 + 0j, 0j)
        problem = family.at(0.25)
        assert problem.sigma_tilde == (0j, 2 + 0j, -0.25 + 0j)

    def test_family_shallow_branch(self):
        family = build_radial_family(ATOMIC, -1.0)
        assert family.c == 1 + 0j

    def test_family_higher_angular_momentum(self):
        family = build_radial_family(PhysicalParams(angular_momentum=1), -3.0)
        assert family.sigma_tilde[0] == -2 + 0j

    def test_branch_of_tolerates_rounding(self):
        assert branch_of(-3.0) == -3.0
        assert branch_of(-3.0000000000000004) == -3.0
        assert branch_of(-1.0 + 1e-13) == -1.0
        for far in (-2.0, -3.0 + 1e-9, 0.0, float("nan")):
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
            params = dataclasses.replace(units, angular_momentum=L)
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
                params = dataclasses.replace(units, angular_momentum=L)
                for n in (0, 5, 20, 40):
                    want = closed_form_energy(params, n, alphadelta)
                    got = solve_energy(params, n, alphadelta)
                    assert got == pytest.approx(want, rel=1e-10), (alphadelta, L, n)

    def test_median_residual_evaluations_per_state(self, monkeypatch):
        """Over n 0..40, L 0..5, both branches, and masses 1, 186 and 900,
        every state takes one evaluation, the gate's: the residual is
        affine in sqrt(q2), so its root is written down (a Brent-Dekker
        search in sqrt(kappa) took 3 or 4, one in kappa itself up to 51)."""
        counts = []
        original = nu.eigen_residual

        def counted(family, kappa, n):
            counts[-1] += 1
            return original(family, kappa, n)

        monkeypatch.setattr(nu, "eigen_residual", counted)
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
            assert nu.solve_kappa(family, n) == pytest.approx(want, rel=1e-14)

    @pytest.mark.parametrize("detuning", [1e-9, -1e-9])
    def test_detuned_heavy_levels_fail_the_gate(self, monkeypatch, detuning):
        """The gate's residual, taken at kappa (1 + detuning) instead of
        the written-down kappa, is out of tolerance at every heavy level."""
        original = nu.eigen_residual

        def detuned(family, kappa, n):
            return original(family, kappa * (1.0 + detuning), n)

        monkeypatch.setattr(nu, "eigen_residual", detuned)
        for family, n, _ in heavy_levels():
            with pytest.raises(NoSignChange, match="out of tolerance"):
                nu.solve_kappa(family, n)

    def test_heavy_deep_levels_assemble_in_full_degree(self):
        """m = 900, n = 40: y has degree 40 on both branches and every L."""
        for alphadelta in BRANCHES:
            for L in range(6):
                params = PhysicalParams(mass=900.0, angular_momentum=L)
                state = solve_state(build_radial_family(params, alphadelta), 40)
                assert len(state.y) == 41 and state.y[-1] != 0.0, (alphadelta, L)
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

    def test_config_refuses_a_nan_product(self):
        """The product check fails closed: NaN compares false."""
        with pytest.raises(ValueError, match="does not match the point product"):
            check_point(CONFIG_SPACE_POINT, float("nan"))


class TestWavefunctions:
    def test_deep_ground_state(self):
        wf = assemble_wavefunction(ATOMIC, canonical_config(-3.0), 0)
        assert [f.name for f in dataclasses.fields(wf)] == ["point", "state"]
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
        """Evaluation runs the record's kept evaluator: tabulating a grid
        binds the body to the point's slice once per WavefunctionForm, not
        phi*y, or its evaluator, at every point."""
        calls = collections.Counter()
        init, along = ExpPowerTerm.__init__, ExpPowerTerm.along

        def counted_init(self, *args, **kwargs):
            calls["__init__"] += 1
            init(self, *args, **kwargs)

        def counted_along(self, *args):
            calls["along"] += 1
            return along(self, *args)

        monkeypatch.setattr(ExpPowerTerm, "__init__", counted_init)
        monkeypatch.setattr(ExpPowerTerm, "along", counted_along)
        for n in (0, 5):
            calls.clear()
            wf = assemble_wavefunction(ATOMIC, canonical_config(-1.0), n)
            assert calls == {}
            for j in range(100):
                eval_wavefunction(wf, 0.01 * (j + 1), 0.0, 1.0)
            assert len(wf.body.poly.coeffs) == n + 1
            assert calls == {"__init__": 1, "along": 1}


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
            params = dataclasses.replace(DIGEST_UNITS[units], angular_momentum=L)
            family = build_radial_family(params, alphadelta)
            for n in range(41):
                state = solve_state(family, n)
                kappa, branch, y = exact_chain(family, n)
                for name, x, want in zip(bounds, (state.kappa, *state.branch[1:]), (kappa, *branch)):
                    assert ulps(x, want) <= bounds[name], (name, L, n)
                assert len(state.y) == len(y) == n + 1
                assert all(ulps(x, want) <= 100 for x, want in zip(state.y, y)), (L, n)
                # what lets solve print pi, tau and y untrimmed
                assert state.branch.pi1 < 0.0 and state.branch.tau1 < 0.0
                assert state.y[-1] != 0.0
                body = hydrogen.WavefunctionForm(canonical_config(alphadelta), state).body
                want = exact.term(exact.mul((1,), state.y), *state.branch._factor)
                assert [x.hex() for x in (body.rate, body.power, *body.poly.coeffs)] == [
                    float(x).hex() for x in (want.rate, want.power, *want.poly)
                ]

    def test_residual_makes_no_term_or_poly_calls(self, monkeypatch):
        """Spied the way test_state_is_assembled_once spies the solve, on
        every method of Poly and ExpPowerTerm.  Neither the residual nor
        an evaluation through a bound evaluator calls one; binding it shows
        that the spy sees the calls it counts."""
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
                if inspect.isfunction(value):
                    spy(cls, name)
        ode_residual(state)
        assert counts == {}
        wf = hydrogen.WavefunctionForm(canonical_config(-3.0), state)
        eval_wavefunction(wf, 0.5, 0j, 1.0)
        assert counts["ExpPowerTerm.along"] == 1
        counts.clear()
        eval_wavefunction(wf, 0.7, 0.3, 1.0)
        assert counts == {}

    @pytest.mark.parametrize("detuned", [False, True])
    def test_non_finite_defect_reads_inf(self, monkeypatch, detuned):
        """At u = 1e10 the n = 40 Laguerre values overflow, and the defect
        is nan; max() would drop it and read 0."""
        state = solve_state(build_radial_family(ATOMIC, -1.0), 40)
        if detuned:
            state = assemble(state.family, 1.1 * state.kappa, 40)
        for fractions in ([1e10], [*SAMPLE_FRACTIONS, 1e10], [1e10, *SAMPLE_FRACTIONS]):
            monkeypatch.setattr(hydrogen, "SAMPLE_FRACTIONS", fractions)
            assert ode_residual(state) == math.inf

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


class TestRecovery:
    def test_configuration_point_recovers(self):
        assert recover_configuration_space(CONFIG_SPACE_POINT) == CONFIG_SPACE_POINT
        # beta and gamma within MANIFOLD_TOL of zero become exact zeros
        recovered = recover_configuration_space(OpPoint(2.0, 1e-13, -1e-13, -0.5))
        assert recovered == OpPoint(2.0, 0.0, 0.0, -0.5)
        wf = assemble_wavefunction(ATOMIC, recovered, 0)
        assert wf.prefactor_rate == 0j

    def test_deep_point_is_not_recoverable(self):
        with pytest.raises(UnsupportedRecovery):
            recover_configuration_space(DEEP_BRANCH_POINT)

    def test_momentum_point_is_not_recoverable(self):
        with pytest.raises(UnsupportedRecovery):
            recover_configuration_space(OpPoint(0.0, 1.0, 1.0, 0.0))
