"""Real polynomials and exponential-power terms: construction, the normal
form, and evaluation."""

import cmath
import math
import struct
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from phasenu.errors import BranchPointError
from phasenu.hydrogen import (
    CONFIG_SPACE_POINT,
    DEEP_BRANCH_POINT,
    PhysicalParams,
    assemble_wavefunction,
    eval_wavefunction,
)
from phasenu.numeric import ExpPowerTerm, Poly
from phasenu.opspace import OpPoint

#: Floats with signed zeros, exact cancellations, underflow and overflow.
part = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.0, -0.5, 1e-200, -1e-200, 1e200]),
    st.floats(-1e3, 1e3),
)
signed_zero = st.sampled_from([0.0, -0.0])
point = st.one_of(st.builds(complex, part, signed_zero), st.builds(complex, part, part))


def bits(z: complex) -> bytes:
    """Both parts bit for bit, signs of zero and NaN payloads included."""
    return struct.pack("<dd", z.real, z.imag)


def complex_horner(coeffs, z):
    acc = 0j
    for c in reversed(coeffs):
        acc = acc * z + complex(c)
    return acc


class TestPoly:
    def test_zero_poly(self):
        p = Poly(())
        assert p.coeffs == ()

    def test_trim_idempotent(self):
        p = Poly((1.0, 2.0, 1e-16, 3e-15))
        assert Poly(p.coeffs).coeffs == p.coeffs

    def test_coefficients_in_normal_form(self):
        """Floats, with exact-zero trailing coefficients dropped."""
        p = Poly((4, 2.0, 1e-16, 0.0, -0.0))
        assert p.coeffs == (4.0, 2.0, 1e-16)
        assert all(type(c) is float for c in p.coeffs)

    @pytest.mark.parametrize(
        "make, message",
        [
            (lambda: Poly((1 + 0j,)), "coeffs must be real"),
            (lambda: Poly((1j,)), "coeffs must be real"),
            (lambda: Poly(("1", " 2e0 ")), "coeffs must be real, got '1'"),
            (lambda: Poly((1.0, None)), "coeffs must be real, got None"),
            (lambda: ExpPowerTerm(Poly((1.0,)), rate="-1"), "rate must be real, got '-1'"),
            (lambda: ExpPowerTerm((" 2e0 ",)), "coeffs must be real, got ' 2e0 '"),
            (lambda: ExpPowerTerm(Poly((1.0,)), rate=1j), "rate must be real"),
            (lambda: ExpPowerTerm(Poly((1.0,)), power=0.5 + 0j), "power must be real"),
            (lambda: Poly((1.0, math.nan)), "non-finite value not admitted: coeffs = nan"),
            (lambda: ExpPowerTerm(Poly((1.0,)), rate=math.inf), "non-finite value not admitted: rate"),
            (lambda: Poly((10**400,)), "coeffs is beyond the float range"),
            (lambda: Poly((1.0, Fraction(-(10**400), 3))), "coeffs is beyond the float range"),
            (lambda: ExpPowerTerm(Poly((1.0,)), power=10**400), "power is beyond the float range"),
            (lambda: Poly((1.0, True)), "^coeffs must be real, got True$"),
            (lambda: ExpPowerTerm(Poly((1.0,)), rate=False), "^rate must be real, got False$"),
        ],
    )
    def test_complex_and_non_finite_values_are_refused_by_name(self, make, message):
        with pytest.raises(ValueError, match=message):
            make()

    def test_arithmetic_preserves_tiny_leading_coefficients(self):
        """Construction and sums drop only exact-zero tails.

        A leading coefficient far below the peak is meaningful: high-order
        Rodrigues outputs carry such coefficients, and dividing them away
        would change the degree.
        """
        tiny = Poly((0.0, 1e-20))
        assert tiny.coeffs == (0.0, 1e-20) and Poly((1.0, 1e-20)).coeffs == (1.0, 1e-20)
        assert (Poly((1.0,)) + tiny).coeffs == (1.0, 1e-20)

    def test_exact_cancellation_drops_tail(self):
        assert (Poly((1.0, 2.0)) + Poly((-1.0, -2.0))).coeffs == ()
        assert (Poly((1.0, 2.0)) + Poly((0.0, -2.0))).coeffs == (1.0,)

    def test_ring_operations(self):
        """The sum, coefficient by coefficient; one beyond the float range
        is refused like a constructed one."""
        assert (Poly((1.0, 1.0)) + Poly((-1.0, 1.0))).coeffs == (0.0, 2.0)
        with pytest.raises(ValueError, match="non-finite value not admitted: coeffs = inf"):
            Poly((1e308,)) + Poly((1e308,))


def outcome(f, *args):
    """Bits of f(*args), or the type of the error it raises."""
    try:
        return bits(f(*args))
    except (ArithmeticError, BranchPointError) as err:
        return type(err)


def term_reference(t: ExpPowerTerm, z: complex) -> complex:
    """t at z as poly(z) * exp(rate*z) * z**power, with the rules at z = 0."""
    z = complex(z)
    if z == 0:
        if abs(t.power) <= 1e-12:
            return complex_horner(t.poly.coeffs, 0j)
        if t.power > 0.0:
            return 0j
        raise BranchPointError
    return complex_horner(t.poly.coeffs, z) * cmath.exp(complex(t.rate) * z) * z ** complex(t.power)


def slice_reference(t: ExpPowerTerm, at: OpPoint, r: float, pbar: complex, hbar: float) -> complex:
    """t at A = alpha*r + i*hbar*beta*pbar, A built here."""
    return term_reference(t, at.alpha * r + 1j * hbar * at.beta * pbar)


def value_at(t: ExpPowerTerm, z: complex) -> complex:
    """t at A = z, on the slice A = r + i*pbar."""
    z = complex(z)
    return t.along(1.0, 1.0)(z.real, z.imag, 1.0)


rate = st.one_of(signed_zero, st.floats(-3.0, 3.0))
power = st.one_of(st.integers(-3, 4).map(float), st.floats(-3.0, 4.0))
canonical = st.sampled_from([CONFIG_SPACE_POINT, DEEP_BRANCH_POINT])
#: pbar real, imaginary, complex or a signed zero (float or complex).
pbar = st.one_of(
    st.builds(complex, part, signed_zero),
    st.builds(complex, signed_zero, part),
    st.builds(complex, part, part),
    signed_zero,
    st.builds(complex, signed_zero, signed_zero),
)
hbar = st.sampled_from([1.0, 0.5, 2.0])

#: The n = 40 body of the configuration branch: its float Horner value
#: overflows at r = 1e12, where exp(rate*A) underflows to 0.
N40 = assemble_wavefunction(PhysicalParams(), CONFIG_SPACE_POINT, 40).body


class TestTermBitIdentity:
    """The evaluator ``along`` binds gives the bits of the complex Horner
    recursion, exponential and power it replaces, at the A the test builds."""

    @given(st.lists(part, max_size=8), rate, power, canonical, part, pbar, hbar)
    @example([1.0, -0.0, 1.0], -0.5, 2.0, CONFIG_SPACE_POINT, 2.0, 0j, 1.0)  # -0.0 in a coefficient
    @example([-2.0, -0.0, 1.0], 0.0, 0.0, DEEP_BRANCH_POINT, 0.5, 1j, 1.0)  # ... at a real deep A
    @example([1.0, 1.0], -0.5, 0.5, DEEP_BRANCH_POINT, 1.0, -0.0, 1.0)  # a -0.0 pbar
    @example([1.0, 1.0], -0.5, 0.5, DEEP_BRANCH_POINT, -1.0, 2.0, 1.0)  # a complex A
    # float overflow: the float Horner value is inf, so the complex recursion runs
    @example([1.0, 1.0, 1e200], -1e-200, 0.5, CONFIG_SPACE_POINT, 1e200, 0j, 1.0)
    @example(list(N40.poly.coeffs), N40.rate, N40.power, CONFIG_SPACE_POINT, 1e12, 0j, 1.0)
    # ... at a real A = -1e200, where A**power = 1/A**2: without the complex
    # recursion the NaN's sign bit would be the opposite of the reference's
    @example([1.0, 0.0, 0.0, 1.0], 0.0, -2.0, DEEP_BRANCH_POINT, 0.0, 1e200j, 1.0)
    @example([-0.0, 1.0], 0.5, 0.0, CONFIG_SPACE_POINT, -0.0, -0.0, 1.0)  # A = 0 from signed zeros
    @example([3.0, 1.0], 1.0, 0.0, CONFIG_SPACE_POINT, 0.0, 0j, 1.0)  # A = 0, power zero: P(0)
    @example([3.0], 1.0, 2.0, DEEP_BRANCH_POINT, 0.0, -0.0, 1.0)  # A = 0, integer power
    @example([3.0], 1.0, 1.0 / 3.0, DEEP_BRANCH_POINT, 0.0, 0j, 1.0)  # A = 0, fractional power
    @example([3.0], 1.0, -0.5, CONFIG_SPACE_POINT, 0.0, 1j, 1.0)  # A = 0, branch point
    # a real A = -3e308 = -inf: the float Horner from the leading coefficient
    # reads -inf where the recursion from 0.0 reads nan, and only the
    # complex recursion gives the reference's NaN sign bits
    @example([1.0, 1.0], 0.0, 0.0, DEEP_BRANCH_POINT, 1e308, 0j, 1.0)
    # ... and a constant, whose float Horner never meets A: 0j, not NaN, if
    # the constant were the starting value
    @example([2.0], 0.5, 0.0, DEEP_BRANCH_POINT, 1e308, 0j, 1.0)
    @example([1.0, 1.0], -0.5, 0.5, CONFIG_SPACE_POINT, math.nan, 0j, 1.0)  # a NaN real A
    @example([], 0.5, 1.0, CONFIG_SPACE_POINT, 2.0, 0j, 1.0)  # the zero term at a real A
    @example([], 0.5, 1.0, DEEP_BRANCH_POINT, 1.0, 0.5, 1.0)  # ... and at a complex A
    @settings(max_examples=400, deadline=None)
    def test_along_matches_poly_exp_power(self, coeffs, rate, power, at, r, pbar, hbar):
        t = ExpPowerTerm(Poly(coeffs), rate, power)
        psi = t.along(at.alpha, at.beta)
        assert outcome(psi, r, pbar, hbar) == outcome(slice_reference, t, at, r, pbar, hbar)

    @pytest.mark.parametrize("point", [CONFIG_SPACE_POINT, DEEP_BRANCH_POINT], ids=["-1", "-3"])
    def test_tabulate_degree_matches_reference(self, point):
        """A solved n = 30, L = 2 body, 31 coefficients, at 500 points over
        tabulate's span r in [0, 40/|rate|]: the Horner loops at the degree
        the benchmark runs.  On the deep branch the three pbar give a real,
        a complex and a negative real A."""
        wf = assemble_wavefunction(PhysicalParams(angular_momentum=2), point, 30)
        assert len(wf.body.poly.coeffs) == 31
        step = 40.0 / abs(wf.body.rate) / 499
        for pbar in (0j, 0.7 + 0j, 0.7j):
            for j in range(500):
                r = j * step
                got = outcome(eval_wavefunction, wf, r, pbar, 1.0)
                assert got == outcome(slice_reference, wf.body, point, r, pbar, 1.0), (pbar, r)

    def test_n40_overflow_is_nan(self):
        """The example above does overflow: inf times exp(rate*A) = 0."""
        value = N40.along(1.0, 0.0)(1e12, 0j, 1.0)
        assert cmath.isnan(value.real) and cmath.isnan(value.imag)

    def test_negative_zero_coefficient_takes_the_float_path(self):
        """A -0.0 coefficient is kept, and a real A runs the float recursion
        over it."""
        t = ExpPowerTerm(Poly((1.0, -0.0, 0.5)), -0.5, 1.5)
        value = (0.5 * 2.0 + -0.0) * 2.0 + 1.0
        want = complex(value) * cmath.exp(complex(-0.5) * (2 + 0j)) * (2 + 0j) ** complex(1.5)
        assert bits(t.along(1.0, 0.0)(2.0, 0j, 1.0)) == bits(want)

    def test_binding_a_slice_keeps_the_term(self):
        t = ExpPowerTerm(Poly((1.0, -2.0, 0.5)), -0.5, 1.5)
        fresh = ExpPowerTerm(Poly((1.0, -2.0, 0.5)), -0.5, 1.5)
        t.along(-3.0, 1.0)(1.5, 0.5j, 1.0)
        assert not hasattr(t, "__dict__")
        assert ExpPowerTerm._fields == ("poly", "rate", "power")
        assert t == fresh and hash(t) == hash(fresh) and repr(t) == repr(fresh)


class Mutable:
    """A number stand-in whose value changes in place."""

    def __init__(self, value):
        self.value = value

    def __rmul__(self, other):
        return other * self.value


@pytest.mark.parametrize("at", [CONFIG_SPACE_POINT, DEEP_BRANCH_POINT], ids=["-1", "-3"])
class TestSliceOffset:
    """``psi`` keeps the offset 1j*hbar*beta*pbar of the last (hbar, pbar)
    objects it was passed; whatever the sequence of calls, each has the bits
    of the expression built from its own arguments."""

    TERM = ExpPowerTerm(Poly((1.0, -2.0, 0.5)), -0.5, 1.5)

    def check(self, at, calls):
        psi = self.TERM.along(at.alpha, at.beta)
        for r, pbar, hbar in calls:
            want = outcome(slice_reference, self.TERM, at, r, pbar, hbar)
            assert outcome(psi, r, pbar, hbar) == want, (r, pbar, hbar)

    def test_alternating_objects(self, at):
        p1, p2, h1, h2 = 0.7j, complex(0.7, 0.0), 1.0, 2.0
        pairs = [(p1, h1), (p1, h1), (p2, h1), (p1, h1), (p1, h2), (p2, h2), (p2, h1)]
        self.check(at, [(r, p, h) for r in (0.0, 0.5, 1.5) for p, h in pairs])

    def test_equal_but_distinct_objects(self, at):
        pbars = [complex("0.7+0.5j"), complex("0.7+0.5j"), 0.7, float("0.7"), 1, 1.0]
        hbars = [float("1.5"), float("1.5"), 2, 2.0]
        self.check(at, [(1.5, p, h) for p in pbars for h in hbars for _ in range(2)])

    def test_signed_zero_components(self, at):
        zeros = [0j, complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0), 0.0, -0.0, 0,
                 complex(-0.7, 0.0), complex(-0.7, -0.0), complex(-0.0, 0.7), complex(0.0, 0.7)]
        self.check(at, [(r, p, 1.0) for r in (0.0, -0.0, 1.5) for p in zeros + zeros[::-1]])

    def test_non_finite_pbar(self, at):
        inf, nan = math.inf, math.nan
        odd = [complex(inf, 0.0), complex(0.0, inf), complex(-inf, 1.0), complex(nan, 0.0),
               complex(inf, nan), inf, -inf, nan]
        self.check(at, [(r, p, 1.0) for r in (0.0, 1.5) for p in odd for _ in range(2)])

    def test_mutable_arguments_are_never_kept(self, at):
        """Stand-ins changed in place between calls that pass the same objects."""
        psi = self.TERM.along(at.alpha, at.beta)
        pbar, hbar = Mutable(0.7j), Mutable(1.0)
        for p, h in ((pbar, 1.0), (0.7j, hbar), (pbar, hbar)):
            for p_value, h_value in ((0.7j, 1.0), (0.7 + 0j, 1.0), (0.7 + 0j, 2.0), (-0.0, 0.5)):
                pbar.value, hbar.value = p_value, h_value
                want = outcome(slice_reference, self.TERM, at, 1.5, p, h)
                assert outcome(psi, 1.5, p, h) == want, (p_value, h_value)


class TestExpPowerTerm:
    def test_leading_zero_folds_into_power(self):
        t = ExpPowerTerm(Poly((0.0, 1.0)), rate=-2.0, power=0.0)
        assert t.poly.coeffs == (1.0,)
        assert t.power == 1.0

    def test_only_exact_zeros_fold(self):
        """A tiny low-order coefficient is kept: it is small only relative
        to the others, and dropping it would change the term."""
        t = ExpPowerTerm(Poly((1e-20, 1.0)))
        assert t.power == 0.0
        assert t.poly.coeffs == (1e-20, 1.0)

    def test_zero_poly_normalizes_to_zero_term(self):
        t = ExpPowerTerm(Poly(()), rate=3.0, power=1.5)
        assert t.poly.coeffs == ()
        assert t.rate == 0.0
        assert t.power == 0.0

    def test_evaluate_at_one(self):
        t = ExpPowerTerm(Poly((1.0,)), rate=-1.0 / 6.0, power=1.0 / 3.0)
        assert value_at(t, 1.0) == pytest.approx(math.exp(-1.0 / 6.0))

    def test_real_on_positive_axis(self):
        t = ExpPowerTerm(Poly((2.0, -1.0)), rate=-0.4, power=0.25)
        v = value_at(t, 1.7)
        assert v.imag == pytest.approx(0.0, abs=1e-15)

    def test_branch_point_rejected(self):
        """Re(power) <= 0 (power nonzero) has no limit at the origin."""
        for power in (-1.0, -0.5, -1.0 / 3.0):
            t = ExpPowerTerm(Poly((1.0,)), rate=0.0, power=power)
            with pytest.raises(BranchPointError):
                value_at(t, 0.0)

    def test_positive_power_vanishes_at_origin(self):
        for power in (0.5, 1.0 / 3.0, 2.5):
            t = ExpPowerTerm(Poly((2.0, 1.0)), rate=-1.0, power=power)
            assert value_at(t, 0.0) == 0j

    def test_integer_power_at_origin(self):
        assert value_at(ExpPowerTerm(Poly((3.0,)), 1.0, 0.0), 0.0) == 3 + 0j
        assert value_at(ExpPowerTerm(Poly((3.0,)), 1.0, 2.0), 0.0) == 0j
