"""Real polynomial and exponential-power term arithmetic."""

import cmath
import dataclasses
import math
import struct

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from phasenu.errors import BranchPointError
from phasenu.numeric import ExpPowerTerm, Poly

unit_coeff = st.floats(-1.0, 1.0)
unit_point = st.complex_numbers(
    min_magnitude=0.0, max_magnitude=1.0, allow_nan=False, allow_infinity=False
)

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
        assert p.is_zero
        assert p.degree == -1
        assert p(5.0) == 0j

    def test_horner_at_root(self):
        p = Poly((4.0, -1.0))
        assert p(4.0) == 0j

    def test_horner_radial_coefficients(self):
        p = Poly((0.0, 2.0, -0.25))
        assert p(2.0) == pytest.approx(3.0)

    def test_trim_idempotent(self):
        p = Poly((1.0, 2.0, 1e-16, 3e-15))
        again = Poly(tuple(p))
        assert tuple(again) == tuple(p)

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
            (lambda: Poly((1.0,)) * "3", "scalar must be real, got '3'"),
            (lambda: ExpPowerTerm(Poly((1.0,)), rate=1j), "rate must be real"),
            (lambda: ExpPowerTerm(Poly((1.0,)), power=0.5 + 0j), "power must be real"),
            (lambda: 2j * Poly((1.0,)), "scalar must be real"),
            (lambda: Poly((1.0, math.nan)), "non-finite value not admitted: coeffs = nan"),
            (lambda: ExpPowerTerm(Poly((1.0,)), rate=math.inf), "non-finite value not admitted: rate"),
        ],
    )
    def test_complex_and_non_finite_values_are_refused_by_name(self, make, message):
        with pytest.raises(ValueError, match=message):
            make()

    def test_arithmetic_preserves_tiny_leading_coefficients(self):
        """Construction, sums and products drop only exact-zero tails.

        A leading coefficient far below the peak is meaningful: high-order
        Rodrigues outputs carry such coefficients, and dividing them away
        would change the degree.
        """
        tiny = Poly((0.0, 1e-20))
        assert tiny.degree == 1 and Poly((1.0, 1e-20)).degree == 1
        assert (Poly((1.0,)) + tiny).degree == 1
        assert (Poly((1.0,)) * tiny).degree == 1

    def test_exact_cancellation_drops_tail(self):
        p = Poly((1.0, 2.0))
        assert (p + (-1.0) * p).is_zero
        assert (Poly((1.0, 2.0)) + Poly((0.0, -2.0))).degree == 0

    def test_derivative_linear(self):
        assert Poly((4.0, -1.0)).derivative().coeffs == (-1.0,)

    def test_derivative_constant_is_zero(self):
        assert Poly((7.0,)).derivative().is_zero

    def test_derivative_square(self):
        assert Poly((0.0, 0.0, 1.0)).derivative().coeffs == (0.0, 2.0)

    def test_ring_operations(self):
        p = Poly((1.0, 1.0))
        q = Poly((-1.0, 1.0))
        assert (p * q).coeffs == (-1.0, 0.0, 1.0)
        assert (p + q).coeffs == (0.0, 2.0)
        assert (2.0 * p).coeffs == (2.0, 2.0)

    def test_coefficient_out_of_range(self):
        assert Poly((1.0,)).coefficient(3) == 0.0

    @given(st.lists(unit_coeff, min_size=1, max_size=9), unit_point)
    @settings(max_examples=60, deadline=None)
    def test_derivative_matches_central_difference(self, coeffs, z):
        p = Poly(coeffs)
        h = 1e-5
        fd = (p(z + h) - p(z - h)) / (2.0 * h)
        exact = p.derivative()(z)
        assert abs(exact - fd) <= 1e-6 * (1.0 + abs(exact))


class TestBitIdentity:
    """Poly evaluation is the complex Horner recursion, bit for bit: the
    reference the term evaluator's float path is held to."""

    @given(st.lists(part, max_size=8), point)
    # a -0.0 in z or in a coefficient flips a zero's sign
    @example([-0.0, 1.0], complex(-0.0, -0.0))
    @example([-0.0, -0.0, -1.0], complex(-0.0, 0.0))
    @example([1.0, 1.0, 1e200], 1e200 + 0j)  # overflow: inf + nanj
    @settings(max_examples=400, deadline=None)
    def test_horner_matches_complex_recursion(self, coeffs, z):
        p = Poly(coeffs)
        assert bits(p(z)) == bits(complex_horner(p.coeffs, z))

    def test_cache_is_not_a_field(self):
        p = Poly((1.0, -2.0, 0.5))
        fresh = Poly((1.0, -2.0, 0.5))
        p(1.5)
        assert [f.name for f in dataclasses.fields(Poly)] == ["coeffs"]
        assert p == fresh and hash(p) == hash(fresh) and repr(p) == repr(fresh)


def outcome(f, *args):
    """Bits of f(*args), or the type of the error it raises."""
    try:
        return bits(f(*args))
    except (ArithmeticError, BranchPointError) as err:
        return type(err)


def term_reference(t: ExpPowerTerm, z: complex) -> complex:
    """ExpPowerTerm.evaluate as poly(z) * exp(rate*z) * z**power."""
    z = complex(z)
    if z == 0:
        if abs(t.power) <= 1e-12:
            return t.poly(0j)
        if t.power > 0.0:
            return 0j
        raise BranchPointError
    return t.poly(z) * cmath.exp(complex(t.rate) * z) * z ** complex(t.power)


rate = st.one_of(signed_zero, st.floats(-3.0, 3.0))
power = st.one_of(st.integers(-3, 4).map(float), st.floats(-3.0, 4.0))


class TestTermBitIdentity:
    """The inline Horner recursion of ExpPowerTerm.evaluate gives the bits
    of the Poly call, exponential and power it replaces."""

    @given(st.lists(part, max_size=8), rate, power, point)
    @example([-0.0, 1.0], 0.5, 0.0, complex(-0.0, -0.0))
    @example([1.0, -0.0, 1.0], -0.5, 2.0, 2 + 0j)  # -0.0 in a coefficient
    @example([-2.0, -0.0, 1.0], 0.0, 0.0, complex(-1.5, -0.0))  # ... at a -0.0 in z
    @example([1.0, 1.0], -0.5, 0.5, complex(2.0, -0.0))  # -0.0 in z
    # float overflow: the float Horner value is inf, so the complex recursion runs
    @example([1.0, 1.0, 1e200], -1e-200, 0.5, 1e200 + 0j)
    @example([3.0, 1.0], 1.0, 0.0, 0j)  # z = 0, power zero: P(0)
    @example([3.0], 1.0, 2.0, complex(-0.0, 0.0))  # z = 0, integer power
    @example([3.0], 1.0, 1.0 / 3.0, 0j)  # z = 0, fractional power
    @example([3.0], 1.0, -0.5, 0j)  # z = 0, branch point
    @settings(max_examples=400, deadline=None)
    def test_evaluate_matches_poly_exp_power(self, coeffs, rate, power, z):
        t = ExpPowerTerm(Poly(coeffs), rate, power)
        assert outcome(t.evaluate, z) == outcome(term_reference, t, z)

    def test_negative_zero_coefficient_takes_the_float_path(self):
        """The kernel keeps the coefficients as floats, a -0.0 one too, and
        a real point runs the float recursion on them."""
        t = ExpPowerTerm(Poly((1.0, -0.0, 0.5)), -0.5, 1.5)
        floats, complexes, rate, power = t._kernel
        assert [c.hex() for c in floats] == [c.hex() for c in (0.5, -0.0, 1.0)]
        assert all(type(c) is float for c in floats)
        assert [bits(c) for c in complexes] == [bits(complex(c, 0.0)) for c in floats]
        value = (0.5 * 2.0 + -0.0) * 2.0 + 1.0
        want = complex(value) * cmath.exp(rate * 2.0) * (2 + 0j) ** power
        assert bits(t.evaluate(2.0)) == bits(want)

    def test_kernel_is_not_a_field(self):
        t = ExpPowerTerm(Poly((1.0, -2.0, 0.5)), -0.5, 1.5)
        fresh = ExpPowerTerm(Poly((1.0, -2.0, 0.5)), -0.5, 1.5)
        t.evaluate(1.5)
        assert "_kernel" in vars(t)
        assert [f.name for f in dataclasses.fields(ExpPowerTerm)] == ["poly", "rate", "power"]
        assert t == fresh and hash(t) == hash(fresh) and repr(t) == repr(fresh)


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
        assert t.poly.degree == 1
        assert t.poly.coeffs[0] == 1e-20

    def test_zero_poly_normalizes_to_zero_term(self):
        t = ExpPowerTerm(Poly(()), rate=3.0, power=1.5)
        assert t.is_zero
        assert t.rate == 0.0
        assert t.power == 0.0

    def test_derivative_of_constant_is_zero(self):
        assert ExpPowerTerm(Poly((1.0,)), 0.0, 0.0).derivative().is_zero

    def test_derivative_hydrogen_weight_step(self):
        t = ExpPowerTerm(Poly((1.0,)), rate=-1.0 / 3.0, power=4.0 / 3.0)
        d = t.derivative()
        assert d.rate == pytest.approx(-1.0 / 3.0)
        assert d.power == pytest.approx(1.0 / 3.0)
        assert d.poly.coefficient(0) == pytest.approx(4.0 / 3.0)
        assert d.poly.coefficient(1) == pytest.approx(-1.0 / 3.0)

    def test_pure_exponential_derivative_twice(self):
        t = ExpPowerTerm(Poly((1.0,)), rate=2.0, power=0.0)
        dd = t.derivative().derivative()
        assert dd.power == 0.0
        assert dd.rate == pytest.approx(2.0)
        assert dd.poly.coefficient(0) == pytest.approx(4.0)

    def test_evaluate_at_one(self):
        t = ExpPowerTerm(Poly((1.0,)), rate=-1.0 / 6.0, power=1.0 / 3.0)
        assert t.evaluate(1.0) == pytest.approx(math.exp(-1.0 / 6.0))

    def test_real_on_positive_axis(self):
        t = ExpPowerTerm(Poly((2.0, -1.0)), rate=-0.4, power=0.25)
        v = t.evaluate(1.7)
        assert v.imag == pytest.approx(0.0, abs=1e-15)

    def test_branch_point_rejected(self):
        """Re(power) <= 0 (power nonzero) has no limit at the origin."""
        for power in (-1.0, -0.5, -1.0 / 3.0):
            t = ExpPowerTerm(Poly((1.0,)), rate=0.0, power=power)
            with pytest.raises(BranchPointError):
                t.evaluate(0.0)

    def test_positive_power_vanishes_at_origin(self):
        for power in (0.5, 1.0 / 3.0, 2.5):
            t = ExpPowerTerm(Poly((2.0, 1.0)), rate=-1.0, power=power)
            assert t.evaluate(0.0) == 0j

    def test_integer_power_at_origin(self):
        assert ExpPowerTerm(Poly((3.0,)), 1.0, 0.0).evaluate(0.0) == 3 + 0j
        assert ExpPowerTerm(Poly((3.0,)), 1.0, 2.0).evaluate(0.0) == 0j

    def test_derivative_matches_central_difference_on_annulus(self):
        t = ExpPowerTerm(Poly((1.0, 0.5)), rate=-0.3, power=1.0 / 3.0)
        d = t.derivative()
        rng_points = [
            cmath.rect(0.5 + 2.5 * (i / 19.0), -1.2 + 2.4 * ((7 * i) % 20) / 19.0)
            for i in range(20)
        ]
        h = 1e-6
        for z in rng_points:
            fd = (t.evaluate(z + h) - t.evaluate(z - h)) / (2.0 * h)
            assert abs(d.evaluate(z) - fd) <= 1e-6 * (1.0 + abs(fd))
