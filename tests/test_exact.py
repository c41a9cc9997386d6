"""The exact reference of ``exact.py``: its derivatives against known
values and central differences, and its normal form and values against
``phasenu.numeric``, so the solver tests that lean on it compare with the
right expression."""

import cmath
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phasenu.numeric import ExpPowerTerm, Poly

import exact

unit_coeff = st.floats(-1.0, 1.0)
unit_real = st.floats(-1.0, 1.0)
#: Coefficients with signed zeros, tiny and huge values, to exercise the normal form.
coeff = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -2.5, 1e-20, -1e200]),
    st.floats(-1e3, 1e3),
)
#: Powers whose float sums with small integers are exact, so folding in
#: floats and in Fractions must agree bit for bit.
power = st.sampled_from([-2.0, -0.5, 0.0, 0.25, 1.5, 3.0])


def as_float_term(t):
    """The exact term rounded to an ``ExpPowerTerm``."""
    return ExpPowerTerm([float(c) for c in t.poly], float(t.rate), float(t.power))


class TestPoly:
    def test_derivative_linear(self):
        assert exact.derivative((4.0, -1.0)) == (Fraction(-1),)

    def test_derivative_constant_is_zero(self):
        assert exact.derivative((7.0,)) == ()

    def test_derivative_square(self):
        assert exact.derivative((0.0, 0.0, 1.0)) == (0, 2)

    def test_coefficient_out_of_range(self):
        assert exact.coefficient((1.0,), 3) == 0

    def test_ring_operations(self):
        p, q = (1.0, 1.0), (-1.0, 1.0)
        assert exact.mul(p, q) == (-1, 0, 1)
        assert exact.add(p, q) == (0, 2)
        assert exact.mul((2.0,), p) == (2, 2)
        assert exact.add(p, exact.mul((-1,), p)) == ()

    @given(st.lists(unit_coeff, min_size=1, max_size=9), unit_real)
    @settings(max_examples=60, deadline=None)
    def test_derivative_matches_central_difference(self, coeffs, x):
        """With exact values the difference quotient is off only by the
        h**2 term of the Taylor series."""
        h = Fraction(1, 10**5)
        x = Fraction(x)
        fd = (exact.value(coeffs, x + h) - exact.value(coeffs, x - h)) / (2 * h)
        want = exact.value(exact.derivative(coeffs), x)
        assert abs(want - fd) <= Fraction(1, 10**6) * (1 + abs(want))

    @given(st.lists(coeff, max_size=8))
    @settings(max_examples=100, deadline=None)
    def test_normal_form_matches_poly(self, coeffs):
        """Both drop exact-zero trailing coefficients and nothing else."""
        assert exact.poly(coeffs) == tuple(map(Fraction, Poly(coeffs).coeffs))

    @given(st.lists(unit_coeff, max_size=9), unit_real)
    @settings(max_examples=100, deadline=None)
    def test_value_matches_float_horner(self, coeffs, x):
        """The exact value and the float Horner recursion agree to the
        recursion's rounding."""
        got = 0.0
        for c in reversed(coeffs):
            got = got * x + c
        scale = sum(abs(c) * abs(x) ** k for k, c in enumerate(coeffs))
        assert abs(got - float(exact.value(coeffs, x))) <= 1e-14 * (1.0 + scale)


class TestTerm:
    def test_derivative_of_constant_is_zero(self):
        d = exact.term_derivative(exact.term((1.0,), 0.0, 0.0))
        assert d == exact.term(())
        assert d == ((), 0, 0)

    def test_derivative_hydrogen_weight_step(self):
        t = exact.term((1,), rate=Fraction(-1, 3), power=Fraction(4, 3))
        d = exact.term_derivative(t)
        assert d.rate == Fraction(-1, 3)
        assert d.power == Fraction(1, 3)
        assert d.poly == (Fraction(4, 3), Fraction(-1, 3))

    def test_pure_exponential_derivative_twice(self):
        t = exact.term((1,), rate=2, power=0)
        dd = exact.term_derivative(exact.term_derivative(t))
        assert dd == ((4,), 2, 0)

    def test_derivative_matches_central_difference_on_annulus(self):
        """The exact derivative, rounded to a float term and evaluated by
        ``along`` on the slice A = r + i*pbar, against a central difference
        of the term itself."""
        t = exact.term((1.0, 0.5), rate=-0.3, power=1.0 / 3.0)
        psi = as_float_term(t).along(1.0, 1.0)
        dpsi = as_float_term(exact.term_derivative(t)).along(1.0, 1.0)
        points = [
            cmath.rect(0.5 + 2.5 * (i / 19.0), -1.2 + 2.4 * ((7 * i) % 20) / 19.0)
            for i in range(20)
        ]
        h = 1e-6
        for z in points:
            fd = (psi(z.real + h, z.imag, 1.0) - psi(z.real - h, z.imag, 1.0)) / (2.0 * h)
            assert abs(dpsi(z.real, z.imag, 1.0) - fd) <= 1e-6 * (1.0 + abs(fd))

    @given(st.lists(coeff, max_size=6), st.floats(-10.0, 10.0), power)
    @settings(max_examples=100, deadline=None)
    def test_normal_form_matches_exp_power_term(self, coeffs, rate, b):
        """The zero term and the folding of zero low-order coefficients into
        the power are those of ``ExpPowerTerm``."""
        want = ExpPowerTerm(coeffs, rate, b)
        got = exact.term(coeffs, rate, b)
        assert got.poly == tuple(map(Fraction, want.poly.coeffs))
        assert (got.rate, got.power) == (Fraction(want.rate), Fraction(want.power))

    def test_scaled_value_divides_out_the_power(self):
        t = exact.term((0, 1, 2), rate=5, power=Fraction(1, 3))
        assert t.power == Fraction(4, 3)
        z = Fraction(3, 2)
        assert exact.scaled_value(t, Fraction(1, 3), z) == exact.value((1, 2), z) * z
        with pytest.raises(AssertionError):
            exact.scaled_value(t, 0, z)


class TestLevelsBelow:
    def test_counts_a_two_by_two(self):
        # [[1, -1], [-1, 1]] has eigenvalues 0 and 2
        rows = [(1.0, 0.0, 1.0), (1.0, 1.0, 0.0)]
        assert [exact.levels_below(rows, x) for x in (-1, 0, 0.5, 2, 3)] == [0, 0, 1, 1, 2]

    def test_a_zero_pivot_before_the_last_raises(self):
        with pytest.raises(ZeroDivisionError):
            exact.levels_below([(1.0, 0.0, 1.0), (1.0, 1.0, 0.0)], Fraction(1))
