"""Exact polynomials and exponential-power terms over Fraction, and an
exact eigenvalue count of a tridiagonal matrix: the reference the tests
hold the float solver and oracle to.

A polynomial is a tuple of Fractions in ascending degree order with no
zero trailing coefficient; every function takes any iterable of floats,
ints or Fractions and converts it exactly.  A term
``P(A) * exp(rate*A) * A**power`` is a :class:`Term` in the normal form of
``phasenu.numeric.ExpPowerTerm``: a zero polynomial makes the zero term,
and zero low-order coefficients fold into the power.  Nothing here rounds,
so a float result of the solver can be compared with the exact value of
the same expression in the solver's own inputs.
"""

from fractions import Fraction
from itertools import zip_longest
from typing import NamedTuple


def poly(coeffs):
    """The exact polynomial with these coefficients."""
    cs = [Fraction(c) for c in coeffs]
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def coefficient(p, k):
    """Coefficient of degree ``k`` of p, zero beyond its length."""
    p = poly(p)
    return p[k] if k < len(p) else Fraction(0)


def add(p, q):
    return poly(a + b for a, b in zip_longest(poly(p), poly(q), fillvalue=0))


def mul(p, q):
    """The product; a scalar s multiplies as the polynomial ``(s,)``."""
    p, q = poly(p), poly(q)
    out = [Fraction(0)] * max(len(p) + len(q) - 1, 0)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return poly(out)


def derivative(p):
    p = poly(p)
    return poly(k * p[k] for k in range(1, len(p)))


def value(p, z):
    """p at z by Horner recursion; exact at a rational z."""
    acc = Fraction(0)
    for c in reversed(poly(p)):
        acc = acc * Fraction(z) + c
    return acc


class Term(NamedTuple):
    poly: tuple
    rate: Fraction
    power: Fraction


def term(p, rate=0, power=0):
    """The term ``p(A) * exp(rate*A) * A**power`` in normal form."""
    p, rate, power = poly(p), Fraction(rate), Fraction(power)
    if not p:
        return Term((), Fraction(0), Fraction(0))
    while p[0] == 0:
        p, power = p[1:], power + 1
    return Term(p, rate, power)


def term_derivative(t):
    """``d/dA [P e^{aA} A^b] = [A (P' + a P) + b P] e^{aA} A^{b-1}``."""
    if not t.poly:
        return t
    p, rate, power = t
    bracket = add(mul((0, 1), add(derivative(p), mul((rate,), p))), mul((power,), p))
    return term(bracket, rate, power - 1)


def scaled_value(t, power, z):
    """t at a rational z divided by ``exp(t.rate*z) * z**power``: exact, as
    ``t.power - power`` must be an integer."""
    k = t.power - Fraction(power)
    assert k.denominator == 1, k
    return value(t.poly, z) * Fraction(z) ** k


def levels_below(rows, x):
    """Eigenvalues strictly below a rational x of the symmetric tridiagonal
    matrix with ``rows`` (d_k, b_{k-1}^2, |b_k|): the negative pivots of
    the LDL^T factorization of T - x, by Sylvester's law of inertia.  A
    zero pivot before the last raises ZeroDivisionError."""
    count, q = 0, None
    for d, c, _ in rows:
        q = Fraction(d) - Fraction(x) - (0 if q is None else Fraction(c) / q)
        count += q < 0
    return count
