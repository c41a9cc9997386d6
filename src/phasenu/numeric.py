"""Dense complex polynomials and exponential-power terms.

Plain polynomials ``P(A)`` hold the pi, tau and y that ``solve`` prints,
and terms ``P(A) * exp(rate*A) * A**power`` hold the phi, rho and body
of a state.  Both evaluate by Horner recursion, and their algebra (sum,
product, derivative) is what the tests build reference values from.
Coefficients are stored in ascending degree order and kept canonical by
trimming trailing near-zeros.  ``Poly`` evaluates by the complex
recursion; a term runs it on floats when every coefficient has imaginary
part +0.0 and the point is real.  That is exact: the complex recursion
then does the same float operations on its real part.
"""

from __future__ import annotations

import cmath
from cmath import exp
from dataclasses import dataclass
from functools import cached_property
from itertools import zip_longest
from math import copysign, isfinite
from typing import Iterable, Iterator

from .errors import BranchPointError

#: Relative magnitude below which a coefficient counts as zero.
ZERO_TOL = 1e-14

#: Absolute slack when deciding whether a power is zero.
_ZERO_POWER_TOL = 1e-12


def as_finite_complex(value: complex | float | int) -> complex:
    """Coerce to ``complex``, rejecting NaN and infinity."""
    z = complex(value)
    if not cmath.isfinite(z):
        raise ValueError(f"non-finite value not admitted: {value!r}")
    return z


@dataclass(frozen=True)
class Poly:
    """Polynomial with complex coefficients, ascending degree order.

    The empty tuple is the zero polynomial.  Construction from raw input
    normalizes: trailing coefficients with ``|c| <= ZERO_TOL * max|c|``
    are dropped, which makes normalization idempotent.  Results of
    arithmetic drop only exact-zero tails: long derivative chains produce
    genuinely tiny leading coefficients (ratios below 1e-14 occur in
    high-order Rodrigues output) and trimming those would change the
    polynomial, not clean it.
    """

    coeffs: tuple[complex, ...] = ()

    def __init__(self, coeffs: Iterable[complex] = ()) -> None:
        cs = [as_finite_complex(c) for c in coeffs]
        peak = max((abs(c) for c in cs), default=0.0)
        while cs and abs(cs[-1]) <= ZERO_TOL * peak:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    @property
    def degree(self) -> int:
        """Degree of the polynomial; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def coefficient(self, k: int) -> complex:
        """Coefficient of degree ``k`` (zero beyond the stored length)."""
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else 0j

    def __call__(self, z: complex) -> complex:
        """Evaluate by Horner recursion in complex arithmetic."""
        z = complex(z)
        value = 0j
        for c in reversed(self.coeffs):
            value = value * z + c
        return value

    def derivative(self) -> "Poly":
        """Formal derivative; degree drops by exactly one when nonconstant."""
        return _exact(k * self.coeffs[k] for k in range(1, len(self.coeffs)))

    def __iter__(self) -> Iterator[complex]:
        return iter(self.coeffs)

    def __add__(self, other: "Poly") -> "Poly":
        if not isinstance(other, Poly):
            return NotImplemented
        return _exact(a + b for a, b in zip_longest(self.coeffs, other.coeffs, fillvalue=0j))

    def __mul__(self, other: "Poly | complex | float | int") -> "Poly":
        if isinstance(other, Poly):
            if self.is_zero or other.is_zero:
                return Poly()
            out = [0j] * (len(self.coeffs) + len(other.coeffs) - 1)
            for i, a in enumerate(self.coeffs):
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
            return _exact(out)
        scalar = as_finite_complex(other)
        return _exact(scalar * c for c in self.coeffs)

    __rmul__ = __mul__


def _exact(coeffs: Iterable[complex]) -> Poly:
    """Poly from already-computed coefficients, dropping only exact zeros."""
    cs = list(coeffs)
    while cs and cs[-1] == 0j:
        cs.pop()
    p = object.__new__(Poly)
    object.__setattr__(p, "coeffs", tuple(cs))
    return p


@dataclass(frozen=True)
class ExpPowerTerm:
    """Term of the form ``P(A) * exp(rate*A) * A**power``.

    ``A**power`` uses the principal branch.  Canonical form: a zero
    polynomial forces ``rate = power = 0`` (the zero term), and factors of
    ``A`` dividing the polynomial, its exactly zero low-order coefficients,
    are folded into ``power``.  A merely tiny coefficient stays: whether
    it is tiny depends on the scale of the others.
    """

    poly: Poly
    rate: complex = 0j
    power: complex = 0j

    def __init__(
        self,
        poly: Poly | Iterable[complex],
        rate: complex = 0.0,
        power: complex = 0.0,
    ) -> None:
        if not isinstance(poly, Poly):
            poly = Poly(poly)
        rate = as_finite_complex(rate)
        power = as_finite_complex(power)
        if poly.is_zero:
            rate = 0j
            power = 0j
        else:
            cs = list(poly.coeffs)
            while cs[0] == 0j:
                cs.pop(0)
                power += 1
            poly = _exact(cs)
        object.__setattr__(self, "poly", poly)
        object.__setattr__(self, "rate", rate)
        object.__setattr__(self, "power", power)

    @property
    def is_zero(self) -> bool:
        return self.poly.is_zero

    def derivative(self) -> "ExpPowerTerm":
        """Exact derivative, staying inside the family.

        ``d/dA [P e^{aA} A^b] = [A (P' + a P) + b P] e^{aA} A^{b-1}``;
        the power drops by at most one per derivative (folding may give it
        back when the polynomial picks up a factor of ``A``).
        """
        if self.is_zero:
            return self
        p, rate, power = self.poly, self.rate, self.power
        bracket = _exact((0j, *(p.derivative() + rate * p))) + power * p
        return ExpPowerTerm(bracket, rate, power - 1)

    @cached_property
    def _kernel(self) -> tuple:
        """What :meth:`evaluate` reads per point: the coefficients top down,
        their real parts if every imaginary part is +0.0, rate, power."""
        cs = self.poly.coeffs[::-1]
        real = all(c.imag == 0.0 and copysign(1.0, c.imag) > 0.0 for c in cs)
        return cs, (tuple(c.real for c in cs) if real else None), self.rate, self.power

    def evaluate(self, z: complex) -> complex:
        """Evaluate at ``z`` on the principal branch of ``z**power``.

        At ``z = 0`` the value is ``P(0)`` for power zero and the limit
        0 for Re(power) > 0; any other power raises
        :class:`BranchPointError`, since ``z**power`` has no limit there.
        Elsewhere the value has the bits of ``poly(z) * exp(rate*z) *
        z**power``: the Horner recursion of ``Poly.__call__`` runs inline,
        on floats for a real term at a real ``z``.  A -0.0 imaginary part
        of ``z`` changes no bits there: folding leaves a nonzero constant
        coefficient, whose addition erases the sign of any zero.
        """
        z = complex(z)
        if z == 0:
            b = self.power
            if abs(b) <= _ZERO_POWER_TOL:
                return self.poly(0j)
            if b.real > 0.0:
                return 0j
            raise BranchPointError(
                f"z = 0 is a branch point for power {b}"
            )
        top_down, real, rate, power = self._kernel
        if real is not None and z.imag == 0.0:
            x = z.real
            value = 0.0
            for c in real:
                value = value * x + c
            if isfinite(value):
                return complex(value) * exp(rate * z) * z ** power
        value = 0j
        for c in top_down:
            value = value * z + c
        return value * exp(rate * z) * z ** power

    def times_poly(self, q: Poly) -> "ExpPowerTerm":
        """Multiply the polynomial factor by ``q``."""
        return ExpPowerTerm(self.poly * q, self.rate, self.power)
