"""Dense real polynomials and exponential-power terms.

A term ``P(A) * exp(rate*A) * A**power`` holds the wavefunction body
psi = phi * y of a solved state, and a plain polynomial ``P(A)`` its
factor y.  The half-transform gives a real equation in A, so every
coefficient, rate and power is a finite float; complex arithmetic is
left to evaluating at a complex A.  Both evaluate by Horner recursion
(a term along a slice of operator space), and their algebra (sum,
product, derivative) is what the tests build reference values from.
Coefficients are stored in ascending degree order, without exact-zero
trailing ones.
"""

from __future__ import annotations

from cmath import exp
from dataclasses import dataclass
from itertools import zip_longest
from math import isfinite
from typing import Callable, Iterable, Iterator

from .errors import BranchPointError
from .nu import _finite_real

#: Absolute slack when deciding whether a power is zero.
_ZERO_POWER_TOL = 1e-12


@dataclass(frozen=True)
class Poly:
    """Polynomial with real coefficients, ascending degree order.

    The empty tuple is the zero polynomial.  Construction and arithmetic
    drop exact-zero trailing coefficients and nothing else: long
    derivative chains produce genuinely tiny leading coefficients (ratios
    below 1e-14 occur in high-order Rodrigues output), and trimming those
    would change the polynomial, not clean it.
    """

    coeffs: tuple[float, ...] = ()

    def __init__(self, coeffs: Iterable[float] = ()) -> None:
        object.__setattr__(self, "coeffs", _trim([_finite_real("coeffs", c) for c in coeffs]))

    @property
    def degree(self) -> int:
        """Degree of the polynomial; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def coefficient(self, k: int) -> float:
        """Coefficient of degree ``k`` (zero beyond the stored length)."""
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else 0.0

    def __call__(self, z: complex) -> complex:
        """Evaluate by Horner recursion in complex arithmetic."""
        z = complex(z)
        value = 0j
        for c in reversed(self.coeffs):
            value = value * z + complex(c)
        return value

    def derivative(self) -> "Poly":
        """Formal derivative; degree drops by exactly one when nonconstant."""
        return _exact(k * self.coeffs[k] for k in range(1, len(self.coeffs)))

    def __iter__(self) -> Iterator[float]:
        return iter(self.coeffs)

    def __add__(self, other: "Poly") -> "Poly":
        if not isinstance(other, Poly):
            return NotImplemented
        return _exact(a + b for a, b in zip_longest(self.coeffs, other.coeffs, fillvalue=0.0))

    def __mul__(self, other: "Poly | float | int") -> "Poly":
        if isinstance(other, Poly):
            if self.is_zero or other.is_zero:
                return Poly()
            out = [0.0] * (len(self.coeffs) + len(other.coeffs) - 1)
            for i, a in enumerate(self.coeffs):
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
            return _exact(out)
        scalar = _finite_real("scalar", other)
        return _exact(scalar * c for c in self.coeffs)

    __rmul__ = __mul__


def _trim(cs: list[float]) -> tuple[float, ...]:
    while cs and cs[-1] == 0.0:
        cs.pop()
    return tuple(cs)


def _exact(coeffs: Iterable[float]) -> Poly:
    """Poly from already-computed float coefficients, unchecked."""
    p = object.__new__(Poly)
    object.__setattr__(p, "coeffs", _trim(list(coeffs)))
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
    rate: float = 0.0
    power: float = 0.0

    def __init__(
        self,
        poly: Poly | Iterable[float],
        rate: float = 0.0,
        power: float = 0.0,
    ) -> None:
        if not isinstance(poly, Poly):
            poly = Poly(poly)
        rate = _finite_real("rate", rate)
        power = _finite_real("power", power)
        if poly.is_zero:
            rate = power = 0.0
        else:
            cs = list(poly.coeffs)
            while cs[0] == 0.0:
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
        bracket = _exact((0.0, *(p.derivative() + rate * p))) + power * p
        return ExpPowerTerm(bracket, rate, power - 1)

    def along(self, alpha: float, beta: float) -> Callable[[float, complex, float], complex]:
        """The term on the slice ``A = alpha*r + i*hbar*beta*pbar`` as
        ``psi(r, pbar, hbar)``, with its constants bound once.

        At ``A = 0`` the value is ``P(0)`` for power zero and the limit 0
        for power > 0; any other power raises :class:`BranchPointError`,
        since ``A**power`` has no limit there.  Elsewhere it has the bits
        of ``poly(A) * exp(rate*A) * A**power`` (principal branch): the
        recursion of ``Poly.__call__`` runs inline, on floats at a real
        ``A``.  That is exact: the complex recursion over coefficients
        with imaginary part +0.0 does the same float operations on its
        real part, and a -0.0 imaginary part of ``A`` changes no bits, as
        folding leaves a nonzero constant coefficient, whose addition
        erases the sign of any zero.
        """
        real = self.poly.coeffs[::-1]
        top_down = tuple(map(complex, real))
        rate, power = complex(self.rate), complex(self.power)
        b = self.power
        at_zero = self.poly(0j) if abs(b) <= _ZERO_POWER_TOL else 0j if b > 0.0 else None

        def psi(r: float, pbar: complex, hbar: float) -> complex:
            z = alpha * r + 1j * hbar * beta * pbar
            if z == 0:
                if at_zero is None:
                    raise BranchPointError(f"z = 0 is a branch point for power {b}")
                return at_zero
            if z.imag == 0.0:
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

        return psi
