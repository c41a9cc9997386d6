"""Dense real polynomials and exponential-power terms.

A term ``P(A) * exp(rate*A) * A**power`` holds the wavefunction body
psi = phi * y of a solved state, and a plain polynomial ``P(A)`` its
factor y.  The half-transform gives a real equation in A, so every
coefficient, rate and power is a finite float; complex arithmetic is
left to evaluating at a complex A.  Only the term evaluates, by Horner
recursion along a slice of operator space; a polynomial is a record of
its coefficients, in ascending degree order without exact-zero trailing
ones.  Its ``+`` is the coefficient-wise sum, kept only for the
benchmark's tracer test (ROADMAP item 1).
"""

from __future__ import annotations

from cmath import exp
from itertools import zip_longest
from math import isfinite
from typing import Callable, Iterable, NamedTuple

from .errors import BranchPointError
from .nu import _finite_real

#: Absolute slack when deciding whether a power is zero.
_ZERO_POWER_TOL = 1e-12


class Poly(NamedTuple("Poly", [("coeffs", tuple[float, ...])])):
    """Polynomial with real coefficients, ascending degree order.

    The empty tuple is the zero polynomial.  Construction drops exact-zero
    trailing coefficients and nothing else: high-order Rodrigues output
    has genuinely tiny leading coefficients (ratios below 1e-14 occur),
    and trimming those would change the polynomial, not clean it.
    """

    __slots__ = ()

    def __new__(cls, coeffs: Iterable[float] = ()) -> Poly:
        cs = [_finite_real("coeffs", c) for c in coeffs]
        while cs and cs[-1] == 0.0:
            cs.pop()
        return tuple.__new__(cls, (tuple(cs),))

    def __add__(self, other: "Poly") -> "Poly":
        """Coefficient-wise sum, kept for the benchmark's tracer test (ROADMAP item 1)."""
        if not isinstance(other, Poly):
            return NotImplemented
        return Poly(a + b for a, b in zip_longest(self.coeffs, other.coeffs, fillvalue=0.0))


class ExpPowerTerm(NamedTuple("ExpPowerTerm", [("poly", Poly), ("rate", float), ("power", float)])):
    """Term of the form ``P(A) * exp(rate*A) * A**power``.

    ``A**power`` uses the principal branch.  Canonical form: a zero
    polynomial forces ``rate = power = 0`` (the zero term), and factors of
    ``A`` dividing the polynomial, its exactly zero low-order coefficients,
    are folded into ``power``.  A merely tiny coefficient stays: whether
    it is tiny depends on the scale of the others.
    """

    __slots__ = ()

    def __new__(
        cls,
        poly: Poly | Iterable[float],
        rate: float = 0.0,
        power: float = 0.0,
    ) -> ExpPowerTerm:
        if not isinstance(poly, Poly):
            poly = Poly(poly)
        rate = _finite_real("rate", rate)
        power = _finite_real("power", power)
        if not poly.coeffs:
            rate = power = 0.0
        else:
            while poly.coeffs[0] == 0.0:
                poly = Poly(poly.coeffs[1:])
                power += 1
        return tuple.__new__(cls, (poly, rate, power))

    def along(self, alpha: float, beta: float) -> Callable[[float, complex, float], complex]:
        """The term on the slice ``A = alpha*r + i*hbar*beta*pbar`` as
        ``psi(r, pbar, hbar)``, with its constants bound once.

        At ``A = 0`` the value is ``P(0)`` for power zero, the limit 0 for
        power > 0, else :class:`BranchPointError`; elsewhere it has the
        bits of ``P(A) * exp(rate*A) * A**power``, P(A) by complex Horner
        recursion.  A real ``A = x`` runs the float recursion, the complex
        one's real part: the nonzero constant coefficient left by folding
        erases the sign of a zero imaginary part.  It starts at the leading
        coefficient c, since ``0.0*x + c == c`` for finite x, and a constant
        at 0.0, so that a non-finite x, like an overflow, falls back to the
        complex recursion.  Its value meets the tail as complex(value, 0.0)
        on CPython 3.10-3.13; 3.14 mixes them by C99 rules (gh-69639), and
        may differ.
        """
        real = self.poly.coeffs[::-1]
        top_down = tuple(map(complex, real))  # complex + complex is faster than + float
        lead, *rest = real if len(real) > 1 else (0.0, *real)
        rate, power, b = complex(self.rate), complex(self.power), self.power
        p0 = top_down[-1] if top_down else 0j  # P(0): c0 is nonzero in normal form
        at_zero = p0 if abs(b) <= _ZERO_POWER_TOL else 0j if b > 0.0 else None

        def psi(r: float, pbar: complex, hbar: float) -> complex:
            z = alpha * r + 1j * hbar * beta * pbar
            if z.imag == 0.0:
                x = z.real
                if x == 0.0:
                    if at_zero is None:
                        raise BranchPointError(f"z = 0 is a branch point for power {b}")
                    return at_zero
                value = lead
                for c in rest:
                    value = value * x + c
                if isfinite(value):
                    return value * exp(rate * z) * z ** power
            value = 0j
            for c in top_down:
                value = value * z + c
            return value * exp(rate * z) * z ** power

        return psi
