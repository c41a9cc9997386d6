"""Dense complex polynomials and exponential-power terms.

Two closed families carry all symbolic work in this package: plain
polynomials ``P(A)``, and terms ``P(A) * exp(rate*A) * A**power`` which are
closed under differentiation.  Coefficients are stored in ascending degree
order and kept canonical by trimming trailing near-zeros.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from .errors import BranchPointError, DegreeError

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


def normal_coeffs(coeffs: Iterable[complex]) -> tuple[complex, ...]:
    """Raw coefficients in :class:`Poly`'s normal form, without the Poly:
    finite, with trailing ``|c| <= ZERO_TOL * max|c|`` dropped."""
    cs = [as_finite_complex(c) for c in coeffs]
    peak = max((abs(c) for c in cs), default=0.0)
    while cs and abs(cs[-1]) <= ZERO_TOL * peak:
        cs.pop()
    return tuple(cs)


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
        object.__setattr__(self, "coeffs", normal_coeffs(coeffs))

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
        """Evaluate by Horner recursion."""
        z = complex(z)
        acc = 0j
        for c in reversed(self.coeffs):
            acc = acc * z + c
        return acc

    def derivative(self) -> "Poly":
        """Formal derivative; degree drops by exactly one when nonconstant."""
        return _exact(k * self.coeffs[k] for k in range(1, len(self.coeffs)))

    def __iter__(self) -> Iterator[complex]:
        return iter(self.coeffs)

    def __add__(self, other: "Poly") -> "Poly":
        if not isinstance(other, Poly):
            return NotImplemented
        n = max(len(self.coeffs), len(other.coeffs))
        return _exact(self.coefficient(k) + other.coefficient(k) for k in range(n))

    def __sub__(self, other: "Poly") -> "Poly":
        if not isinstance(other, Poly):
            return NotImplemented
        n = max(len(self.coeffs), len(other.coeffs))
        return _exact(self.coefficient(k) - other.coefficient(k) for k in range(n))

    def __neg__(self) -> "Poly":
        return _exact(-c for c in self.coeffs)

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

    def shifted_up(self) -> "Poly":
        """Multiply by the variable: ``A * P(A)``."""
        if self.is_zero:
            return self
        return _exact((0j,) + self.coeffs)


def _exact(coeffs: Iterable[complex]) -> Poly:
    """Poly from already-computed coefficients, dropping only exact zeros."""
    cs = list(coeffs)
    while cs and cs[-1] == 0j:
        cs.pop()
    p = object.__new__(Poly)
    object.__setattr__(p, "coeffs", tuple(cs))
    return p


def quadratic_roots(p: Poly | Sequence[complex]) -> tuple[complex, complex]:
    """Roots of a degree-1 or degree-2 polynomial, given as a Poly or as
    its ascending coefficients in normal form (:func:`normal_coeffs`).

    A degree-1 input returns its single root twice.  Roots are sorted by
    real part, then by imaginary part, so callers see a deterministic
    order.  Uses the numerically stable quadratic formula (the larger of
    ``-b -/+ sqrt(disc)`` is divided first).
    """
    cs = tuple(p)
    if len(cs) == 2:
        root = -cs[0] / cs[1]
        return (root, root)
    if len(cs) != 3:
        raise DegreeError(f"need degree 1 or 2, got degree {len(cs) - 1}")
    c0, c1, c2 = cs
    sq = cmath.sqrt(c1 * c1 - 4.0 * c2 * c0)
    q = -(c1 + sq) if abs(c1 + sq) >= abs(c1 - sq) else -(c1 - sq)
    q *= 0.5
    if q == 0:  # c1 == 0 and c0 == 0
        roots = [0j, 0j]
    else:
        roots = [q / c2, c0 / q]
    roots.sort(key=lambda z: (z.real, z.imag))
    return (roots[0], roots[1])


@dataclass(frozen=True)
class ExpPowerTerm:
    """Term of the form ``P(A) * exp(rate*A) * A**power``.

    ``A**power`` uses the principal branch.  Canonical form: a zero
    polynomial forces ``rate = power = 0`` (the zero term), and factors of
    ``A`` dividing the polynomial are folded into ``power``.
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
            peak = max(abs(c) for c in cs)
            while len(cs) > 1 and abs(cs[0]) <= ZERO_TOL * peak:
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
        inner = (self.poly.derivative() + self.rate * self.poly).shifted_up()
        return ExpPowerTerm(inner + self.power * self.poly, self.rate, self.power - 1)

    def evaluate(self, z: complex) -> complex:
        """Evaluate at ``z`` on the principal branch of ``z**power``.

        At ``z = 0`` the value is ``P(0)`` for power zero and the limit
        0 for Re(power) > 0; any other power raises
        :class:`BranchPointError`, since ``z**power`` has no limit there.
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
        return self.poly(z) * cmath.exp(self.rate * z) * z ** self.power

    def times_poly(self, q: Poly) -> "ExpPowerTerm":
        """Multiply the polynomial factor by ``q``."""
        return ExpPowerTerm(self.poly * q, self.rate, self.power)

    def scaled(self, c: complex) -> "ExpPowerTerm":
        return ExpPowerTerm(self.poly * c, self.rate, self.power)
