"""Nikiforov-Uvarov pipeline for the half-transformed hydrogen equation.

Solves

    psi'' + (2 / sigma) psi' + (sigma_tilde / sigma**2) psi = 0,
    sigma = c A,  sigma_tilde = s0 + s1 A - kappa A**2,

with real coefficients, the shape the half-transform gives the phase-space
hydrogen equation (tau_tilde = 2), in float arithmetic, by the substitution
``psi = phi * y``.  A constant K makes the radicand of

    pi = b0 +/- sqrt(b0**2 - sigma_tilde + K * sigma),  b0 = (c - 2)/2,

a perfect square, which keeps ``pi`` a polynomial of degree one: the
K-free radicand q0 + q1 A + kappa A**2, with q0 = b0**2 - s0 and q1 = -s1,
plus K c A is (u A + v)**2 exactly when u = sqrt(kappa), v = +/-sqrt(q0)
and K = (2 u v - q1) / c.  Only v = -sqrt(q0) can give a decaying tau with
an admissible weight, and it is written down, not solved for:
pi = b0 - v - u A.  y then satisfies ``sigma y'' + tau y' + lambda y = 0``
with ``tau = 2 + 2 pi`` and ``lambda = K + pi'``, whose polynomial
solutions exist exactly when lambda equals lambda_n = -n tau' = 2 n u (the
``- n (n - 1) / 2 * sigma''`` term of the general method vanishes), and are
produced by the Rodrigues formula with weight rho, ``(sigma rho)' = tau
rho``; for rho = exp(a A) A**b the Leibniz rule gives y coefficient by
coefficient.  kappa is quantized as the root of lambda - lambda_n, affine
in u, so the root is written down too -- deliberately independent of any
closed-form spectrum.  :class:`NuProblem` holds the equation less its
kappa term, :func:`select_branch` resolves it at a kappa into
:class:`NuBranch`, whose scalars give pi, tau, phi, rho and both lambdas,
and :class:`NuState` adds n and kappa; :func:`solve_state` gates it at
the root.  :func:`rodrigues_y` builds y where y is printed or evaluated.
"""

from __future__ import annotations

import math
from numbers import Real
from typing import NamedTuple

from .errors import NoBranch, NoSignChange, RodriguesFailure

#: The quantized kappa must satisfy |lambda - lambda_n| below this, relative
#: to the terms of the sum.
RESIDUAL_TOL = 1e-10

#: The highest level whose y is within the float range.  y's constant
#: coefficient carries the falling factorial (b + n)...(b + 1), at least n!
#: for the weight power b = -2v/c >= 0 of every branch, and 171! (about
#: 1.2e309) is beyond the float range where 170! (about 7.3e306) is not.
RODRIGUES_MAX_N = 170


def _finite_real(name: str, value: float) -> float:
    """``value`` as a float; anything but a finite real number raises
    ValueError naming ``name``, one beyond the float range included."""
    if type(value) is float:  # skips the far slower ABC check
        x = value
    elif isinstance(value, Real) and type(value) is not bool:  # True is an int too
        try:
            x = float(value)
        except OverflowError as err:  # a huge int or Fraction
            raise ValueError(f"{name} is beyond the float range: {err}") from None
    else:
        raise ValueError(f"{name} must be real, got {value!r}")
    if not math.isfinite(x):
        raise ValueError(f"non-finite value not admitted: {name} = {value!r}")
    return x


class NuProblem(NamedTuple("NuProblem", [("c", float), ("sigma_tilde", tuple[float, float])])):
    """The equation with sigma = c*A, as the three real scalars the solver
    reads: c and the kappa-free part of sigma_tilde, s0 + s1 A, as
    (s0, s1), each finite, and c nonzero.

    tau_tilde is 2, and kappa enters only as ``-kappa * A**2`` in
    sigma_tilde; the functions that take a problem take kappa beside it.
    """

    __slots__ = ()

    def __new__(cls, c: float, sigma_tilde: tuple[float, float]) -> NuProblem:
        c = _finite_real("c", c)
        if c == 0:
            raise ValueError("c must be nonzero")
        st = tuple(_finite_real("sigma_tilde", s) for s in sigma_tilde)
        if len(st) != 2:
            raise ValueError(f"sigma_tilde must be (s0, s1), got {len(st)} entries")
        return tuple.__new__(cls, (c, st))


class NuBranch(NamedTuple):
    """The selected combination for sigma = c*A: the constant K,
    pi = pi0 + pi1*A and tau = 2 + 2 pi = tau0 + tau1*A, and everything
    the chain derives from them alone."""

    c: float
    K: float
    pi0: float
    pi1: float
    tau0: float
    tau1: float

    @property
    def _factor(self) -> tuple[float, float]:
        """Rate and power of the integrating factor phi =
        ``exp((pi1/c) A) * A**(pi0/c)``, phi'/phi = pi/sigma."""
        return self.pi1 / self.c, self.pi0 / self.c

    @property
    def _weight(self) -> tuple[float, float]:
        """Rate and power of the weight rho =
        ``exp((tau1/c) A) * A**((tau0 - c)/c)``, (sigma rho)' = tau rho."""
        return self.tau1 / self.c, (self.tau0 - self.c) / self.c

    @property
    def lam(self) -> float:
        """lambda = K + pi'."""
        return self.K + self.pi1

    def lam_n(self, n: int) -> float:
        """lambda_n = -n tau' (the sigma'' term vanishes for sigma = c*A)."""
        if n < 0:
            raise ValueError("n must be non-negative")
        return -n * self.tau1


class NuState(NamedTuple):
    """Level n of a family, assembled at one kappa.

    Built only by :func:`assemble` (or :func:`solve_state`, at the
    quantized kappa): the selected branch, which carries phi and rho; the
    equation at kappa is the family's with ``-kappa * A**2`` in
    sigma_tilde, and the Rodrigues y is ``rodrigues_y(branch, n)``.
    """

    family: NuProblem
    n: int
    kappa: float
    branch: NuBranch


def _kappa_free(family: NuProblem) -> tuple[float, float, float]:
    """b0, q1 and v of the family, which kappa does not move: base =
    (c - 2)/2 = b0, the K-free radicand q = base**2 - sigma_tilde =
    q0 + q1 A + kappa A**2, and v = -sqrt(q0).  c <= 0 leaves no
    admissible weight (its rate tau'/c < 0 needs c > 0), and q0 < 0 no
    real K; each raises :class:`NoBranch`."""
    c = family.c
    if not c > 0.0:
        raise NoBranch("no decaying combination has an admissible weight")
    s0, s1 = family.sigma_tilde
    b0 = 0.5 * (c - 2.0)
    q0 = b0 * b0 - s0
    if q0 < 0.0:
        raise NoBranch(f"the radicand q0 = b0**2 - s0 = {q0!r} is negative: no real K")
    return b0, -s1, -math.sqrt(q0)


def select_branch(family: NuProblem, kappa: float) -> NuBranch:
    """Pick the physical (K, sign) combination of the equation at kappa.

    pi = b0 - (u A + v) with b0, q1 and v from :func:`_kappa_free` and
    u = sqrt(kappa): q + K c A is then (u A + v)**2 for K = (2 u v - q1)/c.
    kappa is checked by name first; kappa <= 0 leaves no decaying tau and
    raises ValueError.

    Only the sign -1 gives tau' = -2u < 0.  The weight's rate tau'/c < 0
    needs c > 0, and then v = -sqrt(q0) gives the smaller of the two K,
    whose weight power (tau0 - c)/c = -2v/c >= 0 is admissible: the
    other root never wins in exact arithmetic, so it is not tried.
    """
    kappa = _finite_real("kappa", kappa)
    if not kappa > 0.0:
        raise ValueError("kappa must be positive")
    b0, q1, v = _kappa_free(family)
    c = family.c
    u = math.sqrt(kappa)
    pi0 = b0 - v
    K = _finite_real("K", (2.0 * u * v - q1) / c)
    return NuBranch(c, K, pi0, -u, 2.0 + 2.0 * pi0, -2.0 * u)


def rodrigues_y(branch: NuBranch, n: int) -> tuple[float, ...]:
    """Coefficients, in ascending degree order, of the n-th Rodrigues
    polynomial ``(1 / rho) d^n/dA^n [sigma**n rho]``.

    rho is the branch's weight ``exp(a A) * A**b`` and sigma = c*A, so by
    the Leibniz rule the coefficient of A**j is

        c**n * C(n, j) * a**j * (n + b)(n + b - 1)...(b + j + 1),

    one product per coefficient, with the falling factorial carried from
    j = n downward; the quotient by rho is a polynomial by construction.
    A coefficient beyond the float range, or a degree short of n (a leading
    c**n a**n that underflows to zero), raises :class:`RodriguesFailure`;
    so does n above ``RODRIGUES_MAX_N``, before anything is allocated.
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    if n > RODRIGUES_MAX_N:
        raise RodriguesFailure(f"a Rodrigues coefficient overflows at n={n}")
    a, b = branch._weight
    c_n, a_j = 1.0, [1.0]
    for _ in range(n):
        c_n *= branch.c
        a_j.append(a_j[-1] * a)
    coeffs = [0.0] * (n + 1)
    binomial, falling = 1.0, 1.0
    for j in range(n, -1, -1):
        coeffs[j] = c_n * binomial * a_j[j] * falling
        falling *= b + j
        binomial = binomial * j / (n - j + 1)
    if not all(map(math.isfinite, coeffs)):
        raise RodriguesFailure(f"a Rodrigues coefficient overflows at n={n}")
    if coeffs[n] == 0.0:
        degree = max((j for j, x in enumerate(coeffs) if x), default=-1)
        raise RodriguesFailure(f"Rodrigues output has degree {degree}, expected {n}")
    return tuple(coeffs)


def solve_kappa(family: NuProblem, n: int) -> float:
    """Quantized kappa for level n: the root of the eigenvalue residual,
    written down.

    kappa moves only u = sqrt(kappa), while b0, q1 and v stay, and
    tau' = -2u.  lambda - lambda_n = K + pi' + n tau' is then affine in u,

        u (2v/c - 1 - 2n) - q1/c,

    and its root u* = (q1/c) / (2v/c - 1 - 2n) gives kappa = (u*)**2
    (Nikiforov and Uvarov solve lambda = lambda_n for the parameter in
    the same way).  No closed-form spectrum is consulted.  n < 0 raises
    ValueError and c <= 0 :class:`NoBranch`, before anything is divided;
    a root u* <= 0, or a kappa that is not a positive float ((u*)**2
    overflows, or underflows to zero), raises :class:`NoSignChange`
    naming n.  :func:`solve_state` gates the state assembled there.
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    _, q1, v = _kappa_free(family)
    c = family.c
    u = q1 / c / (2.0 * v / c - 1.0 - 2.0 * n)
    if not u > 0.0:
        raise NoSignChange(f"no level n={n}: lambda - lambda_n vanishes at sqrt(q2) = {u!r}")
    kappa = u * u
    if not 0.0 < kappa < math.inf:
        raise NoSignChange(
            f"level n={n} lies at kappa = {kappa!r}, outside the positive float range"
        )
    return kappa


def assemble(family: NuProblem, kappa: float, n: int) -> NuState:
    """Level n at this kappa: the branch selected there.

    Off the quantized kappa the parts still assemble, but phi * y no
    longer solves the equation; residual checks rely on that.
    """
    return NuState(family, n, kappa, select_branch(family, kappa))


def solve_state(family: NuProblem, n: int) -> NuState:
    """Quantize level n, assemble the state at the root and gate it: the
    residual lambda - lambda_n of its branch must lie within ``RESIDUAL_TOL``
    times the terms it sums, 1 + |K| + |pi'| + |lambda_n|, whose float
    rounding it carries, or :class:`NoSignChange` is raised."""
    state = assemble(family, solve_kappa(family, n), n)
    b = state.branch
    lam_n = b.lam_n(n)
    residual = abs(b.lam - lam_n)
    if not residual <= RESIDUAL_TOL * (1.0 + abs(b.K) + abs(b.pi1) + abs(lam_n)):
        raise NoSignChange(
            f"the eigenvalue residual {residual:.3e} at kappa={state.kappa!r} is out of tolerance"
        )
    return state
