"""Nikiforov-Uvarov pipeline for hypergeometric-type equations.

Solves equations of the form

    psi'' + (tau_tilde / sigma) psi' + (sigma_tilde / sigma**2) psi = 0

with ``sigma = c * A`` and real coefficients, the shape the half-transform
gives the phase-space hydrogen equation, in float arithmetic, by the
substitution ``psi = phi * y``:  a constant K is
chosen so that the radicand of

    pi = (sigma' - tau_tilde)/2 +/- sqrt(((sigma' - tau_tilde)/2)**2
                                         - sigma_tilde + K * sigma)

is a perfect square, which keeps ``pi`` a polynomial of degree one.  With
sigma = c*A the K-free radicand q0 + q1 A + q2 A**2 plus K c A is the
square (u A + v)**2 exactly when u = sqrt(q2), v = +/-sqrt(q0) and
K = (2 u v - q1) / c; of the two candidates only v = -sqrt(q0) can give
a decaying tau with an admissible weight, and it is written down, not
solved for.  The remaining function ``y`` then satisfies
``sigma y'' + tau y' + lambda y = 0`` with ``tau = tau_tilde + 2 pi`` and
``lambda = K + pi'``, whose polynomial solutions exist exactly when
``lambda`` equals

    lambda_n = -n tau'

(the ``- n (n - 1) / 2 * sigma''`` term of the general method vanishes),
and are produced by the Rodrigues formula with weight rho satisfying
``(sigma rho)' = tau rho``.  For rho = exp(a A) A**b the Leibniz rule gives
y coefficient by coefficient.  Quantization of an energy-like parameter
kappa is the root of ``lambda(kappa) - lambda_n(kappa)``, which is affine
in u = sqrt(q2), so the root is written down too -- deliberately
independent of any closed-form spectrum a particular family may admit.
The equation is one record of
scalars, :class:`NuProblem`, and :func:`select_branch` resolves it into
another, :class:`NuBranch`, whose scalars give pi, tau, phi, rho and both
lambdas; a solved level, :class:`NuState`, adds kappa and the coefficients
of y.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Real
from typing import NamedTuple

from .errors import NoBranch, NoSignChange, RodriguesFailure

#: The quantized kappa must satisfy |lambda - lambda_n| below this, relative
#: to the terms of the sum.
RESIDUAL_TOL = 1e-10


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


@dataclass(frozen=True)
class NuProblem:
    """The equation with sigma = c*A, as the six real scalars the solver
    reads: c, sigma_tilde = s0 + s1 A + s2 A**2 as (s0, s1, s2) and
    tau_tilde = t0 + t1 A as (t0, t1), each finite, and c nonzero.

    The energy-like parameter kappa enters as ``-kappa * A**2`` added to
    sigma_tilde (:meth:`at`); the problem itself is the one at kappa = 0,
    and the quantization functions take it in that role.
    """

    c: float
    sigma_tilde: tuple[float, float, float]
    tau_tilde: tuple[float, float]

    def __post_init__(self) -> None:
        c = _finite_real("c", self.c)
        if c == 0:
            raise ValueError("c must be nonzero")
        st = tuple(_finite_real("sigma_tilde", s) for s in self.sigma_tilde)
        tt = tuple(_finite_real("tau_tilde", t) for t in self.tau_tilde)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "sigma_tilde", st)
        object.__setattr__(self, "tau_tilde", tt)

    def at(self, kappa: float) -> NuProblem:
        """The equation with ``-kappa * A**2`` added to sigma_tilde.

        c, tau_tilde, s0 and s1 are carried over as this record validated
        them.  kappa is checked by name first, then the new A**2
        coefficient, which a finite kappa can still overflow.
        """
        kappa = _finite_real("kappa", kappa)
        s0, s1, s2 = self.sigma_tilde
        st = (s0, s1, _finite_real("sigma_tilde[2] - kappa", s2 - kappa))
        shifted = object.__new__(NuProblem)
        vars(shifted).update(vars(self), sigma_tilde=st)
        return shifted


class NuBranch(NamedTuple):
    """The selected combination for sigma = c*A: the constant K,
    pi = pi0 + pi1*A and tau = tau_tilde + 2 pi = tau0 + tau1*A, and
    everything the chain derives from them alone."""

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


@dataclass(frozen=True)
class NuState:
    """Level n of a family, assembled at one kappa.

    Built only by :func:`assemble` (or :func:`solve_state`, at the
    quantized kappa): the selected branch, which carries phi and rho, and
    the coefficients of the Rodrigues polynomial y in ascending degree
    order; the equation at kappa is derived.
    """

    family: NuProblem
    n: int
    kappa: float
    branch: NuBranch
    y: tuple[float, ...]

    @property
    def problem(self) -> NuProblem:
        """The equation at this kappa."""
        return self.family.at(self.kappa)


def _kappa_free(problem: NuProblem) -> tuple[float, float, float, float]:
    """b0, b1, q1 and v of the problem, which kappa does not move: base =
    (c - tau_tilde)/2 = b0 + b1 A, the K-free radicand q = base**2 -
    sigma_tilde = q0 + q1 A + q2 A**2, and v = -sqrt(q0).  c <= 0 leaves
    no admissible weight (its rate tau'/c < 0 needs c > 0), and q0 < 0 no
    real K; each raises :class:`NoBranch`."""
    c = problem.c
    if not c > 0.0:
        raise NoBranch("no decaying combination has an admissible weight")
    t0, t1 = problem.tau_tilde
    s0, s1, _ = problem.sigma_tilde
    b0 = 0.5 * (c - t0)
    b1 = -0.5 * t1
    q0 = b0 * b0 - s0
    if q0 < 0.0:
        raise NoBranch(f"the radicand q0 = b0**2 - s0 = {q0!r} is negative: no real K")
    return b0, b1, b0 * b1 + b1 * b0 - s1, -math.sqrt(q0)


def select_branch(problem: NuProblem) -> NuBranch:
    """Pick the physical (K, sign) combination.

    pi = base - (u A + v) with base, q and v from :func:`_kappa_free` and
    u = sqrt(q2): q + K c A is then (u A + v)**2 for K = (2 u v - q1)/c.
    A negative q2 leaves no real pi' and raises :class:`NoBranch`.

    Only the sign -1 can give tau' < 0: pi' = -t1/2 +/- u with u >= 0,
    where t1 = tau_tilde', so the sign +1 gives tau' = t1 + 2 pi' >= 0
    whenever t1 is zero or a normal float.  The weight's rate tau'/c < 0
    needs c > 0, and then v = -sqrt(q0) gives the smaller of the two K,
    whose weight power (tau0 - c)/c = -2v/c >= 0 is admissible: the
    other root never wins in exact arithmetic, so it is not tried.
    """
    b0, b1, q1, v = _kappa_free(problem)
    c = problem.c
    t0, t1 = problem.tau_tilde
    q2 = b1 * b1 - problem.sigma_tilde[2]
    if q2 < 0.0:
        raise NoBranch(f"the radicand q2 = b1**2 - s2 = {q2!r} is negative: pi' is not real")
    u = math.sqrt(q2)
    pi1 = b1 - u
    tau1 = t1 + 2.0 * pi1
    if not tau1 < 0.0:
        raise NoBranch("no (K, sign) combination gives tau' < 0")
    pi0 = b0 - v
    K = _finite_real("K", (2.0 * u * v - q1) / c)
    return NuBranch(c, K, pi0, pi1, t0 + 2.0 * pi0, tau1)


def rodrigues_y(branch: NuBranch, n: int) -> tuple[float, ...]:
    """Coefficients, in ascending degree order, of the n-th Rodrigues
    polynomial ``(1 / rho) d^n/dA^n [sigma**n rho]``.

    rho is the branch's weight ``exp(a A) * A**b`` and sigma = c*A, so by
    the Leibniz rule the coefficient of A**j is

        c**n * C(n, j) * a**j * (n + b)(n + b - 1)...(b + j + 1),

    one product per coefficient, with the falling factorial carried from
    j = n downward; the quotient by rho is a polynomial by construction.
    A coefficient beyond the float range, or a degree short of n (a leading
    c**n a**n that underflows to zero), raises :class:`RodriguesFailure`.
    """
    if n < 0:
        raise ValueError("n must be non-negative")
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


def eigen_residual(family: NuProblem, kappa: float, n: int) -> float:
    """lambda - lambda_n for the branch selected at this kappa; ``at``
    names a kappa that is not a finite real."""
    problem = family.at(kappa)
    if not kappa > 0.0:
        raise ValueError("kappa must be positive")
    b = select_branch(problem)
    return b.lam - b.lam_n(n)


def solve_kappa(family: NuProblem, n: int) -> float:
    """Quantized kappa for level n: the root of the eigenvalue residual,
    written down.

    ``at(kappa)`` moves only s2, so u = sqrt(q2) = sqrt(b1**2 - s2 + kappa)
    while b1, q1 and v stay, and tau' = -2u.  lambda - lambda_n =
    K + pi' + n tau' is then affine in u,

        u (2v/c - 1 - 2n) + (b1 - q1/c),

    and its root u* = (q1/c - b1) / (2v/c - 1 - 2n) gives kappa =
    (u*)**2 - b1**2 + s2 (Nikiforov and Uvarov solve lambda = lambda_n
    for the parameter in the same way).  No closed-form spectrum is
    consulted.  n < 0 raises ValueError and c <= 0 :class:`NoBranch`,
    before anything is divided; a root u* <= 0, or a kappa that is not a
    positive float ((u*)**2 overflows, or underflows to zero), raises
    :class:`NoSignChange` naming n.  The gate evaluates the residual once
    at kappa and requires it below ``RESIDUAL_TOL`` relative to the
    terms it sums, 1 + |K| + |pi'| + |lambda_n|: float rounding of
    K + pi' - lambda_n grows with them.
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    _, b1, q1, v = _kappa_free(family)
    c = family.c
    u = (q1 / c - b1) / (2.0 * v / c - 1.0 - 2.0 * n)
    if not u > 0.0:
        raise NoSignChange(f"no level n={n}: lambda - lambda_n vanishes at sqrt(q2) = {u!r}")
    kappa = u * u - b1 * b1 + family.sigma_tilde[2]
    if not 0.0 < kappa < math.inf:
        raise NoSignChange(
            f"level n={n} lies at kappa = {kappa!r}, outside the positive float range"
        )
    residual = abs(eigen_residual(family, kappa, n))
    scale = 1.0 + abs((2.0 * u * v - q1) / c) + abs(b1 - u) + 2.0 * n * u
    if not residual <= RESIDUAL_TOL * scale:
        raise NoSignChange(
            f"the eigenvalue residual {residual:.3e} at kappa={kappa!r} is out of tolerance"
        )
    return kappa


def assemble(family: NuProblem, kappa: float, n: int) -> NuState:
    """Level n at this kappa: the branch and the Rodrigues y.

    Off the quantized kappa the parts still assemble, but phi * y no
    longer solves the equation; residual checks rely on that.
    """
    branch = select_branch(family.at(kappa))
    return NuState(family=family, n=n, kappa=kappa, branch=branch, y=rodrigues_y(branch, n))


def solve_state(family: NuProblem, n: int) -> NuState:
    """Quantize level n and assemble the state at the root.

    The written-down root and its gate run on scalars, and so does the
    assembly: a state holds floats only.
    """
    return assemble(family, solve_kappa(family, n), n)
