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
K = (2 u v - q1) / c, so the two candidates are written down, not solved
for.  The remaining function ``y`` then satisfies
``sigma y'' + tau y' + lambda y = 0`` with ``tau = tau_tilde + 2 pi`` and
``lambda = K + pi'``, whose polynomial solutions exist exactly when
``lambda`` equals

    lambda_n = -n tau'

(the ``- n (n - 1) / 2 * sigma''`` term of the general method vanishes),
and are produced by the Rodrigues formula with weight rho satisfying
``(sigma rho)' = tau rho``.  For rho = exp(a A) A**b the Leibniz rule gives
y coefficient by coefficient.  Quantization of an energy-like parameter
kappa is the root of ``lambda(kappa) - lambda_n(kappa)``, bracketed and
refined by Brent-Dekker in s = sqrt(kappa), in which the residual of the
hydrogen family is affine -- deliberately independent of any closed-form
spectrum a particular family may admit.  The equation is one record of
scalars, :class:`NuProblem`, and :func:`select_branch` resolves it into
another, :class:`NuBranch`, from which pi, tau, phi, rho and both lambdas
are read.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass
from typing import Callable, NamedTuple

from .errors import NoBranch, NoSignChange, RodriguesFailure
from .numeric import ExpPowerTerm, Poly, _exact

#: The kappa search stops when its bracket in sqrt(kappa) has this
#: relative width.
KAPPA_REL_WIDTH = 1e-12

#: The converged kappa must satisfy |lambda - lambda_n| below this (scaled).
RESIDUAL_TOL = 1e-10

#: Lower end of the kappa scan interval.
KAPPA_FLOOR = 1e-12


def _finite_real(name: str, value: float) -> float:
    """``value`` as a float; complex or non-finite input raises ValueError."""
    if isinstance(value, complex):
        raise ValueError(f"{name} must be real, got {value!r}")
    x = float(value)
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
        them; only the new A**2 coefficient, which can overflow, is checked.
        """
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
    def pi(self) -> Poly:
        return _exact((self.pi0, self.pi1))

    @property
    def tau(self) -> Poly:
        return _exact((self.tau0, self.tau1))

    @property
    def phi(self) -> ExpPowerTerm:
        """Integrating factor ``exp((pi1/c) A) * A**(pi0/c)``, phi'/phi = pi/sigma."""
        return ExpPowerTerm(Poly((1.0,)), *self._factor)

    @property
    def _factor(self) -> tuple[float, float]:
        return self.pi1 / self.c, self.pi0 / self.c

    @property
    def rho(self) -> ExpPowerTerm:
        """Weight ``exp((tau1/c) A) * A**((tau0 - c)/c)``, (sigma rho)' = tau rho."""
        return ExpPowerTerm(Poly((1.0,)), *self._weight)

    @property
    def _weight(self) -> tuple[float, float]:
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
    the Rodrigues polynomial y; the equation at kappa is derived.
    """

    family: NuProblem
    n: int
    kappa: float
    branch: NuBranch
    y: Poly

    @property
    def problem(self) -> NuProblem:
        """The equation at this kappa."""
        return self.family.at(self.kappa)

    @functools.cached_property
    def body(self) -> ExpPowerTerm:
        """The solution psi = phi * y of the original equation, built on
        first read and kept, so that its per-term kernel is kept too."""
        return self.branch.phi.times_poly(self.y)


def select_branch(problem: NuProblem) -> NuBranch:
    """Pick the physical (K, sign) combination.

    pi = base - (u A + v) with base = (c - tau_tilde)/2 as (b0, b1),
    q = base**2 - sigma_tilde as (q0, q1, q2), u = sqrt(q2) and
    v = +/-sqrt(q0): q + K c A is then (u A + v)**2 for K = (2 u v - q1)/c.
    A negative q2 or q0 leaves no real pi and raises :class:`NoBranch`.

    Only the sign -1 can give tau' < 0: pi' = -t1/2 +/- u with u >= 0,
    where t1 = tau_tilde', so the sign +1 gives tau' = t1 + 2 pi' >= 0
    whenever t1 is zero or a normal float.  Both K candidates share u, and
    so tau'; they differ in the sign of v = +/-sqrt(q0).  They are tried
    in order of K, each with sign -1; the first whose tau decays and whose
    weight is admissible (rate < 0 and power > -1 for rho, with
    sigma = c*A) wins.
    """
    c = problem.c
    t0, t1 = problem.tau_tilde
    s0, s1, s2 = problem.sigma_tilde
    b0 = 0.5 * (c - t0)
    b1 = -0.5 * t1
    q2 = b1 * b1 - s2
    if q2 < 0.0:
        raise NoBranch(f"the radicand q2 = b1**2 - s2 = {q2!r} is negative: pi' is not real")
    u = math.sqrt(q2)
    pi1 = b1 - u
    tau1 = t1 + 2.0 * pi1
    if not tau1 < 0.0:
        raise NoBranch("no (K, sign) combination gives tau' < 0")
    q0 = b0 * b0 - s0
    if q0 < 0.0:
        raise NoBranch(f"the radicand q0 = b0**2 - s0 = {q0!r} is negative: no real K")
    q1 = b0 * b1 + b1 * b0 - s1
    root = math.sqrt(q0)
    # both K made finite up front: a non-finite second K raises even if
    # the first wins
    candidates = [(_finite_real("K", (2.0 * u * v - q1) / c), v) for v in (root, -root)]
    candidates.sort(key=lambda kv: kv[0])
    for K, v in candidates:
        pi0 = b0 - v
        branch = NuBranch(c, K, pi0, pi1, t0 + 2.0 * pi0, tau1)
        rate, power = branch._weight
        if rate < 0.0 and power > -1.0:
            return branch
    raise NoBranch("no decaying combination has an admissible weight")


def rodrigues_y(branch: NuBranch, n: int) -> Poly:
    """n-th Rodrigues polynomial ``(1 / rho) d^n/dA^n [sigma**n rho]``.

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
    y = _exact(coeffs)
    if y.degree != n:
        raise RodriguesFailure(f"Rodrigues output has degree {y.degree}, expected {n}")
    return y


def eigen_residual(family: NuProblem, kappa: float, n: int) -> float:
    """lambda - lambda_n for the branch selected at this kappa."""
    if not kappa > 0.0:
        raise ValueError("kappa must be positive")
    b = select_branch(family.at(kappa))
    return b.lam - b.lam_n(n)


def _kappa_ceiling(zeta: float) -> float:
    """Upper end of the kappa search for linear coefficient ``zeta`` of
    sigma_tilde; inf when 10 zeta**2 overflows."""
    return max(10.0 * zeta * zeta, 1.0)


def _brent(f: Callable[[float], float], a: float, fa: float, b: float, fb: float) -> float:
    """Root of f between a and b, where fa and fb differ in sign, by Brent-Dekker.

    Secant or inverse quadratic steps are taken while they shrink the
    bracket fast enough, bisection steps otherwise (R. P. Brent,
    Algorithms for Minimization without Derivatives, 1973, ch. 4).  ``b``
    is the iterate, ``a`` the one before and ``c`` the far end of the
    bracket.  Stops on an exact zero, or when the bracket is narrower than
    ``KAPPA_REL_WIDTH`` relative (or floating-point resolution) and then
    returns the secant root of the final bracket, as bisection returned
    its midpoint.
    """
    c, fc = a, fa
    step = prev_step = b - a
    while True:
        if fa != 0.0 and fb != 0.0 and (fa < 0.0) != (fb < 0.0):
            c, fc = a, fa
            step = prev_step = b - a
        if abs(fc) < abs(fb):
            a, b, c = b, c, b
            fa, fb, fc = fb, fc, fb
        if fb == 0.0:
            return b
        tol = (2.0 * sys.float_info.epsilon + 0.5 * KAPPA_REL_WIDTH) * abs(b)
        half = 0.5 * (c - b)
        if abs(half) < tol:
            return b - fb * (b - c) / (fb - fc)
        if abs(prev_step) > tol and abs(fb) < abs(fa):
            if a == c:  # secant
                trial = -fb * (b - a) / (fb - fa)
            else:  # inverse quadratic interpolation
                da = (fa - fb) / (a - b)
                dc = (fc - fb) / (c - b)
                trial = -fb * (fc * dc - fa * da) / (dc * da * (fc - fa))
            if 2.0 * abs(trial) < min(abs(prev_step), 3.0 * abs(half) - tol):
                prev_step, step = step, trial
            else:
                prev_step = step = half
        else:
            prev_step = step = half
        a, fa = b, fb
        b += step if abs(step) > tol else (tol if half > 0.0 else -tol)
        fb = f(b)


def solve_kappa(family: NuProblem, n: int) -> float:
    """Quantized kappa for level n: the root of the eigenvalue residual.

    Searches s = sqrt(kappa), in which the residual of the hydrogen family
    is affine: brackets a sign change of ``eigen_residual`` at s**2 between
    its values at the ends of ``[sqrt(KAPPA_FLOOR), sqrt(max(10 zeta**2,
    1))]`` (``NoSignChange`` when they agree in sign, naming KAPPA_FLOOR
    when the residual is nearer zero there), refines it by
    Brent-Dekker to relative width ``KAPPA_REL_WIDTH`` in s, and requires
    |lambda - lambda_n| below ``RESIDUAL_TOL`` at the returned kappa = s**2.
    No closed-form spectrum is consulted.
    """
    lo = KAPPA_FLOOR
    hi = _kappa_ceiling(abs(family.sigma_tilde[1]))
    s_lo, s_hi = math.sqrt(lo), math.sqrt(hi)
    f_lo = eigen_residual(family, s_lo * s_lo, n)
    f_hi = eigen_residual(family, s_hi * s_hi, n)
    if f_lo == 0.0:
        return s_lo * s_lo
    if f_hi == 0.0:
        return s_hi * s_hi
    if f_lo * f_hi > 0.0:
        # A monotone residual is nearer zero at the end nearer its root.
        floor = f"no level at or above KAPPA_FLOOR = {lo:g}: " if abs(f_lo) < abs(f_hi) else ""
        raise NoSignChange(
            f"{floor}eigenvalue residual keeps one sign on [{lo:g}, {hi:g}] for n={n}"
        )
    s = _brent(lambda s: eigen_residual(family, s * s, n), s_lo, f_lo, s_hi, f_hi)
    kappa = s * s
    b = select_branch(family.at(kappa))
    lam_n = b.lam_n(n)
    residual = abs(b.lam - lam_n)
    if residual > RESIDUAL_TOL * (1.0 + abs(lam_n)):
        raise NoSignChange(
            f"the kappa search converged to kappa={kappa!r} but the eigenvalue "
            f"residual {residual:.3e} is out of tolerance"
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

    The root search and its gate run on scalars, so polynomials are built
    once, by the assembly.
    """
    return assemble(family, solve_kappa(family, n), n)
